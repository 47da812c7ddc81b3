"""Host facts for every result: fingerprint, CPU time, peak memory and
the speed of the host right now.

psutil is not available, so worker-process CPU and memory come straight
from ``/proc`` (Linux).  Where ``/proc`` is missing the readers return 0
for other processes and fall back to :mod:`resource` for this one.
"""

from __future__ import annotations

import gc
import hashlib
import multiprocessing
import os
import platform
import resource
import time
from typing import Dict, List, Union

_CLK_TCK = os.sysconf("SC_CLK_TCK") if hasattr(os, "sysconf") else 100


def usable_cores() -> List[int]:
    if hasattr(os, "sched_getaffinity"):
        return sorted(os.sched_getaffinity(0))
    return list(range(os.cpu_count() or 1))


def _meminfo_mb() -> float:
    try:
        with open("/proc/meminfo", encoding="ascii") as info:
            for line in info:
                if line.startswith("MemTotal:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            for line in info:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def fingerprint() -> Dict[str, Union[int, float, str]]:
    import numpy

    return {
        "usable_cores": len(usable_cores()),
        "cpu_model": _cpu_model(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "mem_total_mb": round(_meminfo_mb(), 1),
    }


def worker_pids() -> List[int]:
    """Live child processes started through :mod:`multiprocessing`
    (the persistent shard pool's workers)."""
    return sorted(child.pid for child in multiprocessing.active_children())


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds consumed so far by process ``pid``."""
    try:
        with open(f"/proc/{pid}/stat", encoding="ascii") as stat:
            fields = stat.read().rsplit(")", 1)[1].split()
    except OSError:
        return 0.0
    # Fields after the command name start at "state" (field 3), so
    # utime (14) and stime (15) sit at offsets 11 and 12.
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def peak_rss_mb(pid: Union[int, str] = "self") -> float:
    """Peak resident set (VmHWM) of ``pid`` in MiB."""
    try:
        with open(f"/proc/{pid}/status", encoding="ascii") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    if pid == "self":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return 0.0


#: Seconds :func:`probe_seconds` takes on the reference host, a quiet
#: 2-vCPU Intel Xeon VM (Python 3, numpy).  Timings rescaled by
#: ``PROBE_REF_S / probe`` read as seconds on that host.
PROBE_REF_S = 0.30


def probe_seconds() -> float:
    """Wall seconds of a fixed piece of work, the host-speed probe.

    On a shared host the program runs up to twice as slow for spells of
    tens of seconds, as neighbours contend for the cores' caches and
    memory.  The probe does the same kinds of work as the program (dict
    and string churn, hashing, sorting tuples, numpy sorts and gathers
    over a few MB) and none of the program's code, so its time moves
    with the host and not with a change to the program.  It makes no
    reference cycles, and the collector is paused while it runs, so its
    time does not depend on what the program left on the heap.
    """
    import numpy

    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        table = {f"agent-{i}": i * 7 % 1013 for i in range(60_000)}
        total = sum(value + len(key) for key, value in table.items())
        chain = hashlib.sha256()
        for i in range(20_000):
            chain.update(hashlib.sha256(str(i).encode("ascii")).digest())
        rows = sorted((i * 7919 % 100_003, i) for i in range(100_000))
        rng = numpy.random.default_rng(12345)
        keys = rng.integers(0, 100_000, 1_000_000)
        order = numpy.argsort(keys, kind="stable")
        counts = numpy.bincount(keys[order], minlength=100_000).cumsum()
        total += int((counts[keys] % 97).sum()) + rows[-1][1]
        elapsed = time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
    if total <= 0 or not chain.digest():
        raise AssertionError("the host-speed probe computed nothing")
    return elapsed
