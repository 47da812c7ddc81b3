"""The repo benchmark: host cost of ``run_load`` and ``run_serving``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload load-100k --seed 7 --seconds 15 --trace 0

One run imports the program from the checkout's ``src`` directory,
makes one untraced warm-up call, then calls the workload's entry point
again and again for ``--seconds`` seconds, with the same seed each time.
Every call's outputs are checked (see :func:`cases.assess`) and its
metrics digest must equal the warm-up's; on a pool workload it must
also equal the digest of an inline (``workers=1``) call, made in a
child process.  The last line of standard output is one JSON object::

    {"correct": true, "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``ref_wall_s``,
``ref_ops_per_s`` and ``ref_cpu_us_per_op`` (parent plus pool workers)
are means over the calls of the run, each call's time rescaled by the
host-speed probe run before and after it (:func:`host.probe_seconds`),
so that they read as seconds on the reference host; then
``peak_rss_mb`` of the process and its workers, ``setup_s`` (a fresh
process's imports, address table and pool start, rescaled by a probe
run right after them; the median of several fresh processes) and
``ok_share`` (operations that did not fail, over those attempted).
The unscaled wall clock of a call is ``untraced_wall_s`` of the traced
run.

``--trace 1`` alternates untraced and traced calls and reports, per
layer, the call count and self time of a traced call (medians over the
traced calls), plus ``unattributed_s``, ``covered_share``,
``untraced_wall_s`` and ``trace_overhead`` (traced over untraced wall
clock).  The spans of the last traced call are written to
``.perfbench/`` in the checkout.

The run exits 0 when every check passed, 1 when one failed and 2 when
the program cannot be imported from this checkout.
"""

from __future__ import annotations

import argparse
import gc
import json
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench"
if str(HERE) not in sys.path:
    sys.path.insert(0, str(HERE))

import cases  # noqa: E402
import host  # noqa: E402
from spans import Tracer, gc_spans, patched  # noqa: E402

#: Fresh processes whose set-up is timed; the median is ``setup_s``.
SETUP_REPEATS = 3
#: Calls (or untraced/traced pairs) a run makes even past ``--seconds``.
MIN_CALLS = 3
MIN_PAIRS = 1
#: No call starts once it would end past this many seconds after the
#: process started, so a run always ends well inside 180 s.
RUN_LIMIT_S = 150.0

END_TO_END_UNITS = {
    "ref_wall_s": "s",
    "ref_ops_per_s": "ops/s",
    "ref_cpu_us_per_op": "us/op",
    "peak_rss_mb": "MiB",
    "setup_s": "s",
    "ok_share": "share",
}

PER_LAYER_UNITS: Dict[str, str] = {}
for _layer in cases.LAYERS:
    PER_LAYER_UNITS[f"{_layer}.calls"] = "count"
    PER_LAYER_UNITS[f"{_layer}.self_s"] = "s"
PER_LAYER_UNITS.update({
    "ledger.block.txs_per_call": "tx/call",
    "parallel.ship_bytes": "B/epoch",
    "parallel.shard.imbalance": "ratio",
    "privacy.release_ratio": "share",
    "serving.gateway.cache_hit_ratio": "share",
    "unattributed_s": "s",
    "covered_share": "share",
    "traced_wall_s": "s",
    "untraced_wall_s": "s",
    "trace_overhead": "ratio",
})


class ProgramMissing(Exception):
    """The checkout holds no importable ``repro`` package."""


def import_program() -> float:
    """Import the entry points from this checkout; return the seconds."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(f"no repro package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    cases.import_entry_points()
    elapsed = time.perf_counter() - start
    import repro

    if Path(repro.__file__).resolve().parent.parent != SRC:
        raise ProgramMissing(f"repro was imported from {repro.__file__}")
    return elapsed


class Session:
    """One run of one workload: checked calls and their tallies."""

    def __init__(self, workload: cases.Workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.reference: Optional[str] = None
        self.tracer = Tracer()
        self._patches = None
        self._last_ops = 1

    @property
    def ok(self) -> bool:
        return not self.problems

    def call(self, workers: Optional[int] = None, traced: bool = False):
        """One checked call; ``(outcome, wall_s, cpu_s)`` or None if it
        raised.  CPU is the parent's plus the pool workers'."""
        gc.collect()
        pids = host.worker_pids()
        worker_cpu = sum(host.cpu_seconds(pid) for pid in pids)
        cpu = time.process_time()
        start = time.perf_counter()
        try:
            if traced:
                result = self._traced_call()
            else:
                result = cases.call(self.workload, self.seed, workers)
        except Exception:  # the run reports a failed call, then stops
            traceback.print_exc()
            self.problems.append("the entry point raised")
            self.attempted += self._last_ops
            self.failed += self._last_ops
            return None
        wall = time.perf_counter() - start
        cpu = time.process_time() - cpu
        cpu += sum(host.cpu_seconds(pid) for pid in pids) - worker_cpu
        outcome = cases.assess(self.workload, result)
        del result
        self._last_ops = outcome.ops
        self.attempted += outcome.ops
        self.failed += outcome.failed
        self.problems.extend(outcome.problems)
        if self.reference is None:
            self.reference = outcome.digest
        elif outcome.digest != self.reference:
            self.problems.append(
                f"metrics digest {outcome.digest[:12]} differs from the "
                f"reference {self.reference[:12]}"
            )
        return outcome, wall, cpu

    def _traced_call(self):
        tracer = self.tracer
        tracer.reset()
        if self._patches is None:
            self._patches = cases.layer_patches(self.workload)
        with patched(tracer, self._patches), gc_spans(tracer, cases.GC):
            root = tracer.open(cases.ROOT)
            if self.workload.kind == "load":
                tracer.open_until(cases.SETUP, "parallel.dispatch")
            try:
                return cases.call(self.workload, self.seed)
            finally:
                tracer.close_pending()
                tracer.close(root)


def setup_probe(workload: cases.Workload) -> float:
    """Set-up seconds of this (fresh) process: imports, table, pool;
    rescaled, like the calls' times, by a host-speed probe run after."""
    seconds = import_program()
    start = time.perf_counter()
    cases.build_address_table(workload)
    cases.start_pool(workload.workers)
    seconds += time.perf_counter() - start
    return seconds * host.PROBE_REF_S / host.probe_seconds()


def inline_digest(workload: cases.Workload, seed: int) -> str:
    """Metrics digest of one inline (``workers=1``) call in this process."""
    import_program()
    result = cases.call(workload, seed, workers=1)
    return cases.assess(workload, result).digest


def in_children(flag: str, workload_name: str, seed: int, tiny: bool,
                n: int) -> List[Dict]:
    """Run ``n`` fresh interpreters in turn in one of the probe modes;
    return the JSON object each prints last."""
    argv = [sys.executable, str(Path(__file__).resolve()), flag,
            "--workload", workload_name, "--seed", str(seed)]
    if tiny:
        argv.append("--tiny")
    answers = []
    for _ in range(n):
        done = subprocess.run(
            argv, cwd=str(ROOT), capture_output=True, text=True,
            timeout=120, check=True,
        )
        answers.append(json.loads(done.stdout.strip().splitlines()[-1]))
    return answers


def _keep_going(n: int, minimum: int, durations: List[float],
                measure_end: float, process_end: float) -> bool:
    now = time.perf_counter()
    estimate = statistics.median(durations)
    if now + estimate > process_end:
        return False
    return n < minimum or now + estimate <= measure_end


def measure_end_to_end(session: Session, seconds: float, setup_s: float,
                       process_end: float) -> Dict[str, float]:
    """Calls, each between two host-speed probes, for ``seconds``."""
    walls: List[float] = []
    probes = [host.probe_seconds()]
    scaled: Dict[str, List[float]] = {
        "ref_wall_s": [], "ref_ops_per_s": [], "ref_cpu_us_per_op": [],
    }
    rounds: List[float] = []
    measure_end = time.perf_counter() + seconds
    while session.ok:
        round_start = time.perf_counter()
        sample = session.call()
        if sample is None:
            break
        outcome, wall, cpu = sample
        probes.append(host.probe_seconds())
        # On a shared host the program and the probe slow down together;
        # the probes on either side of a call say by how much.
        scale = host.PROBE_REF_S / ((probes[-2] + probes[-1]) / 2)
        walls.append(wall)
        scaled["ref_wall_s"].append(wall * scale)
        scaled["ref_ops_per_s"].append(outcome.ops / (wall * scale))
        scaled["ref_cpu_us_per_op"].append(cpu * scale * 1e6 / outcome.ops)
        rounds.append(time.perf_counter() - round_start)
        if not _keep_going(len(walls), MIN_CALLS, rounds, measure_end,
                           process_end):
            break
    rss = host.peak_rss_mb() + sum(
        host.peak_rss_mb(pid) for pid in host.worker_pids()
    )
    metrics = {
        "setup_s": setup_s,
        "peak_rss_mb": rss,
        "ok_share": (
            1.0 - session.failed / session.attempted
            if session.attempted else 0.0
        ),
    }
    if walls:
        print(f"# {len(walls)} timed calls, wall_s median "
              f"{statistics.median(walls):.4f}, each: "
              + " ".join(f"{wall:.4f}" for wall in walls))
        print(f"# probe_s median {statistics.median(probes):.4f}, each: "
              + " ".join(f"{probe:.4f}" for probe in probes))
        # Means, not medians, of the rescaled calls: rescaling takes out
        # the slow spells, and what is left is short jitter that a mean
        # averages over every call.  In three interleaved 10-round sweeps
        # (seeds 201-210, 301-310, 401-410) on a shared 2-vCPU VM,
        # ref_wall_s spread 6.8/2.8/3.1%, 7.8/3.6/6.6% and 4.2/3.1/11.6%
        # across runs (load-100k, load-100k-w2, serve-2k-knee) as a mean,
        # 7.7/4.3/7.7%, 8.7/5.2/9.1% and 6.7/4.4/14.7% as a median; the
        # unscaled means of the same calls spread 25.6/11.9/15.3%,
        # 22.2/7.2/11.9% and 27.6/8.6/42.3%.
        for name, values in scaled.items():
            metrics[name] = statistics.fmean(values)
    return metrics


def layer_row(tracer: Tracer, outcome: cases.Outcome) -> Dict[str, float]:
    """Per-layer numbers of one traced call."""
    layers = tracer.layers()
    root = tracer.names.index(cases.ROOT)
    traced_wall = tracer.ends[root] - tracer.starts[root]
    row: Dict[str, float] = {}
    for name in cases.LAYERS:
        stats = layers.get(name, {"calls": 0, "self_s": 0.0})
        row[f"{name}.calls"] = stats["calls"]
        row[f"{name}.self_s"] = stats["self_s"]
    blocks = row["ledger.block.calls"]
    row["ledger.block.txs_per_call"] = (
        tracer.counters.get("ledger.block.txs", 0.0) / blocks
        if blocks else 0.0
    )
    row.update(outcome.extras)
    unattributed = tracer.self_seconds(root)
    row["unattributed_s"] = unattributed
    row["covered_share"] = 1.0 - unattributed / traced_wall
    row["traced_wall_s"] = traced_wall
    return row


def measure_layers(session: Session, seconds: float,
                   process_end: float) -> Dict[str, float]:
    """Untraced and traced calls in alternating order, pair by pair."""
    rows: List[Dict[str, float]] = []
    untraced: List[float] = []
    traced: List[float] = []
    pairs: List[float] = []
    measure_end = time.perf_counter() + seconds
    while session.ok:
        pair_start = time.perf_counter()
        order = (False, True) if len(pairs) % 2 == 0 else (True, False)
        for is_traced in order:
            sample = session.call(traced=is_traced)
            if sample is None:
                break
            outcome, wall, _cpu = sample
            if is_traced:
                traced.append(wall)
                rows.append(layer_row(session.tracer, outcome))
            else:
                untraced.append(wall)
        if not session.ok:
            break
        pairs.append(time.perf_counter() - pair_start)
        if not _keep_going(len(pairs), MIN_PAIRS, pairs, measure_end,
                           process_end):
            break
    if not rows:
        return {}
    metrics = {
        name: statistics.median(row[name] for row in rows)
        for name in rows[0]
    }
    metrics["untraced_wall_s"] = statistics.median(untraced)
    metrics["trace_overhead"] = (
        statistics.median(traced) / metrics["untraced_wall_s"]
    )
    OUT_DIR.mkdir(exist_ok=True)
    session.tracer.write_jsonl(
        OUT_DIR / f"spans-{session.workload.name}-{session.seed}.jsonl"
    )
    return metrics


def expectation_lines(workload: cases.Workload,
                      metrics: Dict[str, float]) -> List[str]:
    """How much of the traced wall the workload's named layers carry."""
    wall = metrics["traced_wall_s"]
    shares = {
        name: metrics[f"{name}.self_s"] / wall for name in cases.LAYERS
    }
    lines = [f"# covered share {metrics['covered_share']:.1%} (target 90%)"]
    for prefix in workload.expect:
        share = sum(v for k, v in shares.items() if k.startswith(prefix))
        lines.append(
            f"# expected layer {prefix}* carries {share:.1%} (target 20%)"
        )
    top = sorted(shares.items(), key=lambda kv: -kv[1])[:5]
    lines.append(
        "# largest layers: "
        + ", ".join(f"{name} {share:.1%}" for name, share in top)
    )
    return lines


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        tiny: bool = False) -> Dict[str, object]:
    """One benchmark run; returns the result object printed last."""
    process_end = time.perf_counter() + RUN_LIMIT_S
    workload = cases.WORKLOADS[workload_name]
    if tiny:
        workload = workload.tiny()
    fingerprint = host.fingerprint()
    print("# host " + json.dumps(fingerprint, sort_keys=True))
    if workload.workers > fingerprint["usable_cores"]:
        print(
            f"warning: {workload.name} uses {workload.workers} workers on "
            f"{fingerprint['usable_cores']} usable cores",
            file=sys.stderr,
        )

    import_program()
    session = Session(workload, seed)
    if workload.workers > 1:
        # Every call on the pool must reproduce the inline digest.  The
        # inline call runs in a child, so that it leaves no mark on this
        # process's peak resident set.
        session.reference = in_children(
            "--inline-digest", workload_name, seed, tiny, 1
        )[0]["digest"]
    if not trace:
        setups = [
            answer["setup_s"] for answer in in_children(
                "--setup-probe", workload_name, seed, tiny, SETUP_REPEATS
            )
        ]
    cases.build_address_table(workload)
    cases.start_pool(workload.workers)
    # The warm-up call: its set-up work is excluded from the timed calls.
    session.call()

    if trace:
        metrics = measure_layers(session, seconds, process_end)
        units = PER_LAYER_UNITS
        if metrics:
            for line in expectation_lines(workload, metrics):
                print(line)
    else:
        metrics = measure_end_to_end(
            session, seconds, statistics.median(setups), process_end
        )
        units = END_TO_END_UNITS
    missing = sorted(set(units) - set(metrics))
    if missing and session.ok:
        session.problems.append(f"metrics not measured: {missing}")
    for problem in session.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    for name in units:
        if name in metrics:
            print(f"{name:40s} {metrics[name]:>16.6g} {units[name]}")
    return {
        "correct": session.ok,
        "attempted": max(1, session.attempted),
        "failed": session.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
            if name in metrics
        },
    }


def stop_processes() -> None:
    """Stop the pool workers and the resource tracker the program
    started, and wait for each to exit."""
    if "repro.parallel.pool" in sys.modules:
        sys.modules["repro.parallel.pool"].shutdown_shared_pools()
    from multiprocessing import resource_tracker

    tracker = getattr(resource_tracker, "_resource_tracker", None)
    if tracker is not None and hasattr(tracker, "_stop"):
        tracker._stop()


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(cases.WORKLOADS))
    parser.add_argument("--seed", type=int, default=2022)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="shrink the workload to seconds (self-tests)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    parser.add_argument("--inline-digest", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    workload = cases.WORKLOADS[args.workload]
    if args.tiny:
        workload = workload.tiny()
    try:
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_probe(workload)}))
            return 0
        if args.inline_digest:
            print(json.dumps({"digest": inline_digest(workload, args.seed)}))
            return 0
        result = run(args.workload, args.seed, args.seconds,
                     bool(args.trace), args.tiny)
    except ProgramMissing as exc:
        print(f"perfbench: cannot run the program: {exc}", file=sys.stderr)
        return 2
    finally:
        stop_processes()
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
