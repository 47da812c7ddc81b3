"""Interleaved repeats of the benchmark, with medians and spreads.

Usage, from the root of a checkout::

    python3 perfbench/sweep.py --rounds 10 --seconds 20
    python3 perfbench/sweep.py --rounds 1 --trace 1 --first-seed 9001

Each round runs every workload once, each in a fresh ``run.py``
process, and rotates the workload order from round to round, so drift
on a shared host lands on every workload alike.  Round ``r`` uses seed
``first_seed + r``.  For every workload and metric the sweep prints the
median, the quartiles and the spread (quartile distance over the
median, as ``statistics.quantiles(values, n=4)`` gives them), and marks
a spread that exceeds a third of the metric's bound in
``BENCHMARK.json``.  Traced rounds also print each run's layer-share
lines.  The report is written as JSON to ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"


def load_spec() -> Dict:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as spec:
        return json.load(spec)


def run_once(workload: str, seed: int, seconds: int, trace: int) -> Dict:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace)]
    start = time.perf_counter()
    done = subprocess.run(argv, cwd=str(ROOT), capture_output=True,
                          text=True, timeout=600)
    elapsed = time.perf_counter() - start
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        result = {"correct": False, "metrics": {}}
    return {
        "workload": workload,
        "seed": seed,
        "exit": done.returncode,
        "elapsed_s": elapsed,
        "result": result,
        "notes": [line for line in lines if line.startswith("#")],
        "stderr": done.stderr.strip().splitlines()[-5:],
    }


def spread(values: List[float]) -> Dict[str, float]:
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "n": len(values),
    }


def summarise(runs: List[Dict], workloads: List[str]) -> Dict:
    summary: Dict[str, Dict[str, Dict[str, float]]] = {}
    for workload in workloads:
        values: Dict[str, List[float]] = {}
        for run in runs:
            if run["workload"] != workload:
                continue
            for name, metric in run["result"].get("metrics", {}).items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {
            name: spread(vals) for name, vals in values.items()
        }
    return summary


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--rounds", type=int, default=10)
    parser.add_argument("--seconds", type=int, default=None,
                        help="run length (default: BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)

    spec = load_spec()
    seconds = args.seconds or spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m for m in spec["end_to_end"]}

    runs: List[Dict] = []
    started = time.time()
    for r in range(args.rounds):
        shift = r % len(workloads)
        for workload in workloads[shift:] + workloads[:shift]:
            run = run_once(workload, args.first_seed + r, seconds, args.trace)
            runs.append(run)
            ok = run["exit"] == 0 and run["result"].get("correct")
            print(f"round {r} {workload:16s} seed {run['seed']:<6d} "
                  f"{run['elapsed_s']:6.1f}s {'ok' if ok else 'FAILED'}",
                  flush=True)
            for note in run["notes"]:
                if not note.startswith("# host"):
                    print("    " + note)
            if not ok:
                for line in run["stderr"]:
                    print("    " + line)

    summary = summarise(runs, workloads)
    flagged = 0
    for workload in workloads:
        print(f"\n{workload}")
        for name, stats in summary[workload].items():
            line = (f"  {name:40s} median {stats['median']:<14.6g} "
                    f"q1 {stats['q1']:<12.6g} q3 {stats['q3']:<12.6g} "
                    f"spread {stats['spread']:7.2%}")
            metric = bounds.get(name)
            if (metric is not None and name != "setup_s"
                    and stats["spread"] > metric["bound"] / 3):
                line += f"  > bound/3 ({metric['bound'] / 3:.2%})"
                flagged += 1
            print(line)
    total = time.time() - started
    print(f"\n{len(runs)} runs in {total:.0f}s "
          f"({total / max(1, len(runs)):.1f}s per run); {flagged} flagged")

    OUT_DIR.mkdir(exist_ok=True)
    report = OUT_DIR / f"sweep-trace{args.trace}-{int(started)}.json"
    with open(report, "w", encoding="utf-8") as out:
        json.dump({"seconds": seconds, "runs": runs, "summary": summary},
                  out, indent=1)
    print(f"report: {report.relative_to(ROOT)}")
    failed = any(
        run["exit"] != 0 or not run["result"].get("correct") for run in runs
    )
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
