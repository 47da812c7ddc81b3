"""The benchmark's own tests: ``python3 -m pytest perfbench/tests -q``."""

import json
import shutil
import subprocess
import sys
import types

import pytest

import cases
import run
from spans import Tracer

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def test_spec_matches_the_harness():
    assert [w["name"] for w in SPEC["workloads"]] == list(cases.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == (
        run.END_TO_END_UNITS
    )
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == (
        run.PER_LAYER_UNITS
    )


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", list(cases.WORKLOADS))
def test_tiny_pass_reports_every_metric(name, trace):
    result = run.run(name, seed=5, seconds=0.5, trace=trace, tiny=True)
    assert result["correct"]
    assert result["failed"] == 0 and result["attempted"] >= 1
    units = run.PER_LAYER_UNITS if trace else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_untraced_call_after_traced_call_is_unaffected():
    workload = cases.WORKLOADS["load-100k"].tiny()
    run.import_program()
    originals = [
        (p.owner, p.attr, vars(p.owner)[p.attr])
        for p in cases.layer_patches(workload)
    ]
    session = run.Session(workload, seed=9)
    session.call()
    session.call(traced=True)
    assert session.tracer.layers()["parallel.shard"]["calls"] > 0
    for owner, attr, original in originals:
        assert vars(owner)[attr] is original
    session.tracer.reset()
    session.call()
    assert session.tracer.names == []
    assert session.ok, session.problems


def test_serving_shed_and_failed_checks_count_as_failed_ops():
    workload = cases.WORKLOADS["serve-2k-knee"]
    result = types.SimpleNamespace(
        offered=10, completed=9,
        status_counts={200: 6, 400: 1, 409: 1, 429: 1},
        endpoint_stats={}, cache_hit_rate=0.0,
        metrics={"a": 1},
    )
    outcome = cases.assess(workload, result)
    assert outcome.problems and outcome.failed == 10
    result.completed = 10
    result.status_counts[500] = 1
    outcome = cases.assess(workload, result)
    assert not outcome.problems and outcome.failed == 2


def test_self_time_excludes_children_and_pending_spans_end():
    ticks = iter(range(100))
    tracer = Tracer(clock=lambda: float(next(ticks)))
    root = tracer.open("root")            # t=0
    tracer.open_until("setup", "dispatch")  # t=1
    inner = tracer.open("plan")           # t=2
    tracer.close(inner)                   # t=3
    dispatch = tracer.open("dispatch")    # closes setup at t=4, opens t=5
    tracer.close(dispatch)                # t=6
    tracer.close(root)                    # t=7
    layers = tracer.layers()
    assert layers["plan"]["self_s"] == 1.0
    assert layers["setup"]["self_s"] == 2.0
    assert layers["dispatch"]["self_s"] == 1.0
    assert layers["root"]["self_s"] == 3.0


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "load-100k",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
