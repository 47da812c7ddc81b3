"""Byte identity of the end-to-end metrics payloads.

Each digest is sha256 over ``json.dumps(result.metrics, sort_keys=True)``
— the same image the repo benchmark compares between commits.  A change
to the ledger, privacy or serving path that is meant to be output-neutral
must leave both digests as they are; a change that alters outputs on
purpose re-records them and says why.
"""

import hashlib
import json

from repro.serving.gateway import ServingConfig
from repro.serving.run import run_serving
from repro.workloads.load import run_load
from repro.workloads.traffic import SpikeWindow, TrafficConfig

LOAD_METRICS_SHA256 = (
    "e76f2c3082b38ae0679f712bb7379c93ec4d9f5e0b5a84ad963a74f0e6d2b39e"
)
SERVING_METRICS_SHA256 = (
    "db408c0ac7fa5f7878fc2923aa5023660947e761b5e698b669c8a3bb5b12a4d8"
)


def metrics_sha256(result) -> str:
    payload = json.dumps(result.metrics, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_load_metrics_digest():
    result = run_load(n_agents=2000, epochs=2, seed=7)
    assert metrics_sha256(result) == LOAD_METRICS_SHA256


def test_serving_metrics_digest():
    traffic = TrafficConfig(
        n_users=100,
        horizon=5.0,
        rate_per_user=1.0,
        seed=7,
        spikes=(SpikeWindow(2.0, 3.0, 3.0),),
    )
    result = run_serving(traffic, ServingConfig())
    assert result.blocks_produced > 0 and result.txs_included > 0
    assert metrics_sha256(result) == SERVING_METRICS_SHA256
