"""The benchmark workloads: inputs, output checks and the layer map.

Every workload calls one public entry point of the program,
``repro.workloads.load.run_load`` or ``repro.serving.run.run_serving``,
with inputs drawn from the benchmark seed.  All timings are host time of
the simulator; the simulated-time outputs (serving latency percentiles,
goodput, shed counts) are correctness outputs, compared byte for byte
through the metrics digest.

``repro`` is imported lazily: ``run.py`` first puts the checkout's
``src`` directory on the path.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Tuple

from spans import Patch, Tracer

#: Operation counts of a load run: txs + ratings + reports + votes +
#: interactions + frames.
LOAD_OP_FIELDS = (
    "txs_submitted",
    "ratings_recorded",
    "reports_filed",
    "votes_cast",
    "interactions_processed",
    "frames_offered",
)

#: Serving statuses that count as failed operations: shed (429) and
#: server errors (5xx).  400 and 409 are the deliberately malformed and
#: policy-refused traffic, so they are correct answers.
SHED = 429
SERVER_ERROR = 500


@dataclass(frozen=True)
class Workload:
    """One benchmark input set (why each exists: ``BENCHMARK.json``).

    ``expect`` names the layer prefixes whose self time the workload is
    chosen to stress; the traced run reports their share of the traced
    wall clock (at least a fifth when the workload still tells its
    story).
    """

    name: str
    kind: str
    params: Dict[str, Any]
    workers: int
    expect: Tuple[str, ...]

    def tiny(self) -> "Workload":
        """The same workload shrunk to seconds, for the benchmark's tests."""
        if self.kind == "load":
            small = dict(self.params, n_agents=2_000, epochs=2)
        else:
            small = dict(self.params, n_users=100, horizon=5.0)
        return dataclasses.replace(self, params=small)


def _serve_params(n_users: int, rate_per_user: float, horizon: float):
    return {
        "n_users": n_users,
        "rate_per_user": rate_per_user,
        "horizon": horizon,
        # One x3 flash crowd over the middle fifth of the horizon.
        "spike_start": 0.4,
        "spike_end": 0.6,
        "spike_multiplier": 3.0,
    }


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="load-100k",
            kind="load",
            params={"n_agents": 100_000, "epochs": 5},
            workers=1,
            expect=("ledger.",),
        ),
        Workload(
            name="load-100k-w2",
            kind="load",
            params={"n_agents": 100_000, "epochs": 5},
            workers=2,
            expect=("parallel.dispatch",),
        ),
        Workload(
            name="serve-2k-knee",
            kind="serve",
            params=_serve_params(2_000, 0.16, 30.0),
            workers=1,
            expect=("dao.tally",),
        ),
    )
}


# ---------------------------------------------------------------------------
# Calling the entry points
# ---------------------------------------------------------------------------
def call(workload: Workload, seed: int, workers: Optional[int] = None):
    """One call into the workload's entry point; returns its result."""
    workers = workload.workers if workers is None else workers
    params = workload.params
    if workload.kind == "load":
        from repro.workloads.load import run_load

        return run_load(
            n_agents=params["n_agents"],
            epochs=params["epochs"],
            seed=seed,
            workers=workers,
        )
    from repro.serving.gateway import ServingConfig
    from repro.serving.run import run_serving
    from repro.workloads.traffic import SpikeWindow, TrafficConfig

    horizon = params["horizon"]
    traffic = TrafficConfig(
        n_users=params["n_users"],
        horizon=horizon,
        rate_per_user=params["rate_per_user"],
        seed=seed,
        spikes=(
            SpikeWindow(
                start=params["spike_start"] * horizon,
                end=params["spike_end"] * horizon,
                multiplier=params["spike_multiplier"],
            ),
        ),
    )
    return run_serving(traffic, ServingConfig(), workers=workers)


def build_address_table(workload: Workload) -> None:
    """Fill the module-level address table a fresh process builds once."""
    if workload.kind == "load":
        from repro.workloads.load import agent_addresses

        agent_addresses(workload.params["n_agents"])


def start_pool(workers: int) -> None:
    """Create the shared pool for ``workers`` and start its processes."""
    if workers > 1:
        from repro.parallel.pool import shared_pool

        shared_pool(workers).map_ordered(abs, [0] * workers)


def import_entry_points() -> None:
    import repro.serving.run  # noqa: F401
    import repro.workloads.load  # noqa: F401


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------
@dataclass
class Outcome:
    """What one call did: its op count, failures, digest and problems."""

    ops: int
    failed: int
    digest: str
    problems: List[str]
    extras: Dict[str, float]


def metrics_digest(result) -> str:
    payload = json.dumps(result.metrics, sort_keys=True)
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def assess(workload: Workload, result) -> Outcome:
    """Check one result's outputs; never raises on a failed check."""
    problems: List[str] = []
    if workload.kind == "load":
        ops = sum(int(getattr(result, f)) for f in LOAD_OP_FIELDS)
        failed = 0
        if result.txs_included != result.txs_submitted:
            problems.append(
                f"txs_included {result.txs_included} != "
                f"txs_submitted {result.txs_submitted}"
            )
        frames = (
            result.frames_released
            + result.frames_blocked_consent
            + result.frames_blocked_budget
        )
        if frames != result.frames_offered:
            problems.append(
                f"released+blocked frames {frames} != "
                f"frames_offered {result.frames_offered}"
            )
        ship = result.ship_cost or {}
        epochs = max(1, result.epochs)
        imbalance = (result.imbalance or {}).get("epoch", {})
        extras = {
            "parallel.ship_bytes": ship.get("ship_bytes_total", 0) / epochs,
            "parallel.shard.imbalance": imbalance.get("imbalance", 0.0),
            "privacy.release_ratio": (
                result.frames_released / result.frames_offered
                if result.frames_offered else 0.0
            ),
            "serving.gateway.cache_hit_ratio": 0.0,
        }
    else:
        ops = int(result.offered)
        counts = result.status_counts
        failed = sum(n for code, n in counts.items() if code == SHED
                     or code >= SERVER_ERROR)
        if result.completed != result.offered:
            problems.append(
                f"completed {result.completed} != offered {result.offered}"
            )
        if sum(counts.values()) != result.offered:
            problems.append(
                f"status counts sum to {sum(counts.values())}, "
                f"offered {result.offered}"
            )
        ingest = result.endpoint_stats.get("ingest_frame", {})
        reached = ingest.get("offered", 0.0) - ingest.get("invalid", 0.0)
        extras = {
            "parallel.ship_bytes": 0.0,
            "parallel.shard.imbalance": 0.0,
            "privacy.release_ratio": (
                ingest.get("ok", 0.0) / reached if reached else 0.0
            ),
            "serving.gateway.cache_hit_ratio": result.cache_hit_rate,
        }
    if ops <= 0:
        problems.append("the run performed no operations")
    if problems:
        failed = ops
    return Outcome(
        ops=ops,
        failed=failed,
        digest=metrics_digest(result),
        problems=problems,
        extras=extras,
    )


# ---------------------------------------------------------------------------
# Layers
# ---------------------------------------------------------------------------
#: Self-time layers, in report order.  ``load.setup`` is the span from
#: the ``run_load`` call to its first pool dispatch and ``load.teardown``
#: the span from its final metrics fold to its return; the rest wrap
#: the functions listed in :func:`layer_patches`.  ``sim.metrics`` is the
#: metrics registry both entry points feed on every operation, and
#: ``python.gc`` the interpreter's garbage collections, wherever they
#: interrupt.
LAYERS: Tuple[str, ...] = (
    "load.setup",
    "load.teardown",
    "parallel.plan",
    "parallel.dispatch",
    "parallel.shard",
    "parallel.reduce",
    "ledger.admit",
    "ledger.block",
    "reputation.record",
    "reputation.solve",
    "dao.vote",
    "dao.tally",
    "governance.moderation",
    "privacy.ingest",
    "sim.metrics",
    "python.gc",
    "workloads.traffic",
    "serving.loop",
    "serving.gateway",
    "serving.repository.submit_tx",
    "serving.repository.file_report",
    "serving.repository.cast_vote",
    "serving.repository.ingest_frame",
    "serving.repository.get_balance",
    "serving.repository.get_tally",
    "serving.tick",
)

#: The root span: one call into the entry point.  Its self time is the
#: part of the call no layer covers (``unattributed_s``).
ROOT = "call"
SETUP = "load.setup"
TEARDOWN = "load.teardown"
GC = "python.gc"


def _open_profile(tracer: Tracer, args, result) -> None:
    # After the shard-order check, run_load profiles the epoch's
    # observed per-agent costs (its ``observed_costs`` closure, which
    # no wrapper can reach) for the next epoch's weighted plan.  The
    # span runs until the next wrapped call, the first barrier step.
    tracer.open_until("parallel.plan")


def _open_teardown(tracer: Tracer, args, result) -> None:
    # run_load folds its metrics registry while building its result; from
    # there to its return it assembles the result and frees the run's
    # population-sized state.
    tracer.open_until(TEARDOWN, ROOT)


def _count_block_txs(tracer: Tracer, args, block) -> None:
    tracer.count("ledger.block.txs", len(block.transactions))


def layer_patches(workload: Workload) -> List[Patch]:
    """Every attribute the entry points resolve for a named layer.

    Module-level names are patched where the entry point looks them up
    (``repro.workloads.load``, ``repro.serving.run``), not where they are
    defined.  Methods are patched on their class, which is where a bound
    lookup on any instance resolves.  ``run_shard_epoch`` is wrapped only
    when the shard work runs inline: a pool pickles the function by name
    and runs it in another process, where the parent's clock cannot see.
    """
    import repro.serving.run as serving_run
    import repro.workloads.load as load
    from repro.dao.dao import DAO
    from repro.governance.moderation import ModerationService
    from repro.ledger.chain import Blockchain
    from repro.ledger.mempool import Mempool
    from repro.parallel.pool import ProcessPool, SerialPool
    from repro.privacy.pipeline import PrivacyPipeline
    from repro.reputation.system import ReputationSystem
    from repro.serving.gateway import ServingGateway
    from repro.serving.loop import EventLoop
    from repro.serving.repository import ServingRepository
    from repro.sim.metrics import Histogram, MetricsRegistry, SketchHistogram

    patches = [
        Patch(SerialPool, "map_ordered", "parallel.dispatch"),
        Patch(ProcessPool, "map_ordered", "parallel.dispatch"),
        Patch(Mempool, "submit", "ledger.admit"),
        Patch(Blockchain, "propose_block", "ledger.block",
              after=_count_block_txs),
        Patch(ReputationSystem, "record", "reputation.record"),
        Patch(ReputationSystem, "global_trust_top", "reputation.solve"),
        Patch(DAO, "cast_ballot", "dao.vote"),
        Patch(DAO, "close_due", "dao.vote"),
        Patch(DAO, "submit_proposal", "dao.vote"),
        Patch(DAO, "tally", "dao.tally"),
        Patch(ModerationService, "process_prepared", "governance.moderation"),
        Patch(ModerationService, "file_report", "governance.moderation"),
        Patch(ModerationService, "run_review", "governance.moderation"),
        Patch(PrivacyPipeline, "ingest_all", "privacy.ingest"),
        Patch(PrivacyPipeline, "ingest", "privacy.ingest"),
        Patch(Histogram, "observe", "sim.metrics"),
        Patch(SketchHistogram, "observe", "sim.metrics"),
        Patch(MetricsRegistry, "as_dict", "sim.metrics",
              _open_teardown if workload.kind == "load" else None),
        Patch(serving_run, "generate_traffic", "workloads.traffic"),
        Patch(EventLoop, "run", "serving.loop"),
        Patch(ServingGateway, "submit", "serving.gateway"),
        Patch(ServingRepository, "produce_blocks", "serving.tick"),
        Patch(ServingRepository, "roll_proposal", "serving.tick"),
        Patch(ServingRepository, "run_review", "serving.tick"),
    ]
    for surface in ("submit_tx", "file_report", "cast_vote", "ingest_frame",
                    "get_balance", "get_tally"):
        patches.append(
            Patch(ServingRepository, surface, f"serving.repository.{surface}")
        )
    for name in ("weighted_boundaries", "blend_profile", "split_weighted",
                 "warm_caches"):
        patches.append(Patch(load, name, "parallel.plan"))
    for name in ("merge_interaction_batches", "merge_boundary_activations",
                 "sum_predicted_outcomes"):
        patches.append(Patch(load, name, "parallel.reduce"))
    patches.append(
        Patch(load, "check_shard_order", "parallel.reduce", _open_profile)
    )
    if workload.workers <= 1:
        patches.append(Patch(load, "run_shard_epoch", "parallel.shard"))
    return patches
