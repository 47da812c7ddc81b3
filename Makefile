PYTHON ?= python
export PYTHONPATH := src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test bench bench-smoke bench-regression bench-baseline bench-scaling bench-parallel bench-serving bench-columnar bench-transport parallel-check steal-check shm-check obs-check serve-check slo-check perfbench-smoke ci

test:
	$(PYTHON) -m pytest -x -q

# Observability determinism gate: run the seeded e2e scenario twice and
# verify byte-identical exported traces + a complete span forest.
obs-check:
	$(PYTHON) -c "from repro.workloads.observability import check_observability; \
	[print(f'{k:18s} {v}') for k, v in check_observability().items()]; \
	print('obs-check: OK')"

bench:
	$(PYTHON) -m pytest benchmarks -q --benchmark-only

# One untimed repetition of every bench suite plus a single pass over
# the tracked regression kernels; finishes in under a minute.
bench-smoke:
	$(PYTHON) -m benchmarks.regression --smoke

# Full perf gate: 3 reps per tracked op, compares against
# benchmarks/baseline.json, fails on >25% regression.
bench-regression:
	$(PYTHON) -m benchmarks.regression

bench-baseline:
	$(PYTHON) -m benchmarks.regression --update-baseline

# Sharded-execution determinism gate: the load workload run inline and
# on a 2-process pool must produce byte-identical metrics AND traces.
parallel-check:
	$(PYTHON) -m repro.parallel.check

# Work-stealing determinism gate: the weighted-plan load workload across
# workers={1,2,4} with chunked stealing on and off must produce
# byte-identical metrics AND traces, with every (shard, chunk) unit
# executed exactly once.
steal-check:
	$(PYTHON) -m repro.parallel.steal_check

# Transport determinism gate: the load workload across transport
# {pickle, shm, shm-full} x workers {1,2,4} x stealing on/off must
# produce byte-identical metrics AND traces, shm tasks must actually
# shrink (descriptors instead of materialized snapshots), delta
# republishing must beat whole-column republishing, and no /dev/shm
# plane segment may survive the matrix.
shm-check:
	$(PYTHON) -m repro.parallel.shm_check

# Serving determinism gate: one seeded open-loop scenario (flash crowd
# included) through the full serving stack twice — metrics and traces
# byte-identical, every middleware stage live (cache hits, sheds,
# validation rejects, policy refusals), all platform ticks firing.
serve-check:
	$(PYTHON) -m repro.serving.check

# SLO/alerting determinism gate: a seeded flash-crowd scenario with
# request-scoped tracing, windowed telemetry, and burn-rate alerting —
# the availability alert must fire inside the spike and clear after it,
# sampled traces must attribute >=95% of latency to stages, and the
# time series + alert timeline + trace forest must be byte-identical
# across reruns and workers={1,2}.
slo-check:
	$(PYTHON) -m repro.obs.slo_check

# Serving latency/saturation sweep: open-loop arrival rates vs p50/p99
# and the saturation knee, all in simulated time; writes BENCH_PR6.json
# and asserts a seeded replay is byte-identical.  Full sweep:
#   python -m benchmarks.serving
bench-serving:
	$(PYTHON) -m benchmarks.serving --smoke

# Sharded-execution wall-clock tiers only: serial vs workers={2,4} at
# the 100k tier with equivalence asserted and >=2x speedup gated where
# >=4 usable cores exist (loudly recorded-but-skipped on smaller
# hosts), plus the shard-balance tier — equal vs cost-weighted plans
# with the weighted whole-run imbalance gated <=1.25x at 100k and a
# steal-on/steal-off wall-clock pair.  Writes BENCH_PR9.json.
bench-parallel:
	$(PYTHON) -m benchmarks.scaling --parallel-only

# Columnar smoke gate: 10k-tier columnar-vs-object kernels with exact
# equivalence asserts (bitwise balances/nonces/spends), the columnar
# load run byte-identical to the object-backed run on metrics, and the
# bytes/agent ceiling.  The full 1M tier lives in the scaling suite:
#   python -m benchmarks.scaling --smoke --million
bench-columnar:
	$(PYTHON) -m benchmarks.scaling --columnar-only

# Transport tier only: per-epoch ship bytes and wall clock for pickle
# vs shm vs shm-full at the gate tier, with the >=10x ship-bytes
# reduction gate.  Writes BENCH_PR10.json.
bench-transport:
	$(PYTHON) -m benchmarks.scaling --transport-only

# Population-scale gate (smoke: 1k/10k tiers, <90s): indexed mempool
# selection, warm reputation writes, vectorized cascade rounds, and
# batch abuse classification must beat the naive references >=3x at the
# 10k tier (the cascade/classifier kernels must also match the scalar
# engines byte-for-byte on the same seed); the quantile sketch must stay
# within its documented rank-error tolerance; each load tier — now
# including the moderation and privacy-budget phases — must replay
# byte-identically.  Full suite (adds the 100k tier):
#   python -m benchmarks.scaling
bench-scaling:
	$(PYTHON) -m benchmarks.scaling --smoke

# Repo-benchmark smoke: each perfbench workload shrunk to seconds
# (--tiny), untraced.  run.py exits non-zero when a call's outputs fail
# their checks (load: txs_included == txs_submitted and every frame
# accounted for; serving: every arrival answered) or its metrics digest
# differs from the warm-up call's or, on the pool workload, from an
# inline call's.
perfbench-smoke:
	for workload in load-100k load-100k-w2 serve-2k-knee; do \
		$(PYTHON) perfbench/run.py --workload $$workload --tiny --seconds 1 --trace 0 || exit 1; \
	done

# Everything a merge must pass, in one target.  bench-scaling's smoke
# mode includes the workers tier (10k agents, workers={2,4} equivalence
# asserts) and the shard-balance tier (equal vs weighted plans, steal
# on/off equivalence); parallel-check additionally pins trace-level
# equivalence; steal-check pins the stealing layer's byte-equivalence
# and exactly-once accounting; shm-check pins the shared-memory
# transport's byte-equivalence and segment hygiene; bench-columnar pins
# the columnar/object byte-equivalence contract; perfbench-smoke runs
# the repo benchmark's output and digest checks on every workload.
ci: test bench-smoke bench-scaling bench-columnar parallel-check steal-check shm-check obs-check serve-check slo-check perfbench-smoke
