PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench soak soak_queries soak_async matrix docs_check lint determinism perf perf_smoke \
        perf_history audit_dump reach

test:
	$(PYTHON) -m pytest -q

bench:
	$(PYTHON) benchmarks/run_benchmarks.py

# Every soak runs through the one entry point: soak_churn, soak_cluster,
# soak_fabric, soak_queryload, soak_push, soak_decision_core,
# soak_telemetry, soak_paper — the paper's E1-E12 —, soak_matrix — the
# 30-cell scenario matrix — and soak_determinism — the bench scenarios
# double-run — (the names of repro.workloads.soak.SOAKS).
# A pattern rule is not searched for a .PHONY target, so these are not
# listed there.
soak_%:
	$(PYTHON) -m repro.workloads.soak $*

# The names the targets had before they shared a runner.
soak: soak_churn
soak_queries: soak_queryload
soak_async: soak_decision_core
matrix: soak_matrix
determinism: soak_determinism

docs_check:
	$(PYTHON) tools/check_docs.py

lint:
	$(PYTHON) tools/analysis/run_lint.py

# Every shipped entry point under the profiler (tools/reach.py): fails on
# a function in src/repro that none of them enters and that no reach or
# R16 row of tools/analysis/accepted.py keeps, and on a stale row.
reach:
	$(PYTHON) tools/reach.py

# The wall-clock benchmark of BENCHMARK.json (perf/README.md).  The smoke
# runs exit non-zero on any failed op or cross-repeat mismatch: the punt
# path, then the fast path (a punt leaking into its timed region, or a
# forwarded packet misdelivered, fails its oracle), then the reload path
# (a 1000-rule reload every 4th wave must leave every verdict as it was),
# then the cluster (a shard kill and restore: every punted flow decided
# exactly once).
perf:
	python3 perf/run.py

# One full run of that benchmark appended to the committed
# BENCH_history.jsonl (tools/perf_history.py): commit, interpreter, and
# per workload the end-to-end and per-repeat values and the segment-cost
# quartiles.  One line per change.
perf_history:
	python3 tools/perf_history.py

# Every audit record of every perf/ workload at one seed, one line each
# (tools/audit_dump.py): two checkouts with equal output decided alike.
SEED ?= 2009
audit_dump:
	python3 tools/audit_dump.py --seed $(SEED)

perf_smoke:
	python3 perf/run.py --workload punt_unique --seconds 2
	python3 perf/run.py --workload fastpath_forward --seconds 2
	python3 perf/run.py --workload hot_identity_reload --seconds 2
	python3 perf/run.py --workload cluster_fabric_failover --seconds 2
