PYTHON ?= python
export PYTHONPATH := src

.PHONY: test bench bench-experiments soak soak_cluster soak_fabric soak_queries soak_push soak_async soak_telemetry matrix docs_check lint determinism perf perf_smoke

test:
	$(PYTHON) -m pytest -q

bench:
	$(PYTHON) benchmarks/run_benchmarks.py

soak:
	$(PYTHON) -m repro.workloads.churn

soak_cluster:
	$(PYTHON) -m repro.workloads.cluster

soak_fabric:
	$(PYTHON) -m repro.workloads.fabric

soak_queries:
	$(PYTHON) -m repro.workloads.queryload

soak_push:
	$(PYTHON) -m repro.workloads.queryload push

soak_async:
	$(PYTHON) -m repro.workloads.decision_core

soak_telemetry:
	$(PYTHON) -m repro.workloads.telemetry

matrix:
	$(PYTHON) -m repro.workloads.experiment

docs_check:
	$(PYTHON) tools/check_docs.py

lint:
	$(PYTHON) tools/analysis/run_lint.py

determinism:
	$(PYTHON) -m repro.workloads.determinism

# The wall-clock benchmark of BENCHMARK.json (perf/README.md).  The smoke
# run exits non-zero on any failed op or cross-repeat mismatch.
perf:
	python3 perf/run.py

perf_smoke:
	python3 perf/run.py --workload punt_unique --seconds 2

bench-experiments:
	$(PYTHON) -m pytest benchmarks/bench_*.py --benchmark-only -s
