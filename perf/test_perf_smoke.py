"""Tier-1 smoke test of the benchmark: every workload at a tiny size.

Collected by the plain ``pytest -x -q`` run; the whole file stays under
two seconds.  It checks the benchmark's plumbing (names, oracle,
determinism, shim restoration), never a host-time value.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from perf.harness import run_repeat
from perf.metrics import END_TO_END, PER_LAYER, end_to_end_metrics, per_layer_metrics
from perf.tracing import Tracer
from perf.workloads import WORKLOADS, HotIdentityReload, Size

BENCHMARK = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text(encoding="utf-8")
)
#: Three one-wave segments of a few ops; just past each workload's warm-up floor.
TINY = {
    "punt_unique": Size(3, 1, 8, 3),
    "fastpath_forward": Size(3, 2, 67, 4),
    "hot_identity_reload": Size(3, 1, 8, 5),
    "cluster_fabric_failover": Size(10, 1, 8, 3),
}
#: Keys of a repeat result that are virtual time or counts: exact for a seed.
EXACT = ("latency_vms", "timed_ops", "attempted", "counters", "events_total", "input_digest",
         "state_peaks", "controller_setup_vms_p50", "cluster", "trace_hash")


def _traced(name: str, seed: int) -> tuple[dict, Tracer]:
    tracer = Tracer()
    with tracer.installed():
        result = run_repeat(WORKLOADS[name], seed, TINY[name], tracer=tracer)
    return result, tracer


def test_benchmark_json_names_the_code():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert {w["name"]: w["why"] for w in BENCHMARK["workloads"]} == {
        name: cls.why for name, cls in WORKLOADS.items()
    }
    assert {
        m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["end_to_end"]
    } == END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK["per_layer"]} == PER_LAYER


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_smoke(name, monkeypatch):
    monkeypatch.setattr(HotIdentityReload, "rules", 30)
    first, tracer = _traced(name, seed=5)
    again, _ = _traced(name, seed=5)
    other = run_repeat(WORKLOADS[name], 6, TINY[name])

    # the oracle and the shared invariant checkers pass
    for result in (first, again, other):
        assert result["failed"] == 0, result["failures"]
        assert result["attempted"] > 0 and all(result["invariants"].values())

    # every metric BENCHMARK.json names is emitted, and nothing else
    assert list(end_to_end_metrics([other])) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert list(per_layer_metrics(other, first)) == [m["name"] for m in BENCHMARK["per_layer"]]

    # one seed: identical virtual-time results and span counts
    for key in EXACT:
        assert first[key] == again[key], key
    calls = {n: (v["layer"], v["calls"]) for n, v in first["trace"]["timed_names"].items()}
    assert calls == {n: (v["layer"], v["calls"]) for n, v in again["trace"]["timed_names"].items()}
    assert calls and not first["trace"]["missing_entry_points"]

    # another seed: different inputs
    assert other["input_digest"] != first["input_digest"]

    # every wrapped attribute is the original object again
    assert tracer.restored()

    # the workloads separate the layers
    if name == "fastpath_forward":
        assert first["counters"]["punts"] == 0 and first["counters"]["table_hits"] > 0
    if name == "cluster_fabric_failover":
        assert first["cluster"]["failovers"] == 1 and first["cluster"]["repunted_flows"] > 0
