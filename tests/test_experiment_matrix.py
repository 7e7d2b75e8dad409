"""Tests for the scenario matrix and the shared invariant checkers.

Four layers:

* spec expansion — grid product, seed threading, validation of
  axis combos;
* every invariant checker in :mod:`repro.workloads.invariants`
  exercised against a synthetic passing run AND a deliberately
  violated run, so the matrix's gates are proven able to fail;
* :func:`run_cell` — repeat aggregation, seeds, determinism, and one
  small end-to-end matrix run under ``sanitize=True``;
* the whole committed matrix with same-instant ties served in reverse,
  judged against the committed ``BENCH_results.json``.
"""

import json
from dataclasses import dataclass, replace
from pathlib import Path

import pytest

from repro.netsim.events import Simulator
from repro.workloads import experiment, invariants
from repro.workloads.experiment import (
    ARCH_IDENTPP,
    BASELINE_ARCHITECTURES,
    ScenarioSpec,
    applicable_invariants,
    default_matrix,
    expand_grid,
    experiment_matrix,
    run_cell,
)

COMMITTED_MATRIX = json.loads(
    (Path(__file__).resolve().parent.parent / "BENCH_results.json").read_text()
)["results"]["experiment_matrix"]


# ----------------------------------------------------------------------
# Synthetic audit records (the shape the checkers classify on)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FakeRecord:
    """Just enough of an audit record for the checkers: flow + origin."""

    flow: str
    cached: bool = False
    rule_origin: str = "rule"
    time: float = 0.0


# ----------------------------------------------------------------------
# Spec expansion
# ----------------------------------------------------------------------

class TestScenarioSpec:
    def test_cell_id_joins_axes(self):
        spec = ScenarioSpec()
        assert spec.cell_id() == "edge_core/single/web_open/web_burst/none"

    def test_cell_id_marks_partial_daemon_fleets(self):
        spec = ScenarioSpec(daemon_fraction=0.1)
        assert spec.cell_id().endswith("/daemons10%")

    def test_unknown_axis_value_rejected(self):
        with pytest.raises(ValueError, match="unknown topology"):
            ScenarioSpec(topology="moebius_strip").validate()

    def test_kill_shard_requires_a_cluster(self):
        with pytest.raises(ValueError, match="cluster"):
            ScenarioSpec(failure="kill_shard", control="single").validate()

    def test_partition_heal_requires_spine_leaf(self):
        with pytest.raises(ValueError, match="spine_leaf"):
            ScenarioSpec(failure="partition_heal", topology="edge_core").validate()

    def test_retenant_failure_and_traffic_pair_up(self):
        with pytest.raises(ValueError, match="retenant"):
            ScenarioSpec(failure="retenant", traffic="web_burst").validate()
        with pytest.raises(ValueError, match="retenant"):
            ScenarioSpec(traffic="retenant", failure="none").validate()

    def test_quarantine_race_needs_worm_traffic(self):
        with pytest.raises(ValueError, match="worm"):
            ScenarioSpec(failure="quarantine_race", control="cluster2").validate()


class TestExpandGrid:
    def test_cartesian_product_over_sorted_axes(self):
        specs = expand_grid({
            "topology": ["edge_core", "spine_leaf"],
            "control": ["single", "cluster2"],
        })
        assert len(specs) == 4
        combos = {(s.topology, s.control) for s in specs}
        assert combos == {
            ("edge_core", "single"), ("edge_core", "cluster2"),
            ("spine_leaf", "single"), ("spine_leaf", "cluster2"),
        }

    def test_seed_threads_from_base_in_stable_order(self):
        base = ScenarioSpec(seed=7000)
        specs = expand_grid({"control": ["single", "cluster2"]}, base=base)
        assert [s.seed for s in specs] == [7000, 7001]
        # Same grid, same order, same seeds — the expansion is stable.
        again = expand_grid({"control": ["single", "cluster2"]}, base=base)
        assert [s.seed for s in again] == [s.seed for s in specs]

    def test_cells_are_named_after_their_axes(self):
        (spec,) = expand_grid({"topology": ["spine_leaf"]})
        assert spec.name == spec.cell_id()

    def test_expansion_validates_each_cell(self):
        with pytest.raises(ValueError):
            expand_grid({"failure": ["kill_shard"]})  # base control is single

    def test_default_matrix_has_20_plus_uniquely_named_cells(self):
        cells = default_matrix()
        assert len(cells) >= 20
        assert len({c.name for c in cells}) == len(cells)
        for cell in cells:
            cell.validate()


# ----------------------------------------------------------------------
# Invariant checkers: one passing and one violated run each
# ----------------------------------------------------------------------

class TestFailClosedChecker:
    def test_passes_when_every_flow_reaches_a_verdict(self):
        records = [FakeRecord("f1"), FakeRecord("f2", rule_origin="error")]
        result = invariants.check_fail_closed(["f1", "f2"], records)
        assert result.passed
        assert result.details["decided"] == 1
        assert result.details["failed_closed"] == 1

    def test_planted_open_ended_flow_fails(self):
        records = [FakeRecord("f1")]
        result = invariants.check_fail_closed(["f1", "lost"], records)
        assert not result.passed
        assert any("lost" in v for v in result.violations)

    def test_undrained_pending_or_buffers_fail(self):
        result = invariants.check_fail_closed(["f1"], [FakeRecord("f1")], pending=2)
        assert not result.passed and "pending" in result.violations[0]
        result = invariants.check_fail_closed(["f1"], [FakeRecord("f1")], buffered=3)
        assert not result.passed and "buffered" in result.violations[0]

    def test_cached_replays_do_not_count_as_verdicts(self):
        records = [FakeRecord("f1", cached=True)]
        result = invariants.check_fail_closed(["f1"], records)
        assert not result.passed


class TestZeroLossChecker:
    def test_passes_when_each_flow_decided_exactly_once(self):
        records = [FakeRecord("f1"), FakeRecord("f2")]
        result = invariants.check_zero_loss(["f1", "f2"], records)
        assert result.passed and result.name == invariants.ZERO_LOSS

    def test_double_decision_fails(self):
        records = [FakeRecord("f1"), FakeRecord("f1")]
        result = invariants.check_zero_loss(["f1"], records)
        assert not result.passed
        assert any("decided 2 times" in v for v in result.violations)

    def test_fail_closed_then_fresh_decision_is_fine(self):
        # The error verdict is the backstop, not a decision: a flow that
        # failed closed on the corpse and was re-decided after adoption
        # still counts as decided exactly once.
        records = [FakeRecord("f1", rule_origin="error"), FakeRecord("f1")]
        assert invariants.check_zero_loss(["f1"], records).passed


class TestContainmentChecker:
    def test_pre_quarantine_traffic_is_expected(self):
        deliveries = [(1.0, "10.0.0.1", "10.0.1.1")]
        result = invariants.check_containment(deliveries, {"10.0.0.1": 2.0})
        assert result.passed
        assert result.details["breaches"] == 0

    def test_post_quarantine_delivery_is_a_breach(self):
        deliveries = [(3.0, "10.0.0.1", "10.0.1.1")]
        result = invariants.check_containment(deliveries, {"10.0.0.1": 2.0})
        assert not result.passed
        assert "quarantined host 10.0.0.1" in result.violations[0]

    def test_grace_window_tolerates_propagation(self):
        deliveries = [(2.05, "10.0.0.1", "10.0.1.1")]
        assert not invariants.check_containment(deliveries, {"10.0.0.1": 2.0})
        assert invariants.check_containment(
            deliveries, {"10.0.0.1": 2.0}, grace=0.1
        ).passed


class TestCacheCoherenceChecker:
    def test_fresh_decisions_matching_new_identity_pass(self):
        probes = [invariants.CoherenceProbe("srv:80", "block", "block", requeried=True)]
        assert invariants.check_cache_coherence(probes).passed

    def test_stale_cached_identity_fails(self):
        probes = [invariants.CoherenceProbe("srv:80", "block", "pass")]
        result = invariants.check_cache_coherence(probes)
        assert not result.passed
        assert "stale cached identity" in result.violations[0]

    def test_serving_without_requery_fails(self):
        probes = [invariants.CoherenceProbe("srv:80", "block", "block", requeried=False)]
        result = invariants.check_cache_coherence(probes)
        assert not result.passed
        assert "without re-querying" in result.violations[0]


class TestBoundedStateChecker:
    def test_peaks_within_caps_pass(self):
        result = invariants.check_bounded_state(
            {"cache": 10, "extra_uncapped": 999}, {"cache": 16}
        )
        assert result.passed

    def test_overflowing_structure_fails(self):
        result = invariants.check_bounded_state({"cache": 33}, {"cache": 16})
        assert not result.passed
        assert "reached 33" in result.violations[0]

    def test_unmeasured_capped_structure_fails(self):
        result = invariants.check_bounded_state({}, {"cache": 16})
        assert not result.passed
        assert "never measured" in result.violations[0]


# ----------------------------------------------------------------------
# One cell
# ----------------------------------------------------------------------

SMALL = ScenarioSpec(topology="single", flows=8, clients=2, servers=1,
                     duration=6.0, sanitize=True)


@pytest.fixture
def trace_hashes(monkeypatch):
    """Record the sanitizer's event-trace hash of every repeat a cell runs."""
    hashes = []
    run_once = experiment._run_once

    def spy(spec, seed):
        ctx = run_once(spec, seed)
        hashes.append(ctx.net.topology.sim.sanitizer.trace_hash)
        return ctx

    monkeypatch.setattr(experiment, "_run_once", spy)
    return hashes


class TestRunCell:
    def test_repeat_aggregation_sums_identpp_outcomes(self, monkeypatch):
        two = run_cell(SMALL)
        monkeypatch.setattr(experiment, "MATRIX_REPEATS", 1)
        one = run_cell(SMALL)
        assert one["repeats"] == 1 and two["repeats"] == 2
        one_counts = one["architectures"][ARCH_IDENTPP]
        two_counts = two["architectures"][ARCH_IDENTPP]
        judged_one = one_counts["allowed"] + one_counts["blocked"]
        judged_two = two_counts["allowed"] + two_counts["blocked"]
        assert judged_two == 2 * judged_one
        # Baselines are evaluated once per cell, not per repeat.
        for arch in BASELINE_ARCHITECTURES:
            assert two["architectures"][arch] == one["architectures"][arch]

    def test_repeats_thread_distinct_seeds(self, trace_hashes):
        run_cell(SMALL)
        assert len(trace_hashes) == experiment.MATRIX_REPEATS == 2
        # Different repeat seeds produce different traffic timelines.
        assert trace_hashes[0] != trace_hashes[1]

    def test_identical_runs_are_deterministic(self, trace_hashes):
        first = run_cell(SMALL)
        second = run_cell(SMALL)
        assert first == second
        assert trace_hashes[:2] == trace_hashes[2:]


class TestEndToEndMatrix:
    def test_four_cell_matrix_runs_sanitized_and_passes(self, trace_hashes):
        specs = expand_grid(
            {"control": ["single", "cluster2"],
             "topology": ["edge_core", "spine_leaf"]},
            base=replace(SMALL, topology="edge_core"),
        )
        assert len(specs) == 4
        for spec in specs:
            cell = run_cell(spec)
            assert cell["passed"], cell["invariants"]
            # Every applicable invariant ran and passed...
            assert set(cell["invariants"]) == set(applicable_invariants(spec))
            assert all(entry["passed"] for entry in cell["invariants"].values())
            # ...and ident++ and all four baselines are compared.
            assert set(cell["architectures"]) == {ARCH_IDENTPP, *BASELINE_ARCHITECTURES}
        # The sanitizer hashed every repeat of every cell.
        assert len(trace_hashes) == 4 * experiment.MATRIX_REPEATS


@pytest.fixture
def reversed_ties(monkeypatch):
    """Return a switch making every simulator serve same-instant ties in reverse.

    The tie sign is what ``Simulator(perturb_ties=True)`` sets; pinning
    it on the class reaches the simulators the scenario cells build for
    themselves (and survives their ``enable_sanitizer()``), so no
    ``ScenarioSpec`` field is needed to perturb a cell.
    """
    def engage():
        pinned = property(lambda sim: -1, lambda sim, sign: None)
        monkeypatch.setattr(Simulator, "_tie_sign", pinned, raising=False)

    return engage


class TestReversedTies:
    """ROADMAP 5(f), first half: no verdict may hang on a same-instant tie-break."""

    @staticmethod
    def verdicts(cells):
        return {
            cell["cell"]: (
                {name: entry["passed"] for name, entry in cell["invariants"].items()},
                cell["architectures"],
            )
            for cell in json.loads(json.dumps(cells))
        }

    def test_every_cell_judges_as_committed_with_ties_reversed(self, reversed_ties):
        committed = self.verdicts(COMMITTED_MATRIX["cells"])
        assert len(committed) == 30
        assert all(all(passed.values()) for passed, _ in committed.values())
        reversed_ties()
        probe = Simulator()
        served = []
        probe.schedule(1.0, served.append, "first")
        probe.schedule(1.0, served.append, "second")
        probe.run()
        assert served == ["second", "first"]
        assert self.verdicts(experiment_matrix()["cells"]) == committed
