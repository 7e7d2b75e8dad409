"""Tests for the runtime simulation sanitizer and the determinism gate.

Covers the three detector classes from ``repro.netsim.sanitizer`` —
deterministic event-trace hashing, same-instant ordering divergence via
shadow replay, and stale-continuation reporting from the decision core —
plus the double-run determinism regression over the queryload and
decision-core bench scenarios (the full-size double run at the
committed seed is pinned to ``BENCH_results.json`` by
``tests/test_soak_kit.py``).
"""

import pytest

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPNetwork
from repro.netsim.events import Simulator
from repro.netsim.sanitizer import (
    KIND_ORDER_DIVERGENCE,
    KIND_STALE_CONTINUATION,
    EventTraceHasher,
    SimulationSanitizer,
    callback_name,
    shadow_replay,
)
from repro.workloads.determinism import decision_core_scenario, queryload_scenario


def run_counting_scenario(sim, delays):
    fired = []
    for delay in delays:
        sim.schedule(delay, fired.append, delay)
    sim.run()
    return fired


class TestTraceHash:
    def test_identical_runs_hash_identically(self):
        hashes = []
        for _ in range(2):
            sim = Simulator(sanitize=True)
            run_counting_scenario(sim, [0.3, 0.1, 0.1, 0.2])
            hashes.append(sim.sanitizer.trace_hash)
        assert hashes[0] == hashes[1]

    def test_different_schedules_hash_differently(self):
        first = Simulator(sanitize=True)
        run_counting_scenario(first, [0.1, 0.2])
        second = Simulator(sanitize=True)
        run_counting_scenario(second, [0.1, 0.3])
        assert first.sanitizer.trace_hash != second.sanitizer.trace_hash

    def test_hash_counts_every_event(self):
        sim = Simulator(sanitize=True)
        run_counting_scenario(sim, [0.1, 0.2, 0.3])
        assert sim.sanitizer.hasher.events == 3
        assert sim.sanitizer.hasher.events == sim.events_processed

    def test_callback_name_is_address_free(self):
        class Owner:
            name = "sw-edge"

            def tick(self):
                pass

        first, second = Owner(), Owner()
        assert callback_name(first.tick) == callback_name(second.tick)
        assert "0x" not in callback_name(first.tick)
        assert "sw-edge" in callback_name(first.tick)

    def test_same_instant_grouping_stats(self):
        sim = Simulator(sanitize=True)
        run_counting_scenario(sim, [0.1, 0.1, 0.1, 0.2, 0.3, 0.3])
        assert sim.sanitizer.same_instant_groups == 2
        assert sim.sanitizer.max_same_instant == 3

    def test_summary_shape(self):
        sim = Simulator(sanitize=True)
        run_counting_scenario(sim, [0.1, 0.1])
        summary = sim.sanitizer.summary()
        assert summary["events_hashed"] == 2
        assert summary["same_instant_groups"] == 1
        assert summary["reports"] == 0
        assert summary["trace_hash"] == sim.sanitizer.trace_hash


class TestSanitizerAttachment:
    def test_off_by_default(self):
        sim = Simulator()
        assert sim.sanitizer is None
        assert not sim.sanitize

    def test_enable_sanitizer_is_idempotent(self):
        sim = Simulator()
        first = sim.enable_sanitizer()
        second = sim.enable_sanitizer()
        assert first is second
        assert isinstance(first, SimulationSanitizer)
        assert sim.sanitize

    def test_report_stamps_virtual_time(self):
        sim = Simulator(sanitize=True)
        sim.schedule(1.5, lambda: sim.sanitizer.report("custom", "planted"))
        sim.run()
        (finding,) = sim.sanitizer.reports_of("custom")
        assert finding.time == 1.5
        assert "planted" in str(finding)


class TestShadowReplay:
    def test_order_sensitive_pair_is_detected(self):
        # Planted race: two same-instant events whose relative order
        # decides the final state (last writer wins).
        def scenario(sim):
            state = {}
            sim.schedule(1.0, state.__setitem__, "winner", "a")
            sim.schedule(1.0, state.__setitem__, "winner", "b")
            sim.run()
            return state

        report = shadow_replay(scenario)
        assert report.diverged
        assert report.same_instant_groups == 1
        kinds = {finding.kind for finding in report.reports}
        assert KIND_ORDER_DIVERGENCE in kinds
        assert report.as_dict()["diverged"] is True

    def test_commutative_same_instant_events_pass(self):
        # Same-instant events that commute (both increment) must not flag.
        def scenario(sim):
            state = {"count": 0}

            def bump():
                state["count"] += 1

            sim.schedule(1.0, bump)
            sim.schedule(1.0, bump)
            sim.run()
            return state

        report = shadow_replay(scenario)
        assert not report.diverged
        assert report.same_instant_groups == 1
        assert report.reports == []

    def test_trace_hashes_differ_under_perturbation_even_when_state_agrees(self):
        # The *trace* legitimately differs (ties served in reverse); only
        # the state digest decides divergence.
        def scenario(sim):
            sim.schedule(1.0, lambda: None, label="a")
            sim.schedule(1.0, lambda: None, label="b")
            sim.run()
            return "done"

        report = shadow_replay(scenario)
        assert not report.diverged
        assert report.baseline_trace_hash != report.shadow_trace_hash


def _build_stale_net():
    """A net whose pending deadline is far shorter than daemon latency.

    Every punt expires (failed closed) while its queries are still in
    flight, so each daemon answer arrives as a stale continuation.
    """
    net = IdentPPNetwork(
        "sanitizer-stale",
        link_latency=50e-6,
        controller_config=ControllerConfig(
            decision_core="async",
            serialize_decisions=True,
            nonblocking_inbox=True,
            pending_deadline=0.001,
        ),
        policy_default_action="block",
    )
    sw = net.add_switch("sw1")
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
        switch=sw,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
    server.run_server("httpd", "root", 80)
    net.set_policy(
        {"00-stale.control": "block all\npass from any to any port 80\n"}
    )
    for daemon in net.daemons.values():
        daemon.processing_delay = 0.01
    return net


class TestStaleContinuationDetection:
    def test_expired_punts_surface_as_stale_continuations(self):
        net = _build_stale_net()
        sanitizer = net.topology.sim.enable_sanitizer()
        net.host("client").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        assert int(net.controller.summary()["pending_expired"]) >= 1
        stale = sanitizer.reports_of(KIND_STALE_CONTINUATION)
        assert stale, "expired punt's late answers were discarded silently"
        assert any("superseded" in finding.detail for finding in stale)

    def test_without_sanitizer_discards_stay_silent(self):
        net = _build_stale_net()
        net.host("client").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()  # must not raise: discards are correct behaviour
        assert net.topology.sim.sanitizer is None
        assert int(net.controller.summary()["pending_expired"]) >= 1


class TestDeterminismRegression:
    """Satellite: bench scenarios double-run to identical trace hashes."""

    @pytest.mark.parametrize(
        "scenario", [decision_core_scenario, queryload_scenario]
    )
    def test_double_run_trace_hashes_match(self, scenario):
        first = scenario(11, flows=30)
        second = scenario(11, flows=30)
        assert first["trace_hash"] == second["trace_hash"]
        assert first["events"] == second["events"]
        assert first["decided"] == second["decided"]
        assert first["decided"] > 0

    def test_different_seeds_change_the_trace(self):
        assert (
            decision_core_scenario(11, flows=30)["trace_hash"]
            != decision_core_scenario(12, flows=30)["trace_hash"]
        )
