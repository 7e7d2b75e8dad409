"""Tests for the continuation-scheduled async decision core.

Covers the serialized decision loop as a *real* event-scheduled queue
(the closed-form regression against the old ``_busy_until`` arithmetic),
the serial-baseline core, the engine's async query path (immediate hits,
coalesced waiters, scheduled misses), the opt-in non-blocking controller
inbox, the deadline every punt gets, and the failover guarantee that
flows dying *between* query dispatch and answer arrival are re-punted to
a successor exactly once.
"""

import pytest

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPNetwork
from repro.exceptions import ControllerError
from repro.identpp.client import QueryClient
from repro.identpp.engine import QueryEngine
from repro.identpp.flowspec import FlowSpec

from tests.test_cluster_failover import build_network as build_cluster
from tests.test_query_engine import build_world, flow_to_server

POLICY = {"00.control": "block all\npass from any to any port 80 keep state\n"}


def build_net(name="decision-core", **config_kwargs):
    net = IdentPPNetwork(
        name,
        policy_default_action="block",
        controller_config=ControllerConfig(**config_kwargs),
    )
    sw = net.add_switch("sw")
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
        switch=sw,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
    server.run_server("httpd", "root", 80)
    net.set_policy(POLICY)
    return net


def open_flows(net, count):
    client = net.host("client")
    flows = []
    for _ in range(count):
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        flows.append(FlowSpec.from_packet(packet))
    return flows


def decision_times(net, flows):
    by_flow = {flow: None for flow in flows}
    for record in net.controller.audit.records():
        if record.flow in by_flow and by_flow[record.flow] is None:
            by_flow[record.flow] = record.time
    return [by_flow[flow] for flow in flows]


class TestConfigValidation:
    def test_invalid_decision_core_rejected(self):
        with pytest.raises(ControllerError):
            build_net(decision_core="threads")


class TestSerialQueueClosedForm:
    """Satellite: the event-scheduled queue matches the old closed form."""

    def test_single_flow_serialized_matches_unserialized(self):
        # With nothing to queue behind, serialization must cost nothing:
        # the decision lands at arrival + query latency + eval, exactly
        # as in the unserialized pipeline (the old ``_busy_until``
        # closed form reduced to the same instant for a lone flow).
        times = {}
        for serialize in (False, True):
            net = build_net(f"lone-{serialize}", serialize_decisions=serialize)
            [flow] = open_flows(net, 1)
            net.run()
            [when] = decision_times(net, [flow])
            assert when is not None
            times[serialize] = when
        assert times[True] == pytest.approx(times[False])

    def test_burst_completions_spaced_exactly_one_eval_apart(self):
        # A uniform burst arrives together and its answers land together,
        # so ready order == punt order and the real queue must reproduce
        # the old recurrence completion_i = completion_{i-1} + eval, with
        # the head finishing at the lone-flow instant.
        eval_delay = 0.01
        lone = build_net("head", serialize_decisions=True, policy_eval_delay=eval_delay)
        [lone_flow] = open_flows(lone, 1)
        lone.run()
        [head_expected] = decision_times(lone, [lone_flow])

        net = build_net("burst", serialize_decisions=True, policy_eval_delay=eval_delay)
        flows = open_flows(net, 5)
        net.run()
        times = decision_times(net, flows)
        assert None not in times
        assert times[0] == pytest.approx(head_expected)
        for earlier, later in zip(times, times[1:]):
            assert later - earlier == pytest.approx(eval_delay)
        assert net.controller._serial.served == len(flows)
        assert net.controller._serial.max_depth >= len(flows) - 1
        assert net.controller._serial.depth() == 0
        assert net.controller.inflight_count() == 0

    def test_unserialized_burst_overlaps_completely(self):
        # The async core's whole point: without the serialized loop a
        # uniform burst decides at one shared instant — query
        # round-trips and eval slots all overlap.
        net = build_net("overlap", serialize_decisions=False)
        flows = open_flows(net, 5)
        net.run()
        times = decision_times(net, flows)
        assert None not in times
        assert max(times) == pytest.approx(min(times))

    def test_unserialized_burst_is_decided_inside_its_decide_events(self):
        # One tail: each punt is decided by the event that ends its eval
        # slot, in punt order — no flush event gathers the instant.
        net = build_net("one-tail", serialize_decisions=False)
        sanitizer = net.topology.sim.enable_sanitizer()
        audit = net.controller.audit
        fired = []
        on_event = sanitizer.on_event

        def spy(event):
            fired.append((event.label, len(audit)))
            on_event(event)

        sanitizer.on_event = spy
        flows = open_flows(net, 5)
        net.run()
        assert not [label for label, _ in fired if label.endswith(":decide-flush")]
        decided_before = [count for label, count in fired if label.endswith(":decide")]
        assert decided_before == [0, 1, 2, 3, 4]
        assert [record.flow for record in audit.records()] == flows
        assert len({record.time for record in audit.records()}) == 1


class TestSerialBaselineCore:
    def test_serial_core_single_flow_matches_async(self):
        # One flow with idle queues: the blocking baseline and the
        # continuation pipeline pay the same latencies, so they must
        # decide at the same instant.
        times = {}
        for core in ("async", "serial"):
            net = build_net(f"core-{core}", decision_core=core, serialize_decisions=True)
            [flow] = open_flows(net, 1)
            net.run()
            [when] = decision_times(net, [flow])
            assert when is not None
            times[core] = when
        assert times["serial"] == pytest.approx(times["async"])

    def test_serial_core_burst_spacing_includes_the_query_cost(self):
        # The blocking loop holds the serial stage for the query
        # round-trip *and* the eval, so burst completions space by
        # query_cost + eval — strictly wider than the async core's
        # eval-only spacing.  This is the collapse the overlap bench
        # measures at scale.
        eval_delay = 0.001
        net = build_net(
            "serial-burst", decision_core="serial",
            serialize_decisions=True, policy_eval_delay=eval_delay,
        )
        flows = open_flows(net, 4)
        net.run()
        times = decision_times(net, flows)
        assert None not in times
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert all(gap == pytest.approx(gaps[0]) for gap in gaps)
        assert gaps[0] > eval_delay


class TestEngineAsyncQueries:
    def test_miss_completes_at_answer_arrival(self):
        topo, switch, _, _, _ = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        # Measure the round-trip in a throwaway world so the engine
        # under test stays cold.
        probe_topo, probe_switch, _, _, _ = build_world()
        sync_latency = QueryClient(probe_topo).query(
            flow_to_server(40000), "dst", from_node=probe_switch
        ).latency
        assert sync_latency > 0

        seen = []
        future = engine.query_async(flow_to_server(40000), "dst", from_node=switch)
        assert not future.done
        future.add_done_callback(lambda outcome: seen.append((topo.sim.now, outcome)))
        topo.sim.run()
        [(when, outcome)] = seen
        assert outcome.succeeded() and not outcome.cached
        assert when == pytest.approx(sync_latency)
        assert engine.misses == 1

    def test_warm_hit_completes_immediately(self):
        topo, switch, _, _, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        engine.query_async(flow_to_server(40000), "dst", from_node=switch)
        topo.sim.run()  # first answer lands and warms the cache
        hit = engine.query_async(flow_to_server(41000), "dst", from_node=switch)
        assert hit.done
        assert hit.result().cached and hit.result().latency == 0.0
        assert engine.hits == 1
        assert int(daemon.queries_answered.value) == 1

    def test_coalesced_waiter_completes_with_the_shared_arrival(self):
        topo, switch, _, _, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        first = engine.query_async(flow_to_server(40000), "dst", from_node=switch)
        second = engine.query_async(flow_to_server(41000), "dst", from_node=switch)
        completions = []
        first.add_done_callback(lambda _: completions.append(("first", topo.sim.now)))
        second.add_done_callback(lambda _: completions.append(("second", topo.sim.now)))
        topo.sim.run()
        assert [name for name, _ in completions] == ["first", "second"]
        (_, first_at), (_, second_at) = completions
        # One round-trip answers both, at the same instant.
        assert second_at == pytest.approx(first_at)
        assert second.result().coalesced
        assert engine.misses == 1 and engine.coalesced == 1
        assert int(daemon.queries_answered.value) == 1

    def test_invalidation_mid_flight_does_not_strand_waiters(self):
        topo, switch, _, server, _ = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        first = engine.query_async(flow_to_server(40000), "dst", from_node=switch)
        second = engine.query_async(flow_to_server(41000), "dst", from_node=switch)
        # The entry both futures wait on is evicted while the round-trip
        # is still in flight; the arrival event holds the entry object
        # directly, so the continuations still complete on time.
        assert engine.invalidate_host(server.ip, reason="test") >= 1
        topo.sim.run()
        assert first.done and second.done
        assert first.result().succeeded() and second.result().succeeded()

    def test_disabled_engine_passthrough_still_schedules_the_answer(self):
        topo, switch, _, _, _ = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=0.0)
        future = engine.query_async(flow_to_server(40000), "dst", from_node=switch)
        assert not future.done
        topo.sim.run()
        assert future.done and future.result().succeeded()
        assert engine.stats()["lookups"] == 0  # pure pass-through


class TestNonblockingInbox:
    def test_dispatch_is_deferred_to_a_scheduled_drain(self):
        net = build_net("inbox", nonblocking_inbox=True)
        controller = net.controller
        assert controller.nonblocking_inbox
        client = net.host("client")
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)

        from repro.openflow.messages import PacketIn

        controller.handle_message(PacketIn(switch=net.switches["sw"], packet=packet, in_port=1))
        # Queued, not handled: the delivery call returned without
        # touching the punt pipeline.
        assert len(controller._inbox) == 1
        assert int(controller.packet_ins.value) == 0
        net.run()
        assert len(controller._inbox) == 0
        assert int(controller.packet_ins.value) == 1
        assert [r.action for r in controller.audit.records()] == ["pass"]

    def test_end_to_end_delivery_with_nonblocking_inbox(self):
        net = build_net("inbox-e2e", nonblocking_inbox=True, serialize_decisions=True)
        flows = open_flows(net, 3)
        net.run()
        assert len(net.host("server").delivered) == 3
        assert None not in decision_times(net, flows)

    def test_messages_queued_before_a_crash_join_the_halted_backlog(self):
        net = build_net("inbox-crash", nonblocking_inbox=True)
        controller = net.controller
        client = net.host("client")
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)

        from repro.openflow.messages import PacketIn

        controller.handle_message(PacketIn(switch=net.switches["sw"], packet=packet, in_port=1))
        controller.halt()
        net.run()
        # The drain found the process dead and preserved the message for
        # the failover handoff instead of silently dropping it.
        backlog = controller.take_halted_messages()
        assert len(backlog) == 1
        assert int(controller.packet_ins.value) == 0


class TestEveryPuntHasADeadline:
    """The one deadline event backs every punt: no sweep is left to backstop a flow."""

    @pytest.mark.parametrize("decision_core", ["async", "serial"])
    @pytest.mark.parametrize("pending_deadline", [0.0, 0.5, 5.0])
    def test_deadline_is_arrival_plus_pending_deadline(self, decision_core, pending_deadline):
        net = build_net(
            "covered", decision_core=decision_core, pending_deadline=pending_deadline
        )
        controller = net.controller
        assert controller.sim is net.topology.sim
        covered = []
        cover = controller._cover

        def spy(task):
            cover(task)
            covered.append(task)

        controller._cover = spy
        flows = open_flows(net, 4)
        net.run()
        assert [task.flow for task in covered] == flows
        for task in covered:
            if pending_deadline:
                assert task.deadline == task.arrival + pending_deadline
            else:
                assert task.deadline is None
        assert controller.inflight_count() == 0


class TestMidQueryKillFailover:
    def test_kill_between_query_dispatch_and_answer_arrival(self):
        # The async core's new failure window: the punt dispatched its
        # endpoint queries (a DecisionTask is in flight, answers are
        # scheduled events) when the owner dies.  The flow must be
        # exported to the successor and decided exactly once — the
        # orphaned answer/eval continuations on the corpse must not
        # produce a second decision.
        net = build_cluster()
        client = net.host("client")
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        flow = FlowSpec.from_packet(packet)
        owner = net.cluster.shard_map.owner(flow)
        net.run(0.0005)  # punt delivered; queries dispatched, answers pending

        dead = net.cluster.replicas[owner]
        assert list(dead._pending) == [flow]
        assert dead.inflight_count() == 1
        [task] = dead._pending.values()
        assert task.stage == "query"  # answers genuinely still in flight

        net.start_monitoring()
        net.cluster.kill(owner)
        net.run(1.0)
        net.stop_monitoring()
        net.run()

        successor = net.cluster.shard_map.owner(flow)
        assert successor != owner
        # Exactly one decision, on the successor; the corpse decided
        # nothing and retains no frozen continuation state.
        assert [r.action for r in net.cluster.replicas[successor].audit.records()] == ["pass"]
        assert dead.audit.records() == []
        assert dead.inflight_count() == 0
        assert len(net.host("server").delivered) == 1
        assert net.cluster.pending_total() == 0
        assert net.switches["sw"].buffered_count() == 0
        assert net.cluster.repunted_flows == 1

    def test_mid_query_kill_with_serialized_successor(self):
        # Same window, but every replica serializes policy eval — the
        # exported flow must queue and decide on the successor's real
        # serial loop, not get lost between export and restart.
        net = build_cluster(
            controller_config=ControllerConfig(
                serialize_decisions=True, pending_deadline=10.0,
            ),
        )
        client = net.host("client")
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        flow = FlowSpec.from_packet(packet)
        owner = net.cluster.shard_map.owner(flow)
        net.run(0.0005)
        assert net.cluster.replicas[owner].inflight_count() == 1

        net.start_monitoring()
        net.cluster.kill(owner)
        net.run(1.0)
        net.stop_monitoring()
        net.run()

        successor = net.cluster.shard_map.owner(flow)
        records = net.cluster.replicas[successor].audit.records()
        assert [r.action for r in records] == ["pass"]
        assert net.cluster.replicas[successor]._serial.depth() == 0
        assert len(net.host("server").delivered) == 1
        assert net.cluster.pending_total() == 0
