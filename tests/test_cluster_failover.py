"""Tests for heartbeat failure detection, re-homing and re-punting."""

from repro.cluster.cluster import identity_key
from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.workloads.invariants import (
    check_bounded_state,
    check_zero_loss,
    network_audit_records,
    network_flow_state,
)


def assert_zero_loss(net, flows):
    """Assert the shared zero-loss invariant over a finished cluster run."""
    state = network_flow_state(net)
    result = check_zero_loss(
        flows,
        network_audit_records(net),
        pending=state["pending"],
        buffered=state["buffered"],
    )
    assert result.passed, result.violations

POLICY = {
    "00-default.control": (
        "block all\n"
        "pass from any to any port 80 keep state\n"
    ),
}


def build_network(shards=4, **kwargs):
    net = IdentPPClusterNetwork("failover-test", shards=shards,
                                policy_default_action="block", **kwargs)
    sw = net.add_switch("sw")
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
        switch=sw,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
    server.run_server("httpd", "root", 80)
    net.set_policy(POLICY)
    return net


def punt_one_flow(net):
    """Open one flow and run just far enough that its punt is pending."""
    client = net.host("client")
    packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
    flow = FlowSpec.from_packet(packet)
    owner = net.cluster.shard_map.owner(flow)
    net.run(0.0005)  # punt delivered, queries in flight, decision not yet made
    return flow, owner


class TestFailover:
    def test_kill_mid_punt_repunts_to_successor_without_leaking_pending(self):
        net = build_network()
        flow, owner = punt_one_flow(net)
        assert list(net.cluster.replicas[owner]._pending) == [flow]

        net.start_monitoring()
        net.cluster.kill(owner)
        net.run(1.0)
        net.stop_monitoring()
        net.run()

        successor = net.cluster.shard_map.owner(flow)
        assert successor != owner
        records = net.cluster.replicas[successor].audit.records()
        assert [r.action for r in records] == ["pass"]
        assert len(net.host("server").delivered) == 1
        # No pending entry survives anywhere — not even on the corpse —
        # and the flow was decided exactly once across the kill.
        assert_zero_loss(net, [flow])
        assert net.cluster.failovers == 1
        assert net.cluster.repunted_flows == 1
        assert net.cluster.replicas[successor].repunts_adopted == 1

    def test_new_punts_rehome_immediately_after_kill(self):
        # The dead shard's channels drop with it, so punts arriving before
        # the monitor even notices go straight to the successor.
        net = build_network()
        client = net.host("client")
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        owner = net.cluster.shard_map.owner(flow)
        net.cluster.kill(owner)

        client.transmit(packet)
        net.run(1.0)
        assert len(net.host("server").delivered) == 1
        assert net.cluster.replicas[owner].audit.records() == []
        successor = net.cluster.shard_map.successor(flow, owner)
        assert len(net.cluster.replicas[successor].audit.records()) == 1
        # No failover ran: the shard router alone re-homed the punt.
        assert net.cluster.failovers == 0

    def test_halted_inbox_messages_are_repunted(self):
        # halt() without a channel disconnect models a hung process whose
        # socket still accepts: queued punts drain to the successor.
        net = build_network()
        client = net.host("client")
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        owner = net.cluster.shard_map.owner(flow)
        net.cluster.replica(owner).halt()

        client.transmit(packet)
        net.run(0.01)
        assert len(net.cluster.replica(owner)._halted_inbox) == 1

        net.cluster.fail_over(owner)
        net.run()
        successor = net.cluster.shard_map.owner(flow)
        assert len(net.cluster.replicas[successor].audit.records()) == 1
        assert_zero_loss(net, [flow])

    def test_restore_returns_the_shard_to_the_ring(self):
        net = build_network()
        flow, owner = punt_one_flow(net)
        net.start_monitoring()
        net.cluster.kill(owner)
        net.run(1.0)
        net.stop_monitoring()
        assert not net.cluster.shard_map.is_live(owner)

        net.cluster.restore(owner)
        assert net.cluster.shard_map.is_live(owner)
        assert not net.cluster.replicas[owner].halted
        # The original arc comes back: the flow maps to its old owner.
        assert net.cluster.shard_map.owner(flow) == owner

    def test_restore_before_detection_replays_the_halted_inbox(self):
        # Kill and restore within the detection window: punts that were
        # in flight when the process died sit in its socket backlog and
        # must be replayed on revival, not lost open-ended.
        net = build_network()
        client = net.host("client")
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        owner = net.cluster.shard_map.owner(flow)
        # Halt without dropping channels: the punt reaches the dead
        # process's socket (kill() would re-home it at the switch).
        net.cluster.replica(owner).halt()
        client.transmit(packet)
        net.run(0.01)
        assert len(net.cluster.replica(owner)._halted_inbox) == 1

        net.cluster.restore(owner)
        net.run()
        assert len(net.host("server").delivered) == 1
        assert net.cluster.replicas[owner].audit.records()[0].action == "pass"
        assert_zero_loss(net, [flow])

    def test_restore_after_swallowed_deadline_rearms_fail_closed(self):
        # The one-shot pending deadline fires into a halted controller
        # and is swallowed; revival must arm a fresh one so the flow
        # still fails closed instead of pending forever.
        net = build_network(
            controller_config=ControllerConfig(pending_deadline=0.2)
        )
        flow, owner = punt_one_flow(net)
        replica = net.cluster.replicas[owner]
        replica.halt()  # queries are out; the decision event dies with us
        net.run(1.0)  # the 0.2 s deadline fires and is swallowed
        assert list(replica._pending) == [flow]

        net.cluster.restore(owner)
        net.run(1.0)
        assert replica.inflight_count() == 0
        assert replica.pending_expired == 1
        assert [r.rule_origin for r in replica.audit.records()] == ["error"]
        assert net.switches["sw"].buffered_count() == 0

    def test_monitor_does_not_fire_on_healthy_shards(self):
        net = build_network()
        net.start_monitoring()
        net.run(1.0)
        net.stop_monitoring()
        assert net.cluster.failovers == 0
        assert net.cluster.monitor.ticks >= 10
        assert net.cluster.monitor.stats()["suspected"] == {}

    def test_monitor_requires_arming_before_detection(self):
        net = build_network()
        flow, owner = punt_one_flow(net)
        net.cluster.kill(owner)
        net.run(1.0)
        # Without the monitor nothing re-punts; the flow stays frozen in
        # the dead replica (the deadline cannot fire on a corpse).
        assert net.cluster.failovers == 0
        assert list(net.cluster.replicas[owner]._pending) == [flow]

    def test_repunted_flow_keeps_fail_closed_backstop(self):
        # The successor arms its own pending deadline for adopted flows:
        # a flow lost twice still ends as an audited drop.
        net = build_network()
        flow, owner = punt_one_flow(net)
        successor = net.cluster.shard_map.successor(flow, owner)
        net.start_monitoring()
        net.cluster.kill(owner)
        net.run(0.5)
        assert net.cluster.repunted_flows == 1
        adopter = net.cluster.replicas[successor]
        if adopter.inflight_count():
            assert adopter._pending[flow].deadline is not None
        net.stop_monitoring()
        net.run()
        assert net.cluster.pending_total() == 0

    def test_losing_every_shard_does_not_wedge_the_simulation(self):
        # With nobody left to adopt flows, the monitor must keep the
        # last corpse suspected instead of raising mid-simulation.
        net = build_network(shards=2)
        flow, owner = punt_one_flow(net)
        net.start_monitoring()
        for shard in net.cluster.shard_map.shards():
            net.cluster.kill(shard)
        net.run(1.0)  # must not raise
        net.stop_monitoring()
        # The first corpse failed over (its peer still looked live); the
        # second is kept suspected because nobody is left to adopt.
        assert net.cluster.failovers == 1
        assert len(net.cluster.shard_map.live_shards()) == 1
        # New punts now follow the switch fail_mode (fail-secure drop).
        result = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert not result.delivered

    def test_fail_over_on_a_live_shard_kills_it_first(self):
        # A forced failover of a running replica must not let the
        # replica's in-flight decisions race the successor's adoptions
        # (duplicate decisions + duplicate flow entries).
        net = build_network()
        flow, owner = punt_one_flow(net)
        net.cluster.fail_over(owner)  # no kill, no halt beforehand
        assert net.cluster.replicas[owner].halted
        net.run()
        deciders = [
            name for name, c in net.cluster.replicas.items() if c.audit.records()
        ]
        assert len(deciders) == 1 and deciders[0] != owner
        assert net.cluster.pending_total() == 0


class TestSerializedDecisionLoop:
    def test_stale_decision_cannot_override_a_fail_closed_flow(self):
        # Three simultaneous punts queue behind a 0.5 s serial decision
        # loop with a 0.6 s pending deadline: flows 2 and 3 fail closed
        # at the deadline, and their (still-queued) decision events must
        # be discarded — not override the block with a late pass.
        net = IdentPPNetwork(
            "serialized",
            policy_default_action="block",
            controller_config=ControllerConfig(
                serialize_decisions=True,
                policy_eval_delay=0.5,
                pending_deadline=0.6,
            ),
        )
        sw = net.add_switch("sw")
        net.add_host(
            HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
            switch=sw,
        )
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
        server.run_server("httpd", "root", 80)
        net.set_policy({"00.control": "block all\npass from any to any port 80 keep state\n"})

        client = net.host("client")
        flows = []
        for _ in range(3):
            packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
            flows.append(FlowSpec.from_packet(packet))
        net.run()

        by_flow = {
            flow: [r.rule_origin for r in net.controller.audit.records() if r.flow == flow]
            for flow in flows
        }
        assert by_flow[flows[0]] == ["00.control"]  # decided before the deadline
        for late in flows[1:]:
            assert by_flow[late] == ["error"]  # failed closed, never re-decided
        assert net.controller.pending_expired == 2
        assert len(server.delivered) == 1
        assert sw.buffered_count() == 0
        assert not net.controller._pending

    def test_stale_decision_cannot_answer_a_repunt_of_the_same_flow(self):
        # A burst backlog pushes flow F's decision event past F's
        # pending deadline: F fails closed, then punts again while the
        # stale event is still queued.  The re-punt is a new pending
        # generation — the stale event (old query outcomes) must not
        # resolve it; only its own fresh pipeline may.
        net = IdentPPNetwork(
            "repunt",
            policy_default_action="block",
            controller_config=ControllerConfig(
                serialize_decisions=True,
                policy_eval_delay=0.05,
                pending_deadline=0.3,
            ),
        )
        sw = net.add_switch("sw")
        net.add_host(
            HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
            switch=sw,
        )
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
        server.run_server("httpd", "root", 80)
        net.set_policy({"00.control": "block all\npass from any to any port 80 keep state\n"})

        client = net.host("client")
        for _ in range(8):  # backlog: 8 x 0.05 s of queued service
            client.open_flow("http", "alice", "192.168.1.1", 80)
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        flow = FlowSpec.from_packet(packet)
        # F's slot ends ~t=0.45 > deadline 0.3, so F fails closed at
        # ~0.3.  Re-punt F at t=0.35 — after the fail-close, before the
        # stale event fires (injected at the controller; the datapath
        # drop entry would otherwise swallow it).  The fresh decision
        # lands ~t=0.5, inside the new generation's 0.65 deadline.
        from repro.openflow.messages import PacketIn

        net.topology.sim.schedule_at(
            0.35,
            net.controller.handle_message,
            PacketIn(switch=sw, packet=packet, in_port=1),
        )
        net.run()

        origins = [
            r.rule_origin for r in net.controller.audit.records() if r.flow == flow
        ]
        # One fail-close, then exactly one fresh decision — the stale
        # event decided nothing.
        assert origins == ["error", "00.control"]
        decided = [r for r in net.controller.audit.records() if r.flow == flow][-1]
        # The fresh pipeline completed after the re-punt, not at the
        # stale event's slot.
        assert decided.time > 0.35
        assert not net.controller._pending


class TestPushSubscriptionRehoming:
    """Killing a subscribed shard re-homes its push subscriptions."""

    SERVER_IP = "192.168.1.1"

    def _build(self):
        # One punt promotes: every shard that decides a flow to the
        # server registers standing interest on its first punt.  The
        # lifecycle sweeper is on so idle demotion actually runs.
        return build_network(
            controller_config=ControllerConfig(
                identity_plane="push",
                push_promote_punts=1,
                query_cache_ttl=2.0,
                lifecycle_interval=0.25,
                # Longer than the scripted timeline (the probe decides
                # at ~t=2.0), shorter than forever: the final drain
                # still demotes everything.
                push_idle_demote=3.0,
            )
        )

    def _httpd_process(self, net):
        server = net.host("server")
        return next(
            socket.process
            for socket in server.sockets.sockets()
            if socket.is_listening and socket.local_port == 80
        )

    def _subscribed_shards(self, net):
        return [
            name
            for name, controller in net.cluster.replicas.items()
            if controller.query_engine.is_subscribed(self.SERVER_IP)
        ]

    def test_kill_mid_delta_stream_rehomes_without_lost_or_duplicate_deltas(self):
        net = self._build()
        client = net.host("client")
        daemon = net.daemon("server")
        flows = []
        for _ in range(4):
            packet, _, _ = client.open_flow("http", "alice", self.SERVER_IP, 80)
            flows.append(FlowSpec.from_packet(packet))
        net.run(0.5)

        subscribed = self._subscribed_shards(net)
        assert subscribed, "no shard promoted the hot server"
        assert daemon.subscriber_count() == len(subscribed)
        victim = subscribed[0]

        # A stream of runtime deltas brackets the kill: two land before
        # the shard dies, two land after the monitor's failover.
        sim = net.topology.sim
        httpd = self._httpd_process(net)
        for offset in (0.05, 0.1, 0.5, 0.7):
            sim.schedule_at(
                sim.now + offset,
                daemon.runtime.publish_for_process,
                httpd,
                {"rev": f"r{offset}"},
                label="test.delta_stream",
            )
        net.start_monitoring()
        sim.schedule_at(sim.now + 0.2, net.cluster.kill, victim, label="test.kill")
        net.run(1.0)
        net.stop_monitoring()
        net.run(0.5)

        successor = net.cluster.shard_map.owner_of_key(identity_key(self.SERVER_IP))
        assert successor != victim
        engine = net.cluster.replicas[successor].query_engine
        assert engine.is_subscribed(self.SERVER_IP)
        assert engine.subscriptions_adopted >= 1
        # No lost deltas: the adopted subscription's serial caught up
        # with everything the daemon published, including the deltas
        # that landed after the kill.
        assert engine._subs[self.SERVER_IP].serial == daemon.delta_serial
        # No duplicate deltas were applied anywhere in the cluster.
        for controller in net.cluster.replicas.values():
            assert controller.query_engine.duplicate_deltas == 0
        # The corpse is fully torn down daemon-side: only live shards
        # are still subscribed.
        assert net.cluster.replicas[victim].query_engine.subscription_count() == 0
        live_subscribed = self._subscribed_shards(net)
        assert victim not in live_subscribed
        assert daemon.subscriber_count() == len(live_subscribed)
        # The re-home was committed to the replay log.
        kinds = [r.kind for r in net.cluster.coordinator.audit_trail()]
        assert "subscription_rehome" in kinds

        # The successor is resident: a re-punted flow it owns decides
        # without a single new query to the server's daemon.
        answered_before = int(daemon.queries_answered.value)
        probe = None
        for _ in range(64):
            packet, _, _ = client.open_flow(
                "http", "alice", self.SERVER_IP, 80, send=False
            )
            flow = FlowSpec.from_packet(packet)
            if net.cluster.shard_map.owner(flow) == successor:
                probe = (packet, flow)
                break
        assert probe is not None, "no probe flow hashed to the successor"
        client.transmit(probe[0])
        net.run(0.5)
        flows.append(probe[1])
        assert int(daemon.queries_answered.value) == answered_before
        probe_records = [
            r for r in net.cluster.replicas[successor].audit.records()
            if r.flow == probe[1]
        ]
        assert [r.action for r in probe_records] == ["pass"]

        # Shared invariants: the subscription table stays bounded by the
        # shard count while running...
        state = network_flow_state(net)
        bounded = check_bounded_state(
            {"subscriptions": state["subscriptions"]},
            {"subscriptions": float(len(net.cluster.replicas))},
        )
        assert bounded.passed, bounded.violations
        # ...and the idle sweeper drains it completely: no engine keeps
        # a subscription and the daemon holds no stale sink (the
        # stale-subscription leak check, across a failover).
        net.run()
        assert daemon.subscriber_count() == 0
        for controller in net.cluster.replicas.values():
            assert controller.query_engine.subscription_count() == 0
        assert_zero_loss(net, flows)

    def test_fresh_adoption_installs_resident_entries_without_requery(self):
        # Quiet daemon across the kill: serials match at adoption, so
        # the exported resident answers install verbatim and the
        # successor never re-queries the daemon for them.
        net = self._build()
        client = net.host("client")
        daemon = net.daemon("server")
        flows = []
        for _ in range(4):
            packet, _, _ = client.open_flow("http", "alice", self.SERVER_IP, 80)
            flows.append(FlowSpec.from_packet(packet))
        net.run(0.5)

        subscribed = self._subscribed_shards(net)
        assert subscribed
        victim = subscribed[0]
        victim_engine = net.cluster.replicas[victim].query_engine
        exported_serial = victim_engine._subs[self.SERVER_IP].serial
        answered_before = int(daemon.queries_answered.value)

        net.start_monitoring()
        net.cluster.kill(victim)
        net.run(1.0)
        net.stop_monitoring()
        net.run(0.5)

        successor = net.cluster.shard_map.owner_of_key(identity_key(self.SERVER_IP))
        engine = net.cluster.replicas[successor].query_engine
        assert engine.is_subscribed(self.SERVER_IP)
        assert engine._subs[self.SERVER_IP].serial == exported_serial
        assert engine.adoptions_stale == 0
        # Adoption was free: no refresh round-trips hit the daemon.
        assert int(daemon.queries_answered.value) == answered_before
        net.run()
        assert_zero_loss(net, flows)

    def test_restored_shard_does_not_serve_a_stale_ttl_answer(self):
        # Cache coherence across kill -> fail_over -> restore: the
        # victim's subscription is exported, but the TTL entries it
        # keeps for the same host must still hear the daemon, or the
        # revived shard decides a re-punt on the pre-change answer.
        client_ip = "192.168.0.10"
        net = build_network(
            controller_config=ControllerConfig(
                identity_plane="push",
                push_promote_punts=1,
                query_cache_ttl=30.0,
                # Short decision/flow-entry lifetimes so the same
                # 5-tuple is punted and decided again after the restore.
                decision_ttl=0.2,
                idle_timeout=0.2,
            )
        )
        net.set_policy({
            "00-default.control": (
                "block all\n"
                "pass from any to any port 80 keep state\n"
                "pass from any to any port 8080 with eq(@src[os-patch], MS08-067)\n"
            ),
        })
        client, server = net.host("client"), net.host("server")
        daemon = net.daemon("server")
        # The victim must not be the server's identity owner: resync
        # re-subscribes the owner on restore, which would re-hook the
        # listener and mask the leak.
        identity_owner = net.cluster.shard_map.owner_of_key(identity_key(self.SERVER_IP))
        victim = next(n for n in sorted(net.cluster.replicas) if n != identity_owner)

        def flow_owned_by_victim(host, app, user, dst_ip, dst_port):
            for _ in range(256):
                packet, _, _ = host.open_flow(app, user, dst_ip, dst_port, send=False)
                if net.cluster.shard_map.owner(FlowSpec.from_packet(packet)) == victim:
                    return packet
            raise AssertionError("no flow hashed to the victim shard")

        # One punt toward the server promotes it on the victim...
        client.transmit(flow_owned_by_victim(client, "http", "alice", self.SERVER_IP, 80))
        net.run(0.5)
        engine = net.cluster.replicas[victim].query_engine
        assert engine.is_subscribed(self.SERVER_IP)
        # ...and a flow *from* the server leaves a flow-scoped TTL entry
        # keyed on the subscribed host (blocked: the fact is not set yet).
        packet = flow_owned_by_victim(server, "http", "root", client_ip, 8080)
        flow = FlowSpec.from_packet(packet)
        server.transmit(packet)
        net.run(0.5)
        records = net.cluster.replicas[victim].audit.records()
        assert [r.action for r in records if r.flow == flow] == ["block"]

        net.start_monitoring()
        net.cluster.kill(victim)
        net.run(1.0)
        net.stop_monitoring()
        assert net.cluster.failovers == 1
        assert not engine.is_subscribed(self.SERVER_IP)
        net.cluster.restore(victim)
        assert not engine.is_subscribed(self.SERVER_IP)

        daemon.set_host_fact("os-patch", "MS08-067")
        server.transmit(packet)
        net.run(0.5)
        records = net.cluster.replicas[victim].audit.records()
        assert [r.action for r in records if r.flow == flow and not r.cached] == [
            "block", "pass",
        ]
        net.run()
        assert net.cluster.pending_total() == 0
