"""Tests for the push identity plane (PR 10).

Covers the wire-v2 SUBSCRIBE / DELTA / UNSUBSCRIBE messages and their
capability negotiation, the daemon's one delta channel (its listener
list), the engine's resident store (promotion, zero-query steady state,
duplicate-delta idempotency, idle demotion and the stale-subscription
leak fix, daemon replacement, failover export/adopt) and the
controller's ``identity_plane`` switch.
"""

import pytest

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPNetwork
from repro.exceptions import ControllerError, WireFormatError
from repro.identpp.client import QueryClient
from repro.identpp.daemon import IdentPPDaemon
from repro.identpp.engine import QueryEngine
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import (
    CAP_SUBSCRIBE,
    IdentDelta,
    IdentSubscribe,
    IdentSubscribeAck,
    IdentUnsubscribe,
    WIRE_VERSION_PULL,
    WIRE_VERSION_PUSH,
    parse_push_payload,
)
from repro.workloads.invariants import check_bounded_state, network_flow_state

from tests.test_query_engine import both_entry_points, build_world, flow_to_server

POLICY = {"00.control": "block all\npass from any to any port 80 keep state\n"}

SERVER_IP = "192.168.1.1"


# ----------------------------------------------------------------------
# Wire format (version 2)
# ----------------------------------------------------------------------


class TestPushWire:
    def test_subscribe_round_trip(self):
        msg = IdentSubscribe(host_ip=SERVER_IP, subscriber="ctl", keys=("name", "userID"))
        parsed = parse_push_payload(msg.to_payload(), host_ip=SERVER_IP)
        assert parsed == msg

    def test_subscribe_defaults_the_key_hint(self):
        msg = IdentSubscribe(host_ip=SERVER_IP, subscriber="ctl")
        parsed = parse_push_payload(msg.to_payload(), host_ip=SERVER_IP)
        assert parsed.keys == msg.keys and len(parsed.keys) > 0

    def test_subscribe_ack_round_trips_both_verdicts(self):
        accepted = IdentSubscribeAck(
            host_ip=SERVER_IP, accepted=True, capabilities=(CAP_SUBSCRIBE,), serial=7
        )
        refused = IdentSubscribeAck(
            host_ip=SERVER_IP, accepted=False, version=WIRE_VERSION_PULL
        )
        assert parse_push_payload(accepted.to_payload(), host_ip=SERVER_IP) == accepted
        assert parse_push_payload(refused.to_payload(), host_ip=SERVER_IP) == refused

    def test_delta_round_trip(self):
        msg = IdentDelta(host_ip=SERVER_IP, serial=3, reason="socket-table", keys=("name",))
        assert parse_push_payload(msg.to_payload(), host_ip=SERVER_IP) == msg
        # An empty reason survives as empty (the "-" placeholder).
        bare = IdentDelta(host_ip=SERVER_IP, serial=0)
        assert parse_push_payload(bare.to_payload(), host_ip=SERVER_IP) == bare

    def test_unsubscribe_round_trip(self):
        msg = IdentUnsubscribe(host_ip=SERVER_IP, subscriber="ctl")
        assert parse_push_payload(msg.to_payload(), host_ip=SERVER_IP) == msg

    @pytest.mark.parametrize(
        "payload",
        [
            "",
            "   ",
            "HELLO 1 ctl",
            "SUBSCRIBE 1 ctl",  # downlevel SUBSCRIBE is malformed, not negotiable
            "SUBSCRIBE x ctl",
            "SUBSCRIBE 2",
            "SUBSCRIBE-ACK 2 maybe 0",
            "SUBSCRIBE-ACK 2 ok x",
            "DELTA x -",
            "DELTA 1",
            "UNSUBSCRIBE",
        ],
    )
    def test_malformed_payloads_raise(self, payload):
        with pytest.raises(WireFormatError):
            parse_push_payload(payload, host_ip=SERVER_IP)

    def test_invalid_fields_raise_at_construction(self):
        with pytest.raises(WireFormatError):
            IdentDelta(host_ip=SERVER_IP, serial=-1)
        with pytest.raises(WireFormatError):
            IdentSubscribe(host_ip=SERVER_IP, subscriber="has space")
        with pytest.raises(WireFormatError):
            IdentUnsubscribe(host_ip=SERVER_IP, subscriber="")


# ----------------------------------------------------------------------
# Daemon: negotiation and the one delta channel
# ----------------------------------------------------------------------


class TestDaemonPush:
    def test_capable_daemon_accepts_and_streams_serialized_deltas(self):
        _, _, _, server, daemon = build_world()
        received = []
        daemon.add_invalidation_listener(received.append)
        ack = daemon.subscribe(IdentSubscribe(host_ip=server.ip, subscriber="eng"))
        assert ack.accepted
        assert CAP_SUBSCRIBE in ack.capabilities
        assert ack.version == WIRE_VERSION_PUSH
        base = ack.serial
        assert base == daemon.delta_serial

        daemon.notify_invalidation("test-a")
        daemon.notify_invalidation("test-b")
        assert [(d.serial, d.reason) for d in received] == [
            (base + 1, "test-a"), (base + 2, "test-b"),
        ]
        assert daemon.subscriber_count() == 1

        assert daemon.unsubscribe("eng") is True
        assert daemon.unsubscribe("eng") is False
        daemon.notify_invalidation("test-c")
        # The listener still hears every change, as a pull engine does;
        # the daemon just has no subscriber left.
        assert daemon.delta_serial == base + 3
        assert [d.serial for d in received] == [base + 1, base + 2, base + 3]
        assert daemon.subscriber_count() == 0

    def test_legacy_daemon_refuses_with_pull_ack(self):
        _, _, _, server, _ = build_world()
        legacy = IdentPPDaemon(server, push_capable=False)
        ack = legacy.subscribe(IdentSubscribe(host_ip=server.ip, subscriber="eng"))
        assert not ack.accepted
        assert ack.version == WIRE_VERSION_PULL
        assert ack.capabilities == ()
        assert legacy.subscriber_count() == 0

    def test_downlevel_subscribe_is_refused(self):
        _, _, _, server, daemon = build_world()
        stale = IdentSubscribe(host_ip=server.ip, subscriber="eng", version=1)
        ack = daemon.subscribe(stale)
        assert not ack.accepted and ack.version == WIRE_VERSION_PULL

    def test_one_subscription_per_subscriber_name_and_one_delta_per_listener(self):
        _, _, _, server, daemon = build_world()
        first, second = [], []
        daemon.add_invalidation_listener(first.append)
        daemon.add_invalidation_listener(second.append)
        daemon.add_invalidation_listener(second.append)  # already there: no-op
        daemon.subscribe(IdentSubscribe(host_ip=server.ip, subscriber="eng"))
        daemon.subscribe(IdentSubscribe(host_ip=server.ip, subscriber="eng"))
        assert daemon.subscriber_count() == 1
        daemon.notify_invalidation("test")
        assert len(first) == 1 and second == first

    def test_remove_invalidation_listener_is_idempotent(self):
        _, _, _, _, daemon = build_world()
        fired = []
        daemon.add_invalidation_listener(fired.append)
        daemon.remove_invalidation_listener(fired.append)
        daemon.remove_invalidation_listener(fired.append)  # absent: no-op
        daemon.notify_invalidation("test")
        assert fired == []


# ----------------------------------------------------------------------
# Engine: resident store, promotion, demotion, failover hand-off
# ----------------------------------------------------------------------


def make_engine(topo, *, ttl=5.0, push=True, **kwargs):
    return QueryEngine(QueryClient(topo), ttl=ttl, name="eng", push=push, **kwargs)


def patch_host(daemon):
    """Change a host-level fact the way an administrator would: edit, then invalidate."""
    daemon.host_facts["os-patch"] = "MS08-067"
    daemon.notify_invalidation("host-fact")


def count_deltas(engine):
    """Record every delta ``engine`` handles (before it hooks any daemon)."""
    seen = []
    handle = engine._on_delta

    def recording(delta):
        seen.append(delta.serial)
        handle(delta)

    engine._on_delta = recording
    return seen


def resident(engine: QueryEngine) -> int:
    """How many of the engine's answers are held until the next delta."""
    return engine._until_delta


class TestEnginePush:
    @both_entry_points
    def test_promotion_upgrades_fresh_ttl_entries_in_place(self, ask):
        # The hot answer usually fills *before* the punt that trips the
        # promotion threshold: subscribing must upgrade it, or the next
        # steady-state punt pays one more TTL round-trip.
        topo, switch, _, server, daemon = build_world()
        engine = make_engine(topo)
        ask(engine, flow_to_server(), "dst", from_node=switch)
        assert int(daemon.queries_answered.value) == 1
        assert resident(engine) == 0

        assert engine.subscribe_host(server.ip) is True
        assert resident(engine) == 1

        topo.sim.run(until=topo.sim.now + 1.0)  # let the fill's round trip land
        outcome = ask(engine, flow_to_server(41000), "dst", from_node=switch)
        assert outcome.succeeded()
        assert engine.resident_hits == 1
        assert int(daemon.queries_answered.value) == 1  # no new round trip

    @both_entry_points
    def test_resident_answers_never_expire_by_ttl(self, ask):
        topo, switch, _, server, daemon = build_world()
        engine = make_engine(topo, ttl=0.5)
        assert engine.subscribe_host(server.ip) is True
        ask(engine, flow_to_server(), "dst", from_node=switch)
        assert int(daemon.queries_answered.value) == 1
        topo.sim.run(until=topo.sim.now + 10.0)
        ask(engine, flow_to_server(41000), "dst", from_node=switch)
        assert int(daemon.queries_answered.value) == 1
        assert engine.resident_hits == 1

    def test_subscribe_refusals(self):
        # Push plane off.
        topo, _, _, server, _ = build_world()
        assert make_engine(topo, push=False).subscribe_host(server.ip) is False
        # No daemon on the host at all.
        topo2, _, _, server2, _ = build_world(server_daemon=False)
        assert make_engine(topo2).subscribe_host(server2.ip) is False
        # A legacy daemon refuses, and a refusal changes no state: asking
        # again gets the same answer and leaves nothing on the daemon.
        topo3, _, _, server3, _ = build_world()
        legacy = IdentPPDaemon(server3, push_capable=False)
        engine = make_engine(topo3)
        assert engine.subscribe_host(server3.ip) is False
        assert engine.subscribe_host(server3.ip) is False
        assert engine.subscription_count() == 0
        assert legacy.subscriber_count() == 0
        assert legacy._invalidation_listeners == []

    @both_entry_points
    def test_delta_refreshes_resident_and_duplicates_are_dropped(self, ask):
        topo, switch, _, server, daemon = build_world()
        engine = make_engine(topo)
        assert engine.subscribe_host(server.ip) is True
        ask(engine, flow_to_server(), "dst", from_node=switch)
        topo.sim.run(until=topo.sim.now + 1.0)  # let the fill's round trip land
        assert resident(engine) == 1

        patch_host(daemon)
        # A punt landing mid-refresh coalesces onto the re-prime the
        # delta already put on the wire — never the pre-delta answer,
        # and not counted as a resident hit until it has arrived.
        mid = ask(engine, flow_to_server(40500), "dst", from_node=switch)
        assert mid.coalesced and 0 < mid.latency
        assert mid.response.document.latest("os-patch") == "MS08-067"
        assert engine.resident_hits == 0
        topo.sim.run(until=topo.sim.now + 1.0)
        sub = engine._subs[str(server.ip)]
        assert sub.serial == daemon.delta_serial
        assert resident(engine) == 1
        # The refreshed resident answer carries the new fact — punts
        # converge without a daemon round trip on the punt path.
        outcome = ask(engine, flow_to_server(41000), "dst", from_node=switch)
        assert outcome.response.document.latest("os-patch") == "MS08-067"

        # A replayed delta (serial already applied) is a no-op.
        applied_before = engine.deltas_applied
        engine._on_delta(IdentDelta(host_ip=server.ip, serial=sub.serial))
        assert engine.duplicate_deltas == 1
        assert engine.deltas_applied == applied_before

    def test_unsubscribe_unregisters_everything_daemon_side(self):
        # The stale-subscription leak fix: a demoted host strands
        # neither a subscription nor a listener.
        topo, switch, _, server, daemon = build_world()
        engine = make_engine(topo, ttl=0.0, push_promote_punts=2)
        engine.note_punt(server.ip, from_node=switch)  # tally 1 of 2
        assert engine.subscribe_host(server.ip) is True
        engine.query(flow_to_server(), "dst", from_node=switch)
        assert daemon.subscriber_count() == 1
        assert len(daemon._invalidation_listeners) == 1

        assert engine.unsubscribe_host(server.ip) is True
        assert daemon.subscriber_count() == 0
        assert len(daemon._invalidation_listeners) == 0
        assert resident(engine) == 0
        assert engine.unsubscribe_host(server.ip) is False
        # The engine reset the promotion tally itself: one punt is not
        # enough to re-earn residency, the threshold's second one is.
        engine.note_punt(server.ip, from_node=switch)
        assert not engine.is_subscribed(server.ip)
        engine.note_punt(server.ip, from_node=switch)
        assert engine.is_subscribed(server.ip)
        assert engine.unsubscribe_host(server.ip) is True

        # The same holds when a host's last TTL entry leaves by expiry:
        # through the sweep...
        pull = make_engine(topo, ttl=5.0, push=False)
        pull.query(flow_to_server(), "dst", from_node=switch, now=0.0)
        assert len(daemon._invalidation_listeners) == 1
        assert pull.expire(now=100.0) == 1
        assert len(daemon._invalidation_listeners) == 0
        assert pull._daemons == {}
        # ...or through a lookup that finds it expired (the refill
        # hooks a fresh listener; invalidating it unhooks again).
        pull.query(flow_to_server(), "dst", from_node=switch, now=200.0)
        pull.query(flow_to_server(41000), "dst", from_node=switch, now=300.0)
        assert len(pull) == 1
        assert len(daemon._invalidation_listeners) == 1
        assert pull.invalidate_host(server.ip) == 1
        assert len(daemon._invalidation_listeners) == 0

    def test_idle_demotion_sweeps_only_idle_subscriptions(self):
        topo, switch, _, server, daemon = build_world()
        engine = make_engine(topo, push_idle_demote=2.0)
        assert engine.subscribe_host(server.ip, now=0.0) is True
        assert engine.demote_idle(1.0) == 0
        assert engine.demote_idle(3.0) == 1
        assert not engine.is_subscribed(server.ip)
        assert daemon.subscriber_count() == 0

    def test_pull_and_push_engines_see_one_delta_per_change(self):
        topo, switch, _, server, daemon = build_world()
        pull = QueryEngine(QueryClient(topo), ttl=5.0, name="pull")
        push = make_engine(topo)
        seen = {"pull": count_deltas(pull), "push": count_deltas(push)}
        assert push.subscribe_host(server.ip) is True
        push.query(flow_to_server(), "dst", from_node=switch)
        serials = []
        for change in (
            lambda: patch_host(daemon),
            lambda: daemon.runtime.publish_for_process(next(iter(server.processes)), {"k": "v"}),
        ):
            # The pull engine holds an answer (so it listens) when the
            # change lands; the delta drops it again.
            pull.query(flow_to_server(), "dst", from_node=switch)
            change()
            serials.append(daemon.delta_serial)
            topo.sim.run(until=topo.sim.now + 1.0)
        assert seen == {"pull": serials, "push": serials}
        assert push.deltas_applied == 2 and push.duplicate_deltas == 0
        assert pull.invalidated_entries == 2

    def test_invalidate_host_forgets_a_subscribed_host_in_one_call(self):
        topo, switch, client, server, daemon = build_world()
        engine = make_engine(topo)
        assert engine.subscribe_host(server.ip) is True
        engine.query(flow_to_server(), "dst", from_node=switch)
        # A flow-scoped TTL entry for the same host: it is the source here.
        reverse = FlowSpec.tcp(server.ip, client.ip, 80, 40000)
        engine.query(reverse, "src", from_node=switch)
        assert resident(engine) == 1 and len(engine) == 1

        assert engine.invalidate_host(server.ip, "quarantine") == 1
        assert not engine.is_subscribed(server.ip)
        assert resident(engine) == 0 and len(engine) == 0
        assert daemon.subscriber_count() == 0
        assert daemon._invalidation_listeners == []

    def test_replaced_daemon_makes_the_engine_forget_the_host(self):
        topo, switch, _, server, old_daemon = build_world()
        engine = make_engine(topo)
        assert engine.subscribe_host(server.ip) is True
        engine.query(flow_to_server(), "dst", from_node=switch)
        assert old_daemon.subscriber_count() == 1

        new_daemon = IdentPPDaemon(server)  # upgrade: replaces the old object
        # The old daemon's last notice made the engine forget the host:
        # its answers, its subscription and its listener are gone.
        assert not engine.is_subscribed(server.ip)
        assert resident(engine) == 0
        assert old_daemon.subscriber_count() == 0
        assert old_daemon._invalidation_listeners == []
        assert engine.subscribe_host(server.ip) is True
        assert new_daemon.subscriber_count() == 1

    def test_export_and_fresh_adopt_preserve_entries_and_serial(self):
        topo, switch, _, server, daemon = build_world()
        first = make_engine(topo)
        assert first.subscribe_host(server.ip) is True
        first.query(flow_to_server(), "dst", from_node=switch)

        records = first.export_push_state()
        assert [r["host_ip"] for r in records] == [server.ip]
        assert records[0]["entries"]
        # The dying engine is fully torn down.
        assert first.subscription_count() == 0
        assert daemon.subscriber_count() == 0

        second = make_engine(topo)
        assert second.adopt_push_state(records) == 1
        assert second.is_subscribed(server.ip)
        assert resident(second) == 1
        # Verbatim install: adoption cost zero daemon round trips.
        answered = int(daemon.queries_answered.value)
        second.query(flow_to_server(41000), "dst", from_node=switch)
        assert int(daemon.queries_answered.value) == answered

    def test_stale_adopt_reprimes_resident_answers(self):
        topo, switch, _, server, daemon = build_world()
        first = make_engine(topo)
        assert first.subscribe_host(server.ip) is True
        first.query(flow_to_server(), "dst", from_node=switch)
        topo.sim.run(until=topo.sim.now + 1.0)
        records = first.export_push_state()

        # A delta lands in the hand-off gap: the exported serial is stale.
        patch_host(daemon)

        second = make_engine(topo)
        assert second.adopt_push_state(records) == 1
        topo.sim.run(until=topo.sim.now + 1.0)
        # The successor re-primed through a refresh, so its resident
        # answer reflects the delta it never saw.
        outcome = second.query(flow_to_server(41000), "dst", from_node=switch)
        assert outcome.response.document.latest("os-patch") == "MS08-067"
        assert second._subs[str(server.ip)].serial == daemon.delta_serial

    def test_export_keeps_hearing_the_daemon_for_ttl_entries_left_behind(self):
        # Cache coherence across failover: exporting the subscription
        # must not unhook the invalidation listener while TTL entries
        # for the host stay behind, or a restored shard serves them
        # stale after the daemon changed.
        topo, switch, client, server, daemon = build_world()
        engine = make_engine(topo, ttl=30.0)
        assert engine.subscribe_host(server.ip) is True
        # A flow-scoped TTL entry keyed on the subscribed host: the
        # server is this flow's *source*, and source answers never go
        # resident.
        reverse = FlowSpec.tcp(server.ip, client.ip, 80, 40000)
        first = engine.query(reverse, "src", from_node=switch)
        assert first.succeeded() and len(engine) == 1

        records = engine.export_push_state()
        assert [r["host_ip"] for r in records] == [server.ip]
        assert daemon.subscriber_count() == 0
        assert len(daemon._invalidation_listeners) == 1  # the TTL entry's

        patch_host(daemon)
        topo.sim.run(until=topo.sim.now + 1.0)
        again = engine.query(reverse, "src", from_node=switch)
        assert not again.cached
        assert again.document.latest("os-patch") == "MS08-067"


# ----------------------------------------------------------------------
# Controller integration: the identity_plane switch
# ----------------------------------------------------------------------


def build_net(*, policy=POLICY, server_facts=None, **config_kwargs):
    defaults = dict(identity_plane="push", push_promote_punts=2, query_cache_ttl=0.0)
    defaults.update(config_kwargs)
    net = IdentPPNetwork(
        "push-plane",
        policy_default_action="block",
        controller_config=ControllerConfig(**defaults),
    )
    sw = net.add_switch("sw")
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
        switch=sw,
    )
    server = net.add_host(
        HostSpec(name="server", ip=SERVER_IP, host_facts=server_facts or {}), switch=sw
    )
    server.run_server("httpd", "root", 80)
    net.set_policy(policy)
    return net


class TestControllerPlaneSwitch:
    def test_invalid_identity_plane_is_rejected(self):
        with pytest.raises(ControllerError):
            build_net(identity_plane="sideways")

    def test_pull_plane_never_subscribes(self):
        net = build_net(identity_plane="pull")
        client = net.host("client")
        for _ in range(6):
            client.open_flow("http", "alice", SERVER_IP, 80)
        net.run()
        assert net.controller.query_engine.subscription_count() == 0
        assert net.daemon("server").subscriber_count() == 0
        assert network_flow_state(net)["subscriptions"] == 0

    def test_promotion_needs_the_configured_punt_count(self):
        net = build_net()
        client = net.host("client")
        client.open_flow("http", "alice", SERVER_IP, 80)
        net.run()
        engine = net.controller.query_engine
        assert not engine.is_subscribed(SERVER_IP)  # 1 punt < threshold 2
        client.open_flow("http", "alice", SERVER_IP, 80)
        net.run()
        assert engine.is_subscribed(SERVER_IP)
        assert net.daemon("server").subscriber_count() == 1
        # Only destinations are promoted — the client end keeps pulling.
        assert not engine.is_subscribed("192.168.0.10")

    def test_steady_state_punts_issue_zero_daemon_queries(self):
        net = build_net()
        client = net.host("client")
        daemon = net.daemon("server")
        for _ in range(2):
            client.open_flow("http", "alice", SERVER_IP, 80)
        net.run()
        assert net.controller.query_engine.is_subscribed(SERVER_IP)

        answered = int(daemon.queries_answered.value)
        for _ in range(5):
            client.open_flow("http", "alice", SERVER_IP, 80)
        net.run()
        assert int(daemon.queries_answered.value) == answered
        assert net.controller.query_engine.resident_hits >= 5
        state = network_flow_state(net)
        bounded = check_bounded_state(
            {"subscriptions": state["subscriptions"]}, {"subscriptions": 1.0}
        )
        assert bounded.passed, bounded.violations

    def test_quarantine_forgets_the_subscribed_host(self):
        net = build_net()
        client = net.host("client")
        for _ in range(2):
            client.open_flow("http", "alice", SERVER_IP, 80)
        net.run()
        engine = net.controller.query_engine
        assert engine.is_subscribed(SERVER_IP)

        net.controller.quarantine_host(SERVER_IP)
        assert not engine.is_subscribed(SERVER_IP)
        assert net.daemon("server").subscriber_count() == 0
        assert resident(engine) == 0

    def test_lifecycle_drain_demotes_and_punt_history_resets(self):
        net = build_net(lifecycle_interval=0.1, push_idle_demote=0.5)
        client = net.host("client")
        daemon = net.daemon("server")
        for _ in range(2):
            client.open_flow("http", "alice", SERVER_IP, 80)
        net.run(0.1)
        engine = net.controller.query_engine
        assert engine.is_subscribed(SERVER_IP)

        net.run()  # drain: the sweeper demotes the idle subscription
        assert not engine.is_subscribed(SERVER_IP)
        assert daemon.subscriber_count() == 0
        assert len(daemon._invalidation_listeners) == 0
        assert network_flow_state(net)["subscriptions"] == 0
        # Demotion reset the tally: the host re-earns residency from
        # fresh punt history, so one punt is not enough...
        client.open_flow("http", "alice", SERVER_IP, 80)
        net.run(0.1)
        assert not engine.is_subscribed(SERVER_IP)
        # ...but the threshold re-promotes.
        client.open_flow("http", "alice", SERVER_IP, 80)
        net.run(0.1)
        assert engine.is_subscribed(SERVER_IP)

    def test_replaced_daemon_answers_are_not_served(self):
        # A resident answer never re-checks the daemon, so the replaced
        # daemon's last notice is what keeps its answers from being
        # served for ever: the first punt after the replacement asks the
        # new daemon, which reports no patch, and the flow is blocked.
        patched = "block all\npass from any to any port 80 with includes(@dst[os-patch], MS08-067)\n"
        net = build_net(
            push_promote_punts=1,
            policy={"00.control": patched},
            server_facts={"os-patch": "MS08-067"},
        )
        client, engine, audit = net.host("client"), net.controller.query_engine, net.controller.audit
        for _ in range(2):
            client.open_flow("http", "alice", SERVER_IP, 80)
            net.run()
        assert engine.is_subscribed(SERVER_IP) and engine.resident_hits == 1
        assert [record.action for record in audit.records()] == ["pass", "pass"]

        replacement = IdentPPDaemon(net.host("server"))  # no patch fact
        client.open_flow("http", "alice", SERVER_IP, 80)
        net.run()
        assert audit.records()[-1].action == "block"
        assert engine.resident_hits == 1
        # The new daemon's answer earned residency again.
        assert engine.is_subscribed(SERVER_IP)
        assert replacement.subscriber_count() == 1
