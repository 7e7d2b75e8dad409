"""Tests for the controller/datapath fast paths added with the compiler.

Covers the decision-cache reverse/cookie indexes, the flow-table
exact-match cache, Packet.wire_size caching, the policy engine's
@pubkeys epoch caching, the flow generator's port allocator, a burst
of same-instant punts with one mis-evaluating flow, and the counts of
Python-level calls a forwarded packet and a punted flow make.
"""

from repro.core.cache import DecisionCache
from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPNetwork
from repro.core.policy_engine import PolicyEngine
from repro.crypto.signatures import Signer
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.netsim.packet import Packet
from repro.openflow.actions import OutputAction
from repro.openflow.flow_table import FlowTable
from repro.openflow.match import Match
from repro.workloads.generators import EPHEMERAL_BASE, FlowGenerator, FlowTemplate
from tests.reference_flow_table import make_entry
from tools.counts import count

FLOW = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)


def doc(entries: dict) -> ResponseDocument:
    document = ResponseDocument()
    document.add_section(entries)
    return document


class TestDecisionCacheIndexes:
    def test_reverse_lookup_still_works(self):
        cache = DecisionCache()
        cache.store(FLOW, "pass", "c1", now=0.0, keep_state=True)
        assert cache.lookup(FLOW.reversed(), now=1.0) is not None

    def test_reverse_skip_counter_tracks_entries(self):
        cache = DecisionCache()
        assert cache._reverse_candidates == 0
        cache.store(FLOW, "pass", "c1", now=0.0, keep_state=True)
        assert cache._reverse_candidates == 1
        # A block with keep_state never covers reverse traffic: not counted.
        other = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2)
        cache.store(other, "block", "c2", now=0.0, keep_state=True)
        assert cache._reverse_candidates == 1
        assert cache.lookup(other.reversed(), now=0.5) is None
        # Overwriting the keep-state entry unwinds the counter.
        cache.store(FLOW, "block", "c3", now=0.0, keep_state=False)
        assert cache._reverse_candidates == 0

    def test_invalidate_cookie_uses_index(self):
        cache = DecisionCache()
        flows = [FlowSpec.tcp("10.0.0.1", "10.0.1.1", 1000 + i, 80) for i in range(20)]
        for i, flow in enumerate(flows):
            cache.store(flow, "pass", f"cookie-{i % 2}", now=0.0, keep_state=(i % 3 == 0))
        assert cache.invalidate_cookie("cookie-0") == 10
        assert cache.invalidate_cookie("cookie-0") == 0
        assert len(cache) == 10
        assert cache.invalidate_cookie("cookie-1") == 10
        assert len(cache) == 0
        assert cache._reverse_candidates == 0
        assert cache._by_cookie == {}


class TestFlowTableExactCache:
    def packet(self) -> Packet:
        return Packet.tcp("10.0.0.1", "10.0.0.2", 40000, 80)

    def test_repeat_lookup_hits_exact_cache(self):
        table = FlowTable()
        match = Match.from_five_tuple("10.0.0.1", "10.0.0.2", 6, 40000, 80)
        table.install(make_entry(match, [OutputAction(1)]))
        first = table.lookup(self.packet(), now=0.0)
        second = table.lookup(self.packet(), now=0.1)
        assert first is second
        assert table.hits == 2
        assert list(table._exact_cache.values()) == [first]

    def test_cache_invalidated_by_higher_priority_install(self):
        table = FlowTable()
        broad = Match(nw_dst="10.0.0.0/8")
        table.install(make_entry(broad, [OutputAction(1)], priority=10))
        assert table.lookup(self.packet(), now=0.0).priority == 10
        specific = Match.from_five_tuple("10.0.0.1", "10.0.0.2", 6, 40000, 80)
        table.install(make_entry(specific, [OutputAction(2)], priority=200))
        assert table.lookup(self.packet(), now=0.0).priority == 200

    def test_cache_invalidated_by_removal(self):
        table = FlowTable()
        match = Match.from_five_tuple("10.0.0.1", "10.0.0.2", 6, 40000, 80)
        table.install(make_entry(match, [OutputAction(1)], cookie="c1"))
        assert table.lookup(self.packet(), now=0.0) is not None
        table.remove_by_cookie("c1")
        assert table.lookup(self.packet(), now=0.0) is None

    def test_expired_cached_entry_rescans(self):
        table = FlowTable()
        match = Match.from_five_tuple("10.0.0.1", "10.0.0.2", 6, 40000, 80)
        table.install(make_entry(match, [OutputAction(1)], idle_timeout=1.0), now=0.0)
        fallback = Match(nw_dst="10.0.0.0/8")
        table.install(make_entry(fallback, [OutputAction(2)], priority=5), now=0.0)
        assert table.lookup(self.packet(), now=0.5).priority == 100
        # Past the idle timeout the specific entry is dead; the cached
        # winner must not be returned and the scan finds the fallback.
        assert table.lookup(self.packet(), now=10.0).priority == 5

    def test_wire_size_cached(self):
        packet = Packet.tcp("10.0.0.1", "10.0.0.2", 1, 2, payload="x" * 100)
        first = packet.wire_size()
        assert packet._wire_size == first
        assert packet.wire_size() == first
        # copies recompute rather than inheriting the cache
        clone = packet.copy(payload="y" * 500)
        assert clone.wire_size() == first + 400


class TestPolicyEngineBatching:
    def engine(self) -> PolicyEngine:
        engine = PolicyEngine(default_action="block")
        engine.add_control_file(
            "00-policy",
            "block all\npass from any to any port 80 with eq(@src[name], web)",
        )
        return engine

    def test_decide_batch_matches_decide(self):
        engine = self.engine()
        items = [
            (FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1000 + i, 80 if i % 2 else 443),
             doc({"name": "web"}), None)
            for i in range(10)
        ]
        assert engine.decide_batch(items) == [engine.decide(*item) for item in items]
        assert engine.stats()["evaluations"] == 20.0

    def test_pubkeys_refresh_only_on_epoch_change(self):
        engine = self.engine()
        flow = FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 80)
        engine.decide(flow, doc({"name": "web"}), None)
        built = engine.evaluator.dicts["pubkeys"]
        for _ in range(4):
            engine.decide(flow, doc({"name": "web"}), None)
        assert engine.evaluator.dicts["pubkeys"] is built
        engine.delegations.grant("research", Signer("research").public_key)
        engine.decide(flow, None, None)
        granted = engine.evaluator.dicts["pubkeys"]
        assert granted is not built and "research" in granted
        engine.delegations.revoke("research")
        engine.decide(flow, None, None)
        revoked = engine.evaluator.dicts["pubkeys"]
        assert revoked is not granted and "research" not in revoked

    def test_ruleset_change_invalidates_pubkeys_cache(self):
        engine = self.engine()
        flow = FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 80)
        engine.decide(flow, None, None)
        engine.add_control_file("10-extra", "pass from any to any port 22")
        assert "pubkeys" not in engine.evaluator.dicts
        engine.decide(flow, None, None)
        assert "pubkeys" in engine.evaluator.dicts


class TestGeneratorBatches:
    def generator(self):

        templates = [
            FlowTemplate(
                src_host=f"h{i}",
                dst_host="server",
                src_ip=f"10.0.0.{i + 1}",
                dst_ip="10.1.0.1",
                dst_port=80,
                app_name="web",
                user_name="alice",
            )
            for i in range(4)
        ]
        return FlowGenerator(templates, seed=3)

    def test_draw_batch_matches_sequence_semantics(self):
        drawn = self.generator().draw_batch(10)
        assert len(drawn) == 10
        assert all(flow.dst_port == 80 for _, flow in drawn)

    def test_ports_wrap_to_the_ephemeral_base(self):
        generator = self.generator()
        generator._next_port = 64990
        ports = [flow.src_port for _, flow in generator.draw_batch(30)]
        assert ports == [*range(64991, 65000), *range(EPHEMERAL_BASE, EPHEMERAL_BASE + 21)]


class TestPoisonedBurst:
    def test_bad_flow_does_not_poison_the_burst(self):
        """Three punts decided on one instant, the middle one raising.

        The erroring flow fails *closed* (audited drop, nothing left
        pending or buffered), its neighbours pass, and each flow is
        evaluated exactly once.
        """
        from repro.core.network import HostSpec, IdentPPNetwork

        net = IdentPPNetwork("poisoned-burst", policy_default_action="block")
        switch = net.add_switch("sw")
        net.add_host(
            HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
            switch=switch,
        )
        net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=switch)
        net.set_policy({
            "00.control": (
                "block all\n"
                "pass from any to any port 80\n"
                "pass from any to any port 81 with bogus(@src[name])\n"
            ),
        })
        client = net.host("client")
        for port in (80, 81, 80):
            client.open_flow("http", "alice", "192.168.1.1", port)
        net.run()
        controller = net.controller
        records = controller.audit.records()
        assert len({record.time for record in records}) == 1
        assert [(r.flow.dst_port, r.action, r.rule_origin) for r in records] == [
            (80, "pass", "00.control"),
            (81, "block", "error"),
            (80, "pass", "00.control"),
        ]
        assert controller.inflight_count() == 0 and switch.buffered_count() == 0
        assert controller.policy_errors == 1
        assert controller.policy.stats()["evaluations"] == 3.0
        assert len(net.host("server").delivered) == 2


def calls_per_forwarded_packet(*, connections=16, clients=4, waves=4) -> float:
    """Python-level calls inside ``repro`` per packet of an established session.

    Sessions from ``clients`` hosts cross edge and core switch to one
    server, every flow entry installed and every exact-match cache warm
    (one untimed wave); ``tools.counts.count`` then counts the calls of
    ``repro``'s own functions over ``waves`` waves, each one packet per
    session and a run of the simulator, the ``fastpath_forward`` shape.
    The count is the same on every host.
    """
    forever = 3600.0
    config = ControllerConfig(idle_timeout=forever, hard_timeout=0.0, decision_ttl=forever)
    net = IdentPPNetwork("hit-calls", controller_config=config, policy_default_action="block")
    edge, core = net.add_switch("sw-edge"), net.add_switch("sw-core")
    net.connect(edge, core)
    hosts = [
        net.add_host(
            HostSpec(name=f"client{index}", ip=f"10.0.0.{index + 1}", users={"alice": ("users",)}),
            switch=edge,
        )
        for index in range(clients)
    ]
    server = net.add_host(HostSpec(name="server", ip="10.1.0.1"), switch=core)
    server.run_server("httpd", "root", 80)
    net.set_policy({"00.control": "block all\npass from any to any port 80\n"})
    sessions = []
    for index in range(connections):
        host = hosts[index % clients]
        _, socket, _ = host.open_flow("http", "alice", "10.1.0.1", 80)
        sessions.append((host, socket))
    net.run(duration=0.05)

    def wave() -> None:
        for host, socket in sessions:
            host.send_on_socket(socket, payload_size=64)
        net.run(duration=1e-3)

    wave()
    delivered = len(server.delivered)
    calls = count(lambda: [wave() for _ in range(waves)]).calls
    packets = connections * waves
    assert len(server.delivered) - delivered == packets
    assert sum(switch.punts.value for switch in net.switches.values()) == connections
    return calls / packets


class TestHitPathCalls:
    #: 43.6 while every hit entered lazy expiry and went through
    #: _apply_actions, Port.send and Link.transmit, and every packet ran
    #: two default-factory lambdas and built a metadata dict; 25.6 while
    #: the simulator's clock was a property; 22.5 since.
    CEILING = 23

    def test_a_forwarded_packet_makes_at_most_23_calls(self):
        assert calls_per_forwarded_packet() <= self.CEILING

    def test_the_count_repeats_exactly(self):
        assert calls_per_forwarded_packet(waves=2) == calls_per_forwarded_packet(waves=2)


def calls_per_punt(*, flows=40, clients=4, waves=4) -> float:
    """Python-level calls inside ``repro`` per punted flow, the ``punt_unique`` shape.

    Clients on an edge switch open fresh web flows to a server behind a
    core switch: async decision core, serialized policy eval,
    non-blocking inbox, pull identity plane with ``query_cache_ttl=0``
    (every punt queries both daemons), 50 vms flow entries under the
    sweeper, and each wave's sockets reaped two waves later.  Two
    untimed waves warm the caches; ``tools.counts.count`` then counts
    the calls of ``repro``'s own functions over ``waves`` waves, each
    ``flows`` punts (every 10th to a blocked port) and a run of the
    simulator over its 100 vms slot.  The count is the same on every
    host.
    """
    config = ControllerConfig(
        decision_core="async",
        serialize_decisions=True,
        nonblocking_inbox=True,
        policy_eval_delay=20e-6,
        idle_timeout=0.05,
        hard_timeout=0.05,
        lifecycle_interval=0.05,
        decision_ttl=1.0,
        query_cache_ttl=0.0,
        identity_plane="pull",
    )
    net = IdentPPNetwork("punt-calls", controller_config=config, policy_default_action="block")
    edge, core = net.add_switch("sw-edge"), net.add_switch("sw-core")
    net.connect(edge, core)
    hosts = [
        net.add_host(
            HostSpec(name=f"client{index}", ip=f"10.0.0.{index + 1}", users={"alice": ("users",)}),
            switch=edge,
        )
        for index in range(clients)
    ]
    server = net.add_host(HostSpec(name="server", ip="10.1.0.1"), switch=core)
    server.run_server("httpd", "root", 80)
    net.set_policy({"00.control": "block all\npass from any to any port 80\n"})
    for daemon in net.daemons.values():
        daemon.processing_delay = 500e-6
    sim = net.topology.sim

    def reap(spawned) -> None:
        for host, socket, process in spawned:
            host.sockets.close(socket)
            host.processes.kill(process.pid)

    def wave() -> None:
        spawned = []
        for index in range(flows):
            host = hosts[index % clients]
            port = 23 if index % 10 == 9 else 80
            _, socket, process = host.open_flow("http", "alice", "10.1.0.1", port)
            spawned.append((host, socket, process))
        sim.schedule(0.2, reap, spawned, label="test:reap")
        net.run(duration=0.1)

    def punts() -> int:
        return sum(switch.punts.value for switch in net.switches.values())

    wave()
    wave()
    before = punts()
    calls = count(lambda: [wave() for _ in range(waves)]).calls
    punted = punts() - before
    assert punted == flows * waves
    assert net.controller.inflight_count() == 0
    return calls / punted


class TestPuntCalls:
    #: 381 (394 on ``punt_unique`` itself) while a punt's two answers
    #: arrived as two events joined by Future.gather, the clock was a
    #: property, counters were bumped through increment(), every control
    #: message ran a lambda for its id, every send re-resolved its
    #: simulator and channel, and addresses were compared and parsed
    #: through Python methods; 271.1 while every answer built its
    #: document section by section, every query resolved its host and
    #: round trip, every decision derived its verdict's text, origin and
    #: delegation from the rule, and every install normalised its match
    #: and entry again; 185.35 since.
    CEILING = 186

    def test_a_punt_makes_at_most_186_calls(self):
        assert calls_per_punt() <= self.CEILING

    def test_the_count_repeats_exactly(self):
        assert calls_per_punt(waves=2) == calls_per_punt(waves=2)
