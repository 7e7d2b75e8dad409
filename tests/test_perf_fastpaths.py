"""Tests for the controller/datapath fast paths added with the compiler.

Covers the decision-cache reverse/cookie indexes, the flow-table
exact-match cache, Packet.wire_size caching, the policy engine's
@pubkeys epoch caching, the flow generator's port allocator, a burst
of same-instant punts with one mis-evaluating flow, and the counts of
Python-level calls and opcodes a forwarded packet and a punted flow
run, in total and per layer (``perf/tracing.py``'s module -> layer
rule), the opcodes per interpreter, and the count itself: the code
``dataclasses`` writes is counted under its class's module.
"""

import re
import sys
from pathlib import Path

import pytest

from perf.tracing import _layer_of_module
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
from repro.openflow.messages import FlowMod
from repro.workloads.generators import EPHEMERAL_BASE, FlowGenerator, FlowTemplate
from tests.reference_flow_table import make_entry
from tools.counts import Counts, count

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


def by_layer(counts: Counts, per: int, *, opcodes: bool = False) -> dict[str, float]:
    """Return ``counts``' calls (or opcodes) per ``per`` by layer, each
    module in its ``perf/tracing.py`` layer; a layer with none is absent."""
    layers: dict[str, int] = {}
    for module, tally in counts.by_module.items():
        layer = _layer_of_module(module)
        layers[layer] = layers.get(layer, 0) + tally[opcodes]
    return {layer: total / per for layer, total in sorted(layers.items()) if total}


def pin_for_this_interpreter(pins: dict[tuple[int, int], object]):
    """Return the pin of the running CPython minor version.

    Opcode counts differ by interpreter, so each has its own row; one
    with no row skips (``TestPinTables`` holds a row for every
    interpreter CI runs).
    """
    version = sys.version_info[:2]
    if version not in pins:
        pytest.skip(f"no opcode pin for Python {version[0]}.{version[1]}")
    return pins[version]


def moved_layers(layers: dict[str, float], pins: dict[str, float]) -> dict[str, tuple]:
    """Return ``{layer: (pinned, measured)}`` for each layer whose count
    differs from its pin, up or down (a layer absent on one side: 0)."""
    return {
        layer: (pins.get(layer, 0), layers.get(layer, 0))
        for layer in sorted(set(layers) | set(pins))
        if layers.get(layer, 0) != pins.get(layer, 0)
    }


def assert_layers_pinned(layers: dict[str, float], pins: dict[str, float], what: str) -> None:
    """Fail on every layer that moved either way, naming it and both values."""
    moved = moved_layers(layers, pins)
    assert moved == {}, f"layer: (pinned, measured) {what}: {moved}"


def calls_per_forwarded_packet(**sizes) -> float:
    """Python-level calls inside ``repro`` per packet of an established session."""
    counts, packets = forwarded_packet_counts(**sizes)
    return counts.calls / packets


def forwarded_packet_counts(*, connections=16, clients=4, waves=4) -> tuple[Counts, int]:
    """What ``repro`` runs for the packets of established sessions, and how many.

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
    counts = count(lambda: [wave() for _ in range(waves)])
    packets = connections * waves
    assert len(server.delivered) - delivered == packets
    assert sum(switch.punts.value for switch in net.switches.values()) == connections
    return counts, packets


class TestHitPathCalls:
    #: 43.6 while every hit entered lazy expiry and went through
    #: _apply_actions, Port.send and Link.transmit, and every packet ran
    #: two default-factory lambdas and built a metadata dict; 25.6 while
    #: the simulator's clock was a property; 22.5 while each event was an
    #: Event object built by its own __init__ and wrapped in a heap tuple;
    #: 21.375 while the count missed the ``__init__`` that ``dataclasses``
    #: writes (22.375 counted whole); 22.375 while the switch and the
    #: host each asked ``Packet.is_ip()`` (a frame) what the packet
    #: now works out once when it is built.
    CALLS = 20.375
    #: Each layer's exact calls per forwarded packet (layers as
    #: perf/tracing.py groups modules): a change that moves a layer's
    #: calls, up or down, re-pins its row here.
    LAYER_CALLS = {
        "core.controller": 0.0625,
        "hosts": 4.0,
        "netsim.events": 4.25,
        "netsim.links": 5.0625,
        "netsim.packet": 3.0,
        "openflow.flow_table": 2.0,
        "openflow.switch": 2.0,
    }
    #: The exact opcodes per forwarded packet, whole and by layer, by
    #: interpreter (1083.125 on 3.11, the event loop 246.6875 of them,
    #: before the cut above).
    OPCODES = {(3, 10): 1077.9375, (3, 11): 1041.5625, (3, 12): 1006.0625}
    LAYER_OPCODES = {
        (3, 10): {
            "core.controller": 1.0,
            "hosts": 84.0,
            "netsim.events": 226.5,
            "netsim.links": 117.4375,
            "netsim.packet": 200.0,
            "openflow.flow_table": 136.0,
            "openflow.switch": 313.0,
        },
        (3, 11): {
            "core.controller": 0.9375,
            "hosts": 88.0,
            "netsim.events": 224.125,
            "netsim.links": 113.5,
            "netsim.packet": 198.0,
            "openflow.flow_table": 132.0,
            "openflow.switch": 285.0,
        },
        (3, 12): {
            "core.controller": 0.875,
            "hosts": 79.0,
            "netsim.events": 215.75,
            "netsim.links": 103.4375,
            "netsim.packet": 194.0,
            "openflow.flow_table": 130.0,
            "openflow.switch": 283.0,
        },
    }

    def test_a_forwarded_packet_makes_exactly_its_pinned_calls(self):
        assert calls_per_forwarded_packet() == self.CALLS

    def test_a_forwarded_packet_runs_exactly_its_pinned_opcodes(self):
        counts, packets = forwarded_packet_counts()
        assert counts.opcodes / packets == pin_for_this_interpreter(self.OPCODES)

    def test_every_layer_makes_exactly_its_pinned_calls_per_packet(self):
        layers = by_layer(*forwarded_packet_counts())
        assert_layers_pinned(layers, self.LAYER_CALLS, "calls per packet")

    def test_every_layer_runs_exactly_its_pinned_opcodes_per_packet(self):
        pins = pin_for_this_interpreter(self.LAYER_OPCODES)
        layers = by_layer(*forwarded_packet_counts(), opcodes=True)
        assert_layers_pinned(layers, pins, "opcodes per packet")

    def test_the_count_repeats_exactly(self):
        assert calls_per_forwarded_packet(waves=2) == calls_per_forwarded_packet(waves=2)


def calls_per_punt(**options) -> float:
    """Python-level calls inside ``repro`` per punted flow, the ``punt_unique`` shape."""
    counts, punted = punt_counts(**options)
    return counts.calls / punted


def punt_counts(
    *, flows=40, clients=4, waves=4, query_cache_ttl=0.0, identity_plane="pull"
) -> tuple[Counts, int]:
    """What ``repro`` runs for punted flows in the ``punt_unique`` shape, and how many.

    Clients on an edge switch open fresh web flows to a server behind a
    core switch: async decision core, serialized policy eval,
    non-blocking inbox, by default the pull identity plane with
    ``query_cache_ttl=0`` (every punt queries both daemons; the other
    planes are ``query_cache_ttl`` / ``identity_plane``), 50 vms flow
    entries under the sweeper, and each wave's sockets reaped two waves
    later.  Two untimed waves warm the caches; ``tools.counts.count``
    then counts the calls of ``repro``'s own functions over ``waves``
    waves, each ``flows`` punts (every 10th to a blocked port) and a run
    of the simulator over its 100 vms slot.  The count is the same on
    every host.
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
        query_cache_ttl=query_cache_ttl,
        identity_plane=identity_plane,
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
    counts = count(lambda: [wave() for _ in range(waves)])
    punted = punts() - before
    assert punted == flows * waves
    assert net.controller.inflight_count() == 0
    return counts, punted


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
    #: and entry again; 185.35 while three staleness checks per punt
    #: looked the task up in the pending table again (a FlowSpec hash
    #: each); 179.35 while the serialized stage was a helper object
    #: whose holds(), evaluate() and completion callback ran on every
    #: punt, and the decision read its documents through a method;
    #: 175.35 while every pull punt also called the engine's push
    #: promotion tally, which returned at once; 174.35 while each event
    #: was an Event object built by its own __init__ and wrapped in a
    #: heap tuple; 167.525 while the count missed the code ``dataclasses``
    #: writes (189.225 counted whole: FlowMod 2.8 calls, QueryOutcome
    #: 2.0, FlowEntry 1.9, IdentQuery 2.0, and Packet, FlowSpec, Verdict,
    #: PacketIn, DecisionTask and more once each); 189.225 while every
    #: flow key hashed through a Python ``__hash__`` and a flow was built
    #: by a generated ``__init__`` and a ``__post_init__`` (8 calls),
    #: ``is_ip()`` ran per reading (4.8), the deadline heaps popped
    #: through a generator and counted through ``__len__`` (4.8), an
    #: endpoint that matches anything was still asked (2.9), a flow mod
    #: took a second frame on the switch (2.8), ``RepeatingEvent.scheduled``
    #: was a property (2.0), the decision cache swept and unwound with
    #: nothing to do (2.0) and an application was looked up through
    #: ``by_path`` and ``by_name`` (2.0); 159.875 while every removal
    #: notice took a second frame to find its installer's channel from
    #: the cookie (1.0; ``openflow.switch`` 11.7, 541.55 opcodes on 3.11).
    CALLS = 158.875
    #: Each layer's exact calls per punt: a change that moves a layer's
    #: calls, up or down, re-pins its row here.
    LAYER_CALLS = {
        "core.cache": 3.0,
        "core.controller": 29.7,
        "core.lifecycle": 2.0,
        "core.policy_engine": 2.0,
        "hosts": 19.9,
        "identpp.client": 7.0,
        "identpp.daemon": 5.75,
        "identpp.engine": 1.0,
        "identpp.wire": 13.0,
        "netsim.events": 17.525,
        "netsim.links": 9.625,
        "netsim.packet": 4.0,
        "openflow.channel": 4.8,
        "openflow.flow_table": 21.075,
        "openflow.switch": 10.7,
        "pf.compiler": 3.8,
        "pf.evaluator": 4.0,
    }
    #: The exact opcodes per punt, whole and by layer, by interpreter
    #: (7071.65 on 3.11, counted whole, before the cut above; the event
    #: loop 1169.3 of them; 6549.38 before the removal notice's cut).
    OPCODES = {(3, 10): 6474.65625, (3, 11): 6532.38125, (3, 12): 6138.33125}
    LAYER_OPCODES = {
        (3, 10): {
            "core.cache": 108.0,
            "core.controller": 1218.675,
            "core.lifecycle": 24.0,
            "core.policy_engine": 137.0,
            "hosts": 511.4,
            "identpp.client": 276.0,
            "identpp.daemon": 344.1,
            "identpp.engine": 58.0,
            "identpp.wire": 239.3,
            "netsim.events": 1005.05625,
            "netsim.links": 235.775,
            "netsim.packet": 211.0,
            "openflow.channel": 182.4,
            "openflow.flow_table": 1044.25,
            "openflow.switch": 543.2,
            "pf.compiler": 99.2,
            "pf.evaluator": 237.3,
        },
        (3, 11): {
            "core.cache": 111.0,
            "core.controller": 1263.225,
            "core.lifecycle": 20.0,
            "core.policy_engine": 137.0,
            "hosts": 546.25,
            "identpp.client": 272.0,
            "identpp.daemon": 338.0,
            "identpp.engine": 62.0,
            "identpp.wire": 240.3,
            "netsim.events": 1009.43125,
            "netsim.links": 226.4,
            "netsim.packet": 212.0,
            "openflow.channel": 187.2,
            "openflow.flow_table": 1059.825,
            "openflow.switch": 524.55,
            "pf.compiler": 90.9,
            "pf.evaluator": 232.3,
        },
        (3, 12): {
            "core.cache": 102.0,
            "core.controller": 1161.575,
            "core.lifecycle": 18.0,
            "core.policy_engine": 134.0,
            "hosts": 498.7,
            "identpp.client": 258.0,
            "identpp.daemon": 320.45,
            "identpp.engine": 58.0,
            "identpp.wire": 225.3,
            "netsim.events": 967.65625,
            "netsim.links": 210.075,
            "netsim.packet": 205.0,
            "openflow.channel": 182.4,
            "openflow.flow_table": 992.075,
            "openflow.switch": 497.3,
            "pf.compiler": 84.3,
            "pf.evaluator": 223.5,
        },
    }

    #: The same punts with the query engine on: a 2 s answer TTL and
    #: the push plane, so the store, the promotion tally and resident
    #: hits run.
    ENGINE_ON = {"query_cache_ttl": 2.0, "identity_plane": "push"}
    #: 208.15 when first pinned, while the query engine was one module
    #: whose store insertions and removals read each entry's ``resident``
    #: property (2.5 calls) and both endpoint queries asked a
    #: ``_bypasses_cache`` helper (2.0); 203.8 since the answer store
    #: compares ``expires_at`` itself and the queries test the bypass
    #: inline (the store's ``drop`` and ``holds`` add 0.075 each on the
    #: delta path); 194.075 while the count missed the code
    #: ``dataclasses`` writes (215.85 counted whole); 215.85 before the
    #: first cut described under ``CALLS``, 186.5 before the second.
    ENGINE_ON_CALLS = 185.5
    ENGINE_ON_LAYER_CALLS = {
        "core.cache": 3.0,
        "core.controller": 29.7,
        "core.lifecycle": 2.0,
        "core.policy_engine": 2.0,
        "hosts": 17.9,
        "identpp.client": 7.0,
        "identpp.daemon": 3.925,
        "identpp.engine": 19.225,
        "identpp.wire": 12.15,
        "netsim.events": 26.525,
        "netsim.links": 13.7,
        "netsim.packet": 4.0,
        "openflow.channel": 4.8,
        "openflow.flow_table": 21.075,
        "openflow.switch": 10.7,
        "pf.compiler": 3.8,
        "pf.evaluator": 4.0,
    }
    #: 7593.775 on 3.11, counted whole, before the cut; 7074.51 before
    #: the removal notice's.
    ENGINE_ON_OPCODES = {(3, 10): 6979.58125, (3, 11): 7057.50625, (3, 12): 6614.50625}
    ENGINE_ON_LAYER_OPCODES = {
        (3, 10): {
            "core.cache": 108.0,
            "core.controller": 1231.675,
            "core.lifecycle": 24.0,
            "core.policy_engine": 137.0,
            "hosts": 432.7,
            "identpp.client": 200.0,
            "identpp.daemon": 191.925,
            "identpp.engine": 707.2,
            "identpp.wire": 225.075,
            "netsim.events": 1124.05625,
            "netsim.links": 280.6,
            "netsim.packet": 211.0,
            "openflow.channel": 182.4,
            "openflow.flow_table": 1044.25,
            "openflow.switch": 543.2,
            "pf.compiler": 99.2,
            "pf.evaluator": 237.3,
        },
        (3, 11): {
            "core.cache": 111.0,
            "core.controller": 1277.225,
            "core.lifecycle": 20.0,
            "core.policy_engine": 137.0,
            "hosts": 463.75,
            "identpp.client": 200.0,
            "identpp.daemon": 189.4,
            "identpp.engine": 721.475,
            "identpp.wire": 226.3,
            "netsim.events": 1135.43125,
            "netsim.links": 269.15,
            "netsim.packet": 212.0,
            "openflow.channel": 187.2,
            "openflow.flow_table": 1059.825,
            "openflow.switch": 524.55,
            "pf.compiler": 90.9,
            "pf.evaluator": 232.3,
        },
        (3, 12): {
            "core.cache": 102.0,
            "core.controller": 1174.575,
            "core.lifecycle": 18.0,
            "core.policy_engine": 134.0,
            "hosts": 420.0,
            "identpp.client": 188.0,
            "identpp.daemon": 179.0,
            "identpp.engine": 672.025,
            "identpp.wire": 211.925,
            "netsim.events": 1081.65625,
            "netsim.links": 248.75,
            "netsim.packet": 205.0,
            "openflow.channel": 182.4,
            "openflow.flow_table": 992.075,
            "openflow.switch": 497.3,
            "pf.compiler": 84.3,
            "pf.evaluator": 223.5,
        },
    }

    PLANES = pytest.mark.parametrize(
        "options, calls, layer_calls, opcodes, layer_opcodes",
        [
            ({}, CALLS, LAYER_CALLS, OPCODES, LAYER_OPCODES),
            (
                ENGINE_ON, ENGINE_ON_CALLS, ENGINE_ON_LAYER_CALLS,
                ENGINE_ON_OPCODES, ENGINE_ON_LAYER_OPCODES,
            ),
        ],
        ids=["engine-off", "engine-on"],
    )

    @PLANES
    def test_a_punt_makes_exactly_its_pinned_calls(
        self, options, calls, layer_calls, opcodes, layer_opcodes
    ):
        assert calls_per_punt(**options) == calls

    @PLANES
    def test_a_punt_runs_exactly_its_pinned_opcodes(
        self, options, calls, layer_calls, opcodes, layer_opcodes
    ):
        counts, punted = punt_counts(**options)
        assert counts.opcodes / punted == pin_for_this_interpreter(opcodes)

    @PLANES
    def test_every_layer_makes_exactly_its_pinned_calls_per_punt(
        self, options, calls, layer_calls, opcodes, layer_opcodes
    ):
        layers = by_layer(*punt_counts(**options))
        assert_layers_pinned(layers, layer_calls, "calls per punt")

    @PLANES
    def test_every_layer_runs_exactly_its_pinned_opcodes_per_punt(
        self, options, calls, layer_calls, opcodes, layer_opcodes
    ):
        pins = pin_for_this_interpreter(layer_opcodes)
        layers = by_layer(*punt_counts(**options), opcodes=True)
        assert_layers_pinned(layers, pins, "opcodes per punt")

    @PLANES
    def test_the_count_repeats_exactly(self, options, calls, layer_calls, opcodes, layer_opcodes):
        assert calls_per_punt(waves=2, **options) == calls_per_punt(waves=2, **options)


#: Every table above keyed by interpreter version.
PER_INTERPRETER = {
    f"{owner.__name__}.{name}": table
    for owner in (TestHitPathCalls, TestPuntCalls)
    for name, table in vars(owner).items()
    if name.isupper() and name.endswith("OPCODES")
}


class TestPinTables:
    def test_every_table_has_a_row_for_each_interpreter_ci_runs_and_3_11(self):
        workflow = (Path(__file__).parent.parent / ".github/workflows/ci.yml").read_text()
        listed = re.search(r"python-version: \[([^\]]*)\]", workflow).group(1)
        versions = {tuple(map(int, v.strip(' "').split("."))) for v in listed.split(",")}
        assert versions, listed
        for name, table in PER_INTERPRETER.items():
            missing = (versions | {(3, 11)}) - set(table)
            assert not missing, f"{name} has no row for {sorted(missing)}"

    def test_a_planted_drop_and_a_planted_rise_each_fail_naming_the_layer_and_both_values(self):
        pins = TestPuntCalls.LAYER_OPCODES[(3, 11)]
        pinned = pins["openflow.flow_table"]
        for planted in (pinned - 1, pinned + 0.025):
            measured = {**pins, "openflow.flow_table": planted}
            assert moved_layers(measured, pins) == {"openflow.flow_table": (pinned, planted)}
            with pytest.raises(AssertionError) as failure:
                assert_layers_pinned(measured, pins, "opcodes per punt")
            message = str(failure.value)
            assert "'openflow.flow_table': " f"({pinned!r}, {planted!r})" in message
        assert_layers_pinned(dict(pins), pins, "opcodes per punt")

    def test_a_layer_that_appears_or_vanishes_moves_from_or_to_zero(self):
        pins = {"hosts": 4.0}
        assert moved_layers({"hosts": 4.0, "cluster": 1.0}, pins) == {"cluster": (0, 1.0)}
        assert moved_layers({}, pins) == {"hosts": (4.0, 0)}


class TestWholeCount:
    def test_a_dataclass_init_is_counted_under_its_class_module(self):
        match = Match()
        counts = count(lambda: FlowMod(match))
        # FlowMod's __init__ is generated code (co_filename "<string>").
        assert counts.calls == 1
        assert set(counts.by_module) == {"repro.openflow.messages"}
        assert counts.by_module["repro.openflow.messages"] == (1, counts.opcodes)
