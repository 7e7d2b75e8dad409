"""A flow-table hit in one step does what the hop through ``_apply_actions`` did.

A switch hands the packet of a hit whose actions are exactly one
``OutputAction`` straight to the out-port's link, enters lazy expiry
only when the table's earliest deadline is due, and a host compares
addresses as ints.  ``tests/reference_delivery.py`` holds the hop as it
ran before: expiry entered on every packet, every hit through
``_apply_actions``, ``Port.send`` and ``Link.transmit``.  The property
here is that nothing recorded tells the two apart:

* hypothesis builds two small worlds — two switches, three hosts, an
  un-wired port — with the same generated flow tables (single-output,
  multi-output, flood, drop, empty and controller action lists; unknown
  out-ports; idle and hard timeouts) and drives them in lockstep with
  the same generated traffic, links going down, loss filters, a capture
  started and stopped mid-run, failed and compromised switches, late
  installs and sweeps.  After every step both worlds have delivered the
  same packets at the same instants, sent the controller the same
  messages (``FlowRemoved`` included) in the same order, captured the
  same records, counted the same bytes on every link and raised the
  same errors;
* a whole fabric run both ways fires the same event stream: the same
  sanitizer trace hash, audit and deliveries.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.exceptions import ReproError
from repro.hosts.endhost import EndHost
from repro.netsim.events import Simulator
from repro.netsim.links import Link
from repro.netsim.packet import Packet
from repro.netsim.trace import PacketTrace
from repro.openflow.actions import (
    ControllerAction,
    DropAction,
    FloodAction,
    OutputAction,
)
from repro.openflow.channel import ControllerChannel
from repro.openflow.flow_table import FlowEntry
from repro.openflow.match import Match
from repro.openflow.messages import FlowRemoved, PacketIn
from repro.openflow.switch import OpenFlowSwitch
from tests.reference_delivery import use_reference_hit_path
from tests.test_shared_delivery import audit_lines
from tests.test_fabric_pathwide import fabric_network

# ----------------------------------------------------------------------
# A small world: h1, h3 -- s1 -- s2 -- h2, each switch with an un-wired port
# ----------------------------------------------------------------------

HOST_IPS = {"h1": "10.0.0.1", "h2": "10.0.0.2", "h3": "10.0.0.3"}
#: Two hosts' addresses, one nobody holds: a flood copy reaches hosts it
#: is not addressed to.
DESTINATIONS = ("10.0.0.2", "10.0.0.3", "10.0.0.1", "10.9.9.9")
TP_DSTS = (80, 81)
#: Out-ports: wired (1-3 on s1, 1-2 on s2), un-wired (4 on s1, 3 on s2)
#: and unknown (4 on s2, 9).  The single outputs come first.
ACTION_LISTS = (
    (OutputAction(1),), (OutputAction(2),), (OutputAction(3),), (OutputAction(4),),
    (OutputAction(9),), (OutputAction(1), OutputAction(2)), (OutputAction(2), OutputAction(9)),
    (FloodAction(),), (DropAction(),), (), (ControllerAction(),),
    (OutputAction(2), ControllerAction()),
)
SINGLE_OUTPUTS = 5
#: ``(tp_dst, priority, action list, idle, hard, cookie)`` per switch,
#: installed first in every world: port 80 runs h1 -> h2, port 81 turns
#: back at s2 towards h3.  A generated entry outranks them.
BASE_TABLES = (
    [(80, 5, 1, 0.0, 0.0, "base"), (81, 5, 2, 0.0, 0.0, "base")],
    [(80, 5, 1, 0.0, 0.0, "base"), (81, 5, 0, 0.0, 0.0, "base")],
)


class Recorder:
    """The controller end of both channels: logs every message it is sent."""

    name = "recorder"

    def __init__(self, world):
        self.world = world

    def handle_message(self, message):
        world = self.world
        if isinstance(message, FlowRemoved):
            entry = ("removed", message.switch.name, message.cookie, message.reason,
                     str(message.match))
        elif isinstance(message, PacketIn):
            entry = ("packet_in", message.switch.name, message.in_port, message.reason,
                     identity(message.packet))
        else:
            entry = (type(message).__name__,)
        world.log.append((world.sim.now,) + entry)


def identity(packet):
    """What tells one packet from another across the two worlds (ids differ)."""
    return (str(packet.ip_src), str(packet.ip_dst), packet.tp_src, packet.tp_dst,
            packet.payload_size, packet.payload)


class World:
    """Two switches, three hosts, the recorder, and everything they log."""

    def __init__(self, config):
        self.sim = Simulator()
        self.log = []
        self.errors = []
        self.trace = PacketTrace(enabled=False)
        self.switches = [
            OpenFlowSwitch(name, trace=self.trace) for name in ("s1", "s2")
        ]
        self.hosts = {name: EndHost(name, ip) for name, ip in HOST_IPS.items()}
        for node in (*self.switches, *self.hosts.values()):
            node.attach(self.sim)
        s1, s2 = self.switches
        self.links = [
            # Ports number in creation order: s1 gets 1-4, s2 gets 1-3.
            Link(self.hosts["h1"].add_port(), s1.add_port(), latency=config["latency"]),
            # Never zero: a generated forwarding loop between the two
            # switches must move the clock.
            Link(s1.add_port(), s2.add_port(), latency=5e-4, bandwidth=config["bandwidth"]),
            Link(self.hosts["h3"].add_port(), s1.add_port(), latency=0.0),
            Link(s2.add_port(), self.hosts["h2"].add_port(), latency=config["latency"]),
        ]
        s1.add_port()
        s2.add_port()
        recorder = Recorder(self)
        for switch in self.switches:
            channel = ControllerChannel(switch, recorder)
            channel.latency = 1e-4  # the timings the scenarios were built for
            switch.set_channel(channel)
        self._sent = itertools.count()

    def install(self, switch, spec):
        tp_dst, priority, actions, idle, hard, cookie = spec
        match = Match() if tp_dst is None else Match(tp_dst=tp_dst)
        entry = FlowEntry(
            match=match, actions=ACTION_LISTS[actions], priority=priority,
            idle_timeout=idle, hard_timeout=hard, cookie=cookie,
        )
        self.switches[switch].flow_table.install(entry, now=self.sim.now)

    def send(self, host, destination, tp_src, tp_dst, size):
        # Few source ports, so repeat headers hit the exact-match cache;
        # the payload numbers the packet.
        packet = Packet.tcp(
            HOST_IPS[host], destination, tp_src, tp_dst,
            payload=str(next(self._sent)), payload_size=size,
        )
        self.hosts[host].transmit(packet)

    def capture(self, on):
        self.trace.enabled = on

    def perform(self, action):
        kind, *args = action
        if kind == "send":
            delay, *send = args
            if delay:
                self.sim.schedule(delay, self.send, *send)
            else:
                self.send(*send)
        elif kind == "install":
            self.install(*args)
        elif kind == "run":
            self.sim.run(until=self.sim.now + args[0])
        elif kind == "capture":
            # Scheduled, so a capture starts or stops between deliveries.
            on, delay = args
            self.sim.schedule(delay, self.capture, on)
        elif kind == "link":
            index, up = args
            self.links[index].up = up
        elif kind == "loss":
            index, on = args
            self.links[index].loss_filter = (lambda packet: packet.tp_src % 2 == 0) if on else None
        elif kind == "fail":
            switch, on = self.switches[args[0]], args[1]
            switch.fail() if on else switch.recover()
        elif kind == "compromise":
            switch, on = self.switches[args[0]], args[1]
            switch.mark_compromised() if on else switch.restore()
        elif kind == "sweep":
            self.switches[args[0]].sweep_expired(self.sim.now)

    def step(self, action):
        try:
            self.perform(action)
        except ReproError as error:
            self.errors.append((self.sim.now, type(error).__name__, str(error)))

    def observed(self):
        """Everything either hop path could record."""
        return {
            "now": self.sim.now,
            "log": list(self.log),
            "errors": list(self.errors),
            "delivered": {
                name: [(time, identity(packet))
                       for time, packet in zip(host.delivered_times, host.delivered)]
                for name, host in self.hosts.items()
            },
            "capture": [
                (r.time, r.where, r.event, identity(r.packet), r.note) for r in self.trace
            ],
            "carried_bytes": [link.carried_bytes for link in self.links],
            "tables": [
                (switch.flow_table.stats(), switch.punts.value, switch.buffered_count())
                for switch in self.switches
            ],
        }


ENTRIES = st.tuples(
    st.sampled_from((*TP_DSTS, None)),
    st.sampled_from((10, 20)),
    st.one_of(st.integers(0, SINGLE_OUTPUTS - 1), st.integers(0, len(ACTION_LISTS) - 1)),
    st.sampled_from((0.0, 0.0, 2e-3, 5e-3)),
    st.sampled_from((0.0, 0.0, 4e-3)),
    st.sampled_from(("", "c1", "c2")),
)

CONFIGS = st.fixed_dictionaries({
    "latency": st.sampled_from((0.0, 5e-4)),
    "bandwidth": st.sampled_from((None, 1e7)),
})

SWITCH = st.integers(0, 1)
ACTIONS = st.one_of(
    st.tuples(
        st.just("send"), st.sampled_from((0.0, 0.0, 3e-4)),
        st.sampled_from(("h1", "h1", "h2", "h3")),
        st.sampled_from(DESTINATIONS), st.sampled_from((1000, 1001)),
        st.sampled_from(TP_DSTS), st.sampled_from((0, 1400)),
    ),
    st.tuples(st.just("run"), st.sampled_from((0.0, 1e-4, 1e-3, 2.5e-3))),
    st.tuples(st.just("install"), SWITCH, ENTRIES),
    st.tuples(st.just("capture"), st.booleans(), st.sampled_from((0.0, 5e-4))),
    st.tuples(st.just("link"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("loss"), st.integers(0, 3), st.booleans()),
    st.tuples(st.just("fail"), SWITCH, st.booleans()),
    st.tuples(st.just("compromise"), SWITCH, st.booleans()),
    st.tuples(st.just("sweep"), SWITCH),
)


def lockstep(config, tables, actions):
    """Run the one-step world and the reference world op by op; compare after each."""
    worlds = (World(config), World(config))
    one_step, reference = worlds
    for switch, specs in enumerate(tables):
        for spec in (*BASE_TABLES[switch], *specs):
            for world in worlds:
                world.install(switch, spec)
    for action in (*actions, ("run", 0.05)):
        one_step.step(action)
        with use_reference_hit_path():
            reference.step(action)
        assert one_step.observed() == reference.observed(), action
    return one_step


def sends(count, tp_dst=80, host="h1", destination="10.0.0.2"):
    """``count`` packets at one instant, source ports alternating 1000 / 1001."""
    return [("send", 0.0, host, destination, 1000 + n % 2, tp_dst, 0) for n in range(count)]


def delivered(observed, host="h2"):
    return [packet[2] for _, packet in observed["delivered"][host]]


#: name -> (generated tables, actions, a check that the branch was taken).
#: Each runs in lockstep like a generated case; the check makes sure
#: the case does what its name says.
SCENARIOS = {
    "single output": (
        ([], []), sends(3) + [("run", 2e-3)],
        lambda o, w: delivered(o) == [1000, 1001, 1000] and w.links[1].carried_bytes == 3 * 64,
    ),
    "loss filter on the out-link": (
        ([], []), [("loss", 1, True)] + sends(2) + [("run", 2e-3)],
        lambda o, w: delivered(o) == [1001] and w.links[1].carried_bytes == 64,
    ),
    "out-link down": (
        ([], []), [("link", 1, False)] + sends(2) + [("run", 2e-3), ("link", 1, True)]
        + sends(1) + [("run", 2e-3)],
        lambda o, w: delivered(o) == [1000] and w.links[1].carried_bytes == 64,
    ),
    "un-wired out-port": (
        ([(80, 10, 3, 0.0, 0.0, "")], []), sends(2) + [("run", 2e-3)],
        lambda o, w: delivered(o) == [] and o["errors"] == [],
    ),
    "unknown out-port": (
        ([], [(80, 10, 3, 0.0, 0.0, "")]), sends(1) + [("run", 2e-3)],
        lambda o, w: [error[1] for error in o["errors"]] == ["PortError"],
    ),
    "multi-output, flood, empty and controller lists": (
        ([(80, 10, 5, 0.0, 0.0, ""), (81, 10, 7, 0.0, 0.0, "")],
         [(80, 10, 11, 0.0, 0.0, ""), (81, 10, 9, 0.0, 0.0, "")]),
        sends(2) + sends(2, tp_dst=81) + [("run", 2e-3)],
        lambda o, w: [entry[1] for entry in o["log"]] == ["packet_in", "packet_in"]
        and w.links[2].carried_bytes == 2 * 64,
    ),
    "capture started and stopped mid-run": (
        ([], []),
        # 1000 is at s1 at 0.5 ms and at s2 at 1 ms, 1001 at 1.5 and 2 ms.
        [("capture", True, 7e-4), ("capture", False, 1.8e-3), ("send", 0.0, "h1", "10.0.0.2",
         1000, 80, 0), ("send", 1e-3, "h1", "10.0.0.2", 1001, 80, 0),
         ("run", 3e-3)],
        lambda o, w: [(r[1], r[2], r[3][2]) for r in o["capture"]] == [
            ("s2", "hit", 1000), ("s2", "forward", 1000),
            ("s1", "hit", 1001), ("s1", "forward", 1001),
        ],
    ),
    "failed switch": (
        ([], []), [("capture", True, 0.0), ("fail", 1, True)] + sends(1)
        + [("run", 2e-3), ("fail", 1, False)] + sends(1) + [("run", 2e-3)],
        lambda o, w: delivered(o) == [1000]
        and ("s2", "drop", "switch failed") in [(r[1], r[2], r[4]) for r in o["capture"]],
    ),
    "compromised switch": (
        ([], []), [("compromise", 0, True)] + sends(1) + [("run", 2e-3)],
        lambda o, w: delivered(o) == [1000] and w.links[2].carried_bytes == 64
        and delivered(o, "h3") == [],
    ),
    "entries expiring just before a packet": (
        # c1 idles out at 2.5 ms and goes at the next packet, 2.8 ms; c2 is
        # hard-timed out at 3.4 ms and goes at the next, 3.8 ms.
        ([(80, 10, 1, 2e-3, 0.0, "c1"), (81, 10, 2, 0.0, 3.4e-3, "c2")], []),
        sends(1) + [("run", 2.3e-3)] + sends(1) + [("run", 1e-3)]
        + sends(1, tp_dst=81) + [("run", 1e-3)],
        lambda o, w: [entry[1:4] for entry in o["log"]] == [
            ("removed", "s1", "c1"), ("removed", "s1", "c2")
        ] and [entry[0] for entry in o["log"]] == pytest.approx([2.9e-3, 3.9e-3], abs=1e-5)
        and delivered(o) == [1000, 1000],
    ),
    "entries expiring together": (
        # c1 idles out at 3.5 ms, c2 is hard-timed out at 3.4 ms; both go
        # on the first packet after, at 4 ms, in installation order.
        ([(80, 10, 1, 2e-3, 0.0, "c1"), (81, 10, 2, 0.0, 3.4e-3, "c2")], []),
        sends(1) + sends(1, tp_dst=81) + [("run", 1e-3)] + sends(1) + [("run", 2.5e-3)]
        + sends(1) + sends(1, tp_dst=81) + [("run", 1e-3), ("sweep", 0)],
        lambda o, w: [entry[1:4] for entry in o["log"]] == [
            ("removed", "s1", "c1"), ("removed", "s1", "c2")
        ] and delivered(o) == [1000, 1000, 1000],
    ),
}


class TestDifferential:
    @settings(max_examples=120, deadline=None)
    @given(
        CONFIGS,
        st.tuples(st.lists(ENTRIES, max_size=5), st.lists(ENTRIES, max_size=5)),
        st.lists(ACTIONS, max_size=30),
    )
    def test_every_delivery_message_record_and_byte_is_the_same(self, config, tables, actions):
        lockstep(config, tables, actions)

    @pytest.mark.parametrize("name", sorted(SCENARIOS))
    def test_each_branch_alike_and_reached(self, name):
        tables, actions, reached = SCENARIOS[name]
        one_step = lockstep({"latency": 5e-4, "bandwidth": None}, tables, actions)
        assert reached(one_step.observed(), one_step)


# ----------------------------------------------------------------------
# A whole network
# ----------------------------------------------------------------------


def fabric_run():
    """An established session's trains across the 2-spine / 4-leaf fabric, sanitized."""
    net, _ = fabric_network()
    sanitizer = net.topology.sim.enable_sanitizer()
    client, server = net.host("client0"), net.host("server")
    _, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
    net.run(duration=1.0)
    for _ in range(3):
        for index in range(4):
            client.send_on_socket(socket, payload_size=64 if index % 2 else 512)
        net.run(duration=0.1)
    net.run()
    audit = audit_lines(
        record for controller in net.controllers.values() for record in controller.audit.records()
    )
    delivered = [(packet.tp_src, packet.wire_size()) for packet in server.delivered]
    return (
        sanitizer.trace_hash, audit, delivered, list(server.delivered_times),
        net.topology.sim.events_processed,
        sorted((link.name, link.carried_bytes) for link in net.topology.links()),
    )


class TestWholeNetwork:
    def test_a_fabric_fires_the_same_event_stream(self):
        one_step = fabric_run()
        with use_reference_hit_path():
            reference = fabric_run()
        assert one_step == reference
