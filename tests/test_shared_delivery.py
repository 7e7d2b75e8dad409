"""Same-instant deliveries on one link or channel direction share an event.

``Simulator.deliver`` lets a delivery ride its lane's previous delivery
event when that event is still queued, due at the same instant, and the
newest event the simulator holds.  The reference in
``tests/reference_delivery.py`` schedules one event per delivery, as
links and channels did before; the property here is that nothing a
callback can observe tells the two apart:

* hypothesis drives a two-hop line of links (a forwarder in the middle,
  an echo at the far end, equal and unequal packet sizes, zero and
  non-zero latency and bandwidth) and a control channel (messages both
  ways, replies from inside callbacks), interleaved with unrelated
  events at the same instants, sends from inside the loop, and
  ``step()`` / ``run(until=...)`` boundaries.
  The two worlds run in lockstep; whenever their clocks are brought
  together, every callback so far — what ran, where, at which instant,
  in which order — is the same;
* with ties reversed (``perturb_ties``) the same deliveries happen at the
  same instants, the deliveries that shared an event are served in the
  order they were sent — a link never reorders — and a run where nothing
  shared is the reference's exactly;
* whole networks run both ways decide, deliver and time every packet
  alike, on fewer events.
"""

from __future__ import annotations

import gc
import itertools
import weakref
from collections import Counter

from hypothesis import given, settings, strategies as st

from repro.identpp.flowspec import FlowSpec
from repro.netsim.events import Simulator
from repro.netsim.links import Link
from repro.netsim.nodes import Node
from repro.netsim.packet import Packet
from repro.openflow.channel import ControllerChannel
from repro.workloads.invariants import network_audit_records
from tests.reference_delivery import ReferenceChannel, ReferenceLink, use_reference_delivery
from tests.test_cluster_failover import build_network
from tests.test_fabric_pathwide import fabric_network


# ----------------------------------------------------------------------
# A small world: A -- B -- C, and a control channel S <-> K
# ----------------------------------------------------------------------


class Station(Node):
    """Logs every arrival; forwards between its two ports; echoes on request."""

    def __init__(self, name, world, *, forward=False):
        super().__init__(name)
        self.world = world
        self.forward = forward

    def receive(self, packet, in_port):
        self.world.note(self.name, in_port.number, packet.metadata)
        if self.forward:
            self.world.send(self, packet, 2 if in_port.number == 1 else 1)
        elif packet.metadata["echo"]:
            reply = Packet(payload_size=packet.payload_size, metadata={"n": packet.metadata["n"]})
            reply.metadata["echo"] = False
            self.world.send(self, reply, 1)


class Note:
    """A control message: a number, and whether the receiver answers it."""

    def __init__(self, n, echo):
        self.metadata = {"n": n, "echo": echo}


class Endpoint:
    """One end of the control channel: logs messages, answers some."""

    def __init__(self, name, world):
        self.name = name
        self.world = world
        self.sim = world.sim

    def handle_message(self, message):
        self.world.note(self.name, 0, message.metadata)
        if message.metadata["echo"]:
            self.world.message(self.name != "k", Note(message.metadata["n"], False))


class World:
    """One simulator, its stations and channel, and the log of every callback."""

    def __init__(self, config, *, reference, perturb):
        self.sim = Simulator(perturb_ties=perturb)
        self.log = []
        self._sent = itertools.count()
        link_cls = ReferenceLink if reference else Link
        self.a, self.b, self.c = (
            Station("a", self), Station("b", self, forward=True), Station("c", self)
        )
        for station in (self.a, self.b, self.c):
            station.attach(self.sim)
        link_cls(self.a.add_port(), self.b.add_port(),
                 latency=config["first_latency"], bandwidth=config["bandwidth"])
        link_cls(self.b.add_port(), self.c.add_port(),
                 latency=config["second_latency"], bandwidth=config["bandwidth"])
        channel_cls = ReferenceChannel if reference else ControllerChannel
        self.channel = channel_cls(Endpoint("s", self), Endpoint("k", self))
        # The channel's latency is a constant of the system; both worlds
        # also run at zero, where every message shares one instant.
        self.channel.latency = config["channel_latency"]

    def note(self, where, port, metadata):
        # ``events_processed`` is the same for every callback of one event.
        self.log.append((
            self.sim.now, self.sim.events_processed, where, port,
            metadata["n"], metadata.get("sent"),
        ))

    def send(self, station, packet, port):
        packet.metadata["sent"] = next(self._sent)
        station.port(port).send(packet)

    def message(self, upward, note):
        note.metadata["sent"] = next(self._sent)
        if upward:
            self.channel.send_to_controller(note)
        else:
            self.channel.send_to_switch(note)

    def perform(self, action):
        kind, n, arg, echo = action
        if kind == "send":
            packet = Packet(payload_size=arg, metadata={"n": n, "echo": echo})
            self.send(self.a if n % 2 else self.c, packet, 1)
        elif kind == "burst":
            for size in (arg, arg, 1400 - arg):
                self.perform(("send", n, size, echo))
        elif kind == "message":
            self.message(bool(n % 2), Note(n, echo))
        elif kind == "tick":
            self.sim.schedule(arg, self.note, "tick", 0, {"n": n})
        elif kind == "later":
            self.sim.schedule(arg, self.perform, (("burst", "message", "send")[n % 3], n, 0, echo))


DELAYS = (0.0, 1e-3, 2e-4)

CONFIGS = st.fixed_dictionaries({
    "first_latency": st.sampled_from((0.0, 1e-3)),
    "second_latency": st.sampled_from((0.0, 1e-3)),
    "bandwidth": st.sampled_from((None, 1e7)),
    "channel_latency": st.sampled_from((0.0, 2e-4)),
})

#: ``(kind, n, arg, echo)``: what to do to both worlds.  ``n`` numbers the
#: packet or message (its parity picks a sender or a direction).
ACTIONS = st.one_of(
    st.tuples(st.just("send"), st.integers(0, 9), st.sampled_from((0, 0, 1400)), st.booleans()),
    st.tuples(st.just("burst"), st.integers(0, 9), st.sampled_from((0, 1400)), st.booleans()),
    st.tuples(st.just("message"), st.integers(0, 9), st.just(0), st.booleans()),
    st.tuples(st.just("tick"), st.integers(0, 9), st.sampled_from(DELAYS), st.just(False)),
    st.tuples(st.just("later"), st.integers(0, 9), st.sampled_from(DELAYS), st.booleans()),
    st.tuples(st.just("step"), st.just(0), st.just(0), st.just(False)),
    st.tuples(st.just("run_events"), st.integers(1, 4), st.just(0), st.just(False)),
    st.tuples(st.just("run_until"), st.just(0), st.sampled_from(DELAYS), st.just(False)),
)


def lockstep(config, actions, *, perturb):
    """Run both worlds op by op; return their logs at every point their clocks meet."""
    shared = World(config, reference=False, perturb=perturb)
    oracle = World(config, reference=True, perturb=perturb)
    meetings = []

    def meet():
        # Serve both up to the later clock: everything at or before one
        # instant has run on both sides, however the events were cut.
        now = max(shared.sim.now, oracle.sim.now)
        for world in (shared, oracle):
            world.sim.run(until=now)
        assert shared.sim.now == oracle.sim.now == now
        meetings.append((list(shared.log), list(oracle.log)))

    for action in actions:
        kind = action[0]
        if kind == "step":
            shared.sim.step()
            oracle.sim.step()
            meet()
        elif kind == "run_events":
            for _ in range(action[1]):
                shared.sim.step()
                oracle.sim.step()
            meet()
        elif kind == "run_until":
            for world in (shared, oracle):
                world.sim.run(until=world.sim.now + action[2])
            meet()
        else:
            shared.perform(action)
            oracle.perform(action)
    for world in (shared, oracle):
        world.sim.run()
    meetings.append((shared.log, oracle.log))
    return shared, oracle, meetings


def without_stamps(log):
    return [(time, where, port, n, sent) for time, _, where, port, n, sent in log]


def shared_groups(log):
    """The entries of each event that carried more than one callback."""
    by_event = {}
    for entry in log:
        by_event.setdefault(entry[1], []).append(entry)
    return [group for group in by_event.values() if len(group) > 1]


class TestDifferential:
    @settings(max_examples=150, deadline=None)
    @given(CONFIGS, st.lists(ACTIONS, max_size=25))
    def test_every_callback_runs_where_when_and_in_the_order_it_did(self, config, actions):
        shared, oracle, meetings = lockstep(config, actions, perturb=False)
        for shared_log, oracle_log in meetings:
            assert without_stamps(shared_log) == without_stamps(oracle_log)
        assert shared.sim.events_processed <= oracle.sim.events_processed

    @settings(max_examples=150, deadline=None)
    @given(CONFIGS, st.lists(ACTIONS, max_size=25))
    def test_reversed_ties_keep_fifo_within_one_shared_event(self, config, actions):
        shared, oracle, meetings = lockstep(config, actions, perturb=True)
        for shared_log, oracle_log in meetings:
            # Which send went first at one instant is the tie-break's to
            # choose, so only what arrived where and when is compared.
            assert sorted(entry[:4] for entry in without_stamps(shared_log)) == sorted(
                entry[:4] for entry in without_stamps(oracle_log)
            )
        groups = shared_groups(shared.log)
        for group in groups:
            # One lane, one instant, served in the order sent.
            assert len({(time, where, port) for time, _, where, port, _, _ in group}) == 1
            sent = [entry[5] for entry in group]
            assert sent == sorted(sent)
        if not groups:
            assert without_stamps(shared.log) == without_stamps(oracle.log)


# ----------------------------------------------------------------------
# The rule, case by case
# ----------------------------------------------------------------------


def line(latency=1e-3, bandwidth=None, perturb=False):
    """The small world with B forwarding nothing: A -- B is a plain line."""
    world = World(
        {"first_latency": latency, "second_latency": latency,
         "bandwidth": bandwidth, "channel_latency": latency},
        reference=False, perturb=perturb,
    )
    world.b.forward = False
    return world


def train(world, count, size=0):
    for n in range(count):
        world.send(world.a, Packet(payload_size=size, metadata={"n": n, "echo": False}), 1)


class TestSharing:
    def test_a_train_sent_at_one_instant_is_one_event(self):
        world = line()
        train(world, 5)
        assert world.sim.pending() == 1
        world.sim.run()
        assert world.sim.events_processed == 1
        assert [entry[4] for entry in world.log] == [0, 1, 2, 3, 4]

    def test_unequal_sizes_arrive_apart_and_do_not_share(self):
        world = line(bandwidth=1e6)
        for n, size in enumerate((0, 1400, 0)):
            world.send(world.a, Packet(payload_size=size, metadata={"n": n, "echo": False}), 1)
        # The third is due with the first, but the second was scheduled between.
        assert world.sim.pending() == 3

    def test_an_event_scheduled_between_splits_the_train(self):
        world = line()
        train(world, 2)
        world.sim.schedule(1e-3, world.note, "tick", 0, {"n": 99})
        train(world, 2)
        assert world.sim.pending() == 3
        world.sim.run()
        assert [entry[4] for entry in world.log] == [0, 1, 99, 0, 1]

    def test_the_two_directions_of_a_link_do_not_share(self):
        world = line()
        world.send(world.a, Packet(metadata={"n": 1, "echo": False}), 1)
        world.send(world.b, Packet(metadata={"n": 2, "echo": False}), 1)
        assert world.sim.pending() == 2

    def test_a_fired_event_carries_nothing_more(self):
        world = line(latency=0.0)
        train(world, 1)
        event = world.sim.step()
        train(world, 1)  # due now, but the first has already fired
        assert world.sim.pending() == 1
        world.sim.run()
        assert [entry[4] for entry in world.log] == [0, 0] and event.riders is None

    def test_a_cancelled_event_carries_nothing_more(self):
        sim, log = Simulator(), []
        first = sim.deliver(1.0, "lane", log.append, 1)
        first.cancel()
        assert sim.deliver(1.0, "lane", log.append, 2) is not first
        sim.run()
        assert log == [2]

    def test_channel_directions_share_apart(self):
        world = line()
        for n in (1, 3, 5):
            world.message(True, Note(n, False))
        for n in (2, 4):
            world.message(False, Note(n, False))
        assert world.sim.pending() == 2
        world.sim.run()
        assert [(entry[2], entry[4]) for entry in world.log] == [
            ("k", 1), ("k", 3), ("k", 5), ("s", 2), ("s", 4)
        ]

    def test_step_counts_a_shared_event_once(self):
        world = line()
        train(world, 3)
        world.sim.schedule(2e-3, world.note, "tick", 0, {"n": 9})
        event = world.sim.step()
        assert event.riders and len(event.riders) == 2
        assert [entry[4] for entry in world.log] == [0, 1, 2]
        assert world.sim.step() is not None and world.log[-1][4] == 9

    def test_until_at_the_shared_instant_serves_every_rider(self):
        world = line()
        train(world, 3)
        world.sim.run(until=1e-3)
        assert len(world.log) == 3 and world.sim.now == 1e-3

    def test_reversed_ties_serve_a_shared_event_in_arrival_order(self):
        world = line(perturb=True)
        world.sim.schedule(1e-3, world.note, "tick", 0, {"n": 7})
        train(world, 3)
        world.sim.run()
        # The tick was scheduled first, so reversed ties serve it last.
        assert [entry[4] for entry in world.log] == [0, 1, 2, 7]

    def test_the_trace_hash_counts_riders(self):
        hashes = []
        for count in (2, 3):
            world = line()
            world.sim.enable_sanitizer()
            train(world, count)
            world.sim.run()
            hashes.append(world.sim.sanitizer.trace_hash)
            assert world.sim.events_processed == 1
        assert hashes[0] != hashes[1]

    def test_nothing_delivered_is_held_after_the_run(self):
        world = line()
        packet = Packet(metadata={"n": 0, "echo": False})
        ref = weakref.ref(packet)
        world.send(world.a, packet, 1)
        del packet
        world.sim.run()
        world.log.clear()
        gc.collect()
        assert ref() is None


# ----------------------------------------------------------------------
# Whole networks
# ----------------------------------------------------------------------


def fabric_trains(trains=3, per_train=4):
    """Trains of packets, two sizes alternating, across the 2-spine / 4-leaf fabric."""
    net, _ = fabric_network()
    client, server = net.host("client0"), net.host("server")
    _, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
    net.run(duration=1.0)
    for _ in range(trains):
        for index in range(per_train):
            client.send_on_socket(socket, payload_size=64 if index % 2 else 512)
        net.run(duration=0.1)
    audit = audit_lines(
        record for controller in net.controllers.values() for record in controller.audit.records()
    )
    delivered = [(packet.tp_src, packet.wire_size()) for packet in server.delivered]
    return audit, delivered, list(server.delivered_times), net.topology.sim.events_processed


def audit_lines(records):
    return [
        (r.time, str(r.flow), r.action, r.rule_text, r.rule_origin, r.cookie, r.cached,
         r.query_latency, r.note)
        for r in records
    ]


def cluster_burst(flows=24):
    """A burst of punts across four shards; the busiest shard dies mid-decision."""
    net = build_network()
    client, server = net.host("client"), net.host("server")
    owners = []
    for _ in range(flows):
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        owners.append(net.cluster.shard_map.owner(FlowSpec.from_packet(packet)))
    net.run(0.0005)
    net.start_monitoring()
    net.cluster.kill(Counter(owners).most_common(1)[0][0])
    net.run(1.0)
    net.stop_monitoring()
    net.run()
    delivered = [(packet.tp_src, packet.wire_size()) for packet in server.delivered]
    return (
        audit_lines(network_audit_records(net)), delivered, list(server.delivered_times),
        net.topology.sim.events_processed,
    )


class TestWholeNetwork:
    def test_a_fabric_decides_delivers_and_times_alike_on_fewer_events(self):
        shared = fabric_trains()
        with use_reference_delivery():
            oracle = fabric_trains()
        assert shared[:3] == oracle[:3]
        assert shared[3] < oracle[3]

    def test_a_shard_killed_mid_burst_fails_over_alike(self):
        # A failover instant is where batching any same-instant channel
        # messages once permuted which re-punted flow got which eval slot.
        shared = cluster_burst()
        with use_reference_delivery():
            oracle = cluster_burst()
        assert shared[:3] == oracle[:3]
        assert shared[3] < oracle[3]
