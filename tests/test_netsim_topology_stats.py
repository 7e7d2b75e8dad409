"""Tests for topology building, statistics and traces."""

import collections

import pytest

from repro.exceptions import TopologyError
from repro.netsim.nodes import Node
from repro.netsim.packet import Packet
from repro.netsim.statistics import Counter
from repro.netsim.topology import Topology
from repro.netsim.trace import PacketTrace, TraceRecord


def star_topology():
    topo = Topology("star")
    hub = topo.add_node(Node("hub"))
    leaves = [topo.add_node(Node(f"leaf{i}")) for i in range(3)]
    for leaf in leaves:
        topo.add_link(hub, leaf, latency=1e-3)
    return topo, hub, leaves


class TestTopology:
    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_node(Node("a"))
        with pytest.raises(TopologyError):
            topo.add_node(Node("a"))

    def test_nodes_attached_to_simulator(self):
        topo = Topology()
        node = topo.add_node(Node("a"))
        assert node.sim is topo.sim

    def test_link_between(self):
        topo, hub, leaves = star_topology()
        assert topo.link_between(hub, leaves[0]) is not None
        assert topo.link_between(leaves[0], leaves[1]) is None

    def test_self_link_rejected(self):
        topo = Topology()
        node = topo.add_node(Node("a"))
        with pytest.raises(TopologyError):
            topo.add_link(node, node)

    def test_shortest_path(self):
        topo, hub, leaves = star_topology()
        path = topo.shortest_path(leaves[0], leaves[1])
        assert [n.name for n in path] == ["leaf0", "hub", "leaf1"]

    def test_no_path_raises(self):
        topo = Topology()
        topo.add_node(Node("a"))
        topo.add_node(Node("b"))
        with pytest.raises(TopologyError):
            topo.shortest_path("a", "b")

    def test_path_latency_sums_links(self):
        topo, hub, leaves = star_topology()
        assert topo.path_latency(leaves[0], leaves[1]) == pytest.approx(2e-3)

    def test_path_latency_follows_connectivity_changes(self):
        topo, hub, leaves = star_topology()
        assert topo.path_latency(leaves[0], leaves[1]) == pytest.approx(2e-3)
        # A shortcut: the remembered sum must not outlive the path it was
        # summed over.
        topo.add_link(leaves[0], leaves[1], latency=1e-4)
        assert topo.path_latency(leaves[0], leaves[1]) == pytest.approx(1e-4)
        assert topo.path_latency(leaves[0].name, leaves[1].name) == pytest.approx(1e-4)

    def test_egress_port(self):
        topo, hub, leaves = star_topology()
        port = topo.egress_port(hub, leaves[1])
        assert port.node is hub
        assert [end.node for end in port.link.endpoints()] == [hub, leaves[1]]

    def test_egress_port_non_adjacent_rejected(self):
        topo, hub, leaves = star_topology()
        with pytest.raises(TopologyError):
            topo.egress_port(leaves[0], leaves[1])

    def test_ip_registry(self):
        topo = Topology()
        node = topo.add_node(Node("host"))
        topo.register_ip("10.0.0.1", node)
        assert topo.node_for_ip("10.0.0.1") is node
        assert topo.node_for_ip("10.0.0.2") is None

    def test_mutation_epoch_moves_on_every_new_node_and_link(self):
        topo = Topology()
        epochs = [topo.mutation_epoch]
        topo.add_node(Node("a"))
        epochs.append(topo.mutation_epoch)
        topo.add_node(Node("b"))
        epochs.append(topo.mutation_epoch)
        topo.add_link("a", "b")
        epochs.append(topo.mutation_epoch)
        assert epochs == sorted(set(epochs))

    def test_ip_conflict_rejected(self):
        topo = Topology()
        a = topo.add_node(Node("a"))
        b = topo.add_node(Node("b"))
        topo.register_ip("10.0.0.1", a)
        with pytest.raises(TopologyError):
            topo.register_ip("10.0.0.1", b)


class TestCounter:
    def test_a_counter_is_a_named_value_bumped_in_place(self):
        counter = Counter("c")
        counter.value += 1
        counter.value += 4
        assert (counter.value, repr(counter)) == (5, "Counter('c', 5)")


class TestTrace:
    def test_trace_record_is_an_immutable_value(self):
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80)
        record = TraceRecord(0.5, "sw1", "forward", packet, "port 2")
        assert (record.time, record.where, record.event, record.packet, record.note) == (
            0.5, "sw1", "forward", packet, "port 2"
        )
        assert record == TraceRecord(time=0.5, where="sw1", event="forward", packet=packet, note="port 2")
        assert record != TraceRecord(0.5, "sw1", "forward", packet, "")
        with pytest.raises(AttributeError):
            record.note = "rewritten"
        with pytest.raises(AttributeError):
            record.extra = 1
        trace = PacketTrace()
        trace.record(0.5, "sw1", "forward", packet, "port 2")
        assert list(trace) == [record]

    def test_a_full_ring_evicts_the_oldest_and_counts_it(self):
        trace = PacketTrace(records=collections.deque(maxlen=2))
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80)
        for time in (0.0, 0.1, 0.2):
            trace.record(time, "sw1", "forward", packet)
        assert [record.time for record in trace] == [0.1, 0.2]
        assert trace.dropped == 1
        trace.clear()
        assert len(trace) == 0 and trace.dropped == 0

    def test_disabled_trace_records_nothing(self):
        trace = PacketTrace(enabled=False)
        trace.record(0.0, "sw1", "forward", Packet())
        assert len(trace) == 0
