"""Tests for topology building, statistics and traces."""

import random

import pytest
from hypothesis import given, strategies as st

from repro.exceptions import TopologyError
from repro.netsim.nodes import Node
from repro.netsim.packet import Packet
from repro.netsim.statistics import Counter, Histogram, StatsRegistry
from repro.netsim.topology import Topology, build_linear_topology
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

    def test_unknown_node_rejected(self):
        with pytest.raises(TopologyError):
            Topology().node("ghost")

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
        assert not topo.connected("a", "b")

    def test_path_latency_sums_links(self):
        topo, hub, leaves = star_topology()
        assert topo.path_latency(leaves[0], leaves[1]) == pytest.approx(2e-3)

    def test_path_latency_follows_connectivity_changes(self):
        topo, hub, leaves = star_topology()
        assert topo.path_latency(leaves[0], leaves[1]) == pytest.approx(2e-3)
        # A shortcut, then its removal: the remembered sum must not outlive
        # the path it was summed over.
        topo.add_link(leaves[0], leaves[1], latency=1e-4)
        assert topo.path_latency(leaves[0], leaves[1]) == pytest.approx(1e-4)
        assert topo.path_latency(leaves[0].name, leaves[1].name) == pytest.approx(1e-4)
        topo.remove_link(leaves[0], leaves[1])
        assert topo.path_latency(leaves[0], leaves[1]) == pytest.approx(2e-3)
        topo.remove_link(hub, leaves[1])
        with pytest.raises(TopologyError):
            topo.path_latency(leaves[0], leaves[1])

    def test_egress_port(self):
        topo, hub, leaves = star_topology()
        port = topo.egress_port(hub, leaves[1])
        assert port.node is hub
        assert port.peer().node is leaves[1]

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

    def test_ip_conflict_rejected(self):
        topo = Topology()
        a = topo.add_node(Node("a"))
        b = topo.add_node(Node("b"))
        topo.register_ip("10.0.0.1", a)
        with pytest.raises(TopologyError):
            topo.register_ip("10.0.0.1", b)

    def test_unique_macs(self):
        topo = Topology()
        assert topo.next_mac() != topo.next_mac()

    def test_describe(self):
        topo, _, _ = star_topology()
        info = topo.describe()
        assert info["diameter"] == 2
        assert len(info["links"]) == 3

    def test_linear_builder(self):
        nodes = [Node(f"n{i}") for i in range(4)]
        topo = build_linear_topology(nodes)
        assert [n.name for n in topo.shortest_path("n0", "n3")] == ["n0", "n1", "n2", "n3"]

    def test_linear_builder_needs_two_nodes(self):
        with pytest.raises(TopologyError):
            build_linear_topology([Node("only")])


class TestCounter:
    def test_increment(self):
        counter = Counter("c")
        counter.increment()
        counter.increment(4)
        assert counter.value == 5
        assert int(counter) == 5

    def test_negative_increment_rejected(self):
        with pytest.raises(ValueError):
            Counter("c").increment(-1)

    def test_reset(self):
        counter = Counter("c", initial=3)
        counter.reset()
        assert counter.value == 0

    def test_numeric_equality(self):
        counter = Counter("c")
        counter.increment(2)
        assert counter == 2


class TestHistogram:
    def test_empty_histogram(self):
        histogram = Histogram("h")
        assert histogram.mean == 0.0
        assert histogram.percentile(99) == 0.0

    def test_basic_statistics(self):
        histogram = Histogram("h")
        histogram.extend([1.0, 2.0, 3.0, 4.0])
        assert histogram.count == 4
        assert histogram.mean == pytest.approx(2.5)
        assert histogram.minimum == 1.0
        assert histogram.maximum == 4.0
        assert histogram.median == pytest.approx(2.5)

    def test_percentile_bounds(self):
        histogram = Histogram("h")
        histogram.extend(range(101))
        assert histogram.percentile(0) == 0
        assert histogram.percentile(100) == 100
        with pytest.raises(ValueError):
            histogram.percentile(101)

    def test_summary_keys(self):
        histogram = Histogram("h")
        histogram.observe(1.0)
        summary = histogram.summary()
        assert set(summary) == {"count", "mean", "min", "p50", "p95", "p99", "max", "stddev"}

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), min_size=1, max_size=50))
    def test_property_percentiles_within_range(self, values):
        histogram = Histogram("h")
        histogram.extend(values)
        for pct in (0, 25, 50, 75, 100):
            assert histogram.minimum <= histogram.percentile(pct) <= histogram.maximum

    @given(st.lists(st.floats(min_value=0, max_value=1e6, allow_nan=False), min_size=2, max_size=50))
    def test_property_percentile_monotone(self, values):
        histogram = Histogram("h")
        histogram.extend(values)
        assert histogram.percentile(10) <= histogram.percentile(90)

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6, allow_nan=False), max_size=50))
    def test_property_samples_are_the_sorted_stream(self, values):
        histogram = Histogram("h")
        for index, value in enumerate(values):
            histogram.observe(value)
            if index % 7 == 3:
                histogram.percentile(50)  # sorts what is kept so far
        samples = histogram.samples()
        assert samples == sorted(float(value) for value in values)
        assert all(type(sample) is float for sample in samples)

    def test_reset_reseeds_the_reservoir(self):
        rng = random.Random(11)
        stream = [rng.random() for _ in range(500)]
        fresh = Histogram("setup", reservoir=32)
        fresh.extend(stream)
        reused = Histogram("setup", reservoir=32)
        reused.extend(reversed(stream))
        reused.reset()
        reused.extend(stream)
        assert reused.samples() == fresh.samples()
        assert reused.percentile(50) == fresh.percentile(50)


class TestStatsRegistry:
    def test_counter_reuse(self):
        registry = StatsRegistry()
        registry.counter("x").increment()
        registry.counter("x").increment()
        assert registry.counter("x").value == 2

    def test_snapshot(self):
        registry = StatsRegistry()
        registry.counter("c").increment(3)
        registry.histogram("h").observe(1.5)
        snapshot = registry.snapshot()
        assert snapshot["c"] == 3.0
        assert snapshot["h"]["count"] == 1.0

    def test_reset(self):
        registry = StatsRegistry()
        registry.counter("c").increment()
        registry.histogram("h").observe(1.0)
        registry.reset()
        assert registry.counter("c").value == 0
        assert registry.histogram("h").count == 0


class TestTrace:
    def test_record_and_filter(self):
        trace = PacketTrace()
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80)
        trace.record(0.0, "sw1", "forward", packet)
        trace.record(0.1, "sw1", "drop", packet)
        trace.record(0.2, "sw2", "forward", packet)
        assert len(trace) == 3
        assert len(trace.filter(where="sw1")) == 2
        assert len(trace.filter(event="drop")) == 1
        assert trace.summary() == {"forward": 2, "drop": 1}

    def test_trace_record_is_an_immutable_value(self):
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80)
        record = TraceRecord(0.5, "sw1", "forward", packet, "port 2")
        assert (record.time, record.where, record.event, record.packet, record.note) == (
            0.5, "sw1", "forward", packet, "port 2"
        )
        assert record == TraceRecord(time=0.5, where="sw1", event="forward", packet=packet, note="port 2")
        assert record != TraceRecord(0.5, "sw1", "forward", packet)
        assert TraceRecord(0.5, "sw1", "drop", packet).note == ""
        with pytest.raises(AttributeError):
            record.note = "rewritten"
        with pytest.raises(AttributeError):
            record.extra = 1
        trace = PacketTrace()
        trace.record(0.5, "sw1", "forward", packet, "port 2")
        assert list(trace) == [record]

    def test_disabled_trace_records_nothing(self):
        trace = PacketTrace(enabled=False)
        trace.record(0.0, "sw1", "forward", Packet())
        assert len(trace) == 0

    def test_flows_seen_and_bytes(self):
        trace = PacketTrace()
        first = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80)
        second = Packet.tcp("1.1.1.1", "2.2.2.2", 2, 80)
        trace.record(0.0, "sw", "forward", first)
        trace.record(0.0, "sw", "forward", second)
        assert len(trace.flows_seen()) == 2
        assert trace.bytes_observed(event="forward") == first.wire_size() + second.wire_size()
