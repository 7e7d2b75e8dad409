"""Tests for nodes, ports and links."""

import pytest

from repro.exceptions import PortError, TopologyError
from repro.netsim.events import Simulator
from repro.netsim.links import Link
from repro.netsim.nodes import Node
from repro.netsim.packet import Packet


class RecordingNode(Node):
    """Node that remembers every packet it receives."""

    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, packet, in_port):
        super().receive(packet, in_port)
        self.received.append((packet, in_port.number))


def make_pair(latency=1e-3, bandwidth=None):
    sim = Simulator()
    left, right = RecordingNode("left"), RecordingNode("right")
    left.attach(sim)
    right.attach(sim)
    link = Link(left.add_port(), right.add_port(), latency=latency, bandwidth=bandwidth)
    return sim, left, right, link


class TestPorts:
    def test_port_numbers_auto_increment(self):
        node = Node("n")
        assert node.add_port().number == 1
        assert node.add_port().number == 2

    def test_duplicate_port_number_rejected(self):
        node = Node("n")
        node.add_port(5)
        with pytest.raises(PortError):
            node.add_port(5)

    def test_unknown_port_rejected(self):
        with pytest.raises(PortError):
            Node("n").port(3)

    def test_send_on_unwired_port_returns_false(self):
        node = Node("n")
        port = node.add_port()
        assert node.send(Packet(), port) is False

    def test_send_on_foreign_port_rejected(self):
        a, b = Node("a"), Node("b")
        port_b = b.add_port()
        with pytest.raises(PortError):
            a.send(Packet(), port_b)

    def test_ports_iteration_sorted(self):
        node = Node("n")
        node.add_port(3)
        node.add_port(1)
        assert [p.number for p in node.ports()] == [1, 3]
        assert len(list(node.ports())) == 2
        assert node.add_port().number == 4
        node.add_port(2)
        assert [p.number for p in node.ports()] == [1, 2, 3, 4]

    def test_ports_iteration_survives_adding_a_port(self):
        node = Node("n")
        node.add_port()
        for port in node.ports():
            node.add_port()
        assert len(list(node.ports())) == 2


class TestLinks:
    def test_delivery_after_latency(self):
        sim, left, right, link = make_pair(latency=2e-3)
        left.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2), left.port(1))
        sim.run()
        assert len(right.received) == 1
        assert sim.now == pytest.approx(2e-3)

    def test_serialization_delay_from_bandwidth(self):
        sim, left, right, link = make_pair(latency=0.0, bandwidth=8000.0)
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload_size=1000)
        expected = packet.wire_size() * 8 / 8000.0
        left.send(packet, left.port(1))
        sim.run()
        assert sim.now == pytest.approx(expected)

    def test_bidirectional(self):
        sim, left, right, link = make_pair()
        right.send(Packet.tcp("2.2.2.2", "1.1.1.1", 2, 1), right.port(1))
        sim.run()
        assert len(left.received) == 1

    def test_down_link_drops(self):
        sim, left, right, link = make_pair()
        link.up = False
        left.send(Packet(), left.port(1))
        sim.run()
        assert right.received == []
        assert sim.events_processed == 0 and link.carried_bytes == 0

    def test_loss_filter(self):
        sim, left, right, link = make_pair()
        link.loss_filter = lambda packet: packet.tp_dst == 80
        left.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), left.port(1))
        left.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 22), left.port(1))
        sim.run()
        assert len(right.received) == 1
        assert right.received[0][0].tp_dst == 22

    def test_carried_bytes_and_an_unwired_port(self):
        sim, left, right, link = make_pair()
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload_size=300)
        assert left.port(1).send(packet) is True
        sim.run()
        assert link.carried_bytes == packet.wire_size()
        assert [received for received, _ in right.received] == [packet]
        unwired = left.add_port()
        assert unwired.send(packet) is False
        assert sim.pending() == 0 and link.carried_bytes == packet.wire_size()

    def test_delivery_label_follows_the_link_name(self):
        sim, left, right, link = make_pair()
        left.send(Packet(), left.port(1))
        assert sim.step().label == "deliver:left:1<->right:1"
        # Built once per name rather than per packet, so a rename must
        # still reach the label (the sanitizer's trace hash reads it).
        link.name = "trunk"
        left.send(Packet(), left.port(1))
        right.send(Packet(), right.port(1))
        assert [sim.step().label, sim.step().label] == ["deliver:trunk", "deliver:trunk"]

    def test_other_end_and_peer(self):
        _, left, right, link = make_pair()
        assert link.other_end(left.port(1)) is right.port(1)
        assert left.port(1).peer() is right.port(1)

    def test_other_end_foreign_port_rejected(self):
        _, left, right, link = make_pair()
        foreign = Node("other").add_port()
        with pytest.raises(TopologyError):
            link.other_end(foreign)

    def test_double_wiring_rejected(self):
        _, left, right, _ = make_pair()
        other = Node("other")
        with pytest.raises(PortError):
            Link(left.port(1), other.add_port())

    def test_negative_latency_rejected(self):
        left, right = Node("a"), Node("b")
        with pytest.raises(TopologyError):
            Link(left.add_port(), right.add_port(), latency=-1.0)

    def test_self_link_rejected(self):
        node = Node("a")
        port = node.add_port()
        with pytest.raises(TopologyError):
            Link(port, port)


class TestFlood:
    def test_flood_excludes_ingress(self):
        sim = Simulator()
        hub = Node("hub")
        hub.attach(sim)
        spokes = []
        for index in range(3):
            spoke = RecordingNode(f"spoke{index}")
            spoke.attach(sim)
            Link(hub.add_port(), spoke.add_port())
            spokes.append(spoke)
        count = hub.flood(Packet(), exclude=hub.port(1))
        sim.run()
        assert count == 2
        assert len(spokes[0].received) == 0
        assert len(spokes[1].received) == 1
        assert len(spokes[2].received) == 1
