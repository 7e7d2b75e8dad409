"""Tests for packets: construction, views and wire size."""

import pytest

from repro.exceptions import PacketError
from repro.netsim.addresses import IPv4Address, MACAddress
from repro.netsim.packet import (
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Packet,
    proto_name,
    proto_number,
)


class TestProtocolNames:
    def test_known_names(self):
        assert proto_name(6) == "tcp"
        assert proto_name(17) == "udp"
        assert proto_number("tcp") == 6
        assert proto_number("UDP") == 17

    def test_numeric_passthrough(self):
        assert proto_number(47) == 47
        assert proto_number("47") == 47
        assert proto_name(47) == "47"

    def test_unknown_name_rejected(self):
        with pytest.raises(PacketError):
            proto_number("carrier-pigeon")


class TestPacketConstruction:
    def test_tcp_constructor(self):
        packet = Packet.tcp("10.0.0.1", "10.0.0.2", 1234, 80, payload="hello")
        assert packet.is_tcp() and packet.is_ip()
        assert packet.five_tuple()[2] == IP_PROTO_TCP

    def test_udp_constructor(self):
        packet = Packet.udp("10.0.0.1", "10.0.0.2", 53, 53)
        assert packet.is_ip() and packet.ip_proto == IP_PROTO_UDP

    def test_proto_accepts_name(self):
        packet = Packet(ip_src="1.1.1.1", ip_dst="2.2.2.2", ip_proto="udp")
        assert packet.ip_proto == IP_PROTO_UDP

    def test_port_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            Packet.tcp("1.1.1.1", "2.2.2.2", 70000, 80)

    def test_vlan_out_of_range_rejected(self):
        with pytest.raises(PacketError):
            Packet(vlan_id=5000)

    def test_unique_packet_ids(self):
        assert Packet().packet_id != Packet().packet_id

    def test_non_ip_packet(self):
        packet = Packet(eth_type=0x0806)
        assert not packet.is_ip()
        assert "eth" in str(packet)


class TestPacketViews:
    def test_five_tuple(self):
        packet = Packet.tcp("10.0.0.1", "10.0.0.2", 1111, 80)
        src, dst, proto, sport, dport = packet.five_tuple()
        assert (str(src), str(dst), proto, sport, dport) == ("10.0.0.1", "10.0.0.2", 6, 1111, 80)

    def test_copy_gets_new_id_and_independent_metadata(self):
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, metadata={"k": "v"})
        clone = packet.copy()
        assert clone.packet_id != packet.packet_id
        clone.metadata["k"] = "changed"
        assert packet.metadata["k"] == "v"

    def test_copy_with_overrides(self):
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2)
        clone = packet.copy(tp_dst=443)
        assert clone.tp_dst == 443 and packet.tp_dst == 2


    def test_addresses_are_normalised_on_construction(self):
        packet = Packet(eth_src="02:00:00:00:00:01", ip_src="10.0.0.1", ip_dst=167772162)
        assert packet.eth_src == MACAddress("02:00:00:00:00:01")
        assert isinstance(packet.ip_src, IPv4Address) and isinstance(packet.ip_dst, IPv4Address)
        assert packet.ip_dst == IPv4Address("10.0.0.2")

    def test_udp_packet_is_ip_but_not_tcp(self):
        packet = Packet.udp("10.0.0.1", "10.0.0.2", 53, 53)
        assert packet.is_ip() and not packet.is_tcp()
        assert packet.proto_name() == "udp"

    def test_ip_packet_renders_its_endpoints(self):
        packet = Packet.tcp("10.0.0.1", "10.0.0.2", 1111, 80)
        assert str(packet) == f"tcp 10.0.0.1:1111 -> 10.0.0.2:80 ({packet.wire_size()}B)"

    @pytest.mark.parametrize("payload, encoded", [
        (b"\x00raw", b"\x00raw"), ("ident++", b"ident++"), ("\u00e9", "\u00e9".encode("utf-8")), (42, b"42"),
    ])
    def test_payload_bytes(self, payload, encoded):
        assert Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload=payload).payload_bytes() == encoded


class TestWireSize:
    def test_minimum_frame_size(self):
        assert Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2).wire_size() >= 64

    def test_payload_size_override(self):
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload_size=1000)
        assert packet.wire_size() >= 1000

    def test_payload_text_counted(self):
        small = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload="x")
        large = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload="x" * 500)
        assert large.wire_size() > small.wire_size()

    def test_vlan_tag_adds_bytes(self):
        untagged = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload_size=200)
        tagged = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload_size=200, vlan_id=5)
        assert tagged.wire_size() == untagged.wire_size() + 4

    def test_a_copy_measures_its_own_size(self):
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 2, payload_size=200)
        measured = packet.wire_size()
        bigger = packet.copy(payload_size=400)
        assert bigger.wire_size() == measured + 200
        assert packet.wire_size() == measured
