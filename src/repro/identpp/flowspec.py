"""The ident++ 5-tuple flow definition.

"A flow under ident++ is defined as the 5-tuple {IP destination and
source addresses, IP protocol, TCP or UDP destination and source ports}"
(§2).  :class:`FlowSpec` is that 5-tuple; it is hashable so controllers
can key decision caches and pending-query tables on it.
"""

from __future__ import annotations

from operator import itemgetter

from repro.netsim.addresses import IPv4Address
from repro.netsim.packet import Packet, proto_name, proto_number


class FlowSpec(tuple):
    """An ident++ flow: ``(src ip, dst ip, ip protocol, src port, dst port)``.

    The flow *is* that tuple (it equals and hashes as :meth:`as_tuple`):
    it keys the pending table, the answer store, the decision cache and
    the audit ledger, and a tuple hashes and compares in C, with no
    Python frame per probe.  Each field is a read-only attribute.
    """

    __slots__ = ()

    src_ip = property(itemgetter(0), doc="The source address, an :class:`IPv4Address`.")
    dst_ip = property(itemgetter(1), doc="The destination address, an :class:`IPv4Address`.")
    proto = property(itemgetter(2), doc="The IP protocol number.")
    src_port = property(itemgetter(3), doc="The source port.")
    dst_port = property(itemgetter(4), doc="The destination port.")

    def __new__(
        cls, src_ip: IPv4Address, dst_ip: IPv4Address, proto: int, src_port: int, dst_port: int
    ) -> "FlowSpec":
        # Fields that already have their final type (a flow read off a
        # packet, a reversed flow) are kept as they are.
        if src_ip.__class__ is not IPv4Address:
            src_ip = IPv4Address(src_ip)
        if dst_ip.__class__ is not IPv4Address:
            dst_ip = IPv4Address(dst_ip)
        if proto.__class__ is not int:
            proto = proto_number(proto)
        return tuple.__new__(cls, (src_ip, dst_ip, proto, src_port, dst_port))

    def __getnewargs__(self) -> tuple:
        return tuple(self)

    def __repr__(self) -> str:
        return (
            f"FlowSpec(src_ip={self[0]!r}, dst_ip={self[1]!r}, proto={self[2]!r}, "
            f"src_port={self[3]!r}, dst_port={self[4]!r})"
        )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_packet(cls, packet: Packet) -> "FlowSpec":
        """Extract the 5-tuple from an IP packet."""
        return cls(packet.ip_src, packet.ip_dst, packet.ip_proto, packet.tp_src, packet.tp_dst)

    @classmethod
    def tcp(cls, src_ip, dst_ip, src_port: int, dst_port: int) -> "FlowSpec":
        """Convenience constructor for TCP flows."""
        return cls(src_ip=src_ip, dst_ip=dst_ip, proto="tcp", src_port=src_port, dst_port=dst_port)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def reversed(self) -> "FlowSpec":
        """Return the flow in the opposite direction (for return traffic)."""
        src_ip, dst_ip, proto, src_port, dst_port = self
        return tuple.__new__(FlowSpec, (dst_ip, src_ip, proto, dst_port, src_port))

    def proto_name(self) -> str:
        """Return the protocol name (``tcp``/``udp``/...)."""
        return proto_name(self.proto)

    def as_tuple(self) -> tuple:
        """Return the plain tuple ``(src_ip, dst_ip, proto, src_port, dst_port)``."""
        return tuple(self)

    def __str__(self) -> str:
        return (
            f"{self.proto_name()} {self.src_ip}:{self.src_port} -> "
            f"{self.dst_ip}:{self.dst_port}"
        )
