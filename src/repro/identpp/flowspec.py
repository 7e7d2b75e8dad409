"""The ident++ 5-tuple flow definition.

"A flow under ident++ is defined as the 5-tuple {IP destination and
source addresses, IP protocol, TCP or UDP destination and source ports}"
(§2).  :class:`FlowSpec` is that 5-tuple; it is hashable so controllers
can key decision caches and pending-query tables on it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.netsim.addresses import IPv4Address
from repro.netsim.packet import Packet, proto_name, proto_number


@dataclass(frozen=True, slots=True)
class FlowSpec:
    """An ident++ flow: ``(src ip, dst ip, ip protocol, src port, dst port)``."""

    src_ip: IPv4Address
    dst_ip: IPv4Address
    proto: int
    src_port: int
    dst_port: int
    _hash: int = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Fields that already have their final type (a flow read off a
        # packet, a reversed flow) are kept as they are.
        if type(self.src_ip) is not IPv4Address:
            object.__setattr__(self, "src_ip", IPv4Address(self.src_ip))
        if type(self.dst_ip) is not IPv4Address:
            object.__setattr__(self, "dst_ip", IPv4Address(self.dst_ip))
        if type(self.proto) is not int:
            object.__setattr__(self, "proto", proto_number(self.proto))
        # A flow keys the pending table, the answer store, the decision
        # cache and the audit ledger: hash the 5-tuple once, not per probe.
        object.__setattr__(
            self, "_hash",
            hash((self.src_ip, self.dst_ip, self.proto, self.src_port, self.dst_port)),
        )

    def __hash__(self) -> int:
        return self._hash

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def from_packet(cls, packet: Packet) -> "FlowSpec":
        """Extract the 5-tuple from an IP packet."""
        return cls(
            src_ip=packet.ip_src,
            dst_ip=packet.ip_dst,
            proto=packet.ip_proto,
            src_port=packet.tp_src,
            dst_port=packet.tp_dst,
        )

    @classmethod
    def tcp(cls, src_ip, dst_ip, src_port: int, dst_port: int) -> "FlowSpec":
        """Convenience constructor for TCP flows."""
        return cls(src_ip=src_ip, dst_ip=dst_ip, proto="tcp", src_port=src_port, dst_port=dst_port)

    @classmethod
    def udp(cls, src_ip, dst_ip, src_port: int, dst_port: int) -> "FlowSpec":
        """Convenience constructor for UDP flows."""
        return cls(src_ip=src_ip, dst_ip=dst_ip, proto="udp", src_port=src_port, dst_port=dst_port)

    # ------------------------------------------------------------------
    # Derived views
    # ------------------------------------------------------------------

    def reversed(self) -> "FlowSpec":
        """Return the flow in the opposite direction (for return traffic)."""
        return FlowSpec(
            src_ip=self.dst_ip,
            dst_ip=self.src_ip,
            proto=self.proto,
            src_port=self.dst_port,
            dst_port=self.src_port,
        )

    def proto_name(self) -> str:
        """Return the protocol name (``tcp``/``udp``/...)."""
        return proto_name(self.proto)

    def matches_packet(self, packet: Packet) -> bool:
        """Return ``True`` if ``packet`` belongs to this exact flow (same direction)."""
        return packet.is_ip() and FlowSpec.from_packet(packet) == self

    def as_tuple(self) -> tuple:
        """Return the plain tuple ``(src_ip, dst_ip, proto, src_port, dst_port)``."""
        return (self.src_ip, self.dst_ip, self.proto, self.src_port, self.dst_port)

    def endpoint_ips(self) -> tuple[IPv4Address, IPv4Address]:
        """Return ``(src_ip, dst_ip)``."""
        return (self.src_ip, self.dst_ip)

    def __str__(self) -> str:
        return (
            f"{self.proto_name()} {self.src_ip}:{self.src_port} -> "
            f"{self.dst_ip}:{self.dst_port}"
        )
