"""Packets carrying the header fields OpenFlow and ident++ care about.

OpenFlow 1.0 (and therefore the paper, §3.1) defines a flow by the
10-tuple ``{ingress port, MAC src/dst, Ethernet type, VLAN id, IP src/dst,
IP protocol, transport src/dst port}``; ident++ (§2) uses the 5-tuple
subset ``{IP src/dst, IP protocol, transport src/dst port}``.  A
:class:`Packet` therefore carries exactly those header fields plus an
opaque payload, and knows how to serialise itself so that link
transmission delays can be computed from a realistic wire size.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from typing import Any, Optional

from repro.exceptions import PacketError
from repro.netsim.addresses import BROADCAST_MAC, IPv4Address, MACAddress

#: EtherType for IPv4.
ETH_TYPE_IP = 0x0800
#: EtherType for ARP.
ETH_TYPE_ARP = 0x0806

#: IP protocol numbers used throughout the library.
IP_PROTO_ICMP = 1
IP_PROTO_TCP = 6
IP_PROTO_UDP = 17

_PROTO_NAMES = {IP_PROTO_ICMP: "icmp", IP_PROTO_TCP: "tcp", IP_PROTO_UDP: "udp"}
_PROTO_NUMBERS = {name: number for number, name in _PROTO_NAMES.items()}

#: Fixed header sizes (bytes) used to estimate wire size.
_ETH_HEADER_LEN = 14
_VLAN_TAG_LEN = 4
_IP_HEADER_LEN = 20
_TCP_HEADER_LEN = 20
_UDP_HEADER_LEN = 8

_packet_ids = itertools.count(1)


def proto_name(number: int) -> str:
    """Return the conventional name (``tcp``/``udp``/``icmp``) for an IP protocol number."""
    return _PROTO_NAMES.get(number, str(number))


def proto_number(name: str | int) -> int:
    """Return the IP protocol number for a name, passing numbers through."""
    if isinstance(name, int):
        return name
    key = name.strip().lower()
    if key in _PROTO_NUMBERS:
        return _PROTO_NUMBERS[key]
    try:
        return int(key)
    except ValueError as exc:
        raise PacketError(f"unknown IP protocol: {name!r}") from exc


class _WeakReferenceable:
    """The ``__weakref__`` slot of :class:`Packet`, which keeps no ``__dict__``.

    A base class rather than ``dataclass(weakref_slot=True)``, which
    Python 3.10 does not have.
    """

    __slots__ = ("__weakref__",)


@dataclass(slots=True)
class Packet(_WeakReferenceable):
    """A network packet in the simulator.

    The addressing fields accept strings and are normalised to
    :class:`~repro.netsim.addresses.MACAddress` /
    :class:`~repro.netsim.addresses.IPv4Address` on construction.

    Attributes:
        eth_src: Source MAC address.
        eth_dst: Destination MAC address.
        eth_type: EtherType (defaults to IPv4).
        vlan_id: VLAN identifier, ``0`` meaning untagged.
        ip_src: Source IPv4 address (``None`` for non-IP frames).
        ip_dst: Destination IPv4 address (``None`` for non-IP frames).
        ip_proto: IP protocol number.
        tp_src: Transport-layer source port (0 when not applicable).
        tp_dst: Transport-layer destination port (0 when not applicable).
        payload: Opaque application payload.  The ident++ query/response
            documents ride here as text.
        payload_size: Explicit payload size override in bytes; when left
            at ``None`` the size of the serialised payload text is used.
        metadata: Free-form annotations (never examined by switches),
            ``None`` until someone tags the packet: an ident++ query
            carries its target role here.  A forwarded packet allocates
            no dictionary.
    """

    eth_src: MACAddress = MACAddress(0)
    eth_dst: MACAddress = BROADCAST_MAC
    eth_type: int = ETH_TYPE_IP
    vlan_id: int = 0
    ip_src: Optional[IPv4Address] = None
    ip_dst: Optional[IPv4Address] = None
    ip_proto: int = IP_PROTO_TCP
    tp_src: int = 0
    tp_dst: int = 0
    payload: Any = b""
    payload_size: Optional[int] = None
    metadata: Optional[dict[str, Any]] = None
    packet_id: int = field(default_factory=_packet_ids.__next__)
    #: Memo of :meth:`wire_size`.  Not an ``__init__`` argument, so
    #: ``copy()`` / ``replace()`` never carry a measured size across.
    _wire_size: Optional[int] = field(default=None, init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        # Address objects are immutable values: one that already has the
        # right type is kept, not copied (a host stamps its own MAC and
        # IP on every packet it sends).
        if self.eth_src.__class__ is not MACAddress:
            self.eth_src = MACAddress(self.eth_src)
        if self.eth_dst.__class__ is not MACAddress:
            self.eth_dst = MACAddress(self.eth_dst)
        ip_src, ip_dst = self.ip_src, self.ip_dst
        if ip_src is not None and ip_src.__class__ is not IPv4Address:
            self.ip_src = IPv4Address(ip_src)
        if ip_dst is not None and ip_dst.__class__ is not IPv4Address:
            self.ip_dst = IPv4Address(ip_dst)
        if isinstance(self.ip_proto, str):
            self.ip_proto = proto_number(self.ip_proto)
        if not 0 <= int(self.tp_src) <= 0xFFFF:
            raise PacketError(f"tp_src out of range: {self.tp_src}")
        if not 0 <= int(self.tp_dst) <= 0xFFFF:
            raise PacketError(f"tp_dst out of range: {self.tp_dst}")
        if not 0 <= self.vlan_id <= 0xFFF:
            raise PacketError(f"vlan_id out of range: {self.vlan_id}")

    # ------------------------------------------------------------------
    # Convenience constructors
    # ------------------------------------------------------------------

    @classmethod
    def tcp(
        cls,
        ip_src: IPv4Address | str,
        ip_dst: IPv4Address | str,
        tp_src: int,
        tp_dst: int,
        *,
        payload: Any = b"",
        **kwargs: Any,
    ) -> "Packet":
        """Build a TCP packet with the given 4-tuple."""
        return cls(
            ip_src=IPv4Address(ip_src),
            ip_dst=IPv4Address(ip_dst),
            ip_proto=IP_PROTO_TCP,
            tp_src=tp_src,
            tp_dst=tp_dst,
            payload=payload,
            **kwargs,
        )

    @classmethod
    def udp(
        cls,
        ip_src: IPv4Address | str,
        ip_dst: IPv4Address | str,
        tp_src: int,
        tp_dst: int,
        *,
        payload: Any = b"",
        **kwargs: Any,
    ) -> "Packet":
        """Build a UDP packet with the given 4-tuple."""
        return cls(
            ip_src=IPv4Address(ip_src),
            ip_dst=IPv4Address(ip_dst),
            ip_proto=IP_PROTO_UDP,
            tp_src=tp_src,
            tp_dst=tp_dst,
            payload=payload,
            **kwargs,
        )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def is_ip(self) -> bool:
        """Return ``True`` if the packet carries an IPv4 payload."""
        return self.eth_type == ETH_TYPE_IP and self.ip_src is not None and self.ip_dst is not None

    def is_tcp(self) -> bool:
        """Return ``True`` for TCP-over-IPv4 packets."""
        return self.is_ip() and self.ip_proto == IP_PROTO_TCP

    def is_udp(self) -> bool:
        """Return ``True`` for UDP-over-IPv4 packets."""
        return self.is_ip() and self.ip_proto == IP_PROTO_UDP

    def proto_name(self) -> str:
        """Return the transport protocol name (``tcp``, ``udp``, ``icmp`` or the number)."""
        return proto_name(self.ip_proto)

    def five_tuple(self) -> tuple:
        """Return the ident++ 5-tuple ``(ip_src, ip_dst, ip_proto, tp_src, tp_dst)``."""
        return (self.ip_src, self.ip_dst, self.ip_proto, self.tp_src, self.tp_dst)

    def payload_bytes(self) -> bytes:
        """Return the payload encoded as bytes (UTF-8 for text payloads)."""
        if isinstance(self.payload, bytes):
            return self.payload
        if isinstance(self.payload, str):
            return self.payload.encode("utf-8")
        return repr(self.payload).encode("utf-8")

    def wire_size(self) -> int:
        """Return the estimated on-the-wire size in bytes.

        Link transmission delay is ``wire_size() * 8 / bandwidth``.  The
        size is computed once and cached on the packet (headers and
        payload are fixed by the time a packet is transmitted; ``copy()``
        and ``reply_template()`` build fresh packets, so the cache never
        leaks across mutations made through those paths).
        """
        size = self._wire_size
        if size is not None:
            return size
        size = _ETH_HEADER_LEN
        if self.vlan_id:
            size += _VLAN_TAG_LEN
        if self.is_ip():
            size += _IP_HEADER_LEN
            if self.ip_proto == IP_PROTO_TCP:
                size += _TCP_HEADER_LEN
            elif self.ip_proto == IP_PROTO_UDP:
                size += _UDP_HEADER_LEN
        if self.payload_size is not None:
            size += self.payload_size
        else:
            size += len(self.payload_bytes())
        size = max(size, 64)
        self._wire_size = size
        return size

    def reply_template(self) -> "Packet":
        """Return a new packet with addresses and ports swapped.

        Used by end-hosts and daemons to answer a request on the same
        flow in the reverse direction.
        """
        return Packet(
            eth_src=self.eth_dst,
            eth_dst=self.eth_src,
            eth_type=self.eth_type,
            vlan_id=self.vlan_id,
            ip_src=self.ip_dst,
            ip_dst=self.ip_src,
            ip_proto=self.ip_proto,
            tp_src=self.tp_dst,
            tp_dst=self.tp_src,
        )

    def copy(self, **overrides: Any) -> "Packet":
        """Return a shallow copy with a fresh packet id and optional field overrides.

        The copy's ``metadata`` is its own dictionary (or ``None``, like
        the original's).
        """
        overrides.setdefault("packet_id", next(_packet_ids))
        if "metadata" not in overrides and self.metadata is not None:
            overrides["metadata"] = dict(self.metadata)
        return replace(self, **overrides)

    # ------------------------------------------------------------------
    # Serialisation
    # ------------------------------------------------------------------

    def serialize(self) -> bytes:
        """Serialise the header fields and payload to a byte string.

        The format is a compact library-private encoding (not real
        Ethernet framing); it exists so traces can be persisted and so
        property tests can check round-tripping.
        """
        payload = self.payload_bytes()
        header = b"".join(
            [
                self.eth_src.to_bytes(),
                self.eth_dst.to_bytes(),
                self.eth_type.to_bytes(2, "big"),
                self.vlan_id.to_bytes(2, "big"),
                (self.ip_src.to_int() if self.ip_src else 0).to_bytes(4, "big"),
                (self.ip_dst.to_int() if self.ip_dst else 0).to_bytes(4, "big"),
                self.ip_proto.to_bytes(1, "big"),
                self.tp_src.to_bytes(2, "big"),
                self.tp_dst.to_bytes(2, "big"),
                len(payload).to_bytes(4, "big"),
            ]
        )
        return header + payload

    @classmethod
    def deserialize(cls, data: bytes) -> "Packet":
        """Parse a byte string produced by :meth:`serialize`."""
        if len(data) < 31:
            raise PacketError(f"packet truncated: {len(data)} bytes")
        eth_src = MACAddress(int.from_bytes(data[0:6], "big"))
        eth_dst = MACAddress(int.from_bytes(data[6:12], "big"))
        eth_type = int.from_bytes(data[12:14], "big")
        vlan_id = int.from_bytes(data[14:16], "big")
        ip_src_raw = int.from_bytes(data[16:20], "big")
        ip_dst_raw = int.from_bytes(data[20:24], "big")
        ip_proto = data[24]
        tp_src = int.from_bytes(data[25:27], "big")
        tp_dst = int.from_bytes(data[27:29], "big")
        payload_len = int.from_bytes(data[29:33], "big")
        payload = data[33 : 33 + payload_len]
        if len(payload) != payload_len:
            raise PacketError("packet payload truncated")
        is_ip_frame = eth_type == ETH_TYPE_IP
        return cls(
            eth_src=eth_src,
            eth_dst=eth_dst,
            eth_type=eth_type,
            vlan_id=vlan_id,
            ip_src=IPv4Address(ip_src_raw) if is_ip_frame else None,
            ip_dst=IPv4Address(ip_dst_raw) if is_ip_frame else None,
            ip_proto=ip_proto,
            tp_src=tp_src,
            tp_dst=tp_dst,
            payload=payload,
        )

    def __str__(self) -> str:
        if self.is_ip():
            return (
                f"{self.proto_name()} {self.ip_src}:{self.tp_src} -> "
                f"{self.ip_dst}:{self.tp_dst} ({self.wire_size()}B)"
            )
        return f"eth {self.eth_src} -> {self.eth_dst} type=0x{self.eth_type:04x}"
