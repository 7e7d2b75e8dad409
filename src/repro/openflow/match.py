"""The OpenFlow 1.0 10-tuple match structure.

§3.1 of the paper: "OpenFlow defines a flow as a 10-tuple {Ingress port,
MAC source and destination addresses, Ethernet type, VLAN identifier, IP
source and destination addresses, IP protocol, transport source and
destination ports}" — a superset of the ident++ 5-tuple.

A :class:`Match` leaves any subset of those fields wildcarded (``None``).
IP address fields additionally accept CIDR prefixes so a single flow
entry can cover a subnet, which the ident++ controller uses when caching
decisions about whole departments.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Optional, Union

from repro.exceptions import MatchError
from repro.netsim.addresses import IPv4Address, IPv4Network, MACAddress
from repro.netsim.packet import Packet

_IPField = Union[IPv4Address, IPv4Network, str, None]


@dataclass(frozen=True)
class Match:
    """An OpenFlow 10-tuple match; ``None`` fields are wildcards.

    Attributes:
        in_port: Ingress port number on the switch.
        dl_src / dl_dst: Ethernet source / destination address.
        dl_type: EtherType.
        vlan_id: VLAN identifier (0 = untagged).
        nw_src / nw_dst: IPv4 source / destination, exact address or CIDR prefix.
        nw_proto: IP protocol number.
        tp_src / tp_dst: Transport source / destination port.

    A match is immutable, so three views of it are worked out once, at
    construction, for the code that asks per flow-table entry:

        field_values: The ten (normalised) values in :data:`MATCH_FIELDS` order.
        shape: Indexes into :data:`MATCH_FIELDS` of the constrained fields,
            ascending — the wildcard pattern the flow table buckets by.
        has_prefix: ``True`` when ``nw_src`` or ``nw_dst`` is a CIDR prefix,
            i.e. when matching is not plain equality on the constrained fields.
    """

    in_port: Optional[int] = None
    dl_src: Optional[MACAddress] = None
    dl_dst: Optional[MACAddress] = None
    dl_type: Optional[int] = None
    vlan_id: Optional[int] = None
    nw_src: _IPField = None
    nw_dst: _IPField = None
    nw_proto: Optional[int] = None
    tp_src: Optional[int] = None
    tp_dst: Optional[int] = None

    def __post_init__(self) -> None:
        for name, port in (("tp_src", self.tp_src), ("tp_dst", self.tp_dst)):
            if port is not None and not 0 <= port <= 0xFFFF:
                raise MatchError(f"{name} out of range: {port}")
        dl_src, dl_dst = _normalize_mac(self.dl_src), _normalize_mac(self.dl_dst)
        nw_src, nw_dst = _normalize_ip(self.nw_src), _normalize_ip(self.nw_dst)
        values = (
            self.in_port, dl_src, dl_dst, self.dl_type, self.vlan_id,
            nw_src, nw_dst, self.nw_proto, self.tp_src, self.tp_dst,
        )
        # frozen=True guards attribute assignment, not the instance dict:
        # one write stores the normalised fields and the derived views.
        self.__dict__.update(
            dl_src=dl_src, dl_dst=dl_dst, nw_src=nw_src, nw_dst=nw_dst,
            field_values=values,
            shape=tuple([i for i, value in enumerate(values) if value is not None]),
            has_prefix=isinstance(nw_src, IPv4Network) or isinstance(nw_dst, IPv4Network),
        )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    @classmethod
    def from_five_tuple(
        cls,
        ip_src: _IPField,
        ip_dst: _IPField,
        proto: Optional[int],
        tp_src: Optional[int],
        tp_dst: Optional[int],
    ) -> "Match":
        """Return a match over the ident++ 5-tuple only (layer-2 fields wildcarded).

        A flow's fields (two addresses, three ints) are typed already:
        such a match is stored as given, with the exact five-tuple
        shape, and only the ports are checked.
        """
        if (
            ip_src.__class__ is not IPv4Address or ip_dst.__class__ is not IPv4Address
            or proto.__class__ is not int or tp_src.__class__ is not int
            or tp_dst.__class__ is not int
        ):
            return cls(nw_src=ip_src, nw_dst=ip_dst, nw_proto=proto, tp_src=tp_src, tp_dst=tp_dst)
        if not (0 <= tp_src <= 0xFFFF and 0 <= tp_dst <= 0xFFFF):
            raise MatchError(f"port out of range: {tp_src} -> {tp_dst}")
        match = _new_match(cls)
        match.__dict__.update(
            _FIVE_TUPLE, nw_src=ip_src, nw_dst=ip_dst, nw_proto=proto, tp_src=tp_src, tp_dst=tp_dst,
            field_values=(None, None, None, None, None, ip_src, ip_dst, proto, tp_src, tp_dst),
        )
        return match

    # ------------------------------------------------------------------
    # Matching
    # ------------------------------------------------------------------

    def matches(self, packet: Packet, in_port: Optional[int] = None) -> bool:
        """Return ``True`` if the packet (arriving on ``in_port``) matches."""
        if self.in_port is not None and self.in_port != in_port:
            return False
        if self.dl_src is not None and self.dl_src != packet.eth_src:
            return False
        if self.dl_dst is not None and self.dl_dst != packet.eth_dst:
            return False
        if self.dl_type is not None and self.dl_type != packet.eth_type:
            return False
        if self.vlan_id is not None and self.vlan_id != packet.vlan_id:
            return False
        if not _ip_field_matches(self.nw_src, packet.ip_src):
            return False
        if not _ip_field_matches(self.nw_dst, packet.ip_dst):
            return False
        if self.nw_proto is not None and (not packet.carries_ip or self.nw_proto != packet.ip_proto):
            return False
        if self.tp_src is not None and (not packet.carries_ip or self.tp_src != packet.tp_src):
            return False
        if self.tp_dst is not None and (not packet.carries_ip or self.tp_dst != packet.tp_dst):
            return False
        return True

    def specificity(self) -> int:
        """Return how many fields are constrained (used to break priority ties)."""
        return len(self.shape)

    def covers(self, other: "Match") -> bool:
        """Return ``True`` if every packet matching ``other`` also matches ``self``.

        Used when removing overlapping entries from a flow table.
        """
        mine, theirs = self.field_values, other.field_values
        for index in self.shape:
            if theirs[index] is None:
                return False
            if index in _IP_FIELD_INDEXES:
                if not _ip_field_covers(mine[index], theirs[index]):
                    return False
            elif mine[index] != theirs[index]:
                return False
        return True

    def __str__(self) -> str:
        parts = [f"{MATCH_FIELDS[i]}={self.field_values[i]}" for i in self.shape]
        return "Match(" + ", ".join(parts) + ")" if parts else "Match(*)"


_new_match = object.__new__
#: What every typed five-tuple match holds beside its five values.
_FIVE_TUPLE = dict(
    in_port=None, dl_src=None, dl_dst=None, dl_type=None, vlan_id=None,
    shape=(5, 6, 7, 8, 9), has_prefix=False,
)

#: The ten match fields in declaration order; :attr:`Match.shape` and
#: :attr:`Match.field_values` index into it.
MATCH_FIELDS: tuple[str, ...] = tuple(field_def.name for field_def in fields(Match))
_IP_FIELD_INDEXES = frozenset(MATCH_FIELDS.index(name) for name in ("nw_src", "nw_dst"))


def _normalize_mac(value: object) -> Optional[MACAddress]:
    if value is None or isinstance(value, MACAddress):
        return value
    return MACAddress(value)  # type: ignore[arg-type]


def _normalize_ip(value: object) -> _IPField:
    if value is None or isinstance(value, (IPv4Address, IPv4Network)):
        return value
    if isinstance(value, str):
        if "/" in value:
            return IPv4Network(value)
        return IPv4Address(value)
    if isinstance(value, int):
        return IPv4Address(value)
    raise MatchError(f"cannot interpret {value!r} as an IP match field")


def _ip_field_matches(field_value: _IPField, packet_value: Optional[IPv4Address]) -> bool:
    if field_value is None:
        return True
    if packet_value is None:
        return False
    if isinstance(field_value, IPv4Network):
        return packet_value in field_value
    return field_value == packet_value


def _ip_field_covers(mine: _IPField, theirs: _IPField) -> bool:
    """Return True if the address set of ``theirs`` is a subset of ``mine``."""
    if isinstance(mine, IPv4Address):
        if isinstance(theirs, IPv4Address):
            return mine == theirs
        return False
    if isinstance(mine, IPv4Network):
        if isinstance(theirs, IPv4Address):
            return theirs in mine
        if isinstance(theirs, IPv4Network):
            return theirs in mine
    return False
