"""IPv4 and MAC addressing primitives.

The PF+=2 policy language (Figures 2, 5, 7 and 8 of the paper) matches on
IP addresses, address *tables* and CIDR prefixes such as
``192.168.0.0/24``, and the OpenFlow 10-tuple additionally matches on MAC
addresses.  This module implements those primitives from scratch so that
the rest of the library does not depend on platform networking libraries.

All classes are immutable and hashable so they can be used as dictionary
keys (flow tables, ARP caches, policy tables).  The two address classes
are ``int`` subclasses, so a flow-table key that holds them hashes and
compares in C.
"""

from __future__ import annotations

import re
from typing import Iterable, Iterator, Union

from repro.exceptions import AddressError

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")

IPv4Like = Union["IPv4Address", str, int]
MACLike = Union["MACAddress", str, int]

#: Address -> its dotted quad, rendered once: cache keys and log lines ask
#: for the text per lookup, and the same ``str`` object keeps its hash.
#: Emptied when it reaches ``_DOTTED_QUADS_KEPT`` entries.
_DOTTED_QUADS: dict["IPv4Address", str] = {}
_DOTTED_QUADS_KEPT = 4096
#: Dotted quad -> its address, parsed once, and the same object each time:
#: a dict holding it as a key then finds it by identity, with no
#: ``IPv4Address.__eq__`` call.  Same bound as ``_DOTTED_QUADS``.
_PARSED: dict[str, "IPv4Address"] = {}


class IPv4Address(int):
    """A single IPv4 address: an immutable ``int`` in ``[0, 2**32)``.

    Accepts dotted-quad strings, integers in ``[0, 2**32)`` or another
    :class:`IPv4Address` (returned as it is).

    >>> IPv4Address("192.168.42.32").to_int()
    3232246304
    >>> str(IPv4Address(3232246304))
    '192.168.42.32'

    Being an ``int``, an address hashes and orders in C and finds (and is
    found by) the equal ``int`` in sets and dicts.  Its text is the dotted
    quad, in ``str``, ``repr`` and an empty format spec; any other spec is
    refused, as for a plain object.  Comparing with a dotted-quad
    *string* is equality only: ``IPv4Address("10.0.0.1") == "10.0.0.1"``
    holds but the two hash differently, so convert strings before using
    them as keys beside addresses.  It never equals a
    :class:`MACAddress`, whatever the two integers; it is true in a
    boolean context (``0.0.0.0`` too); and arithmetic other than
    ``address + offset`` gives a plain ``int``.
    """

    __slots__ = ()

    def __new__(cls, address: IPv4Like) -> "IPv4Address":
        if address.__class__ is cls:
            return address
        if isinstance(address, str):
            interned = _PARSED.get(address)
            if interned is None:
                if len(_PARSED) >= _DOTTED_QUADS_KEPT:
                    _PARSED.clear()
                interned = _PARSED[address] = int.__new__(cls, cls._parse(address))
            return interned
        if isinstance(address, int) and not isinstance(address, MACAddress):
            if not 0 <= address < 2**32:
                raise AddressError(f"IPv4 integer out of range: {address}")
            return int.__new__(cls, address)
        raise AddressError(f"cannot build IPv4Address from {type(address).__name__}")

    @staticmethod
    def _parse(text: str) -> int:
        match = _IPV4_RE.match(text.strip())
        if match is None:
            raise AddressError(f"invalid IPv4 address: {text!r}")
        a, b, c, d = map(int, match.groups())
        if a > 255 or b > 255 or c > 255 or d > 255:
            raise AddressError(f"invalid IPv4 address (octet > 255): {text!r}")
        return a << 24 | b << 16 | c << 8 | d

    def to_int(self) -> int:
        """Return the address as an unsigned 32-bit integer."""
        return int(self)

    def to_bytes(self) -> bytes:  # type: ignore[override]
        """Return the 4-byte big-endian representation."""
        return int.to_bytes(self, 4, "big")

    def octets(self) -> tuple[int, int, int, int]:
        """Return the four octets most-significant first."""
        return (self >> 24, self >> 16 & 0xFF, self >> 8 & 0xFF, self & 0xFF)

    def __str__(self) -> str:
        text = _DOTTED_QUADS.get(self)
        if text is None:
            if len(_DOTTED_QUADS) >= _DOTTED_QUADS_KEPT:
                _DOTTED_QUADS.clear()
            text = _DOTTED_QUADS[self] = (
                f"{self >> 24}.{self >> 16 & 0xFF}.{self >> 8 & 0xFF}.{self & 0xFF}"
            )
        return text

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    __format__ = object.__format__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return NotImplemented if isinstance(other, MACAddress) else int.__eq__(self, other)
        if isinstance(other, str):
            try:
                return int(self) == self._parse(other)
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, int):
            return NotImplemented if isinstance(other, MACAddress) else int.__ne__(self, other)
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = int.__hash__

    def __bool__(self) -> bool:
        return True

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address((int(self) + offset) % 2**32)


class IPv4Network:
    """An IPv4 CIDR prefix such as ``192.168.0.0/24``.

    A :class:`IPv4Network` supports containment tests against addresses,
    strings, integers and other networks, and iteration over host
    addresses, which the workload generators use to assign addresses.

    >>> IPv4Address("192.168.0.7") in IPv4Network("192.168.0.0/24")
    True
    """

    __slots__ = ("_network", "_prefix_len")

    def __init__(self, cidr: Union[str, "IPv4Network"], prefix_len: int | None = None) -> None:
        if isinstance(cidr, IPv4Network):
            self._network = cidr._network
            self._prefix_len = cidr._prefix_len
            return
        if prefix_len is None:
            if "/" in cidr:
                base, _, prefix_text = cidr.partition("/")
                try:
                    prefix_len = int(prefix_text)
                except ValueError as exc:
                    raise AddressError(f"invalid prefix length in {cidr!r}") from exc
            else:
                base = cidr
                prefix_len = 32
        else:
            base = str(cidr)
        if not 0 <= prefix_len <= 32:
            raise AddressError(f"prefix length out of range: {prefix_len}")
        self._prefix_len = prefix_len
        base_value = IPv4Address(base).to_int()
        self._network = base_value & self.netmask_int()

    def netmask_int(self) -> int:
        """Return the netmask as an integer."""
        if self._prefix_len == 0:
            return 0
        return (0xFFFFFFFF << (32 - self._prefix_len)) & 0xFFFFFFFF

    @property
    def network_address(self) -> IPv4Address:
        """Return the all-zero host address of the prefix."""
        return IPv4Address(self._network)

    @property
    def prefix_len(self) -> int:
        """Return the prefix length (0-32)."""
        return self._prefix_len

    def hosts(self) -> Iterator[IPv4Address]:
        """Iterate over usable host addresses (excludes network/broadcast for /30 and larger)."""
        first = self._network
        last = self._network | (~self.netmask_int() & 0xFFFFFFFF)
        if self._prefix_len >= 31:
            candidates: Iterable[int] = range(first, last + 1)
        else:
            candidates = range(first + 1, last)
        for value in candidates:
            yield IPv4Address(value)

    def __contains__(self, other: Union[IPv4Like, "IPv4Network"]) -> bool:
        if isinstance(other, IPv4Network):
            return (
                other._prefix_len >= self._prefix_len
                and (other._network & self.netmask_int()) == self._network
            )
        try:
            address = IPv4Address(other)
        except AddressError:
            return False
        return (address.to_int() & self.netmask_int()) == self._network

    def overlaps(self, other: "IPv4Network") -> bool:
        """Return ``True`` if the two prefixes share any address."""
        return other.network_address in self or self.network_address in other

    def __eq__(self, other: object) -> bool:
        if isinstance(other, str):
            try:
                other = IPv4Network(other)
            except AddressError:
                return NotImplemented
        if isinstance(other, IPv4Network):
            return self._network == other._network and self._prefix_len == other._prefix_len
        return NotImplemented

    def __hash__(self) -> int:
        return hash(("IPv4Network", self._network, self._prefix_len))

    def __str__(self) -> str:
        return f"{IPv4Address(self._network)}/{self._prefix_len}"

    def __repr__(self) -> str:
        return f"IPv4Network({str(self)!r})"


class MACAddress(int):
    """A 48-bit Ethernet MAC address: an immutable ``int`` in ``[0, 2**48)``.

    Accepts ``aa:bb:cc:dd:ee:ff`` / ``aa-bb-cc-dd-ee-ff`` strings, 48-bit
    integers or another :class:`MACAddress` (returned as it is).  Like
    :class:`IPv4Address` it hashes and orders as its integer, equals its
    own text, never equals an :class:`IPv4Address`, is always true, and
    renders as text only.
    """

    __slots__ = ()

    def __new__(cls, address: MACLike) -> "MACAddress":
        if address.__class__ is cls:
            return address
        if isinstance(address, str):
            text = address.strip()
            if not _MAC_RE.match(text):
                raise AddressError(f"invalid MAC address: {address!r}")
            return int.__new__(cls, int(text.replace(":", "").replace("-", ""), 16))
        if isinstance(address, int) and not isinstance(address, IPv4Address):
            if not 0 <= address < 2**48:
                raise AddressError(f"MAC integer out of range: {address}")
            return int.__new__(cls, address)
        raise AddressError(f"cannot build MACAddress from {type(address).__name__}")

    @classmethod
    def from_index(cls, index: int) -> "MACAddress":
        """Return a locally administered unicast MAC derived from ``index``.

        Used by the topology builder to hand out unique, stable MACs.
        """
        if index < 0 or index >= 2**40:
            raise AddressError(f"MAC index out of range: {index}")
        return cls((0x02 << 40) | index)

    def to_int(self) -> int:
        """Return the address as an unsigned 48-bit integer."""
        return int(self)

    def to_bytes(self) -> bytes:  # type: ignore[override]
        """Return the 6-byte big-endian representation."""
        return int.to_bytes(self, 6, "big")

    def __str__(self) -> str:
        raw = f"{int(self):012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"

    __format__ = object.__format__

    def __eq__(self, other: object) -> bool:
        if isinstance(other, int):
            return NotImplemented if isinstance(other, IPv4Address) else int.__eq__(self, other)
        if isinstance(other, str):
            try:
                return int.__eq__(self, MACAddress(other))
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __ne__(self, other: object) -> bool:
        if isinstance(other, int):
            return NotImplemented if isinstance(other, IPv4Address) else int.__ne__(self, other)
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal

    __hash__ = int.__hash__

    def __bool__(self) -> bool:
        return True


#: The Ethernet broadcast address.
BROADCAST_MAC = MACAddress(2**48 - 1)
