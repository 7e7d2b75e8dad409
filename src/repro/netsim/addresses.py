"""IPv4 and MAC addressing primitives.

The PF+=2 policy language (Figures 2, 5, 7 and 8 of the paper) matches on
IP addresses, address *tables* and CIDR prefixes such as
``192.168.0.0/24``, and the OpenFlow 10-tuple additionally matches on MAC
addresses.  This module implements those primitives from scratch so that
the rest of the library does not depend on platform networking libraries.

All classes are immutable and hashable so they can be used as dictionary
keys (flow tables, ARP caches, policy tables).
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Iterable, Iterator, Union

from repro.exceptions import AddressError

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")

IPv4Like = Union["IPv4Address", str, int]
MACLike = Union["MACAddress", str, int]


@total_ordering
class IPv4Address:
    """A single IPv4 address.

    Accepts dotted-quad strings, integers in ``[0, 2**32)`` or another
    :class:`IPv4Address`.

    >>> IPv4Address("192.168.42.32").to_int()
    3232246304
    >>> str(IPv4Address(3232246304))
    '192.168.42.32'

    An address hashes like its integer value, so it finds (and is found
    by) the equal ``int`` in sets and dicts.  Comparing with a
    dotted-quad *string* is equality only: ``IPv4Address("10.0.0.1") ==
    "10.0.0.1"`` holds but the two hash differently, so convert strings
    before using them as keys beside addresses.
    """

    __slots__ = ("_value", "_text")

    def __init__(self, address: IPv4Like) -> None:
        # The dotted-quad text is rendered on first use and then kept
        # (cache keys and log lines ask for it once per lookup).
        self._text = None
        if isinstance(address, IPv4Address):
            self._value = address._value
            self._text = address._text
        elif isinstance(address, int):
            if not 0 <= address < 2**32:
                raise AddressError(f"IPv4 integer out of range: {address}")
            self._value = address
        elif isinstance(address, str):
            self._value = self._parse(address)
        else:
            raise AddressError(f"cannot build IPv4Address from {type(address).__name__}")

    @staticmethod
    def _parse(text: str) -> int:
        match = _IPV4_RE.match(text.strip())
        if match is None:
            raise AddressError(f"invalid IPv4 address: {text!r}")
        octets = [int(part) for part in match.groups()]
        if any(octet > 255 for octet in octets):
            raise AddressError(f"invalid IPv4 address (octet > 255): {text!r}")
        value = 0
        for octet in octets:
            value = (value << 8) | octet
        return value

    def to_int(self) -> int:
        """Return the address as an unsigned 32-bit integer."""
        return self._value

    def to_bytes(self) -> bytes:
        """Return the 4-byte big-endian representation."""
        return self._value.to_bytes(4, "big")

    def octets(self) -> tuple[int, int, int, int]:
        """Return the four octets most-significant first."""
        value = self._value
        return (
            (value >> 24) & 0xFF,
            (value >> 16) & 0xFF,
            (value >> 8) & 0xFF,
            value & 0xFF,
        )

    def is_private(self) -> bool:
        """Return ``True`` for RFC 1918 addresses (10/8, 172.16/12, 192.168/16)."""
        return (
            self in IPv4Network("10.0.0.0/8")
            or self in IPv4Network("172.16.0.0/12")
            or self in IPv4Network("192.168.0.0/16")
        )

    def is_loopback(self) -> bool:
        """Return ``True`` for 127/8 addresses."""
        return self in IPv4Network("127.0.0.0/8")

    def is_multicast(self) -> bool:
        """Return ``True`` for 224/4 addresses."""
        return self in IPv4Network("224.0.0.0/4")

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = ".".join(str(octet) for octet in self.octets())
        return text

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, IPv4Address):
            return self._value == other._value
        if isinstance(other, (str, int)):
            try:
                return self._value == IPv4Address(other)._value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "IPv4Address") -> bool:
        if not isinstance(other, IPv4Address):
            other = IPv4Address(other)
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __int__(self) -> int:
        return self._value

    def __add__(self, offset: int) -> "IPv4Address":
        return IPv4Address((self._value + offset) % 2**32)


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
    def netmask(self) -> IPv4Address:
        """Return the netmask as an :class:`IPv4Address`."""
        return IPv4Address(self.netmask_int())

    @property
    def network_address(self) -> IPv4Address:
        """Return the all-zero host address of the prefix."""
        return IPv4Address(self._network)

    @property
    def broadcast_address(self) -> IPv4Address:
        """Return the all-one host address of the prefix."""
        return IPv4Address(self._network | (~self.netmask_int() & 0xFFFFFFFF))

    @property
    def prefix_len(self) -> int:
        """Return the prefix length (0-32)."""
        return self._prefix_len

    def num_addresses(self) -> int:
        """Return the total number of addresses covered by the prefix."""
        return 2 ** (32 - self._prefix_len)

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


@total_ordering
class MACAddress:
    """A 48-bit Ethernet MAC address.

    Accepts ``aa:bb:cc:dd:ee:ff`` / ``aa-bb-cc-dd-ee-ff`` strings, 48-bit
    integers or another :class:`MACAddress`.
    """

    __slots__ = ("_value",)

    def __init__(self, address: MACLike) -> None:
        if isinstance(address, MACAddress):
            self._value = address._value
        elif isinstance(address, int):
            if not 0 <= address < 2**48:
                raise AddressError(f"MAC integer out of range: {address}")
            self._value = address
        elif isinstance(address, str):
            text = address.strip()
            if not _MAC_RE.match(text):
                raise AddressError(f"invalid MAC address: {address!r}")
            self._value = int(text.replace(":", "").replace("-", ""), 16)
        else:
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
        return self._value

    def to_bytes(self) -> bytes:
        """Return the 6-byte big-endian representation."""
        return self._value.to_bytes(6, "big")

    def is_broadcast(self) -> bool:
        """Return ``True`` for ff:ff:ff:ff:ff:ff."""
        return self._value == 2**48 - 1

    def is_multicast(self) -> bool:
        """Return ``True`` if the group bit is set (includes broadcast)."""
        return bool((self._value >> 40) & 0x01)

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (str, int)):
            try:
                other = MACAddress(other)
            except AddressError:
                return NotImplemented
        if isinstance(other, MACAddress):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "MACAddress") -> bool:
        if not isinstance(other, MACAddress):
            other = MACAddress(other)
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("MACAddress", self._value))

    def __int__(self) -> int:
        return self._value


#: The Ethernet broadcast address.
BROADCAST_MAC = MACAddress(2**48 - 1)
