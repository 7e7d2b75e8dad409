"""The address classes the int-valued ones replaced, kept as a test oracle.

This is ``repro.netsim.addresses.IPv4Address`` and ``MACAddress`` as
they stood before both became ``int`` subclasses: an object holding the
integer in a slot (and, for IPv4, its dotted quad once rendered), a
Python ``__hash__`` (the MAC one hashing a ``("MACAddress", value)``
tuple), equality that converts a string or an ``int`` operand, and
``total_ordering`` over ``__lt__``.  ``tests/test_netsim_addresses.py``
compares them with the real classes over generated integers and dotted
quads.  It is not importable from ``src/`` and nothing outside the tests
may use it.

One behaviour of the original is a bug the replacement fixes, and the
differential test checks the fix instead of the parity:
``ReferenceMACAddress(5) == 5`` holds, but the two hash differently, so
``5 in {ReferenceMACAddress(5)}`` is false.
"""

from __future__ import annotations

import re
from functools import total_ordering
from typing import Union

from repro.exceptions import AddressError

_IPV4_RE = re.compile(r"^(\d{1,3})\.(\d{1,3})\.(\d{1,3})\.(\d{1,3})$")
_MAC_RE = re.compile(r"^([0-9a-fA-F]{2}[:\-]){5}[0-9a-fA-F]{2}$")


@total_ordering
class ReferenceIPv4Address:
    """A single IPv4 address, one object around one integer."""

    __slots__ = ("_value", "_text")

    def __init__(self, address: Union["ReferenceIPv4Address", str, int]) -> None:
        self._text = None
        if isinstance(address, ReferenceIPv4Address):
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
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(4, "big")

    def octets(self) -> tuple[int, int, int, int]:
        value = self._value
        return (
            (value >> 24) & 0xFF,
            (value >> 16) & 0xFF,
            (value >> 8) & 0xFF,
            value & 0xFF,
        )

    def __str__(self) -> str:
        text = self._text
        if text is None:
            text = self._text = ".".join(str(octet) for octet in self.octets())
        return text

    def __repr__(self) -> str:
        return f"IPv4Address({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, ReferenceIPv4Address):
            return self._value == other._value
        if isinstance(other, (str, int)):
            try:
                return self._value == ReferenceIPv4Address(other)._value
            except AddressError:
                return NotImplemented
        return NotImplemented

    def __lt__(self, other: "ReferenceIPv4Address") -> bool:
        if not isinstance(other, ReferenceIPv4Address):
            other = ReferenceIPv4Address(other)
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(self._value)

    def __int__(self) -> int:
        return self._value

    def __add__(self, offset: int) -> "ReferenceIPv4Address":
        return ReferenceIPv4Address((self._value + offset) % 2**32)


@total_ordering
class ReferenceMACAddress:
    """A 48-bit Ethernet MAC address, one object around one integer."""

    __slots__ = ("_value",)

    def __init__(self, address: Union["ReferenceMACAddress", str, int]) -> None:
        if isinstance(address, ReferenceMACAddress):
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
    def from_index(cls, index: int) -> "ReferenceMACAddress":
        if index < 0 or index >= 2**40:
            raise AddressError(f"MAC index out of range: {index}")
        return cls((0x02 << 40) | index)

    def to_int(self) -> int:
        return self._value

    def to_bytes(self) -> bytes:
        return self._value.to_bytes(6, "big")

    def is_broadcast(self) -> bool:
        return self._value == 2**48 - 1

    def is_multicast(self) -> bool:
        return bool((self._value >> 40) & 0x01)

    def __str__(self) -> str:
        raw = f"{self._value:012x}"
        return ":".join(raw[i : i + 2] for i in range(0, 12, 2))

    def __repr__(self) -> str:
        return f"MACAddress({str(self)!r})"

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (str, int)):
            try:
                other = ReferenceMACAddress(other)
            except AddressError:
                return NotImplemented
        if isinstance(other, ReferenceMACAddress):
            return self._value == other._value
        return NotImplemented

    def __lt__(self, other: "ReferenceMACAddress") -> bool:
        if not isinstance(other, ReferenceMACAddress):
            other = ReferenceMACAddress(other)
        return self._value < other._value

    def __hash__(self) -> int:
        return hash(("MACAddress", self._value))

    def __int__(self) -> int:
        return self._value
