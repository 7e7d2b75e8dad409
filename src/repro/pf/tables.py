"""PF address tables.

``table <lan> { 192.168.0.0/24 }`` defines a named set of addresses and
prefixes; tables can nest (``table <int_hosts> { <lan> <server> }`` in
Figure 2).  :class:`TableSet` resolves the nesting (detecting cycles)
and answers the membership queries rule evaluation needs.
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Mapping, Optional

from repro.exceptions import AddressError, PFEvalError
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.pf.ast_nodes import AddressLiteral, TableDef, TableRef


class AddressTable:
    """A resolved (flattened) named set of IPv4 networks."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.networks: list[IPv4Network] = []

    def add(self, item: IPv4Network | IPv4Address | str) -> None:
        """Add an address or prefix to the table."""
        self.networks.append(_to_network(item))

    def __contains__(self, address: IPv4Address | str) -> bool:
        """Return ``True`` if the address falls inside any member prefix."""
        try:
            address = IPv4Address(address)
        except AddressError:
            return False
        return any(address in network for network in self.networks)

    def __len__(self) -> int:
        return len(self.networks)

    def __repr__(self) -> str:
        return f"AddressTable({self.name!r}, {[str(n) for n in self.networks]})"


class TableSet:
    """All tables of a ruleset, with nested references resolved lazily."""

    def __init__(self, definitions: Optional[dict[str, TableDef]] = None) -> None:
        self._definitions: dict[str, TableDef] = dict(definitions or {})
        self._resolved: dict[str, AddressTable] = {}
        #: Bumped on every mutation; compiled policies record the version
        #: they were built against and recompile when it moves (a file's
        #: kept compile is reused only for equal definitions).
        self.version = 0

    @classmethod
    def from_definitions(cls, definitions: dict[str, TableDef]) -> "TableSet":
        """Build a table set from parsed ``table`` statements."""
        return cls(definitions)

    @property
    def definitions(self) -> Mapping[str, TableDef]:
        """Return the definitions by name, read-only: what compiled rules depend on."""
        return MappingProxyType(self._definitions)

    def has_table(self, name: str) -> bool:
        """Return ``True`` if a table with this name is defined."""
        return name in self._definitions

    def resolve(self, name: str) -> AddressTable:
        """Return the flattened :class:`AddressTable` for ``name``.

        Raises :class:`~repro.exceptions.PFEvalError` for unknown tables
        and for cyclic nesting.
        """
        if name in self._resolved:
            return self._resolved[name]
        return self._resolve(name, ())

    def _resolve(self, name: str, chain: tuple[str, ...]) -> AddressTable:
        """:meth:`resolve`, inside the tables named by ``chain``."""
        if name in self._resolved:
            return self._resolved[name]
        if name in chain:
            cycle = " -> ".join(chain + (name,))
            raise PFEvalError(f"cyclic table definition: {cycle}")
        definition = self._definitions.get(name)
        if definition is None:
            raise PFEvalError(f"unknown table <{name}>")
        table = AddressTable(name)
        for item in definition.items:
            if isinstance(item, TableRef):
                nested = self._resolve(item.name, chain + (name,))
                table.networks.extend(nested.networks)
            elif isinstance(item, AddressLiteral):
                try:
                    table.add(item.text)
                except AddressError as error:
                    # Table text can be delegated (end-host) input: keep the
                    # failure inside the PFError family callers fail closed on.
                    raise PFEvalError(f"bad address in table <{name}>: {error}") from error
            else:
                raise PFEvalError(f"unsupported table item in <{name}>: {item!r}")
        self._resolved[name] = table
        return table

    def merge(self, other: "TableSet") -> None:
        """Add every definition from ``other`` (other's definitions win on clash)."""
        self._definitions.update(other._definitions)
        self._resolved.clear()
        self.version += 1

    def __len__(self) -> int:
        return len(self._definitions)


def _to_network(item: IPv4Network | IPv4Address | str) -> IPv4Network:
    if isinstance(item, IPv4Network):
        return item
    if isinstance(item, IPv4Address):
        return IPv4Network(str(item))
    return IPv4Network(str(item))
