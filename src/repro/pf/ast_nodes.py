"""Abstract syntax tree for PF+=2.

The node set mirrors the subset of PF the paper uses plus the PF+=2
extensions: ``table``/``dict``/macro definitions, ``pass``/``block``
rules with ``from``/``to`` endpoints, ``with`` function-call predicates,
``quick`` and ``keep state``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterator, Optional, Union

if TYPE_CHECKING:  # pragma: no cover
    from repro.netsim.addresses import IPv4Network
    from repro.pf.ruleset import ControlFile

ACTION_PASS = "pass"
ACTION_BLOCK = "block"

#: Well-known service names accepted where a port is expected.
NAMED_PORTS = {
    "http": 80,
    "https": 443,
    "ssh": 22,
    "smtp": 25,
    "dns": 53,
    "telnet": 23,
    "ident": 113,
    "identpp": 783,
    "imap": 143,
    "pop3": 110,
    "smb": 445,
    "rdp": 3389,
}


# ---------------------------------------------------------------------------
# Expressions (arguments to ``with`` function calls)
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DictAccess:
    """``@src[userID]``, ``@dst[req-sig]``, ``@pubkeys[research]`` or ``*@src[key]``.

    ``concatenated`` marks the ``*@`` form, which joins the values from
    every response section instead of taking the latest one (§3.3).
    """

    dict_name: str
    key: str
    concatenated: bool = False

    def __str__(self) -> str:
        prefix = "*" if self.concatenated else ""
        return f"{prefix}@{self.dict_name}[{self.key}]"


@dataclass(frozen=True)
class MacroRef:
    """``$allowed`` — a reference to a macro definition."""

    name: str

    def __str__(self) -> str:
        return f"${self.name}"


@dataclass(frozen=True)
class Literal:
    """A bareword, number or quoted string argument."""

    value: str
    quoted: bool = False

    def __str__(self) -> str:
        return f'"{self.value}"' if self.quoted else self.value


@dataclass(frozen=True)
class TableRefExpr:
    """``<mail-server>`` used as a function argument."""

    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


Expr = Union[DictAccess, MacroRef, Literal, TableRefExpr]


# ---------------------------------------------------------------------------
# Endpoint (from/to) specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AnyAddress:
    """``any`` — matches every address."""

    def __str__(self) -> str:
        return "any"


@dataclass(frozen=True)
class TableRef:
    """``<lan>`` — the contents of a named address table."""

    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


@dataclass(frozen=True)
class AddressLiteral:
    """A literal IPv4 address or CIDR prefix appearing inline in a rule.

    ``network`` is what the parser validated the text as (``None`` when
    no parser checked it, e.g. a table member); the compiler reuses it
    instead of parsing the text a second time.
    """

    text: str
    network: Optional[IPv4Network] = field(default=None, compare=False, repr=False)

    def __str__(self) -> str:
        return self.text


AddressSpec = Union[AnyAddress, TableRef, AddressLiteral, MacroRef]


@dataclass(frozen=True)
class EndpointSpec:
    """One side of a rule: an address set, optional negation and optional port."""

    address: AddressSpec = field(default_factory=AnyAddress)
    negated: bool = False
    port: Optional[int] = None

    @classmethod
    def any(cls) -> "EndpointSpec":
        """Return the unconstrained endpoint (``any``)."""
        return cls()

    def is_any(self) -> bool:
        """Return ``True`` when the endpoint matches everything."""
        return isinstance(self.address, AnyAddress) and not self.negated and self.port is None

    def __str__(self) -> str:
        text = ("!" if self.negated else "") + str(self.address)
        if self.port is not None:
            text += f" port {self.port}"
        return text


# ---------------------------------------------------------------------------
# Predicates
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FuncCall:
    """A ``with`` predicate: a boolean function applied to evaluated arguments."""

    name: str
    args: tuple[Expr, ...] = ()

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(arg) for arg in self.args)})"


# ---------------------------------------------------------------------------
# Statements
# ---------------------------------------------------------------------------

@dataclass
class Rule:
    """One ``pass``/``block`` rule."""

    action: str
    src: EndpointSpec = field(default_factory=EndpointSpec.any)
    dst: EndpointSpec = field(default_factory=EndpointSpec.any)
    conditions: tuple[FuncCall, ...] = ()
    quick: bool = False
    keep_state: bool = False
    origin: str = ""
    line: int = 0
    # (the fields the text was rendered from, the text): every decision
    # is audited and cached under its rule's text, so it is rendered once
    # and kept for as long as those fields still compare equal.
    _rendered: Optional[tuple] = field(default=None, init=False, repr=False, compare=False)

    @property
    def is_pass(self) -> bool:
        """Return ``True`` for ``pass`` rules."""
        return self.action == ACTION_PASS

    @property
    def is_block(self) -> bool:
        """Return ``True`` for ``block`` rules."""
        return self.action == ACTION_BLOCK

    def __str__(self) -> str:
        rendered_from = (
            self.action, self.quick, self.src, self.dst, self.conditions, self.keep_state,
        )
        rendered = self._rendered
        if rendered is None or rendered[0] != rendered_from:
            rendered = self._rendered = (rendered_from, self._render())
        return rendered[1]

    def _render(self) -> str:
        parts = [self.action]
        if self.quick:
            parts.append("quick")
        if self.src.is_any() and self.dst.is_any():
            parts.append("all")
        else:
            parts.append(f"from {self.src}")
            parts.append(f"to {self.dst}")
        for condition in self.conditions:
            parts.append(f"with {condition}")
        if self.keep_state:
            parts.append("keep state")
        return " ".join(parts)


@dataclass
class TableDef:
    """``table <name> { item item ... }``; items are addresses, prefixes or nested tables."""

    name: str
    items: tuple[Union[AddressLiteral, TableRef], ...] = ()
    origin: str = ""

    def __str__(self) -> str:
        inner = " ".join(str(item) for item in self.items)
        return f"table <{self.name}> {{ {inner} }}"


@dataclass
class DictDef:
    """``dict <name> { key : value ... }`` — PF+=2's named dictionaries."""

    name: str
    entries: dict[str, str] = field(default_factory=dict)
    origin: str = ""

    def __str__(self) -> str:
        inner = " ".join(f"{k} : {v}" for k, v in self.entries.items())
        return f"dict <{self.name}> {{ {inner} }}"


@dataclass
class MacroDef:
    """``name = "value"`` — a PF macro."""

    name: str
    value: str
    origin: str = ""

    def __str__(self) -> str:
        return f'{self.name} = "{self.value}"'


Statement = Union[Rule, TableDef, DictDef, MacroDef]


# ---------------------------------------------------------------------------
# Rulesets
# ---------------------------------------------------------------------------

class Ruleset:
    """An ordered list of statements (the concatenation of ``.control`` files)."""

    def __init__(
        self,
        statements: Optional[list[Statement]] = None,
        name: str = "",
        parts: tuple[ControlFile, ...] = (),
    ) -> None:
        self.name = name
        self.statements: list[Statement] = list(statements or [])
        #: The registered files whose statements these are, in order, when
        #: a loader concatenated them: each keeps its own compile.  Empty
        #: for a single parse, and dropped by any later append.
        self.parts = parts

    def append(self, statement: Statement) -> None:
        """Append one statement."""
        self.statements.append(statement)
        self.parts = ()

    def rules(self) -> list[Rule]:
        """Return the rules in order."""
        return [s for s in self.statements if isinstance(s, Rule)]

    def tables(self) -> dict[str, TableDef]:
        """Return table definitions by name (later definitions win)."""
        return {s.name: s for s in self.statements if isinstance(s, TableDef)}

    def dicts(self) -> dict[str, DictDef]:
        """Return dict definitions by name (later definitions win)."""
        return {s.name: s for s in self.statements if isinstance(s, DictDef)}

    def macros(self) -> dict[str, str]:
        """Return macro values by name (later definitions win)."""
        return {s.name: s.value for s in self.statements if isinstance(s, MacroDef)}

    def to_text(self) -> str:
        """Serialise the ruleset back to PF+=2 source (one statement per line)."""
        return "\n".join(str(statement) for statement in self.statements)

    def __iter__(self) -> Iterator[Statement]:
        return iter(self.statements)

    def __len__(self) -> int:
        return len(self.statements)

    def __repr__(self) -> str:
        return f"Ruleset({self.name!r}, statements={len(self.statements)}, rules={len(self.rules())})"
