"""Recursive-descent parser for PF+=2.

Because backslash continuations are collapsed by the lexer, rule
boundaries are recognised structurally: a new statement starts at a
``pass``, ``block``, ``table`` or ``dict`` keyword or at a macro
assignment.  This is also what lets ``requirements`` values — which hold
several rules on one logical line (Figures 3, 4 and 6) — parse without
any special casing.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import PFParseError
from repro.netsim.addresses import IPv4Network
from repro.exceptions import AddressError
from repro.pf import lexer
from repro.pf.ast_nodes import (
    ACTION_BLOCK,
    ACTION_PASS,
    AddressLiteral,
    AnyAddress,
    DictAccess,
    DictDef,
    EndpointSpec,
    Expr,
    FuncCall,
    Literal,
    MacroDef,
    MacroRef,
    NAMED_PORTS,
    Rule,
    Ruleset,
    TableDef,
    TableRef,
    TableRefExpr,
)
from repro.pf.lexer import Token, tokenize

_ACTIONS = {ACTION_PASS, ACTION_BLOCK}


class Parser:
    """Parses a token stream into a :class:`~repro.pf.ast_nodes.Ruleset`."""

    def __init__(self, tokens: list[Token], origin: str = "") -> None:
        self._tokens = tokens
        self._position = 0
        self._origin = origin

    # ------------------------------------------------------------------
    # Token helpers
    # ------------------------------------------------------------------

    def _peek(self) -> Token:
        # The stream ends in EOF and _advance never steps past it.
        return self._tokens[self._position]

    def _advance(self) -> Token:
        token = self._tokens[self._position]
        if token.type != lexer.EOF:
            self._position += 1
        return token

    def _expect(self, token_type: str, description: str = "") -> Token:
        token = self._peek()
        if token.type != token_type:
            what = description or token_type
            raise PFParseError(
                f"{self._origin}: expected {what} but found {token.value!r} (line {token.line})",
                line=token.line,
            )
        return self._advance()

    def _expect_word(self, *values: str) -> Token:
        token = self._peek()
        if token.type != lexer.WORD or (values and not token.is_word(*values)):
            expected = "/".join(values) if values else "a word"
            raise PFParseError(
                f"{self._origin}: expected {expected} but found {token.value!r} (line {token.line})",
                line=token.line,
            )
        return self._advance()

    def _at_eof(self) -> bool:
        return self._peek().type == lexer.EOF

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------

    def parse(self) -> Ruleset:
        """Parse the whole token stream."""
        ruleset = Ruleset(name=self._origin)
        while not self._at_eof():
            ruleset.append(self._parse_statement())
        return ruleset

    def _parse_statement(self):
        token = self._peek()
        if token.type != lexer.WORD:
            raise PFParseError(
                f"{self._origin}: unexpected {token.value!r} at start of statement (line {token.line})",
                line=token.line,
            )
        word = token.value.lower()
        if word in _ACTIONS:
            return self._parse_rule()
        if word == "table":
            return self._parse_table()
        if word == "dict":
            return self._parse_dict()
        # Not EOF, so a next token (at worst EOF) exists.
        if self._tokens[self._position + 1].type == lexer.EQUALS:
            return self._parse_macro()
        raise PFParseError(
            f"{self._origin}: unexpected word {token.value!r} at start of statement (line {token.line})",
            line=token.line,
        )

    # ------------------------------------------------------------------
    # Definitions
    # ------------------------------------------------------------------

    def _parse_table(self) -> TableDef:
        start = self._expect_word("table")
        self._expect(lexer.LANGLE, "'<'")
        name = self._expect(lexer.WORD, "table name").value
        self._expect(lexer.RANGLE, "'>'")
        self._expect(lexer.LBRACE, "'{'")
        items: list = []
        while self._peek().type != lexer.RBRACE:
            token = self._peek()
            if token.type == lexer.LANGLE:
                self._advance()
                nested = self._expect(lexer.WORD, "table name").value
                self._expect(lexer.RANGLE, "'>'")
                items.append(TableRef(nested))
            elif token.type == lexer.WORD:
                items.append(AddressLiteral(self._advance().value))
            elif token.type == lexer.COMMA:
                self._advance()
            else:
                raise PFParseError(
                    f"{self._origin}: unexpected {token.value!r} inside table <{name}> (line {token.line})",
                    line=token.line,
                )
        self._expect(lexer.RBRACE, "'}'")
        return TableDef(name=name, items=tuple(items), origin=self._origin or f"line {start.line}")

    def _parse_dict(self) -> DictDef:
        start = self._expect_word("dict")
        self._expect(lexer.LANGLE, "'<'")
        name = self._expect(lexer.WORD, "dict name").value
        self._expect(lexer.RANGLE, "'>'")
        self._expect(lexer.LBRACE, "'{'")
        entries: dict[str, str] = {}
        while self._peek().type != lexer.RBRACE:
            key_token = self._peek()
            if key_token.type == lexer.COMMA:
                self._advance()
                continue
            key = self._expect(lexer.WORD, "dict key").value
            self._expect(lexer.COLON, "':'")
            value_token = self._peek()
            if value_token.type in (lexer.WORD, lexer.STRING):
                entries[key] = self._advance().value
            else:
                raise PFParseError(
                    f"{self._origin}: expected a value for dict key {key!r} (line {value_token.line})",
                    line=value_token.line,
                )
        self._expect(lexer.RBRACE, "'}'")
        return DictDef(name=name, entries=entries, origin=self._origin or f"line {start.line}")

    def _parse_macro(self) -> MacroDef:
        name = self._expect(lexer.WORD, "macro name").value
        self._expect(lexer.EQUALS, "'='")
        token = self._peek()
        if token.type in (lexer.STRING, lexer.WORD):
            value = self._advance().value
        else:
            raise PFParseError(
                f"{self._origin}: expected a macro value for {name!r} (line {token.line})",
                line=token.line,
            )
        return MacroDef(name=name, value=value, origin=self._origin)

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def _parse_rule(self) -> Rule:
        action_token = self._advance()  # _parse_statement saw the action word
        action = action_token.value.lower()
        quick = False
        src = EndpointSpec.any()
        dst = EndpointSpec.any()
        conditions: list[FuncCall] = []
        keep_state = False

        while True:
            token = self._peek()
            if token.type != lexer.WORD:
                break
            word = token.value.lower()
            if word == "all":
                self._advance()
                continue
            if word == "from":
                self._advance()
                src = self._parse_endpoint()
                continue
            if word == "to":
                self._advance()
                dst = self._parse_endpoint()
                continue
            if word == "with":
                self._advance()
                conditions.append(self._parse_funccall())
                continue
            if word == "keep":
                self._advance()
                self._expect_word("state")
                keep_state = True
                continue
            if word == "quick":
                self._advance()
                quick = True
                continue
            break

        return Rule(
            action=action,
            src=src,
            dst=dst,
            conditions=tuple(conditions),
            quick=quick,
            keep_state=keep_state,
            origin=self._origin,
            line=action_token.line,
        )

    def _parse_endpoint(self) -> EndpointSpec:
        negated = False
        if self._peek().type == lexer.BANG:
            self._advance()
            negated = True
        token = self._peek()
        address = None
        if token.type == lexer.LANGLE:
            self._advance()
            name = self._expect(lexer.WORD, "table name").value
            self._expect(lexer.RANGLE, "'>'")
            address = TableRef(name)
        elif token.type == lexer.DOLLAR:
            self._advance()
            name = self._expect(lexer.WORD, "macro name").value
            address = MacroRef(name)
        elif token.type == lexer.WORD:
            if token.is_word("any"):
                self._advance()
                address = AnyAddress()
            elif (network := _parse_address(token.value)) is not None:
                self._advance()
                address = AddressLiteral(token.value, network)
            elif token.is_word("port"):
                # "from port http" with an implicit any address.
                address = AnyAddress()
            else:
                raise PFParseError(
                    f"{self._origin}: unexpected endpoint {token.value!r} (line {token.line})",
                    line=token.line,
                )
        else:
            raise PFParseError(
                f"{self._origin}: unexpected endpoint token {token.value!r} (line {token.line})",
                line=token.line,
            )

        port: Optional[int] = None
        if self._peek().is_word("port"):
            self._advance()
            port = self._parse_port()
        return EndpointSpec(address=address, negated=negated, port=port)

    def _parse_port(self) -> int:
        token = self._expect(lexer.WORD, "port number or service name")
        value = token.value.lower()
        if value.isdigit():
            port = int(value)
            if not 0 < port <= 0xFFFF:
                raise PFParseError(
                    f"{self._origin}: port out of range: {value} (line {token.line})", line=token.line
                )
            return port
        if value in NAMED_PORTS:
            return NAMED_PORTS[value]
        raise PFParseError(
            f"{self._origin}: unknown service name {token.value!r} (line {token.line})",
            line=token.line,
        )

    def _parse_funccall(self) -> FuncCall:
        name = self._expect(lexer.WORD, "function name").value
        self._expect(lexer.LPAREN, "'('")
        args: list[Expr] = []
        while self._peek().type != lexer.RPAREN:
            if self._peek().type == lexer.COMMA:
                self._advance()
                continue
            args.append(self._parse_expr())
        self._expect(lexer.RPAREN, "')'")
        return FuncCall(name=name, args=tuple(args))

    def _parse_expr(self) -> Expr:
        token = self._peek()
        if token.type == lexer.STAR:
            self._advance()
            self._expect(lexer.AT, "'@' after '*'")
            return self._parse_dict_access(concatenated=True)
        if token.type == lexer.AT:
            self._advance()
            return self._parse_dict_access(concatenated=False)
        if token.type == lexer.DOLLAR:
            self._advance()
            name = self._expect(lexer.WORD, "macro name").value
            return MacroRef(name)
        if token.type == lexer.LANGLE:
            self._advance()
            name = self._expect(lexer.WORD, "table name").value
            self._expect(lexer.RANGLE, "'>'")
            return TableRefExpr(name)
        if token.type == lexer.STRING:
            self._advance()
            return Literal(token.value, quoted=True)
        if token.type == lexer.WORD:
            self._advance()
            return Literal(token.value)
        raise PFParseError(
            f"{self._origin}: unexpected function argument {token.value!r} (line {token.line})",
            line=token.line,
        )

    def _parse_dict_access(self, *, concatenated: bool) -> DictAccess:
        name = self._expect(lexer.WORD, "dictionary name").value
        self._expect(lexer.LBRACKET, "'['")
        key = self._expect(lexer.WORD, "dictionary key").value
        self._expect(lexer.RBRACKET, "']'")
        return DictAccess(dict_name=name, key=key, concatenated=concatenated)


def _parse_address(text: str) -> Optional[IPv4Network]:
    """Return a bare word as an IPv4 prefix (an address is a /32), or ``None``."""
    try:
        return IPv4Network(text)
    except AddressError:
        return None


def parse_ruleset(text: str, origin: str = "") -> Ruleset:
    """Parse PF+=2 source text into a :class:`Ruleset`."""
    return Parser(tokenize(text), origin=origin).parse()


def parse_rules_text(text: str, origin: str = "requirements") -> Ruleset:
    """Parse rule text embedded in a ``requirements`` value.

    Identical to :func:`parse_ruleset`; the separate name documents the
    call sites where delegated (possibly attacker-supplied) rule text is
    being parsed, which must never raise uncaught exceptions into the
    controller — callers are expected to catch
    :class:`~repro.exceptions.PFError`.
    """
    return parse_ruleset(text, origin=origin)
