"""Compilation and indexing of PF+=2 rulesets — the one place a rule is matched.

Walking the AST per flow would re-parse every address literal, re-read
every macro and re-dispatch on node types for each
:class:`~repro.pf.ast_nodes.Rule`: fine for the paper's hand-written
figures, linear in the thousands of rules the benchmarks (E10b) sweep.

This module pays that cost once, when a
:class:`~repro.pf.evaluator.PolicyEvaluator` first evaluates:

* every rule becomes a :class:`CompiledRule` — a closure that checks the
  flow against pre-parsed integer network/mask pairs (address literals and
  macro address lists are parsed exactly once), with condition arguments
  pre-resolved when they are literals or macros;
* rules are placed in a :class:`RuleIndex` keyed on the destination port,
  with an additional first-octet prefix gate for literal destination
  prefixes, so a decision only visits candidate rules;
* rules the index cannot soundly skip (no destination port, a source
  endpoint that can raise) live in the always-visited scan bucket, and an
  evaluation without a flow visits every rule, so last-match-wins,
  ``quick`` and error semantics are those of reading the rules top-down.

The index only ever *skips* rules that provably cannot match (destination
port mismatch, destination octet outside every literal prefix) and never
reorders them.  ``tests/test_pf_compiler_parity.py`` checks exactly that
against the AST walk kept as a test oracle
(``tests/reference_evaluator.py``), over generated rulesets, the
benchmark rulesets and the paper-figure configurations.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable, Optional, Sequence

from repro.exceptions import PFEvalError
from repro.netsim.addresses import AddressError, IPv4Network
from repro.pf.ast_nodes import (
    AddressLiteral,
    AnyAddress,
    DictAccess,
    EndpointSpec,
    FuncCall,
    Literal,
    MacroRef,
    Rule,
    Ruleset,
    TableRef,
    TableRefExpr,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.pf.evaluator import EvalContext
    from repro.pf.tables import TableSet

#: Signature of a compiled address matcher: ``(address_int, context) -> bool``.
AddressMatcher = Callable[[int, "EvalContext"], bool]
#: Signature of a compiled condition: ``(context) -> bool``.
ConditionFn = Callable[["EvalContext"], bool]


def _split_list(value: str) -> Sequence[str]:
    text = value.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return text.split()


def _parse_literal(text: str) -> Optional[tuple[int, int]]:
    """Parse an address/CIDR literal once into ``(mask, network)`` ints.

    Returns ``None`` for unparseable text, which never matches.
    """
    try:
        network = IPv4Network(text)
    except AddressError:
        return None
    return (network.netmask_int(), network.network_address.to_int())


def _octets_for(mask_net: tuple[int, int]) -> Optional[frozenset[int]]:
    """Return the set of first octets a prefix can cover (``None`` = any)."""
    mask, net = mask_net
    high_mask = (mask >> 24) & 0xFF
    base = (net >> 24) & 0xFF
    span = 0xFF & ~high_mask
    if span > 7:
        # Shorter than /5: the octet set is too wide to be a useful gate.
        return None
    return frozenset(range(base, base + span + 1))


class _CompiledAddress:
    """One endpoint address spec, pre-resolved as far as it safely can be."""

    __slots__ = ("matcher", "octets", "total")

    def __init__(self, matcher: Optional[AddressMatcher], octets: Optional[frozenset[int]], total: bool) -> None:
        #: ``None`` means "matches everything" (``any``).
        self.matcher = matcher
        #: First-octet gate for literal prefixes (``None`` = no gate).
        self.octets = octets
        #: ``True`` when evaluation can never raise (safe to skip via the index).
        self.total = total


def _compile_address(spec: object, macros: dict[str, str], tables: "TableSet") -> _CompiledAddress:
    if isinstance(spec, AnyAddress):
        return _CompiledAddress(None, None, True)
    if isinstance(spec, AddressLiteral):
        parsed = _parse_literal(spec.text)
        if parsed is None:
            return _CompiledAddress(lambda value, ctx: False, frozenset(), True)
        mask, net = parsed

        def literal_matcher(value: int, ctx: "EvalContext", _mask: int = mask, _net: int = net) -> bool:
            return (value & _mask) == _net

        return _CompiledAddress(literal_matcher, _octets_for(parsed), True)
    if isinstance(spec, TableRef):
        name = spec.name
        # Resolvable now == cannot raise later (tables are only ever added,
        # and a redefinition bumps the TableSet version, forcing a recompile).
        try:
            tables.resolve(name)
            total = True
        except PFEvalError:
            total = False

        def table_matcher(value: int, ctx: "EvalContext", _name: str = name) -> bool:
            return any((value & n.netmask_int()) == n.network_address.to_int()
                       for n in ctx.tables.resolve(_name).networks)

        return _CompiledAddress(table_matcher, None, total)
    if isinstance(spec, MacroRef):
        value = macros.get(spec.name)
        if value is None:
            message = f"unknown macro ${spec.name} used as an address"

            def raising_matcher(value_int: int, ctx: "EvalContext", _msg: str = message) -> bool:
                raise PFEvalError(_msg)

            return _CompiledAddress(raising_matcher, None, False)
        parts = [_parse_literal(part) for part in _split_list(value)]
        parsed_parts = tuple(part for part in parts if part is not None)

        def macro_matcher(value_int: int, ctx: "EvalContext", _parts: tuple = parsed_parts) -> bool:
            return any((value_int & mask) == net for mask, net in _parts)

        octets: Optional[frozenset[int]] = None
        part_octets = [_octets_for(part) for part in parsed_parts]
        if len(parsed_parts) == len(parts) and all(po is not None for po in part_octets):
            octets = frozenset().union(*part_octets) if part_octets else frozenset()
        return _CompiledAddress(macro_matcher, octets, True)
    raise PFEvalError(f"unsupported endpoint address spec: {spec!r}")


class _CompiledEndpoint:
    """A ``from``/``to`` clause compiled to port + pre-parsed address checks."""

    __slots__ = ("port", "matcher", "negated", "octets", "total")

    def __init__(self, endpoint: EndpointSpec, macros: dict[str, str], tables: "TableSet") -> None:
        self.port = endpoint.port
        compiled = _compile_address(endpoint.address, macros, tables)
        self.matcher = compiled.matcher
        self.negated = endpoint.negated
        # Negation makes a prefix gate invalid (the rule matches *outside*
        # the prefix), so only un-negated endpoints keep their octet set.
        self.octets = compiled.octets if not endpoint.negated else None
        self.total = compiled.total

    def matches(self, address_int: int, port: int, context: "EvalContext") -> bool:
        if self.port is not None and self.port != port:
            return False
        if self.matcher is None:
            matched = True
        else:
            matched = self.matcher(address_int, context)
        return not matched if self.negated else matched


def _compile_condition(condition: FuncCall, macros: dict[str, str]) -> ConditionFn:
    """Compile one ``with`` predicate, pre-resolving literal/macro arguments."""
    resolvers: list[object] = []
    all_const = True
    for argument in condition.args:
        if isinstance(argument, Literal):
            resolvers.append(("const", argument.value))
        elif isinstance(argument, MacroRef):
            value = macros.get(argument.name)
            if value is None:
                message = f"unknown macro ${argument.name}"

                def raising_resolver(ctx: "EvalContext", _msg: str = message) -> object:
                    raise PFEvalError(_msg)

                resolvers.append(("fn", raising_resolver))
                all_const = False
            else:
                resolvers.append(("const", value))
        elif isinstance(argument, DictAccess):
            def dict_resolver(
                ctx: "EvalContext",
                _name: str = argument.dict_name,
                _key: str = argument.key,
                _concat: bool = argument.concatenated,
            ) -> object:
                return ctx.dictionary_lookup(_name, _key, concatenated=_concat)

            resolvers.append(("fn", dict_resolver))
            all_const = False
        elif isinstance(argument, TableRefExpr):
            def table_resolver(ctx: "EvalContext", _name: str = argument.name) -> object:
                return [str(network) for network in ctx.tables.resolve(_name).networks]

            resolvers.append(("fn", table_resolver))
            all_const = False
        else:
            message = f"cannot resolve expression {argument!r}"

            def unknown_resolver(ctx: "EvalContext", _msg: str = message) -> object:
                raise PFEvalError(_msg)

            resolvers.append(("fn", unknown_resolver))
            all_const = False
    name = condition.name
    if all_const:
        fixed_args = [value for _, value in resolvers]

        def constant_call(ctx: "EvalContext", _name: str = name, _args: list = fixed_args) -> bool:
            return ctx.registry.call(_name, ctx, _args)

        return constant_call

    steps = tuple(resolvers)

    def dynamic_call(ctx: "EvalContext", _name: str = name, _steps: tuple = steps) -> bool:
        args = [value if kind == "const" else value(ctx) for kind, value in _steps]
        return ctx.registry.call(_name, ctx, args)

    return dynamic_call


class CompiledRule:
    """One rule compiled to closures, plus the keys the index needs."""

    __slots__ = (
        "rule",
        "position",
        "src",
        "dst",
        "conditions",
        "address_free",
        "index_port",
        "dst_octets",
    )

    def __init__(self, rule: Rule, position: int, macros: dict[str, str], tables: "TableSet") -> None:
        self.rule = rule
        self.position = position
        self.src = _CompiledEndpoint(rule.src, macros, tables)
        self.dst = _CompiledEndpoint(rule.dst, macros, tables)
        self.conditions = tuple(_compile_condition(c, macros) for c in rule.conditions)
        self.address_free = rule.src.is_any() and rule.dst.is_any()
        # A rule's src is evaluated before its dst, so skipping a rule on its
        # dst port is only sound when the src side cannot raise.
        if self.src.total and self.dst.port is not None:
            self.index_port = self.dst.port
        else:
            self.index_port = None
        self.dst_octets = self.dst.octets if self.src.total else None

    def matches(self, context: "EvalContext") -> bool:
        flow = context.flow
        if flow is not None:
            if not self.src.matches(flow.src_ip.to_int(), flow.src_port, context):
                return False
            if not self.dst.matches(flow.dst_ip.to_int(), flow.dst_port, context):
                return False
        elif not self.address_free:
            return False
        for condition in self.conditions:
            if not condition(context):
                return False
        return True


class RuleIndex:
    """Destination-port buckets plus the always-visited scan bucket.

    ``candidates(port)`` merges the port bucket with the scan bucket in
    original rule order; rules the index cannot safely skip live in the
    scan bucket, which degrades gracefully to a linear walk.
    """

    def __init__(self, compiled: Sequence[CompiledRule]) -> None:
        self._port_buckets: dict[int, list[CompiledRule]] = {}
        self._scan: list[CompiledRule] = []
        for rule in compiled:
            if rule.index_port is not None:
                self._port_buckets.setdefault(rule.index_port, []).append(rule)
            else:
                self._scan.append(rule)
        self._scan_only = tuple(self._scan)
        # Merged candidate lists are cached per indexed port only, so the
        # cache is bounded by the number of distinct ports in the ruleset
        # (a port sweep over unindexed ports shares _scan_only).
        self._candidates_cache: dict[int, tuple[CompiledRule, ...]] = {}
        self.indexed_rules = sum(len(bucket) for bucket in self._port_buckets.values())
        self.scan_rules = len(self._scan)

    def candidates(self, dst_port: int) -> tuple[CompiledRule, ...]:
        bucket = self._port_buckets.get(dst_port)
        if not bucket:
            return self._scan_only
        cached = self._candidates_cache.get(dst_port)
        if cached is not None:
            return cached
        merged = tuple(sorted(bucket + self._scan, key=lambda rule: rule.position))
        self._candidates_cache[dst_port] = merged
        return merged


class CompiledPolicy:
    """A fully compiled ruleset: per-rule closures + the candidate index."""

    def __init__(self, ruleset: Ruleset, macros: dict[str, str], tables: "TableSet") -> None:
        self.rules = tuple(
            CompiledRule(rule, position, macros, tables)
            for position, rule in enumerate(ruleset.rules())
        )
        self.index = RuleIndex(self.rules)
        self.table_version = tables.version
        # Counters the benchmarks assert on (PolicyEvaluator.stats()).
        self.index_lookups = 0
        self.candidates_visited = 0
        self.gate_skipped = 0

    def stats(self) -> dict[str, float]:
        """Return compile/index counters."""
        return {
            "compiled_rules": float(len(self.rules)),
            "indexed_rules": float(self.index.indexed_rules),
            "scan_bucket_rules": float(self.index.scan_rules),
            "index_lookups": float(self.index_lookups),
            "candidates_visited": float(self.candidates_visited),
            "gate_skipped": float(self.gate_skipped),
        }
