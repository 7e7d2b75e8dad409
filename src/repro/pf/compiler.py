"""Compilation and indexing of PF+=2 rulesets — the one place a rule is matched.

Walking the AST per flow would re-parse every address literal, re-read
every macro and re-dispatch on node types for each
:class:`~repro.pf.ast_nodes.Rule`: fine for the paper's hand-written
figures, linear in the thousands of rules the benchmarks (E10b) sweep.

This module pays that cost once, when a
:class:`~repro.pf.evaluator.PolicyEvaluator` first evaluates:

* every rule becomes a :class:`CompiledRule` — a closure that checks the
  flow against pre-parsed integer network/mask pairs (address literals and
  macro address lists are parsed exactly once, a literal by the parser),
  with condition arguments pre-resolved when they are literals or macros;
* rules are placed in a :class:`RuleIndex` keyed on the destination port,
  with an additional first-octet prefix gate for literal destination
  prefixes, so a decision only visits candidate rules;
* rules the index cannot soundly skip (no destination port, a source
  endpoint that can raise) live in the always-visited scan bucket, and an
  evaluation without a flow visits every rule, so last-match-wins,
  ``quick`` and error semantics are those of reading the rules top-down.

A compiled rule depends on its own text and on the merged macro values
and table definitions, nothing else, so a registered ``.control`` file
keeps its compiled rules (:meth:`~repro.pf.ruleset.ControlFile.compiled_rules`)
and :class:`CompiledPolicy` concatenates them: a reload compiles only the
files whose text, or whose macros and tables, moved.  A rule that raises
whenever it is reached (an unknown macro, an endpoint table that does not
resolve) carries that error as its ``defect``, which reload validation
refuses.

The index only ever *skips* rules that provably cannot match (destination
port mismatch, destination octet outside every literal prefix) and never
reorders them.  ``tests/test_pf_compiler_parity.py`` checks exactly that
against the AST walk kept as a test oracle
(``tests/reference_evaluator.py``), over generated rulesets, the
benchmark rulesets and the paper-figure configurations.
"""

from __future__ import annotations

from functools import lru_cache
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


def _mask_net(network: IPv4Network) -> tuple[int, int]:
    return (network.netmask_int(), network.network_address.to_int())


def _parse_literal(text: str) -> Optional[tuple[int, int]]:
    """Parse an address/CIDR literal once into ``(mask, network)`` ints.

    Returns ``None`` for unparseable text, which never matches.
    """
    try:
        return _mask_net(IPv4Network(text))
    except AddressError:
        return None


def _octets_for(mask_net: tuple[int, int]) -> Optional[frozenset[int]]:
    """Return the set of first octets a prefix can cover (``None`` = any)."""
    mask, net = mask_net
    high_mask = (mask >> 24) & 0xFF
    base = (net >> 24) & 0xFF
    span = 0xFF & ~high_mask
    if span > 7:
        # Shorter than /5: the octet set is too wide to be a useful gate.
        return None
    return _octet_range(base, span)


@lru_cache(maxsize=None)
def _octet_range(base: int, span: int) -> frozenset[int]:
    # One shared set per (base, span), at most 256 x 8 of them: a kept
    # compile holds a gate per literal prefix, most of them alike.
    return frozenset(range(base, base + span + 1))


class _CompiledAddress:
    """One endpoint address spec, pre-resolved as far as it safely can be."""

    __slots__ = ("matcher", "octets", "defect")

    def __init__(
        self, matcher: Optional[AddressMatcher], octets: Optional[frozenset[int]], defect: Optional[str]
    ) -> None:
        #: ``None`` means "matches everything" (``any``).
        self.matcher = matcher
        #: First-octet gate for literal prefixes (``None`` = no gate).
        self.octets = octets
        #: The error evaluation raises every time it gets here, or ``None``
        #: when it never raises (only then may the index skip past it).
        self.defect = defect


def _compile_address(spec: object, macros: dict[str, str], tables: "TableSet") -> _CompiledAddress:
    if isinstance(spec, AnyAddress):
        return _CompiledAddress(None, None, None)
    if isinstance(spec, AddressLiteral):
        parsed = _mask_net(spec.network) if spec.network is not None else _parse_literal(spec.text)
        if parsed is None:
            return _CompiledAddress(lambda value, ctx: False, frozenset(), None)
        mask, net = parsed

        def literal_matcher(value: int, ctx: "EvalContext", _mask: int = mask, _net: int = net) -> bool:
            return (value & _mask) == _net

        return _CompiledAddress(literal_matcher, _octets_for(parsed), None)
    if isinstance(spec, TableRef):
        name = spec.name
        # Resolvable now == cannot raise later: resolution depends on the
        # definitions alone, and the compile is only reused for equal ones.
        try:
            tables.resolve(name)
            defect = None
        except PFEvalError as error:
            defect = str(error)

        def table_matcher(value: int, ctx: "EvalContext", _name: str = name) -> bool:
            return any((value & n.netmask_int()) == n.network_address.to_int()
                       for n in ctx.tables.resolve(_name).networks)

        return _CompiledAddress(table_matcher, None, defect)
    if isinstance(spec, MacroRef):
        value = macros.get(spec.name)
        if value is None:
            message = f"unknown macro ${spec.name} used as an address"

            def raising_matcher(value_int: int, ctx: "EvalContext", _msg: str = message) -> bool:
                raise PFEvalError(_msg)

            return _CompiledAddress(raising_matcher, None, message)
        parts = [_parse_literal(part) for part in _split_list(value)]
        parsed_parts = tuple(part for part in parts if part is not None)

        def macro_matcher(value_int: int, ctx: "EvalContext", _parts: tuple = parsed_parts) -> bool:
            return any((value_int & mask) == net for mask, net in _parts)

        octets: Optional[frozenset[int]] = None
        part_octets = [_octets_for(part) for part in parsed_parts]
        if len(parsed_parts) == len(parts) and all(po is not None for po in part_octets):
            octets = frozenset().union(*part_octets) if part_octets else frozenset()
        return _CompiledAddress(macro_matcher, octets, None)
    raise PFEvalError(f"unsupported endpoint address spec: {spec!r}")


class _CompiledEndpoint:
    """A ``from``/``to`` clause compiled to port + pre-parsed address checks."""

    __slots__ = ("port", "matcher", "negated", "octets", "defect")

    def __init__(self, endpoint: EndpointSpec, macros: dict[str, str], tables: "TableSet") -> None:
        self.port = endpoint.port
        compiled = _compile_address(endpoint.address, macros, tables)
        self.matcher = compiled.matcher
        self.negated = endpoint.negated
        # Negation makes a prefix gate invalid (the rule matches *outside*
        # the prefix), so only un-negated endpoints keep their octet set.
        self.octets = compiled.octets if not endpoint.negated else None
        self.defect = compiled.defect

    def matches(self, address_int: int, port: int, context: "EvalContext") -> bool:
        if self.port is not None and self.port != port:
            return False
        if self.matcher is None:
            matched = True
        else:
            matched = self.matcher(address_int, context)
        return not matched if self.negated else matched


def _compile_condition(condition: FuncCall, macros: dict[str, str]) -> tuple[ConditionFn, Optional[str]]:
    """Compile one ``with`` predicate, pre-resolving literal/macro arguments.

    Returns the condition and the error it raises every time (an unknown
    macro argument), or ``None``.
    """
    resolvers: list[object] = []
    all_const = True
    defect: Optional[str] = None
    for argument in condition.args:
        if isinstance(argument, Literal):
            resolvers.append(("const", argument.value))
        elif isinstance(argument, MacroRef):
            value = macros.get(argument.name)
            if value is None:
                message = f"unknown macro ${argument.name}"
                defect = defect or message

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

        return constant_call, defect

    steps = tuple(resolvers)

    def dynamic_call(ctx: "EvalContext", _name: str = name, _steps: tuple = steps) -> bool:
        args = [value if kind == "const" else value(ctx) for kind, value in _steps]
        return ctx.registry.call(_name, ctx, args)

    return dynamic_call, defect


class CompiledRule:
    """One rule compiled to closures, plus the keys the index needs.

    It holds no position: a file's compiled rules are shared by every
    policy built from that file, wherever the file falls in the order.
    """

    __slots__ = (
        "rule",
        "src",
        "dst",
        "conditions",
        "address_free",
        "index_port",
        "dst_octets",
        "defect",
    )

    def __init__(self, rule: Rule, macros: dict[str, str], tables: "TableSet") -> None:
        self.rule = rule
        self.src = _CompiledEndpoint(rule.src, macros, tables)
        self.dst = _CompiledEndpoint(rule.dst, macros, tables)
        #: The error this rule raises whenever evaluation reaches the part
        #: that holds it (the first, in evaluation order), or ``None``.
        self.defect = self.src.defect or self.dst.defect
        conditions = []
        for condition in rule.conditions:
            compiled, defect = _compile_condition(condition, macros)
            conditions.append(compiled)
            self.defect = self.defect or defect
        self.conditions = tuple(conditions)
        self.address_free = rule.src.is_any() and rule.dst.is_any()
        # A rule's src is evaluated before its dst, so skipping a rule on its
        # dst port is only sound when the src side cannot raise.
        src_total = self.src.defect is None
        if src_total and self.dst.port is not None:
            self.index_port = self.dst.port
        else:
            self.index_port = None
        self.dst_octets = self.dst.octets if src_total else None

    def matches(self, context: "EvalContext") -> bool:
        flow = context.flow
        if flow is not None:
            # An IPv4Address is an int: the matchers mask it in C.
            if not self.src.matches(flow.src_ip, flow.src_port, context):
                return False
            if not self.dst.matches(flow.dst_ip, flow.dst_port, context):
                return False
        elif not self.address_free:
            return False
        for condition in self.conditions:
            if not condition(context):
                return False
        return True


def compile_rules(rules: Sequence[Rule], macros: dict[str, str], tables: "TableSet") -> tuple[CompiledRule, ...]:
    """Compile ``rules`` against the macro values and tables they will be evaluated under."""
    return tuple(CompiledRule(rule, macros, tables) for rule in rules)


class RuleIndex:
    """Destination-port buckets plus the always-visited scan bucket.

    ``candidates(port)`` merges the port bucket with the scan bucket in
    original rule order; rules the index cannot safely skip live in the
    scan bucket, which degrades gracefully to a linear walk.  Buckets hold
    positions in this index's rule order, so the same compiled rule can
    sit at different positions in different policies.
    """

    def __init__(self, compiled: Sequence[CompiledRule]) -> None:
        self._rules = compiled
        self._port_buckets: dict[int, list[int]] = {}
        self._scan: list[int] = []
        for position, rule in enumerate(compiled):
            if rule.index_port is not None:
                self._port_buckets.setdefault(rule.index_port, []).append(position)
            else:
                self._scan.append(position)
        self._scan_only = tuple(compiled[position] for position in self._scan)
        # Merged candidate lists are cached per indexed port only, so the
        # cache is bounded by the number of distinct ports in the ruleset
        # (a port sweep over unindexed ports shares _scan_only).
        self._candidates_cache: dict[int, tuple[CompiledRule, ...]] = {}
        self.indexed_rules = len(compiled) - len(self._scan)
        self.scan_rules = len(self._scan)

    def candidates(self, dst_port: int) -> tuple[CompiledRule, ...]:
        bucket = self._port_buckets.get(dst_port)
        if not bucket:
            return self._scan_only
        cached = self._candidates_cache.get(dst_port)
        if cached is not None:
            return cached
        rules = self._rules
        merged = tuple(rules[position] for position in sorted(bucket + self._scan))
        self._candidates_cache[dst_port] = merged
        return merged


class CompiledPolicy:
    """A fully compiled ruleset: per-rule closures + the candidate index.

    A ruleset a loader concatenated from registered files takes each
    file's kept compile and compiles only what is stale; any other
    ruleset is compiled whole.  ``rules_compiled`` counts the rules this
    policy compiled itself.
    """

    def __init__(self, ruleset: Ruleset, macros: dict[str, str], tables: "TableSet") -> None:
        if ruleset.parts:
            rules: list[CompiledRule] = []
            self.rules_compiled = 0
            for part in ruleset.parts:
                part_rules, compiled_now = part.compiled_rules(macros, tables)
                rules.extend(part_rules)
                self.rules_compiled += len(part_rules) if compiled_now else 0
            self.rules = tuple(rules)
        else:
            self.rules = compile_rules(ruleset.rules(), macros, tables)
            self.rules_compiled = len(self.rules)
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
            "rules_compiled": float(self.rules_compiled),
            "indexed_rules": float(self.index.indexed_rules),
            "scan_bucket_rules": float(self.index.scan_rules),
            "index_lookups": float(self.index_lookups),
            "candidates_visited": float(self.candidates_visited),
            "gate_skipped": float(self.gate_skipped),
        }
