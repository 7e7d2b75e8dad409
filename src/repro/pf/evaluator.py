"""Rule evaluation: PF's last-match-wins semantics with ``quick`` and PF+=2 predicates.

§3.3: "In vanilla PF, rules are read in top-down order, with the last
matching rule being executed.  A matching rule can force its execution
and bypass later rules if it contains the ``quick`` keyword."  When no
rule matches at all, PF's default is to pass — which is why every
configuration in the paper begins with an explicit ``block all``.

This module owns that loop and nothing else.  Whether one rule matches
is decided in exactly one place, :mod:`repro.pf.compiler`: the ruleset is
compiled once into closures over pre-parsed addresses plus a
destination-port/prefix index, and every evaluation — with a flow or
without one, top-level or nested under ``allowed()`` — runs the compiled
rules.  The AST walk the compiler replaced is kept as a test oracle
(``tests/reference_evaluator.py``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import ClassVar, Optional, Sequence

from repro.exceptions import PFEvalError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.pf.ast_nodes import ACTION_PASS, Rule, Ruleset
from repro.pf.compiler import CompiledPolicy, VerdictShape
from repro.pf.functions import FunctionRegistry, default_registry
from repro.pf.tables import TableSet

#: Maximum nesting depth for ``allowed()`` evaluating delegated rule text
#: that itself calls ``allowed()``.
MAX_NESTED_DEPTH = 4


@dataclass
class EvalContext:
    """Everything a rule needs to be evaluated against one flow."""

    flow: Optional[FlowSpec]
    src_doc: ResponseDocument
    dst_doc: ResponseDocument
    tables: TableSet
    macros: dict[str, str]
    dicts: dict[str, dict[str, str]]
    registry: FunctionRegistry
    depth: int = 0
    max_depth: ClassVar[int] = MAX_NESTED_DEPTH

    # ------------------------------------------------------------------
    # Value resolution
    # ------------------------------------------------------------------

    def dictionary_lookup(self, dict_name: str, key: str, *, concatenated: bool = False) -> Optional[str]:
        """Resolve ``@name[key]`` / ``*@name[key]``.

        ``@src`` and ``@dst`` read the ident++ response documents with the
        latest-value (or, with ``*``, concatenation) semantics; any other
        name reads a ``dict`` definition from the configuration.
        """
        if dict_name == "src":
            document = self.src_doc
        elif dict_name == "dst":
            document = self.dst_doc
        else:
            named = self.dicts.get(dict_name)
            if named is None:
                raise PFEvalError(f"unknown dictionary @{dict_name}")
            return named.get(key)
        if concatenated:
            value = document.concatenated(key)
            return value if value else None
        return document.latest(key)


@dataclass
class Verdict:
    """The outcome of evaluating a ruleset against one flow.

    ``shape`` is what the deciding rule (or the default) says whatever
    the flow: the deciding compiled rule's :class:`VerdictShape`.
    """

    action: str
    rule: Optional[Rule] = None
    matched_rules: list[Rule] = field(default_factory=list)
    rules_evaluated: int = 0
    quick_terminated: bool = False
    default_used: bool = False
    shape: Optional[VerdictShape] = field(default=None, compare=False, repr=False)

    @property
    def is_pass(self) -> bool:
        """Return ``True`` when the flow is allowed."""
        return self.action == ACTION_PASS


class PolicyEvaluator:
    """Evaluates a parsed :class:`~repro.pf.ast_nodes.Ruleset` against flows."""

    def __init__(
        self,
        ruleset: Ruleset,
        *,
        registry: Optional[FunctionRegistry] = None,
        default_action: str = ACTION_PASS,
        name: str = "policy",
    ) -> None:
        self.name = name
        self.ruleset = ruleset
        self.registry = registry if registry is not None else default_registry()
        self.default_action = default_action
        self.tables = TableSet.from_definitions(ruleset.tables())
        self.macros = ruleset.macros()
        self.dicts = {n: dict(d.entries) for n, d in ruleset.dicts().items()}
        self._compiled: Optional[CompiledPolicy] = None
        self._default_shape = VerdictShape.of(None, default_action)
        self.evaluations = 0
        self.rules_checked = 0

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def evaluate(
        self,
        flow: Optional[FlowSpec],
        src_doc: Optional[ResponseDocument] = None,
        dst_doc: Optional[ResponseDocument] = None,
        *,
        depth: int = 0,
    ) -> Verdict:
        """Run the ruleset against one flow and return the verdict.

        Without a flow (``None``) only address-free rules can match.
        Last match wins and ``quick`` stops, over the rules the index
        cannot rule out.
        """
        context = EvalContext(
            flow,
            src_doc if src_doc is not None else ResponseDocument(),
            dst_doc if dst_doc is not None else ResponseDocument(),
            self.tables,
            self.macros,
            self.dicts,
            self.registry,
            depth,
        )
        self.evaluations += 1
        compiled = self.compiled
        if flow is not None:
            candidates = compiled.index.candidates(flow.dst_port)
            dst_octet = flow.dst_ip >> 24
        else:
            # No destination to index or gate on: every rule is a candidate.
            candidates = compiled.rules
            dst_octet = None
        matched: list[Rule] = []
        shape = self._default_shape
        rules_evaluated = 0
        quick_terminated = False
        for candidate in candidates:
            rules_evaluated += 1
            octets = candidate.dst_octets
            if octets is not None and dst_octet is not None and dst_octet not in octets:
                continue
            compiled.candidates_visited += 1
            self.rules_checked += 1
            if candidate.matches(context):
                rule = candidate.rule
                matched.append(rule)
                shape = candidate.shape
                if rule.quick:
                    quick_terminated = True
                    break
        return Verdict(
            shape.action, shape.rule, matched, rules_evaluated, quick_terminated,
            shape.rule is None, shape,
        )

    def evaluate_batch(self, items: Sequence[tuple]) -> list[Verdict]:
        """Evaluate each ``(flow, src_doc, dst_doc)`` of ``items`` in turn.

        Kept because ``perf/tracing.py`` resolves the name, and ``perf/``
        is frozen: the benchmark runs it as committed.
        """
        return [self.evaluate(*item) for item in items]

    @property
    def compiled(self) -> CompiledPolicy:
        """Return the compiled policy, (re)building it if tables moved."""
        compiled = self._compiled
        if compiled is None or compiled.table_version != self.tables.version:
            compiled = CompiledPolicy(self.ruleset, self.macros, self.tables)
            self._compiled = compiled
        return compiled

    # ------------------------------------------------------------------
    # Statistics
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Return evaluator counters (used by the throughput benchmark).

        Includes the compile/index counters so benchmarks can assert that
        a decision visits candidate rules, not the whole ruleset.
        """
        stats = {
            "evaluations": float(self.evaluations),
            "rules_checked": float(self.rules_checked),
        }
        if self._compiled is not None:
            stats.update(self._compiled.stats())
        return stats
