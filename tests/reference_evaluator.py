"""The interpreted PF+=2 evaluator the compiled matcher replaced, kept as a test oracle.

``reference_evaluate`` is the AST walk ``repro.pf.evaluator`` shipped
before ``repro.pf.compiler`` became the only place a rule is matched:
every rule is visited in order, every address literal is re-parsed and
every node re-dispatched per flow, which makes §3.3's semantics (rules
read top-down, last match wins, ``quick`` stops) easy to read off the
code.  It reads a :class:`~repro.pf.evaluator.PolicyEvaluator`'s
``ruleset`` / ``tables`` / ``macros`` / ``dicts`` / ``registry`` and
never its compiled policy; ``allowed()`` evaluates delegated text through
the same walk, so a nested evaluation is checked against the oracle too.
``tests/test_pf_compiler_parity.py`` requires the same verdict (or the
same error) from both.  Nothing outside the tests may use it.
"""

from __future__ import annotations

from typing import Optional, Sequence

from repro.exceptions import PFError, PFEvalError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.netsim.addresses import AddressError, IPv4Address, IPv4Network
from repro.pf.ast_nodes import (
    AddressLiteral,
    AnyAddress,
    DictAccess,
    EndpointSpec,
    Expr,
    Literal,
    MacroRef,
    Rule,
    TableRef,
    TableRefExpr,
)
from repro.pf.evaluator import EvalContext, PolicyEvaluator, Verdict
from repro.pf.functions import ArgValue
from repro.pf.parser import parse_rules_text


def reference_evaluate(
    evaluator: PolicyEvaluator,
    flow: Optional[FlowSpec],
    src_doc: Optional[ResponseDocument] = None,
    dst_doc: Optional[ResponseDocument] = None,
    *,
    depth: int = 0,
) -> Verdict:
    """Walk ``evaluator``'s ruleset against one flow: last match wins, ``quick`` stops."""
    registry = evaluator.registry.copy()
    registry.register("allowed", _reference_allowed, replace=True)
    context = EvalContext(
        flow=flow,
        src_doc=src_doc if src_doc is not None else ResponseDocument(),
        dst_doc=dst_doc if dst_doc is not None else ResponseDocument(),
        tables=evaluator.tables,
        macros=evaluator.macros,
        dicts=evaluator.dicts,
        registry=registry,
        depth=depth,
    )
    matched: list[Rule] = []
    deciding: Optional[Rule] = None
    rules_evaluated = 0
    quick_terminated = False
    for rule in evaluator.ruleset.rules():
        rules_evaluated += 1
        if _rule_matches(rule, context):
            matched.append(rule)
            deciding = rule
            if rule.quick:
                quick_terminated = True
                break
    if deciding is None:
        return Verdict(
            action=evaluator.default_action,
            rule=None,
            matched_rules=[],
            rules_evaluated=rules_evaluated,
            default_used=True,
        )
    return Verdict(
        action=deciding.action,
        rule=deciding,
        matched_rules=matched,
        rules_evaluated=rules_evaluated,
        quick_terminated=quick_terminated,
    )


def _rule_matches(rule: Rule, context: EvalContext) -> bool:
    flow = context.flow
    if flow is not None:
        if not _endpoint_matches(rule.src, flow.src_ip, flow.src_port, context):
            return False
        if not _endpoint_matches(rule.dst, flow.dst_ip, flow.dst_port, context):
            return False
    elif not (rule.src.is_any() and rule.dst.is_any()):
        # Without a flow only address-free rules can match.
        return False
    for condition in rule.conditions:
        args = [_resolve_expr(argument, context) for argument in condition.args]
        if not context.registry.call(condition.name, context, args):
            return False
    return True


def _endpoint_matches(
    endpoint: EndpointSpec, address: IPv4Address, port: int, context: EvalContext
) -> bool:
    if endpoint.port is not None and endpoint.port != port:
        return False
    matches = _address_matches(endpoint, address, context)
    if endpoint.negated:
        matches = not matches
    return matches


def _address_matches(endpoint: EndpointSpec, address: IPv4Address, context: EvalContext) -> bool:
    spec = endpoint.address
    if isinstance(spec, AnyAddress):
        return True
    if isinstance(spec, TableRef):
        return context.tables.contains(spec.name, address)
    if isinstance(spec, AddressLiteral):
        return _literal_contains(spec.text, address)
    if isinstance(spec, MacroRef):
        value = context.macros.get(spec.name)
        if value is None:
            raise PFEvalError(f"unknown macro ${spec.name} used as an address")
        return any(_literal_contains(part, address) for part in _split_list(value))
    raise PFEvalError(f"unsupported endpoint address spec: {spec!r}")


def _literal_contains(text: str, address: IPv4Address) -> bool:
    try:
        if "/" in text:
            return address in IPv4Network(text)
        return IPv4Address(text) == address
    except AddressError:
        return False


def _split_list(value: str) -> Sequence[str]:
    text = value.strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return text.split()


def _resolve_expr(expr: Expr, context: EvalContext) -> ArgValue:
    """Resolve a function-call argument to a plain value."""
    if isinstance(expr, DictAccess):
        return context.dictionary_lookup(expr.dict_name, expr.key, concatenated=expr.concatenated)
    if isinstance(expr, MacroRef):
        value = context.macros.get(expr.name)
        if value is None:
            raise PFEvalError(f"unknown macro ${expr.name}")
        return value
    if isinstance(expr, Literal):
        return expr.value
    if isinstance(expr, TableRefExpr):
        return [str(network) for network in context.tables.resolve(expr.name).networks]
    raise PFEvalError(f"cannot resolve expression {expr!r}")


def _reference_allowed(context: EvalContext, args: Sequence[ArgValue]) -> bool:
    """``allowed(rules)`` as ``repro.pf.functions`` defines it, evaluated by the walk above."""
    if len(args) < 1:
        raise PFEvalError(f"allowed() expects at least 1 arguments, got {len(args)}")
    rules_text = args[0]
    if rules_text is None or isinstance(rules_text, list):
        return False
    text = str(rules_text).strip()
    if not text or context.depth >= context.max_depth:
        return False
    try:
        nested = PolicyEvaluator(
            parse_rules_text(text), registry=context.registry, default_action="block"
        )
        nested.tables.merge(context.tables)
        verdict = reference_evaluate(
            nested,
            context.flow,
            context.src_doc,
            context.dst_doc,
            depth=context.depth + 1,
        )
    except PFError:
        return False
    return verdict.is_pass
