"""Predicate functions callable from ``with`` clauses.

§3.3: "Each ``with`` is followed by a function call that can operate on
values from the ``@src`` or ``@dst`` dictionaries.  Functions are
user-definable and new functions can be added."  The predefined set is

* ``eq, gt, lt, gte, lte`` — comparisons,
* ``member`` — "tests if first argument is in list named by second
  argument",
* ``allowed`` — "tests if flow is allowed by rule specified in argument"
  (the delegation hook: the argument is PF+=2 rule text, typically an
  end-host-supplied ``requirements`` value),
* ``verify`` — "tests if first argument is the correct signature for
  public key specified in second argument and data specified in
  remaining arguments",

plus ``includes``, which Figure 8 uses (``includes(@dst[os-patch],
MS08-067)``).

Functions receive already-resolved argument values: strings, lists of
strings (for table arguments) or ``None`` when a dictionary key was
absent from the ident++ response.  Missing values make predicates return
``False`` rather than raising — a flow about which too little is known
must simply fail to match permissive rules.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING, Callable, Optional, Sequence, Union

from repro.exceptions import PFError, PFEvalError, UnknownFunctionError
from repro.crypto.signatures import verify_values
from repro.pf.ast_nodes import Ruleset
from repro.pf.parser import parse_rules_text

if TYPE_CHECKING:  # pragma: no cover
    from repro.pf.evaluator import EvalContext, PolicyEvaluator

#: Distinct delegated rule texts whose parse is remembered.  The text is
#: end-host input, so the memo is part of the bounded-state invariant:
#: past this many texts the least recently used one is parsed again.
DELEGATED_PARSE_MEMO_SIZE = 256

#: The value types predicate functions receive.
ArgValue = Union[str, list, None]
#: Signature of a predicate implementation.
PredicateFn = Callable[["EvalContext", Sequence[ArgValue]], bool]


class FunctionRegistry:
    """Mapping of predicate names to implementations.

    Administrators (and tests) register additional functions with
    :meth:`register`, fulfilling the paper's "functions are
    user-definable" requirement.
    """

    def __init__(self) -> None:
        self._functions: dict[str, PredicateFn] = {}

    def register(self, name: str, function: PredicateFn, *, replace: bool = False) -> None:
        """Register a predicate under ``name``."""
        key = name.lower()
        if key in self._functions and not replace:
            raise PFEvalError(f"function {name!r} is already registered")
        self._functions[key] = function

    def names(self) -> list[str]:
        """Return the registered function names, sorted."""
        return sorted(self._functions)

    def call(self, name: str, context: "EvalContext", args: Sequence[ArgValue]) -> bool:
        """Invoke a predicate; unknown names raise :class:`UnknownFunctionError`."""
        function = self._functions.get(name.lower())
        if function is None:
            raise UnknownFunctionError(f"unknown PF+=2 function: {name}")
        return bool(function(context, args))

    def __contains__(self, name: str) -> bool:
        return name.lower() in self._functions

    def copy(self) -> "FunctionRegistry":
        """Return an independent copy (used when layering per-scenario functions)."""
        clone = FunctionRegistry()
        clone._functions = dict(self._functions)
        return clone


# ---------------------------------------------------------------------------
# Helpers
# ---------------------------------------------------------------------------

def _as_number(value: ArgValue) -> Optional[float]:
    if value is None or isinstance(value, list):
        return None
    try:
        return float(str(value).strip())
    except ValueError:
        return None


def _tokens(value: ArgValue) -> list[str]:
    """Split a value into comparison tokens."""
    if value is None:
        return []
    if isinstance(value, list):
        return [str(item) for item in value]
    text = str(value).strip()
    if text.startswith("{") and text.endswith("}"):
        text = text[1:-1]
    return text.split()


def _require(args: Sequence[ArgValue], count: int, name: str) -> None:
    if len(args) < count:
        raise PFEvalError(f"{name}() expects at least {count} arguments, got {len(args)}")


# ---------------------------------------------------------------------------
# Predefined predicates
# ---------------------------------------------------------------------------

def _fn_eq(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    _require(args, 2, "eq")
    left, right = args[0], args[1]
    if left is None or right is None:
        return False
    left_number, right_number = _as_number(left), _as_number(right)
    if left_number is not None and right_number is not None:
        return left_number == right_number
    return str(left).strip() == str(right).strip()


def _compare(left: ArgValue, right: ArgValue) -> Optional[int]:
    """Return -1/0/+1 comparing two values numerically if possible, else lexically."""
    if left is None or right is None:
        return None
    left_number, right_number = _as_number(left), _as_number(right)
    if left_number is not None and right_number is not None:
        if left_number < right_number:
            return -1
        if left_number > right_number:
            return 1
        return 0
    left_text, right_text = str(left).strip(), str(right).strip()
    if left_text < right_text:
        return -1
    if left_text > right_text:
        return 1
    return 0


def _fn_gt(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    _require(args, 2, "gt")
    result = _compare(args[0], args[1])
    return result is not None and result > 0


def _fn_lt(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    _require(args, 2, "lt")
    result = _compare(args[0], args[1])
    return result is not None and result < 0


def _fn_gte(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    _require(args, 2, "gte")
    result = _compare(args[0], args[1])
    return result is not None and result >= 0


def _fn_lte(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    _require(args, 2, "lte")
    result = _compare(args[0], args[1])
    return result is not None and result <= 0


def _fn_member(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    """``member(value, list)`` — is the value in the named list?

    The list argument may be (in priority order) a table argument that
    already resolved to a list, a macro whose value is a ``{ ... }``
    list, a defined PF table name, or a bare name treated as a literal
    one-element list.  The value side may itself carry several
    whitespace-separated tokens (``groupID`` reports every group of the
    user); membership of any token suffices.
    """
    _require(args, 2, "member")
    value, list_spec = args[0], args[1]
    if value is None:
        return False
    candidates = _resolve_list(context, list_spec)
    if not candidates:
        return False
    value_tokens = set(_tokens(value))
    return bool(value_tokens & set(candidates))


def _resolve_list(context: "EvalContext", list_spec: ArgValue) -> list[str]:
    if list_spec is None:
        return []
    if isinstance(list_spec, list):
        return [str(item) for item in list_spec]
    name = str(list_spec).strip()
    macro_value = context.macros.get(name)
    if macro_value is not None:
        return _tokens(macro_value)
    if context.tables.has_table(name):
        rendered = []
        for network in context.tables.resolve(name).networks:
            # Host prefixes read back as bare addresses so membership tests
            # against values like "192.168.1.1" behave as expected.
            rendered.append(str(network.network_address) if network.prefix_len == 32 else str(network))
        return rendered
    named_dict = context.dicts.get(name)
    if named_dict is not None:
        return [str(key) for key in named_dict]
    return _tokens(name)


class _DelegatedText:
    """One delegated rule text: its parse, and the evaluator it last ran in."""

    __slots__ = ("ruleset", "_nested", "_outer_tables")

    def __init__(self, ruleset: Ruleset) -> None:
        #: Shared by every caller: it must not be mutated.
        self.ruleset = ruleset
        self._nested: Optional["PolicyEvaluator"] = None
        self._outer_tables: dict = {}

    def evaluator(self, context: "EvalContext") -> "PolicyEvaluator":
        """Return an evaluator of this text under ``context``'s tables and functions.

        The outer tables are merged in (outer definitions win) and the
        rules compiled once; the evaluator is kept until a caller brings
        other table definitions or another set of functions.
        """
        nested = self._nested
        registry = context.registry
        if (
            nested is None
            or self._outer_tables != context.tables.definitions
            or (nested.registry is not registry and nested.registry._functions != registry._functions)
        ):
            # Imported here to avoid the import cycle functions -> evaluator -> functions.
            from repro.pf.evaluator import PolicyEvaluator

            # Delegated requirements are fail-closed: a flow the requirements
            # do not explicitly pass is not "allowed by the rule specified in
            # the argument".
            nested = PolicyEvaluator(
                self.ruleset, registry=registry, default_action="block", name="allowed()"
            )
            nested.tables.merge(context.tables)
            self._nested = nested
            self._outer_tables = dict(context.tables.definitions)
        return nested


@lru_cache(maxsize=DELEGATED_PARSE_MEMO_SIZE)
def _parse_delegated(text: str) -> Optional[_DelegatedText]:
    """Parse delegated rule text once per distinct text (``None`` = it does not parse).

    The same ``requirements`` string arrives with every flow of the
    application that publishes it; its compile is kept beside the parse.
    """
    try:
        return _DelegatedText(parse_rules_text(text))
    except PFError:
        return None


def _fn_allowed(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    """``allowed(rules)`` — does the delegated rule text allow the current flow?

    The argument is PF+=2 source (a ``requirements`` value reported by an
    end-host or third party).  It is parsed and evaluated against the
    *same* flow and response documents, in a nested context with a
    recursion-depth guard.  Any parse or evaluation error means "not
    allowed": delegated text is untrusted input.
    """
    _require(args, 1, "allowed")
    rules_text = args[0]
    if rules_text is None or isinstance(rules_text, list):
        return False
    text = str(rules_text).strip()
    if not text:
        return False
    if context.depth >= context.max_depth:
        return False
    delegated = _parse_delegated(text)
    if delegated is None:
        return False
    nested = delegated.evaluator(context)
    try:
        verdict = nested.evaluate(
            context.flow,
            context.src_doc,
            context.dst_doc,
            depth=context.depth + 1,
        )
    except PFError:
        return False
    return verdict.is_pass


def _fn_verify(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    """``verify(signature, pubkey, data...)`` — check a delegation signature."""
    _require(args, 3, "verify")
    signature, public_key = args[0], args[1]
    data = args[2:]
    if signature is None or public_key is None or any(item is None for item in data):
        return False
    return verify_values(str(public_key), str(signature), [str(item) for item in data])


def _fn_includes(context: "EvalContext", args: Sequence[ArgValue]) -> bool:
    """``includes(haystack, needle)`` — token or substring containment.

    Figure 8 uses it to check the destination's installed patch list:
    ``includes(@dst[os-patch], MS08-067)``.
    """
    _require(args, 2, "includes")
    haystack, needle = args[0], args[1]
    if haystack is None or needle is None:
        return False
    needle_text = str(needle).strip()
    if not needle_text:
        return False
    tokens = _tokens(haystack)
    if needle_text in tokens:
        return True
    return needle_text in str(haystack)


def default_registry() -> FunctionRegistry:
    """Return a registry with every predefined PF+=2 function."""
    registry = FunctionRegistry()
    registry.register("eq", _fn_eq)
    registry.register("gt", _fn_gt)
    registry.register("lt", _fn_lt)
    registry.register("gte", _fn_gte)
    registry.register("lte", _fn_lte)
    registry.register("member", _fn_member)
    registry.register("allowed", _fn_allowed)
    registry.register("verify", _fn_verify)
    registry.register("includes", _fn_includes)
    return registry
