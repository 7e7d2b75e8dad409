"""R5 — no mutable default arguments; no anonymous counters.

Two small shapes with outsized blast radius in a long-lived simulation
process:

* **Mutable default arguments** (``def f(x=[])``) — the default is
  created once at ``def`` time and shared across every call *and every
  scenario in the process*, so state leaks between supposedly
  independent runs: exactly the cross-run contamination the determinism
  gates exist to catch.  Use ``None`` and materialise inside.
* **Anonymous counters** — a ``Counter()`` or ``RateCounter()``
  constructed without a name counts fine but cannot say what it counts:
  its ``repr`` is its only identity, and it reads ``counter.name``.  The
  telemetry plane names its punt-rate ``RateCounter`` after the value
  its spike detector judges (``cluster.punt_rate``), and a rate
  counter's errors print it.  Every counter carries a name.
* **Dataclass mutable defaults** — the same trap in dataclass clothing:
  ``field(default=[])`` or ``field(default_factory=list())`` evaluates
  the container once at class-definition time, so every instance shares
  it (``default_factory`` wants the *callable* ``list``, not the result
  of calling it).  A bare ``x: list = []`` class default is the shape
  the ``Experiment`` exemplar shipped with.  Use
  ``field(default_factory=list)``.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: Constructor calls that build a fresh mutable container.
MUTABLE_FACTORIES = {"list", "dict", "set"}
#: Counter constructors whose first argument is the counter's name.
NAMED_COUNTERS = {"Counter", "RateCounter"}


def _is_mutable_default(node: ast.expr) -> bool:
    if isinstance(node, (ast.List, ast.Dict, ast.Set)):
        return True
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        return node.func.id in MUTABLE_FACTORIES
    return False


def _is_field_call(node: ast.expr) -> bool:
    """True for ``field(...)`` / ``dataclasses.field(...)`` (any alias of field)."""
    if not isinstance(node, ast.Call):
        return False
    func = node.func
    if isinstance(func, ast.Name):
        return func.id in {"field", "dataclass_field"}
    return isinstance(func, ast.Attribute) and func.attr == "field"


def _is_dataclass(node: ast.ClassDef) -> bool:
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if isinstance(target, ast.Name) and target.id == "dataclass":
            return True
        if isinstance(target, ast.Attribute) and target.attr == "dataclass":
            return True
    return False


class MutableDefaultsRule:
    """Flag mutable defaults and unnamed Counter / RateCounter construction."""

    rule_id = "R5"
    title = "no mutable default args; counters must be named/registered"

    def check(self, module: ParsedModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in module.nodes:
            if isinstance(node, ast.ClassDef) and _is_dataclass(node):
                violations.extend(self._check_dataclass(module, node))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                defaults = list(node.args.defaults) + [
                    default for default in node.args.kw_defaults if default is not None
                ]
                for default in defaults:
                    if _is_mutable_default(default):
                        name = getattr(node, "name", "<lambda>")
                        violations.append(
                            module.violation(
                                self.rule_id,
                                default,
                                f"mutable default argument in `{name}` is shared "
                                f"across calls and scenarios — default to None "
                                f"and materialise inside",
                            )
                        )
            elif isinstance(node, ast.Call):
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                if called in NAMED_COUNTERS and not node.args and not any(
                    keyword.arg == "name" for keyword in node.keywords
                ):
                    violations.append(
                        module.violation(
                            self.rule_id,
                            node,
                            f"`{called}()` without a name counts invisibly — "
                            f"its repr, its errors and the telemetry plane's rate "
                            f"series key on the name; pass the name as the first argument",
                        )
                    )
        return violations

    def _check_dataclass(
        self, module: ParsedModule, node: ast.ClassDef
    ) -> list[Violation]:
        violations: list[Violation] = []
        for statement in node.body:
            value = getattr(statement, "value", None)
            if value is None:
                continue
            if _is_field_call(value):
                for keyword in value.keywords:
                    if keyword.arg == "default" and _is_mutable_default(keyword.value):
                        violations.append(
                            module.violation(
                                self.rule_id,
                                keyword.value,
                                f"field(default=...) with a mutable container in "
                                f"`{node.name}` is shared by every instance — use "
                                f"field(default_factory=...)",
                            )
                        )
                    elif keyword.arg == "default_factory" and isinstance(
                        keyword.value, (ast.Call, ast.List, ast.Dict, ast.Set)
                    ):
                        violations.append(
                            module.violation(
                                self.rule_id,
                                keyword.value,
                                f"default_factory in `{node.name}` is given an "
                                f"already-built container, not a callable — the one "
                                f"container is shared by every instance; pass the "
                                f"factory itself (e.g. list, not list())",
                            )
                        )
            elif _is_mutable_default(value):
                violations.append(
                    module.violation(
                        self.rule_id,
                        value,
                        f"mutable class-level default in dataclass `{node.name}` "
                        f"is shared by every instance — use "
                        f"field(default_factory=...)",
                    )
                )
        return violations
