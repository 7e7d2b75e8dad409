"""R11 — nothing newer than Python 3.10, the oldest interpreter CI tests.

CI's test job runs 3.10 and 3.12, and a development machine may run
anything in between, so an API or a piece of syntax that arrived in 3.11
passes locally and on 3.12 and is an ``ImportError``, ``AttributeError``,
``TypeError`` or ``re.error`` on 3.10.  ``dataclass(weakref_slot=True)``
once nearly went in and was caught by hand; this rule makes the check
a red step instead of something to remember.

Flagged: ``except*``, ``ExceptionGroup`` / ``BaseExceptionGroup``,
``tomllib``, ``typing.Self``, ``enum.StrEnum``, ``datetime.UTC``,
``asyncio.TaskGroup``, ``dataclass(weakref_slot=...)``, and in a pattern
literal handed to an ``re`` function, atomic groups ``(?>...)`` and
possessive quantifiers (``*+``, ``++``, ``?+``, ``{m,n}+``), which 3.10's
``re`` refuses to compile.  ``except*`` is visible only to an interpreter
that parses it: on 3.10 the file does not parse and the lint stops there.
"""

from __future__ import annotations

import ast
from typing import Optional

from tools.analysis.core import ParsedModule, Violation

#: Standard-library modules that first exist in 3.11.
NEW_MODULES = {"tomllib"}
#: ``(module, name)`` pairs that first exist in 3.11.
NEW_NAMES = {
    ("typing", "Self"),
    ("enum", "StrEnum"),
    ("datetime", "UTC"),
    ("asyncio", "TaskGroup"),
}
#: Builtins that first exist in 3.11.
NEW_BUILTINS = {"ExceptionGroup", "BaseExceptionGroup"}
#: ``re`` functions whose first argument is a pattern.
RE_FUNCTIONS = {"compile", "match", "fullmatch", "search", "findall", "finditer", "sub", "subn", "split"}


def newer_regex_syntax(pattern: str) -> Optional[str]:
    """Return the 3.11-only construct in a regular expression, or ``None``."""
    index, in_class = 0, False
    while index < len(pattern):
        char = pattern[index]
        if char == "\\":
            index += 2
            continue
        if in_class:
            in_class = char != "]"
        elif char == "[":
            in_class = True
            # A ']' first in a class (after an optional '^') is a literal.
            if pattern.startswith("^", index + 1):
                index += 1
            if pattern.startswith("]", index + 1):
                index += 1
        elif pattern.startswith("(?>", index):
            return "an atomic group `(?>...)`"
        elif char in "*+?}" and pattern.startswith("+", index + 1):
            return f"a possessive quantifier `{char}+`"
        index += 1
    return None


class PythonFloorRule:
    """Flag APIs and syntax that Python 3.10 does not have."""

    rule_id = "R11"
    title = "nothing newer than Python 3.10, the oldest interpreter CI tests"

    def check(self, module: ParsedModule) -> list[Violation]:
        # Local name -> module, for `import datetime as dt` ... `dt.UTC`.
        modules = {
            alias.asname or alias.name: alias.name
            for node in ast.walk(module.tree)
            if isinstance(node, ast.Import)
            for alias in node.names
        }
        try_star = getattr(ast, "TryStar", None)
        violations: list[Violation] = []

        def flag(node: ast.AST, what: str) -> None:
            violations.append(
                module.violation(
                    self.rule_id,
                    node,
                    f"{what} is Python 3.11+; CI also tests 3.10, where it "
                    f"fails — write the 3.10 spelling",
                )
            )

        for node in ast.walk(module.tree):
            if try_star is not None and isinstance(node, try_star):
                flag(node, "`except*`")
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name.partition(".")[0] in NEW_MODULES:
                        flag(node, f"`import {alias.name}`")
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                if (node.module or "").partition(".")[0] in NEW_MODULES:
                    flag(node, f"`from {node.module} import`")
                for alias in node.names:
                    if (node.module, alias.name) in NEW_NAMES:
                        flag(node, f"`{node.module}.{alias.name}`")
            elif isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name):
                owner = modules.get(node.value.id)
                if (owner, node.attr) in NEW_NAMES:
                    flag(node, f"`{owner}.{node.attr}`")
            elif isinstance(node, ast.Name) and node.id in NEW_BUILTINS:
                flag(node, f"`{node.id}`")
            elif isinstance(node, ast.Call):
                what = _call_feature(node, modules)
                if what is not None:
                    flag(node, what)
        return violations


def _call_feature(node: ast.Call, modules: dict[str, str]) -> Optional[str]:
    """Return the 3.11-only thing a call asks for, or ``None``."""
    func = node.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", "")
    if name == "dataclass" and any(keyword.arg == "weakref_slot" for keyword in node.keywords):
        return "`dataclass(weakref_slot=...)`"
    if (
        isinstance(func, ast.Attribute)
        and isinstance(func.value, ast.Name)
        and modules.get(func.value.id) == "re"
        and func.attr in RE_FUNCTIONS
        and node.args
        and isinstance(node.args[0], ast.Constant)
        and isinstance(node.args[0].value, str)
    ):
        found = newer_regex_syntax(node.args[0].value)
        if found is not None:
            return f"{found} in a regular expression"
    return None
