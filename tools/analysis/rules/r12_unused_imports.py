"""R12 — no unused top-level import.

An import nothing reads fails nothing: the tests pass, the module still
loads, and the next reader takes the name for a dependency the code
has.  Fourteen built up across ``src/`` and ``tests/`` before this rule,
each left behind when the code that used it was deleted or moved.

A module-level ``import`` / ``from … import`` (also one inside a
module-level ``if`` or ``try``) must bind a name the module reads: in
code, or in a string that names it — a quoted forward reference
(``"Link"``, ``Optional["EvalContext"]``) or an ``__all__`` entry.  A
``from __future__`` import counts as read.  A package's ``__init__.py``
gets no pass: it holds only its docstring, so each name is imported
from the module that defines it.
"""

from __future__ import annotations

import ast
import re
from typing import Iterator

from tools.analysis.core import ParsedModule, Violation

#: A string that may be a quoted type or name: names, dots, subscripts, unions.
_QUOTED_NAMES = re.compile(r"[A-Za-z_][\w.\[\], |]*")


def _read_names(module: ParsedModule, imported: set[str]) -> set[str]:
    """Return every name the module reads, quoted ones included.

    Code's names come first; then only a string holding the name of an
    import code has not read can add one, so only those are parsed.
    """
    read = {node.id for node in module.nodes if isinstance(node, ast.Name)}
    unread = imported - read
    if not unread:
        return read
    for node in module.nodes:
        if (
            isinstance(node, ast.Constant) and isinstance(node.value, str)
            and any(name in node.value for name in unread)
            and _QUOTED_NAMES.fullmatch(node.value)
        ):
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            read.update(name.id for name in ast.walk(quoted) if isinstance(name, ast.Name))
    return read


def _top_level_imports(node: ast.AST) -> Iterator[ast.Import | ast.ImportFrom]:
    """Yield the imports of a module body, through its ``if`` and ``try`` blocks."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, (ast.Import, ast.ImportFrom)):
            yield child
        elif isinstance(child, (ast.If, ast.Try, ast.ExceptHandler)):
            yield from _top_level_imports(child)


class UnusedImportsRule:
    """Flag module-level imports whose bound name the module never reads."""

    rule_id = "R12"
    title = "no unused top-level import"

    def check(self, module: ParsedModule) -> list[Violation]:
        bindings = [
            (alias.lineno, alias.asname or alias.name.partition(".")[0])
            for statement in _top_level_imports(module.tree)
            if not (isinstance(statement, ast.ImportFrom) and statement.module == "__future__")
            for alias in statement.names
        ]
        read = _read_names(module, {bound for _, bound in bindings})
        return [
            module.violation(
                self.rule_id,
                line,
                f"`{bound}` is imported and never read — delete the "
                f"import, or list the name in `__all__` if it is re-exported",
            )
            for line, bound in bindings
            if bound != "*" and bound not in read
        ]
