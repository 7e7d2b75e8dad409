"""R16 — every definition is named outside the tests.

Every function, method and class of ``src/repro`` (dunders aside) must
be named in a reader other than the accepted table, or in the Makefile
or CI workflows read as text, outside its own body: as a name, an
attribute, or a word of a string that is no docstring and no
``__all__`` entry.  ``make reach`` is the execution-based twin.
"""

from __future__ import annotations

import ast
import re

from tools.analysis.core import ACCEPTED_TABLE, Findings, ParsedModule, Program, Violation

WORD = re.compile(r"[A-Za-z_]\w*")


def uses_in(module: ParsedModule):
    """``(name, line)`` of every use of a name in ``module``.

    A use is an ``ast.Name``, an ``ast.Attribute``'s attribute, or a
    word of a string literal that is neither a docstring nor part of an
    ``__all__`` assignment.  An import binds a name and uses none.
    """
    skipped = set()
    for node in module.nodes:
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skipped.add(id(body[0].value))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                skipped.update(id(inner) for inner in ast.walk(node.value))
    for node in module.nodes:
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.end_lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skipped):
            for word in WORD.findall(node.value):
                yield word, node.lineno


def text_uses(text: str):
    """``(word, line)`` of every word of a file read as plain text."""
    for line_number, line in enumerate(text.splitlines(), 1):
        for word in WORD.findall(line):
            yield word, line_number


class DefinitionsNamedRule:
    """Flag each definition of ``src/repro`` nothing outside the tests names."""

    rule_id = "R16"
    title = "every definition is named outside the tests"

    def check_program(self, program: Program) -> Findings:
        used: dict[str, list[tuple[str, int]]] = {}
        for path, module in program.modules.items():
            if path != ACCEPTED_TABLE:
                for name, line in uses_in(module):
                    used.setdefault(name, []).append((path, line))
        for path, text in program.texts.items():
            for name, line in text_uses(text):
                used.setdefault(name, []).append((path, line))
        findings = [
            Violation(
                self.rule_id, definition.path, definition.first,
                f"{definition.qualname} is named nowhere outside the tests: delete it, "
                "or give it its caller",
                definition.qualname,
            )
            for definition in program.definitions
            if all(
                path == definition.path and definition.first <= line <= definition.last
                for path, line in used.get(definition.name, ())
            )
        ]
        return Findings(findings, {definition.qualname for definition in program.definitions})
