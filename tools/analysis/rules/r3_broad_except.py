"""R3 — broad exception handlers must fail closed or justify failing open.

PR 5's round-trip bug is the canonical case: a ``try/except Exception``
around the daemon query swallowed *every* error — including programming
errors — and reported the query as succeeded, silently turning a broken
controller into an allow-all one.  The repo invariant is that a bare
``except:`` / ``except Exception`` / ``except BaseException`` handler is
only acceptable when it

* **re-raises** (wraps into a typed library error), or
* **routes through the fail-closed path** — calls something on the
  fail-closed/audit surface (``_fail_closed``, ``fail_closed``,
  ``audit``) so the error becomes an audited drop decision, or
* **declares itself** with a ``# fail-open-ok: <reason>`` tag on the
  ``except`` line (or the line above), making the fail-open choice a
  reviewed, grep-able decision instead of an accident.

Everything else should narrow to the concrete exception type
(``except TopologyError``) so unexpected errors propagate.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: The justification tag (anchored as a comment, reason required).
FAIL_OPEN_TAG = "# fail-open-ok:"

#: Exception names considered "broad".
BROAD_NAMES = {"Exception", "BaseException"}

#: Substrings of call targets that mark the fail-closed audit surface.
FAIL_CLOSED_MARKERS = ("fail_closed", "fail-closed", "audit")


def _is_broad(handler: ast.ExceptHandler) -> bool:
    """Return True for ``except:``, ``except Exception``, tuples thereof."""
    node = handler.type
    if node is None:
        return True
    names = []
    if isinstance(node, ast.Tuple):
        names = [e for e in node.elts]
    else:
        names = [node]
    for name in names:
        if isinstance(name, ast.Name) and name.id in BROAD_NAMES:
            return True
        if isinstance(name, ast.Attribute) and name.attr in BROAD_NAMES:
            return True
    return False


def _routes_fail_closed(handler: ast.ExceptHandler) -> bool:
    """Return True when the handler re-raises or hits the audit surface."""
    for node in ast.walk(handler):
        if isinstance(node, ast.Raise):
            return True
        if isinstance(node, ast.Call):
            target = node.func
            dotted = ""
            while isinstance(target, ast.Attribute):
                dotted = f".{target.attr}{dotted}"
                target = target.value
            if isinstance(target, ast.Name):
                dotted = f"{target.id}{dotted}"
            lowered = dotted.lower()
            if any(marker in lowered for marker in FAIL_CLOSED_MARKERS):
                return True
    return False


def _has_fail_open_tag(module: ParsedModule, handler: ast.ExceptHandler) -> bool:
    """Return True when the except line (or the one above) carries the tag.

    The reason is mandatory: a bare ``# fail-open-ok:`` with nothing
    after the colon does not count.
    """
    for line in (handler.lineno, handler.lineno - 1):
        text = module.line_text(line)
        index = text.find(FAIL_OPEN_TAG)
        if index != -1 and text[index + len(FAIL_OPEN_TAG):].strip():
            return True
    return False


class BroadExceptRule:
    """Flag broad handlers that neither fail closed nor justify fail-open."""

    rule_id = "R3"
    title = "broad except must fail closed or carry a fail-open-ok tag"

    def check(self, module: ParsedModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in module.nodes:
            if not isinstance(node, ast.ExceptHandler):
                continue
            if not _is_broad(node):
                continue
            if _routes_fail_closed(node):
                continue
            if _has_fail_open_tag(module, node):
                continue
            caught = "bare except" if node.type is None else "except Exception"
            violations.append(
                module.violation(
                    self.rule_id,
                    node,
                    f"{caught} swallows unexpected errors — narrow to the "
                    f"concrete type, route through the fail-closed audit "
                    f"path, or tag `{FAIL_OPEN_TAG} <reason>`",
                )
            )
        return violations
