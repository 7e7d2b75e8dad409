"""R4 — event callbacks must not re-enter ``Simulator.run`` or block.

``Simulator.run`` rejects re-entrancy at runtime, but only on the
timeline that actually executes the offending callback — a callback
registered on a rarely-taken path can carry the bug for months (PR 6's
``RepeatingEvent`` cancel-inside-callback loop lived exactly there).
This rule finds the shape statically: any callable handed to the
scheduler's registration points (``schedule``, ``schedule_at``,
``call_now``, ``schedule_repeating``, ``Future.add_done_callback``)
whose body calls ``<something>.run(...)`` on a simulator-ish receiver
(``sim``, ``self.sim``, a ``Simulator`` instance) or blocks on wall
time (``time.sleep``).

Resolution is intentionally shallow — lambdas inline, plus same-module
``def``s referenced by name or ``self.<name>`` — which covers how this
codebase registers callbacks without pretending to be a type checker.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: Scheduler registration points → index of the callback argument.
SCHEDULE_CALLBACK_ARG = {
    "schedule": 1,
    "schedule_at": 1,
    "call_now": 0,
    "schedule_repeating": 1,
    "add_done_callback": 0,
}

#: Receiver names that identify a simulator (``sim.run``, ``self.sim.run``).
SIMULATOR_RECEIVERS = {"sim", "simulator"}


def _receiver_is_simulator(node: ast.expr) -> bool:
    if isinstance(node, ast.Name):
        return node.id.lower() in SIMULATOR_RECEIVERS
    if isinstance(node, ast.Attribute):
        return node.attr.lower() in SIMULATOR_RECEIVERS
    return False


def _blocking_calls(body: ast.AST) -> list[ast.Call]:
    """Return the calls inside ``body`` that run the loop or block."""
    offending = []
    for node in ast.walk(body):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        if not isinstance(func, ast.Attribute):
            continue
        if func.attr == "run" and _receiver_is_simulator(func.value):
            offending.append(node)
        elif func.attr == "sleep" and isinstance(func.value, ast.Name) \
                and func.value.id == "time":
            offending.append(node)
    return offending


class BlockingCallbackRule:
    """Flag scheduled callbacks that re-enter the loop or block."""

    rule_id = "R4"
    title = "event callbacks must not call Simulator.run or block"

    def check(self, module: ParsedModule) -> list[Violation]:
        # Same-module function definitions by (last) name, for resolving
        # callbacks registered as `self._fire` / `_fire`.
        defs: dict[str, ast.AST] = {}
        for node in module.nodes:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                defs[node.name] = node

        violations: list[Violation] = []
        seen: set[tuple[int, int]] = set()

        def flag(call_site: ast.Call, offender: ast.Call, via: str) -> None:
            key = (offender.lineno, offender.col_offset)
            if key in seen:
                return
            seen.add(key)
            violations.append(
                module.violation(
                    self.rule_id,
                    offender,
                    f"event callback ({via}) calls the event loop or blocks — "
                    f"callbacks run *inside* `Simulator.run`; schedule a "
                    f"follow-up event instead",
                )
            )

        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            arg_index = SCHEDULE_CALLBACK_ARG.get(func.attr)
            if arg_index is None or len(node.args) <= arg_index:
                continue
            callback = node.args[arg_index]
            if isinstance(callback, ast.Lambda):
                for offender in _blocking_calls(callback.body):
                    flag(node, offender, "lambda")
                continue
            target_name = None
            if isinstance(callback, ast.Name):
                target_name = callback.id
            elif isinstance(callback, ast.Attribute):
                target_name = callback.attr
            if target_name is not None and target_name in defs:
                for offender in _blocking_calls(defs[target_name]):
                    flag(node, offender, f"def {target_name}")
        return violations
