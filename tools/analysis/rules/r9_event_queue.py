"""R9 — one way onto the event queue, and no per-event label formatting.

Every event enters a :class:`~repro.netsim.events.Simulator` through
``schedule`` (``schedule_at`` / ``schedule_repeating`` end there too,
and ``deliver`` either does or rides an event that did):
that one method is where the runtime sanitizer sees the event and where
the wall-clock benchmark's tracing shim wraps its callback.  The heap
behind it, ``Simulator._queue``, has a record layout, a dead-record
count and a compaction rule that only ``netsim/events.py`` maintains;
code that pushes onto it, pops from it or measures it from outside
produces events no hook saw, or breaks the count that keeps cancelled
records from piling up.

The same call is the hottest allocation site in the repo — one call per
packet hop, several per punt — so what is passed to it is built once per
owner, not once per event: an f-string ``label=`` re-formats the same
text on every call.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: The simulator's heap -> the one module that may touch it.
EVENT_QUEUE = "_queue"
EVENT_QUEUE_OWNER = "src/repro/netsim/events.py"

#: Receiver names that identify a simulator in this repo (``sim._queue``,
#: ``self.sim._queue``, ``topology.sim._queue``, ``self._sim._queue``).
#: Other classes keep a ``self._queue`` of their own (the controller's
#: serial decision queue); those are not the event heap.
SIMULATOR_RECEIVERS = {"sim", "_sim", "simulator"}

#: The calls that put an event on the queue.
SCHEDULING_METHODS = {"schedule", "schedule_at", "schedule_repeating", "deliver"}


def _receiver_name(node: ast.expr) -> str:
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return ""


class EventQueueRule:
    """Flag event-heap access outside its owner and f-string event labels."""

    rule_id = "R9"
    title = "events enter through Simulator.schedule, with labels built once"

    def check(self, module: ParsedModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in module.nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr == EVENT_QUEUE
                and _receiver_name(node.value) in SIMULATOR_RECEIVERS
                and module.rel_path != EVENT_QUEUE_OWNER
            ):
                violations.append(
                    module.violation(
                        self.rule_id,
                        node,
                        f"`.{EVENT_QUEUE}` is the Simulator's private heap — schedule "
                        f"through `schedule()` (the sanitizer and tracing hook) and "
                        f"read its size with `pending()`",
                    )
                )
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in SCHEDULING_METHODS
            ):
                continue
            for keyword in node.keywords:
                if keyword.arg == "label" and isinstance(keyword.value, ast.JoinedStr):
                    violations.append(
                        module.violation(
                            self.rule_id,
                            keyword.value,
                            f"f-string `label=` in `{node.func.attr}()` formats the same "
                            f"text on every event — build the label once per owner "
                            f"(rebuilding it when the owner's name changes)",
                        )
                    )
        return violations
