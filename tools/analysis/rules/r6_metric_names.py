"""R6 — histograms and rate counters must be named.

The same failure shape R5 catches for ``Counter`` applies to the two
other instruments in :mod:`repro.netsim.statistics`, with an extra
twist each:

* **Histogram** — the controller keeps one per latency it measures
  (``<controller>.flow_setup_latency``, ``<controller>.query_latency``)
  and a histogram's ``repr`` names it; an anonymous one cannot say
  which latency it holds.
* **RateCounter** — the telemetry plane builds one windowed rate per
  series and keys it by the counter's name (``TelemetryPlane._rate``),
  and the error a negative count raises names it; an anonymous rate
  counter backs a probe nobody can tell apart.

Both constructors accept the name as the first positional argument, so
the fix is one token: ``Histogram("decision_latency")``.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: Instrument constructors whose first argument is the registry name.
NAMED_INSTRUMENTS = {"Histogram", "RateCounter"}


class MetricNamesRule:
    """Flag unnamed Histogram / RateCounter construction."""

    rule_id = "R6"
    title = "histograms and rate counters must be named"

    def check(self, module: ParsedModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in ast.walk(module.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if isinstance(func, ast.Name):
                called = func.id
            elif isinstance(func, ast.Attribute):
                called = func.attr
            else:
                continue
            if called not in NAMED_INSTRUMENTS:
                continue
            if node.args or any(
                keyword.arg == "name" for keyword in node.keywords
            ):
                continue
            violations.append(
                module.violation(
                    self.rule_id,
                    node,
                    f"`{called}()` without a name records invisibly — "
                    f"its repr, its errors and the telemetry plane's rate "
                    f"series key on the name; "
                    f"pass the name as the first argument",
                )
            )
        return violations
