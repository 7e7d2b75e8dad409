"""R1 — simulation code must not read the wall clock.

Virtual time is the whole point of the discrete-event simulator: every
timestamp a scenario observes must come from ``Simulator.now`` so two
runs of the same scenario are bit-for-bit identical.  One stray
``time.time()`` (or ``datetime.now()``) inside simulation logic makes
results depend on the host's load and clock, which no test can catch
reliably — but an AST scan can.

Workload drivers legitimately measure *wall* time (how long the bench
took to run, reported as ``wall_seconds``); those files are allowlisted
explicitly in :data:`WALL_TIMING_ALLOWLIST` rather than exempted by
pattern, so a new module cannot silently opt out.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: Attribute names that read the host clock when called on the ``time``,
#: ``datetime`` or ``date`` modules/classes.
WALL_CLOCK_ATTRS = {
    "time": {"time", "monotonic", "perf_counter", "process_time",
             "time_ns", "monotonic_ns", "perf_counter_ns", "process_time_ns"},
    "datetime": {"now", "utcnow", "today"},
    "date": {"today"},
}

#: Repo-relative path prefixes allowed to measure wall time (bench
#: drivers reporting how long the *host* took, never simulation logic).
WALL_TIMING_ALLOWLIST = (
    "src/repro/workloads/",
    "benchmarks/",
)


class WallClockRule:
    """Flag wall-clock reads outside the explicit wall-timing allowlist."""

    rule_id = "R1"
    title = "no wall-clock reads in simulation code"

    def check(self, module: ParsedModule) -> list[Violation]:
        if module.rel_path.startswith(WALL_TIMING_ALLOWLIST):
            return []
        violations: list[Violation] = []
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            base = func.value
            # time.time(), datetime.now(), datetime.datetime.now(), ...
            base_name = None
            if isinstance(base, ast.Name):
                base_name = base.id
            elif isinstance(base, ast.Attribute):
                base_name = base.attr
            if base_name in WALL_CLOCK_ATTRS and func.attr in WALL_CLOCK_ATTRS[base_name]:
                violations.append(
                    module.violation(
                        self.rule_id,
                        node,
                        f"wall-clock read `{base_name}.{func.attr}()` in simulation "
                        f"code — use the simulator's virtual clock (`sim.now`); "
                        f"workload wall-timing belongs in an allowlisted module",
                    )
                )
        return violations
