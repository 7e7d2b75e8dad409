#!/usr/bin/env python3
"""Reached by the product: every function in ``src/repro`` that a shipped entry point enters.

    make reach        # = PYTHONPATH=src python tools/reach.py

Runs, in this interpreter and under the standard library's ``cProfile``,
every entry point the Makefile and CI run except the test suites: the
examples, every soak of ``repro.workloads.soak.SOAKS`` at its committed
size, the ``bench_*`` micro-benches of ``benchmarks/run_benchmarks.py``,
each ``perf/`` workload at ``make perf_smoke``'s size once plain and
once traced, ``tools/audit_dump.py``'s dump, ``tools/check_docs.py`` and
``tools/sanitizer_smoke.py``.  Their standard output is discarded; an
exception in one propagates.  A soak's gates and a tool's exit code are
judged by their own jobs, not here: profiling skews wall-time gates.

Then prints each function or method of ``src/repro`` that no entry point
entered, as ``qualname (file:line)``.  Dunders and declaration stubs (a
body of only a docstring, ``...``, ``pass`` or ``raise
NotImplementedError``) are not judged, and neither is a class: a
dataclass's generated ``__init__`` has no code object of its own here.
Nor is a function ``perf/tracing.py::ENTRY_POINTS`` pins: ``perf/`` is
frozen with the benchmark, and its smoke test fails on a pin that no
longer resolves.  Those are printed apart, to go with the next change
to the benchmark.
A function is matched to the code objects the profiler saw by file and
first line, its first decorator's line when it has one
(``co_firstlineno``).

The definitions come from the lint's parse (``tools/analysis``), and
the ``reach`` and ``R16`` rows of its accepted table
(``tools/analysis/accepted.py``) are the findings that stay, each with
its category, reason and the test that drives it.  Exits non-zero on a
finding no row keeps, and on a row the table's one staleness check
drops: one entered now, naming no definition or naming a test that does
not exist.  The table can only shrink; ``make lint`` holds its shape.
"""

from __future__ import annotations

import argparse
import contextlib
import cProfile
import glob
import os
import runpy
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

from tools.analysis.accepted import ACCEPTED, stale_rows  # noqa: E402
from tools.analysis.core import Definition, load_program  # noqa: E402

#: The rows of the accepted table this gate reads: a definition nothing
#: outside the tests names (R16) is entered by nothing outside them either.
ROWS_READ = ("reach", "R16")


def entered(entry_points: Iterable[tuple[str, Callable[[], object]]], *, log=None) -> set:
    """``(absolute file, first line)`` of every code object the entry points entered.

    ``entry_points`` is iterated under the profiler too, so a generator
    that imports the product as it starts has its import-time calls seen.
    """
    profile = cProfile.Profile()
    profile.enable()
    try:
        for name, run in entry_points:
            if log is not None:
                print(f"  {name}", file=log, flush=True)
            with open(os.devnull, "w") as sink, contextlib.redirect_stdout(sink):
                run()
    finally:
        profile.disable()
    profile.create_stats()
    return {(os.path.realpath(file), line) for file, line, _ in profile.stats}


def unreached(definitions: list[Definition], seen: set, root: Path) -> list[Definition]:
    """The judged definitions no code object in ``seen`` starts."""
    return [
        definition for definition in definitions
        if definition.kind == "function"
        and (os.path.realpath(root / definition.path), definition.first) not in seen
    ]


def pinned_by_tracer() -> set[tuple[str, str]]:
    """``(path, qualname)`` of every function ``perf/tracing.py`` wraps by name."""
    from perf.tracing import ENTRY_POINTS

    pinned = set()
    for targets in ENTRY_POINTS.values():
        for target in targets:
            module, _, qualname = target.partition(":")
            pinned.add((f"src/{module.replace('.', '/')}.py", qualname))
    return pinned


def report(findings: list[Definition], rows, definitions: list[Definition],
           root: Path) -> list[str]:
    """One line per finding no row keeps, and per row the table's one staleness check drops."""
    kept = {row.qualname for row in rows}
    lines = [str(finding) for finding in findings if finding.qualname not in kept]
    judged = {definition.qualname for definition in definitions}
    found = {finding.qualname for finding in findings}
    lines += [
        f"stale: {row.rule} row {row.qualname}: {why}"
        for row, why in stale_rows(rows, judged, found, root)
    ]
    return lines


# ----------------------------------------------------------------------
# The product's entry points
# ----------------------------------------------------------------------

#: ``make perf_smoke``'s ``--seconds``.
PERF_SMOKE_SECONDS = 2.0
SEED = 2009


def product_entry_points() -> Iterator[tuple[str, Callable[[], object]]]:
    """Every shipped entry point, ``(name, run)``; the product is imported on the first step."""
    from perf import run as perf_run
    from perf.workloads import WORKLOADS
    from repro.workloads import soak
    from tools import audit_dump, check_docs, sanitizer_smoke

    def example(path):
        return lambda: runpy.run_path(path, run_name="__main__")

    def perf_repeat(name, traced):
        args = argparse.Namespace(
            workload=name, seconds=PERF_SMOKE_SECONDS, seed=SEED, trace=int(traced),
            trace_out="", setups=perf_run.SETUPS,
        )
        return lambda: perf_run.child_main(args)

    benchmarks = runpy.run_path(str(REPO_ROOT / "benchmarks/run_benchmarks.py"))

    def micro_benches():
        results: dict = {}
        for name, bench in benchmarks.items():
            if name.startswith("bench_") and name != "bench_soaks":
                bench(results)

    for path in sorted(glob.glob(str(REPO_ROOT / "examples/*.py"))):
        yield f"example {Path(path).name}", example(path)
    for name in soak.SOAKS:
        yield f"soak {name}", lambda name=name: soak.main([name])
    yield "micro-benches", micro_benches
    for name in WORKLOADS:
        for traced in (False, True):
            yield f"perf {name}{' traced' if traced else ''}", perf_repeat(name, traced)
    for name in WORKLOADS:
        yield f"audit dump {name}", lambda name=name: audit_dump.dump(
            name, SEED, perf_run.DEFAULT_SECONDS
        )
    yield "docs check", check_docs.main
    yield "sanitizer smoke", sanitizer_smoke.main


def main() -> int:
    print("entry points:")
    seen = entered(product_entry_points(), log=sys.stdout)
    definitions = load_program(REPO_ROOT, {}).definitions
    pinned = pinned_by_tracer()
    findings, held = [], []
    for finding in unreached(definitions, seen, REPO_ROOT):
        (held if (finding.path, finding.qualname) in pinned else findings).append(finding)
    rows = [row for row in ACCEPTED if row.rule in ROWS_READ]
    lines = report(findings, rows, definitions, REPO_ROOT)
    judged = sum(definition.kind == "function" for definition in definitions)
    print(f"{judged} functions judged, {len(findings)} not entered, {len(rows)} on the list")
    for finding in held:
        print(f"pinned by perf/tracing.py, not judged: {finding}")
    for line in lines:
        print(line)
    if lines:
        print(f"FAIL: {len(lines)} findings: delete each unreached function, or give it a "
              "reach row in tools/analysis/accepted.py with its category, reason and test; "
              "drop stale rows")
        return 1
    print("reach ok: every function in src/repro is entered by the product or listed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
