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

``tools/reach_accepted.py`` lists the few findings that stay, each with
its category, the test that drives it and why.  Exits non-zero on a
finding that is not on the list, and on a list entry that is entered
now, names no definition or names a test that does not exist: the list
can only shrink.
"""

from __future__ import annotations

import argparse
import ast
import contextlib
import cProfile
import functools
import glob
import os
import runpy
import sys
from pathlib import Path
from typing import Callable, Iterable, Iterator, NamedTuple

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFINED_IN = "src/repro"
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]


class Definition(NamedTuple):
    qualname: str
    path: str
    first: int
    last: int
    #: ``"class"``, ``"function"``, or ``"stub"`` for a function that only declares.
    kind: str = "function"

    @property
    def name(self) -> str:
        return self.qualname.rpartition(".")[2]

    def __str__(self) -> str:
        return f"{self.qualname} ({self.path}:{self.first})"


def is_stub(node: ast.AST) -> bool:
    """A body of only a docstring, ``...``, ``pass`` or ``raise NotImplementedError``."""
    for statement in node.body:
        if isinstance(statement, ast.Pass):
            continue
        if isinstance(statement, ast.Expr) and isinstance(statement.value, ast.Constant):
            continue
        if isinstance(statement, ast.Raise) and statement.exc is not None:
            exc = statement.exc.func if isinstance(statement.exc, ast.Call) else statement.exc
            if isinstance(exc, ast.Name) and exc.id == "NotImplementedError":
                continue
        return False
    return True


def definitions_in(tree: ast.AST, path: str) -> list[Definition]:
    """Every function, method and class of ``tree`` (nested ones too), dunders aside."""
    found = []

    def visit(body, prefix):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qualname = prefix + node.name
                if not (node.name.startswith("__") and node.name.endswith("__")):
                    first = min([node.lineno] + [d.lineno for d in node.decorator_list])
                    kind = (
                        "class" if isinstance(node, ast.ClassDef)
                        else "stub" if is_stub(node) else "function"
                    )
                    found.append(Definition(qualname, path, first, node.end_lineno, kind))
                visit(node.body, qualname + ".")

    visit(tree.body, "")
    return found


@functools.cache
def _parsed(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def definitions_under(root: Path, directory: str) -> list[Definition]:
    """:func:`definitions_in` over every ``.py`` file under ``root / directory``."""
    return [
        definition
        for path in sorted((root / directory).rglob("*.py"))
        for definition in definitions_in(_parsed(path), path.relative_to(root).as_posix())
    ]


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


def names_a_test(node_id: str, root: Path) -> bool:
    """Whether ``tests/file.py::Class::test`` names a file and, in it, those definitions."""
    path, *names = node_id.split("::")
    if not names or not (root / path).is_file():
        return False
    body = _parsed(root / path).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def stale_entries(accepted: dict, definitions: list[Definition], findings: list[Definition],
                  root: Path) -> list[str]:
    """List entries that are entered now, name no definition, or name no test."""
    qualnames = {definition.qualname for definition in definitions}
    found = {finding.qualname for finding in findings}
    stale = []
    for qualname, (_, test, _) in accepted.items():
        if qualname not in qualnames:
            stale.append(f"{qualname} (no such definition)")
        elif qualname not in found:
            stale.append(f"{qualname} (entered now)")
        if not names_a_test(test, root):
            stale.append(f"{qualname} (no such test: {test})")
    return stale


def shape_problems(accepted: dict) -> list[str]:
    """The list's own rules: its length, its categories and a reason on every entry."""
    from tools.reach_accepted import CATEGORIES, LIMIT, READING_LIMIT

    problems = []
    if len(accepted) > LIMIT:
        problems.append(f"{len(accepted)} entries, more than {LIMIT}")
    readings = sum(category == "reading" for category, _, _ in accepted.values())
    if readings > READING_LIMIT:
        problems.append(f"{readings} reading entries, more than {READING_LIMIT}")
    for qualname, (category, _, reason) in accepted.items():
        if category not in CATEGORIES:
            problems.append(f"{qualname}: category {category!r} is not one of {CATEGORIES}")
        if not reason.strip():
            problems.append(f"{qualname}: no reason")
    return problems


def report(findings: list[Definition], accepted: dict, definitions: list[Definition],
           root: Path) -> list[str]:
    """One line per finding not on the list, per stale list entry and per broken list rule."""
    lines = [str(finding) for finding in findings if finding.qualname not in accepted]
    lines += [f"stale: {entry}" for entry in stale_entries(accepted, definitions, findings, root)]
    lines += [f"list: {problem}" for problem in shape_problems(accepted)]
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
    from tools.reach_accepted import ACCEPTED

    print("entry points:")
    seen = entered(product_entry_points(), log=sys.stdout)
    definitions = definitions_under(REPO_ROOT, DEFINED_IN)
    pinned = pinned_by_tracer()
    findings, held = [], []
    for finding in unreached(definitions, seen, REPO_ROOT):
        (held if (finding.path, finding.qualname) in pinned else findings).append(finding)
    lines = report(findings, ACCEPTED, definitions, REPO_ROOT)
    judged = sum(definition.kind == "function" for definition in definitions)
    print(f"{judged} functions judged, {len(findings)} not entered, {len(ACCEPTED)} on the list")
    for finding in held:
        print(f"pinned by perf/tracing.py, not judged: {finding}")
    for line in lines:
        print(line)
    if lines:
        print(f"FAIL: {len(lines)} findings: delete each unreached function, or list it "
              "in tools/reach_accepted.py with its category, test and reason; drop stale entries")
        return 1
    print("reach ok: every function in src/repro is entered by the product or listed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
