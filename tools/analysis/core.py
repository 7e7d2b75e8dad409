"""Lint engine shared by every rule: parsing, suppression, reporting.

Rules are small classes with a ``rule_id``.  A module rule has a
``check(module)`` method and judges one file at a time; a program rule
has a ``check_program(program)`` method and judges ``src/repro`` against
the whole tree (:class:`Program`).  This module owns everything around
them — parsing and walking each file once into a :class:`ParsedModule`,
inline suppression (``# lint: disable=R2``, module rules only), the
accepted table (program rules only), and ordering the combined report.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import gc
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Protocol, Sequence

from tools.analysis.accepted import ACCEPTED, shape_problems, stale_rows

#: Inline per-line suppression: ``# lint: disable=R1[,R2...]``
SUPPRESS_RE = re.compile(r"#\s*lint:\s*disable=([A-Za-z0-9_,\s]+)")

#: What the program rules judge: the product.
PRODUCT = "src/repro/"
#: Where a program rule counts a caller, a value or a read, whatever is judged.
READERS = ("src", "perf", "benchmarks", "examples", "tools")
#: The lint's own test data: never a reader, and never judged by ``make lint``.
FIXTURES = "tools/analysis/fixtures/"
#: Read as plain text too: the CI lint job's heredoc calls ``shadow_replay``.
TEXT_READERS = ("Makefile", ".github/workflows/*.yml")
#: Where the accepted rows live, and where a stale one is reported.
ACCEPTED_TABLE = "tools/analysis/accepted.py"


@dataclass(frozen=True)
class Violation:
    """One rule violation at one source location."""

    rule_id: str
    path: str
    line: int
    message: str
    #: What an accepted row names to keep a program rule's finding.
    qualname: str = ""

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: {self.rule_id} {self.message}"

    @property
    def sort_key(self) -> tuple[str, int, str]:
        return (self.path, self.line, self.rule_id)


@dataclass
class ParsedModule:
    """One source file, parsed once and shared by every rule."""

    path: Path
    #: Repo-relative posix path ("src/repro/core/controller.py") —
    #: what allowlists match against and what reports print.
    rel_path: str
    tree: ast.Module
    lines: list[str] = field(default_factory=list)

    @functools.cached_property
    def nodes(self) -> list[ast.AST]:
        """Every node of the tree in ``ast.walk`` order: one walk every rule shares."""
        return list(ast.walk(self.tree))

    def line_text(self, line: int) -> str:
        """Return the 1-indexed source line ('' when out of range)."""
        if 1 <= line <= len(self.lines):
            return self.lines[line - 1]
        return ""

    def suppressed_rules(self, line: int) -> set[str]:
        """Return the rule ids inline-suppressed on a 1-indexed line."""
        match = SUPPRESS_RE.search(self.line_text(line))
        if not match:
            return set()
        return {part.strip().upper() for part in match.group(1).split(",") if part.strip()}

    def violation(
        self, rule_id: str, node: ast.AST | int, message: str, qualname: str = "",
    ) -> Violation:
        """Build a :class:`Violation` at an AST node (or explicit line)."""
        line = node if isinstance(node, int) else getattr(node, "lineno", 0)
        return Violation(rule_id, self.rel_path, line, message, qualname)


class LintRule(Protocol):
    """What every module rule exports (duck-typed; see ``rules/``)."""

    rule_id: str
    title: str

    def check(self, module: ParsedModule) -> list[Violation]:
        """Return every violation of this rule in one parsed module."""
        ...  # pragma: no cover - protocol stub


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
    """Every function, method and class of ``tree`` (nested ones too), dunders aside.

    ``first`` is the first decorator's line when there is one: the
    ``co_firstlineno`` of the code object ``make reach`` matches it to.
    """
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


def callee(call: ast.Call) -> str:
    """The name a call is made through: ``f(...)`` and ``x.f(...)`` both give ``f``."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def base_names(node: ast.ClassDef) -> set[str]:
    return {
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))
    }


@dataclass
class Program:
    """The tree as the program rules see it: every reader, parsed once.

    A planted program (a fixture standing in for a module of
    ``src/repro``) is its own only reader and has no accepted rows.
    """

    #: Repo-relative path -> module, for every ``.py`` file of :data:`READERS`.
    modules: dict[str, ParsedModule]
    #: Repo-relative path -> text, for each of :data:`TEXT_READERS`.
    texts: dict[str, str] = field(default_factory=dict)
    accepted: tuple = ()
    #: Where the accepted rows' tests are found.
    root: Optional[Path] = None

    @functools.cached_property
    def judged(self) -> list[ParsedModule]:
        return [module for path, module in self.modules.items() if path.startswith(PRODUCT)]

    @functools.cached_property
    def definitions(self) -> list[Definition]:
        """Every definition of ``src/repro``: what R16 and ``make reach`` judge."""
        return [
            definition
            for module in self.judged
            for definition in definitions_in(module.tree, module.rel_path)
        ]


class Findings(NamedTuple):
    """A program rule's findings, and every name it judged: what a row may name."""

    findings: list[Violation]
    judged: set[str]


class ProgramRule(Protocol):
    """What every program rule exports (duck-typed; see ``rules/``)."""

    rule_id: str
    title: str

    def check_program(self, program: Program) -> Findings:
        ...  # pragma: no cover - protocol stub


def is_program_rule(rule) -> bool:
    return hasattr(rule, "check_program")


def load_program(root: Path, parsed: dict[str, ParsedModule]) -> Program:
    """Every reader under ``root``, the modules of ``parsed`` not parsed again."""
    modules: dict[str, ParsedModule] = {}
    for reader in READERS:
        for path in sorted((root / reader).rglob("*.py")):
            rel_path = path.relative_to(root).as_posix()
            if not rel_path.startswith(FIXTURES):
                modules[rel_path] = parsed.get(rel_path) or parse_module(path, root)
    texts = {
        path.relative_to(root).as_posix(): path.read_text(encoding="utf-8")
        for pattern in TEXT_READERS
        for path in sorted(root.glob(pattern))
    }
    return Program(modules, texts, ACCEPTED, root)


def _table_violation(program: Program, rule_id: str, row, message: str) -> Violation:
    """A problem of the accepted table, on the line of its row."""
    table = program.modules.get(ACCEPTED_TABLE)
    line = 1
    if row is not None:
        needle = f'"{row.rule}", "{row.qualname}"'
        lines = table.lines if table is not None else []
        line = next((n for n, text in enumerate(lines, 1) if needle in text), 1)
        message = f"{row.rule} row {row.qualname}: {message}"
    return Violation(rule_id, ACCEPTED_TABLE, line, f"accepted table: {message}")


def analyze_program(program: Program, rules: Sequence[ProgramRule]) -> list[Violation]:
    """Run the program rules; an accepted row keeps the findings it names.

    Inline suppression does not apply: the accepted table, with its
    limits, is the one allowlist.  A row whose definition, finding or
    test is gone is reported on its line of the table, and so is a break
    of the table's own rules.
    """
    found: list[Violation] = []
    for rule in rules:
        verdict = rule.check_program(program)
        rows = [row for row in program.accepted if row.rule == rule.rule_id]
        kept = {row.qualname for row in rows}
        found += [finding for finding in verdict.findings if finding.qualname not in kept]
        named = {finding.qualname for finding in verdict.findings}
        for row, why in stale_rows(rows, verdict.judged, named, program.root):
            found.append(_table_violation(program, rule.rule_id, row, why))
    for row, why in shape_problems(program.accepted):
        found.append(_table_violation(program, row.rule if row else rules[0].rule_id, row, why))
    return found


def parse_module(path: Path, root: Path) -> ParsedModule:
    """Parse one file into a :class:`ParsedModule` (syntax errors raise)."""
    source = path.read_text(encoding="utf-8")
    return ParsedModule(
        path=path,
        rel_path=path.resolve().relative_to(root.resolve()).as_posix(),
        tree=ast.parse(source, filename=str(path)),
        lines=source.splitlines(),
    )


def analyze_module(module: ParsedModule, rules: Sequence[LintRule]) -> list[Violation]:
    """Run every module rule over one parsed module, honouring inline suppression."""
    found: list[Violation] = []
    for rule in rules:
        if is_program_rule(rule):
            continue
        for violation in rule.check(module):
            if rule.rule_id in module.suppressed_rules(violation.line):
                continue
            found.append(violation)
    return found


def analyze_source(
    source: str,
    rules: Sequence[LintRule | ProgramRule],
    *,
    rel_path: str = "<string>",
) -> list[Violation]:
    """Lint a source string (the fixture tests drive rules through this).

    ``rel_path`` stands in for the repo-relative path, so path-gated
    rules (R1's workload allowlist) can be exercised without files, and
    a source at ``src/repro/...`` is a whole program to the program
    rules: the module it judges and its only reader.
    """
    module = ParsedModule(
        path=Path(rel_path),
        rel_path=rel_path,
        tree=ast.parse(source),
        lines=source.splitlines(),
    )
    program_rules = [rule for rule in rules if is_program_rule(rule)]
    found = analyze_module(module, rules)
    if program_rules:
        found += analyze_program(Program({rel_path: module}), program_rules)
    return found


def iter_python_files(paths: Iterable[Path]) -> list[Path]:
    """Expand files/directories into a sorted list of ``*.py`` files."""
    files: set[Path] = set()
    for path in paths:
        if path.is_dir():
            files.update(path.rglob("*.py"))
        elif path.suffix == ".py":
            files.add(path)
    return sorted(files)


def analyze_paths(
    paths: Iterable[Path],
    rules: Sequence[LintRule | ProgramRule],
    *,
    root: Path,
) -> list[Violation]:
    """Lint every python file under ``paths``; report repo-relative.

    ``paths`` picks what is judged, never what is read: the program
    rules read every reader under ``root`` (not for the fixtures alone,
    where they have nothing to report).
    """
    with _cyclic_gc_paused():
        modules = {}
        for file_path in iter_python_files(paths):
            module = parse_module(file_path, root)
            modules[module.rel_path] = module
        violations = [
            violation for module in modules.values() for violation in analyze_module(module, rules)
        ]
        program_rules = [rule for rule in rules if is_program_rule(rule)]
        if program_rules and any(not path.startswith(FIXTURES) for path in modules):
            program = load_program(root, modules)
            violations += [
                violation for violation in analyze_program(program, program_rules)
                if violation.path in modules
            ]
    return sorted(violations, key=lambda violation: violation.sort_key)


@contextlib.contextmanager
def _cyclic_gc_paused():
    """No cyclic collection while the trees are built and read: they hold
    no cycles, and each collection walked all their nodes again (a third
    of a whole-tree run)."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        yield
    finally:
        if enabled:
            gc.enable()
