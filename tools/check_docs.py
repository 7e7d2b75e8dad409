#!/usr/bin/env python
"""Docs rot check: links must resolve, required sections must exist.

Scans ``docs/*.md``, ``README.md``, ``ROADMAP.md`` and ``CHANGES.md``
for markdown inline links (``[text](target)``) and fails (exit 1) when
a relative link points at a file that does not exist.  External links
(``http(s)://``) and pure anchors (``#...``) are skipped; a
``path#anchor`` link is checked for the path part only.

On top of links, ``REQUIRED_SECTIONS`` pins the headings the rest of
the repo refers to (subsystem docs each PR promises, benchmark gate
tables): deleting or renaming one without updating this list fails the
check, so the architecture/benchmark docs cannot silently lose the
sections other documents and PR acceptance criteria point at.  Each
rule of ``tools/analysis``'s ``ALL_RULES`` must have a heading in
``docs/ANALYSIS.md`` that starts ``### <rule id> — ``.

``docs/BENCHMARKS.md`` is also held to ``BENCH_results.json``: every
name in the first column of an ``Entry`` table under the ``results``
heading (``name_{a,b}`` brace lists expanded) must be a key of that map
in the JSON file, and every key must have a row.  A gated
path — a row of a soak module's ``SOAK`` table or of
``benchmarks/run_benchmarks.py::GATES`` — must have such a row too, and
the row must name the gated key.

Run directly or via ``make docs_check``; CI runs it in the docs job so
documentation cannot drift from the tree it describes.
"""

from __future__ import annotations

import importlib.util
import json
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(REPO_ROOT / "src"), str(REPO_ROOT)]

#: Markdown inline links: [text](target)
LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")

#: Files whose links are checked.
DOC_FILES = ["README.md", "ROADMAP.md", "CHANGES.md"]

#: Where each lint rule of ``tools/analysis`` has a ``### R<n> — `` section.
RULES_DOC = "docs/ANALYSIS.md"

#: Headings (exact markdown lines) each doc must keep carrying.
REQUIRED_SECTIONS: dict[str, list[str]] = {
    "docs/ARCHITECTURE.md": [
        "## Paper-section → module map",
        "## Package dependency order",
        "## Life of a punted flow (multi-hop edition)",
        "### Identity answer path",
        "### Event loop and packet hop",
        "## Query engine",
        "## Identity plane (push)",
        "## Decision core",
        "## Telemetry plane",
        "## Experiment harness",
    ],
    "docs/BENCHMARKS.md": [
        "## `results` entries",
        "### Cluster control plane (PR 3)",
        "### Enforcement fabric (PR 4)",
        "### Query engine (PR 5)",
        "### Decision core (PR 6)",
        "### Determinism gate (PR 7)",
        "### Telemetry (PR 8)",
        "### Scenario matrix (PR 9)",
        "### Push plane (PR 10)",
        "### Paper experiments (E1–E12)",
    ],
    "docs/ANALYSIS.md": [
        "## Running the lint",
        "## Rules",
        "## Suppression",
        "## The accepted table",
        "## The runtime sanitizer",
    ],
    "README.md": [
        "## Performance architecture",
        "## State lifecycle",
        "## Cluster control plane",
        "## Query engine",
        "## Determinism and analysis",
    ],
}


def check_required_sections() -> list[str]:
    """Return a problem line for every required heading that is missing,
    and for every lint rule without a ``### R<n> — `` section of its own."""
    from tools.analysis.rules import ALL_RULES

    problems = []
    for rel_path, headings in sorted(REQUIRED_SECTIONS.items()):
        path = REPO_ROOT / rel_path
        if not path.exists():
            problems.append(f"{rel_path}: required doc file is missing")
            continue
        lines = [line.strip() for line in path.read_text(encoding="utf-8").splitlines()]
        for heading in headings:
            if heading not in lines:
                problems.append(f"{rel_path}: missing required section {heading!r}")
        if rel_path == RULES_DOC:
            for rule in ALL_RULES:
                prefix = f"### {rule.rule_id} — "
                if not any(line.startswith(prefix) for line in lines):
                    problems.append(f"{rel_path}: no section {prefix!r}... for {rule.rule_id}")
    return problems


def documented_entries(text: str) -> dict[str, dict[str, str]]:
    """Return the ``Entry`` table rows of BENCHMARKS.md, per JSON map, by the
    names their first column lists."""
    entries: dict[str, dict[str, str]] = {}
    rows = None
    in_entry_table = False
    for line in text.splitlines():
        if line.startswith("## "):
            heading = re.fullmatch(r"## `(\w+)` entries", line.strip())
            rows = entries.setdefault(heading.group(1), {}) if heading else None
        if rows is None or not line.startswith("|"):
            in_entry_table = False
            continue
        first_cell = line.split("|")[1].strip()
        if first_cell == "Entry":
            in_entry_table = True
        elif in_entry_table:
            for name in re.findall(r"`([^`]+)`", first_cell):
                braces = re.search(r"\{([^}]*)\}", name)
                if braces is None:
                    rows[name] = line
                    continue
                for item in braces.group(1).split(","):
                    rows[name[: braces.start()] + item.strip() + name[braces.end():]] = line
    return entries


def gated_paths() -> list[str]:
    """Return every gated path, from the top of ``BENCH_results.json``."""
    from repro.workloads.soak import SOAKS, load

    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", REPO_ROOT / "benchmarks" / "run_benchmarks.py"
    )
    run_benchmarks = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(run_benchmarks)
    gates = [*run_benchmarks.GATES, *(gate for name in SOAKS for gate in load(name).gates)]
    return [f"results.{gate.path}" for gate in gates]


def check_benchmark_entries() -> list[str]:
    """Return a problem line per documented entry without a JSON key, per
    key without a row, and per gated path whose row does not name it."""
    payload = json.loads((REPO_ROOT / "BENCH_results.json").read_text(encoding="utf-8"))
    text = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text(encoding="utf-8")
    documented = documented_entries(text)
    problems = []
    for section, rows in sorted(documented.items()):
        keys = set(payload[section])
        for name in sorted(set(rows) - keys):
            problems.append(
                f"docs/BENCHMARKS.md: `{name}` is not a key of BENCH_results.json {section}"
            )
        for key in sorted(keys - set(rows)):
            problems.append(f"docs/BENCHMARKS.md: BENCH_results.json {section}.{key} has no row")
    for path in gated_paths():
        section, entry, *rest = path.split(".")
        row = documented.get(section, {}).get(entry)
        if row is None:
            problems.append(f"docs/BENCHMARKS.md: gated {path} has no row for `{entry}`")
        elif rest and f"`{rest[-1]}`" not in row:
            problems.append(
                f"docs/BENCHMARKS.md: the `{entry}` row does not name the gated `{rest[-1]}`"
            )
    return problems


def iter_doc_files() -> list[Path]:
    """Return every markdown file the checker covers."""
    files = [REPO_ROOT / name for name in DOC_FILES if (REPO_ROOT / name).exists()]
    docs = REPO_ROOT / "docs"
    if docs.is_dir():
        files.extend(sorted(docs.glob("*.md")))
    return files


def check_file(path: Path) -> list[str]:
    """Return a list of broken-link descriptions for one markdown file."""
    problems = []
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(("http://", "https://", "mailto:", "#")):
            continue
        file_part = target.split("#", 1)[0]
        if not file_part:
            continue
        resolved = (path.parent / file_part).resolve()
        if not resolved.exists():
            line = text[: match.start()].count("\n") + 1
            problems.append(
                f"{path.relative_to(REPO_ROOT)}:{line}: broken link -> {target}"
            )
    return problems


def main() -> int:
    files = iter_doc_files()
    if not (REPO_ROOT / "docs").is_dir():
        print("FAIL: docs/ directory does not exist")
        return 1
    problems: list[str] = []
    for path in files:
        problems.extend(check_file(path))
    problems.extend(check_required_sections())
    problems.extend(check_benchmark_entries())
    for problem in problems:
        print(problem)
    checked = len(files)
    if problems:
        print(
            f"docs check FAILED: {len(problems)} problems "
            f"(broken links / missing sections / benchmark entries) in {checked} files"
        )
        return 1
    print(
        f"docs check ok: all relative links resolve, required sections present "
        f"and benchmark entries match BENCH_results.json across {checked} files"
    )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
