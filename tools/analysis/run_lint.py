#!/usr/bin/env python
"""Repo-invariant lint entry point (``make lint``).

Runs every rule in ``tools/analysis/rules`` over the source tree and
exits non-zero on any unsuppressed violation::

    python tools/analysis/run_lint.py                 # lint src/ + tools/
    python tools/analysis/run_lint.py src/repro/core  # judge a subtree
    python tools/analysis/run_lint.py --list-rules    # show the rule set

The paths pick what is judged; the program rules (R13-R16) read the
whole tree whatever is judged.  Per-line suppression of a module rule
uses ``# lint: disable=R1[,R2]`` on the offending line; rule R3
additionally honours its own ``# fail-open-ok: <reason>`` justification
tag; a program rule's finding stays only through a row of
``tools/analysis/accepted.py``.  Rules, rationale and examples are documented in
``docs/ANALYSIS.md``; every rule has good/bad fixtures under
``tools/analysis/fixtures/`` that ``tests/test_analysis_lint.py`` locks
its behaviour to.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
sys.path.insert(0, str(REPO_ROOT))

from tools.analysis.core import FIXTURES, analyze_paths  # noqa: E402
from tools.analysis.rules import ALL_RULES  # noqa: E402

#: What gets linted when no paths are given.  ``tools/`` includes this
#: package itself (the lint must pass its own rules); fixtures are the
#: deliberate violation corpus and are excluded below.
DEFAULT_PATHS = ("src", "tools")

#: Repo-relative prefixes never linted: the fixture corpus *is* the
#: set of violations the tests require the rules to find.
EXCLUDED_PREFIXES = (FIXTURES,)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "paths", nargs="*", default=list(DEFAULT_PATHS),
        help="files or directories to lint (default: src/ and tools/)",
    )
    parser.add_argument(
        "--list-rules", action="store_true", help="print the rule set and exit",
    )
    args = parser.parse_args(argv)

    if args.list_rules:
        for rule in ALL_RULES:
            print(f"{rule.rule_id}: {rule.title}")
        return 0

    paths = [(REPO_ROOT / path) if not Path(path).is_absolute() else Path(path)
             for path in args.paths]
    missing = [path for path in paths if not path.exists()]
    if missing:
        for path in missing:
            print(f"no such path: {path}")
        return 2

    violations = [
        violation
        for violation in analyze_paths(paths, ALL_RULES, root=REPO_ROOT)
        if not violation.path.startswith(EXCLUDED_PREFIXES)
    ]
    for violation in violations:
        print(violation)
    if violations:
        print(
            f"lint FAILED: {len(violations)} violation(s) across "
            f"{len({violation.path for violation in violations})} file(s) "
            f"({len(ALL_RULES)} rules active)"
        )
        return 1
    print(f"lint ok: {len(ALL_RULES)} rules, no violations")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
