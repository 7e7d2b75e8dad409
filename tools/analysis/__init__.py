"""Static-analysis lint encoding the repo's simulation invariants.

The simulator's correctness claims (bit-for-bit reproducible scenarios,
fail-closed control paths, a drainable event loop) and the tree's
claim to carry no code only the tests need rest on invariants no
ordinary linter knows about.  This package encodes them as rules over
one parse of the tree: module rules judge ``src/`` and ``tools/`` file
by file, and program rules judge ``src/repro`` against every reader of
it.  The live rule set is ``python tools/analysis/run_lint.py
--list-rules``; each rule's invariant, rationale and suppression are in
``docs/ANALYSIS.md``.

Run via ``python tools/analysis/run_lint.py`` (or ``make lint``).  Each
rule ships with a good/bad fixture pair under
``tools/analysis/fixtures/`` that the test suite locks the rule's
behaviour to; the program rules' findings that stay are the rows of
``tools/analysis/accepted.py``.
"""

from tools.analysis.core import ParsedModule, Violation, analyze_paths, analyze_source
from tools.analysis.rules import ALL_RULES, rules_by_id

__all__ = [
    "ALL_RULES",
    "ParsedModule",
    "Violation",
    "analyze_paths",
    "analyze_source",
    "rules_by_id",
]
