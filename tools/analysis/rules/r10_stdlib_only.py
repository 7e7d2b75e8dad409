"""R10 — the product imports the standard library and itself, nothing else.

``src/repro`` declares no dependency (there is no packaging metadata
and no requirements file: it runs from the checkout with
``PYTHONPATH=src``) and five of the six CI jobs install nothing before
they import it, so an ``import`` of anything outside the standard
library is an ``ImportError`` on a clean machine.  It is also a
cost every process pays whether or not the run uses it: the one
third-party import the product ever had — networkx, holding an adjacency
dict for ``Topology`` — loaded 370 modules, 16 MB of resident memory and
0.19 s of every interpreter start, a third of the fast-path benchmark's
whole footprint.

The same holds for ``tools/``: the lint and the docs check run in jobs
that install nothing.  Tests may use what CI's ``test`` job installs
(``pytest``, ``hypothesis``, and ``networkx`` as an oracle); they are
not linted.
"""

from __future__ import annotations

import ast
import sys

from tools.analysis.core import ParsedModule, Violation

#: Top-level names of this repository's own importable packages.
FIRST_PARTY = {"repro", "tools", "perf"}


class StdlibOnlyRule:
    """Flag imports of anything but the standard library and the repo itself."""

    rule_id = "R10"
    title = "the product imports only the standard library and itself"

    def check(self, module: ParsedModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in module.nodes:
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module or ""]
            else:
                continue
            for name in names:
                top_level = name.partition(".")[0]
                if top_level in FIRST_PARTY or top_level in sys.stdlib_module_names:
                    continue
                violations.append(
                    module.violation(
                        self.rule_id,
                        node,
                        f"`{top_level}` is not in the standard library — nothing "
                        f"declares or installs it, and every process would pay its "
                        f"import; write what is used of it here, or keep it in tests/",
                    )
                )
        return violations
