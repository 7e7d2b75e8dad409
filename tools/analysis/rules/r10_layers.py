"""R10 — every import follows the layer table, and nothing outside it but the standard library.

:data:`LAYERS` is the package order of this repository, written once.
A module's row is the longest row its dotted name starts with (whole
parts), so ``repro.core.network`` is a row of its own and
``repro.core.controller`` falls in ``repro.core``.  A module may import
the standard library, its own row and the rows its row lists.  The rule
judges every ``import`` of ``src/`` and ``tools/``: at module top, in a
function, under ``if TYPE_CHECKING:`` or in a ``try`` alike, since each
is an edge of the same graph.  It flags an upward import (``netsim``
naming ``openflow``), a sideways one the row does not list, a module the
product has no business loading (``perf``'s harness inside
``src/repro``) and a third-party package, which is in no row: nothing
declares or installs one (everything runs from the checkout with
``PYTHONPATH=src``), and every process would pay its import — networkx,
once imported for ``Topology``'s adjacency dict, cost 370 modules,
16 MB and 0.19 s of every interpreter start.  Tests are not linted.
The rationale for the order itself is in docs/ANALYSIS.md.
"""

from __future__ import annotations

import ast
import sys
from typing import Optional

from tools.analysis.core import ParsedModule, Violation

#: Row -> the rows its modules may import, bottom-up.  ``tools/check_docs.py``
#: renders it as docs/ARCHITECTURE.md's "Package dependency order".
LAYERS: dict[str, tuple[str, ...]] = {
    # The root package: its docstring alone.
    "repro": (),
    "repro.exceptions": (),
    "repro.crypto": ("repro.exceptions",),
    "repro.netsim": ("repro.exceptions",),
    "repro.hosts": ("repro.crypto", "repro.exceptions", "repro.netsim"),
    "repro.identpp": ("repro.exceptions", "repro.hosts", "repro.netsim"),
    "repro.pf": ("repro.crypto", "repro.exceptions", "repro.identpp", "repro.netsim"),
    "repro.openflow": ("repro.exceptions", "repro.netsim"),
    "repro.core": (
        "repro.crypto", "repro.exceptions", "repro.identpp", "repro.netsim", "repro.openflow",
        "repro.pf",
    ),
    "repro.cluster": (
        "repro.core", "repro.crypto", "repro.exceptions", "repro.identpp", "repro.netsim",
        "repro.openflow", "repro.pf",
    ),
    "repro.telemetry": ("repro.netsim",),
    "repro.core.network": (
        "repro.cluster", "repro.core", "repro.exceptions", "repro.hosts", "repro.identpp",
        "repro.netsim", "repro.openflow", "repro.telemetry",
    ),
    "repro.baselines": ("repro.core", "repro.identpp", "repro.netsim", "repro.pf"),
    "repro.security": ("repro.identpp",),
    "repro.analysis": (),
    "repro.workloads": (
        "repro.analysis", "repro.baselines", "repro.core", "repro.core.network", "repro.crypto",
        "repro.exceptions", "repro.hosts", "repro.identpp", "repro.netsim", "repro.openflow",
        "repro.pf", "repro.security",
    ),
    # Outside the product: the wall-clock benchmark, the lint, the lint's
    # fixtures (stand-ins for product modules) and the other tools.
    "perf": ("repro.core", "repro.core.network", "repro.identpp", "repro.netsim", "repro.workloads"),
    "tools.analysis": (),
    "tools.analysis.fixtures": ("repro.exceptions", "repro.identpp", "repro.netsim", "tools.analysis"),
    "tools": ("perf", "repro", "repro.core", "repro.netsim", "repro.workloads", "tools.analysis"),
}


def module_name(rel_path: str) -> str:
    """``src/repro/netsim/links.py`` -> ``repro.netsim.links``; a package's init is the package."""
    parts = rel_path.removeprefix("src/").removesuffix(".py").split("/")
    if parts[-1] == "__init__":
        parts.pop()
    return ".".join(parts)


def row_of(module: str) -> Optional[str]:
    """The longest row of :data:`LAYERS` that ``module`` is or lies under, if any."""
    while module and module not in LAYERS:
        module = module.rpartition(".")[0]
    return module or None


def _imported(node: ast.Import | ast.ImportFrom, module: str, is_package: bool) -> list[str]:
    """The modules one import statement names, relative ones made absolute.

    ``from a import b`` names ``a.b`` when that lies in another row than
    ``a`` (``from repro.core import network``), and ``a`` otherwise.
    """
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    base = node.module or ""
    if node.level:
        parts = module.split(".")
        package = ".".join(parts[: len(parts) - node.level + is_package])
        base = f"{package}.{base}".strip(".")
    names = []
    for alias in node.names:
        target = f"{base}.{alias.name}"
        name = target if row_of(target) != row_of(base) else base
        if name not in names:
            names.append(name)
    return names


class LayerRule:
    """Flag an import its module's row of :data:`LAYERS` does not allow."""

    rule_id = "R10"
    title = "every import follows the layer table; nothing outside it but the standard library"

    def check(self, module: ParsedModule) -> list[Violation]:
        name = module_name(module.rel_path)
        row = row_of(name)
        allowed = (row, *LAYERS[row]) if row else ()
        is_package = module.rel_path.endswith("__init__.py")
        violations: list[Violation] = []
        for node in module.nodes:
            if not isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            for target in _imported(node, name, is_package):
                target_row = row_of(target)
                if target_row is None:
                    top_level = target.partition(".")[0]
                    if top_level in sys.stdlib_module_names:
                        continue
                    message = (
                        f"`{top_level}` is neither the standard library nor a row of LAYERS — "
                        f"nothing declares or installs it, and every process would pay its "
                        f"import; write what is used of it here, or keep it in tests/"
                    )
                elif target_row in allowed:
                    continue
                elif row is None:
                    message = (
                        f"`{name}` is in no row of LAYERS, so it may import only the standard "
                        f"library, not `{target}`"
                    )
                else:
                    message = (
                        f"`{name}` imports `{target}`: row `{row}` of LAYERS does not list "
                        f"`{target_row}`"
                    )
                violations.append(module.violation(self.rule_id, node, message))
        return violations
