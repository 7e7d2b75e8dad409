"""No file of :mod:`repro` is over 600 lines, no package is a facade, and each row loads only its layers.

The controller's punt pipeline and its base class (config, wiring,
admin verbs) stay apart, the query engine, its answer store and its
push plane stay three modules, and the scenario matrix's axis registries
(``workloads/axes.py``) stay apart from the runner that sweeps them
(``workloads/experiment.py``), so none grows back into one file.  The
ceiling may only come down.

A package's ``__init__.py`` is its docstring alone: each name has one
import path, the module that defines it, and importing a module loads
what that module imports and nothing more.  A re-export in a package
init runs on every import below it: one in ``repro/__init__.py`` makes
``import repro.netsim.events`` load the controller stack.

What a module may import is lint R10's layer table, ``LAYERS``: every
module of ``src/repro`` has a row, the table has no cycle, and importing
a row's modules in a fresh interpreter loads no module of a row the
table does not reach from it (the runtime side of R10, which also sees
an import the parse cannot, such as ``importlib.import_module``).
"""

import ast
import graphlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from tools.analysis.rules.r10_layers import LAYERS, module_name, row_of
from tools.check_docs import LAYERS_DOC, REPO_ROOT, check_layers, render_layers

CEILING = 600
PACKAGE = Path(repro.__file__).parent

#: Each row of ``LAYERS`` that holds a module of ``src/repro`` -> those modules.
MODULES_BY_ROW: dict[str, list[str]] = {}
for _path in sorted(PACKAGE.rglob("*.py")):
    _name = module_name(_path.relative_to(PACKAGE.parent).as_posix())
    MODULES_BY_ROW.setdefault(row_of(_name), []).append(_name)

#: Imports the modules named on its command line and prints every module that loaded.
IMPORT_PROBE = """
import importlib, json, sys
before = set(sys.modules)
for name in sys.argv[1:]:
    importlib.import_module(name)
print(json.dumps(sorted(set(sys.modules) - before)))
"""


def import_probe(*modules: str) -> list[str]:
    """Import ``modules`` in a fresh interpreter; return every module that loaded."""
    probe = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, *modules],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert probe.returncode == 0, probe.stderr
    return json.loads(probe.stdout)


def reached(row: str) -> set[str]:
    """The rows a row's modules may load: itself and what its rows list, transitively."""
    seen, todo = set(), [row]
    while todo:
        name = todo.pop()
        if name not in seen:
            seen.add(name)
            todo.extend(LAYERS[name])
    return seen


def test_no_repro_file_is_over_600_lines():
    over = {
        path.relative_to(PACKAGE).as_posix(): length
        for path in sorted(PACKAGE.rglob("*.py"))
        if (length := len(path.read_text().splitlines())) > CEILING
    }
    assert over == {}


def test_every_package_init_is_its_docstring_alone():
    more = {}
    for path in sorted(PACKAGE.rglob("__init__.py")):
        tree = ast.parse(path.read_text())
        if ast.get_docstring(tree) is None or len(tree.body) > 1:
            more[path.relative_to(PACKAGE).as_posix()] = len(tree.body)
    assert more == {}


def test_every_repro_module_has_one_row_and_every_product_row_a_module():
    # The root row holds the root package alone: a new package needs its own row.
    assert MODULES_BY_ROW.get(None, []) == []
    assert MODULES_BY_ROW["repro"] == ["repro"]
    assert set(MODULES_BY_ROW) == {row for row in LAYERS if row.partition(".")[0] == "repro"}


def test_the_layer_table_is_acyclic_and_the_controller_reads_hosts_only_through_identpp():
    assert {row for allowed in LAYERS.values() for row in allowed} <= set(LAYERS)
    graphlib.TopologicalSorter(LAYERS).prepare()  # raises CycleError, naming the cycle
    above = {"repro.cluster", "repro.core.network", "repro.hosts", "repro.telemetry"}
    assert above & set(LAYERS["repro.core"]) == set()


def test_the_architecture_doc_holds_the_table_and_a_hand_edit_fails_the_docs_check():
    text = (REPO_ROOT / LAYERS_DOC).read_text()
    assert check_layers(text) == []
    row = "| `repro.telemetry` | `repro.netsim` |"
    edited = text.replace(row, row.replace("`repro.netsim`", "`repro.core`, `repro.netsim`"))
    assert edited != text
    assert check_layers(edited) == [
        f"{LAYERS_DOC}: the layer table differs from LAYERS; paste this block:\n{render_layers()}"
    ]


@pytest.mark.parametrize("row", sorted(row for row in MODULES_BY_ROW if row))
def test_importing_a_row_loads_only_the_rows_it_reaches(row):
    loaded = import_probe(*MODULES_BY_ROW[row])
    # The root package (a docstring) loads with any module under it.
    may_load = reached(row) | {"repro"}

    def stray(name: str) -> bool:
        loaded_row = row_of(name)
        if loaded_row is None:
            return name.partition(".")[0] not in sys.stdlib_module_names
        return loaded_row not in may_load

    assert [name for name in loaded if stray(name)] == []


def test_the_controller_loads_no_end_host_module():
    # The controller reaches end hosts over the ident++ wire only: a
    # name it takes from ``identpp/daemon.py`` pulls in the whole
    # end-host package.  52 is today's closure; the ceiling may only
    # come down.
    loaded = [name for name in import_probe("repro.core.controller") if name.startswith("repro")]
    assert [name for name in loaded if name.startswith("repro.hosts")] == []
    assert len(loaded) <= 52
