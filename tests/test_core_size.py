"""No file of :mod:`repro` is over 600 lines, and no package is a facade.

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
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import repro

CEILING = 600
PACKAGE = Path(repro.__file__).parent

#: The layers above the simulator; the event loop imports none of them.
ABOVE_NETSIM = ("repro.core", "repro.openflow", "repro.identpp", "repro.pf")


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


def test_importing_the_event_loop_loads_no_layer_above_it():
    probe = subprocess.run(
        [
            sys.executable, "-c",
            "import json, sys; import repro.netsim.events; "
            "print(json.dumps(sorted(n for n in sys.modules if n.startswith('repro'))))",
        ],
        capture_output=True, text=True, timeout=60,
        env={**os.environ, "PYTHONPATH": str(PACKAGE.parent)},
    )
    assert probe.returncode == 0, probe.stderr
    loaded = json.loads(probe.stdout)
    assert [name for name in loaded if name.startswith(ABOVE_NETSIM)] == []
