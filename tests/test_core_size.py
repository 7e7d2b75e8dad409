"""No file of :mod:`repro` is over 600 lines.

The controller's punt pipeline and its base class (config, wiring,
admin verbs) stay apart, the query engine, its answer store and its
push plane stay three modules, and the scenario matrix's axis registries
(``workloads/axes.py``) stay apart from the runner that sweeps them
(``workloads/experiment.py``), so none grows back into one file.  The
ceiling may only come down.
"""

from pathlib import Path

import repro

CEILING = 600


def test_no_repro_file_is_over_600_lines():
    package = Path(repro.__file__).parent
    over = {
        path.relative_to(package).as_posix(): length
        for path in sorted(package.rglob("*.py"))
        if (length := len(path.read_text().splitlines())) > CEILING
    }
    assert over == {}
