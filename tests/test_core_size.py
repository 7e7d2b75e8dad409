"""No file of :mod:`repro.core` is over 600 lines.

The controller's punt pipeline and its base class (config, wiring,
admin verbs) stay apart so neither grows back into one file.  The
ceiling may only come down.
"""

from pathlib import Path

import repro.core

CEILING = 600


def test_no_core_file_is_over_600_lines():
    core = Path(repro.core.__file__).parent
    sizes = {path.name: len(path.read_text().splitlines()) for path in sorted(core.glob("*.py"))}
    assert {name: lines for name, lines in sizes.items() if lines > CEILING} == {}
