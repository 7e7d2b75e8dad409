"""Count the Python work a step does: the calls and opcodes of ``repro``'s frames.

    from tools.counts import count
    counts = count(lambda: evaluator.evaluate(flow, src, None))
    counts.calls, counts.opcodes, counts.by_module["repro.pf.evaluator"]

A count does not depend on the host or its load, so a claim of the form
"this costs no more at size N than at size n" reads as an exact
equality or ratio of two counts where a wall-clock window estimates it
with tens of percent of noise.  Only frames whose code lives in the
``repro`` package are counted: the step's own glue is not.  Beside the
totals, ``by_module`` tallies each counted module's own frames, so a
step's work splits by file (and by whatever layers the files make up).

An opcode count cannot see work done in C (``list.remove``, ``x in
list``, a heap that keeps growing): a claim about such work reads the
container's size beside its count.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, NamedTuple, Optional

import repro

#: Code whose filename starts with this is ``repro``'s own.
PACKAGE = str(Path(repro.__file__).parent)


class Counts(NamedTuple):
    """What one counted step ran inside ``repro``."""

    calls: int
    opcodes: int
    #: Module name (``repro.core.controller``) -> its frames' ``(calls, opcodes)``.
    by_module: dict[str, tuple[int, int]]


def _module(filename: str) -> str:
    """Return the dotted module name of a file under :data:`PACKAGE`."""
    path = Path(filename).relative_to(Path(PACKAGE).parent).with_suffix("")
    parts = path.parts[:-1] if path.name == "__init__" else path.parts
    return ".".join(parts)


def _traced(
    step: Callable[[], object], counted: Callable[[str], bool]
) -> dict[str, list[int]]:
    """Run ``step`` under ``sys.settrace``; return each file's ``[calls, opcodes]``
    over the frames ``counted`` accepts."""
    # Filename -> its tally and the local tracer that bumps it, or None
    # for a file ``counted`` refused.
    files: dict[str, Optional[tuple[list[int], Callable]]] = {}

    def tally_for(filename: str) -> Optional[tuple[list[int], Callable]]:
        if not counted(filename):
            return None
        tally = [0, 0]

        def local(_frame, event, _arg):
            if event == "opcode":
                tally[1] += 1
            return local

        return tally, local

    def call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            files[filename] = tally_for(filename)
        entry = files[filename]
        if entry is None:
            return None
        entry[0][0] += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return entry[1]

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        step()
    finally:
        sys.settrace(previous)
    return {filename: entry[0] for filename, entry in files.items() if entry is not None}


def _warm_up() -> None:
    """Trace one throwaway frame: on 3.12.1 a process's first opcode-traced
    session counts every call but not one opcode."""
    _traced(lambda: None, lambda _filename: True)


def count(step: Callable[[], object]) -> Counts:
    """Return the calls and opcodes ``repro``'s own frames run during ``step()``."""
    tallies = _traced(step, lambda filename: filename.startswith(PACKAGE))
    counts = Counts(
        sum(calls for calls, _ in tallies.values()),
        sum(opcodes for _, opcodes in tallies.values()),
        {_module(filename): (calls, opcodes) for filename, (calls, opcodes) in tallies.items()},
    )
    if counts.calls and not counts.opcodes:
        raise RuntimeError(f"{counts.calls} calls counted but no opcode: opcode tracing is off")
    return counts


_warm_up()
