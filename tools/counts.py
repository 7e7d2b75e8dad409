"""Count the Python work a step does: the calls and opcodes of ``repro``'s frames.

    from tools.counts import count
    calls, opcodes = count(lambda: evaluator.evaluate(flow, src, None))

A count does not depend on the host or its load, so a claim of the form
"this costs no more at size N than at size n" reads as an exact
equality or ratio of two counts where a wall-clock window estimates it
with tens of percent of noise.  Only frames whose code lives in the
``repro`` package are counted: the step's own glue is not.

An opcode count cannot see work done in C (``list.remove``, ``x in
list``, a heap that keeps growing): a claim about such work reads the
container's size beside its count.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Callable, NamedTuple

import repro

#: Code whose filename starts with this is ``repro``'s own.
PACKAGE = str(Path(repro.__file__).parent)


class Counts(NamedTuple):
    """What one counted step ran inside ``repro``."""

    calls: int
    opcodes: int


def _traced(step: Callable[[], object], counted: Callable[[str], bool]) -> Counts:
    """Run ``step`` under ``sys.settrace``, counting the frames ``counted`` accepts."""
    calls = opcodes = 0

    def local(_frame, event, _arg):
        nonlocal opcodes
        if event == "opcode":
            opcodes += 1
        return local

    def call(frame, _event, _arg):
        nonlocal calls
        if not counted(frame.f_code.co_filename):
            return None
        calls += 1
        frame.f_trace_lines = False
        frame.f_trace_opcodes = True
        return local

    previous = sys.gettrace()
    sys.settrace(call)
    try:
        step()
    finally:
        sys.settrace(previous)
    return Counts(calls, opcodes)


def _warm_up() -> None:
    """Trace one throwaway frame: on 3.12.1 a process's first opcode-traced
    session counts every call but not one opcode."""
    _traced(lambda: None, lambda _filename: True)


def count(step: Callable[[], object]) -> Counts:
    """Return the calls and opcodes ``repro``'s own frames run during ``step()``."""
    counts = _traced(step, lambda filename: filename.startswith(PACKAGE))
    if counts.calls and not counts.opcodes:
        raise RuntimeError(f"{counts.calls} calls counted but no opcode: opcode tracing is off")
    return counts


_warm_up()
