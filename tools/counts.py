"""Count the Python work a step does: the calls and opcodes of ``repro``'s frames.

    from tools.counts import count
    counts = count(lambda: evaluator.evaluate(flow, src, None))
    counts.calls, counts.opcodes, counts.by_module["repro.pf.evaluator"]

A count does not depend on the host or its load, so a claim of the form
"this costs no more at size N than at size n" reads as an exact
equality or ratio of two counts where a wall-clock window estimates it
with tens of percent of noise.  Counted are the frames of code that
lives in the ``repro`` package, and the frames of code generated at run
time for a ``repro`` module: the ``__init__``, ``__eq__`` and
``__hash__`` that ``dataclasses`` writes have no file (their
``co_filename`` is ``<string>``) and run with their class's module as
their globals, so they are filed under that module.  The step's own glue
is not counted.  Beside the totals, ``by_module`` tallies each counted
module's own frames, so a step's work splits by module (and by whatever
layers the modules make up).

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


def _module(filename: str) -> Optional[str]:
    """Return the dotted module name of a file under :data:`PACKAGE`
    (``None`` for any other file)."""
    if not filename.startswith(PACKAGE):
        return None
    path = Path(filename).relative_to(Path(PACKAGE).parent).with_suffix("")
    parts = path.parts[:-1] if path.name == "__init__" else path.parts
    return ".".join(parts)


def _traced(step: Callable[[], object], counted: Callable[[str], bool]) -> dict[str, list[int]]:
    """Run ``step`` under ``sys.settrace``; return each module's ``[calls, opcodes]``
    over the frames whose module ``counted`` accepts.

    A frame's module is its file's (:func:`_module`) for a file under
    :data:`PACKAGE`, else the ``__name__`` of its globals: generated code
    (``<string>``) runs with its class's module as globals.
    """
    # Module -> its tally and the local tracer that bumps it, or None for
    # a module ``counted`` refused.
    modules: dict[str, Optional[tuple[list[int], Callable]]] = {}
    # Filename -> its module, or None for a file outside the package.
    files: dict[str, Optional[str]] = {}

    def tally_for(module: str) -> Optional[tuple[list[int], Callable]]:
        if not counted(module):
            return None
        tally = [0, 0]

        def local(_frame, event, _arg):
            if event == "opcode":
                tally[1] += 1
            return local

        return tally, local

    def call(frame, _event, _arg):
        filename = frame.f_code.co_filename
        if filename in files:
            module = files[filename]
        else:
            module = files[filename] = _module(filename)
        if module is None:
            module = frame.f_globals.get("__name__", "")
        if module not in modules:
            modules[module] = tally_for(module)
        entry = modules[module]
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
    return {module: entry[0] for module, entry in modules.items() if entry is not None}


def _warm_up() -> None:
    """Trace one throwaway frame: on 3.12.1 a process's first opcode-traced
    session counts every call but not one opcode."""
    _traced(lambda: None, lambda _module: True)


def count(step: Callable[[], object]) -> Counts:
    """Return the calls and opcodes ``repro``'s own frames run during ``step()``,
    dataclass-generated code of ``repro``'s classes included."""
    tallies = _traced(step, lambda module: module.partition(".")[0] == "repro")
    counts = Counts(
        sum(calls for calls, _ in tallies.values()),
        sum(opcodes for _, opcodes in tallies.values()),
        {module: (calls, opcodes) for module, (calls, opcodes) in tallies.items()},
    )
    if counts.calls and not counts.opcodes:
        raise RuntimeError(f"{counts.calls} calls counted but no opcode: opcode tracing is off")
    return counts


_warm_up()
