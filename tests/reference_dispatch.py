"""The punt dispatch before a pass-through punt's answers arrived as one event.

``IdentPPController._dispatch_queries`` asked the engine for one future
per end of the flow — ``QueryEngine.query_async`` for the source, then
for the destination, each answer its own scheduled event (or a shared
arrival, for cached, coalesced, resident and intercepted lookups) — and
joined the pair with ``Future.gather``, whose completion ran the
controller's lambda into ``_answers_ready`` at the later answer's
instant.  :func:`gather` is that join as it stood and
:func:`use_reference_dispatch` swaps the dispatch back in on the real
controller class, so any network can be run both ways and compared
(``tests/test_dispatch_reference.py``).  Every line is the original,
except that the pair of futures comes from the engine's ``_both_ends``
directly: ``query_both_ends_async``, which returned it, now takes the
continuation instead.  Nothing here is importable from ``src/`` and
nothing outside the tests may use it.
"""

from __future__ import annotations

import contextlib
from typing import Any, Iterator

from repro.core.controller import DecisionTask, IdentPPController
from repro.netsim.events import Future


def gather(futures: "list[Future]") -> Future:
    """Return a future completing with the list of results once all are done.

    The aggregate completes at the instant the *last* input does and
    preserves input order in the result list.  An empty input completes
    immediately with ``[]``.
    """
    aggregate = Future()
    remaining = len(futures)
    if remaining == 0:
        aggregate.set_result([])
        return aggregate
    results: list[Any] = [None] * remaining
    state = {"left": remaining}

    def _arm(index: int, future: Future) -> None:
        def _done(value: Any) -> None:
            results[index] = value
            state["left"] -= 1
            if state["left"] == 0:
                aggregate.set_result(results)

        future.add_done_callback(_done)

    for index, future in enumerate(futures):
        _arm(index, future)
    return aggregate


def _dispatch_queries(self: IdentPPController, task: DecisionTask) -> None:
    task.stage = "query"
    engine = self.query_engine
    gather(
        list(
            engine._both_ends(
                engine.query_async, task.flow, task.switch, None,
                tuple(self.peer_interceptors), None,
            )
        )
    ).add_done_callback(lambda outcomes: self._answers_ready(task, outcomes))


@contextlib.contextmanager
def use_reference_dispatch() -> Iterator[None]:
    """Dispatch every punt's queries the way it was dispatched before, inside the block."""
    original = vars(IdentPPController)["_dispatch_queries"]
    IdentPPController._dispatch_queries = _dispatch_queries
    try:
        yield
    finally:
        IdentPPController._dispatch_queries = original
