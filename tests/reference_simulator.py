"""The event loop the single-pass one replaced, kept as a test oracle.

This is ``repro.netsim.events.Event`` and the scheduling half of
``Simulator`` as they stood before the loop was rebuilt: a dataclass
event, a ``run`` that peeks the heap and then calls ``step`` for every
event, and cancelled records that stay in the heap until their time
comes.  ``tests/test_simulator_reference.py`` drives it and the real
simulator with the same operations and requires the same firings.  It is
not importable from ``src/`` and nothing outside the tests may use it.

Two behaviours of the original are *not* part of the contract, and the
differential test stays clear of them: ``run(until=t)`` with ``t`` before
``now`` rewound the clock, and a NaN delay slipped past the ``delay < 0``
guard.  Both are fixed in the real simulator and tested on their own.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.exceptions import SimulationError
from repro.netsim.events import RepeatingEvent
from repro.netsim.sanitizer import SimulationSanitizer


@dataclass(order=True)
class ReferenceEvent:
    """A scheduled callback, ordered by ``(time, seq)``."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    kwargs: dict = field(compare=False, default_factory=dict)
    cancelled: bool = field(compare=False, default=False)
    label: str = field(compare=False, default="")
    #: Always ``None``: one event per delivery (the sanitizer reads it).
    riders: None = field(compare=False, default=None)

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        self.cancelled = True


class ReferenceSimulator:
    """The clock and event queue, two heap walks per event."""

    def __init__(
        self,
        start_time: float = 0.0,
        *,
        sanitize: bool = False,
        perturb_ties: bool = False,
    ) -> None:
        self._now = float(start_time)
        self._queue: list[tuple[float, int, ReferenceEvent]] = []
        self._seq = itertools.count()
        self._events_processed = 0
        self._running = False
        self._tie_sign = -1 if perturb_ties else 1
        self.sanitizer: Optional[SimulationSanitizer] = (
            SimulationSanitizer(self) if sanitize else None
        )

    @property
    def now(self) -> float:
        return self._now

    @property
    def events_processed(self) -> int:
        return self._events_processed

    def pending(self) -> int:
        return len(self._queue)

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = ReferenceEvent(
            time=self._now + delay,
            seq=next(self._seq),
            callback=callback,
            args=args,
            kwargs=kwargs,
            label=label,
        )
        heapq.heappush(self._queue, (event.time, self._tie_sign * event.seq, event))
        return event

    def schedule_at(
        self,
        when: float,
        callback: Callable[..., None],
        *args: Any,
        label: str = "",
        **kwargs: Any,
    ) -> ReferenceEvent:
        return self.schedule(when - self._now, callback, *args, label=label, **kwargs)

    def schedule_repeating(
        self,
        interval: float,
        callback: Callable[[], object],
        *,
        label: str = "",
    ) -> RepeatingEvent:
        return RepeatingEvent(self, interval, callback, label=label).start()

    def step(self) -> Optional[ReferenceEvent]:
        while self._queue:
            _, _, event = heapq.heappop(self._queue)
            if event.cancelled:
                continue
            if event.time < self._now:
                raise SimulationError("event queue corrupted: time went backwards")
            self._now = event.time
            self._events_processed += 1
            if self.sanitizer is not None:
                self.sanitizer.on_event(event)
            event.callback(*event.args, **event.kwargs)
            return event
        return None

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        if self._running:
            raise SimulationError("Simulator.run() is not re-entrant")
        self._running = True
        processed = 0
        try:
            while self._queue:
                if max_events is not None and processed >= max_events:
                    break
                next_event = self._peek()
                if next_event is None:
                    break
                if until is not None and next_event.time > until:
                    self._now = until
                    break
                if self.step() is not None:
                    processed += 1
        finally:
            self._running = False
        if until is not None and self._now < until and not self._queue:
            self._now = until
        return processed

    def _peek(self) -> Optional[ReferenceEvent]:
        while self._queue and self._queue[0][2].cancelled:
            heapq.heappop(self._queue)
        return self._queue[0][2] if self._queue else None
