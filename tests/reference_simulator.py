"""The event loop the single-pass one replaced, kept as a test oracle.

This is ``repro.netsim.events.Event`` and the scheduling half of
``Simulator`` as they stood before the loop was rebuilt: a dataclass
event, a ``run`` that peeks the heap and then calls ``step`` for every
event, and cancelled records that stay in the heap until their time
comes.  Its repeating event is its own too, so the product's
``RepeatingEvent`` is checked against it rather than run by both.
``tests/test_simulator_reference.py`` drives it and the real simulator
with the same operations and requires the same firings.  It is not
importable from ``src/`` and nothing outside the tests may use it.

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
from repro.netsim.sanitizer import SimulationSanitizer


@dataclass(order=True)
class ReferenceEvent:
    """A scheduled callback, ordered by ``(time, seq)``."""

    time: float
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple = field(compare=False, default=())
    cancelled: bool = field(compare=False, default=False)
    label: str = field(compare=False, default="")
    #: Always ``None``: one event per delivery (the sanitizer reads it).
    riders: None = field(compare=False, default=None)

    def cancel(self) -> None:
        """Prevent the event from firing.  Cancelling twice is harmless."""
        self.cancelled = True


class ReferenceRepeatingEvent:
    """``RepeatingEvent`` over :class:`ReferenceEvent`: a callback fired every
    ``interval`` until it returns falsy or the cycle is cancelled."""

    def __init__(self, sim, interval: float, callback: Callable[[], object], *,
                 label: str = "") -> None:
        if interval <= 0:
            raise SimulationError(f"repeating interval must be positive (got {interval})")
        self.sim = sim
        self.interval = interval
        self.callback = callback
        self.label = label
        self._event: Optional[ReferenceEvent] = None
        self._cancelled = False

    @property
    def scheduled(self) -> bool:
        """``True`` while a next firing is queued and not cancelled."""
        return self._event is not None and not self._event.cancelled

    def start(self) -> "ReferenceRepeatingEvent":
        if not self.scheduled:
            self._cancelled = False
            self._event = self.sim.schedule(self.interval, self._fire, label=self.label)
        return self

    def cancel(self) -> None:
        """Stop the cycle, also from inside the callback (its return is then ignored)."""
        self._cancelled = True
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _fire(self) -> None:
        self._event = None
        self._cancelled = False
        if self.callback() and not self._cancelled:
            self.start()


# The sanitizer folds each fired callback's qualified name into the trace
# hash; the oracle's firings carry the name the product's do.
ReferenceRepeatingEvent._fire.__qualname__ = "RepeatingEvent._fire"


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
    ) -> ReferenceEvent:
        if delay < 0:
            raise SimulationError(f"cannot schedule into the past (delay={delay})")
        event = ReferenceEvent(
            time=self._now + delay,
            seq=next(self._seq),
            callback=callback,
            args=args,
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
    ) -> ReferenceEvent:
        return self.schedule(when - self._now, callback, *args, label=label)

    def schedule_repeating(
        self,
        interval: float,
        callback: Callable[[], object],
        *,
        label: str = "",
    ) -> ReferenceRepeatingEvent:
        return ReferenceRepeatingEvent(self, interval, callback, label=label).start()

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
            event.callback(*event.args)
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
