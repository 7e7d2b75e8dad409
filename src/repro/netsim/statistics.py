"""Pinned counters and windowed rate counters.

A component counts in plain ``int`` attributes; a :class:`Counter` is
left only where the wall-clock benchmark reads a count through
``.value``.  A :class:`RateCounter` keeps a windowed rate.  A decision's
timings live in the controller's audit log
(:class:`~repro.core.audit.SetupTimes`).
"""

from __future__ import annotations

from collections import deque
from typing import Optional


class Counter:
    """A named count the benchmark harness reads through ``value``.

    ``value`` is a plain slot a hot path bumps in place
    (``counter.value += 1``).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str = "") -> None:
        self.name = name
        self.value = 0

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class RateCounter:
    """Events per sliding virtual-time window, on the simulation clock.

    The telemetry plane's cluster punt rate is "events per simulated
    second"; this keeps a deque of ``(time, count)`` events pruned to
    the window, so :meth:`rate` is the recent windowed rate.  Feed it
    either incrementally (:meth:`record`) or from an existing monotonic
    counter (:meth:`observe_total`, which records the delta since the
    previous observation).
    """

    __slots__ = ("name", "window", "_events", "_last_total")

    def __init__(self, name: str = "", window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError(f"rate counter {name!r}: window must be positive (got {window})")
        self.name = name
        self.window = window
        self._events: deque[tuple[float, float]] = deque()
        self._last_total: Optional[float] = None

    def record(self, now: float, count: float = 1.0) -> None:
        """Record ``count`` events at virtual time ``now``."""
        if count < 0:
            raise ValueError(f"rate counter {self.name!r}: negative count {count}")
        if count:
            self._events.append((now, float(count)))
        self._prune(now)

    def observe_total(self, now: float, total: float) -> None:
        """Feed a monotonic counter reading; the delta since the last
        observation is recorded as events at ``now``.

        The first observation seeds the baseline without recording
        (history that predates the probe is not a burst); a counter
        reset shows up as a negative delta and is clamped to zero.
        """
        total = float(total)
        previous = self._last_total
        self._last_total = total
        delta = 0.0 if previous is None else max(0.0, total - previous)
        self.record(now, delta)

    def events_in_window(self, now: float) -> float:
        """Return how many events fall inside ``(now - window, now]``."""
        self._prune(now)
        return sum(count for _, count in self._events)

    def rate(self, now: float) -> float:
        """Return the windowed rate (events per virtual second) at ``now``."""
        return self.events_in_window(now) / self.window

    def _prune(self, now: float) -> None:
        cutoff = now - self.window
        events = self._events
        while events and events[0][0] <= cutoff:
            events.popleft()

    def __repr__(self) -> str:
        return f"RateCounter({self.name!r}, window={self.window})"
