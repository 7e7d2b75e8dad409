"""Pinned counters, histograms and windowed rate counters.

A component counts in plain ``int`` attributes; a :class:`Counter` is
left only where the wall-clock benchmark reads a count through
``.value``.  A :class:`Histogram` keeps a latency distribution and a
:class:`RateCounter` a windowed rate.
"""

from __future__ import annotations

from array import array
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


class Histogram:
    """A streaming histogram of observations.

    Keeps every sample as a C double, 8 bytes each (scenarios in this
    library are small enough), and exposes the mean and the sorted
    samples, from which a reader takes its count and percentiles.
    """

    def __init__(self, name: str = "") -> None:
        self.name = name
        self._samples = array("d")
        self._sorted = True
        self._total = 0.0

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._total += value
        self._samples.append(value)
        self._sorted = False

    @property
    def mean(self) -> float:
        """Return the arithmetic mean (0.0 when empty)."""
        if not self._samples:
            return 0.0
        return self._total / len(self._samples)

    def samples(self) -> list[float]:
        """Return a copy of the samples (sorted)."""
        if not self._sorted:
            self._samples = array("d", sorted(self._samples))
            self._sorted = True
        return list(self._samples)

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={len(self._samples)}, mean={self.mean:.6g})"


class RateCounter:
    """Events per sliding virtual-time window, on the simulation clock.

    The telemetry pipeline's rate probes (controller punt rate, switch
    FlowRemoved rate) need "events per simulated second"; this keeps a
    deque of ``(time, count)`` events pruned to the window, so
    :meth:`rate` is the recent windowed rate.  Feed it either
    incrementally (:meth:`record`) or from an existing monotonic counter
    (:meth:`observe_total`, which records the delta since the previous
    observation).
    """

    __slots__ = ("name", "window", "_events", "_total", "_last_total")

    def __init__(self, name: str = "", window: float = 1.0) -> None:
        if window <= 0:
            raise ValueError(f"rate counter {name!r}: window must be positive (got {window})")
        self.name = name
        self.window = window
        self._events: deque[tuple[float, float]] = deque()
        self._total = 0.0
        self._last_total: Optional[float] = None

    def record(self, now: float, count: float = 1.0) -> None:
        """Record ``count`` events at virtual time ``now``."""
        if count < 0:
            raise ValueError(f"rate counter {self.name!r}: negative count {count}")
        if count:
            self._events.append((now, float(count)))
            self._total += count
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
        return f"RateCounter({self.name!r}, window={self.window}, total={self._total})"
