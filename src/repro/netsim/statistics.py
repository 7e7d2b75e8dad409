"""Counters, histograms and a statistics registry.

The benchmark harness (flow-setup latency breakdowns, bottleneck traffic
saved, cache hit rates) reads these rather than scraping logs, so every
statistic of interest in the library is a :class:`Counter` or a
:class:`Histogram` registered in a :class:`StatsRegistry`.
"""

from __future__ import annotations

import math
import random
import zlib
from array import array
from collections import deque
from typing import Iterable, Iterator, Optional


class Counter:
    """A monotonically increasing (but resettable) named counter.

    ``value`` is a plain slot: a hot path bumps it in place
    (``counter.value += 1``) instead of paying a method call per count.
    :meth:`increment` is the checked form, for amounts that are not a
    literal 1 (a negative amount is refused).
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str = "", initial: int | float = 0) -> None:
        self.name = name
        self.value = initial

    def increment(self, amount: int | float = 1) -> None:
        """Add ``amount`` (default 1) to the counter."""
        if amount < 0:
            raise ValueError(f"counter {self.name}: cannot increment by negative {amount}")
        self.value += amount

    def reset(self) -> None:
        """Set the counter back to zero."""
        self.value = 0

    def __int__(self) -> int:
        return int(self.value)

    def __float__(self) -> float:
        return float(self.value)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, Counter):
            return self.value == other.value
        if isinstance(other, (int, float)):
            return self.value == other
        return NotImplemented

    def __hash__(self) -> int:  # counters are identity-hashed; equality is numeric
        return id(self)

    def __repr__(self) -> str:
        return f"Counter({self.name!r}, {self.value})"


class Histogram:
    """A streaming histogram of observations.

    Keeps every sample by default (scenarios in this library are small
    enough) and exposes count/mean/percentiles, which the latency
    benchmarks report.  Long-running consumers — the telemetry plane
    samples for the lifetime of a simulation — pass ``reservoir=N`` to
    bound memory: count/total/mean/min/max/stddev stay exact (tracked
    as running accumulators), while percentiles are estimated from an
    Algorithm-R reservoir of at most ``N`` samples drawn uniformly from
    the whole stream.  The reservoir's RNG is seeded from the histogram
    name (and reseeded by :meth:`reset`), so identical streams reproduce
    identical percentiles run to run (the determinism gate double-runs
    scenarios).  Samples are kept as C doubles, 8 bytes each.
    """

    def __init__(self, name: str = "", *, reservoir: Optional[int] = None) -> None:
        if reservoir is not None and reservoir < 1:
            raise ValueError(f"histogram {name!r}: reservoir must be >= 1 (got {reservoir})")
        self.name = name
        self.reservoir = reservoir
        self.reset()

    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._total += value
        self._sum_sq += value * value
        if self._min is None or value < self._min:
            self._min = value
        if self._max is None or value > self._max:
            self._max = value
        if self.reservoir is None or len(self._samples) < self.reservoir:
            self._samples.append(value)
            self._sorted = False
            return
        # Vitter's Algorithm R: the incoming sample replaces a random
        # slot with probability reservoir/count, so every observation in
        # the stream is retained with equal probability.
        slot = self._rng.randrange(self._count)
        if slot < self.reservoir:
            self._samples[slot] = value
            self._sorted = False

    def extend(self, values: Iterable[float]) -> None:
        """Record many observations."""
        for value in values:
            self.observe(value)

    def _ensure_sorted(self) -> None:
        if not self._sorted:
            self._samples = array("d", sorted(self._samples))
            self._sorted = True

    @property
    def count(self) -> int:
        """Return the number of observations (exact, even with a reservoir)."""
        return self._count

    @property
    def total(self) -> float:
        """Return the sum of all observations (exact, even with a reservoir)."""
        return self._total

    @property
    def mean(self) -> float:
        """Return the arithmetic mean (0.0 when empty)."""
        if not self._count:
            return 0.0
        return self._total / self._count

    @property
    def minimum(self) -> float:
        """Return the smallest observation (0.0 when empty)."""
        return self._min if self._min is not None else 0.0

    @property
    def maximum(self) -> float:
        """Return the largest observation (0.0 when empty)."""
        return self._max if self._max is not None else 0.0

    @property
    def stddev(self) -> float:
        """Return the population standard deviation (0.0 for < 2 samples)."""
        if self._count < 2:
            return 0.0
        if self.reservoir is None:
            mean = self.mean
            return math.sqrt(sum((x - mean) ** 2 for x in self._samples) / self._count)
        # One-pass form over the exact accumulators; the max() guards the
        # tiny negative values floating-point cancellation can produce.
        mean = self.mean
        return math.sqrt(max(0.0, self._sum_sq / self._count - mean * mean))

    def percentile(self, pct: float) -> float:
        """Return the ``pct``-th percentile.

        Uses nearest-rank at tiny sample counts (n <= 2) — reporting an
        actual observation instead of interpolating between the only two
        points, which invented values nothing ever measured and
        underestimated tail percentiles — and linear interpolation
        between order statistics for larger n.
        """
        if not self._samples:
            return 0.0
        if not 0 <= pct <= 100:
            raise ValueError(f"percentile out of range: {pct}")
        self._ensure_sorted()
        size = len(self._samples)
        if size <= 2:
            rank = max(1, math.ceil((pct / 100.0) * size))
            return self._samples[rank - 1]
        rank = (pct / 100.0) * (size - 1)
        low = int(math.floor(rank))
        high = int(math.ceil(rank))
        if low == high:
            return self._samples[low]
        fraction = rank - low
        lower_value = self._samples[low]
        return lower_value + fraction * (self._samples[high] - lower_value)

    @property
    def median(self) -> float:
        """Return the 50th percentile."""
        return self.percentile(50)

    def samples(self) -> list[float]:
        """Return a copy of the retained samples (sorted).

        With a reservoir this is the bounded uniform sample, not the
        full stream; :attr:`count` still reports the true stream length.
        """
        self._ensure_sorted()
        return list(self._samples)

    def reset(self) -> None:
        """Discard all observations and reseed the reservoir: a reset
        histogram keeps the samples a new one of the same name would."""
        self._samples = array("d")
        self._sorted = True
        self._count = 0
        self._total = 0.0
        self._sum_sq = 0.0
        self._min: Optional[float] = None
        self._max: Optional[float] = None
        self._rng = (
            random.Random(zlib.crc32(self.name.encode("utf-8")))
            if self.reservoir is not None
            else None
        )

    def summary(self) -> dict[str, float]:
        """Return a summary dictionary used by the benchmark reports."""
        return {
            "count": float(self.count),
            "mean": self.mean,
            "min": self.minimum,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
            "max": self.maximum,
            "stddev": self.stddev,
        }

    def __repr__(self) -> str:
        return f"Histogram({self.name!r}, n={self.count}, mean={self.mean:.6g})"


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

    @property
    def total(self) -> float:
        """Return the total events recorded over the counter's lifetime."""
        return self._total

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

    def reset(self) -> None:
        """Discard all events and the monotonic baseline."""
        self._events.clear()
        self._total = 0.0
        self._last_total = None

    def __repr__(self) -> str:
        return f"RateCounter({self.name!r}, window={self.window}, total={self._total})"


class StatsRegistry:
    """A named collection of counters and histograms.

    Scenario objects expose a registry so that the analysis and benchmark
    modules can enumerate everything that was measured during a run, and
    the telemetry pipeline folds :meth:`snapshot`'s counters into its
    time series.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._histograms: dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        """Return the counter with the given name, creating it if needed."""
        if name not in self._counters:
            self._counters[name] = Counter(name)
        return self._counters[name]

    def histogram(self, name: str, *, reservoir: Optional[int] = None) -> Histogram:
        """Return the histogram with the given name, creating it if needed."""
        if name not in self._histograms:
            self._histograms[name] = Histogram(name, reservoir=reservoir)
        return self._histograms[name]

    def counters(self) -> Iterator[Counter]:
        """Iterate over registered counters in name order."""
        for name in sorted(self._counters):
            yield self._counters[name]

    def histograms(self) -> Iterator[Histogram]:
        """Iterate over registered histograms in name order."""
        for name in sorted(self._histograms):
            yield self._histograms[name]

    def snapshot(self) -> dict[str, float | dict[str, float]]:
        """Return every statistic as plain Python values."""
        result: dict[str, float | dict[str, float]] = {}
        for counter in self.counters():
            result[counter.name] = float(counter.value)
        for histogram in self.histograms():
            result[histogram.name] = histogram.summary()
        return result

    def reset(self) -> None:
        """Reset every registered statistic."""
        for counter in self._counters.values():
            counter.reset()
        for histogram in self._histograms.values():
            histogram.reset()
