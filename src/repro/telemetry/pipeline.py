"""Layer 1 of the telemetry plane: probes, ring-buffered series, the sampler.

At the "millions of users" scale the roadmap targets nobody reads
``summary()`` dicts after the fact — the control plane needs streaming
signals it can judge *while the simulation runs*.  This module is the
ingestion side of that plane:

* :class:`TelemetryProbe` — a named, read-only tap over state the hot
  paths already maintain (a counter value, a table length, a cache
  ratio).  Probes do no bookkeeping of their own, so the per-sample
  cost is a handful of attribute reads — the <5% overhead budget the
  benchmarks gate on.
* :class:`TimeSeries` — a bounded ring buffer of ``(time, value)``
  samples.  Telemetry outlives any one burst, so the buffer drops the
  oldest points rather than growing for the run's lifetime (the same
  bounded-state rule the churn soaks enforce everywhere else).
* :class:`MetricsPipeline` — samples every probe (plus an optional
  :class:`~repro.netsim.statistics.StatsRegistry` snapshot) on virtual
  time via :meth:`~repro.netsim.events.Simulator.schedule_repeating`,
  then hands each completed sweep to its observers — the deviation
  monitor in :mod:`repro.telemetry.deviation`.

The sampler follows the repo's repeating-event contract: the callback
returns truthy only while the pipeline is running, so :meth:`stop`
lets the event queue drain and ``Simulator.run()`` terminate.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from repro.netsim.statistics import StatsRegistry

#: Default ring-buffer capacity per series (samples, not seconds).
DEFAULT_CAPACITY = 512


class TimeSeries:
    """A bounded ring buffer of ``(time, value)`` samples for one metric."""

    __slots__ = ("name", "capacity", "_points", "dropped")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"series {name!r}: capacity must be >= 1 (got {capacity})")
        self.name = name
        self.capacity = capacity
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)
        #: Samples evicted by the ring bound — non-zero means the window
        #: no longer reaches back to the start of the run.
        self.dropped = 0

    def record(self, time: float, value: float) -> None:
        """Append one sample, evicting the oldest when full."""
        if len(self._points) == self.capacity:
            self.dropped += 1
        self._points.append((time, float(value)))

    def last(self) -> Optional[tuple[float, float]]:
        """Return the most recent ``(time, value)`` sample, if any."""
        return self._points[-1] if self._points else None

    def window(self, since: float) -> list[tuple[float, float]]:
        """Return the samples with ``time >= since`` (oldest first)."""
        return [(t, v) for t, v in self._points if t >= since]

    def values(self) -> list[float]:
        """Return every retained value (oldest first)."""
        return [v for _, v in self._points]

    def times(self) -> list[float]:
        """Return every retained sample time (oldest first)."""
        return [t for t, _ in self._points]

    def __len__(self) -> int:
        return len(self._points)

    def __iter__(self) -> Iterator[tuple[float, float]]:
        return iter(list(self._points))

    def __repr__(self) -> str:
        return f"TimeSeries({self.name!r}, n={len(self._points)}/{self.capacity})"


class TelemetryProbe:
    """A named tap reading one scalar from live simulation state.

    ``read`` is called with the current virtual time and must be cheap
    and side-effect-light: probes run on every sampling tick, inside
    the event loop.  Rate probes use the time argument to advance their
    :class:`~repro.netsim.statistics.RateCounter`; plain gauges ignore
    it.
    """

    __slots__ = ("name", "_read")

    def __init__(self, name: str, read: Callable[[float], float]) -> None:
        if not name:
            raise ValueError("telemetry probes must be named (anonymous probes "
                             "are invisible to detectors and reports)")
        self.name = name
        self._read = read

    def sample(self, now: float) -> float:
        """Read the probe's current value."""
        return float(self._read(now))

    def __repr__(self) -> str:
        return f"TelemetryProbe({self.name!r})"


class MetricsPipeline:
    """Samples probes into time series on the simulation clock."""

    def __init__(
        self,
        name: str = "telemetry",
        *,
        capacity: int = DEFAULT_CAPACITY,
        registry: Optional[StatsRegistry] = None,
    ) -> None:
        self.name = name
        self.capacity = capacity
        #: Optional stats registry folded into every sweep through
        #: ``registry.snapshot(now)``: counters become gauge series,
        #: rate counters become per-second series.
        self.registry = registry
        self._probes: dict[str, TelemetryProbe] = {}
        self._series: dict[str, TimeSeries] = {}
        self._updaters: list[Callable[[float], None]] = []
        self._observers: list[Callable[[float, "MetricsPipeline"], None]] = []
        self._running = False
        self._event = None
        self.samples = 0

    # ------------------------------------------------------------------
    # Registration
    # ------------------------------------------------------------------

    def add_probe(self, probe: TelemetryProbe) -> TelemetryProbe:
        """Register a probe (and create its backing series)."""
        if probe.name in self._probes:
            raise ValueError(f"pipeline {self.name!r}: duplicate probe {probe.name!r}")
        self._probes[probe.name] = probe
        self._series[probe.name] = TimeSeries(probe.name, self.capacity)
        return probe

    def probe(self, name: str, read: Callable[[float], float]) -> TelemetryProbe:
        """Create and register a probe in one call."""
        return self.add_probe(TelemetryProbe(name, read))

    def add_updater(self, updater: Callable[[float], None]) -> None:
        """Register a pre-sample hook (runs before probes on each sweep).

        Used to advance rate counters from monotonic hot-path counters
        so both the registry snapshot and the rate probes see values
        current as of this tick.
        """
        self._updaters.append(updater)

    def on_sample(self, observer: Callable[[float, "MetricsPipeline"], None]) -> None:
        """Register an observer called after every completed sweep."""
        self._observers.append(observer)

    # ------------------------------------------------------------------
    # Access
    # ------------------------------------------------------------------

    def series(self, name: str) -> Optional[TimeSeries]:
        """Return a series by name (``None`` when it does not exist yet)."""
        return self._series.get(name)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------

    def sample(self, now: float) -> None:
        """Run one sweep: updaters, probes, registry snapshot, observers."""
        for updater in self._updaters:
            updater(now)
        for name, probe in self._probes.items():
            self._series[name].record(now, probe.sample(now))
        if self.registry is not None:
            for key, value in self.registry.snapshot(now).items():
                if isinstance(value, dict):
                    if "per_sec" not in value:
                        continue  # histogram summaries are not time series
                    point = value["per_sec"]
                else:
                    point = value
                series = self._series.get(key)
                if series is None:
                    series = self._series[key] = TimeSeries(key, self.capacity)
                series.record(now, float(point))
        self.samples += 1
        for observer in self._observers:
            observer(now, self)

    def start(self, sim, interval: float):
        """Begin sampling every ``interval`` of virtual time.

        Returns the underlying repeating event.  The callback keeps
        itself scheduled only while the pipeline is running, so
        :meth:`stop` lets the simulation drain to an empty queue.
        """
        if self._running:
            return self._event
        self._running = True

        def tick() -> bool:
            if not self._running:
                return False
            self.sample(sim.now)
            return self._running

        # Formatted once per start: the repeating event keeps it.
        label = f"telemetry:{self.name}"
        self._event = sim.schedule_repeating(interval, tick, label=label)
        return self._event

    def stop(self) -> None:
        """Stop sampling (the pending tick is cancelled)."""
        self._running = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    @property
    def running(self) -> bool:
        """Return whether the sampler is armed."""
        return self._running

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, object]:
        """Return pipeline-level counters for reports."""
        return {
            "probes": len(self._probes),
            "series": len(self._series),
            "samples": self.samples,
            "dropped_points": sum(s.dropped for s in self._series.values()),
            "running": self._running,
        }
