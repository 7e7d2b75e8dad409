"""The telemetry sweep the one-pass pipeline replaced, kept as a test oracle.

Before a :class:`~repro.telemetry.pipeline.MetricsPipeline` fed each
detector the one value it judges, a sweep went through four objects:
named :class:`TelemetryProbe` taps, each sampled into a bounded
:class:`TimeSeries` ring; the :class:`MetricsPipeline` here, which ran
the updaters, sampled every probe and then called its observers; and a
:class:`DeviationMonitor`, the observer that fed each detector its
series' last sample and only then handed the sweep's deviations to its
sinks (the alert router's ``on_deviation``).

``tests/test_telemetry_reference.py`` drives it against the real
pipeline.  Nothing outside the tests may use this module.
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Iterator, Optional

from repro.telemetry.deviation import Detector, Deviation

#: Default ring-buffer capacity per series (samples, not seconds).
DEFAULT_CAPACITY = 512


class TimeSeries:
    """A bounded ring buffer of ``(time, value)`` samples for one metric."""

    __slots__ = ("name", "capacity", "_points")

    def __init__(self, name: str, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity < 1:
            raise ValueError(f"series {name!r}: capacity must be >= 1 (got {capacity})")
        self.name = name
        self.capacity = capacity
        self._points: deque[tuple[float, float]] = deque(maxlen=capacity)

    def record(self, time: float, value: float) -> None:
        """Append one sample, evicting the oldest when full."""
        self._points.append((time, float(value)))

    def last(self) -> Optional[tuple[float, float]]:
        """Return the most recent ``(time, value)`` sample, if any."""
        return self._points[-1] if self._points else None

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

    def __init__(self, name: str = "telemetry") -> None:
        self.name = name
        self.capacity = DEFAULT_CAPACITY
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
        so the rate probes see values current as of this tick.
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
        """Run one sweep: updaters, probes, observers."""
        for updater in self._updaters:
            updater(now)
        for name, probe in self._probes.items():
            self._series[name].record(now, probe.sample(now))
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


class DeviationMonitor:
    """Routes pipeline sweeps into detectors and deviations onward.

    Attach it to a pipeline with :meth:`attach`; every sweep it feeds
    each watched series' latest sample to its detectors and forwards
    any resulting deviations to the registered sinks (the alert
    router).  Multiple detectors may watch the same series.
    """

    def __init__(self) -> None:
        self._detectors: list[Detector] = []
        self._sinks: list[Callable[[Deviation], None]] = []

    def watch(self, detector: Detector) -> Detector:
        """Register a detector; returns it for chaining."""
        self._detectors.append(detector)
        return detector

    def on_deviation(self, sink: Callable[[Deviation], None]) -> None:
        """Register a sink called with every deviation."""
        self._sinks.append(sink)

    def inspect(self, now: float, pipeline) -> list[Deviation]:
        """Run every detector against its series' latest sample."""
        fired: list[Deviation] = []
        for detector in self._detectors:
            series = pipeline.series(detector.series)
            if series is None:
                continue
            latest = series.last()
            if latest is None or latest[0] != now:
                continue  # no fresh sample this sweep
            deviation = detector.observe(now, latest[1])
            if deviation is not None:
                fired.append(deviation)
        for deviation in fired:
            for sink in self._sinks:
                sink(deviation)
        return fired

    def attach(self, pipeline) -> None:
        """Subscribe this monitor to a pipeline's sweeps."""
        pipeline.on_sample(lambda now, pipe: self.inspect(now, pipe))
