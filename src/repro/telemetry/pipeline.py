"""Layer 1 of the telemetry plane: the sweep that feeds the detectors.

A :class:`MetricsPipeline` holds one read function per detector.  On
every tick of virtual time it runs its updaters (hooks that fold raw
counters into the values the reads return), reads each watched value,
lets its detector judge it, and only then hands the sweep's deviations
to its sink — the alert router in :mod:`repro.telemetry.alerting` — in
detector order.  A responder that acts on an alert (a quarantine, say)
therefore cannot change what a later detector of the same sweep sees.

Nothing is stored between sweeps but what the detectors keep
themselves: a value no detector judges is never read.

The sampler follows the repo's repeating-event contract: the callback
returns truthy only while the pipeline is running, so :meth:`stop`
lets the event queue drain and ``Simulator.run()`` terminate.
"""

from __future__ import annotations

from typing import Callable

from repro.telemetry.deviation import Detector, Deviation


class MetricsPipeline:
    """Feeds watched values into their detectors on the simulation clock."""

    def __init__(self, name: str, on_deviation: Callable[[Deviation], object]) -> None:
        self.name = name
        self._on_deviation = on_deviation
        self._watched: list[tuple[Detector, Callable[[float], float]]] = []
        self._updaters: list[Callable[[float], None]] = []
        self._running = False
        self._event = None
        self.samples = 0

    def watch(self, detector: Detector, read: Callable[[float], float]) -> None:
        """Judge ``read(now)`` with ``detector`` on every sweep."""
        if any(watched.series == detector.series for watched, _ in self._watched):
            raise ValueError(f"pipeline {self.name!r}: {detector.series!r} is watched already")
        self._watched.append((detector, read))

    def add_updater(self, updater: Callable[[float], None]) -> None:
        """Register a pre-read hook (runs before every read of a sweep).

        Used to advance rate counters from monotonic hot-path counters
        so the reads see values current as of this tick.
        """
        self._updaters.append(updater)

    def sample(self, now: float) -> None:
        """Run one sweep: updaters, then reads and verdicts, then the sink."""
        for updater in self._updaters:
            updater(now)
        fired = []
        for detector, read in self._watched:
            deviation = detector.observe(now, float(read(now)))
            if deviation is not None:
                fired.append(deviation)
        self.samples += 1
        for deviation in fired:
            self._on_deviation(deviation)

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
