"""The one-pass telemetry sweep equals the probe/series/monitor chain it replaced.

Hypothesis generates a plane's watched values: one to four shards,
each with a pending depth and a heartbeat gap, beside a cluster punt
rate and hit ratio.  Every value follows a drawn shape — steady,
spiking, collapsing, rising or gapped — under drawn warmups, streaks,
floors, gap bounds and an alert cooldown.  Responders act on alerts as
the plane's do: a spike quarantines (and stops the punts that later
sweeps read, and the revocations cut the hit ratio), a growth alert
restarts its shard (its queue drained, its heartbeat back), a gap alert
revives its shard, and each raises a derived alert.  So what a read
sees depends on what the alerts of earlier sweeps did, and a sweep
whose alerts acted before its later reads would show it.

Sweep by sweep, :class:`~repro.telemetry.pipeline.MetricsPipeline` must
raise exactly the :class:`~repro.telemetry.deviation.Deviation`\\ s of
``tests/reference_telemetry.py``'s chain, in the same order, leave the
same alert trail (time, kind, source, severity, message) and count the
same sweeps.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.netsim.events import Simulator
from repro.telemetry.alerting import KIND_QUARANTINE, Alert, AlertRouter
from repro.telemetry.deviation import CollapseDetector, GapDetector, GrowthDetector, SpikeDetector
from repro.telemetry.pipeline import MetricsPipeline
from tests.reference_telemetry import DeviationMonitor
from tests.reference_telemetry import MetricsPipeline as ReferencePipeline

INTERVAL = 0.05
SWEEPS = 40


@st.composite
def shaped(draw, base, *, low=0.0):
    """A value stream of ``SWEEPS`` samples: steady, spiking, collapsing,
    rising or gapped around ``base``."""
    shape = draw(st.sampled_from(("steady", "spiking", "collapsing", "rising", "gapped")))
    jitter = draw(st.lists(st.sampled_from((0.0, 0.0, 0.05, -0.05, 0.1)),
                           min_size=SWEEPS, max_size=SWEEPS))
    onset = draw(st.integers(1, SWEEPS - 1))
    end = draw(st.integers(onset + 1, SWEEPS + 5))
    factor = draw(st.sampled_from((2.0, 5.0, 20.0)))
    values = []
    for step, noise in enumerate(jitter):
        value = base * (1.0 + noise)
        during = onset <= step < end
        if shape == "spiking" and during:
            value *= factor
        elif shape == "collapsing" and during:
            value = low
        elif shape == "rising" and step >= onset:
            value += factor * (step - onset + 1)
        elif shape == "gapped" and during:
            value = (step - onset + 1) * INTERVAL
        values.append(max(low, value))
    return values


@st.composite
def planes(draw):
    shards = draw(st.integers(1, 4))
    return {
        "shards": shards,
        "cooldown": draw(st.sampled_from((0.0, 0.05, 0.1, 0.25))),
        "punts": draw(shaped(draw(st.sampled_from((0.0, 5.0, 20.0))))),
        "hits": draw(shaped(draw(st.sampled_from((0.1, 0.9))))),
        "pending": [draw(shaped(draw(st.sampled_from((0.0, 2.0, 8.0)))))
                    for _ in range(shards)],
        "gaps": [draw(shaped(0.0)) for _ in range(shards)],
        "spike": dict(
            warmup=draw(st.integers(1, 12)),
            min_streak=draw(st.integers(1, 3)),
            min_value=draw(st.sampled_from((1.0, 10.0))),
        ),
        "collapse": dict(warmup=draw(st.integers(1, 12)), min_streak=draw(st.integers(1, 3))),
        "growth_warmup": draw(st.integers(1, 12)),
        "max_gap": draw(st.sampled_from((0.05, 0.1, 0.2))),
    }


class World:
    """What the reads see: each stream at the sweep an updater last
    advanced to, as changed by the responders since."""

    def __init__(self, spec):
        self.spec = spec
        self.step = -1
        self.quarantined = False
        self.drained: set[int] = set()
        self.revived: dict[int, int] = {}

    def advance(self, now):
        self.step += 1

    def punt_rate(self, now):
        return 0.0 if self.quarantined else self.spec["punts"][self.step]

    def hit_ratio(self, now):
        value = self.spec["hits"][self.step]
        return value * 0.1 if self.quarantined else value

    def pending(self, shard):
        return lambda now: 0.0 if shard in self.drained else self.spec["pending"][shard][self.step]

    def gap(self, shard):
        # A revived shard's gap restarts from the sweep that revived it.
        def read(now):
            since = self.revived.get(shard)
            value = self.spec["gaps"][shard][self.step]
            return value if since is None else min(value, (self.step - since) * INTERVAL)
        return read

    def watched(self):
        """``(detector, read)`` in the plane's detector order."""
        spec = self.spec
        yield SpikeDetector("cluster.punt_rate", **spec["spike"]), self.punt_rate
        yield CollapseDetector("cluster.hit_ratio", **spec["collapse"]), self.hit_ratio
        for shard in range(spec["shards"]):
            yield (GrowthDetector(f"s{shard}.pending_depth", warmup=spec["growth_warmup"]),
                   self.pending(shard))
        for shard in range(spec["shards"]):
            yield GapDetector(f"s{shard}.heartbeat_gap", max_gap=spec["max_gap"]), self.gap(shard)

    def wire(self, router):
        """Responders that change what later reads see, each raising a
        derived alert on the same trail."""

        def derived(alert, router, what):
            router.emit(Alert(time=alert.time, kind=KIND_QUARANTINE, source=alert.source,
                              severity=alert.severity, message=f"{what} after {alert.kind}",
                              deviation=alert.deviation))

        def quarantine(alert, router):
            self.quarantined = True
            derived(alert, router, "quarantined")

        def restart(alert, router):
            shard = int(alert.source[1:alert.source.index(".")])
            self.drained.add(shard)
            self.revived[shard] = self.step
            derived(alert, router, "restarted")

        def revive(alert, router):
            self.revived[int(alert.source[1:alert.source.index(".")])] = self.step
            derived(alert, router, "revived")

        router.respond("spike", quarantine)
        router.respond("growth", restart)
        router.respond("gap", revive)


def reference_sweep(spec):
    world = World(spec)
    router = AlertRouter(cooldown=spec["cooldown"])
    world.wire(router)
    pipeline = ReferencePipeline("reference")
    monitor = DeviationMonitor()
    pipeline.add_updater(world.advance)
    for detector, read in world.watched():
        pipeline.probe(detector.series, read)
        monitor.watch(detector)
    monitor.attach(pipeline)
    fired = []
    monitor.on_deviation(fired.append)
    monitor.on_deviation(router.on_deviation)
    return pipeline, router, fired


def one_pass_sweep(spec):
    world = World(spec)
    router = AlertRouter(cooldown=spec["cooldown"])
    world.wire(router)
    fired = []

    def sink(deviation):
        fired.append(deviation)
        router.on_deviation(deviation)

    pipeline = MetricsPipeline("one-pass", sink)
    pipeline.add_updater(world.advance)
    for detector, read in world.watched():
        pipeline.watch(detector, read)
    return pipeline, router, fired


def trail(router):
    return [(a.time, a.kind, a.source, a.severity, a.message) for a in router.alerts()]


class TestSweepEqualsReference:
    @settings(max_examples=200, deadline=None)
    @given(planes())
    def test_same_deviations_and_alert_trail_sweep_by_sweep(self, spec):
        reference = reference_sweep(spec)
        one_pass = one_pass_sweep(spec)
        for sweep in range(SWEEPS):
            now = (sweep + 1) * INTERVAL
            for pipeline, _, _ in (reference, one_pass):
                pipeline.sample(now)
            assert one_pass[2] == reference[2], f"sweep {sweep}"
            assert trail(one_pass[1]) == trail(reference[1]), f"sweep {sweep}"
        assert one_pass[0].samples == reference[0].samples == SWEEPS

    @settings(max_examples=25, deadline=None)
    @given(planes())
    def test_same_sweeps_on_the_simulator_clock(self, spec):
        runs = []
        for build in (reference_sweep, one_pass_sweep):
            sim = Simulator()
            pipeline, router, fired = build(spec)
            pipeline.start(sim, INTERVAL)
            sim.schedule((SWEEPS - 0.5) * INTERVAL, pipeline.stop)
            sim.run()
            runs.append((pipeline.samples, fired, trail(router)))
        assert runs[0] == runs[1]
        assert runs[0][0] == SWEEPS - 1
