"""The assembled telemetry plane: reads → detectors → alerts.

:class:`TelemetryPlane` wires the three layers over a live ident++
network (single-controller or cluster).  It reads only the values its
detectors judge, and maps the four failure signatures onto them:

* ``cluster.punt_rate`` (windowed over every shard's ``packet_ins``)
  → spike → worm outbreak;
* ``cluster.hit_ratio`` (query-engine hits over lookups, all shards)
  → collapse → invalidation storm;
* ``{shard}.pending_depth`` → growth → daemon brownout;
* ``{shard}.heartbeat_gap`` (cluster only) → gap → shard loss.

The alert router drives the auto-quarantine responder against the
cluster coordinator's quarantine path — closing the paper's
detect-and-react loop without any scripted ``mark_compromised``.

The plane is deliberately duck-typed against the network object (it
reads ``cluster``, ``controllers`` and ``topology``), so this package
imports no :mod:`repro.core` or :mod:`repro.cluster` module: its row
of the layer table (``LAYERS`` in ``tools/analysis/rules/r10_layers.py``,
checked by lint R10) lists only :mod:`repro.netsim`, and
:mod:`repro.core.network`, the row above it, imports *us*.
"""

from __future__ import annotations

from typing import Optional

from repro.netsim.statistics import RateCounter
from repro.telemetry.alerting import KIND_QUARANTINE, AlertRouter, AutoQuarantineResponder
from repro.telemetry.deviation import (
    CollapseDetector,
    GapDetector,
    GrowthDetector,
    SpikeDetector,
)
from repro.telemetry.pipeline import MetricsPipeline

#: Default sampling interval (virtual seconds).
DEFAULT_INTERVAL = 0.05

#: Heartbeat-gap bound as a multiple of the sampling interval: a live
#: shard's gap stays ~0; a halted shard's grows one interval per
#: sweep, crossing this after a handful of ticks.
DEFAULT_GAP_MULTIPLE = 4.0

#: Absolute punt-rate floor (punts/vsec) below which the spike detector
#: stays silent.  On a near-idle network the EWMA baseline sits at ~0
#: with ~0 variance, so *any* scripted burst would read as a spike; a
#: worm signature additionally requires this much absolute punt traffic
#: (the conficker outbreak sprays well past 100/vsec).
DEFAULT_SPIKE_MIN_RATE = 10.0

#: Samples a detector sees before it may fire (spike, collapse, growth).
SPIKE_WARMUP = 10

#: Window (virtual seconds) of the cluster punt rate.
RATE_WINDOW = 0.25

#: Minimum gap (virtual seconds) between two alerts of one kind from one
#: source (the alert router's flood control).
ALERT_COOLDOWN = 0.1

#: How far back (virtual seconds) the auto-quarantine responder reads the
#: audit trail to attribute a punt-rate spike to its sources.
ATTRIBUTION_WINDOW = 0.5


class TelemetryPlane:
    """Reads, detectors and alerting assembled over one network."""

    def __init__(
        self,
        network,
        *,
        interval: float = DEFAULT_INTERVAL,
        auto_quarantine: bool = True,
        fanout_threshold: int = 8,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"telemetry interval must be positive (got {interval})")
        self.network = network
        self.interval = interval
        self.cluster = getattr(network, "cluster", None)
        self.router = AlertRouter(cooldown=ALERT_COOLDOWN)
        self.pipeline = MetricsPipeline(f"{network.name}.telemetry", self.router.on_deviation)
        self.responder: Optional[AutoQuarantineResponder] = None
        self._wire()
        if auto_quarantine:
            self._wire_quarantine(fanout_threshold=fanout_threshold)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _controllers(self) -> dict[str, object]:
        """Return the control plane's controllers (shards or the default)."""
        return dict(self.network.controllers)

    def _wire(self) -> None:
        pipe = self.pipeline
        controllers = self._controllers()

        if self.cluster is not None:
            last_seen: dict[str, float] = {}

            def track_heartbeats(now: float) -> None:
                # Every shard's clock starts at the first sweep, so a
                # shard that is down from the start is reported lost.
                for shard, controller in controllers.items():
                    if not controller.halted or shard not in last_seen:
                        last_seen[shard] = now

            pipe.add_updater(track_heartbeats)

        # One rollup per sweep (SRMCA-style push-up aggregation): the
        # updater sums the shards' counts once, and both cluster reads
        # use that sweep's sums.  A single controller is a cluster of
        # one, so the detector wiring is identical either way.
        punt_rate = RateCounter("cluster.punt_rate", RATE_WINDOW)
        hit_ratio = 0.0

        def fetch_rollup(now: float) -> None:
            nonlocal hit_ratio
            punts = hits = lookups = 0
            for controller in controllers.values():
                engine = controller.query_engine
                punts += controller.packet_ins
                hits += engine.hits
                lookups += engine.lookups()
            punt_rate.observe_total(now, punts)
            hit_ratio = hits / lookups if lookups else 0.0

        pipe.add_updater(fetch_rollup)

        # Worm signature: the cluster-wide punt rate spikes when a
        # scanner sprays never-seen flows.  This is the detector the
        # auto-quarantine responder hangs off.  The absolute floor keeps
        # near-idle scenarios (baseline ~0, variance ~0) from reading
        # every scripted burst as an outbreak.
        pipe.watch(
            SpikeDetector(
                "cluster.punt_rate",
                warmup=SPIKE_WARMUP,
                min_streak=2,
                min_value=DEFAULT_SPIKE_MIN_RATE,
            ),
            punt_rate.rate,
        )
        # Invalidation storm: the aggregate hit ratio collapses.
        pipe.watch(
            CollapseDetector("cluster.hit_ratio", warmup=SPIKE_WARMUP),
            lambda now: hit_ratio,
        )
        # Daemon brownout: per-shard pending depth grows monotonically.
        for name, controller in controllers.items():
            pipe.watch(
                GrowthDetector(f"{name}.pending_depth", warmup=SPIKE_WARMUP),
                lambda now, c=controller: c.inflight_count(),
            )
        # Shard loss: heartbeat gap exceeds its structural bound.
        if self.cluster is not None:
            max_gap = DEFAULT_GAP_MULTIPLE * self.interval
            for name in controllers:
                pipe.watch(
                    GapDetector(f"{name}.heartbeat_gap", max_gap=max_gap),
                    lambda now, shard=name: now - last_seen[shard],
                )

    def _wire_quarantine(self, *, fanout_threshold: int) -> None:
        if self.cluster is not None:
            # Every shard's trail at once, merged newest-first as it is
            # walked: a scan that stops at its window edge never visits
            # (or sorts) what is older.
            audit = self.cluster.audit_records()
            quarantine = self.cluster.coordinator.quarantine_host
        else:
            controllers = list(self._controllers().values())
            if not controllers:
                return
            primary = controllers[0]
            audit = primary.audit
            quarantine = primary.quarantine_host
        self.responder = AutoQuarantineResponder(
            audit,
            quarantine,
            fanout_threshold=fanout_threshold,
            window=ATTRIBUTION_WINDOW,
        )
        self.router.respond("spike", self.responder)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def start(self):
        """Begin sampling on the network's simulator clock."""
        return self.pipeline.start(self.network.topology.sim, self.interval)

    def stop(self) -> None:
        """Stop sampling so the event queue can drain."""
        self.pipeline.stop()

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def alerts(self, kind: Optional[str] = None):
        """Return raised alerts (optionally filtered by kind)."""
        return self.router.alerts(kind)

    def quarantine_alerts(self):
        """Return the quarantine alerts raised by the responder."""
        return self.router.alerts(KIND_QUARANTINE)

    @property
    def quarantined(self) -> frozenset[str]:
        """Return hosts quarantined by the auto-quarantine responder."""
        if self.responder is None:
            return frozenset()
        return self.responder.quarantined
