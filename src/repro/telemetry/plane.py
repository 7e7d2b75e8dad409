"""The assembled telemetry plane: probes → series → detectors → alerts.

:class:`TelemetryPlane` wires the three layers over a live ident++
network (single-controller or cluster):

* per-shard probes — punt rate (windowed over ``packet_ins``), pending
  depth, serial-queue depth, query-engine hit/negative/coalesce ratios,
  push-plane resident ratio / subscription count / delta rate,
  heartbeat gap;
* per-switch probes — flow-table occupancy, FlowRemoved rate;
* cluster rollups — aggregate punt rate, aggregate hit ratio, total
  pending depth, failover count.

The default detector set maps the ISSUE's four failure signatures onto
those series (punt-rate spike → worm, hit-ratio collapse →
invalidation storm, pending-depth growth → daemon brownout,
heartbeat gap → shard loss), and the alert router drives the
auto-quarantine responder against the cluster coordinator's
quarantine path — closing the paper's detect-and-react loop without
any scripted ``mark_compromised``.

The plane is deliberately duck-typed against the network object (it
reads ``cluster``, ``controllers``, ``switches``, ``topology``) so
this package never imports from :mod:`repro.core` or
:mod:`repro.cluster` — no import cycles; ``IdentPPNetwork.
enable_telemetry()`` imports *us* locally instead.
"""

from __future__ import annotations

import heapq
from typing import Optional

from repro.netsim.statistics import RateCounter
from repro.telemetry.alerting import KIND_QUARANTINE, AlertRouter, AutoQuarantineResponder
from repro.telemetry.deviation import (
    CollapseDetector,
    DeviationMonitor,
    GapDetector,
    GrowthDetector,
    SpikeDetector,
)
from repro.telemetry.pipeline import MetricsPipeline

#: Default sampling interval (virtual seconds).
DEFAULT_INTERVAL = 0.05

#: Heartbeat-gap bound as a multiple of the sampling interval: a live
#: shard's gap series stays ~0; a halted shard's grows one interval per
#: sweep, crossing this after a handful of ticks.
DEFAULT_GAP_MULTIPLE = 4.0

#: Absolute punt-rate floor (punts/vsec) below which the spike detector
#: stays silent.  On a near-idle network the EWMA baseline sits at ~0
#: with ~0 variance, so *any* scripted burst would read as a spike; a
#: worm signature additionally requires this much absolute punt traffic
#: (the conficker outbreak sprays well past 100/vsec).
DEFAULT_SPIKE_MIN_RATE = 10.0


class _ClusterAuditView:
    """The newest-first walk :class:`AutoQuarantineResponder` makes of an
    ``AuditLog``, over every shard's trail at once: a lazy merge of the
    per-shard logs, so a scan that stops at its window edge never visits
    (or sorts) what is older."""

    __slots__ = ("_cluster",)

    def __init__(self, cluster) -> None:
        self._cluster = cluster

    def __reversed__(self):
        # The reverse of ``ControllerCluster.audit_records()`` exactly: on
        # a tied time ``heapq.merge`` yields from the earlier iterable, so
        # the shards go in last-first.
        shards = reversed(self._cluster.replicas.values())
        return heapq.merge(
            *(reversed(controller.audit) for controller in shards),
            key=lambda record: record.time,
            reverse=True,
        )


class TelemetryPlane:
    """Probes, detectors and alerting assembled over one network."""

    def __init__(
        self,
        network,
        *,
        interval: float = DEFAULT_INTERVAL,
        capacity: int = 512,
        rate_window: float = 0.25,
        alert_cooldown: float = 0.1,
        auto_quarantine: bool = True,
        fanout_threshold: int = 8,
        attribution_window: float = 0.5,
        gap_multiple: float = DEFAULT_GAP_MULTIPLE,
        spike_warmup: int = 10,
        spike_min_rate: float = DEFAULT_SPIKE_MIN_RATE,
        registry=None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"telemetry interval must be positive (got {interval})")
        self.network = network
        self.interval = interval
        self.cluster = getattr(network, "cluster", None)
        self.pipeline = MetricsPipeline(
            f"{network.name}.telemetry", capacity=capacity, registry=registry
        )
        self.monitor = DeviationMonitor()
        self.router = AlertRouter(cooldown=alert_cooldown)
        self.responder: Optional[AutoQuarantineResponder] = None
        self._rate_window = rate_window
        self._last_seen: dict[str, float] = {}
        self._rates: dict[str, RateCounter] = {}
        self._ratios: dict[str, dict[str, float]] = {}
        self._push: dict[str, dict[str, float]] = {}

        self._wire_probes()
        self._wire_detectors(
            gap_multiple=gap_multiple,
            spike_warmup=spike_warmup,
            spike_min_rate=spike_min_rate,
        )
        self.monitor.attach(self.pipeline)
        self.router.attach(self.monitor)
        if auto_quarantine:
            self._wire_quarantine(
                fanout_threshold=fanout_threshold, window=attribution_window
            )

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def _controllers(self) -> dict[str, object]:
        """Return the control plane's controllers (shards or the default)."""
        return dict(self.network.controllers)

    def _rate(self, name: str) -> RateCounter:
        counter = self._rates.get(name)
        if counter is None:
            counter = self._rates[name] = RateCounter(name, self._rate_window)
        return counter

    def _wire_probes(self) -> None:
        pipe = self.pipeline
        controllers = self._controllers()

        # --- per-shard probes -----------------------------------------
        for name, controller in controllers.items():
            punt_rate = self._rate(f"{name}.punt_rate")
            pipe.add_updater(
                lambda now, rc=punt_rate, c=controller: rc.observe_total(
                    now, float(c.packet_ins.value)
                )
            )
            pipe.probe(f"{name}.punt_rate", lambda now, rc=punt_rate: rc.rate(now))
            pipe.probe(
                f"{name}.pending_depth",
                lambda now, c=controller: float(c.pending_depth()),
            )
            pipe.probe(
                f"{name}.serial_depth",
                lambda now, c=controller: float(c.serial_depth()),
            )
            # The three ratio probes share one telemetry_ratios() call
            # per sweep (updaters run before probes), not one each.
            pipe.add_updater(
                lambda now, n=name, c=controller: self._ratios.__setitem__(
                    n, c.query_engine.telemetry_ratios()
                )
            )
            for ratio in ("hit_rate", "negative_hit_rate", "coalesce_rate"):
                pipe.probe(
                    f"{name}.{ratio}",
                    lambda now, n=name, key=ratio: self._ratios[n][key],
                )
            # Push-plane probes: resident-hit share of all lookups,
            # standing subscription count, and the delta arrival rate
            # (windowed over the engine's deltas_applied total).  All
            # three read one cached push_telemetry() call per sweep.
            pipe.add_updater(
                lambda now, n=name, c=controller: self._push.__setitem__(
                    n, c.query_engine.push_telemetry()
                )
            )
            pipe.probe(
                f"{name}.resident_ratio",
                lambda now, n=name: self._push[n]["resident_ratio"],
            )
            pipe.probe(
                f"{name}.subscriptions",
                lambda now, n=name: self._push[n]["subscriptions"],
            )
            delta_rate = self._rate(f"{name}.delta_rate")
            pipe.add_updater(
                lambda now, rc=delta_rate, n=name: rc.observe_total(
                    now, self._push[n]["deltas_applied"]
                )
            )
            pipe.probe(f"{name}.delta_rate", lambda now, rc=delta_rate: rc.rate(now))

        # --- heartbeat tracking (cluster only) ------------------------
        if self.cluster is not None:
            def _track_heartbeats(now: float, replicas=controllers) -> None:
                for shard, controller in replicas.items():
                    if not controller.halted:
                        self._last_seen[shard] = now

            pipe.add_updater(_track_heartbeats)
            for name in controllers:
                pipe.probe(
                    f"{name}.heartbeat_gap",
                    lambda now, shard=name: now - self._last_seen.get(shard, now),
                )

        # --- per-switch probes ----------------------------------------
        for name, switch in self.network.switches.items():
            pipe.probe(
                f"{name}.table_occupancy",
                lambda now, sw=switch: float(len(sw.flow_table)),
            )
            removed_rate = self._rate(f"{name}.flow_removed_rate")
            pipe.add_updater(
                lambda now, rc=removed_rate, sw=switch: rc.observe_total(
                    now, float(sw.flow_removed.value)
                )
            )
            pipe.probe(
                f"{name}.flow_removed_rate",
                lambda now, rc=removed_rate: rc.rate(now),
            )

        # --- cluster rollups ------------------------------------------
        # One rollup per sweep (SRMCA-style push-up aggregation): the
        # updater fetches the cluster's aggregate dict once, and the
        # cluster.* probes read from that cached sweep.  Single-
        # controller networks synthesise the same shape locally so the
        # detector wiring is identical either way.
        self._rollup: dict[str, float] = {}

        def _fetch_rollup(now: float) -> None:
            if self.cluster is not None:
                self._rollup = self.cluster.telemetry_rollup()
            else:
                hits = lookups = 0
                for controller in controllers.values():
                    engine = controller.query_engine
                    hits += engine.hits
                    lookups += engine.lookups()
                self._rollup = {
                    "punts": float(
                        sum(c.packet_ins.value for c in controllers.values())
                    ),
                    "pending": float(
                        sum(c.pending_depth() for c in controllers.values())
                    ),
                    "hit_ratio": hits / lookups if lookups else 0.0,
                }

        pipe.add_updater(_fetch_rollup)
        aggregate_punts = self._rate("cluster.punt_rate")
        pipe.add_updater(
            lambda now, rc=aggregate_punts: rc.observe_total(
                now, self._rollup.get("punts", 0.0)
            )
        )
        pipe.probe("cluster.punt_rate", lambda now, rc=aggregate_punts: rc.rate(now))
        pipe.probe("cluster.hit_ratio", lambda now: self._rollup.get("hit_ratio", 0.0))
        pipe.probe(
            "cluster.pending_depth", lambda now: self._rollup.get("pending", 0.0)
        )
        if self.cluster is not None:
            pipe.probe(
                "cluster.failovers", lambda now: self._rollup.get("failovers", 0.0)
            )

    def _wire_detectors(
        self, *, gap_multiple: float, spike_warmup: int, spike_min_rate: float
    ) -> None:
        # Worm signature: the cluster-wide punt rate spikes when a
        # scanner sprays never-seen flows.  This is the detector the
        # auto-quarantine responder hangs off.  The absolute floor keeps
        # near-idle scenarios (baseline ~0, variance ~0) from reading
        # every scripted burst as an outbreak.
        self.monitor.watch(
            SpikeDetector(
                "cluster.punt_rate",
                warmup=spike_warmup,
                min_streak=2,
                min_value=spike_min_rate,
            )
        )
        # Invalidation storm: the aggregate hit ratio collapses.
        self.monitor.watch(
            CollapseDetector("cluster.hit_ratio", warmup=spike_warmup)
        )
        # Daemon brownout: per-shard pending depth grows monotonically.
        for name in self._controllers():
            self.monitor.watch(
                GrowthDetector(f"{name}.pending_depth", warmup=spike_warmup)
            )
        # Shard loss: heartbeat gap exceeds its structural bound.
        if self.cluster is not None:
            max_gap = gap_multiple * self.interval
            for name in self._controllers():
                self.monitor.watch(
                    GapDetector(f"{name}.heartbeat_gap", max_gap=max_gap)
                )

    def _wire_quarantine(self, *, fanout_threshold: int, window: float) -> None:
        if self.cluster is not None:
            audit = _ClusterAuditView(self.cluster)
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
            window=window,
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

    @property
    def running(self) -> bool:
        """Return whether the sampler is armed."""
        return self.pipeline.running

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

    def series(self, name: str):
        """Return one of the pipeline's time series by name."""
        return self.pipeline.series(name)

    def stats(self) -> dict[str, object]:
        """Return the whole plane's counters for reports."""
        stats: dict[str, object] = {
            "interval": self.interval,
            "pipeline": self.pipeline.stats(),
            "monitor": self.monitor.stats(),
            "router": self.router.stats(),
        }
        if self.responder is not None:
            stats["quarantine"] = self.responder.stats()
        return stats
