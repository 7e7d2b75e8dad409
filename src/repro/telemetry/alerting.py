"""Layer 3 of the telemetry plane: alerts, routing, auto-quarantine.

Deviations are observations; alerts are decisions to act.  The
:class:`AlertRouter` turns deviations into typed :class:`Alert`
objects, debounces repeats per ``(kind, source)`` under a cooldown,
keeps an audit trail of everything raised, and dispatches each alert
to the responders registered for its kind.

The flagship responder is :class:`AutoQuarantineResponder` — the piece
that closes the loop the paper promises: when the punt-rate spike
alert fires, it attributes the burst by scanning the controller audit
log for fan-out (one source touching many distinct destinations in
the recent window — the scanning-worm shape) and drives the existing
compromise/revocation path for every culprit.  The workload never
calls ``mark_compromised``; the telemetry plane does.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.telemetry.deviation import Deviation

#: Alert kind raised by the auto-quarantine responder for each host it
#: quarantines (distinct from the detector kinds that trigger it).
KIND_QUARANTINE = "quarantine"

Responder = Callable[["Alert", "AlertRouter"], None]


@dataclass(frozen=True)
class Alert:
    """A typed, actionable event raised by the telemetry plane."""

    time: float
    kind: str
    source: str
    severity: float
    message: str
    deviation: Optional[Deviation] = None

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        return f"[{self.time:.3f}] ALERT {self.kind}/{self.source}: {self.message}"


class AlertRouter:
    """Routes alerts to responders with per-``(kind, source)`` cooldown.

    The cooldown is the router's flood control: a sustained outbreak
    makes the spike detector fire on every sweep, but responders only
    need to be re-invoked once per cooldown period — long enough to
    avoid re-running attribution on every tick, short enough that a
    spreading worm gets repeated attribution passes as more evidence
    accumulates in the audit log.
    """

    def __init__(self, *, cooldown: float = 0.25) -> None:
        if cooldown < 0:
            raise ValueError(f"alert cooldown must be >= 0 (got {cooldown})")
        self.cooldown = cooldown
        self._responders: dict[str, list[Responder]] = {}
        self._last: dict[tuple[str, str], float] = {}
        self._alerts: list[Alert] = []
        self.suppressed = 0

    def respond(self, kind: str, responder: Responder) -> None:
        """Register a responder for one alert kind."""
        self._responders.setdefault(kind, []).append(responder)

    def alerts(self, kind: Optional[str] = None) -> list[Alert]:
        """Return raised alerts (all, or filtered by kind), oldest first."""
        if kind is None:
            return list(self._alerts)
        return [a for a in self._alerts if a.kind == kind]

    def emit(self, alert: Alert) -> bool:
        """Raise an alert: dedup, record, dispatch.

        Returns ``True`` if the alert was raised, ``False`` if the
        cooldown suppressed it.  Responders may call :meth:`emit`
        themselves to raise derived alerts (quarantine alerts ride the
        same trail as the spikes that caused them).
        """
        key = (alert.kind, alert.source)
        last = self._last.get(key)
        if last is not None and alert.time - last < self.cooldown:
            self.suppressed += 1
            return False
        self._last[key] = alert.time
        self._alerts.append(alert)
        for responder in self._responders.get(alert.kind, ()):
            responder(alert, self)
        return True

    def on_deviation(self, deviation: Deviation) -> bool:
        """Turn a deviation into an alert (the monitor's sink)."""
        return self.emit(
            Alert(
                time=deviation.time,
                kind=deviation.kind,
                source=deviation.series,
                severity=deviation.severity,
                message=deviation.describe(),
                deviation=deviation,
            )
        )

    def attach(self, monitor) -> None:
        """Subscribe this router to a deviation monitor."""
        monitor.on_deviation(self.on_deviation)

    def stats(self) -> dict[str, object]:
        """Return router-level counters for reports."""
        by_kind: dict[str, int] = {}
        for alert in self._alerts:
            by_kind[alert.kind] = by_kind.get(alert.kind, 0) + 1
        return {
            "alerts": len(self._alerts),
            "suppressed": self.suppressed,
            "by_kind": by_kind,
        }


class AutoQuarantineResponder:
    """Attributes punt-rate spikes to hosts and quarantines them.

    Attribution uses the evidence the control plane already keeps: the
    audit log records every decision the controller made, so a
    scanning worm shows up as one ``src_ip`` touching many distinct
    ``dst_ip`` values in the recent window while legitimate clients
    talk to a handful of servers.  Every source whose fan-out reaches
    ``fanout_threshold`` is quarantined through the supplied callable
    (the cluster coordinator's quarantine path) and a
    :data:`KIND_QUARANTINE` alert is raised — exactly once per host,
    however many spike alerts re-trigger attribution.  ``audit`` is
    anything ``reversed()`` walks newest-first in place: an ``AuditLog``,
    or the telemetry plane's merged view of a cluster's shards.
    """

    def __init__(
        self,
        audit,
        quarantine: Callable[[str], object],
        *,
        window: float = 0.5,
        fanout_threshold: int = 8,
    ) -> None:
        if fanout_threshold < 2:
            raise ValueError(
                f"fanout threshold must be >= 2 (got {fanout_threshold}); "
                "a threshold of 1 would quarantine every host that sent a flow"
            )
        if window <= 0:
            raise ValueError(f"attribution window must be positive (got {window})")
        self.audit = audit
        self.quarantine = quarantine
        self.window = window
        self.fanout_threshold = fanout_threshold
        self._quarantined: set[str] = set()

    @property
    def quarantined(self) -> frozenset[str]:
        """Return the hosts this responder has quarantined."""
        return frozenset(self._quarantined)

    def attribute(self, now: float) -> list[str]:
        """Return sources whose recent audit fan-out crosses the threshold.

        Scans the audit log newest-first and stops at the window edge —
        the log is append-only in time order, so the scan cost is
        bounded by recent activity, not run length.  Cached decisions
        are skipped: a cache hit never punted to the controller, so it
        is not part of the punt burst being attributed.
        """
        cutoff = now - self.window
        fanout: dict[str, set[str]] = {}
        for record in reversed(self.audit):
            if record.time < cutoff:
                break
            if record.cached:
                continue
            src = str(record.flow.src_ip)
            if src in self._quarantined:
                continue
            fanout.setdefault(src, set()).add(str(record.flow.dst_ip))
        return sorted(
            src for src, dsts in fanout.items() if len(dsts) >= self.fanout_threshold
        )

    def __call__(self, alert: Alert, router: AlertRouter) -> None:
        """Respond to a spike alert: attribute, quarantine, re-alert."""
        for src in self.attribute(alert.time):
            self._quarantined.add(src)
            self.quarantine(src)
            router.emit(
                Alert(
                    time=alert.time,
                    kind=KIND_QUARANTINE,
                    source=src,
                    severity=alert.severity,
                    message=(
                        f"auto-quarantined {src}: audit fan-out >= "
                        f"{self.fanout_threshold} distinct destinations in "
                        f"{self.window:.3g}s (triggered by {alert.kind} on "
                        f"{alert.source})"
                    ),
                    deviation=alert.deviation,
                )
            )

    def stats(self) -> dict[str, object]:
        """Return responder-level counters for reports."""
        return {
            "quarantined": sorted(self._quarantined),
            "fanout_threshold": self.fanout_threshold,
            "window": self.window,
        }
