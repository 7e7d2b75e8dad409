"""Layer 2 of the telemetry plane: baselines and deviation detectors.

A raw value is useless without a notion of *normal*.  Each detector
owns an :class:`EwmaBaseline` — an exponentially weighted moving
average of its value's mean and variance, learned during a warmup
window — and compares each fresh sample against it.  When a sample
breaks the baseline's envelope for long enough, the detector emits a typed
:class:`Deviation` naming what broke and how badly; the alert router
in :mod:`repro.telemetry.alerting` turns those into responder calls.

Four detector shapes cover the failure modes the paper's control plane
must notice on its own (ISSUE 8):

========================  ============================================
detector                  signature it encodes
========================  ============================================
:class:`SpikeDetector`    punt-rate spike — a scanning worm punts a
                          burst of never-seen flows to the controller
:class:`CollapseDetector` cache hit-ratio collapse — an invalidation
                          storm empties the decision cache
:class:`GrowthDetector`   pending-depth growth — daemon brownout; the
                          queue grows monotonically instead of
                          oscillating around its service point
:class:`GapDetector`      heartbeat gap — a shard stopped reporting;
                          the gap itself is the evidence
========================  ============================================

Detectors deliberately stop learning while a series is deviating:
folding outbreak samples into the baseline would normalise the attack
("the punt rate is always this high now") and silence the alarm.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

#: Detector kind tags (also used as Alert kinds by the router).
KIND_SPIKE = "spike"
KIND_COLLAPSE = "collapse"
KIND_GROWTH = "growth"
KIND_GAP = "gap"

#: The weight an EWMA baseline gives each fresh sample.
EWMA_ALPHA = 0.2


@dataclass(frozen=True)
class Deviation:
    """One detector firing on one series at one instant."""

    time: float
    kind: str
    series: str
    value: float
    baseline: float
    #: How far past the trigger condition the sample is, normalised so
    #: 1.0 is "exactly at the threshold"; responders can rank on it.
    severity: float
    detail: str = ""

    def describe(self) -> str:
        """Return a one-line human-readable description."""
        return (
            f"[{self.time:.3f}] {self.kind} on {self.series}: "
            f"value={self.value:.4g} baseline={self.baseline:.4g} "
            f"severity={self.severity:.2f}"
            + (f" ({self.detail})" if self.detail else "")
        )


class EwmaBaseline:
    """EWMA mean/variance baseline over a warmup-gated stream.

    :data:`EWMA_ALPHA` weights fresh samples; the variance EWMA uses the
    same constant over squared residuals (the standard EWMA/EWMV pair).  The
    baseline refuses to judge anything until it has seen ``warmup``
    samples — detectors treat a cold baseline as "no opinion".
    """

    __slots__ = ("warmup", "mean", "variance", "samples")

    def __init__(self, warmup: int = 10) -> None:
        if warmup < 1:
            raise ValueError(f"EWMA warmup must be >= 1 (got {warmup})")
        self.warmup = warmup
        self.mean = 0.0
        self.variance = 0.0
        self.samples = 0

    @property
    def ready(self) -> bool:
        """Return whether the baseline has finished warming up."""
        return self.samples >= self.warmup

    @property
    def stddev(self) -> float:
        """Return the EWMA standard deviation."""
        return math.sqrt(max(0.0, self.variance))

    def update(self, value: float) -> None:
        """Fold one sample into the baseline."""
        self.samples += 1
        if self.samples == 1:
            self.mean = value
            self.variance = 0.0
            return
        residual = value - self.mean
        self.mean += EWMA_ALPHA * residual
        self.variance = (1 - EWMA_ALPHA) * (self.variance + EWMA_ALPHA * residual * residual)

    def __repr__(self) -> str:
        return (
            f"EwmaBaseline(mean={self.mean:.4g}, stddev={self.stddev:.4g}, "
            f"samples={self.samples}/{self.warmup})"
        )


class Detector:
    """Base class: one detector watches one series.

    Subclasses implement :meth:`_judge`, returning a ``(deviating,
    severity, detail)`` triple for the current sample.  The base class
    handles warmup gating, learn-only-while-normal, and the
    ``min_streak`` debounce (a single noisy sample is not an incident).
    """

    kind = "deviation"

    def __init__(
        self,
        series: str,
        *,
        warmup: int = 10,
        min_streak: int = 2,
    ) -> None:
        if min_streak < 1:
            raise ValueError(f"detector on {series!r}: min_streak must be >= 1")
        self.series = series
        self.baseline = EwmaBaseline(warmup=warmup)
        self.min_streak = min_streak
        self._streak = 0

    def observe(self, now: float, value: float) -> Optional[Deviation]:
        """Feed one sample; return a :class:`Deviation` if one fires."""
        if not self.baseline.ready:
            self.baseline.update(value)
            return None
        deviating, severity, detail = self._judge(value)
        if not deviating:
            self._streak = 0
            self.baseline.update(value)
            return None
        # Deviating: hold the baseline steady so the anomaly cannot
        # teach itself into normality.
        self._streak += 1
        if self._streak < self.min_streak:
            return None
        return Deviation(
            time=now,
            kind=self.kind,
            series=self.series,
            value=value,
            baseline=self.baseline.mean,
            severity=severity,
            detail=detail,
        )

    def _judge(self, value: float) -> tuple[bool, float, str]:
        raise NotImplementedError

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.series!r}, {self.baseline!r})"


class SpikeDetector(Detector):
    """Fires when a sample exceeds ``mean + sigmas * stddev`` (and a
    multiplicative floor, so a flat-zero baseline needs a real burst).

    The worm signature: controller punt rate jumps an order of
    magnitude when a scanner sprays never-seen destinations.
    """

    kind = KIND_SPIKE
    sigmas = 4.0
    min_ratio = 3.0

    def __init__(self, series: str, *, min_value: float = 1.0, **kwargs) -> None:
        super().__init__(series, **kwargs)
        self.min_value = min_value

    def _judge(self, value: float) -> tuple[bool, float, str]:
        mean = self.baseline.mean
        threshold = max(
            mean + self.sigmas * self.baseline.stddev,
            mean * self.min_ratio,
            self.min_value,
        )
        if value <= threshold:
            return False, 0.0, ""
        severity = value / threshold
        return True, severity, f"threshold={threshold:.4g}"


class CollapseDetector(Detector):
    """Fires when a ratio-like series falls below a fraction of its
    baseline (and the baseline was high enough to mean anything).

    The invalidation-storm signature: cache hit ratio drops from ~0.9
    to ~0 when revocations empty the decision cache.
    """

    kind = KIND_COLLAPSE
    fraction = 0.5
    min_baseline = 0.2

    def _judge(self, value: float) -> tuple[bool, float, str]:
        mean = self.baseline.mean
        if mean < self.min_baseline:
            return False, 0.0, ""
        threshold = mean * self.fraction
        if value >= threshold:
            return False, 0.0, ""
        severity = threshold / value if value > 0 else float(self.min_streak + threshold)
        return True, severity, f"threshold={threshold:.4g}"


class GrowthDetector(Detector):
    """Fires on sustained monotonic growth above baseline.

    The brownout signature: a healthy pending queue oscillates around
    its service point; a browned-out daemon makes it climb every
    sample.  Requires ``min_streak`` *strictly increasing* samples all
    above ``mean + margin`` — so a busy-but-draining queue never fires.
    """

    kind = KIND_GROWTH
    margin = 2.0

    def __init__(self, series: str, **kwargs) -> None:
        super().__init__(series, min_streak=3, **kwargs)
        self._previous: Optional[float] = None

    def _judge(self, value: float) -> tuple[bool, float, str]:
        previous = self._previous
        self._previous = value
        above = value > self.baseline.mean + self.margin
        rising = previous is None or value > previous
        if not (above and rising):
            return False, 0.0, ""
        reference = self.baseline.mean + self.margin
        severity = value / reference if reference > 0 else value
        return True, severity, f"previous={previous if previous is not None else 'n/a'}"


class GapDetector(Detector):
    """Fires when a time-since-last-heartbeat series exceeds a bound.

    The shard-loss signature: the plane reads ``now - last_seen`` for
    each shard; a live shard keeps it near the heartbeat interval, a
    halted one lets it grow without bound.  No baseline maths — the
    bound is structural (a multiple of the expected interval) — but the
    warmup/streak machinery still debounces startup and jitter.
    """

    kind = KIND_GAP

    def __init__(
        self,
        series: str,
        *,
        max_gap: float,
    ) -> None:
        if max_gap <= 0:
            raise ValueError(f"gap detector on {series!r}: max_gap must be positive")
        super().__init__(series, warmup=1)
        self.max_gap = max_gap

    def _judge(self, value: float) -> tuple[bool, float, str]:
        if value <= self.max_gap:
            return False, 0.0, ""
        return True, value / self.max_gap, f"max_gap={self.max_gap:.4g}"

