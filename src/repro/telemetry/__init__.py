"""The telemetry plane: streaming metrics, deviation detection, alerting.

The control plane watching itself.  Three layers (the
pipeline/deviation/alerting split):

* :mod:`repro.telemetry.pipeline` — :class:`TelemetryProbe` taps on the
  hot paths, sampled on virtual time into bounded :class:`TimeSeries`
  ring buffers by a :class:`MetricsPipeline`;
* :mod:`repro.telemetry.deviation` — EWMA baselines and typed
  detectors (spike / collapse / growth / gap) that turn series into
  :class:`Deviation` events;
* :mod:`repro.telemetry.alerting` — an :class:`AlertRouter` that
  debounces deviations into typed :class:`Alert` objects and drives
  responders, chiefly :class:`AutoQuarantineResponder`, which closes
  the paper's detect-and-react loop by quarantining scanning hosts
  through the cluster coordinator with no scripted help.

:class:`TelemetryPlane` (in :mod:`repro.telemetry.plane`) assembles all
three over an :class:`~repro.core.network.IdentPPNetwork`; use
``network.enable_telemetry()`` for the one-liner.
"""

from repro.telemetry.alerting import (
    KIND_QUARANTINE,
    Alert,
    AlertRouter,
    AutoQuarantineResponder,
)
from repro.telemetry.deviation import (
    KIND_COLLAPSE,
    KIND_GAP,
    KIND_GROWTH,
    KIND_SPIKE,
    CollapseDetector,
    Detector,
    Deviation,
    DeviationMonitor,
    EwmaBaseline,
    GapDetector,
    GrowthDetector,
    SpikeDetector,
)
from repro.telemetry.pipeline import (
    DEFAULT_CAPACITY,
    MetricsPipeline,
    TelemetryProbe,
    TimeSeries,
)
from repro.telemetry.plane import (
    DEFAULT_INTERVAL,
    DEFAULT_SPIKE_MIN_RATE,
    TelemetryPlane,
)

__all__ = [
    "Alert",
    "AlertRouter",
    "AutoQuarantineResponder",
    "CollapseDetector",
    "DEFAULT_CAPACITY",
    "DEFAULT_INTERVAL",
    "DEFAULT_SPIKE_MIN_RATE",
    "Detector",
    "Deviation",
    "DeviationMonitor",
    "EwmaBaseline",
    "GapDetector",
    "GrowthDetector",
    "KIND_COLLAPSE",
    "KIND_GAP",
    "KIND_GROWTH",
    "KIND_QUARANTINE",
    "KIND_SPIKE",
    "MetricsPipeline",
    "SpikeDetector",
    "TelemetryPlane",
    "TelemetryProbe",
    "TimeSeries",
]
