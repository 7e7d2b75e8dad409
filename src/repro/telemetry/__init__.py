"""The telemetry plane: a per-tick sweep, deviation detection, alerting.

The control plane watching itself.  Three layers (the
pipeline/deviation/alerting split):

* :mod:`repro.telemetry.pipeline` — a :class:`MetricsPipeline` that,
  on virtual time, reads each watched value and hands it to its
  detector;
* :mod:`repro.telemetry.deviation` — EWMA baselines and typed
  detectors (spike / collapse / growth / gap) that turn values into
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
