"""Threat model and attack-injection harness (§5 of the paper).

§5 walks through what an attacker gains by compromising each component
of an ident++ network — the controller, a switch, an end-host, or a
user's application — and compares the damage with a network protected by
vanilla firewalls.  The paper's treatment is qualitative; this package
makes it mechanical:

* :mod:`repro.security.threat_model` — the component taxonomy and
  assumptions (§2 "Threat Model"),
* :mod:`repro.security.attacks` — attacker actions that mutate a running
  scenario (compromise the controller, a switch, a host's daemon, or an
  application; spoof daemon responses; masquerade as other applications),
* :mod:`repro.security.analysis` — attack *probes* (flows an attacker
  would like to open, with the identity claims they can plausibly make)
  and the impact calculator that compares how many probes succeed before
  and after a compromise under each architecture.

E9, the ``paper_e9_security_matrix`` step of the ``paper`` soak
(:mod:`repro.workloads.paper`), uses these to regenerate the §5
comparison as a quantitative matrix.
"""

from repro.security.analysis import AttackProbe, ImpactResult, SecurityMatrix, impact_of_compromise
from repro.security.attacks import Attacker, CompromiseRecord
from repro.security.threat_model import (
    COMPONENT_CONTROLLER,
    COMPONENT_END_HOST,
    COMPONENT_SWITCH,
    COMPONENT_USER_APPLICATION,
    CompromiseScenario,
    ThreatModel,
)

__all__ = [
    "AttackProbe",
    "ImpactResult",
    "SecurityMatrix",
    "impact_of_compromise",
    "Attacker",
    "CompromiseRecord",
    "COMPONENT_CONTROLLER",
    "COMPONENT_END_HOST",
    "COMPONENT_SWITCH",
    "COMPONENT_USER_APPLICATION",
    "CompromiseScenario",
    "ThreatModel",
]
