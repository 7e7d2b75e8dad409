"""Threat model and compromise-impact analysis (§5 of the paper).

§5 walks through what an attacker gains by compromising each component
of an ident++ network — the controller, a switch, an end-host, or a
user's application — and compares the damage with a network protected by
vanilla firewalls.  The paper's treatment is qualitative; this package
makes it mechanical:

* :mod:`repro.security.threat_model` — the component taxonomy (§2
  "Threat Model"),
* :mod:`repro.security.analysis` — attack *probes* (flows an attacker
  would like to open, with the identity claims they can plausibly make)
  and the impact calculator that compares how many probes succeed before
  and after a compromise under each architecture.

E9, the ``paper_e9_security_matrix`` step of the ``paper`` soak
(:mod:`repro.workloads.paper`), uses these to regenerate the §5
comparison as a quantitative matrix.

A compromise is injected into a running scenario through the component's
own hook: ``controller.mark_compromised()`` (§5.1: all protection
disabled), ``switch.mark_compromised()`` (§5.2: unregulated forwarding
through that switch), ``host.mark_compromised()`` plus
``daemon.spoof_responses(pairs)`` (§5.3: false ident++ answers, but no
user's private key).
"""
