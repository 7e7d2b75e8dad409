"""The ident++ protocol.

ident++ (§2, §3.2, §3.5 of the paper) is a richer descendant of the RFC
1413 Identification Protocol: firewalls/controllers query the two ends
of a flow on TCP port 783 and receive a list of key/value pairs grouped
into sections, which they feed into the PF+=2 policy.

This package contains the protocol itself, independent of any
controller:

* :mod:`repro.identpp.flowspec` — the 5-tuple flow definition,
* :mod:`repro.identpp.keyvalue` — key/value pairs, sections and the
  response document with "latest value" and ``*@`` concatenation
  semantics,
* :mod:`repro.identpp.wire` — the query/response wire format of §3.2,
* :mod:`repro.identpp.daemon_config` — the ``@app { ... }`` end-host
  configuration files of Figures 3, 4 and 6,
* :mod:`repro.identpp.daemon` — the end-host daemon, including the
  run-time key/value channel applications use,
* :mod:`repro.identpp.client` — the query client controllers use, with
  hooks for on-path interception,
* :mod:`repro.identpp.engine` — the caching/coalescing query engine a
  controller puts in front of its client (lookups, in-flight
  coalescing, the negative cache, daemon hooks and invalidation),
* :mod:`repro.identpp.engine_store` — the engine's one answer store
  (entries by key, per-host index, TTL deadlines),
* :mod:`repro.identpp.engine_push` — the engine's push plane.
"""
