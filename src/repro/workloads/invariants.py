"""Reusable cross-scenario invariant checkers.

Every workload in this package asserts some slice of the paper's
correctness story — flows fail closed, failover loses nothing,
quarantined hosts stay contained, caches converge after invalidation,
state stays bounded.  Before this module each workload (and each test
suite) carried its own ad-hoc copy of those assertions, so the checks
could drift apart.  This module is the single home: the experiment
harness (:mod:`repro.workloads.experiment`) evaluates these checkers on
every matrix cell, and the pytest suites import the very same functions,
so scenario knowledge cannot fork.

Checkers are pure data-in / :class:`InvariantResult`-out.  They take
plain values (flow specs, audit records, ``(time, src, dst)`` delivery
triples, size dictionaries) rather than live network objects, so tests
can feed synthetic passing *and* deliberately violated inputs.  The
``network_*`` helpers at the bottom scrape those plain values out of a
live :class:`~repro.core.network.IdentPPNetwork` for callers that have
one.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterable, Mapping, Optional

#: Canonical invariant names, as reported in matrix cells and benchmarks.
FAIL_CLOSED = "fail_closed"
ZERO_LOSS = "zero_loss"
CONTAINMENT = "containment"
CACHE_COHERENCE = "cache_coherence"
BOUNDED_STATE = "bounded_state"

ALL_INVARIANTS = (FAIL_CLOSED, ZERO_LOSS, CONTAINMENT, CACHE_COHERENCE, BOUNDED_STATE)


@dataclass
class InvariantResult:
    """The outcome of one invariant check: pass/fail plus the evidence."""

    name: str
    violations: list[str] = dataclass_field(default_factory=list)
    details: dict[str, object] = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed

    def as_dict(self) -> dict[str, object]:
        """JSON-friendly shape, used by the benchmark report."""
        return {
            "name": self.name,
            "passed": self.passed,
            "violations": list(self.violations),
            "details": dict(self.details),
        }


# ----------------------------------------------------------------------
# Record classification (shared by fail-closed and zero-loss)
# ----------------------------------------------------------------------

def _failed_closed(record) -> bool:
    """A fail-closed backstop (``rule_origin == "error"``), not a decision."""
    return getattr(record, "rule_origin", "") == "error"


def fresh_decisions(records) -> dict:
    """Group non-cached, non-error decision records by flow.

    A *fresh* decision is one the controller actually evaluated for this
    punt: replays served from the decision cache (``cached``) and
    fail-closed backstops (``rule_origin == "error"``) do not count.
    Returns ``{flow: [records...]}`` in record order.
    """
    grouped: dict = {}
    for record in records:
        if not (getattr(record, "cached", False) or _failed_closed(record)):
            grouped.setdefault(record.flow, []).append(record)
    return grouped


def failed_closed_flows(records) -> set:
    """Return the flows that ever received a fail-closed (error) verdict."""
    return _classify(records)[1]


def _classify(records) -> tuple[dict, set]:
    """One pass over ``records``: ``({flow: fresh decisions}, errored flows)``.

    The counts are what :func:`fresh_decisions` groups, in its flow
    order; the set is :func:`failed_closed_flows`.
    """
    fresh: dict = {}
    errored: set = set()
    for record in records:
        if _failed_closed(record):
            errored.add(record.flow)
        elif not getattr(record, "cached", False):
            fresh[record.flow] = fresh.get(record.flow, 0) + 1
    return fresh, errored


def _check_accounted(
    name: str, flows: Iterable, fresh: dict, errored: set, pending: int, buffered: int
) -> InvariantResult:
    result = InvariantResult(name)
    flows = list(flows)
    unaccounted = [flow for flow in flows if flow not in fresh and flow not in errored]
    for flow in unaccounted:
        result.violations.append(f"flow {flow} reached no verdict (not decided, not failed closed)")
    if pending:
        result.violations.append(f"{pending} flows still pending after drain")
    if buffered:
        result.violations.append(f"{buffered} packets still buffered at switches after drain")
    result.details.update(
        flows=len(flows),
        decided=len(fresh),
        failed_closed=len(errored),
        unaccounted=len(unaccounted),
        pending=pending,
        buffered=buffered,
    )
    return result


def check_fail_closed(
    flows: Iterable,
    records,
    *,
    pending: int = 0,
    buffered: int = 0,
) -> InvariantResult:
    """No flow is ever left open-ended: every punted flow reaches a verdict.

    Each flow in ``flows`` must appear in the audit log — either as a
    fresh decision or as a fail-closed ``error`` drop — and once the run
    has drained, no flow may still sit in a pending table or a switch
    buffer (that would be a flow whose packets are held forever without
    a verdict, the open-ended state the pending deadline exists to kill).
    """
    return _check_accounted(FAIL_CLOSED, flows, *_classify(records), pending, buffered)


def check_zero_loss(
    flows: Iterable,
    records,
    *,
    pending: int = 0,
    buffered: int = 0,
) -> InvariantResult:
    """Every punted flow is decided exactly once, even across shard kills.

    Strengthens :func:`check_fail_closed`: besides full accounting and a
    drained control plane, no flow may collect *two* fresh decisions.  A
    flow that fails closed on a dying shard and is then freshly decided
    after re-punt adoption is fine (the error verdict is the backstop,
    not a decision); two fresh verdicts mean the failover both adopted
    and re-evaluated the same punt — duplicated work and, worse, two
    installs racing in the fabric.  Only applicable where each 5-tuple
    is punted once within the decision TTL.
    """
    fresh, errored = _classify(records)
    result = _check_accounted(ZERO_LOSS, flows, fresh, errored, pending, buffered)
    for flow, count in fresh.items():
        if count > 1:
            result.violations.append(
                f"flow {flow} decided {count} times (expected exactly once)"
            )
    return result


def check_containment(
    deliveries: Iterable[tuple],
    quarantined_since: Mapping,
    *,
    grace: float = 0.0,
) -> InvariantResult:
    """Quarantined hosts pass no datapath traffic.

    ``deliveries`` is an iterable of ``(time, src_ip, dst_ip)`` triples
    (see :func:`network_deliveries`); ``quarantined_since`` maps a host
    address to the virtual time its quarantine took effect.  Any packet
    a quarantined source lands *after* its quarantine time (plus
    ``grace`` for control-plane propagation) is a containment breach.
    Traffic delivered before quarantine is expected — that is what
    triggered the quarantine.
    """
    result = InvariantResult(CONTAINMENT)
    since = {str(ip): when for ip, when in quarantined_since.items()}
    deliveries = list(deliveries)
    breaches = 0
    for when, src_ip, dst_ip in deliveries:
        cutoff = since.get(str(src_ip))
        if cutoff is not None and when > cutoff + grace:
            breaches += 1
            result.violations.append(
                f"quarantined host {src_ip} delivered to {dst_ip} at t={when:.3f}"
                f" (quarantined since t={cutoff:.3f})"
            )
    result.details.update(
        quarantined=len(since),
        deliveries=len(deliveries),
        breaches=breaches,
        grace=grace,
    )
    return result


@dataclass(frozen=True)
class CoherenceProbe:
    """One post-invalidation observation: what a fresh decision should say.

    ``expected`` is the action the *current* identity state demands;
    ``observed`` is the action the control plane actually returned.
    ``requeried`` optionally records whether the probe forced a fresh
    daemon query (``None`` when the scenario does not measure it).
    """

    label: str
    expected: str
    observed: Optional[str]
    requeried: Optional[bool] = None


def check_cache_coherence(probes: Iterable[CoherenceProbe]) -> InvariantResult:
    """Post-invalidation decisions reflect the new identity.

    After an identity change (socket re-tenant, compromise marking,
    publish of new runtime keys) the query cache must not keep serving
    the stale answer: every probe's observed action must equal the
    action the new identity demands, and — where the scenario measures
    it — the probe must actually have re-queried the daemon.
    """
    result = InvariantResult(CACHE_COHERENCE)
    probes = list(probes)
    stale = 0
    for probe in probes:
        if probe.observed != probe.expected:
            stale += 1
            result.violations.append(
                f"probe {probe.label!r}: expected {probe.expected!r} after invalidation,"
                f" observed {probe.observed!r} (stale cached identity)"
            )
        if probe.requeried is False:
            result.violations.append(
                f"probe {probe.label!r}: decision served without re-querying the daemon"
            )
    result.details.update(probes=len(probes), stale=stale)
    return result


def check_bounded_state(
    observed: Mapping[str, float],
    caps: Mapping[str, float],
) -> InvariantResult:
    """Flow/pending/telemetry structures stay within configured caps.

    Every structure named in ``caps`` must have an observation in
    ``observed`` at or below its cap.  A cap key with no observation is
    itself a violation — an unmeasured structure is an unbounded one.
    Keys observed but not capped are reported in details, never
    failures, so callers can log more than they gate on.

    What is measured is state that grows with *load* (see
    :func:`network_flow_state`).  A controller's hop-plan memo is not in
    it: it holds one entry per (source node, destination node) pair, so
    the topology bounds it, and it is dropped whole on every topology
    mutation or switch registration.
    """
    result = InvariantResult(BOUNDED_STATE)
    for name, cap in sorted(caps.items()):
        if name not in observed:
            result.violations.append(f"structure {name!r} has a cap ({cap:g}) but was never measured")
            continue
        value = observed[name]
        if value > cap:
            result.violations.append(
                f"structure {name!r} reached {value:g}, above its cap of {cap:g}"
            )
    result.details.update(
        observed={name: float(value) for name, value in sorted(observed.items())},
        caps={name: float(value) for name, value in sorted(caps.items())},
    )
    return result


# ----------------------------------------------------------------------
# Live-network scrapers (plain values out of an IdentPPNetwork)
# ----------------------------------------------------------------------

def network_flow_state(net) -> dict[str, int]:
    """Measure every flow-state structure of a live network.

    Returns the sizes the bounded-state checker (and the drain clauses
    of fail-closed / zero-loss) care about: pending punts, buffered
    packets, decision-cache entries, installed flow-table entries and
    standing push subscriptions, summed across the control plane — and
    the packet capture's retained records (zero unless someone started
    one; at most the ring's size when on).
    """
    controllers = list(net.controllers.values())
    return {
        "pending": sum(c.inflight_count() for c in controllers),
        "buffered": sum(s.buffered_count() for s in net.switches.values()),
        "decision_cache": sum(len(c.cache) for c in controllers),
        # The controller keeps no ``keep state`` table (the decision cache
        # answers the reverse direction), but ``perf/`` caps this key, and
        # a capped key with no observation is a violation: report none.
        "state_table": 0,
        "flow_table": sum(len(s.flow_table) for s in net.switches.values()),
        "subscriptions": sum(
            c.query_engine.subscription_count() for c in controllers
        ),
        "packet_trace": len(net.topology.trace),
    }


def network_deliveries(net) -> list[tuple[float, str, str]]:
    """Return every datapath delivery as ``(time, src_ip, dst_ip)``.

    Walks each end-host's delivered packets (with their parallel
    timestamp list) — the input shape :func:`check_containment` takes.
    """
    deliveries: list[tuple[float, str, str]] = []
    for host in net.hosts.values():
        for packet, when in zip(host.delivered, host.delivered_times):
            deliveries.append((when, str(packet.ip_src), str(packet.ip_dst)))
    deliveries.sort()
    return deliveries


def network_audit_records(net) -> list:
    """Return the audit log across the whole control plane, in time order."""
    if net.cluster is not None:
        return list(net.cluster.audit_records())
    records = []
    for controller in net.controllers.values():
        records.extend(controller.audit.records())
    records.sort(key=lambda record: record.time)
    return records
