"""Reusable cross-scenario invariant checkers.

Every workload in this package asserts some slice of the paper's
correctness story — flows fail closed, failover loses nothing, the
datapath delivers only what the audit passed and no quarantine cut off,
caches converge, state stays bounded.  Before this module each workload
(and each test suite) carried its own ad-hoc copy of those assertions,
so the checks could drift apart.  This module is the single home: the
experiment harness (:mod:`repro.workloads.experiment`) evaluates these
checkers on every matrix cell, and the pytest suites import the very
same functions, so scenario knowledge cannot fork.

Checkers are pure data-in / :class:`InvariantResult`-out.  They take
plain values (flow specs, audit records, ``(time, flow)`` deliveries,
quarantine instants, size dictionaries) rather than live network
objects, so tests can feed synthetic passing *and* deliberately violated
inputs.  The ``network_*`` helpers at the bottom scrape those plain
values out of a live :class:`~repro.core.network.IdentPPNetwork` for
callers that have one.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field as dataclass_field
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from repro.core.audit import AuditTrail
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Address

#: Canonical invariant names, as reported in matrix cells and benchmarks.
FAIL_CLOSED = "fail_closed"
ZERO_LOSS = "zero_loss"
DELIVERY = "delivery"
CACHE_COHERENCE = "cache_coherence"
BOUNDED_STATE = "bounded_state"


@dataclass
class InvariantResult:
    """The outcome of one invariant check: pass/fail plus the evidence."""

    name: str
    violations: list[str] = dataclass_field(default_factory=list, init=False)
    details: dict[str, object] = dataclass_field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return not self.violations

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


def _flow_key(flow):
    """Return the key ``flow`` is counted under: a :class:`FlowSpec`'s
    5-tuple packed into one int, what a pass over a long audit log can
    hold per flow in place of the record's flow; any other value (a
    test's stand-in flow) boxed in a 1-tuple, so an int key is always a
    packed flow."""
    if type(flow) is not FlowSpec:
        return (flow,)
    return (
        flow.src_ip << 72 | flow.dst_ip << 40 | flow.proto << 32
        | flow.src_port << 16 | flow.dst_port
    )


def _classify(records) -> tuple[dict, set]:
    """One pass over ``records``: ``({flow key: fresh decisions}, errored
    flow keys)``, keyed by :func:`_flow_key`.

    A *fresh* decision is one the controller actually evaluated for a
    punt: replays served from the decision cache (``cached``) and
    fail-closed backstops (``rule_origin == "error"``) do not count.
    The errored flows are those that ever received a fail-closed verdict.
    """
    fresh: dict = {}
    errored: set = set()
    for record in records:
        if _failed_closed(record):
            errored.add(_flow_key(record.flow))
        elif not getattr(record, "cached", False):
            key = _flow_key(record.flow)
            fresh[key] = fresh.get(key, 0) + 1
    return fresh, errored


def _check_accounted(
    name: str, flows: Iterable, fresh: dict, errored: set, pending: int, buffered: int
) -> InvariantResult:
    result = InvariantResult(name)
    flows = list(flows)
    unaccounted = [
        flow for flow in flows
        if (key := _flow_key(flow)) not in fresh and key not in errored
    ]
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
    for key, count in fresh.items():
        if count > 1:
            flow = key[0] if type(key) is tuple else FlowSpec(
                IPv4Address(key >> 72), IPv4Address(key >> 40 & 0xFFFFFFFF),
                key >> 32 & 0xFF, key >> 16 & 0xFFFF, key & 0xFFFF,
            )
            result.violations.append(
                f"flow {flow} decided {count} times (expected exactly once)"
            )
    return result


def check_delivery(
    deliveries: Sequence[tuple],
    records,
    quarantined: Mapping[str, float],
    *,
    grace: float,
) -> InvariantResult:
    """The datapath does what the audit says: a ``(time, flow)`` delivery
    is a violation when its flow's latest verdict at or before it in
    ``records`` (time order) is missing or not ``pass``, or when either
    end was quarantined (host → instant) before the delivery less
    ``grace``.  Each violation names the flow, the delivery time and the
    flow's verdict history.  A ``keep state`` reply has no verdict of its
    own; no cell delivers one (the sessions workload, ROADMAP item 13).
    """
    result = InvariantResult(DELIVERY)
    history: dict = {}
    for record in records:
        history.setdefault(record.flow, []).append((record.time, record.action))
    without_pass = after_quarantine = 0
    for when, flow in deliveries:
        verdicts = history.get(flow, [])
        behind = bisect_right(verdicts, when, key=itemgetter(0))
        faults = []
        if not behind or verdicts[behind - 1][1] != "pass":
            faults.append("no pass verdict behind it")
            without_pass += 1
        for end, ip in (("source", flow.src_ip), ("destination", flow.dst_ip)):
            cutoff = quarantined.get(str(ip))
            if cutoff is not None and when > cutoff + grace:
                faults.append(f"its {end} {ip} was quarantined at t={cutoff:.3f}")
                after_quarantine += 1
        if faults:
            trail = ", ".join(f"{action}@{at:.3f}" for at, action in verdicts)
            result.violations.extend(
                f"flow {flow} delivered at t={when:.3f}: {fault} (verdicts: [{trail}])"
                for fault in faults
            )
    result.details.update(
        deliveries=len(deliveries),
        without_pass=without_pass,
        quarantined=len(quarantined),
        after_quarantine=after_quarantine,
        grace=grace,
    )
    return result


@dataclass(frozen=True)
class CoherenceProbe:
    """One post-invalidation observation: what a fresh decision should say.

    ``expected`` is the action the *current* identity state demands;
    ``observed`` is the action the control plane actually returned.
    """

    label: str
    expected: str
    observed: Optional[str]


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


def network_deliveries(net) -> list[tuple[float, FlowSpec]]:
    """Every datapath delivery as ``(time, flow)``, in time order (a tie in host order)."""
    deliveries = [
        (when, FlowSpec.from_packet(packet))
        for host in net.hosts.values()
        for packet, when in zip(host.delivered, host.delivered_times)
    ]
    deliveries.sort(key=itemgetter(0))
    return deliveries


def network_quarantines(net) -> dict[str, float]:
    """Each quarantined host's earliest instant across the control plane
    (a crashed shard's later resync does not move the cutoff)."""
    since: dict[str, float] = {}
    for controller in net.controllers.values():
        for ip, when in controller.quarantined_hosts.items():
            since[ip] = min(when, since.get(ip, when))
    return since


def network_audit_records(net):
    """Return the audit log across the whole control plane, in time order
    (a tie in controller order): the one controller's log itself, or a
    trail that merges the logs each time it is walked, forwards or back."""
    if net.cluster is not None:
        return net.cluster.audit_records()
    logs = [controller.audit for controller in net.controllers.values()]
    return logs[0] if len(logs) == 1 else AuditTrail(logs)
