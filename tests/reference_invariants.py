"""Checkers as they were: the differential oracles.

``repro.workloads.invariants`` classifies the audit records in one pass
into per-flow fresh-decision counts and an errored set.  The fail-closed
and zero-loss checkers here are the ones it replaced, which grouped
``{flow: [records]}`` — once for fail-closed and again for zero-loss —
after copying the record list, with the two grouping helpers as they
were (the module keeps no copy of either: its one-pass classifier
replaced both).

:func:`check_containment` is the quarantine checker that
``check_delivery`` folded in: it judged only deliveries *from* a
quarantined host, against quarantine instants its caller wrote down.

``tests/test_invariants_reference.py`` holds each to the checker that
replaced it over generated inputs.
"""

from __future__ import annotations

from typing import Iterable, Mapping

from repro.workloads.invariants import FAIL_CLOSED, ZERO_LOSS, InvariantResult

CONTAINMENT = "containment"


def fresh_decisions(records) -> dict:
    grouped: dict = {}
    for record in records:
        if getattr(record, "cached", False):
            continue
        if getattr(record, "rule_origin", "") == "error":
            continue
        grouped.setdefault(record.flow, []).append(record)
    return grouped


def failed_closed_flows(records) -> set:
    return {
        record.flow
        for record in records
        if getattr(record, "rule_origin", "") == "error"
    }


def check_fail_closed(
    flows: Iterable, records, *, pending: int = 0, buffered: int = 0
) -> InvariantResult:
    result = InvariantResult(FAIL_CLOSED)
    records = list(records)
    decided = set(fresh_decisions(records))
    errored = failed_closed_flows(records)
    flows = list(flows)
    unaccounted = [flow for flow in flows if flow not in decided and flow not in errored]
    for flow in unaccounted:
        result.violations.append(f"flow {flow} reached no verdict (not decided, not failed closed)")
    if pending:
        result.violations.append(f"{pending} flows still pending after drain")
    if buffered:
        result.violations.append(f"{buffered} packets still buffered at switches after drain")
    result.details.update(
        flows=len(flows),
        decided=len(decided),
        failed_closed=len(errored),
        unaccounted=len(unaccounted),
        pending=pending,
        buffered=buffered,
    )
    return result


def check_zero_loss(
    flows: Iterable, records, *, pending: int = 0, buffered: int = 0
) -> InvariantResult:
    result = check_fail_closed(flows, records, pending=pending, buffered=buffered)
    result.name = ZERO_LOSS
    for flow, decisions in fresh_decisions(records).items():
        if len(decisions) > 1:
            result.violations.append(
                f"flow {flow} decided {len(decisions)} times (expected exactly once)"
            )
    return result


def check_containment(
    deliveries: Iterable[tuple],
    quarantined_since: Mapping,
    *,
    grace: float = 0.0,
) -> InvariantResult:
    """Quarantined hosts pass no datapath traffic.

    ``deliveries`` is an iterable of ``(time, src_ip, dst_ip)`` triples;
    ``quarantined_since`` maps a host address to the virtual time its
    quarantine took effect.  Any packet a quarantined source lands
    *after* its quarantine time (plus ``grace`` for control-plane
    propagation) is a containment breach.
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
