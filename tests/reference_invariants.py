"""The fail-closed / zero-loss checkers as they were: the differential oracle.

``repro.workloads.invariants`` classifies the audit records in one pass
into per-flow fresh-decision counts and an errored set.  These are the
checkers it replaced, which grouped ``{flow: [records]}`` — once for
fail-closed and again for zero-loss — after copying the record list,
with the two grouping helpers as they were (the module keeps no copy of
either: its one-pass classifier replaced both).  ``tests/test_invariants_reference.py``
holds the two to equal results over generated record streams.
"""

from __future__ import annotations

from typing import Iterable

from repro.workloads.invariants import FAIL_CLOSED, ZERO_LOSS, InvariantResult


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
