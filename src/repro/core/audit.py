"""The controller's audit log.

A central motivation for delegation in the paper is that "only more
recent architectures with strong central control make it possible to
delegate control ..., log and audit the delegates' actions, and revoke
the delegation if needed" (§1).  Every decision the ident++ controller
makes — including those that honoured delegated (``allowed()``/
``verify()``) rules — is recorded here so administrators can review what
their delegates did.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping, Optional

from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import EMPTY_KEYS


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One policy decision.

    The log keeps every record, so a record's size is the controller's
    memory per decided flow: it is slotted, and its two identity views
    are the decision's shared :class:`~repro.identpp.keyvalue.KeyView`
    objects, not copies (a cache hit or a fail-closed verdict saw no
    documents and keeps the one empty view).
    """

    time: float
    flow: FlowSpec
    action: str
    rule_text: str
    rule_origin: str
    cookie: str
    delegated: bool = False
    delegation_functions: tuple[str, ...] = ()
    src_keys: Mapping[str, str] = EMPTY_KEYS
    dst_keys: Mapping[str, str] = EMPTY_KEYS
    query_latency: float = 0.0
    cached: bool = False
    note: str = ""

    @property
    def is_pass(self) -> bool:
        """Return ``True`` when the flow was allowed."""
        return self.action == "pass"


def record_line(record: DecisionRecord, *context: str) -> str:
    """Return one record as one canonical line, ``context`` fields first::

        time|flow|action|rule|origin|cookie|delegated|functions|cached|query latency|note|src keys|dst keys

    Floats are in ``repr`` form and the identity views in document order,
    so two runs whose lines are equal decided alike, to the bit.
    """
    flow = record.flow
    return "|".join((
        *context,
        repr(record.time),
        f"{flow.src_ip}:{flow.src_port}>{flow.dst_ip}:{flow.dst_port}/{flow.proto}",
        record.action,
        record.rule_text,
        record.rule_origin,
        record.cookie,
        str(record.delegated),
        ",".join(record.delegation_functions),
        str(record.cached),
        repr(record.query_latency),
        record.note,
        repr(dict(record.src_keys)),
        repr(dict(record.dst_keys)),
    ))


def audit_digest(records: Iterable[DecisionRecord]) -> str:
    """Return the sha256 over the records' canonical lines, one line each."""
    digest = hashlib.sha256()
    for record in records:
        digest.update(record_line(record).encode() + b"\n")
    return digest.hexdigest()


class AuditLog:
    """Append-only list of :class:`DecisionRecord` entries with query helpers."""

    def __init__(self, name: str = "audit") -> None:
        self.name = name
        self._records: list[DecisionRecord] = []

    def record(self, record: DecisionRecord) -> None:
        """Append one decision."""
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(list(self._records))

    def __reversed__(self) -> Iterator[DecisionRecord]:
        """Walk newest-first in place: a scan that stops at a window edge
        or a first match costs what it visits, not the length of the log."""
        return reversed(self._records)

    def records(self) -> list[DecisionRecord]:
        """Return all records in order."""
        return list(self._records)

    def filter(
        self,
        *,
        action: Optional[str] = None,
        delegated: Optional[bool] = None,
        flow: Optional[FlowSpec] = None,
        predicate: Optional[Callable[[DecisionRecord], bool]] = None,
    ) -> list[DecisionRecord]:
        """Return the records matching all given criteria."""
        selected = self._records
        if action is not None:
            selected = [r for r in selected if r.action == action]
        if delegated is not None:
            selected = [r for r in selected if r.delegated == delegated]
        if flow is not None:
            selected = [r for r in selected if r.flow == flow]
        if predicate is not None:
            selected = [r for r in selected if predicate(r)]
        return list(selected)

    def delegated_decisions(self) -> list[DecisionRecord]:
        """Return decisions that honoured delegated (allowed()/verify()) rules."""
        return self.filter(delegated=True)

    def pass_count(self) -> int:
        """Return the number of allow decisions."""
        return sum(1 for r in self._records if r.is_pass)

    def block_count(self) -> int:
        """Return the number of deny decisions."""
        return sum(1 for r in self._records if not r.is_pass)

    def summary(self) -> dict[str, int]:
        """Return counts used by reports and tests."""
        return {
            "total": len(self._records),
            "pass": self.pass_count(),
            "block": self.block_count(),
            "delegated": len(self.delegated_decisions()),
            "cached": sum(1 for r in self._records if r.cached),
        }
