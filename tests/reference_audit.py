"""The audit log and identity view as they stood before columns: test oracles.

``ReferenceAuditLog`` is ``repro.core.audit.AuditLog`` as a plain list of
:class:`~repro.core.audit.DecisionRecord` objects, every read a copy of
that list or a scan over it.  ``ReferenceKeyView`` is
``repro.identpp.keyvalue.KeyView`` with its single-slot ``of``: a view
shares the previous one's object when nothing moved and its keys tuple
when only values did, and never holds a delta.  ``reference_trail`` is
``network_audit_records`` as it copied and stably sorted every
controller's records.  ``tests/test_audit_reference.py`` appends the same
generated decisions to both logs and requires the same answers.  Nothing
outside the tests may use any of these.
"""

from __future__ import annotations

from collections.abc import Mapping
from typing import Callable, Iterable, Iterator, Optional

from repro.core.audit import DecisionRecord
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument


class ReferenceAuditLog:
    """Append-only list of :class:`DecisionRecord` entries with query helpers."""

    def __init__(self, name: str = "audit") -> None:
        self.name = name
        self._records: list[DecisionRecord] = []

    def record(self, record: DecisionRecord) -> None:
        self._records.append(record)

    def __len__(self) -> int:
        return len(self._records)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(list(self._records))

    def __reversed__(self) -> Iterator[DecisionRecord]:
        return reversed(self._records)

    def records(self) -> list[DecisionRecord]:
        return list(self._records)

    def filter(
        self,
        *,
        action: Optional[str] = None,
        delegated: Optional[bool] = None,
        flow: Optional[FlowSpec] = None,
        predicate: Optional[Callable[[DecisionRecord], bool]] = None,
    ) -> list[DecisionRecord]:
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
        return self.filter(delegated=True)

    def pass_count(self) -> int:
        return sum(1 for r in self._records if r.action == "pass")

    def block_count(self) -> int:
        return sum(1 for r in self._records if r.action != "pass")

    def summary(self) -> dict[str, int]:
        return {
            "total": len(self._records),
            "pass": self.pass_count(),
            "block": self.block_count(),
            "delegated": len(self.delegated_decisions()),
            "cached": sum(1 for r in self._records if r.cached),
        }


def reference_trail(logs: Iterable[ReferenceAuditLog]) -> list[DecisionRecord]:
    """Every log's records in one list, stably sorted by time."""
    records: list[DecisionRecord] = []
    for log in logs:
        records.extend(log.records())
    records.sort(key=lambda record: record.time)
    return records


class ReferenceKeyView(Mapping):
    """An immutable ``{key: latest value}`` view of a document, as two tuples."""

    __slots__ = ("_keys", "_values")

    def __init__(self, keys: tuple[str, ...] = (), values: tuple[str, ...] = ()) -> None:
        self._keys = keys
        self._values = values

    @classmethod
    def of(cls, document: ResponseDocument, last: "ReferenceKeyView") -> "ReferenceKeyView":
        flat = document.as_flat_dict()
        keys, values = tuple(flat), tuple(flat.values())
        if keys == last._keys:
            if values == last._values:
                return last
            keys = last._keys
        elif not keys:
            return REFERENCE_EMPTY_KEYS
        return cls(keys, values)

    def __getitem__(self, key: str) -> str:
        try:
            return self._values[self._keys.index(key)]
        except ValueError:
            raise KeyError(key) from None

    def __iter__(self) -> Iterator[str]:
        return iter(self._keys)

    def __len__(self) -> int:
        return len(self._keys)

    def __hash__(self) -> int:
        return hash(frozenset(zip(self._keys, self._values)))


REFERENCE_EMPTY_KEYS = ReferenceKeyView()
