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

import functools
import hashlib
import heapq
import math
import operator
from array import array
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, Mapping

from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import EMPTY_KEYS
from repro.netsim.addresses import IPv4Address


@dataclass(frozen=True, slots=True)
class DecisionRecord:
    """One policy decision, as a reader of the :class:`AuditLog` gets it.

    The log keeps a decision as a row of its columns and builds the
    record when it is read; the two identity views are the decision's
    shared :class:`~repro.identpp.keyvalue.KeyView` objects, not copies
    (a cache hit or a fail-closed verdict saw no documents and keeps the
    one empty view).
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


#: The fields of a decision that few decisions tell apart, kept once per
#: distinct combination: ``(action, rule_text, rule_origin, delegated,
#: delegation_functions, cached, note)``.
_ACTION, _DELEGATED, _CACHED = 0, 3, 5

#: The setup time of a row that timed no punt: a cache hit, or a flow
#: its deadline failed closed.  A real setup time may be 0.0.
UNTIMED = math.nan

#: The digits of a cookie's ``-N`` tail that a column holds: canonical
#: decimal (what ``str(int)`` writes) that fits the column.
_MAX_COOKIE_DIGITS = 19


class AuditLog:
    """The append-only log of every decision, kept as columns.

    The log keeps every decision for the controller's whole life, so
    what a decided flow leaves here is the controller's memory per flow.
    A row is atoms in typed arrays: the time, query latency and setup
    time, the 5-tuple, one small int for the verdict's shape (action,
    rule, origin, delegation, cached, note — few distinct ones), and the
    cookie as its prefix's number and its ``-N`` tail (any other cookie
    is kept whole beside the columns).  The two identity views are kept
    by reference.
    :class:`DecisionRecord` objects are built only when read.
    """

    def __init__(self, name: str = "audit") -> None:
        self.name = name
        # "I" is a 4-byte unsigned int: an address, and ids that count
        # distinct verdict shapes and cookie prefixes.
        self._time = array("d")
        self._query_latency = array("d")
        # Record time minus punt arrival: the one store of a decision's
        # setup time, read through :class:`SetupTimes`.
        self._setup_time = array("d")
        self._src_ip = array("I")
        self._dst_ip = array("I")
        self._proto = array("B")
        self._src_port = array("H")
        self._dst_port = array("H")
        self._verdict = array("I")
        self._verdicts: list[tuple] = []
        self._verdict_ids: dict[tuple, int] = {}
        # Cookie prefix 0 stands for "the whole cookie is in _odd_cookies".
        self._cookie_prefix = array("I")
        self._cookie_number = array("Q")
        self._prefixes: list[str] = [""]
        self._prefix_ids: dict[str, int] = {}
        self._odd_cookies: dict[int, str] = {}
        self._src_keys: list[Mapping[str, str]] = []
        self._dst_keys: list[Mapping[str, str]] = []

    def record(
        self,
        time: float,
        flow: FlowSpec,
        action: str,
        rule_text: str,
        rule_origin: str,
        cookie: str,
        delegated: bool = False,
        delegation_functions: tuple[str, ...] = (),
        src_keys: Mapping[str, str] = EMPTY_KEYS,
        dst_keys: Mapping[str, str] = EMPTY_KEYS,
        query_latency: float = 0.0,
        cached: bool = False,
        note: str = "",
        setup_time: float = UNTIMED,
    ) -> None:
        """Append one decision; the fields are :class:`DecisionRecord`'s.

        ``setup_time`` is kept beside the record, not in it: a record
        line, and so every digest, is the same whatever it holds.
        """
        verdict = (action, rule_text, rule_origin, delegated, delegation_functions, cached, note)
        verdict_id = self._verdict_ids.get(verdict)
        if verdict_id is None:
            verdict_id = self._verdict_ids[verdict] = len(self._verdicts)
            self._verdicts.append(verdict)
        prefix, dash, digits = cookie.rpartition("-")
        if (
            dash and digits.isdigit() and digits.isascii()
            and len(digits) <= _MAX_COOKIE_DIGITS and (digits[0] != "0" or digits == "0")
        ):
            prefix_id = self._prefix_ids.get(prefix)
            if prefix_id is None:
                prefix_id = self._prefix_ids[prefix] = len(self._prefixes)
                self._prefixes.append(prefix)
            number = int(digits)
        else:
            prefix_id, number = 0, 0
            self._odd_cookies[len(self._time)] = cookie
        self._time.append(time)
        self._query_latency.append(query_latency)
        self._setup_time.append(setup_time)
        self._src_ip.append(flow.src_ip)
        self._dst_ip.append(flow.dst_ip)
        self._proto.append(flow.proto)
        self._src_port.append(flow.src_port)
        self._dst_port.append(flow.dst_port)
        self._verdict.append(verdict_id)
        self._cookie_prefix.append(prefix_id)
        self._cookie_number.append(number)
        self._src_keys.append(src_keys)
        self._dst_keys.append(dst_keys)

    def _row(self, index: int) -> DecisionRecord:
        """Build the record of row ``index`` (``0 <= index < len(self)``)."""
        action, rule_text, rule_origin, delegated, functions, cached, note = (
            self._verdicts[self._verdict[index]]
        )
        prefix = self._cookie_prefix[index]
        if prefix:
            cookie = f"{self._prefixes[prefix]}-{self._cookie_number[index]}"
        else:
            cookie = self._odd_cookies[index]
        flow = FlowSpec(
            IPv4Address(self._src_ip[index]), IPv4Address(self._dst_ip[index]),
            self._proto[index], self._src_port[index], self._dst_port[index],
        )
        return DecisionRecord(
            self._time[index], flow, action, rule_text, rule_origin, cookie,
            delegated, functions, self._src_keys[index], self._dst_keys[index],
            self._query_latency[index], cached, note,
        )

    def __len__(self) -> int:
        return len(self._time)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return iter(_Records(self, len(self)))

    def __reversed__(self) -> Iterator[DecisionRecord]:
        """Walk newest-first: a scan that stops at a window edge or a first
        match builds what it visits, not the length of the log."""
        return reversed(_Records(self, len(self)))

    def records(self) -> Sequence[DecisionRecord]:
        """Return every record so far, in order: a sequence whose length is
        fixed now and whose records are built as they are read."""
        return _Records(self, len(self))

    def delegated_decisions(self) -> list[DecisionRecord]:
        """Return decisions that honoured delegated (allowed()/verify()) rules."""
        wanted = {
            verdict_id for verdict_id, verdict in enumerate(self._verdicts)
            if verdict[_DELEGATED]
        }
        return [
            self._row(index)
            for index, verdict_id in enumerate(self._verdict) if verdict_id in wanted
        ]

    def _count(self, test: Callable[[tuple], bool]) -> int:
        """Return how many rows have a verdict shape that passes ``test``."""
        verdicts = self._verdicts
        return sum(
            count for verdict_id, count in Counter(self._verdict).items()
            if test(verdicts[verdict_id])
        )

    def summary(self) -> dict[str, int]:
        """Return how many decisions the log holds, and how many came from the cache."""
        return {
            "total": len(self),
            "cached": self._count(lambda verdict: bool(verdict[_CACHED])),
        }


class SetupTimes:
    """The setup times of a log's timed rows, read in place.

    ``controller.flow_setup_latency``: every row that punted and was
    decided — a fresh decision or a policy-error fail-close — and no
    cache hit or deadline fail-close (their rows hold :data:`UNTIMED`).
    """

    __slots__ = ("_log",)

    def __init__(self, log: AuditLog) -> None:
        self._log = log

    def _timed(self) -> list[float]:
        return [value for value in self._log._setup_time if not math.isnan(value)]

    @property
    def mean(self) -> float:
        """Return the mean setup time (0.0 when nothing was timed)."""
        timed = self._timed()
        if not timed:
            return 0.0
        # A running total in row order: 3.12's ``sum`` compensates, and
        # would move the last bit between interpreters.
        return functools.reduce(operator.add, timed, 0.0) / len(timed)

    def samples(self) -> list[float]:
        """Return the setup times, sorted."""
        return sorted(self._timed())


class _Records(Sequence):
    """The first ``length`` records of a log, each built when it is read."""

    __slots__ = ("_log", "_length")

    def __init__(self, log: AuditLog, length: int) -> None:
        self._log = log
        self._length = length

    def __len__(self) -> int:
        return self._length

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self._log._row(row) for row in range(*index.indices(self._length))]
        row = operator.index(index)
        if row < 0:
            row += self._length
        if not 0 <= row < self._length:
            raise IndexError("audit record index out of range")
        return self._log._row(row)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return map(self._log._row, range(self._length))

    def __reversed__(self) -> Iterator[DecisionRecord]:
        return map(self._log._row, range(self._length - 1, -1, -1))


_record_time = operator.attrgetter("time")


class AuditTrail:
    """Several controllers' logs read as one trail, in time order.

    What sorting the logs' records by time, stably, would give — a tie
    goes to the earlier log — as a merge that builds each record once
    and holds none: every log is already in time order.  Each walk reads
    the logs afresh.
    """

    __slots__ = ("_logs",)

    def __init__(self, logs: Iterable[AuditLog]) -> None:
        self._logs = tuple(logs)

    def __iter__(self) -> Iterator[DecisionRecord]:
        return heapq.merge(*self._logs, key=_record_time)

    def __reversed__(self) -> Iterator[DecisionRecord]:
        # ``heapq.merge`` yields a tie from the earlier iterable, so the
        # newest-first walk goes through the logs last-first.
        return heapq.merge(
            *(reversed(log) for log in reversed(self._logs)), key=_record_time, reverse=True
        )
