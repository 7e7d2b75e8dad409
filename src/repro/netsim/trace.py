"""Packet traces.

A :class:`PacketTrace` is the simulator's equivalent of a pcap capture:
nodes and links can append :class:`TraceRecord` entries, and tests /
benchmarks filter the trace to check, for example, that no disallowed
flow ever crossed a given link (the §5 security matrix does exactly
that).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, NamedTuple, Optional

from repro.netsim.packet import Packet


class TraceRecord(NamedTuple):
    """One observed packet (immutable; a tuple, so a record costs one
    small allocation on the per-hop path that appends two of them).

    Attributes:
        time: Simulated time of the observation.
        where: Name of the node, port or link that observed the packet.
        event: What happened (``"tx"``, ``"rx"``, ``"drop"``, ``"forward"``,
            ``"punt"``...).  Free-form but lowercase by convention.
        packet: The observed packet.
        note: Optional human-readable annotation.
    """

    time: float
    where: str
    event: str
    packet: Packet
    note: str = ""


@dataclass
class PacketTrace:
    """An append-only list of :class:`TraceRecord` entries."""

    name: str = "trace"
    records: list[TraceRecord] = field(default_factory=list)
    enabled: bool = True

    def record(
        self,
        time: float,
        where: str,
        event: str,
        packet: Packet,
        note: str = "",
    ) -> None:
        """Append one record (no-op when the trace is disabled)."""
        if not self.enabled:
            return
        self.records.append(TraceRecord(time, where, event, packet, note))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def filter(
        self,
        *,
        where: Optional[str] = None,
        event: Optional[str] = None,
        predicate: Optional[Callable[[TraceRecord], bool]] = None,
    ) -> list[TraceRecord]:
        """Return the records matching all provided criteria."""
        selected: Iterable[TraceRecord] = self.records
        if where is not None:
            selected = (r for r in selected if r.where == where)
        if event is not None:
            selected = (r for r in selected if r.event == event)
        if predicate is not None:
            selected = (r for r in selected if predicate(r))
        return list(selected)

    def flows_seen(self) -> set[tuple]:
        """Return the set of distinct 5-tuples observed anywhere in the trace."""
        return {record.packet.five_tuple() for record in self.records if record.packet.is_ip()}

    def bytes_observed(self, *, where: Optional[str] = None, event: Optional[str] = None) -> int:
        """Return the total wire bytes of matching records."""
        return sum(record.packet.wire_size() for record in self.filter(where=where, event=event))

    def clear(self) -> None:
        """Discard all records."""
        self.records.clear()

    def summary(self) -> dict[str, int]:
        """Return a per-event record count."""
        counts: dict[str, int] = {}
        for record in self.records:
            counts[record.event] = counts.get(record.event, 0) + 1
        return counts
