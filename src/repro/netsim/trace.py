"""Packet traces.

A :class:`PacketTrace` is the simulator's equivalent of a pcap capture,
and like one it is something you start: a :class:`Topology
<repro.netsim.topology.Topology>` builds its trace *not capturing*, so a
forwarded packet leaves nothing behind.  To follow packets through the
switches, turn the capture on before the traffic of interest and read it
afterwards::

    net.topology.trace.enabled = True
    net.send_flow(...)
    path = [(r.where, r.event) for r in net.topology.trace]

While capturing, every switch appends one :class:`TraceRecord` per
datapath step (``"hit"``, ``"forward"``, ``"punt"``, ``"drop"``), each
holding the packet itself.  The capture is a ring of
:data:`TRACE_CAPACITY` records: when it is full the oldest record is
evicted and :attr:`PacketTrace.dropped` counts it, so ``dropped == 0``
means the ring still reaches back to the start of the capture (or the
last :meth:`PacketTrace.clear`) — a check that needs the whole history
asserts exactly that.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple

from repro.netsim.packet import Packet

#: Records one capture retains (each pins its packet: about 200 B a
#: record on the forwarding workloads, so a full ring is ~13 MB).
TRACE_CAPACITY = 65_536


class TraceRecord(NamedTuple):
    """One observed packet (immutable; a tuple, so a record costs one
    small allocation on the per-hop path that appends two of them while
    a capture is on).

    Attributes:
        time: Simulated time of the observation.
        where: Name of the node, port or link that observed the packet.
        event: What happened (``"tx"``, ``"rx"``, ``"drop"``, ``"forward"``,
            ``"punt"``...).  Free-form but lowercase by convention.
        packet: The observed packet.
        note: Human-readable annotation (may be empty).
    """

    time: float
    where: str
    event: str
    packet: Packet
    note: str


#: ``TraceRecord(...)`` without the Python-level ``__new__`` a NamedTuple
#: call runs: a captured switch hop builds two records.
_new_record = tuple.__new__


@dataclass
class PacketTrace:
    """A ring of the newest :data:`TRACE_CAPACITY` :class:`TraceRecord` entries.

    ``enabled`` is the capture's only switch.  A trace constructed
    directly records from the start; the one a topology owns does not
    until someone sets ``enabled = True``.
    """

    name: str = "trace"
    records: deque[TraceRecord] = field(
        default_factory=lambda: deque(maxlen=TRACE_CAPACITY)
    )
    enabled: bool = True
    #: Records evicted by the ring bound since the capture began (or was
    #: last cleared) — non-zero means history was lost.
    dropped: int = 0

    def record(
        self,
        time: float,
        where: str,
        event: str,
        packet: Packet,
        note: str = "",
    ) -> None:
        """Append one record, evicting the oldest when the ring is full
        (no-op when the trace is disabled)."""
        if not self.enabled:
            return
        records = self.records
        if len(records) == records.maxlen:
            self.dropped += 1
        records.append(_new_record(TraceRecord, (time, where, event, packet, note)))

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[TraceRecord]:
        return iter(self.records)

    def clear(self) -> None:
        """Discard all records; the capture's history starts over."""
        self.records.clear()
        self.dropped = 0
