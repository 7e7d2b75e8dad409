"""The ``keep state`` state table.

In PF, a ``pass ... keep state`` rule creates a state entry when it
matches, and subsequent packets of the flow (in either direction) are
handled by the state table without re-evaluating rules.  In the ident++
controller the state table is additionally what drives proactive
flow-entry installation: once a flow is approved with ``keep state``,
the reverse direction is approved too.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.identpp.flowspec import FlowSpec

#: Default idle lifetime of a state entry, seconds.
DEFAULT_STATE_TIMEOUT = 300.0


@dataclass
class StateEntry:
    """One established flow."""

    flow: FlowSpec
    created_at: float = 0.0
    last_seen: float = 0.0
    rule_origin: str = ""
    cookie: str = ""
    packets: int = 0

    def record(self, now: float) -> None:
        """Record one packet of the flow."""
        self.packets += 1
        self.last_seen = now


class StateTable:
    """All established flows known to one policy enforcement point."""

    def __init__(self, *, timeout: float = DEFAULT_STATE_TIMEOUT) -> None:
        self.timeout = timeout
        self._entries: dict[FlowSpec, StateEntry] = {}
        self.insertions = 0
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def add(
        self,
        flow: FlowSpec,
        now: float = 0.0,
        *,
        rule_origin: str = "",
        cookie: str = "",
    ) -> StateEntry:
        """Create (or refresh) the state entry for ``flow``."""
        entry = self._entries.get(flow)
        if entry is None:
            entry = StateEntry(
                flow=flow, created_at=now, last_seen=now, rule_origin=rule_origin, cookie=cookie
            )
            self._entries[flow] = entry
            self.insertions += 1
        else:
            entry.last_seen = now
        return entry

    def match(self, flow: FlowSpec, now: float = 0.0) -> Optional[StateEntry]:
        """Return the entry covering ``flow`` (either direction), updating counters."""
        entry = self._entries.get(flow) or self._entries.get(flow.reversed())
        if entry is None:
            self.misses += 1
            return None
        if self.timeout and now - entry.last_seen > self.timeout:
            self.remove(entry.flow)
            self.expirations += 1
            self.misses += 1
            return None
        entry.record(now)
        self.hits += 1
        return entry

    def remove(self, flow: FlowSpec) -> bool:
        """Remove the entry for ``flow`` (exact direction).  Returns ``True`` if present."""
        return self._entries.pop(flow, None) is not None

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every entry carrying ``cookie`` (policy revocation).  Returns the count."""
        victims = [flow for flow, entry in self._entries.items() if entry.cookie == cookie]
        for flow in victims:
            del self._entries[flow]
        return len(victims)

    def expire(self, now: float) -> int:
        """Remove idle entries; returns how many were dropped."""
        if not self.timeout:
            return 0
        victims = [
            flow for flow, entry in self._entries.items() if now - entry.last_seen > self.timeout
        ]
        for flow in victims:
            del self._entries[flow]
        self.expirations += len(victims)
        return len(victims)

    def entries(self) -> Iterator[StateEntry]:
        """Iterate over current entries."""
        return iter(list(self._entries.values()))

    def expirable_count(self) -> int:
        """Return how many entries a future :meth:`expire` could reclaim."""
        return len(self._entries) if self.timeout else 0

    def next_deadline(self) -> Optional[float]:
        """Return when the least-recently-seen entry times out (``None`` when idle)."""
        if not self.timeout or not self._entries:
            return None
        return min(entry.last_seen for entry in self._entries.values()) + self.timeout

    def stats(self) -> dict[str, float]:
        """Return the table's counters (wired into controller summaries)."""
        return {
            "entries": float(len(self._entries)),
            "insertions": float(self.insertions),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "expirations": float(self.expirations),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, flow: FlowSpec) -> bool:
        return flow in self._entries or flow.reversed() in self._entries
