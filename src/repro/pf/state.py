"""The ``keep state`` state table.

In PF, a ``pass ... keep state`` rule creates a state entry when it
matches, and subsequent packets of the flow (in either direction) are
handled by the state table without re-evaluating rules.  In the ident++
controller the state table is additionally what drives proactive
flow-entry installation: once a flow is approved with ``keep state``,
the reverse direction is approved too.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

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
        else:
            entry.last_seen = now
        return entry

    def match(self, flow: FlowSpec, now: float = 0.0) -> Optional[StateEntry]:
        """Return the entry covering ``flow`` (either direction); an idle one is dropped."""
        entry = self._entries.get(flow) or self._entries.get(flow.reversed())
        if entry is None:
            return None
        if self.timeout and now - entry.last_seen > self.timeout:
            del self._entries[entry.flow]
            return None
        entry.record(now)
        return entry

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, flow: FlowSpec) -> bool:
        return flow in self._entries or flow.reversed() in self._entries
