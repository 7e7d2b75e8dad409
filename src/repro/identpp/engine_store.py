"""The query engine's one answer store: entries, host index and deadlines.

:class:`AnswerStore` alone knows the layout: the entries by key, each
host's keys in fill order, the resident count and the
:class:`~repro.netsim.events.ExpiryHeap` of the other entries'
deadlines.  Pull versus push is the expiry policy an entry carries (a
TTL deadline or :data:`UNTIL_DELTA`), not a second table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional

from repro.identpp.client import QueryOutcome
from repro.netsim.events import ExpiryHeap

#: ``expires_at`` of an entry stored under the until-delta policy: a
#: subscribed host's resident answer has no deadline at all.
UNTIL_DELTA = float("inf")


@dataclass
class CacheEntry:
    """One cached endpoint answer (positive or negative).

    ``ready_at`` is when the underlying query completes: before it the
    entry is *in flight* (lookups coalesce onto it, charged the
    remaining wait), after it the entry is a plain cache hit until
    ``expires_at`` — a TTL deadline, or :data:`UNTIL_DELTA` for a
    subscribed host's *resident* answer, which only a pushed delta, a
    demotion, a failover export or quarantine's ``invalidate_host``
    ever removes.
    """

    key: tuple
    host_ip: str
    outcome: QueryOutcome
    ready_at: float
    expires_at: float
    negative: bool = False
    #: Flow-scoped entries answer only re-punts of the exact flow that
    #: filled them (source-side answers, and destination answers the
    #: daemon marked not shareable) — a different flow must query fresh.
    flow_scoped: bool = False
    #: Negative entries for *unreachable* hosts are keyed on the
    #: topology epoch: any connectivity change may have restored a path,
    #: so the entry must be re-proven.
    unreachable: bool = False
    topology_epoch: int = -1
    #: Continuations parked on an in-flight entry by the async query
    #: path: ``(future, prepared outcome)`` pairs completed together by
    #: one arrival event when the underlying answer lands at
    #: ``ready_at`` — N coalesced punts cost one event, not N timers.
    #: Non-empty exactly while that shared event is pending.
    waiters: list = field(default_factory=list)

    @property
    def resident(self) -> bool:
        """Return whether the entry is held until-delta rather than by TTL."""
        return self.expires_at == UNTIL_DELTA


class AnswerStore:
    """Every answer one engine holds; ``emptied(host_ip)`` hears a host's last entry leave."""

    def __init__(self, emptied: Callable[[str], None]) -> None:
        self._entries: dict[tuple, CacheEntry] = {}
        #: The entry under a key, or ``None``: the table's own
        #: ``dict.get``, so a lookup runs no frame of the store.
        self.get = self._entries.get
        # Host IP -> the keys of its entries, in fill order (a dict, not
        # a set: delta refreshes walk it, and their order reaches the
        # event stream).
        self._by_host: dict[str, dict[tuple, None]] = {}
        # How many entries are resident; the rest carry a deadline in
        # ``_expiry`` (pushed with the deadline itself as the token, so
        # a promoted, refreshed or replaced entry's old record is stale).
        self._until_delta = 0
        self._expiry = ExpiryHeap()
        self._emptied = emptied

    def put(self, entry: CacheEntry) -> CacheEntry:
        """The one insertion path; an entry under the same key is replaced."""
        replaced = self._entries.get(entry.key)
        if replaced is not None and replaced.expires_at == UNTIL_DELTA:
            self._until_delta -= 1
        self._entries[entry.key] = entry
        self._by_host.setdefault(entry.host_ip, {})[entry.key] = None
        if entry.expires_at == UNTIL_DELTA:
            self._until_delta += 1
        else:
            self._expiry.push(entry.expires_at, entry.key, entry.expires_at)
        return entry

    def discard(self, key: tuple) -> None:
        """The one removal path: expiry, invalidation, demotion and export.

        Removing a host's last entry reports the host to ``emptied``.
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if entry.expires_at == UNTIL_DELTA:
            self._until_delta -= 1
        keys = self._by_host[entry.host_ip]
        del keys[key]
        if not keys:
            del self._by_host[entry.host_ip]
            self._emptied(entry.host_ip)

    def drop(self, host_ip: str, resident: bool) -> int:
        """Remove one host's resident (or TTL) entries; return how many."""
        removed = 0
        for key in list(self._by_host.get(host_ip, ())):
            if (self._entries[key].expires_at == UNTIL_DELTA) == resident:
                self.discard(key)
                removed += 1
        return removed

    def holds(self, host_ip: str) -> bool:
        """Return whether any entry for the host is stored."""
        return host_ip in self._by_host

    def entries(self, host_ip: str) -> list[CacheEntry]:
        """Return one host's entries, in fill order."""
        entries = self._entries
        return [entries[key] for key in self._by_host.get(host_ip, ())]

    def promote(self, host_ip: str, now: float) -> None:
        """Make a newly subscribed host's live shareable answers resident in place.

        Any daemon event since their fill would have dropped them, so
        they are still authoritative (their old heap record goes stale).
        """
        for key in self._by_host.get(host_ip, ()):
            entry = self._entries[key]
            if not (entry.negative or entry.flow_scoped) and now < entry.expires_at < UNTIL_DELTA:
                entry.expires_at = UNTIL_DELTA
                self._until_delta += 1

    def sweep(self, now: float) -> int:
        """Remove the entries past their TTL; return how many.

        Costs ``O(expired log n)``: popped deadlines whose entry was
        already invalidated, promoted, refreshed or lookup-expired are
        skipped (lazy invalidation).
        """
        removed = 0
        for key, due in self._expiry.pop_due(now):
            if self._deadline_live(key, due):
                self.discard(key)
                removed += 1
        return removed

    def next_deadline(self) -> Optional[float]:
        """Return the earliest live entry deadline (lifecycle scheduling hook)."""
        return self._expiry.next_due(self._deadline_live)

    def _deadline_live(self, key: tuple, due: float) -> bool:
        """Return whether a heap record still names its entry's deadline."""
        entry = self._entries.get(key)
        return entry is not None and entry.expires_at == due

    def __len__(self) -> int:
        """Return how many entries carry a TTL deadline (resident ones excluded)."""
        return len(self._entries) - self._until_delta
