"""The linear flow table the indexed one replaced, kept as a test oracle.

This is ``repro.openflow.flow_table.FlowTable`` as it stood before the
table was indexed: every operation is a scan over one list in
installation order, which makes its behaviour easy to read off the code.
``tests/test_openflow_match_table.py`` drives it and the real table with
the same operations and requires the same answers.  It is not importable
from ``src/`` and nothing outside the tests may use it.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional, Sequence

from repro.exceptions import FlowTableError
from repro.netsim.packet import Packet
from repro.openflow.flow_table import FlowEntry
from repro.openflow.match import Match



def make_entry(match: Match, actions: Sequence, **fields) -> FlowEntry:
    """A flow entry with ``actions`` as a tuple, the FlowMod fields as keywords."""
    return FlowEntry(match=match, actions=tuple(actions), **fields)

class ReferenceFlowTable:
    """The flow table of one switch, as one python list scanned per operation."""

    #: Exact-match cache entries kept before wholesale clearing; bounds the
    #: memory a long simulation with high flow churn can pin.
    EXACT_CACHE_LIMIT = 8192

    def __init__(self, name: str = "flow-table", capacity: Optional[int] = None) -> None:
        self.name = name
        self.capacity = capacity
        #: Called with each entry evicted under capacity pressure.  The
        #: owning switch wires this to its FlowRemoved notifier so the
        #: controller's path unwinder hears about evictions exactly like
        #: timeouts (OpenFlow's OFPFF_SEND_FLOW_REM semantics).
        self.evict_listener: Optional[Callable[[FlowEntry], None]] = None
        self._entries: list[FlowEntry] = []
        self._sequence = 0
        # header-tuple -> best entry from a previous full scan; valid until
        # the table is modified (any install/remove/evict/expiry clears it).
        self._exact_cache: dict[tuple, FlowEntry] = {}
        # (match, priority) -> entry, so installs replace duplicates in
        # O(1) instead of scanning the table (install() keeps the pair
        # unique, so the index can never alias two live entries).
        self._same_index: dict[tuple[Match, int], FlowEntry] = {}
        self.lookups = 0
        self.hits = 0
        self.evictions = 0
        self.expirations = 0

    # ------------------------------------------------------------------
    # Modification
    # ------------------------------------------------------------------

    def install(self, entry: FlowEntry, now: float = 0.0, *, replace: bool = True) -> FlowEntry:
        """Install a flow entry.

        When ``replace`` is true an existing entry with an identical match
        and priority is overwritten (OpenFlow ``OFPFC_MODIFY`` semantics);
        otherwise a duplicate raises :class:`FlowTableError`.

        If the table has a capacity limit and is full, the least recently
        used entry is evicted.
        """
        existing = self._find_same(entry.match, entry.priority)
        if existing is not None:
            if not replace:
                raise FlowTableError(f"duplicate flow entry: {entry.match}")
            self._entries.remove(existing)
        if self.capacity is not None and len(self._entries) >= self.capacity:
            self._evict_lru()
        self._exact_cache.clear()
        self._sequence += 1
        entry.sequence = self._sequence
        entry.installed_at = now
        entry.last_used_at = now
        self._entries.append(entry)
        self._same_index[(entry.match, entry.priority)] = entry
        return entry

    def remove(
        self, match: Match, *, strict: bool = False, cookie: Optional[str] = None
    ) -> int:
        """Remove entries matching ``match``.

        With ``strict`` only an entry with an identical match is removed;
        otherwise every entry whose match is covered by ``match`` is
        removed (OpenFlow delete semantics).  A non-``None`` ``cookie``
        additionally restricts the delete to entries carrying it (the
        OpenFlow 1.1+ cookie filter the path unwinder uses).  Returns
        the number removed.
        """
        if strict:
            victims = [e for e in self._entries if e.match == match]
        else:
            victims = [e for e in self._entries if match.covers(e.match)]
        if cookie is not None:
            victims = [e for e in victims if e.cookie == cookie]
        if victims:
            self._discard(victims)
        return len(victims)

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every entry with the given cookie (used for policy revocation)."""
        victims = [e for e in self._entries if e.cookie == cookie]
        if victims:
            self._discard(victims)
        return len(victims)

    def _find_same(self, match: Match, priority: int) -> Optional[FlowEntry]:
        return self._same_index.get((match, priority))

    def _discard(self, victims: Sequence[FlowEntry]) -> None:
        """Drop ``victims`` from the table, keeping both indexes in sync."""
        gone = {id(e) for e in victims}
        self._entries = [e for e in self._entries if id(e) not in gone]
        for entry in victims:
            key = (entry.match, entry.priority)
            if self._same_index.get(key) is entry:
                del self._same_index[key]
        self._exact_cache.clear()

    def _evict_lru(self) -> None:
        if not self._entries:
            return
        victim = min(self._entries, key=lambda e: (e.last_used_at, e.sequence))
        self._discard([victim])
        self.evictions += 1
        if self.evict_listener is not None:
            self.evict_listener(victim)

    # ------------------------------------------------------------------
    # Lookup and expiry
    # ------------------------------------------------------------------

    def lookup(self, packet: Packet, in_port: Optional[int] = None, now: float = 0.0) -> Optional[FlowEntry]:
        """Return the best matching entry for a packet, updating its counters.

        "Best" is highest priority, then most specific match, then oldest
        installation, which mirrors hardware behaviour closely enough for
        the experiments.  Returns ``None`` on a table miss.

        An exact-match hash cache short-circuits the priority scan for
        repeat packets of the same flow: the winning entry of a previous
        scan is keyed on the packet's full header tuple and stays valid
        until the table is modified (every mutation clears the cache), so
        the fast path can never disagree with the scan.
        """
        self.lookups += 1
        packet_key = (
            in_port,
            packet.eth_src,
            packet.eth_dst,
            packet.eth_type,
            packet.vlan_id,
            packet.ip_src,
            packet.ip_dst,
            packet.ip_proto,
            packet.tp_src,
            packet.tp_dst,
        )
        cached = self._exact_cache.get(packet_key)
        if cached is not None:
            if not cached.is_expired(now):
                self.hits += 1
                cached.last_used_at = now
                return cached
            # The cached winner expired; rescan (a lower-ranked entry may
            # now be the best match).
            del self._exact_cache[packet_key]
        best: Optional[FlowEntry] = None
        best_key = None
        for entry in self._entries:
            if entry.is_expired(now):
                continue
            if not entry.match.matches(packet, in_port):
                continue
            key = (entry.priority, entry.match.specificity(), -entry.sequence)
            if best_key is None or key > best_key:
                best = entry
                best_key = key
        if best is None:
            return None
        self.hits += 1
        best.last_used_at = now
        if len(self._exact_cache) >= self.EXACT_CACHE_LIMIT:
            self._exact_cache.clear()
        self._exact_cache[packet_key] = best
        return best

    def expire(self, now: float) -> list[FlowEntry]:
        """Remove and return entries whose timeouts have elapsed."""
        expired = [e for e in self._entries if e.is_expired(now)]
        if expired:
            self._discard(expired)
            self.expirations += len(expired)
        return expired

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def entries(self) -> Iterator[FlowEntry]:
        """Iterate over entries in priority (then recency) order."""
        return iter(
            sorted(
                self._entries,
                key=lambda e: (-e.priority, -e.match.specificity(), e.sequence),
            )
        )

    def find(self, predicate: Callable[[FlowEntry], bool]) -> list[FlowEntry]:
        """Return entries satisfying ``predicate``."""
        return [entry for entry in self._entries if predicate(entry)]

    def expirable_count(self) -> int:
        """Return how many entries carry a timeout a future sweep could reclaim."""
        return sum(1 for e in self._entries if e.idle_timeout or e.hard_timeout)

    def next_deadline(self) -> Optional[float]:
        """Return the earliest moment any entry can expire (``None`` when none can).

        Idle deadlines are computed from the current ``last_used_at``, so
        traffic that keeps refreshing an entry makes this a lower bound —
        exactly what a sweep scheduler needs (waking early is a no-op).
        """
        earliest: Optional[float] = None
        for entry in self._entries:
            candidates = []
            if entry.hard_timeout:
                candidates.append(entry.installed_at + entry.hard_timeout)
            if entry.idle_timeout:
                candidates.append(entry.last_used_at + entry.idle_timeout)
            if not candidates:
                continue
            due = min(candidates)
            if earliest is None or due < earliest:
                earliest = due
        return earliest

    def hit_rate(self) -> float:
        """Return hits / lookups (0.0 when no lookups happened)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> dict[str, float]:
        """Return a summary dictionary used by benchmark E11."""
        return {
            "lookups": float(self.lookups),
            "hits": float(self.hits),
            "hit_rate": self.hit_rate(),
            "expirations": float(self.expirations),
        }

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, match: Match) -> bool:
        return any(entry.match == match for entry in self._entries)
