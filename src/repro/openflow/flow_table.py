"""Priority flow tables with timeouts and counters.

"The flow table in an OpenFlow switch maps from the 10-tuple definition
of a flow to an action to be taken on packets belonging to that flow"
(§3.1).  Decisions made by the controller are *cached* here, so the flow
table is also the ident++ decision cache whose effectiveness experiment
E11 measures.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter, itemgetter
from typing import Callable, Iterator, Optional, Sequence

from repro.exceptions import FlowTableError
from repro.netsim.events import ExpiryHeap
from repro.netsim.packet import Packet
from repro.openflow.actions import Action
from repro.openflow.match import Match

#: Default priority for controller-installed entries.
DEFAULT_PRIORITY = 100


@dataclass
class FlowEntry:
    """One cached forwarding/drop decision.

    Attributes:
        match: The 10-tuple match (possibly wildcarded).
        actions: Actions applied to matching packets; empty means drop.
        priority: Higher priorities win; ties break on match specificity
            then insertion order.
        idle_timeout: Seconds of inactivity after which the entry expires
            (0 disables idle expiry).
        hard_timeout: Seconds after installation at which the entry
            expires unconditionally (0 disables hard expiry).
        cookie: Opaque controller-chosen identifier, used by the ident++
            controller to tie entries back to policy decisions for audit
            and revocation.
    """

    match: Match
    actions: tuple[Action, ...] = ()
    priority: int = DEFAULT_PRIORITY
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: str = ""
    installed_at: float = 0.0
    last_used_at: float = 0.0
    packet_count: int = 0
    sequence: int = field(default=0, compare=False)

    def __post_init__(self) -> None:
        if not isinstance(self.actions, tuple):
            self.actions = tuple(self.actions)
        if self.idle_timeout < 0 or self.hard_timeout < 0:
            raise FlowTableError("timeouts must be non-negative")

    def record_use(self, now: float) -> None:
        """Count a packet that hit this entry and refresh its idle timer."""
        self.packet_count += 1
        self.last_used_at = now

    def is_expired(self, now: float) -> bool:
        """Return ``True`` if either timeout has elapsed.

        :meth:`FlowTable.lookup` repeats this test inline for a cached hit.
        """
        if self.hard_timeout and now - self.installed_at >= self.hard_timeout:
            return True
        if self.idle_timeout and now - self.last_used_at >= self.idle_timeout:
            return True
        return False

    def __str__(self) -> str:
        from repro.openflow.actions import describe_actions

        return (
            f"FlowEntry(prio={self.priority}, {self.match}, "
            f"actions=[{describe_actions(self.actions)}], pkts={self.packet_count})"
        )


#: ``now * _AHEAD + _AHEAD_MARGIN`` lies past ``now``'s second float up for
#: every ``now >= 0`` (1e-12 relative is thousands of rounding steps), so
#: a ``now`` below ``(deadline - _AHEAD_MARGIN) / _AHEAD`` is certainly
#: short of reaching ``deadline`` with :meth:`FlowTable.expire`'s horizon:
#: that bound is :attr:`FlowTable.expire_from`.
_AHEAD_MARGIN = 1e-12
_AHEAD = 1.0 + _AHEAD_MARGIN
#: What a non-IP frame carries in the protocol and port places of its header.
_NO_TRANSPORT = (None, None, None)
_installation_order = attrgetter("sequence")


def _masked_key_getter(shape: tuple[int, ...]) -> Callable[[tuple], object]:
    """Return ``values -> the values at the indexes in shape`` (hashable)."""
    return itemgetter(*shape) if shape else _no_fields


def _no_fields(_values: tuple) -> tuple:
    return ()


def _deadline(entry: FlowEntry) -> Optional[float]:
    """Return the earliest moment ``entry`` can expire (``None``: never)."""
    due: Optional[float] = None
    if entry.hard_timeout:
        due = entry.installed_at + entry.hard_timeout
    if entry.idle_timeout:
        idle_due = entry.last_used_at + entry.idle_timeout
        if due is None or idle_due < due:
            due = idle_due
    return due


class FlowTable:
    """The flow table of one switch.

    Every entry is held once, in ``_by_sequence`` (installation order),
    and found through indexes, so nothing a packet or a flow does costs
    a walk over the table:

    * ``_by_cookie`` maps a decision's cookie to the entries it
      installed: a cookie-scoped delete touches only its victims.
    * ``_shapes`` is a tuple-space search.  Entries whose match is plain
      equality are grouped by *shape* (which fields they constrain) and,
      within a shape, hashed on the values of those fields; a lookup
      masks the packet header once per live shape and probes.  A match
      on a CIDR prefix cannot be hashed on the packet's address; those
      wait in ``_prefixed``, keyed by the match itself, and a lookup
      tries each of them (few in every workload).  Either way a bucket
      holds the entries of one identical match, one per priority, so the
      same probe finds the entry an install must replace.
    * ``_deadlines`` holds one ``(deadline, sequence)`` record per live
      entry that carries a timeout, never later than the entry's real
      deadline, so :meth:`expire` looks only at entries that may be due.
      A record is a hint: :meth:`FlowEntry.is_expired` alone decides.
      :attr:`expire_from` is the earliest record's deadline less the
      rounding margin, so a packet's lazy expiry is one comparison until
      a record may be due.

    ``now`` follows the simulator clock and must not run backwards
    between calls (an idle deadline may only move later).
    """

    #: Exact-match cache entries kept before wholesale clearing; bounds the
    #: memory a long simulation with high flow churn can pin.
    EXACT_CACHE_LIMIT = 8192
    #: Dead deadline records tolerated beyond one per live record before
    #: the heap is rebuilt without them.
    STALE_DEADLINE_SLACK = 64

    def __init__(self, name: str = "flow-table", capacity: Optional[int] = None) -> None:
        self.name = name
        self.capacity = capacity
        #: Called with each entry evicted under capacity pressure.  The
        #: owning switch wires this to its FlowRemoved notifier so the
        #: controller's path unwinder hears about evictions exactly like
        #: timeouts (OpenFlow's OFPFF_SEND_FLOW_REM semantics).
        self.evict_listener: Optional[Callable[[FlowEntry], None]] = None
        self._sequence = 0
        # sequence -> entry; sequences only grow, so this is also the
        # table in installation order.
        self._by_sequence: dict[int, FlowEntry] = {}
        self._by_cookie: dict[str, dict[int, FlowEntry]] = {}
        # shape -> (masked-key getter, masked key -> bucket)
        self._shapes: dict[tuple[int, ...], tuple[Callable[[tuple], object], dict]] = {}
        self._prefixed: dict[Match, list[FlowEntry]] = {}
        # (deadline, sequence) records with the deadline repeated as the
        # token, so a record can be told from its entry's current one.
        self._deadlines = ExpiryHeap()
        #: :meth:`expire` has nothing to do before this instant; a caller
        #: that ages the table per packet tests ``now >= expire_from``
        #: before calling it.
        self.expire_from = math.inf
        self._expirable = 0
        # header-tuple -> best entry from a previous search; valid until
        # the table is modified (any install/remove/evict/expiry clears it).
        self._exact_cache: dict[tuple, FlowEntry] = {}
        self.lookups = 0
        self.hits = 0
        self.misses = 0
        self.exact_hits = 0
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
        for existing in self._bucket(entry.match):
            if existing.priority == entry.priority:
                if not replace:
                    raise FlowTableError(f"duplicate flow entry: {entry.match}")
                self._unlink(existing)
                break
        if self.capacity is not None and len(self._by_sequence) >= self.capacity:
            self._evict_lru()
        self._exact_cache.clear()
        self._sequence += 1
        entry.sequence = self._sequence
        entry.installed_at = now
        entry.last_used_at = now
        self._link(entry)
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

        Only the covering delete without a cookie has to search: it tests
        one match per bucket of every shape that constrains at least the
        fields ``match`` does.
        """
        if cookie is not None:
            scoped = self._by_cookie.get(cookie, {}).values()
            if strict:
                victims = [e for e in scoped if e.match == match]
            elif match.shape:
                victims = [e for e in scoped if match.covers(e.match)]
            else:
                victims = list(scoped)
        elif strict:
            victims = list(self._bucket(match))
        else:
            victims = self._covered_by(match)
        if victims:
            self._discard(victims)
        return len(victims)

    def remove_by_cookie(self, cookie: str) -> int:
        """Remove every entry with the given cookie (used for policy revocation)."""
        victims = list(self._by_cookie.get(cookie, {}).values())
        if victims:
            self._discard(victims)
        return len(victims)

    def clear(self) -> None:
        """Remove all entries."""
        self._by_sequence.clear()
        self._by_cookie.clear()
        self._shapes.clear()
        self._prefixed.clear()
        self._deadlines.clear()
        self.expire_from = math.inf
        self._expirable = 0
        self._exact_cache.clear()

    def _link(self, entry: FlowEntry) -> None:
        """File a freshly sequenced entry under every index."""
        sequence, match = entry.sequence, entry.match
        self._by_sequence[sequence] = entry
        scoped = self._by_cookie.get(entry.cookie)
        if scoped is None:
            scoped = self._by_cookie[entry.cookie] = {}
        scoped[sequence] = entry
        buckets, key = self._home(match, create=True)
        bucket = buckets.get(key)
        if bucket is None:
            buckets[key] = [entry]
        else:
            bucket.append(entry)
        due = _deadline(entry)
        if due is not None:
            self._expirable += 1
            self._deadlines.push(due, sequence, due)
            if len(self._deadlines) > 2 * self._expirable + self.STALE_DEADLINE_SLACK:
                self._deadlines.retain(lambda sequence, _due: sequence in self._by_sequence)
            self._track_earliest()

    def _unlink(self, entry: FlowEntry) -> None:
        """Take ``entry`` (this object, not an equal one) out of every index.

        Its deadline record stays behind and is skipped once it surfaces:
        no later entry can carry the same sequence.
        """
        sequence, match = entry.sequence, entry.match
        del self._by_sequence[sequence]
        scoped = self._by_cookie[entry.cookie]
        del scoped[sequence]
        if not scoped:
            del self._by_cookie[entry.cookie]
        buckets, key = self._home(match)
        bucket = buckets.pop(key)
        if len(bucket) > 1:
            buckets[key] = [e for e in bucket if e is not entry]
        elif not buckets and not match.has_prefix:
            del self._shapes[match.shape]
        if entry.idle_timeout or entry.hard_timeout:
            self._expirable -= 1

    def _discard(self, victims: Sequence[FlowEntry]) -> None:
        """Drop ``victims`` from the table, keeping every index in sync."""
        for entry in victims:
            self._unlink(entry)
        self._exact_cache.clear()

    def _home(self, match: Match, *, create: bool = False) -> tuple[dict, object]:
        """Return the mapping that holds ``match``'s bucket, and its key there."""
        if match.has_prefix:
            return self._prefixed, match
        shape = self._shapes.get(match.shape)
        if shape is None:
            if not create:
                return {}, None  # no entry has this shape: nowhere
            shape = self._shapes[match.shape] = (_masked_key_getter(match.shape), {})
        key_of, buckets = shape
        return buckets, key_of(match.field_values)

    def _bucket(self, match: Match) -> Sequence[FlowEntry]:
        """Return the entries whose match equals ``match`` (one per priority)."""
        buckets, key = self._home(match)
        return buckets.get(key, ())

    def _covered_by(self, match: Match) -> list[FlowEntry]:
        """Return the entries whose match is covered by ``match``."""
        if not match.shape:
            return list(self._by_sequence.values())
        victims: list[FlowEntry] = []
        for prefixed, bucket in self._prefixed.items():
            if match.covers(prefixed):
                victims += bucket
        constrained = set(match.shape)
        for shape, (_, buckets) in self._shapes.items():
            # An entry wildcarding a field ``match`` constrains matches
            # packets ``match`` does not, so its whole shape is skipped.
            if constrained.issubset(shape):
                for bucket in buckets.values():
                    if match.covers(bucket[0].match):
                        victims += bucket
        return victims

    def _evict_lru(self) -> None:
        if not self._by_sequence:
            return
        victim = min(self._by_sequence.values(), key=lambda e: (e.last_used_at, e.sequence))
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

        An exact-match hash cache short-circuits the search for repeat
        packets of the same flow: the winning entry of a previous search
        is keyed on the packet's full header tuple and stays valid until
        the table is modified (every mutation clears the cache), so the
        fast path can never disagree with the search.
        """
        self.lookups += 1
        # In MATCH_FIELDS order, so a shape's getter masks it like a match.
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
            # FlowEntry.is_expired and record_use, inline: the repeat packet
            # of a flow is the one hot path of a switch.
            hard, idle = cached.hard_timeout, cached.idle_timeout
            if not (hard and now - cached.installed_at >= hard) and not (
                idle and now - cached.last_used_at >= idle
            ):
                self.exact_hits += 1
                self.hits += 1
                cached.packet_count += 1
                cached.last_used_at = now
                return cached
            # The cached winner expired; search again (a lower-ranked
            # entry may now be the best match).
            del self._exact_cache[packet_key]
        # Match.matches refuses a constrained protocol or port on a non-IP
        # frame whatever the frame carries there; no constrained field is
        # None, so None in those places refuses the same entries.
        header = packet_key if packet.is_ip() else packet_key[:7] + _NO_TRANSPORT
        candidates: list[FlowEntry] = []
        for key_of, buckets in self._shapes.values():
            bucket = buckets.get(key_of(header))
            if bucket is not None:
                candidates += bucket
        for prefixed, bucket in self._prefixed.items():
            if prefixed.matches(packet, in_port):
                candidates += bucket
        best: Optional[FlowEntry] = None
        best_rank = None
        for entry in candidates:
            if entry.is_expired(now):
                continue
            rank = (entry.priority, len(entry.match.shape), -entry.sequence)
            if best_rank is None or rank > best_rank:
                best = entry
                best_rank = rank
        if best is None:
            self.misses += 1
            return None
        self.hits += 1
        best.record_use(now)
        if len(self._exact_cache) >= self.EXACT_CACHE_LIMIT:
            self._exact_cache.clear()
        self._exact_cache[packet_key] = best
        return best

    def expire(self, now: float) -> list[FlowEntry]:
        """Remove and return entries whose timeouts have elapsed, oldest first."""
        if now < self.expire_from:
            return []
        deadlines = self._deadlines
        # is_expired subtracts where a deadline adds, so the two can
        # disagree by a rounding step: draw candidates two floats wide.
        horizon = math.nextafter(math.nextafter(now, math.inf), math.inf)
        if deadlines.next_due() > horizon:
            return []
        expired: list[FlowEntry] = []
        alive: list[FlowEntry] = []
        for sequence, _ in deadlines.pop_due(horizon):
            entry = self._by_sequence.get(sequence)
            if entry is not None:
                (expired if entry.is_expired(now) else alive).append(entry)
        for entry in alive:
            # Traffic refreshed the idle timer (or rounding spared it).
            due = _deadline(entry)
            deadlines.push(due, entry.sequence, due)
        self._track_earliest()
        if expired:
            expired.sort(key=_installation_order)
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
                self._by_sequence.values(),
                key=lambda e: (-e.priority, -e.match.specificity(), e.sequence),
            )
        )

    def find(self, predicate: Callable[[FlowEntry], bool]) -> list[FlowEntry]:
        """Return entries satisfying ``predicate``."""
        return [entry for entry in self._by_sequence.values() if predicate(entry)]

    def expirable_count(self) -> int:
        """Return how many entries carry a timeout a future sweep could reclaim."""
        return self._expirable

    def next_deadline(self) -> Optional[float]:
        """Return the earliest moment any entry can expire (``None`` when none can).

        Idle deadlines are computed from the current ``last_used_at``, so
        traffic that keeps refreshing an entry makes this a lower bound —
        exactly what a sweep scheduler needs (waking early is a no-op).
        """
        due = self._deadlines.next_due(self._settle_deadline)
        self._track_earliest()
        return due

    def _track_earliest(self) -> None:
        """Set :attr:`expire_from` from the earliest deadline record."""
        due = self._deadlines.next_due()
        self.expire_from = math.inf if due is None else (due - _AHEAD_MARGIN) / _AHEAD

    def _settle_deadline(self, sequence: int, due: float) -> bool:
        """Tell ``next_due`` whether a record is its entry's current deadline.

        A record traffic has since outdated is re-filed under the entry's
        current (later) deadline before ``next_due`` drops it, so the
        answer is exact and the entry keeps exactly one record.
        """
        entry = self._by_sequence.get(sequence)
        if entry is None:
            return False
        current = _deadline(entry)
        if current <= due:
            return True
        self._deadlines.push(current, sequence, current)
        return False

    def hit_rate(self) -> float:
        """Return hits / lookups (0.0 when no lookups happened)."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def stats(self) -> dict[str, float]:
        """Return a summary dictionary used by benchmark E11."""
        return {
            "entries": float(len(self._by_sequence)),
            "lookups": float(self.lookups),
            "hits": float(self.hits),
            "misses": float(self.misses),
            "hit_rate": self.hit_rate(),
            "exact_hits": float(self.exact_hits),
            "evictions": float(self.evictions),
            "expirations": float(self.expirations),
        }

    def __len__(self) -> int:
        return len(self._by_sequence)

    def __contains__(self, match: Match) -> bool:
        return isinstance(match, Match) and bool(self._bucket(match))


def make_entry(
    match: Match,
    actions: Sequence[Action],
    *,
    priority: int = DEFAULT_PRIORITY,
    idle_timeout: float = 0.0,
    hard_timeout: float = 0.0,
    cookie: str = "",
) -> FlowEntry:
    """Convenience constructor mirroring the FlowMod message fields."""
    return FlowEntry(
        match=match,
        actions=tuple(actions),
        priority=priority,
        idle_timeout=idle_timeout,
        hard_timeout=hard_timeout,
        cookie=cookie,
    )
