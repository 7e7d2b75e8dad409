"""Controller-side decision cache.

Switch flow tables already cache decisions in the datapath (§3.1); the
controller additionally keeps its own cache so that

* a second switch on the same path punting the same flow (before its
  entry arrives) does not trigger a second round of ident++ queries, and
* the reverse direction of a ``keep state`` flow is approved without
  re-querying.

Entries carry the decision's cookie so revocation can drop exactly the
affected cache lines.

The cache's lifetime story is explicit: TTL-expired entries are evicted
lazily on lookup *and* eagerly by :meth:`DecisionCache.expire` (driven
by the :class:`~repro.core.lifecycle.LifecycleService` through an
:class:`~repro.netsim.events.ExpiryHeap`, so a sweep costs
``O(expired log n)`` rather than a scan).  The TTL is the cache's only
bound: ``store`` drains due records itself, so under any flow churn the
cache holds at most the decisions of one TTL window (a zero TTL keeps
entries until they are invalidated).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.identpp.flowspec import FlowSpec
from repro.netsim.events import ExpiryHeap

#: Default lifetime of a cached controller decision, in seconds.
DEFAULT_DECISION_TTL = 60.0


@dataclass
class CachedDecision:
    """One cached allow/deny decision."""

    flow: FlowSpec
    action: str
    cookie: str
    decided_at: float
    keep_state: bool = False
    rule_text: str = ""

    @property
    def is_pass(self) -> bool:
        """Return ``True`` for allow decisions."""
        return self.action == "pass"


class DecisionCache:
    """Flow → decision cache bounded by its TTL; a ``keep state`` pass
    covers its reverse direction."""

    def __init__(self, *, ttl: float = DEFAULT_DECISION_TTL) -> None:
        self.ttl = ttl
        self._decisions: dict[FlowSpec, CachedDecision] = {}
        # How many cached entries can cover reverse traffic (keep state
        # passes); while zero, misses skip building the reversed FlowSpec.
        self._reverse_candidates = 0
        # cookie -> flows carrying it, so revocation is O(affected flows)
        # instead of a scan over the whole cache.
        self._by_cookie: dict[str, set[FlowSpec]] = {}
        # (decided_at + ttl, flow, cookie) deadlines; stale records are
        # skipped at pop time by re-checking the live entry's cookie.
        self._expiry = ExpiryHeap()
        self.hits = 0
        self.misses = 0
        self.expirations = 0

    def store(
        self,
        flow: FlowSpec,
        action: str,
        cookie: str,
        now: float,
        *,
        keep_state: bool = False,
        rule_text: str = "",
    ) -> CachedDecision:
        """Cache a decision (a ``keep state`` pass also answers the reverse flow)."""
        decision = CachedDecision(flow, action, cookie, now, keep_state, rule_text)
        previous = self._decisions.pop(flow, None)
        if previous is not None:
            self._drop_entry_bookkeeping(previous)
        self._decisions[flow] = decision
        self._by_cookie.setdefault(cookie, set()).add(flow)
        if self.ttl:
            # Drain due/stale heap records opportunistically so the heap
            # stays bounded by the TTL window even when nothing ever
            # calls expire() (lifecycle sweeps disabled).  Runs before
            # the push, so the fresh record cannot be considered.
            expiry = self._expiry
            if expiry and expiry[0][0] <= now:
                self.expire(now)
            expiry.push(now + self.ttl, flow, cookie)
        if keep_state and action == "pass":
            self._reverse_candidates += 1
        return decision

    def lookup(self, flow: FlowSpec, now: float) -> Optional[CachedDecision]:
        """Return the cached decision covering ``flow``, if still valid.

        A ``keep state`` pass decision also covers the reverse direction
        of the flow.  TTL-expired entries found on the way are evicted
        immediately (with their cookie-index and reverse-candidate
        bookkeeping unwound) rather than left to rot.
        """
        decision = self._decisions.get(flow)
        if decision is not None:
            if self._fresh(decision, now):
                return self._hit(decision)
            self._expire_entry(flow, decision)
        # Reverse direction of an established (keep state) flow.  Building
        # the reversed FlowSpec costs an allocation, so skip it entirely
        # while no keep-state pass entry exists.
        if self._reverse_candidates:
            reverse_flow = flow.reversed()
            reverse = self._decisions.get(reverse_flow)
            if reverse is not None and not self._fresh(reverse, now):
                self._expire_entry(reverse_flow, reverse)
                reverse = None
            if reverse is not None and reverse.keep_state and reverse.is_pass:
                return self._hit(reverse)
        self.misses += 1
        return None

    def _fresh(self, decision: CachedDecision, now: float) -> bool:
        return not self.ttl or now - decision.decided_at <= self.ttl

    def _hit(self, decision: CachedDecision) -> CachedDecision:
        self.hits += 1
        return decision

    def cookies_for_host(self, host_ip) -> set[str]:
        """Return the cookies of cached decisions touching ``host_ip``.

        The quarantine path uses this to revoke every decision a
        compromised host is party to — as source *or* destination — in
        one pass; cookie-indexed revocation then does the per-flow work.
        """
        target = str(host_ip)
        return {
            decision.cookie
            for flow, decision in self._decisions.items()
            if str(flow.src_ip) == target or str(flow.dst_ip) == target
        }

    def invalidate_cookie(self, cookie: str) -> int:
        """Drop every cached decision carrying ``cookie``; returns the count.

        Uses the cookie index, so the cost is proportional to the number
        of affected flows, not the size of the cache.
        """
        victims = self._by_cookie.pop(cookie, None) or ()
        count = 0
        for flow in victims:
            decision = self._decisions.pop(flow, None)
            if decision is None:
                continue
            count += 1
            if decision.keep_state and decision.is_pass:
                self._reverse_candidates -= 1
        return count

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------

    def expire(self, now: float) -> int:
        """Evict every TTL-expired decision; returns how many were dropped.

        Driven by the deadline heap: each pop is validated against the
        live entry (same flow *and* cookie, still past its TTL) so stale
        heap records from refreshed entries are skipped harmlessly.
        """
        if not self.ttl:
            return 0
        dropped = 0
        for flow, cookie in self._expiry.pop_due(now):
            decision = self._decisions.get(flow)
            if decision is None or decision.cookie != cookie:
                continue  # refreshed, invalidated or already evicted
            if decision.decided_at + self.ttl > now:
                # Refreshed in place under the same cookie: the refreshing
                # store pushed a newer deadline, so dropping this record is
                # safe.  Strictly greater, not >=, or an entry whose
                # deadline falls exactly on a sweep instant would consume
                # its only record while still "fresh" and live forever.
                continue
            self._expire_entry(flow, decision)
            dropped += 1
        return dropped

    def expirable_count(self) -> int:
        """Return how many TTL deadlines are still pending.

        Counts heap records (an upper bound on live expirable entries:
        refreshed/invalidated entries leave stale records behind until
        their deadline passes).  Zero means no future sweep can reclaim
        anything, which is what lets the lifecycle service go quiet.
        """
        return len(self._expiry) if self.ttl else 0

    def next_expiry(self) -> Optional[float]:
        """Return the earliest pending TTL deadline (``None`` when idle).

        May be stale (a refreshed entry's old record), in which case the
        lifecycle sweep it schedules is simply a no-op.
        """
        return self._expiry.next_due() if self.ttl else None

    def _expire_entry(self, flow: FlowSpec, decision: CachedDecision) -> None:
        self._decisions.pop(flow, None)
        self._drop_entry_bookkeeping(decision)
        self.expirations += 1

    def _drop_entry_bookkeeping(self, decision: CachedDecision) -> None:
        """Unwind the counters/index for an entry leaving the cache."""
        if decision.keep_state and decision.is_pass:
            self._reverse_candidates -= 1
        flows = self._by_cookie.get(decision.cookie)
        if flows is not None:
            flows.discard(decision.flow)
            if not flows:
                del self._by_cookie[decision.cookie]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def stats(self) -> dict[str, float]:
        """Return the counts the benchmarks read."""
        return {"hits": float(self.hits), "misses": float(self.misses)}

    def __len__(self) -> int:
        return len(self._decisions)

    def __contains__(self, flow: FlowSpec) -> bool:
        return flow in self._decisions
