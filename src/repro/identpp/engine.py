"""The query engine: caching + coalescing layer over :class:`QueryClient`.

The paper's flow-setup cost is dominated by step 3 of §2: the
controller "requests additional information from both the source and
the destination end-hosts".  Issued naively that is two fresh
synchronous round-trips per punt, so a popular server's daemon is
re-interrogated once per flow and a daemon-less legacy host (§4,
"Incremental Benefit") burns a full query timeout on every connection
attempt.  :class:`QueryEngine` sits between the controller and its
:class:`~repro.identpp.client.QueryClient` and removes that redundancy
three ways:

* an **endpoint response cache** keyed on *(host, role)* plus
  the flow's proto and target-side port (the part of the 5-tuple the
  answering socket is matched on), with a TTL and explicit
  invalidation — a daemon publishing new runtime keys, loading
  configuration, being spoofed, its host being compromised, or its
  host's socket table changing owners all issue one serial-numbered
  :class:`~repro.identpp.wire.IdentDelta` to the listener the engine
  registered with :meth:`IdentPPDaemon.add_invalidation_listener`, so
  stale answers never outlive the event that staled them;
* **in-flight coalescing** — a cached entry whose answer has not
  "arrived" yet (its ``ready_at`` is still in the simulated future)
  represents an outstanding query; concurrent punts needing the same
  endpoint's answer share it, each charged only the *remaining* wait,
  instead of issuing N identical round-trips;
* a **negative cache** — a query that timed out (no daemon, or no path
  to the host) is remembered for ``ttl`` like any answer, so a legacy host
  costs one timeout per TTL instead of one per flow.  Negative entries
  self-heal: a daemon appearing on the host, or any topology mutation
  (for unreachable hosts), invalidates them on the next lookup.

Two correctness guards bound what the cache may share:

* **Interception is per-query.**  A query carrying on-path
  interceptors bypasses the cache entirely: an interceptor's decision
  to answer, decline or augment is made per flow (§3.4), so serving a
  warm entry would silently disable the interception mechanism and
  replay another flow's augmented sections.
* **Flow-scoped answers stay flow-scoped.**  Source-side answers, and
  any destination answer the daemon reports as not shareable
  (:meth:`IdentPPDaemon.answer_is_shareable`: flow-specific runtime
  pairs, or a connected per-connection worker socket), are served only
  to re-punts of the *same* flow — one flow's identity is never
  attributed to another.  Only a listener's flow-independent answer
  (the hot-server case) is shared across flows.

On the pull plane a TTL of ``0`` (the default wiring, so scenario
timelines are unchanged) turns the engine off: every call passes
straight through to the client.  ``ControllerConfig.query_cache_ttl``
opts in, and a push plane (:mod:`repro.identpp.engine_push`,
:attr:`QueryEngine.push_plane`, ``None`` on pull) turns the engine on
at any TTL.  The answers live in :attr:`QueryEngine.store`
(:mod:`repro.identpp.engine_store`).
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

from repro.identpp.client import (
    ANSWER_LABELS,
    BOTH_ANSWERS_LABEL,
    QueryClient,
    QueryInterceptor,
    QueryOutcome,
    per_role_interceptors,
)
from repro.identpp.engine_store import UNTIL_DELTA, AnswerStore, CacheEntry
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import (
    DAEMON_REPLACED,
    DEFAULT_QUERY_KEYS,
    IdentDelta,
    IdentQuery,
    ROLE_DESTINATION,
    ROLE_SOURCE,
)
from repro.netsim.events import Future


class QueryEngine:
    """Caching, coalescing front-end for one controller's ident++ queries."""

    def __init__(
        self,
        client: QueryClient,
        *,
        ttl: float = 0.0,
        name: str = "query-engine",
    ) -> None:
        self.client = client
        self.name = name
        #: Lifetime of a pulled answer — and of a remembered timeout.
        self.ttl = ttl
        #: The push identity plane, attached by constructing a
        #: :class:`~repro.identpp.engine_push.PushPlane`; ``None`` on pull.
        self.push_plane = None
        #: Whether the engine does more than pass through (a plane turns it on).
        self.enabled = ttl > 0.0
        #: The one answer store, pull and push alike; a host's last
        #: entry leaving it may release the host's daemon.
        self.store = AnswerStore(self._release_host)
        # Host IP → the daemon carrying ``_on_delta`` as a listener, hooked
        # exactly while the engine holds an entry or a subscription for it.
        self._daemons: dict[str, object] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.negative_hits = 0
        self.invalidated_entries = 0
        self.resident_hits = 0

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        flow: FlowSpec,
        role: str,
        *,
        from_node=None,
        interceptors: Sequence[QueryInterceptor] = (),
        now: Optional[float] = None,
    ) -> QueryOutcome:
        """Answer one endpoint query, from cache when possible.

        Same signature as :meth:`QueryClient.query` plus an optional
        explicit clock reading (defaults to the topology's simulator).
        Queries carrying interceptors bypass the cache: interception is
        a per-query decision (§3.4) a warm entry must not pre-empt.
        """
        if interceptors or not self.enabled:
            return self.client.query(flow, role, from_node=from_node, interceptors=interceptors)
        return self._lookup(flow, role, from_node, self.now() if now is None else now)[0]

    def query_async(
        self,
        flow: FlowSpec,
        role: str,
        *,
        from_node=None,
        interceptors: Sequence[QueryInterceptor] = (),
        now: Optional[float] = None,
    ) -> Future:
        """Dispatch one endpoint query; the answer arrives as a scheduled event.

        The outcome is the one :meth:`query` returns (same lookup, same
        counters); this method only chooses *when* the
        :class:`~repro.netsim.events.Future` carrying it completes:

        * a warm hit (or negative hit) completes immediately — a cached
          answer costs zero simulated time;
        * an answer still on the wire (a coalescing lookup, or the miss
          that filled the entry) parks its continuation on the entry's
          waiter list; the one shared arrival event completes every
          waiter when the underlying round-trip lands;
        * a miss that cached nothing completes at
          ``now + outcome.latency``.

        This is what lets the controller overlap thousands of in-flight
        round-trips instead of charging each as one opaque delay.
        """
        if interceptors or not self.enabled:
            return self.client.query_async(
                flow, role, from_node=from_node, interceptors=interceptors
            )
        if now is None:
            now = self.now()
        outcome, in_flight = self._lookup(flow, role, from_node, now)
        future = Future()
        sim = self.client.topology.sim
        if outcome.latency <= 0:
            future.set_result(outcome)
        elif in_flight is not None:
            if not in_flight.waiters:
                sim.schedule(
                    in_flight.ready_at - now, self._arrival_fired, in_flight,
                    label="identpp:answer-shared",
                )
            in_flight.waiters.append((future, outcome))
        else:
            sim.schedule(
                outcome.latency, future.set_result, outcome,
                label=ANSWER_LABELS[role],
            )
        return future

    def query_both_ends(
        self,
        flow: FlowSpec,
        *,
        from_node=None,
        interceptors: Sequence[QueryInterceptor] = (),
        now: Optional[float] = None,
    ) -> tuple[QueryOutcome, QueryOutcome]:
        """Query both ends of ``flow`` through the cache (§2 step 3).

        Mirrors :meth:`QueryClient.query_both_ends`, including its
        per-role interceptor ordering: ``interceptors`` are given
        querier → destination, and the source-side query walks them
        reversed.
        """
        return self._both_ends(self.query, flow, from_node, interceptors, now)

    def query_both_ends_async(
        self,
        flow: FlowSpec,
        answered: Callable[..., None],
        *args,
        from_node=None,
        interceptors: Sequence[QueryInterceptor] = (),
    ) -> None:
        """Dispatch both endpoint queries; ``answered(*args, outcomes)`` runs once both are in.

        ``outcomes`` is the ``(source, destination)`` pair, handed over
        at the instant the later answer lands (at once when neither
        costs time).  Mirrors :meth:`query_both_ends`, including the
        per-role interceptor ordering.

        A pass-through punt (engine off, no interceptors) is resolved
        here and its two answers arrive as **one** event, at the later
        answer's instant.  Nothing could be scheduled between two
        per-role answer events, so the one event sits exactly where the
        later of them would have been served.  Every other pair travels
        as two :meth:`query_async` futures (cached, negative, coalesced,
        resident and intercepted answers keep their shared arrivals),
        and the later completion calls ``answered``.
        """
        if not interceptors and not self.enabled:
            client = self.client
            outcomes = (
                client.query(flow, ROLE_SOURCE, from_node=from_node),
                client.query(flow, ROLE_DESTINATION, from_node=from_node),
            )
            latency = max(outcomes[0].latency, outcomes[1].latency)
            if latency <= 0:
                answered(*args, outcomes)
            else:
                client.topology.sim.schedule(
                    latency, answered, *args, outcomes, label=BOTH_ANSWERS_LABEL
                )
            return
        # The async path schedules on the simulator, so it has one: read
        # its clock once for both ends.
        now = self.client.topology.sim.now
        src, dst = self._both_ends(self.query_async, flow, from_node, interceptors, now)
        src.add_done_callback(
            lambda _: dst.add_done_callback(
                lambda _: answered(*args, (src.result(), dst.result()))
            )
        )

    @staticmethod
    def _both_ends(ask, flow, from_node, interceptors, now) -> tuple:
        toward_source, toward_destination = per_role_interceptors(interceptors)
        return (
            ask(flow, ROLE_SOURCE, from_node=from_node, interceptors=toward_source, now=now),
            ask(
                flow, ROLE_DESTINATION, from_node=from_node,
                interceptors=toward_destination, now=now,
            ),
        )

    def _lookup(
        self, flow: FlowSpec, role: str, from_node, now: float
    ) -> tuple[QueryOutcome, Optional[CacheEntry]]:
        """Decide one query against the store: hit, negative hit, coalesce or miss.

        The single place cache semantics live.  Returns the outcome
        and, when its answer is still on the wire at ``now`` (the lookup
        coalesced, or it missed and its fill was cached), the entry
        whose arrival it waits on.
        """
        key = self._key(flow, role)
        entry = self.store.get(key)
        if entry is not None and not self._valid(entry, now):
            self.store.discard(key)
            entry = None
        if entry is not None and entry.flow_scoped and entry.outcome.query.flow != flow:
            # Another flow's flow-scoped answer: this flow must query
            # fresh (the entry stays valid for its own flow's re-punts,
            # though a refill under the same key replaces it).
            entry = None
        if entry is None:
            self.misses += 1
            outcome = self.client.query(flow, role, from_node=from_node)
            entry = self._fill(key, outcome, now)
        else:
            outcome = self._serve(entry, flow, role, now)
            if entry.resident and not outcome.coalesced:
                # Subscribed host: the authoritative answer cost zero
                # round trips; the hit also refreshes its idle clock.
                self.resident_hits += 1
                sub = self.push_plane.subscriptions.get(entry.host_ip)
                if sub is not None:
                    sub.last_hit = now
        if entry is not None and entry.ready_at <= now:
            entry = None
        return outcome, entry

    def _arrival_fired(self, entry: CacheEntry) -> None:
        """The shared answer landed: complete every parked continuation.

        Holds the entry object, not its key, so waiters still complete
        if the entry was invalidated or replaced mid-flight — the answer
        was already on the wire when the invalidation happened, and a
        punt that joined the round-trip must not hang on it.
        """
        waiters, entry.waiters = entry.waiters, []
        for future, outcome in waiters:
            future.set_result(outcome)

    # ------------------------------------------------------------------
    # Cache mechanics
    # ------------------------------------------------------------------

    def now(self) -> float:
        """Return the topology simulator's clock (0.0 with no simulator)."""
        sim = self.client.topology.sim
        return sim.now if sim is not None else 0.0

    def _key(self, flow: FlowSpec, role: str) -> tuple:
        """Return the cache key: (host, role) + target proto/port.

        The proto and target-side port are part of the key because they
        select the answering socket: every client hitting
        ``server:80/tcp`` shares the listener's answer (the hot-server
        win), while ``server:443`` is a different listener and a
        different entry.  On the source side the target port is the
        flow's ephemeral source port, which makes source entries
        effectively per-flow — a source answer names the one process
        that opened the connection and must not leak across flows.
        """
        target_ip = flow.src_ip if role == ROLE_SOURCE else flow.dst_ip
        target_port = flow.src_port if role == ROLE_SOURCE else flow.dst_port
        return (str(target_ip), role, flow.proto, target_port)

    def _valid(self, entry: CacheEntry, now: float) -> bool:
        if now >= entry.expires_at:
            return False
        if entry.negative:
            if entry.unreachable:
                # Any topology change may have restored the path.
                return entry.topology_epoch == self.client.topology.mutation_epoch
            # A daemon deployed mid-TTL must be noticed immediately, not
            # after the negative entry ages out (§4 incremental benefit).
            host = self.client.topology.node_for_ip(entry.host_ip)
            if getattr(host, "identpp_daemon", None) is not None:
                return False
        return True

    def _serve(self, entry: CacheEntry, flow: FlowSpec, role: str, now: float) -> QueryOutcome:
        """Build the outcome a cached (or in-flight) entry answers with."""
        # While the underlying query is still outstanding the lookup
        # coalesces onto it: this punt waits only for the remainder, and
        # the one real round-trip serves everyone.
        in_flight = entry.ready_at > now
        if in_flight:
            self.coalesced += 1
        elif entry.negative:
            self.negative_hits += 1
        else:
            self.hits += 1
        template = entry.outcome
        return QueryOutcome(
            query=IdentQuery(flow=flow, target_role=role, keys=DEFAULT_QUERY_KEYS),
            response=template.response,
            latency=entry.ready_at - now if in_flight else 0.0,
            answered_by=template.answered_by,
            timed_out=template.timed_out,
            unreachable=template.unreachable,
            cached=not in_flight,
            coalesced=in_flight,
            augmented_by=list(template.augmented_by),
        )

    def _fill(self, key: tuple, outcome: QueryOutcome, now: float) -> Optional[CacheEntry]:
        """Remember a fresh outcome under the expiry policy its host has earned.

        Returns the stored entry, or ``None`` when the outcome is not
        cacheable (intercepted, or its kind of TTL is off).
        """
        if outcome.intercepted:
            return None
        host_ip = key[0]
        ready_at = now + outcome.latency
        daemon, flow_scoped = None, False
        if outcome.timed_out:
            if self.ttl <= 0.0:
                return None
            expires_at = ready_at + self.ttl
        else:
            plane = self.push_plane
            if self.ttl <= 0.0 and plane is None:
                return None
            daemon = getattr(
                self.client.topology.node_for_ip(outcome.query.target_ip),
                "identpp_daemon", None,
            )
            # Source answers name the one process that opened the flow,
            # and a destination answer may carry flow-published pairs or
            # a per-connection worker's identity: such entries serve only
            # their own flow.  A listener's flow-independent answer shares.
            flow_scoped = (
                outcome.query.target_role == ROLE_SOURCE
                or daemon is None
                or not daemon.answer_is_shareable(outcome.query)
            )
            if plane is not None and not flow_scoped and host_ip in plane.subscriptions:
                # Subscribed host: the fresh shareable answer is resident
                # — authoritative until the daemon pushes a delta.
                expires_at = UNTIL_DELTA
            elif self.ttl > 0.0:
                expires_at = ready_at + self.ttl
            else:
                return None
        entry = self.store.put(
            CacheEntry(
                key=key,
                host_ip=host_ip,
                outcome=outcome,
                ready_at=ready_at,
                expires_at=expires_at,
                negative=outcome.timed_out,
                flow_scoped=flow_scoped,
                unreachable=outcome.unreachable,
                topology_epoch=self.client.topology.mutation_epoch,
            )
        )
        if daemon is not None and host_ip not in self._daemons:
            self.hook(host_ip, daemon)
        return entry

    # ------------------------------------------------------------------
    # Daemon hooks and the push plane
    # ------------------------------------------------------------------

    def hook(self, host_ip: str, daemon) -> None:
        """Register :meth:`_on_delta` on the daemon answering for a host.

        The map never holds a replaced daemon: its last notice made the
        engine forget the host, which unhooked it.
        """
        if host_ip not in self._daemons:
            self._daemons[host_ip] = daemon
            daemon.add_invalidation_listener(self._on_delta)

    def _release_host(self, host_ip: str) -> None:
        """Unhook from the host's daemon once nothing is held for the host.

        The listener's lifetime is "the engine holds any entry or
        subscription for this host": while either exists a daemon event
        must reach us, and once neither does the daemon must not keep a
        reference to this engine (nor we to the daemon).
        """
        plane = self.push_plane
        if self.store.holds(host_ip) or (plane is not None and host_ip in plane.subscriptions):
            return
        daemon = self._daemons.pop(host_ip, None)
        if daemon is not None:
            daemon.remove_invalidation_listener(self._on_delta)

    def end_residency(self, host_ip: str) -> None:
        """Cancel a closed subscription daemon-side and drop the host's resident answers."""
        self._daemons[host_ip].unsubscribe(self.name)
        self.store.drop(host_ip, resident=True)
        self._release_host(host_ip)

    def subscribe_host(self, host_ip, *, from_node=None) -> bool:
        """Open (or confirm) a host's subscription on the push plane; a pull engine refuses."""
        plane = self.push_plane
        return plane is not None and plane.subscribe_host(host_ip, from_node=from_node)

    def _on_delta(self, delta: IdentDelta) -> None:
        """Handle one daemon notice — the one way a change reaches the engine.

        A replaced daemon's last notice forgets the host
        (:meth:`invalidate_host`).  Any other drops the host's TTL
        entries, cached or in flight, and goes on to the push plane,
        which applies its serial and re-primes the host's resident
        answers off the punt path.
        """
        ip = delta.host_ip
        if delta.reason == DAEMON_REPLACED:
            self.invalidate_host(ip, delta.reason)
            return
        self.invalidated_entries += self.store.drop(ip, resident=False)
        if self.push_plane is not None:
            self.push_plane.apply_delta(delta)

    def reprime(self, entry: CacheEntry, now: float, from_node) -> None:
        """Replace one resident answer off the punt path.

        The re-query is issued the instant the delta arrives, so by the
        time the next punt lands the refreshed answer is either ready
        (zero wait) or still in flight (the punt coalesces onto the
        remainder) — this is what makes push convergence beat the TTL
        plane, whose first post-change punt pays the full round trip.
        The answer is filed as a punt's would be; one that no longer
        earns residency (a timeout, an interception, an answer that
        stopped being shareable, a vanished daemon) is discarded at
        once, leaving a stale heap record, and pull takes over.
        """
        query = entry.outcome.query
        outcome = self.client.query(query.flow, query.target_role, from_node=from_node)
        fresh = self._fill(entry.key, outcome, now)
        if fresh is None or not fresh.resident:
            self.store.discard(entry.key)

    # ------------------------------------------------------------------
    # Invalidation + expiry
    # ------------------------------------------------------------------

    def invalidate_host(self, host_ip, reason: str = "") -> int:
        """Forget one host: its subscription first, then every entry.

        The administrator's verb (``Controller.quarantine_host``), and
        what a replaced daemon's last notice triggers; a change the
        daemon announces goes through :meth:`_on_delta` instead.
        Closing the subscription drops its resident answers and resets
        the host's promotion tally.  Returns how many other entries
        (cached or in flight) were removed.
        """
        ip = str(host_ip)
        if self.push_plane is not None:
            self.push_plane.unsubscribe_host(ip)
        # Only TTL entries are left: resident ones went with the subscription.
        removed = self.store.drop(ip, resident=False)
        self.invalidated_entries += removed
        return removed

    def expire(self, now: float) -> int:
        """Reclaim entries past their TTL (lifecycle-sweep hook; see :meth:`AnswerStore.sweep`)."""
        return self.store.sweep(now)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def lookups(self) -> int:
        """Return how many queries were requested through the engine."""
        return self.hits + self.misses + self.coalesced + self.negative_hits

    def stats(self) -> dict[str, object]:
        """Return the counts the benchmarks read."""
        total = self.lookups()
        plane = self.push_plane

        def rate(count: int) -> float:
            return count / total if total else 0.0

        return {
            "lookups": total,
            "hits": self.hits,
            "misses": self.misses,
            "coalesced": self.coalesced,
            "negative_hits": self.negative_hits,
            "hit_rate": rate(self.hits),
            "coalesce_rate": rate(self.coalesced),
            "invalidated_entries": self.invalidated_entries,
            "resident_hits": self.resident_hits,
            "deltas_applied": plane.deltas_applied if plane is not None else 0,
            "duplicate_deltas": plane.duplicate_deltas if plane is not None else 0,
        }

    def __repr__(self) -> str:
        return f"QueryEngine({self.name!r}, ttl={self.ttl}, entries={len(self.store)})"
