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

A TTL of ``0`` disables the engine entirely (every call passes straight
through to the client), which is the default wiring so existing
scenario timelines are unchanged; benchmarks and production configs
opt in via ``ControllerConfig.query_cache_ttl``.

**The push identity plane** (``push=True``) inverts the dataflow for
*subscribed* hosts: instead of pulling on every miss and aging answers
out by TTL, the engine registers standing interest with the host's
daemon (wire-v2 SUBSCRIBE, capability-negotiated — a legacy daemon
refuses and the pull path above applies untouched) once
:meth:`QueryEngine.note_punt` has counted ``push_promote_punts`` punts
toward it.  Pull versus push is then only the **expiry policy** an entry
is stored under: a subscribed host's shareable destination answers are
*resident* — ``expires_at`` is :data:`UNTIL_DELTA`, so they carry no
deadline, and punts on them are served with **zero** daemon round-trips.
A daemon change reaches the engine once, as its delta, and
:meth:`QueryEngine._on_delta` handles it for pull and push alike: it
drops the host's TTL entries and, when the host is subscribed,
proactively *re-primes* each resident answer off the punt path — so the
first post-change punt pays nothing, where the TTL policy charges it a
full round trip.  A different daemon for a host means forget the host
first: the replaced daemon's last notice makes the engine do so.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

from repro.identpp.client import (
    ANSWER_LABELS,
    BOTH_ANSWERS_LABEL,
    QueryClient,
    QueryInterceptor,
    QueryOutcome,
    per_role_interceptors,
)
from repro.identpp.daemon import DAEMON_REPLACED
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import (
    CAP_SUBSCRIBE,
    DEFAULT_QUERY_KEYS,
    IdentDelta,
    IdentQuery,
    IdentSubscribe,
    ROLE_DESTINATION,
    ROLE_SOURCE,
)
from repro.netsim.events import ExpiryHeap, Future

#: Default TTL benchmarks/workloads use when they enable the engine.
DEFAULT_QUERY_CACHE_TTL = 30.0

#: Default idle window after which a subscribed host is demoted back to
#: the pull plane by the lifecycle sweeper.
DEFAULT_PUSH_IDLE_DEMOTE = 30.0

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
    subscribed host's *resident* answer, which only a pushed delta,
    a demotion or a failover export ever removes.
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


@dataclass
class PushSubscription:
    """One standing subscription: host and delta position.

    ``serial`` is the last delta serial applied; a gap against the
    daemon's serial after failover means deltas were missed.
    """

    host_ip: str
    serial: int
    subscribed_at: float
    last_hit: float
    from_node: object = None


class QueryEngine:
    """Caching, coalescing front-end for one controller's ident++ queries."""

    def __init__(
        self,
        client: QueryClient,
        *,
        ttl: float = 0.0,
        name: str = "query-engine",
        push: bool = False,
        push_idle_demote: float = DEFAULT_PUSH_IDLE_DEMOTE,
        push_promote_punts: int = 3,
    ) -> None:
        self.client = client
        self.name = name
        #: Lifetime of a pulled answer — and of a remembered timeout.
        self.ttl = ttl
        #: The push identity plane: subscribe-and-push for hot hosts.
        self.push = push
        #: Whether the engine does anything beyond pass-through.
        self.enabled = ttl > 0.0 or push
        self.push_idle_demote = push_idle_demote
        self.push_promote_punts = push_promote_punts
        #: The one answer store.  Pull versus push is the expiry policy
        #: an entry carries (TTL deadline | :data:`UNTIL_DELTA`), not a
        #: second table, so a lookup is one ``dict.get``.
        self._entries: dict[tuple, CacheEntry] = {}
        # Host IP -> the keys of its entries, in fill order (a dict, not
        # a set: delta refreshes walk it, and their order reaches the
        # event stream).  Makes per-host invalidation, promotion and
        # export cost O(that host's entries), and tells the one removal
        # path when the host's last entry left.
        self._by_host: dict[str, dict[tuple, None]] = {}
        # How many entries are resident; the rest carry a deadline in
        # ``_expiry`` (pushed with the deadline itself as the token, so
        # a promoted, refreshed or replaced entry's old record is stale).
        self._until_delta = 0
        self._expiry = ExpiryHeap()
        # Host IP → the daemon carrying ``_on_delta`` as a listener,
        # hooked for exactly as long as the engine holds an entry or a
        # subscription for the host.
        self._daemons: dict[str, object] = {}
        #: Standing subscriptions by host IP.
        self._subs: dict[str, PushSubscription] = {}
        # Punts per not-yet-subscribed destination (promotion tally).
        self._punts: dict[str, int] = {}
        self.hits = 0
        self.misses = 0
        self.coalesced = 0
        self.negative_hits = 0
        self.invalidated_entries = 0
        self.resident_hits = 0
        self.deltas_applied = 0
        self.duplicate_deltas = 0

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
        if self._bypasses_cache(interceptors):
            return self.client.query(flow, role, from_node=from_node, interceptors=interceptors)
        return self._lookup(flow, role, from_node, self._now(now))[0]

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
        if self._bypasses_cache(interceptors):
            return self.client.query_async(
                flow, role, from_node=from_node, interceptors=interceptors
            )
        now = self._now(now)
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
        now: Optional[float] = None,
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

    def _bypasses_cache(self, interceptors: Sequence[QueryInterceptor]) -> bool:
        """Return whether a query passes straight through to the client."""
        return not self.enabled or bool(interceptors)

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
        entry = self._entries.get(key)
        if entry is not None and not self._valid(entry, now):
            self._discard(key)
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
                sub = self._subs.get(entry.host_ip)
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

    def _now(self, now: Optional[float]) -> float:
        if now is not None:
            return now
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

    def _serve(
        self,
        entry: CacheEntry,
        flow: FlowSpec,
        role: str,
        now: float,
    ) -> QueryOutcome:
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
            if self.ttl <= 0.0 and not self.push:
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
            if self.push and not flow_scoped and host_ip in self._subs:
                # Subscribed host: the fresh shareable answer is resident
                # — authoritative until the daemon pushes a delta.
                expires_at = UNTIL_DELTA
            elif self.ttl > 0.0:
                expires_at = ready_at + self.ttl
            else:
                return None
        entry = self._store(
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
        if daemon is not None:
            self._hook(host_ip, daemon)
        return entry

    def _store(self, entry: CacheEntry) -> CacheEntry:
        """The one insertion path; an entry under the same key is replaced."""
        replaced = self._entries.get(entry.key)
        if replaced is not None and replaced.resident:
            self._until_delta -= 1
        self._entries[entry.key] = entry
        self._by_host.setdefault(entry.host_ip, {})[entry.key] = None
        if entry.resident:
            self._until_delta += 1
        else:
            self._expiry.push(entry.expires_at, entry.key, entry.expires_at)
        return entry

    def _discard(self, key: tuple) -> None:
        """The one removal path: expiry, invalidation, demotion and export.

        Dropping a host's last entry also drops the engine's hold on
        that host's daemon (see :meth:`_release_host`).
        """
        entry = self._entries.pop(key, None)
        if entry is None:
            return
        if entry.resident:
            self._until_delta -= 1
        keys = self._by_host[entry.host_ip]
        del keys[key]
        if not keys:
            del self._by_host[entry.host_ip]
            self._release_host(entry.host_ip)

    def _deadline_live(self, key: tuple, due: float) -> bool:
        """Return whether a heap record still names its entry's deadline."""
        entry = self._entries.get(key)
        return entry is not None and entry.expires_at == due

    def _held_until_delta(self, host_ip: str) -> list[CacheEntry]:
        """Return one host's resident entries, in fill order."""
        entries = self._entries
        return [
            entries[key] for key in self._by_host.get(host_ip, ()) if entries[key].resident
        ]

    def _hook(self, host_ip: str, daemon) -> None:
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
        if host_ip in self._by_host or host_ip in self._subs:
            return
        daemon = self._daemons.pop(host_ip, None)
        if daemon is not None:
            daemon.remove_invalidation_listener(self._on_delta)

    # ------------------------------------------------------------------
    # Push plane: standing subscriptions + the until-delta policy
    # ------------------------------------------------------------------

    def note_punt(self, host_ip, *, from_node=None, now: Optional[float] = None) -> None:
        """Tally one punt toward a destination; subscribe it when hot.

        A destination punted :attr:`push_promote_punts` times earns a
        standing subscription.  A refused subscription (no daemon, or a
        legacy one) leaves the tally in place, so each later punt asks
        again and a daemon upgrade is noticed on the next one.
        """
        if not self.push:
            return
        ip = str(host_ip)
        if ip in self._subs:
            return
        count = self._punts.get(ip, 0) + 1
        self._punts[ip] = count
        if count >= self.push_promote_punts and self.subscribe_host(
            ip, from_node=from_node, now=now
        ):
            del self._punts[ip]

    def subscribe_host(
        self, host_ip, *, from_node=None, now: Optional[float] = None
    ) -> bool:
        """Open (or confirm) a standing subscription on one host's daemon.

        Returns ``True`` when the host is subscribed after the call.
        Refusals — push plane off, no daemon on the host, or a legacy
        wire-v1 daemon — return ``False`` and change nothing, so asking
        again gets the same answer until the daemon changes.  The table
        holds at most one subscription per host, and idle ones are
        demoted after :attr:`push_idle_demote`.
        """
        if not self.push:
            return False
        ip = str(host_ip)
        daemon = getattr(self.client.topology.node_for_ip(ip), "identpp_daemon", None)
        if daemon is None:
            return False
        if ip in self._subs:
            return True
        ack = daemon.subscribe(
            IdentSubscribe(host_ip=ip, subscriber=self.name, keys=DEFAULT_QUERY_KEYS)
        )
        if not ack.accepted or CAP_SUBSCRIBE not in ack.capabilities:
            return False
        now = self._now(now)
        self._subs[ip] = PushSubscription(
            host_ip=ip,
            serial=ack.serial,
            subscribed_at=now,
            last_hit=now,
            from_node=from_node,
        )
        self._hook(ip, daemon)
        # Shareable answers fetched just before the promotion are still
        # authoritative — any daemon event since their fill would have
        # dropped them through :meth:`_on_delta` — so their expiry
        # policy is upgraded in place (the old deadline record in the
        # heap goes stale).  The flash-crowd case depends on this: the
        # hot answer usually fills on the punt *before* the one that
        # trips the promotion threshold, and without the upgrade the
        # first steady-state wave would pay one more TTL round-trip.
        for key in self._by_host.get(ip, ()):
            entry = self._entries[key]
            if entry.negative or entry.flow_scoped:
                continue
            if now < entry.expires_at < UNTIL_DELTA:
                entry.expires_at = UNTIL_DELTA
                self._until_delta += 1
        return True

    def unsubscribe_host(self, host_ip) -> bool:
        """Close a standing subscription and drop its resident answers.

        The daemon-side subscription is always cancelled, and when the
        host has no TTL entries left either, the listener is
        unregistered too — a demoted host strands nothing on its daemon
        (the stale-subscription leak fix).  The host's promotion tally
        starts again from zero.  Returns ``True`` when a subscription
        existed.
        """
        ip = str(host_ip)
        if self._close_subscription(ip) is None:
            return False
        self._punts.pop(ip, None)
        return True

    def _close_subscription(self, host_ip: str) -> Optional[PushSubscription]:
        """Cancel one host's subscription and end the residency of its answers."""
        sub = self._subs.pop(host_ip, None)
        if sub is None:
            return None
        self._daemons[host_ip].unsubscribe(self.name)
        for entry in self._held_until_delta(host_ip):
            self._discard(entry.key)
        self._release_host(host_ip)
        return sub

    def _on_delta(self, delta: IdentDelta) -> None:
        """Handle one daemon notice — the one way a change reaches the engine.

        A replaced daemon's last notice forgets the host
        (:meth:`invalidate_host`).  Any other drops the host's TTL
        entries, cached or in flight; then, if the host is subscribed,
        the delta's serial is applied and every resident answer is
        re-primed off the punt path.  A serial at or below the
        subscription's last applied one is a duplicate (e.g. re-delivered
        around a failover re-home) and is dropped — the refresh it would
        trigger already happened.
        """
        ip = delta.host_ip
        if delta.reason == DAEMON_REPLACED:
            self.invalidate_host(ip, delta.reason)
            return
        removed = 0
        for key in list(self._by_host.get(ip, ())):
            if not self._entries[key].resident:
                self._discard(key)
                removed += 1
        self.invalidated_entries += removed
        sub = self._subs.get(ip)
        if sub is None:
            return
        if delta.serial <= sub.serial:
            self.duplicate_deltas += 1
            return
        sub.serial = delta.serial
        self.deltas_applied += 1
        now = self._now(None)
        for entry in self._held_until_delta(ip):
            self._reprime(sub, entry, now)

    def _reprime(
        self, sub: PushSubscription, entry: CacheEntry, now: float
    ) -> None:
        """Replace one resident answer off the punt path.

        The re-query is issued the instant the delta arrives, so by the
        time the next punt lands the refreshed answer is either ready
        (zero wait) or still in flight (the punt coalesces onto the
        remainder) — this is what makes push convergence beat the TTL
        plane, whose first post-change punt pays the full round trip.
        An answer that stopped being shareable (or a vanished daemon)
        ends residency for that key; the pull path takes over.
        """
        query = entry.outcome.query
        outcome = self.client.query(query.flow, query.target_role, from_node=sub.from_node)
        daemon = getattr(
            self.client.topology.node_for_ip(entry.host_ip), "identpp_daemon", None
        )
        if (
            outcome.timed_out
            or outcome.intercepted
            or daemon is None
            or not daemon.answer_is_shareable(outcome.query)
        ):
            self._discard(entry.key)
            return
        self._store(
            CacheEntry(
                key=entry.key,
                host_ip=entry.host_ip,
                outcome=outcome,
                ready_at=now + outcome.latency,
                expires_at=UNTIL_DELTA,
            )
        )

    def demote_idle(self, now: float) -> int:
        """Demote subscriptions idle past ``push_idle_demote`` (sweep hook)."""
        if not self.push:
            return 0
        idle = [
            ip
            for ip, sub in self._subs.items()
            if now - max(sub.last_hit, sub.subscribed_at) >= self.push_idle_demote
        ]
        for ip in idle:
            self.unsubscribe_host(ip)
        return len(idle)

    def next_demotion(self) -> Optional[float]:
        """Return the earliest instant a subscription can go idle-demoted."""
        if not self._subs:
            return None
        return min(
            max(sub.last_hit, sub.subscribed_at) + self.push_idle_demote
            for sub in self._subs.values()
        )

    # ------------------------------------------------------------------
    # Push plane: failover hand-off
    # ------------------------------------------------------------------

    def export_push_state(self) -> list[dict]:
        """Tear down every subscription for failover hand-off.

        Returns one record per subscription — host, last applied delta
        serial, the querying node and the resident entries — in the
        shape :meth:`adopt_push_state` consumes on the successor shard.
        The dying engine's subscriptions are all cancelled daemon-side;
        its listener on a host's daemon goes with them unless TTL entries
        for the host stay behind — those must keep hearing the daemon's
        deltas, or a revived shard would serve them stale.
        """
        records: list[dict] = []
        for ip in list(self._subs):
            entries = self._held_until_delta(ip)
            sub = self._close_subscription(ip)
            records.append(
                {
                    "host_ip": ip,
                    "serial": sub.serial,
                    "from_node": sub.from_node,
                    "entries": entries,
                }
            )
        return records

    def adopt_push_state(self, records, *, now: Optional[float] = None) -> int:
        """Re-home exported subscriptions onto this engine (failover).

        For each record the successor opens its *own* subscription, then
        compares delta serials: if the daemon published nothing since
        the dead shard's last applied delta, the exported resident
        answers install verbatim (no deltas were lost, and the serial
        guard in :meth:`_on_delta` rejects any replayed ones); if the
        serials diverged, the answers are conservatively re-primed
        through :meth:`_reprime`, so the successor is resident
        — or resident-in-flight — before the re-punted backlog arrives.
        Returns how many subscriptions were adopted.
        """
        if not self.push:
            return 0
        now = self._now(now)
        adopted = 0
        for record in records:
            ip = str(record["host_ip"])
            if not self.subscribe_host(ip, from_node=record.get("from_node"), now=now):
                continue
            adopted += 1
            sub = self._subs[ip]
            fresh = sub.serial == record["serial"]
            for entry in record["entries"]:
                # The dead engine's parked continuations must not
                # transfer: its futures belong to decision tasks that
                # were exported separately (or died with the shard).
                entry.waiters = []
                self._store(entry)
                if not fresh:
                    self._reprime(sub, entry, now)
        return adopted

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
        self.unsubscribe_host(ip)
        removed = 0
        for key in list(self._by_host.get(ip, ())):
            self._discard(key)
            removed += 1
        self.invalidated_entries += removed
        return removed

    def expire(self, now: float) -> int:
        """Reclaim entries past their TTL (lifecycle-sweep hook).

        Heap-driven: costs ``O(expired log n)``, not a full scan.
        Popped deadlines whose entry was already invalidated, promoted,
        refreshed or lookup-expired are skipped (lazy invalidation).
        """
        removed = 0
        for key, due in self._expiry.pop_due(now):
            if self._deadline_live(key, due):
                self._discard(key)
                removed += 1
        return removed

    def expirable_count(self) -> int:
        """Return how many entries a sweep could ever reclaim."""
        return len(self)

    def next_expiry(self) -> Optional[float]:
        """Return the earliest live entry deadline (lifecycle scheduling hook)."""
        return self._expiry.next_due(self._deadline_live)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def __len__(self) -> int:
        """Return how many entries carry a TTL deadline (resident ones excluded)."""
        return len(self._entries) - self._until_delta

    def lookups(self) -> int:
        """Return how many queries were requested through the engine."""
        return self.hits + self.misses + self.coalesced + self.negative_hits

    def subscription_count(self) -> int:
        """Return how many standing push subscriptions are open."""
        return len(self._subs)

    def is_subscribed(self, host_ip) -> bool:
        """Return whether ``host_ip`` has a standing push subscription."""
        return str(host_ip) in self._subs

    def push_telemetry(self) -> dict[str, float]:
        """Return the push-plane probe values (cheap, sampled per tick)."""
        total = self.lookups()
        return {
            "resident_ratio": self.resident_hits / total if total else 0.0,
            "subscriptions": float(len(self._subs)),
            "deltas_applied": float(self.deltas_applied),
        }

    def telemetry_ratios(self) -> dict[str, float]:
        """Return just the hit/negative/coalesce ratios.

        The telemetry plane samples these every tick; :meth:`stats`
        builds an 11-key dict per call, which is report material, not
        probe material.
        """
        total = self.lookups()
        if not total:
            return {"hit_rate": 0.0, "negative_hit_rate": 0.0, "coalesce_rate": 0.0}
        return {
            "hit_rate": self.hits / total,
            "negative_hit_rate": self.negative_hits / total,
            "coalesce_rate": self.coalesced / total,
        }

    def stats(self) -> dict[str, object]:
        """Return the counts the benchmarks read."""
        total = self.lookups()

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
            "deltas_applied": self.deltas_applied,
            "duplicate_deltas": self.duplicate_deltas,
        }

    def __repr__(self) -> str:
        return (
            f"QueryEngine({self.name!r}, ttl={self.ttl}, "
            f"entries={len(self)})"
        )
