"""The query side of ident++: what a controller uses to ask end-hosts.

When the ident++ controller needs a decision about a flow it "requests
additional information from both the source and the destination
end-hosts" (§2).  :class:`QueryClient` performs one such query:

* it resolves the target IP address to the end-host owning it,
* walks the list of on-path *interceptors* (other ident++ controllers)
  in order, giving each the chance to answer the query itself — in
  which case the real end-host is never asked and "intercepted queries
  are not allowed to cause new queries" (§3.4),
* otherwise obtains the response from the end-host's daemon,
* then walks the interceptors in reverse order letting each *augment*
  the response with an extra section, and
* accounts the network round-trip latency from the querying switch to
  the target host so flow-setup latency measurements are meaningful.

Hosts that do not run a daemon (legacy hosts, §4 "Incremental Benefit")
produce a timeout outcome unless an interceptor answered on their
behalf.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import attrgetter
from typing import Optional, Protocol, Sequence

from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.identpp.wire import DEFAULT_QUERY_KEYS, IdentQuery, IdentResponse, ROLE_DESTINATION, ROLE_SOURCE
from repro.netsim.events import Future
from repro.netsim.nodes import Node
from repro.netsim.statistics import Counter
from repro.netsim.topology import Topology

#: What a query costs when the target never answers (seconds).
DEFAULT_QUERY_TIMEOUT = 0.05

#: Event label of an answer's arrival, per queried role.
ANSWER_LABELS = {
    ROLE_SOURCE: f"identpp:answer:{ROLE_SOURCE}",
    ROLE_DESTINATION: f"identpp:answer:{ROLE_DESTINATION}",
}

#: Event label of a pass-through punt's one arrival, carrying both answers.
BOTH_ANSWERS_LABEL = "identpp:answer:both"

_latency_of = attrgetter("latency")


class QueryInterceptor(Protocol):
    """The interface on-path controllers implement to intercept ident++ traffic."""

    def intercept_query(self, query: IdentQuery) -> Optional[IdentResponse]:
        """Answer the query on behalf of the end-host, or return ``None`` to pass it on."""

    def augment_response(self, query: IdentQuery, response: IdentResponse) -> None:
        """Append additional sections to a response passing through."""


def per_role_interceptors(
    interceptors: Sequence[QueryInterceptor],
) -> tuple[tuple[QueryInterceptor, ...], tuple[QueryInterceptor, ...]]:
    """Split one on-path interceptor list into per-role query orderings.

    :meth:`QueryClient.query` requires its interceptors "ordered from
    the querier toward the target host".  A caller querying *both* ends
    of a flow sits between them, so a single sequence cannot be correct
    for both queries: walking toward the destination traverses the
    on-path controllers in the given order, while walking toward the
    source traverses the very same controllers in **reverse**.  The
    input is ordered querier → destination; the returned pair is
    ``(toward_source, toward_destination)``.
    """
    toward_destination = tuple(interceptors)
    return tuple(reversed(toward_destination)), toward_destination


@dataclass
class QueryOutcome:
    """The result of one ident++ query."""

    query: IdentQuery
    response: Optional[IdentResponse]
    latency: float
    answered_by: str = ""
    intercepted: bool = False
    timed_out: bool = False
    #: ``True`` when the target host exists but no path to it does — the
    #: query could never have been delivered.  Such outcomes are also
    #: ``timed_out`` (a partitioned host looks exactly like a silent one
    #: to the querier), the flag only records *why* for diagnostics.
    unreachable: bool = False
    #: Set by the :class:`~repro.identpp.engine.QueryEngine` when the
    #: response was served from its endpoint cache (no daemon contact).
    cached: bool = False
    #: Set by the engine when this query shared another punt's
    #: still-outstanding query instead of issuing its own.
    coalesced: bool = False
    augmented_by: list[str] = field(default_factory=list)

    @property
    def document(self) -> ResponseDocument:
        """Return the response document (empty when the query timed out)."""
        if self.response is None:
            return ResponseDocument()
        return self.response.document

    def succeeded(self) -> bool:
        """Return ``True`` when some party produced a response."""
        return self.response is not None


class QueryClient:
    """Issues ident++ queries on behalf of a controller."""

    def __init__(self, topology: Topology) -> None:
        self.topology = topology
        self.default_keys = DEFAULT_QUERY_KEYS
        self.timeout = DEFAULT_QUERY_TIMEOUT
        self.queries_sent = Counter("query_client.queries_sent")
        self.queries_intercepted = Counter("query_client.queries_intercepted")
        self.queries_timed_out = Counter("query_client.queries_timed_out")
        # (topology mutation epoch, mean link latency) — recomputed only
        # when connectivity changes, not on every intercepted query.
        self._mean_link_latency: Optional[tuple[int, float]] = None

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def query(
        self,
        flow: FlowSpec,
        role: str,
        *,
        from_node: Optional[Node] = None,
        keys: Optional[Sequence[str]] = None,
        interceptors: Sequence[QueryInterceptor] = (),
    ) -> QueryOutcome:
        """Query one end of ``flow``.

        Args:
            flow: The flow being decided.
            role: ``"src"`` or ``"dst"`` — which end to ask.
            from_node: The switch the flow's first packet arrived at; used
                to compute the query round-trip latency.  ``None`` charges
                only daemon processing time.
            keys: Key hints for the query (defaults to the client's
                default key list).
            interceptors: On-path controllers, ordered from the querier
                toward the target host.
        """
        query = IdentQuery(
            flow=flow,
            target_role=role,
            keys=tuple(keys) if keys is not None else self.default_keys,
        )
        self.queries_sent.value += 1

        # Give each on-path controller the chance to answer outright.
        for interceptor in interceptors:
            answer = interceptor.intercept_query(query)
            if answer is not None:
                self.queries_intercepted.value += 1
                latency = self._interceptor_latency(from_node)
                return QueryOutcome(
                    query=query,
                    response=answer,
                    latency=latency,
                    answered_by=getattr(interceptor, "name", "interceptor"),
                    intercepted=True,
                )

        host = self.topology.node_for_ip(query.target_ip)
        daemon = getattr(host, "identpp_daemon", None) if host is not None else None
        if daemon is None:
            self.queries_timed_out.value += 1
            return QueryOutcome(
                query=query, response=None, latency=self.timeout, timed_out=True
            )
        round_trip = self._round_trip(from_node, host)
        if round_trip is None:
            # No path from the querying switch to the host: the query is
            # never delivered, so the daemon is never asked and the
            # outcome is a genuine timeout — not a healthy answer that
            # happens to cost ``self.timeout``.
            self.queries_timed_out.value += 1
            return QueryOutcome(
                query=query,
                response=None,
                latency=self.timeout,
                timed_out=True,
                unreachable=True,
            )
        response, processing = daemon.query_local(query, now=self.topology.sim.now)
        latency = round_trip + processing

        # Responses are augmented on the way back, nearest-the-host first.
        augmented: list[str] = []
        for interceptor in reversed(list(interceptors)):
            interceptor.augment_response(query, response)
            augmented.append(getattr(interceptor, "name", "interceptor"))
        return QueryOutcome(
            query=query,
            response=response,
            latency=latency,
            answered_by=response.responder,
            augmented_by=augmented,
        )

    def query_async(
        self,
        flow: FlowSpec,
        role: str,
        *,
        from_node: Optional[Node] = None,
        keys: Optional[Sequence[str]] = None,
        interceptors: Sequence[QueryInterceptor] = (),
    ) -> Future:
        """Dispatch one endpoint query; the answer *arrives* as its own event.

        Same resolution as :meth:`query`, but instead of handing the
        outcome back in the same call (which forces the caller to model
        the round trip as one opaque delay), the returned
        :class:`~repro.netsim.events.Future` completes with the
        :class:`QueryOutcome` at ``now + outcome.latency`` on the
        topology's simulator — so a controller can interleave thousands
        of in-flight queries and react to each answer the instant it
        lands.  An answer that costs no time completes the future at once.
        """
        outcome = self.query(
            flow, role, from_node=from_node, keys=keys, interceptors=interceptors
        )
        future = Future()
        if outcome.latency <= 0:
            future.set_result(outcome)
        else:
            self.topology.sim.schedule(
                outcome.latency, future.set_result, outcome,
                label=ANSWER_LABELS[role],
            )
        return future

    def query_both_ends(
        self,
        flow: FlowSpec,
        *,
        from_node: Optional[Node] = None,
        keys: Optional[Sequence[str]] = None,
        interceptors: Sequence[QueryInterceptor] = (),
    ) -> tuple[QueryOutcome, QueryOutcome]:
        """Query the source and the destination of ``flow`` (§2 step 3).

        The two queries are issued in parallel in a real deployment, so
        the caller should charge ``max`` of the two latencies, not the
        sum; :meth:`combined_latency` does that.

        ``interceptors`` are given ordered from the querier toward the
        flow's **destination**.  :meth:`query`'s contract wants them
        ordered toward the *target* of each query, and the on-path order
        toward the source is the reverse of the order toward the
        destination — so the source-side query walks them reversed (see
        :func:`per_role_interceptors`).
        """
        toward_source, toward_destination = per_role_interceptors(interceptors)
        src_outcome = self.query(
            flow, ROLE_SOURCE, from_node=from_node, keys=keys, interceptors=toward_source
        )
        dst_outcome = self.query(
            flow, ROLE_DESTINATION, from_node=from_node, keys=keys,
            interceptors=toward_destination,
        )
        return src_outcome, dst_outcome

    @staticmethod
    def combined_latency(outcomes: Sequence[QueryOutcome]) -> float:
        """Return the wall-clock cost of queries issued in parallel."""
        return max(map(_latency_of, outcomes), default=0.0)

    # ------------------------------------------------------------------
    # Latency accounting
    # ------------------------------------------------------------------

    def _round_trip(self, from_node: Optional[Node], host: Node) -> Optional[float]:
        """Return the query round trip from ``from_node`` to ``host``.

        ``None`` means the host is unreachable (no path): the caller
        must treat the query as timed out, not as answered.  Only
        :class:`~repro.exceptions.TopologyError` signals that — any
        other exception is a real bug and propagates.
        """
        if from_node is None:
            return 0.0
        try:
            one_way = self.topology.path_latency(from_node, host)
        except TopologyError:
            return None
        return 2.0 * one_way

    def _interceptor_latency(self, from_node: Optional[Node]) -> float:
        # An interceptor sits on the path; charge a single hop either way
        # as an approximation of "closer than the end-host".  The mean is
        # cached against the topology's mutation epoch so a punt-heavy
        # run neither copies the link list nor re-sums latencies per
        # intercepted query, while remove-then-add churn (which leaves
        # the link *count* unchanged) still recomputes it.
        if from_node is None:
            return 0.0
        epoch = self.topology.mutation_epoch
        cached = self._mean_link_latency
        if cached is None or cached[0] != epoch:
            links = self.topology.links()
            count = len(links)
            mean = sum(link.latency for link in links) / count if count else 0.0
            cached = (epoch, mean)
            self._mean_link_latency = cached
        return 2.0 * cached[1]
