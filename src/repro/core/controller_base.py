"""Everything an ident++ controller is apart from its punt pipeline.

:class:`IdentPPControllerBase` holds the configuration
(:class:`ControllerConfig`), builds the collaborators — query client and
engine, decision cache, audit log, interception policy, path installer
and lifecycle service — wires the controller to its simulator, switches
and on-path peers, and carries the administrator's verbs: "overrides,
audits, and revokes" (§3.4).  Those verbs use only what this class
builds.  The per-punt pipeline of Figure 1, steps 2-5, is the subclass
:class:`~repro.core.controller.IdentPPController`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.audit import AuditLog, SetupTimes
from repro.core.cache import DecisionCache
from repro.core.installer import QUARANTINE_PRIORITY, PathInstaller
from repro.core.interception import InterceptionPolicy
from repro.core.lifecycle import LifecycleService
from repro.core.policy_engine import PolicyEngine
from repro.exceptions import ControllerError
from repro.identpp.client import QueryClient, QueryInterceptor
from repro.identpp.engine import QueryEngine
from repro.identpp.engine_push import PushPlane
from repro.identpp.wire import IdentQuery, IdentResponse
from repro.netsim.topology import Topology
from repro.openflow.actions import DropAction
from repro.openflow.controller_base import Controller
from repro.openflow.match import Match
from repro.openflow.switch import OpenFlowSwitch


@dataclass
class ControllerConfig:
    """Tunables of an :class:`~repro.core.controller.IdentPPController`.

    The lifecycle knobs bound how long lost or dead flow state can live:

    * ``pending_deadline`` — seconds a punted flow may sit in the pending
      table waiting for a decision before the controller fails closed
      (drops the buffered packets and audits an ``error`` decision).
      ``0`` disables the deadline.
    * ``lifecycle_interval`` — how often the attached
      :class:`~repro.core.lifecycle.LifecycleService` sweeps the decision
      cache and every managed switch's flow table.  ``0`` (the default)
      leaves sweeping manual so existing simulations keep their exact
      event timelines.
    * ``state_timeout`` — inert (``perf/`` sets it): a ``keep state`` pass
      lives in the decision cache and the flow tables, no third table.
    * ``serialize_decisions`` — model the controller's *policy-eval*
      stage as one serial loop, the controller's own FIFO
      (``IdentPPController._submit`` / ``_serve_next``): each
      evaluation occupies it for ``policy_eval_delay``, so concurrent
      punts queue instead of overlapping — what makes one controller a
      measurable chokepoint and sharding a measurable win.  The flag
      moves *when* the eval-slot event that runs ``_decide`` fires,
      not what it does.

    The decision-core knobs pick how punts traverse the pipeline:

    * ``decision_core`` — *when* a punt takes the serialized loop, over
      one and the same pipeline.  ``"async"`` (the default) dispatches a
      punt's queries at once and yields, so round-trips overlap and
      daemon latency sets flow-setup latency but not throughput.
      ``"serial"`` is that pipeline at concurrency 1: a punt takes the
      loop *before* its queries go out and holds it until its eval ends,
      so daemon latency sums across punts.
    * ``nonblocking_inbox`` — queue switch→controller messages and
      drain them from a scheduled event instead of handling them inside
      the channel's delivery call (see
      :attr:`~repro.openflow.controller_base.Controller.nonblocking_inbox`).

    The query-engine knobs put a cache between the controller and the
    end-host daemons (§2 step 3 is the dominant flow-setup cost):

    * ``query_cache_ttl`` — lifetime of cached endpoint answers.  ``0``
      (the default) disables the engine entirely: every punt issues
      fresh ident++ queries, exactly the pre-engine behaviour.  A
      remembered *timeout* (a legacy host without a daemon, an
      unreachable one) lives exactly as long.

    The identity-plane knobs pick how endpoint answers stay fresh:

    * ``identity_plane`` — ``"pull"`` (the default): answers age out by
      TTL and every miss queries the daemon.  ``"push"`` also promotes
      hot destination hosts to standing wire-v2 subscriptions, whose
      answers are resident (authoritative until the daemon pushes a
      delta); legacy daemons and cold hosts stay on pull.
    * ``push_promote_punts`` — punts toward a destination host before
      the query engine registers standing interest in it.
    * ``push_idle_demote`` — idle seconds after which the lifecycle
      sweeper demotes a subscribed host back to the pull plane.

    What nothing sets is not a field: both ends of a flow are always
    queried (§3.4) for ``DEFAULT_QUERY_KEYS``, a pass is always installed
    along the whole path (§3.4), the decision cache is bounded by its
    TTL, the subscription table by the host count, and the flow-entry
    priorities are :mod:`repro.core.installer`'s constants
    ``QUARANTINE_PRIORITY`` > ``FLOW_PRIORITY`` > ``DROP_PRIORITY``.
    Lint rule R13 fails on a defaulted field that only a test sets.
    """

    idle_timeout: float = 60.0
    hard_timeout: float = 0.0
    decision_ttl: float = 60.0
    #: Time charged for one PF+=2 policy evaluation at the controller.
    policy_eval_delay: float = 100e-6
    pending_deadline: float = 5.0
    lifecycle_interval: float = 0.0
    state_timeout: float = 300.0
    serialize_decisions: bool = False
    decision_core: str = "async"
    nonblocking_inbox: bool = False
    query_cache_ttl: float = 0.0
    identity_plane: str = "pull"
    push_promote_punts: int = 3
    push_idle_demote: float = 30.0


class IdentPPControllerBase(Controller):
    """An ident++ controller's config, collaborators, wiring and admin verbs.

    ``policy`` is the decider: a :class:`PolicyEngine` (PF+=2 over both
    ends' answers), or a baseline architecture's
    :class:`~repro.baselines.base.BaselineDecider`, which reads no
    end-host.  The admin verbs that edit PF text (reload, delegation
    grants, :meth:`quarantine_host`) need a :class:`PolicyEngine`.
    """

    def __init__(
        self,
        name: str,
        topology: Topology,
        policy: PolicyEngine,
        *,
        config: Optional[ControllerConfig] = None,
    ) -> None:
        super().__init__(name)
        self.topology = topology
        self.policy = policy
        self.config = config if config is not None else ControllerConfig()
        for knob, (one, other) in (("decision_core", ("async", "serial")),
                                   ("identity_plane", ("pull", "push"))):
            value = getattr(self.config, knob)
            if value not in (one, other):
                raise ControllerError(f"unknown {knob} {value!r} (expected {one!r} or {other!r})")
        self.nonblocking_inbox = self.config.nonblocking_inbox
        self.query_client = QueryClient(topology)
        self.query_engine = QueryEngine(
            self.query_client,
            ttl=self.config.query_cache_ttl,
            name=f"{name}.query-engine",
        )
        self.cache = DecisionCache(ttl=self.config.decision_ttl)
        self.audit = AuditLog(name=f"{name}.audit")
        self.interception = InterceptionPolicy(name=f"{name}.interception")
        self.peer_interceptors: list[QueryInterceptor] = []
        self.flow_setup_latency = SetupTimes(self.audit)
        self.installer = PathInstaller(self)
        # Each host quarantine_host cut off (telemetry-driven or
        # administrative) → the instant it did; re-quarantine is a no-op.
        self.quarantined_hosts: dict[str, float] = {}
        self.lifecycle = LifecycleService(
            name=f"{name}.lifecycle", interval=self.config.lifecycle_interval
        )
        self.lifecycle.register(
            "decisions", self.cache.expire, self.cache.expirable_count,
            self.cache.next_expiry,
        )
        # Cached endpoint answers age out with the other per-flow state.
        self.lifecycle.register(
            "queries", self.query_engine.expire, self.query_engine.store.__len__,
            self.query_engine.store.next_deadline,
        )
        if self.config.identity_plane == "push":
            plane = PushPlane(
                self.query_engine,
                idle_demote=self.config.push_idle_demote,
                promote_punts=self.config.push_promote_punts,
            )
            # Standing subscriptions idle out like the other per-flow
            # state; the sweeper demotes them back to the pull plane.
            self.lifecycle.register(
                "subscriptions", plane.demote_idle, plane.subscriptions.__len__,
                plane.next_demotion,
            )
        self.attach(topology.sim)

    def attach(self, sim) -> None:
        """Bind the controller (and its lifecycle service) to a simulator clock."""
        super().attach(sim)
        self.lifecycle.attach(sim)

    def register_switch(self, switch: OpenFlowSwitch):
        """Register a switch and put its flow table under lifecycle management."""
        channel = super().register_switch(switch)
        # A newly managed switch may sit on an already planned path.
        self.installer.forget_plans()
        self.lifecycle.register(
            f"flow_table:{switch.name}",
            switch.sweep_expired,
            switch.reclaimable_entries,
            switch.flow_table.next_deadline,
        )
        switch.add_recovery_listener(self.lifecycle.kick)
        return channel

    @property
    def delegations(self):
        """Return the delegation manager behind the policy engine."""
        return self.policy.delegations

    def add_peer_interceptor(self, interceptor: QueryInterceptor) -> None:
        """Register another controller on the query path (its interception policy applies)."""
        self.peer_interceptors.append(interceptor)

    # QueryInterceptor protocol: *other* controllers route queries through this one.

    def intercept_query(self, query: IdentQuery) -> Optional[IdentResponse]:
        """Answer a passing query from this controller's interception policy."""
        return self.interception.intercept_query(query)

    def augment_response(self, query: IdentQuery, response: IdentResponse) -> None:
        """Augment a passing response from this controller's interception policy."""
        self.interception.augment_response(query, response)

    # The administrator "overrides, audits, and revokes" (§3.4).

    def revoke_decision(self, cookie: str) -> int:
        """Tear down the datapath state created by one decision.

        Removes the matching flow entries from every managed switch and
        invalidates the controller-side cache.  Returns the number of
        flow entries removed.
        """
        removed = 0
        for switch in self.switches():
            removed += switch.flow_table.remove_by_cookie(cookie)
        self.cache.invalidate_cookie(cookie)
        # The revocation just did the unwinding.
        self.installer.discard(cookie)
        return removed

    def revoke_delegation(self, principal: str) -> int:
        """Revoke a delegation grant and undo every decision that relied on it."""
        grant = self.delegations.revoke(principal, now=self.sim.now)
        removed = 0
        for cookie in grant.decisions:
            removed += self.revoke_decision(cookie)
        return removed

    def quarantine_host(self, host_ip) -> bool:
        """Cut a compromised host off in both the policy and the datapath.

        The telemetry plane's auto-quarantine responder lands here (via
        the cluster coordinator when sharded).  Four layers, each
        covering the others' gaps: a ``quick`` block pair in the policy
        denies every future decision about the host (last-match-wins
        cannot override it); the cached decisions touching it are
        revoked, flow entries and cache entries alike; the query engine
        forgets its subscription and answers (its daemon can no longer
        be believed, §6); and wildcard drops at ``QUARANTINE_PRIORITY``
        on every switch kill its punt storm at its ingress switch.
        Idempotent: ``False``, and nothing done, for a quarantined host.
        """
        ip = str(host_ip)
        if ip in self.quarantined_hosts:
            return False
        self.quarantined_hosts[ip] = self.sim.now
        self.policy.add_control_file(
            f"00-quarantine-{ip}.control",
            f"block quick from {ip} to any\nblock quick from any to {ip}\n",
            provenance="quarantine",
        )
        for cookie in sorted(self.cache.cookies_for_host(ip)):
            self.revoke_decision(cookie)
        self.query_engine.invalidate_host(ip, reason="quarantine")
        cookie = f"quarantine:{ip}"
        for switch in self.switches():
            for match in (Match(nw_src=ip), Match(nw_dst=ip)):
                self.install_flow(
                    switch,
                    match,
                    [DropAction()],
                    priority=QUARANTINE_PRIORITY,
                    cookie=cookie,
                )
        return True
