"""The ident++ controller (§3.4, Figure 1).

"When an OpenFlow switch cannot find a match for a packet in its flow
table, it sends the packet to the ident++ controller.  When the
controller receives the packet, it queries the source and destination
ident++ daemons for additional information.  The information is then
stored in the ``@src`` and the ``@dst`` dictionaries.  The controller
then executes the rules that are stored in its configuration files."

The controller here implements the full Figure 1 sequence on the
simulated OpenFlow network:

1. a client's first packet misses the switch flow table and is punted,
2. the controller queries both ends of the flow with ident++ (charging
   the network round-trip and daemon processing time to flow-setup
   latency, and letting on-path peer controllers intercept or augment),
3. the PF+=2 policy is evaluated over the flow plus the ``@src``/``@dst``
   dictionaries,
4. the verdict goes on the datapath "along the path" and the buffered
   packet is released — the :class:`~repro.core.installer.PathInstaller`
   held as ``controller.installer`` does this and unwinds the path later,
5. every decision is recorded in the audit log, attributed to delegation
   grants when ``allowed()``/``verify()`` made the difference, and can be
   revoked later.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.audit import AuditLog, DecisionRecord
from repro.exceptions import ControllerError, PFError, TopologyError
from repro.core.cache import DecisionCache
from repro.core.installer import QUARANTINE_PRIORITY, PathInstaller
from repro.core.interception import InterceptionPolicy
from repro.core.lifecycle import LifecycleService
from repro.core.policy_engine import PolicyDecision, PolicyEngine
from repro.identpp.client import QueryClient, QueryInterceptor
from repro.identpp.engine import QueryEngine
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import IDENT_PP_PORT, IdentQuery, IdentResponse
from repro.netsim.events import Event
from repro.netsim.sanitizer import KIND_STALE_CONTINUATION
from repro.netsim.statistics import Histogram
from repro.netsim.topology import Topology
from repro.openflow.actions import DropAction, FloodAction, OutputAction
from repro.openflow.channel import DEFAULT_CONTROL_LATENCY
from repro.openflow.controller_base import Controller
from repro.openflow.match import Match
from repro.openflow.messages import FlowRemoved, PacketIn
from repro.openflow.switch import OpenFlowSwitch

#: Time charged for one PF+=2 policy evaluation at the controller.
DEFAULT_POLICY_EVAL_DELAY = 100e-6


@dataclass(eq=False)
class DecisionTask:
    """One punted flow's trip through the continuation-scheduled pipeline.

    The task is the flow's whole pending state — its buffered punts,
    its arrival, its fail-closed deadline and its query outcomes — and
    ``controller._pending`` maps each undecided flow to its task.
    A punt does not run as one synchronous call chain; it advances
    through schedulable stages, each entered by its own event:

    * ``wait`` — (serial core only) queued for the loop, queries not
      yet dispatched;
    * ``query`` — endpoint queries dispatched, answers in flight;
    * ``queued`` — answers in, waiting for the serialized eval loop;
    * ``eval`` — occupying the policy-eval stage.

    The task object is also the punt's generation token: a continuation
    whose task is no longer ``_pending[flow]`` (the deadline failed the
    punt closed, a failover exported it, or a re-punt superseded it)
    discards itself instead of advancing.
    """

    flow: FlowSpec
    arrival: float
    switch: OpenFlowSwitch
    #: The buffered PacketIns awaiting this decision (one per punting switch).
    punts: list
    stage: str = "query"
    #: The ``(source, destination)`` answers, once both are in.
    outcomes: tuple = ()
    #: When the last endpoint answer landed (0.0 until then).
    ready_at: float = 0.0
    #: The instant the controller's deadline event fails this flow
    #: closed (``None`` only with ``pending_deadline`` 0).
    deadline: Optional[float] = None

    def documents(self) -> tuple:
        """Return the ``(@src, @dst)`` response documents the policy evaluates."""
        src, dst = self.outcomes
        return src.document, dst.document


class SerialDecisionQueue:
    """The controller's serialized stage as a real event-scheduled queue.

    Tasks wait on a FIFO and occupy the loop one at a time, each service
    ending with a scheduled completion event, so queueing delay emerges
    from the event timeline: tasks are served in *ready* order, and a
    superseded punt occupies no slot.

    *When* a task joins decides what the loop serializes.  The async
    core submits it once its answers are in, so only the eval holds the
    loop; the serial core submits it at the punt (stage ``wait``), so
    the loop is held across the query round-trips too — the same
    pipeline at concurrency 1.
    """

    def __init__(self, controller: "IdentPPController") -> None:
        self._controller = controller
        self._queue: deque[DecisionTask] = deque()
        self._current: Optional[DecisionTask] = None
        self._event: Optional[Event] = None
        self.served = 0
        self.max_depth = 0

    def holds(self, task: DecisionTask) -> bool:
        """Return whether ``task`` is the one occupying the loop."""
        return self._current is task

    def depth(self) -> int:
        """Return queued plus in-service tasks."""
        return len(self._queue) + (1 if self._current is not None else 0)

    def submit(self, task: DecisionTask) -> None:
        """Append a task and start serving if the loop is idle."""
        self._queue.append(task)
        self.max_depth = max(self.max_depth, self.depth())
        if self._current is None:
            self._start_next()

    def _start_next(self) -> None:
        controller = self._controller
        while self._queue:
            if controller.halted:
                # The loop froze with the process; restart() resumes it.
                return
            task = self._queue.popleft()
            if controller._is_stale(task, where="serial queue"):
                # Superseded while queued (deadline fired, failover
                # exported the flow, or a re-punt started a fresh
                # pipeline): skip without occupying the loop — a real
                # queue serves no phantom work.
                continue
            self._current = task
            if task.stage == "wait":
                # Serial core: the loop blocks on the round-trips;
                # _answers_ready hands the task back to evaluate().
                controller._dispatch_queries(task)
            else:
                self.evaluate(task)
            return

    def evaluate(self, task: DecisionTask) -> None:
        """Occupy the loop for the policy evaluation of the task holding it."""
        self._event = self._controller._enter_eval(task, self._finish)

    def _finish(self, task: DecisionTask) -> None:
        self._current = None
        self._event = None
        self.served += 1
        self._controller._decide(task)
        self._start_next()

    def restart(self) -> None:
        """Resume service after a halt froze the loop (frozen work replays)."""
        if self._current is None:
            self._start_next()

    def reset(self) -> None:
        """Drop all queued work (a failover handed the flows elsewhere)."""
        self._queue.clear()
        if self._event is not None:
            self._event.cancel()
            self._event = None
        self._current = None


@dataclass
class ControllerConfig:
    """Tunables of an :class:`IdentPPController`.

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
    * ``state_timeout`` — inert, kept because ``perf/`` constructs a
      config with it: a ``keep state`` pass lives in the decision cache
      (``decision_ttl``) and the flow tables (``idle_timeout``), and the
      controller holds no third table for it to time out.
    * ``serialize_decisions`` — model the controller's *policy-eval*
      stage as one serial loop (:class:`SerialDecisionQueue`): each
      evaluation occupies it for ``policy_eval_delay``, so concurrent
      punts queue instead of overlapping — what makes one controller a
      measurable chokepoint and sharding a measurable win.  The flag
      moves *when* the event that decides a punt fires, not what it does.

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
    Every field has a caller outside the tests
    (``tests/test_options_have_callers.py``).
    """

    idle_timeout: float = 60.0
    hard_timeout: float = 0.0
    decision_ttl: float = 60.0
    policy_eval_delay: float = DEFAULT_POLICY_EVAL_DELAY
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


class IdentPPController(Controller):
    """An OpenFlow controller that delegates security decisions through ident++."""

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
        if self.config.decision_core not in ("async", "serial"):
            raise ControllerError(
                f"unknown decision_core {self.config.decision_core!r} "
                "(expected 'async' or 'serial')"
            )
        if self.config.identity_plane not in ("pull", "push"):
            raise ControllerError(
                f"unknown identity_plane {self.config.identity_plane!r} "
                "(expected 'pull' or 'push')"
            )
        self.nonblocking_inbox = self.config.nonblocking_inbox
        self.query_client = QueryClient(topology)
        self.query_engine = QueryEngine(
            self.query_client,
            ttl=self.config.query_cache_ttl,
            name=f"{name}.query-engine",
            push=self.config.identity_plane == "push",
            push_idle_demote=self.config.push_idle_demote,
            push_promote_punts=self.config.push_promote_punts,
        )
        self.cache = DecisionCache(ttl=self.config.decision_ttl)
        self.audit = AuditLog(name=f"{name}.audit")
        self.interception = InterceptionPolicy(name=f"{name}.interception")
        self.peer_interceptors: list[QueryInterceptor] = []
        self.flow_setup_latency = Histogram(f"{name}.flow_setup_latency")
        self.query_latency = Histogram(f"{name}.query_latency")
        # The one per-flow table: every punted, undecided flow's
        # DecisionTask (buffered punts, arrival, deadline, stage,
        # outcomes), in arrival order.  Populated at the punt, drained by
        # _pop_pending; a task no longer in here is stale.
        self._pending: dict[FlowSpec, DecisionTask] = {}
        # The one armed fail-closed event, at the earliest deadline it
        # had to cover when armed; ``None`` while nothing is pending.
        self._deadline_event: Optional[Event] = None
        self._cookie_counter = itertools.count(1)
        # The serialized stage (policy eval, plus the query round-trips
        # under the serial core) as a real event-scheduled queue.
        self._serial = SerialDecisionQueue(self)
        self.policy_errors = 0
        self.pending_expired = 0
        self.repunts_adopted = 0
        self.installer = PathInstaller(self)
        # Hosts quarantined through quarantine_host (telemetry-driven or
        # administrative); the set makes re-quarantine a no-op.
        self.quarantined_hosts: set[str] = set()
        self.lifecycle = LifecycleService(
            name=f"{name}.lifecycle", interval=self.config.lifecycle_interval
        )
        self.lifecycle.register(
            "decisions", self.cache.expire, self.cache.expirable_count,
            self.cache.next_expiry,
        )
        # Cached endpoint answers age out with the other per-flow state.
        self.lifecycle.register(
            "queries", self.query_engine.expire, self.query_engine.expirable_count,
            self.query_engine.next_expiry,
        )
        if self.config.identity_plane == "push":
            # Standing subscriptions idle out like the other per-flow
            # state; the sweeper demotes them back to the pull plane.
            self.lifecycle.register(
                "subscriptions",
                self.query_engine.demote_idle,
                self.query_engine.subscription_count,
                self.query_engine.next_demotion,
            )
        self.attach(topology.sim)

    # ------------------------------------------------------------------
    # Configuration conveniences
    # ------------------------------------------------------------------

    def attach(self, sim) -> None:
        """Bind the controller (and its lifecycle service) to a simulator clock."""
        super().attach(sim)
        self.lifecycle.attach(sim)

    def register_switch(
        self, switch: OpenFlowSwitch, *, latency: float = DEFAULT_CONTROL_LATENCY
    ):
        """Register a switch and put its flow table under lifecycle management."""
        channel = super().register_switch(switch, latency=latency)
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

    # ------------------------------------------------------------------
    # QueryInterceptor protocol (so *other* controllers can route queries
    # through this one)
    # ------------------------------------------------------------------

    def intercept_query(self, query: IdentQuery) -> Optional[IdentResponse]:
        """Answer a passing query from this controller's interception policy."""
        return self.interception.intercept_query(query)

    def augment_response(self, query: IdentQuery, response: IdentResponse) -> None:
        """Augment a passing response from this controller's interception policy."""
        self.interception.augment_response(query, response)

    # ------------------------------------------------------------------
    # Packet-in handling (Figure 1, steps 2-5)
    # ------------------------------------------------------------------

    def on_packet_in(self, message: PacketIn) -> None:
        packet = message.packet
        if self.compromised or not packet.is_ip():
            # §5.1: a compromised controller disables all protection and
            # forwards everything unaudited.  Non-IP traffic (ARP and
            # friends do not exist in this model) is released the same
            # way, so the datapath stays usable.
            self.send_packet_out(
                message.switch, actions=[FloodAction()], buffer_id=message.buffer_id,
                in_port=message.in_port,
            )
            return
        if IDENT_PP_PORT in (packet.tp_src, packet.tp_dst):
            # ident++ queries/responses travelling over the datapath are
            # control traffic; forward them toward their destination.
            self._forward_control_traffic(message)
            return
        flow = FlowSpec.from_packet(packet)
        arrival = self.sim.now

        cached = self.cache.lookup(flow, arrival)
        if cached is not None:
            self.installer.apply_verdict(
                flow, [message], cached.action == "pass", cached.cookie,
                keep_state=cached.keep_state, from_cache=True,
            )
            self.audit.record(
                DecisionRecord(
                    time=arrival,
                    flow=flow,
                    action=cached.action,
                    rule_text=cached.rule_text,
                    rule_origin="cache",
                    cookie=cached.cookie,
                    cached=True,
                )
            )
            return

        task = self._pending.get(flow)
        if task is not None:
            # Another switch punted the same flow while queries are in
            # flight; remember the buffered packet and answer it when the
            # decision lands.
            task.punts.append(message)
            return
        task = DecisionTask(flow=flow, arrival=arrival, switch=message.switch, punts=[message])
        self._pending[flow] = task
        # Fail-closed backstop: if the decision is lost (an exception
        # mid-pipeline, a dropped event), the deadline drops the
        # buffered packets instead of stranding the flow forever.
        self._cover(task)
        self.lifecycle.kick()
        self.query_engine.note_punt(flow.dst_ip, from_node=message.switch, now=arrival)

        if self.config.decision_core == "serial":
            # Concurrency 1: the punt takes the loop before its queries
            # go out and holds it through eval, so daemon latency sums
            # across concurrent punts.
            task.stage = "wait"
            self._serial.submit(task)
        else:
            self._dispatch_queries(task)

    def _relabel(self) -> None:
        super()._relabel()
        name = self.name
        self._pending_deadline_label = f"{name}:pending-deadline"
        self._decide_label = f"{name}:decide"

    def _cover(self, task: DecisionTask) -> None:
        """Give a pending task its fail-closed deadline, ``pending_deadline`` from now.

        One event per controller backs every covered task: it is armed
        by the first one and, since deadlines fall in arrival order,
        already early enough for all that follow.
        """
        delay = self.config.pending_deadline
        if delay <= 0:
            task.deadline = None
            return
        task.deadline = self.sim.now + delay
        if self._deadline_event is None:
            self._arm_deadline(delay)

    def _arm_deadline(self, delay: float) -> None:
        if self.name is not self._labelled_name:
            self._relabel()
        self._deadline_event = self.sim.schedule(
            delay, self._pending_deadline_fired, label=self._pending_deadline_label
        )

    def _dispatch_queries(self, task: DecisionTask) -> None:
        """Send the task's queries to both ends of the flow and yield the loop.

        The engine hands both answers to :meth:`_answers_ready` at the
        instant the later one lands, so thousands of round-trips overlap
        in flight; a pass-through punt's two answers arrive as one event.

        Queries go through the :class:`QueryEngine`, so with a non-zero
        ``query_cache_ttl`` a hot endpoint's answer is fetched once and
        shared: repeat punts hit the cache, concurrent punts coalesce
        onto the one outstanding query, and daemon-less hosts cost one
        timeout per TTL (with the default TTL of ``0`` the engine is a
        pass-through and every punt queries fresh).
        """
        task.stage = "query"
        self.query_engine.query_both_ends_async(
            task.flow, self._answers_ready, task,
            from_node=task.switch, interceptors=tuple(self.peer_interceptors),
        )

    def _answers_ready(self, task: DecisionTask, outcomes: tuple) -> None:
        """Continuation: the last endpoint answer landed; head for eval.

        Runs at the arrival instant of the slower answer.  A task whose
        punt was resolved while the queries were in flight (deadline,
        failover export, re-punt) discards itself here; a halted
        controller leaves the task frozen for ``export_pending``.
        """
        task.outcomes = outcomes
        task.ready_at = self.sim.now
        self.query_latency.observe(QueryClient.combined_latency(outcomes))
        if self._serial.holds(task):
            # Serial core: the loop waited on these answers.  It pays
            # the eval and is released by the completion event whatever
            # became of the punt meanwhile — a halted or superseded
            # task must not wedge the loop it occupies.
            self._serial.evaluate(task)
            return
        if self.halted:
            # The crash froze this decision mid-flight; the flow stays
            # in ``_pending`` for the failover monitor to export.
            return
        if self._is_stale(task, where="answer arrival"):
            return
        if self.config.serialize_decisions:
            task.stage = "queued"
            self._serial.submit(task)
            return
        self._enter_eval(task, self._decide)

    def _enter_eval(self, task: DecisionTask, done) -> Optional[Event]:
        """Start the task's policy-eval slot; ``done(task)`` runs when it elapses."""
        task.stage = "eval"
        if self.name is not self._labelled_name:
            self._relabel()
        return self.sim.schedule(
            self.config.policy_eval_delay, done, task, label=self._decide_label
        )

    def _is_stale(self, task: DecisionTask, *, where: str) -> bool:
        """Return whether ``task`` was superseded — the one generation check.

        A continuation may only advance the task still registered for
        its flow.  Anything else means the punt was already resolved
        without it: its deadline failed it closed, a failover handed it
        to a successor, or the flow was re-punted and runs its own fresh
        pipeline (whose query outcomes this task's are stale against).
        Discarding is *correct*, but a scenario that silently races its
        own deadlines is usually a mis-tuned scenario, so under
        ``Simulator(sanitize=True)`` each discard is also reported.
        """
        if self._pending.get(task.flow) is task:
            return False
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.report(
                KIND_STALE_CONTINUATION,
                f"{self.name}: {where} continuation for {task.flow} "
                f"(punt generation t={task.arrival:g}, stage={task.stage}) "
                f"found its task superseded",
            )
        return True

    def _decide(self, task: DecisionTask) -> None:
        """Continuation: the task's eval slot elapsed; evaluate the policy and act.

        The one tail of the pipeline, entered by the eval-slot event
        itself or, under the serialized loop, by the completion event
        that releases the loop.
        """
        if self.halted:
            # The crash froze this decision mid-flight; the flow stays in
            # ``_pending`` for the failover monitor to export.
            return
        if self._is_stale(task, where="eval completion"):
            # A deadline or a failover export resolved the flow first —
            # deciding it again would double-program the datapath.
            return
        try:
            decision = self.policy.decide(task.flow, *task.documents())
        except PFError as error:
            # A mis-evaluating flow fails *closed* — buffered packets are
            # dropped and the error is audited — rather than re-raising,
            # which would leak its pending entry and blackhole the flow.
            # The block is cached with the normal TTL so a chatty
            # erroring flow does not re-trigger the failure on every
            # packet, yet gets re-evaluated once the policy is fixed.
            self.policy_errors += 1
            self._fail_closed(
                task.flow, f"policy evaluation failed: {error}", cached_as=f"error: {error}"
            )
            self.flow_setup_latency.observe(self.sim.now - task.arrival)
            self.lifecycle.kick()
            return
        self._finish_decision(task, decision)

    def _finish_decision(self, task: DecisionTask, decision: PolicyDecision) -> None:
        """Cache, install and audit one evaluated decision."""
        flow = task.flow
        cookie = f"{self.name}:decision-{next(self._cookie_counter)}"
        self.cache.store(
            flow,
            decision.action,
            cookie,
            self.sim.now,
            keep_state=decision.keep_state,
            rule_text=decision.rule_text,
        )
        pending = self._pop_pending(flow)
        self.installer.apply_verdict(
            flow, pending, decision.is_pass, cookie, keep_state=decision.keep_state
        )
        query_cost = QueryClient.combined_latency(task.outcomes)
        self.flow_setup_latency.observe(self.sim.now - task.arrival)
        self._audit_decision(decision, cookie, query_cost)
        self.lifecycle.kick()

    def _fail_closed(
        self, flow: FlowSpec, note: str, *, cached_as: Optional[str] = None
    ) -> None:
        """Resolve a pending flow as an audited drop (``rule_origin="error"``).

        With ``cached_as`` the block is also cached under that rule text
        (negative cache for the TTL); without it the next punt re-runs
        the pipeline.
        """
        cookie = f"{self.name}:decision-{next(self._cookie_counter)}"
        if cached_as is not None:
            self.cache.store(flow, "block", cookie, self.sim.now, rule_text=cached_as)
        pending = self._pop_pending(flow)
        self.installer.apply_verdict(flow, pending, False, cookie, keep_state=False)
        self.audit.record(
            DecisionRecord(
                time=self.sim.now,
                flow=flow,
                action="block",
                rule_text="",
                rule_origin="error",
                cookie=cookie,
                note=note,
            )
        )

    def _pop_pending(self, flow: FlowSpec) -> list[PacketIn]:
        """Claim a flow's buffered punts and retire its task.

        Retiring the task from the table is what supersedes it: any of
        its still-scheduled continuations (a query answer on the wire,
        a queued eval) will find it stale and discard itself.
        """
        task = self._pending.pop(flow, None)
        if task is None:
            return []
        if not self._pending and self._deadline_event is not None:
            # Nothing left to back: a live deadline event would carry an
            # unbounded run() past the last real event.
            self._deadline_event.cancel()
            self._deadline_event = None
        return task.punts

    def _pending_deadline_fired(self) -> None:
        """Fail closed every covered flow whose deadline is due; re-arm for the next."""
        self._deadline_event = None
        if self.halted:
            # A dead controller cannot fail a flow closed; the pending
            # entries must survive for the failover handoff, where the
            # successor sets its own deadlines (resume() re-arms here).
            return
        now = self.sim.now
        due = []
        earliest = None
        for task in self._pending.values():
            deadline = task.deadline
            if deadline is None:
                continue
            if deadline <= now:
                due.append(task.flow)
            elif earliest is None or deadline < earliest:
                earliest = deadline
        for flow in due:
            # No decision is cached: a decision event that still fires
            # for the flow later finds its task retired and is discarded
            # (it must not override this resolution), and the next punt
            # re-runs the pipeline from scratch.
            self.pending_expired += 1
            self._fail_closed(flow, "pending decision deadline exceeded; failing closed")
        if earliest is not None:
            self._arm_deadline(earliest - now)

    def _audit_decision(self, decision: PolicyDecision, cookie: str, query_cost: float) -> None:
        for principal in decision.principals:
            self.delegations.record_use(principal, cookie)
        self.audit.record(
            DecisionRecord(
                time=self.sim.now,
                flow=decision.flow,
                action=decision.action,
                rule_text=decision.rule_text,
                rule_origin=decision.rule_origin,
                cookie=cookie,
                delegated=decision.delegated,
                delegation_functions=decision.delegation_functions,
                src_keys=decision.src_keys,
                dst_keys=decision.dst_keys,
                query_latency=query_cost,
            )
        )

    def on_flow_removed(self, message: FlowRemoved) -> None:
        """One hop lost its entry: the installer unwinds the rest of the path."""
        self.installer.on_flow_removed(message)

    def _forward_control_traffic(self, message: PacketIn) -> None:
        """Forward ident++ protocol packets toward their destination without policy."""
        packet = message.packet
        destination = self.topology.node_for_ip(packet.ip_dst)
        actions = [FloodAction()]
        if destination is not None:
            try:
                path = self.topology.shortest_path(message.switch, destination)
                if len(path) > 1:
                    out_port = self.topology.egress_port(message.switch, path[1]).number
                    actions = [OutputAction(out_port)]
            except TopologyError:
                # Unroutable control traffic floods (legacy behaviour);
                # non-topology errors propagate rather than degrade to a
                # silent flood.
                actions = [FloodAction()]
        self.send_packet_out(
            message.switch, actions=actions, buffer_id=message.buffer_id, in_port=message.in_port
        )

    # ------------------------------------------------------------------
    # Cluster hooks (pending handoff)
    # ------------------------------------------------------------------

    def export_pending(self) -> list[tuple[FlowSpec, list[PacketIn]]]:
        """Hand over every in-flight punted flow (failover handoff).

        Pops the whole pending table — each task with its buffered
        PacketIns and armed fail-closed deadline — and returns
        ``(flow, punts)`` pairs in arrival order (the table's own order)
        so a successor can adopt them.  Flows
        frozen *mid-decision* — queries dispatched but answers still on
        the wire, or queued for the serial loop — are pending too, so
        they export with everything else; their orphaned continuations
        find the task superseded when they fire and discard themselves.
        Queued but unevaluated decisions are discarded with their
        pending entries: the successor re-runs the pipeline from the
        punt.
        """
        exported = [(flow, self._pop_pending(flow)) for flow in list(self._pending)]
        # The handed-off work no longer occupies this decision loop; a
        # restored shard must not serialize new punts behind it.
        self._serial.reset()
        return exported

    def inflight_count(self) -> int:
        """Return how many punted flows await a decision (any stage).

        The telemetry plane samples it as the ``{shard}.pending_depth``
        series.
        """
        return len(self._pending)

    def serial_depth(self) -> int:
        """Return the serial decision queue's depth (telemetry probe tap)."""
        return self._serial.depth()

    def resume(self) -> None:
        """Revive a halted controller without stranding its frozen flows.

        Two kinds of work died with the process and must be replayed,
        or the flows they carried would stay open-ended forever:

        * the halted inbox — punts that reached the dead process's
          socket but were never handled;
        * fail-closed deadlines that fired (and were swallowed) or were
          consumed while halted — every still-pending flow gets a fresh
          deadline, as if it had just been punted.
        """
        super().resume()
        # The serial loop froze with the process; restart it so the
        # still-queued (non-superseded) work and revived punts are
        # served again instead of stalling behind a dead service slot.
        self._serial.restart()
        for task in self._pending.values():
            self._cover(task)
        for message in self.take_halted_messages():
            self.handle_message(message)
        self.lifecycle.kick()

    def adopt_punt(self, message: PacketIn) -> None:
        """Adopt a punt re-homed from a failed replica.

        Delivered over this controller's own channel to the punting
        switch when it is up (so the handoff pays a control round-trip
        like any punt), or handled directly as a control-plane RPC when
        the channel is down.  Either way the flow enters the normal
        pipeline — including the fail-closed pending deadline.
        """
        self.repunts_adopted += 1
        channel = self.channels.get(message.switch.name)
        if channel is not None and channel.connected:
            channel.send_to_controller(message)
        else:
            self.handle_message(message)

    # ------------------------------------------------------------------
    # Revocation (the administrator "overrides, audits, and revokes")
    # ------------------------------------------------------------------

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
        the cluster coordinator when sharded).  Containment is layered
        so each part covers the others' gaps:

        1. a ``quick`` block pair is appended to the policy, so every
           *future* decision about the host denies regardless of what
           rule would otherwise match (last-match-wins cannot override
           a quick rule);
        2. cached decisions touching the host are revoked — their flow
           entries leave every switch and the decision cache forgets
           them, so in-flight conversations stop;
        3. the query engine forgets the host — its subscription, its
           resident and cached answers (a compromised host's daemon can
           no longer be believed, §6);
        4. wildcard drop entries for the host land on every switch at
           ``QUARANTINE_PRIORITY``, containing the punt storm in the
           datapath — the scanner's packets die at its ingress switch
           instead of burning controller round-trips per probe.

        Idempotent: returns ``False`` (and does nothing) when the host
        is already quarantined.
        """
        ip = str(host_ip)
        if ip in self.quarantined_hosts:
            return False
        self.quarantined_hosts.add(ip)
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

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Return the controller's headline numbers (used by benchmarks)."""
        return {
            "packet_ins": int(self.packet_ins.value),
            "flow_mods": int(self.flow_mods.value),
            "packet_outs": int(self.packet_outs.value),
            "decisions": self.audit.summary(),
            "flow_setup_latency": self.flow_setup_latency.summary(),
            "query_latency": self.query_latency.summary(),
            "cache": {
                "entries": len(self.cache),
                "hit_rate": self.cache.hit_rate(),
                **{k: v for k, v in self.cache.stats().items()
                   if k not in ("entries", "hit_rate")},
            },
            "identity_plane": self.config.identity_plane,
            "query_engine": self.query_engine.stats(),
            "lifecycle": self.lifecycle.stats(),
            "inflight_decisions": len(self._pending),
            "serial_queue": {
                "depth": self._serial.depth(),
                "max_depth": self._serial.max_depth,
                "served": self._serial.served,
            },
            "pending_expired": self.pending_expired,
            "path_installs": len(self.installer),
            "path_unwinds": self.installer.unwinds,
            "quarantined_hosts": sorted(self.quarantined_hosts),
            "policy_errors": self.policy_errors,
            "repunts_adopted": self.repunts_adopted,
            "halted": self.halted,
            "policy": self.policy.stats(),
        }
