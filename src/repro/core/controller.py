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

This module is that pipeline and its per-punt state; the config, the
wiring and the admin verbs are its base, :mod:`repro.core.controller_base`.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.core.audit import UNTIMED
from repro.core.controller_base import ControllerConfig, IdentPPControllerBase
from repro.core.policy_engine import PolicyDecision, PolicyEngine
from repro.exceptions import PFError
from repro.identpp.client import QueryClient
from repro.identpp.flowspec import FlowSpec
from repro.netsim.events import Event
from repro.netsim.sanitizer import KIND_STALE_CONTINUATION
from repro.netsim.topology import Topology
from repro.openflow.actions import FloodAction
from repro.openflow.messages import FlowRemoved, PacketIn
from repro.openflow.switch import OpenFlowSwitch
from repro.pf.compiler import VerdictShape
from repro.pf.evaluator import Verdict

__all__ = ["ControllerConfig", "DecisionTask", "IdentPPController"]

#: What a flow that fails closed is resolved as: an audited drop from ``error``.
FAILED_CLOSED = PolicyDecision(None, Verdict("block", shape=VerdictShape(
    "block", None, "", "error", False, False, False, (), ())))


@dataclass(eq=False)
class DecisionTask:
    """One punted flow's trip through the continuation-scheduled pipeline.

    The task is the flow's whole pending state, and ``controller._pending``
    maps each undecided flow to it.  Each ``stage`` is entered on one
    event and run by one :class:`IdentPPController` method:

    ==========  ===========================================  ======================
    stage       entered on                                   run by
    ==========  ===========================================  ======================
    ``wait``    the PacketIn (serial core): queued for the   ``_submit``
                loop, queries not yet dispatched
    ``query``   the PacketIn, or the loop freeing for a      ``_dispatch_queries``
                ``wait`` task
    ``queued``  the later answer (``serialize_decisions``):  ``_answers_ready``,
                answers in, waiting for the loop             then ``_submit``
    ``eval``    the later answer, or the loop freeing for    ``_enter_eval``
                a ``queued`` task: the policy-eval slot
    (decided)   the eval-slot event, ``{name}:decide``       ``_decide``
    ==========  ===========================================  ======================

    The loop frees when a submit finds it idle, when the task holding it
    is decided, and at ``resume``; ``_serve_next`` then takes the next task.

    The task object is also the punt's generation token: a continuation
    whose task is ``retired`` (the deadline failed the punt closed, a
    failover exported it, or it was decided) discards itself instead of
    advancing.
    """

    flow: FlowSpec
    arrival: float
    switch: OpenFlowSwitch
    #: The buffered PacketIns awaiting this decision (one per punting switch).
    punts: list
    stage: str = "query"
    #: The ``(source, destination)`` answers, once both are in.
    outcomes: tuple = ()
    #: The instant the controller's deadline event fails this flow
    #: closed (``None`` only with ``pending_deadline`` 0).
    deadline: Optional[float] = None
    #: Set when ``_pop_pending`` takes the task out of ``_pending``.
    retired: bool = False


class IdentPPController(IdentPPControllerBase):
    """An OpenFlow controller that delegates security decisions through ident++.

    The punt pipeline: a table miss is decided, installed along the path
    and audited here, whatever the decider in the ``policy`` slot (see
    :class:`~repro.core.controller_base.IdentPPControllerBase`, which
    also carries the config, the wiring and the admin verbs).
    """

    def __init__(self, name: str, topology: Topology, policy: PolicyEngine, *,
                 config: Optional[ControllerConfig] = None) -> None:
        super().__init__(name, topology, policy, config=config)
        # The one per-flow table: every punted, undecided flow's task, in
        # arrival order.  Filled at the punt; _pop_pending retires a task.
        self._pending: dict[FlowSpec, DecisionTask] = {}
        # The one armed fail-closed event, at the earliest deadline it
        # had to cover when armed; ``None`` while nothing is pending.
        self._deadline_event: Optional[Event] = None
        self._cookie_counter = itertools.count(1)
        # The serialized stage (policy eval, plus the query round-trips
        # under the serial core) as a real event-scheduled queue: tasks
        # wait in ready order and hold the loop one at a time, so
        # queueing delay emerges from the timeline.
        self._waiting: deque[DecisionTask] = deque()
        self._serving: Optional[DecisionTask] = None
        self._serving_event: Optional[Event] = None
        self._serial_peak = 0
        self.policy_errors = 0
        self.pending_expired = 0
        self.repunts_adopted = 0

    # ------------------------------------------------------------------
    # Packet-in handling (Figure 1, steps 2-5)
    # ------------------------------------------------------------------

    def on_packet_in(self, message: PacketIn) -> None:
        packet = message.packet
        if self.compromised or not packet.carries_ip:
            # §5.1: a compromised controller disables all protection and
            # forwards everything unaudited.  Non-IP traffic (ARP and
            # friends do not exist in this model) is released the same
            # way, so the datapath stays usable.
            self.send_packet_out(
                message.switch, actions=[FloodAction()], buffer_id=message.buffer_id,
                in_port=message.in_port,
            )
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
                arrival, flow, cached.action, cached.rule_text, "cache", cached.cookie,
                cached=True,
            )
            return

        task = self._pending.get(flow)
        if task is not None:
            # Another switch punted the same flow while queries are in
            # flight; remember the buffered packet and answer it when the
            # decision lands.
            task.punts.append(message)
            return
        task = DecisionTask(flow, arrival, message.switch, [message])
        self._pending[flow] = task
        # Fail-closed backstop: if the decision is lost (a dropped event
        # or a lost answer), the deadline drops the buffered packets
        # instead of stranding the flow forever.
        self._cover(task)
        self.lifecycle.kick()
        plane = self.query_engine.push_plane
        if plane is not None and self.policy.reads_end_hosts:
            plane.note_punt(flow.dst_ip, from_node=message.switch)

        if self.config.decision_core == "serial":
            # Concurrency 1: the punt takes the loop before its queries
            # go out and holds it through eval, so daemon latency sums
            # across concurrent punts.
            task.stage = "wait"
            self._submit(task)
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
        already early enough for all that follow.  Every task is covered
        before any event of its pipeline is scheduled, so the event
        labels follow a renamed controller from here.
        """
        if self.name is not self._labelled_name:
            self._relabel()
        delay = self.config.pending_deadline
        if delay <= 0:
            task.deadline = None
            return
        task.deadline = self.sim.now + delay
        if self._deadline_event is None:
            self._arm_deadline(delay)

    def _arm_deadline(self, delay: float) -> None:
        self._deadline_event = self.sim.schedule(
            delay, self._pending_deadline_fired, label=self._pending_deadline_label
        )

    def _dispatch_queries(self, task: DecisionTask) -> None:
        """Send the task's queries to both ends of the flow and yield the loop.

        The engine hands both answers to :meth:`_answers_ready` at the
        instant the later one lands, so thousands of round-trips overlap
        in flight; a pass-through punt's two answers arrive as one event.

        With a non-zero ``query_cache_ttl`` the query engine fetches a hot
        endpoint's answer once: repeat punts hit its cache, concurrent
        ones coalesce, a daemon-less host costs one timeout per TTL.

        A decider that reads no end-host (a baseline's) asks nobody: the
        task's answers, none, are in at once and cost nothing.
        """
        task.stage = "query"
        if not self.policy.reads_end_hosts:
            self._answers_ready(task, ())
            return
        self.query_engine.query_both_ends_async(
            task.flow, self._answers_ready, task,
            from_node=task.switch, interceptors=tuple(self.peer_interceptors),
        )

    def _answers_ready(self, task: DecisionTask, outcomes: tuple) -> None:
        """Continuation: the last endpoint answer landed; head for eval.

        Runs when the slower answer lands.  A task resolved meanwhile
        discards itself; a halted controller leaves it for ``export_pending``.
        """
        task.outcomes = outcomes
        if task is self._serving:
            # Serial core: the loop waited on these answers.  It pays
            # the eval and is released by _decide whatever became of the
            # punt meanwhile — a halted or superseded task must not
            # wedge the loop it occupies.
            self._serving_event = self._enter_eval(task)
            return
        if self.halted:
            # The crash froze this decision mid-flight; the flow stays
            # in ``_pending`` for the failover monitor to export.
            return
        if task.retired:
            return self._discard_stale(task, "answer arrival")
        if self.config.serialize_decisions:
            task.stage = "queued"
            self._submit(task)
            return
        self._enter_eval(task)

    def _enter_eval(self, task: DecisionTask) -> Event:
        """Start the task's policy-eval slot; :meth:`_decide` runs when it elapses."""
        task.stage = "eval"
        return self.sim.schedule(
            self.config.policy_eval_delay, self._decide, task, label=self._decide_label
        )

    def _submit(self, task: DecisionTask) -> None:
        """Queue a task for the serialized loop and serve it at once if the loop is idle.

        *When* a task joins decides what the loop serializes: the async
        core submits it once its answers are in, so only the eval holds
        the loop; the serial core submits it at the punt, so the loop is
        held across the query round-trips too.
        """
        self._waiting.append(task)
        depth = len(self._waiting) + (self._serving is not None)
        if depth > self._serial_peak:
            self._serial_peak = depth
        if self._serving is None:
            self._serve_next()

    def _serve_next(self) -> None:
        """Give the idle loop to the next waiting task that is still pending."""
        waiting = self._waiting
        while waiting:
            if self.halted:
                # The loop froze with the process; resume() restarts it.
                return
            task = waiting.popleft()
            if task.retired:
                # Resolved while queued (deadline fired, failover
                # exported the flow): skip without occupying the loop —
                # a real queue serves no phantom work.
                self._discard_stale(task, "serial queue")
                continue
            self._serving = task
            if task.stage == "wait":
                # Serial core: the loop blocks on the round-trips;
                # _answers_ready starts the task's eval slot.
                self._dispatch_queries(task)
            else:
                self._serving_event = self._enter_eval(task)
            return

    def _discard_stale(self, task: DecisionTask, where: str) -> None:
        """A continuation of a retired task discards itself — reported when sanitized.

        The punt was resolved without it (failed closed, or exported to a
        successor), and a re-punt runs its own fresh pipeline.  Discarding
        is correct, but a scenario that silently races its own deadlines
        is usually mis-tuned, so ``Simulator(sanitize=True)`` reports it.
        """
        sanitizer = self.sim.sanitizer
        if sanitizer is not None:
            sanitizer.report(
                KIND_STALE_CONTINUATION,
                f"{self.name}: {where} continuation for {task.flow} "
                f"(punt generation t={task.arrival:g}, stage={task.stage}) "
                f"found its task superseded",
            )

    def _decide(self, task: DecisionTask) -> None:
        """Continuation: the task's eval slot elapsed; evaluate the policy and act.

        The one tail of the pipeline, entered by the eval-slot event.  A
        task holding the serialized loop releases it first, and the next
        waiting task is served once this one is decided.
        """
        held = task is self._serving
        if held:
            self._serving = self._serving_event = None
        if self.halted:
            # The crash froze this decision mid-flight; the flow stays in
            # ``_pending`` for the failover monitor to export, and the
            # loop stays frozen until resume().
            return
        if task.retired:
            # A deadline or a failover export resolved the flow first —
            # deciding it again would double-program the datapath.
            self._discard_stale(task, "eval completion")
        else:
            setup_time = self.sim.now - task.arrival
            # The ``(@src, @dst)`` documents; none when nobody was asked.
            outcomes = task.outcomes
            documents = (outcomes[0].document, outcomes[1].document) if outcomes else ()
            try:
                decision = self.policy.decide(task.flow, *documents)
            except PFError as error:
                # A mis-evaluating flow fails *closed* — buffered packets
                # are dropped and the error is audited — rather than
                # re-raising, which would leak its pending entry and
                # blackhole the flow.  The block is cached with the
                # normal TTL so a chatty erroring flow does not
                # re-trigger the failure on every packet, yet gets
                # re-evaluated once the policy is fixed.
                self.policy_errors += 1
                self._resolve(
                    task.flow, FAILED_CLOSED, setup_time, cached_as=f"error: {error}",
                    note=f"policy evaluation failed: {error}",
                )
            else:
                self._resolve(
                    task.flow, decision, setup_time, cached_as=decision.rule_text,
                    query_latency=QueryClient.combined_latency(outcomes),
                )
            self.lifecycle.kick()
        if held:
            self._serve_next()

    def _resolve(
        self, flow: FlowSpec, decision: PolicyDecision, setup_time: float, *,
        cached_as: Optional[str], query_latency: float = 0.0, note: str = "",
    ) -> None:
        """Cache, install and audit a pending flow's verdict under a fresh cookie.

        ``decision`` is the policy's, or :data:`FAILED_CLOSED`.  With
        ``cached_as`` the verdict is cached under that rule text (a
        failure's is a negative cache for the TTL); without it the next
        punt re-runs the pipeline.  ``setup_time`` is the punt's, or
        :data:`UNTIMED` when its deadline ran out before a verdict.
        """
        now = self.sim.now
        cookie = f"{self.name}:decision-{next(self._cookie_counter)}"
        action, keep_state = decision.action, decision.keep_state
        if cached_as is not None:
            self.cache.store(flow, action, cookie, now, keep_state=keep_state, rule_text=cached_as)
        pending = self._pop_pending(flow)
        self.installer.apply_verdict(flow, pending, decision.is_pass, cookie, keep_state=keep_state)
        for principal in decision.principals:
            self.delegations.record_use(principal, cookie)
        self.audit.record(
            now, flow, action, decision.rule_text, decision.rule_origin, cookie,
            delegated=decision.delegated, delegation_functions=decision.delegation_functions,
            src_keys=decision.src_keys, dst_keys=decision.dst_keys,
            query_latency=query_latency, note=note, setup_time=setup_time,
        )

    def _pop_pending(self, flow: FlowSpec) -> list[PacketIn]:
        """Claim a flow's buffered punts and retire its task.

        Retiring the task is what supersedes it: any of its
        still-scheduled continuations (a query answer on the wire, a
        queued eval) finds it ``retired`` and discards itself.
        """
        task = self._pending.pop(flow, None)
        if task is None:
            return []
        task.retired = True
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
            self._resolve(
                flow, FAILED_CLOSED, UNTIMED, cached_as=None,
                note="pending decision deadline exceeded; failing closed",
            )
        if earliest is not None:
            self._arm_deadline(earliest - now)

    def on_flow_removed(self, message: FlowRemoved) -> None:
        """One hop lost its entry: the installer unwinds the rest of the path."""
        self.installer.on_flow_removed(message)

    # Cluster hooks: the pending table's handoff and its readings.

    def export_pending(self) -> list[tuple[FlowSpec, list[PacketIn]]]:
        """Hand over every in-flight punted flow (failover handoff).

        Pops the whole pending table and returns ``(flow, punts)`` pairs
        in arrival order so a successor can adopt them.  Flows frozen
        *mid-decision* (answers on the wire, or queued for the serial
        loop) export too: their orphaned continuations find the task
        retired and discard themselves, and the successor re-runs the
        pipeline from the punt.
        """
        exported = [(flow, self._pop_pending(flow)) for flow in list(self._pending)]
        # The handed-off work no longer occupies this decision loop; a
        # restored shard must not serialize new punts behind it.
        self._waiting.clear()
        if self._serving_event is not None:
            self._serving_event.cancel()
        self._serving = self._serving_event = None
        return exported

    def inflight_count(self) -> int:
        """Return how many punted flows await a decision (telemetry's ``{shard}.pending_depth``)."""
        return len(self._pending)

    def serial_depth(self) -> int:
        """Return the serialized loop's queued plus in-service tasks."""
        return len(self._waiting) + (self._serving is not None)

    def resume(self) -> None:
        """Revive a halted controller without stranding its frozen flows.

        The halted inbox (punts the dead process never handled) replays,
        and every still-pending flow gets a fresh fail-closed deadline,
        as if just punted: the ones that fired while halted were swallowed.
        """
        super().resume()
        # The serial loop froze with the process; restart it so the
        # still-queued (non-superseded) work and revived punts are
        # served again instead of stalling behind a dead service slot.
        if self._serving is None:
            self._serve_next()
        for task in self._pending.values():
            self._cover(task)
        for message in self.take_halted_messages():
            self.handle_message(message)
        self.lifecycle.kick()

    def adopt_punt(self, message: PacketIn) -> None:
        """Adopt a punt re-homed from a failed replica into the normal pipeline.

        It comes over this controller's channel to the punting switch
        when that is up (a control round-trip like any punt), else as a
        direct control-plane RPC.
        """
        self.repunts_adopted += 1
        channel = self.channels.get(message.switch.name)
        if channel is not None and channel.connected:
            channel.send_to_controller(message)
        else:
            self.handle_message(message)

    def summary(self) -> dict[str, object]:
        """Return the serial loop's deepest queue (the wall-clock benchmark reads it)."""
        return {"serial_queue": {"max_depth": self._serial_peak}}
