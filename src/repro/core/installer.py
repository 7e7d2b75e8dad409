"""The path installer (§3.4): the controller decides, this puts it "along the path".

A *pass* is installed on every managed hop of the flow's path (and the
reverse path for ``keep state``) and the buffered punts are released; a
*block* caches the drop at the flow's **first** enforcement hop only.
Multi-hop installs are registered per decision cookie, so a
``FlowRemoved`` from *any* hop unwinds the rest and one flow's path
state lives and dies as a unit; a failover hands the registry to
another replica.  Every message goes out through the owning
controller's ``install_flow``, ``send_packet_out`` and
``remove_flows_by_cookie``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional, Sequence

from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec
from repro.netsim.nodes import Node
from repro.openflow.actions import DropAction, FloodAction, OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowRemoved, PacketIn
from repro.openflow.switch import OpenFlowSwitch

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.controller import IdentPPController

#: Flow-entry priorities, quarantine > flow > drop.  Quarantine drops must
#: outrank already-installed pass entries, or a quarantined host's live
#: flows keep flowing.
QUARANTINE_PRIORITY = 200
FLOW_PRIORITY = 100
DROP_PRIORITY = 90

#: What releases a buffered punt of a switch the path does not cross.
_FLOOD = (FloodAction(),)


@dataclass(frozen=True)
class PathInstall:
    """The datapath footprint of one multi-hop decision (§3.4).

    Records which switches hold flow entries for a decision cookie, so
    a ``FlowRemoved`` from any one hop can unwind the others and a
    failover can re-home the unwinding duty to a live replica.
    """

    flow: FlowSpec
    switches: tuple[str, ...]
    #: How many entries the decision put on each of ``switches``; empty
    #: when unknown (a re-installed cookie, an install adopted without
    #: counts), which makes the unwind delete on every hop.
    entries: tuple[int, ...] = ()


class PathInstaller:
    """One controller's datapath programming and its path registry.

    The registry maps a decision cookie to the :class:`PathInstall` of a
    decision whose entries span more than one switch; ``cookie in
    installer`` and ``len(installer)`` read it.  ``unwinds`` counts the
    paths a ``FlowRemoved`` tore down.
    """

    def __init__(self, controller: "IdentPPController") -> None:
        self._controller = controller
        self._installs: dict[str, PathInstall] = {}
        self.unwinds = 0
        # (source node, destination node) -> the managed hops of the
        # path between them (see _hop_plan); valid for one topology
        # mutation epoch and one channel set, bounded by node pairs.
        self._hop_plans: dict[tuple[Node, Node], tuple] = {}
        self._hop_plans_epoch = -1

    def forget_plans(self) -> None:
        """Drop every hop plan: the set of managed switches changed."""
        self._hop_plans.clear()

    # ------------------------------------------------------------------
    # Datapath programming
    # ------------------------------------------------------------------

    def apply_verdict(
        self,
        flow: FlowSpec,
        pending: Sequence[PacketIn],
        allowed: bool,
        cookie: str,
        *,
        keep_state: bool,
        from_cache: bool = False,
    ) -> None:
        """Put one verdict on the datapath and release the flow's buffered punts."""
        if allowed:
            self._install_path(
                flow, pending, cookie, keep_state=keep_state, reinstall=from_cache
            )
            return
        controller = self._controller
        config = controller.config
        drop_match = Match.from_five_tuple(
            flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
        )
        # A chatty blocked flow refreshes the idle timer forever; the hard
        # cap keeps the datapath's negative cache from outliving the
        # controller cache, so the flow is re-evaluated after a policy change.
        entry = dict(
            priority=DROP_PRIORITY, idle_timeout=config.idle_timeout,
            hard_timeout=config.decision_ttl, cookie=cookie,
        )
        # Drop-at-first-hop: a fresh denial is enforced at the flow's
        # ingress switch only.  Packets stopped there never reach the
        # rest of the path, so caching the block mid-path would burn k-1
        # table entries per denial for nothing.  A *repeat* punt (cache
        # hit) proves the punting switch does keep seeing the flow —
        # flooding, a fail-open neighbour, an expired ingress entry — so
        # it earns a drop entry of its own, bounding the punt stream to
        # one per switch instead of one per packet.
        ingress = None if from_cache else self._first_enforcement_hop(flow)
        ingress_covered = False
        for message in pending:
            if from_cache or ingress is None or message.switch.name == ingress.name:
                if ingress is not None:
                    ingress_covered = True
                controller.install_flow(
                    message.switch, drop_match, [DropAction()],
                    buffer_id=message.buffer_id, **entry,
                )
            else:
                # A mid-path switch punted (its hop entry expired out of
                # step with the ingress one): release its buffer to drop
                # without installing an entry there.
                controller.send_packet_out(
                    message.switch,
                    actions=[DropAction()],
                    buffer_id=message.buffer_id,
                    in_port=message.in_port,
                )
        if ingress is not None and not ingress_covered:
            controller.install_flow(ingress, drop_match, [DropAction()], **entry)

    def _hop_plan(self, flow: FlowSpec) -> tuple:
        """Return the managed hops of the flow's path, planned once per endpoint pair.

        One ``(switch, forward actions, reverse actions)`` per managed
        switch, in path order; the forward actions are ``None`` on a
        hop with no next node, the reverse actions on one with no
        previous node.  Empty when an endpoint is unknown or
        no path exists (partition, failed fabric): the caller falls back
        to first-hop-only handling.  A plan depends on connectivity and
        on which switches the controller manages, so the memo is
        dropped whenever either changes.
        """
        topology = self._controller.topology
        source = topology.node_for_ip(flow.src_ip)
        destination = topology.node_for_ip(flow.dst_ip)
        if source is None or destination is None:
            return ()
        if self._hop_plans_epoch != topology.mutation_epoch:
            self._hop_plans.clear()
            self._hop_plans_epoch = topology.mutation_epoch
        plan = self._hop_plans.get((source, destination))
        if plan is None:
            plan = self._hop_plans[(source, destination)] = self._plan_hops(source, destination)
        return plan

    def _plan_hops(self, source: Node, destination: Node) -> tuple:
        topology = self._controller.topology
        try:
            path = topology.shortest_path(source, destination)
        except TopologyError:
            # No path is an expected topology answer.  Anything else — a
            # programming error — must propagate, not be swallowed.
            return ()
        egress_port = topology.egress_port
        channels = self._controller.channels
        hops = []
        for index, node in enumerate(path):
            if not isinstance(node, OpenFlowSwitch) or node.name not in channels:
                continue
            forward = reverse = None
            if index + 1 < len(path):
                forward = (OutputAction(egress_port(node, path[index + 1]).number),)
            if index > 0:
                reverse = (OutputAction(egress_port(node, path[index - 1]).number),)
            hops.append((node, forward, reverse))
        return tuple(hops)

    def _install_path(
        self,
        flow: FlowSpec,
        pending: Sequence[PacketIn],
        cookie: str,
        *,
        keep_state: bool,
        reinstall: bool,
    ) -> None:
        """Install a pass verdict along the path and release the buffered punts.

        Every planned hop gets a forward entry and, for ``keep state``,
        a reverse one.  A hop that punted releases its buffer through
        its own forward FlowMod; a PacketOut is only sent where no
        FlowMod can carry the buffer: a punting switch that is not on
        the path (flood), the second and later buffers of one hop, and
        every punt when nothing is installed.
        """
        controller = self._controller
        plan = self._hop_plan(flow)
        forward_by_switch: dict[str, tuple] = {}
        carried: set[int] = set()
        if plan:
            config = controller.config
            idle_timeout = config.idle_timeout
            hard_timeout = config.hard_timeout
            install_flow = controller.install_flow
            match = Match.from_five_tuple(
                flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
            )
            reverse_match = Match.from_five_tuple(
                flow.dst_ip, flow.src_ip, flow.proto, flow.dst_port, flow.src_port
            ) if keep_state else None
            # Switch name -> its first buffered punt.
            waiting = {message.switch.name: message for message in reversed(pending)}
            installed: dict[str, int] = {}
            for switch, forward, reverse in plan:
                name = switch.name
                count = 0
                if forward is not None:
                    forward_by_switch[name] = forward
                    message = waiting.get(name)
                    if message is not None:
                        carried.add(message.buffer_id)
                    install_flow(
                        switch, match, forward, priority=FLOW_PRIORITY,
                        idle_timeout=idle_timeout, hard_timeout=hard_timeout, cookie=cookie,
                        buffer_id=None if message is None else message.buffer_id,
                    )
                    count = 1
                if keep_state and reverse is not None:
                    install_flow(
                        switch, reverse_match, reverse, priority=FLOW_PRIORITY,
                        idle_timeout=idle_timeout, hard_timeout=hard_timeout, cookie=cookie,
                    )
                    count += 1
                if count:
                    installed[name] = count
            if len(installed) > 1:
                # Single-switch installs need no unwinding; multi-hop ones
                # are registered so the first FlowRemoved tears down the
                # rest.  A cookie installed again (decision-cache hit)
                # records no counts: a FlowRemoved of its earlier entries
                # may still be in flight, and skipping the reporter would
                # strand the fresh entry there.
                names = tuple(sorted(installed))
                self._installs[cookie] = PathInstall(
                    flow=flow,
                    switches=names,
                    entries=() if reinstall else tuple(installed[name] for name in names),
                )
        for message in pending:
            if message.buffer_id not in carried:
                controller.send_packet_out(
                    message.switch,
                    actions=forward_by_switch.get(message.switch.name, _FLOOD),
                    buffer_id=message.buffer_id,
                    in_port=message.in_port,
                )

    def _first_enforcement_hop(self, flow: FlowSpec) -> Optional[OpenFlowSwitch]:
        """Return the first managed switch on the flow's path (its ingress hop)."""
        plan = self._hop_plan(flow)
        return plan[0][0] if plan else None

    # ------------------------------------------------------------------
    # Path-wide teardown (one hop's expiry unwinds the whole path)
    # ------------------------------------------------------------------

    def on_flow_removed(self, message: FlowRemoved) -> None:
        """Unwind the rest of a multi-hop install when any hop loses its entry.

        A flow entry disappearing from one hop — idle timeout, hard
        timeout, capacity eviction, a lifecycle sweep — means the path
        no longer forwards end to end, so the entries still resident on
        the other hops are dead weight at best and, after rerouting, a
        correctness hazard.  The first ``FlowRemoved`` for a registered
        cookie tears the remaining hops down with cookie-scoped deletes
        (silent by OpenFlow semantics: explicit deletes do not generate
        further ``FlowRemoved``, so teardown cannot cascade).  The
        reporting switch is deleted-from too when it may still hold the
        decision's *other* entry (a ``keep state`` reverse entry whose
        twin idle-expired first): path state must die as a unit.  Only
        a reporter known to have held exactly one entry is skipped — it
        just said that entry is gone.
        """
        cookie = message.cookie
        install = self._installs.pop(cookie, None)
        if install is None:
            return
        self.unwinds += 1
        controller = self._controller
        reporter = message.switch.name
        # Unknown counts make the zip empty: then nothing is skipped.
        spent = (reporter, 1) in zip(install.switches, install.entries)
        for name in install.switches:
            if spent and name == reporter:
                continue
            channel = controller.channels.get(name)
            if channel is not None and channel.connected:
                controller.remove_flows_by_cookie(name, cookie)

    # ------------------------------------------------------------------
    # The registry's verbs (failover, restore, revocation)
    # ------------------------------------------------------------------

    def export(self, prefix: str = "") -> list[tuple[str, PathInstall]]:
        """Hand over the registered installs whose cookie starts with ``prefix``.

        The failover drains the whole registry (the default); a restore
        reclaims exactly the revived shard's own decisions by their
        cookie prefix.  Exported installs are removed here — exactly one
        controller must own each unwind.
        """
        items = sorted(
            (cookie, install)
            for cookie, install in self._installs.items()
            if cookie.startswith(prefix)
        )
        for cookie, _ in items:
            del self._installs[cookie]
        return items

    def adopt(self, items: Sequence[tuple[str, PathInstall]]) -> None:
        """Take over unwinding duty for another replica's multi-hop installs.

        Used by the cluster failover (a dead shard cannot hear
        ``FlowRemoved``) and by restore (the revived owner reclaims its
        own cookies).
        """
        for cookie, install in items:
            self._installs[cookie] = install

    def discard(self, cookie: str) -> bool:
        """Forget a cookie's registry entry without touching switches.

        The decision's entries are already gone from every switch
        (revocation deletes them silently, so no ``FlowRemoved`` will
        ever arrive): a later ``FlowRemoved`` must not re-tear the path,
        and any *other* replica holding unwind duty for the cookie — a
        failover adopter, or the owner on resync replay — must drop the
        stale entry or it leaks forever.
        """
        return self._installs.pop(cookie, None) is not None

    def __contains__(self, cookie: object) -> bool:
        return cookie in self._installs

    def __len__(self) -> int:
        return len(self._installs)
