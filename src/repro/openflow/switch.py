"""The OpenFlow switch datapath.

An :class:`OpenFlowSwitch` forwards packets according to its flow table
and punts table misses to its controller over a
:class:`~repro.openflow.channel.ControllerChannel` (§3.1).  It buffers
punted packets so the controller can later release them with a
``packet_out`` or an entry-installing ``flow_mod`` carrying the buffer
id — exactly the Figure 1 sequence.

Three knobs exist for the security and resilience experiments:

* ``fail_mode`` — what to do with a table miss when no controller is
  reachable (``"secure"`` drops, ``"open"`` floods).
* :meth:`mark_compromised` — a compromised switch "lets any traffic pass
  through without regulation" (§5.2); it bypasses the flow table and
  floods every packet.
* :meth:`fail` — a failed (powered-off) switch drops every packet and
  ignores every control message, which is what lets the fabric bench
  prove a mid-path failure fails *closed*: traffic reaching the dead
  hop goes nowhere, and the surviving hops' entries are torn down by
  the controller's path unwinder when their idle timeouts fire.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional, Sequence

from repro.exceptions import OpenFlowError, SimulationError, TopologyError
from repro.netsim.nodes import Node, Port
from repro.netsim.packet import Packet
from repro.netsim.statistics import Counter
from repro.netsim.trace import PacketTrace
from repro.openflow.actions import (
    Action,
    ControllerAction,
    DropAction,
    FloodAction,
    OutputAction,
)
from repro.openflow.channel import ControllerChannel
from repro.openflow.flow_table import FlowEntry, FlowTable
from repro.openflow.messages import (
    ControlMessage,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    PacketIn,
    PacketOut,
)


class OpenFlowSwitch(Node):
    """A flow-table-driven switch."""

    def __init__(
        self,
        name: str,
        *,
        table_capacity: Optional[int] = None,
        fail_mode: str = "secure",
        trace: Optional[PacketTrace] = None,
    ) -> None:
        super().__init__(name)
        if fail_mode not in ("secure", "open"):
            raise OpenFlowError(f"unknown fail mode: {fail_mode!r}")
        self.flow_table = FlowTable(name=f"{name}.flow-table", capacity=table_capacity)
        # Capacity evictions notify the controller like timeouts do, so
        # path-wide installs can be unwound when one hop is squeezed out.
        self.flow_table.evict_listener = (
            lambda entry: self._notify_removed(entry, reason="eviction")
        )
        self.channel: Optional[ControllerChannel] = None
        #: Every control channel this switch holds, by controller name.
        #: Single-controller deployments have exactly one entry (also
        #: exposed as :attr:`channel`); a sharded cluster registers one
        #: channel per replica and installs a :attr:`shard_router`.
        self.channels: dict[str, ControllerChannel] = {}
        # Maps a punted packet to the preference-ordered controller names
        # that should decide it (owner shard first, then successors).
        self.shard_router: Optional[Callable[[Packet], Iterable[str]]] = None
        self.fail_mode = fail_mode
        self.trace = trace
        self.compromised = False
        self.failed = False
        self._recovery_listeners: list[Callable[[], None]] = []
        self._buffered: dict[int, tuple[Packet, int]] = {}
        self.punts = Counter(f"{name}.punts")

    # ------------------------------------------------------------------
    # Control plane
    # ------------------------------------------------------------------

    def set_channel(self, channel: ControllerChannel) -> None:
        """Attach a control channel (done by ``Controller.register_switch``).

        The most recently attached channel doubles as the default
        :attr:`channel`; every attached channel stays reachable through
        :attr:`channels` for shard routing.
        """
        self.channel = channel
        self.channels[channel.controller.name] = channel

    def set_shard_router(self, router: Optional[Callable[[Packet], Iterable[str]]]) -> None:
        """Install (or clear) the punt router used with multiple channels.

        ``router(packet)`` returns controller names in preference order;
        the switch punts to the first one whose channel is connected, so
        a dropped channel re-homes new punts to the successor on the
        spot.
        """
        self.shard_router = router

    def punt_channel(self, packet: Packet) -> Optional[ControllerChannel]:
        """Return the connected control channel that should decide ``packet``."""
        if self.shard_router is not None and self.channels:
            for name in self.shard_router(packet):
                channel = self.channels.get(name)
                if channel is not None and channel.connected:
                    return channel
            return None
        if self.channel is not None and self.channel.connected:
            return self.channel
        return None

    def handle_message(self, message: ControlMessage) -> None:
        """Process a controller → switch message."""
        if self.failed:
            # A dead switch's control socket is gone; messages addressed
            # to it (flow mods, path unwind deletes) simply vanish.
            return
        kind = message.__class__
        if kind is PacketOut:
            self._handle_packet_out(message)
            return
        if kind is not FlowMod:
            raise OpenFlowError(f"switch {self.name} cannot handle {kind.__name__}")
        command = message.command
        if command in FlowModCommand.DELETES:
            # A cookie on a delete scopes it to that decision's entries
            # (OpenFlow 1.1+ cookie filter) — how the controller unwinds
            # one flow's path without touching co-resident entries.
            self.flow_table.remove(
                message.match, strict=command == FlowModCommand.DELETE_STRICT,
                cookie=message.cookie if message.cookie else None,
            )
            return
        entry = FlowEntry(
            message.match, message.actions, message.priority,
            message.idle_timeout, message.hard_timeout, message.cookie,
        )
        sim = self.sim
        now = sim.now if sim is not None else 0.0
        self.flow_table.install(entry, now)
        if message.buffer_id is not None:
            self._release_buffer(message.buffer_id, entry.actions, now)

    def _handle_packet_out(self, message: PacketOut) -> None:
        sim = self.sim
        now = sim.now if sim is not None else 0.0
        if message.buffer_id is not None:
            self._release_buffer(message.buffer_id, tuple(message.actions), now)
            return
        if message.packet is None:
            raise OpenFlowError("PacketOut carries neither a buffer id nor a packet")
        self._apply_actions(message.packet, tuple(message.actions), message.in_port, now)

    def _release_buffer(self, buffer_id: int, actions: tuple[Action, ...], now: float) -> None:
        buffered = self._buffered.pop(buffer_id, None)
        if buffered is None:
            return
        packet, in_port = buffered
        self._apply_actions(packet, actions, in_port, now)

    def buffered_count(self) -> int:
        """Return how many punted packets are still waiting for a controller verdict."""
        return len(self._buffered)

    def sweep_expired(self, now: float) -> int:
        """Expire timed-out flow entries and notify the controller.

        A switch normally ages its table as a side effect of traffic
        (:meth:`receive`); an idle switch never does, which is what lets
        dead entries pin memory forever.  The controller's lifecycle
        service calls this periodically so reclamation does not depend on
        packets arriving.  Returns how many entries were removed.
        """
        if self.failed:
            # A dead switch sweeps nothing and notifies nobody.
            return 0
        expired = self.flow_table.expire(now)
        for entry in expired:
            self._notify_removed(entry)
        return len(expired)

    def reclaimable_entries(self) -> int:
        """Return how many entries a future :meth:`sweep_expired` could remove.

        Zero while failed: a dead switch sweeps nothing, so its timed
        entries must not keep a sweep scheduler polling (an unbounded
        ``Simulator.run()`` would never drain).  :meth:`recover` tells the
        schedulers when there is something to sweep again.
        """
        return 0 if self.failed else self.flow_table.expirable_count()

    def add_recovery_listener(self, listener: Callable[[], None]) -> None:
        """Call ``listener()`` whenever the switch comes back from :meth:`fail`."""
        self._recovery_listeners.append(listener)

    # ------------------------------------------------------------------
    # Datapath
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: Port) -> None:
        """Forward, drop or punt an arriving packet."""
        sim = self.sim
        now = sim.now if sim is not None else 0.0
        if self.failed:
            # A powered-off switch forwards nothing: traffic sent into a
            # mid-path failure dies here (fail closed), never reaching
            # downstream hops whose entries may still be draining.
            self._record(now, "drop", packet, "switch failed")
            return
        if self.compromised:
            # §5.2: a compromised switch passes traffic without regulation.
            self._record(now, "forward", packet, "compromised switch floods")
            self.flood(packet, exclude=in_port)
            return
        table = self.flow_table
        if now >= table.expire_from:
            for expired in table.expire(now):
                self._notify_removed(expired)
        entry = table.lookup(packet, in_port.number, now)
        if entry is None:
            self._handle_table_miss(packet, in_port, now)
            return
        actions = entry.actions
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.record(now, self.name, "hit", packet, entry.cookie)
        elif len(actions) == 1 and actions[0].__class__ is OutputAction:
            # The form every installed pass takes.  Port.send and
            # Link.transmit, inline: the packet goes to the out-port's
            # link in this frame, with every check they make.
            port = self._ports.get(actions[0].port)
            if port is not None:  # an unknown port raises, below
                link = port.link
                if link is None:
                    return  # an un-wired port has no carrier
                if port is link.port_a:
                    destination = link.port_b
                elif port is link.port_b:
                    destination = link.port_a
                else:
                    raise TopologyError(f"port {port.name} is not an endpoint of link {link.name}")
                if not link.up or (link.loss_filter is not None and link.loss_filter(packet)):
                    return
                size = packet._wire_size
                if size is None:
                    size = packet.wire_size()
                link.carried_bytes += size
                sim = destination.node.sim or sim
                if sim is None:
                    raise SimulationError(
                        f"link {link.name} cannot deliver: neither endpoint is attached "
                        f"to a simulator"
                    )
                delay = link.latency
                if link.bandwidth is not None:
                    delay += size * 8.0 / link.bandwidth
                sim.deliver(
                    delay, destination, destination.deliver, packet, label=link.deliver_label
                )
                return
        self._apply_actions(packet, actions, in_port.number, now)

    def _handle_table_miss(self, packet: Packet, in_port: Port, now: float) -> None:
        channel = self.punt_channel(packet)
        if channel is not None:
            message = PacketIn(self, packet, in_port.number)
            self._buffered[message.buffer_id] = (packet, in_port.number)
            self.punts.value += 1
            self._record(now, "punt", packet, channel.controller.name)
            channel.send_to_controller(message)
            return
        if self.fail_mode == "open":
            self._record(now, "forward", packet, "fail-open flood")
            self.flood(packet, exclude=in_port)
        else:
            self._record(now, "drop", packet, "fail-secure, no controller")

    def _apply_actions(
        self,
        packet: Packet,
        actions: Sequence[Action],
        in_port: Optional[int],
        now: float,
    ) -> None:
        """Apply an action list; ``now`` is the caller's one clock reading."""
        # With no capture running, this test is all a packet pays for the trace.
        trace = self.trace
        if trace is not None and not trace.enabled:
            trace = None
        ports = self._ports
        acted = False
        for action in actions:
            kind = action.__class__
            if kind is OutputAction:
                acted = True
                if trace is not None:
                    trace.record(now, self.name, "forward", packet, f"port {action.port}")
                # A Port is always true; an unknown number raises PortError.
                (ports.get(action.port) or self.port(action.port)).send(packet)
            elif kind is DropAction:
                continue
            elif kind is FloodAction:
                acted = True
                # Only a flood needs the ingress Port; an unknown one
                # (entry installed before a rewire) just means the flood
                # cannot exclude it.
                exclude = ports.get(in_port) if in_port is not None else None
                if trace is not None:
                    trace.record(now, self.name, "forward", packet, "flood")
                self.flood(packet, exclude=exclude)
            elif kind is ControllerAction:
                acted = True
                channel = self.punt_channel(packet)
                if channel is not None:
                    ingress = in_port if in_port is not None else 0
                    message = PacketIn(
                        switch=self, packet=packet, in_port=ingress, reason="action"
                    )
                    self._buffered[message.buffer_id] = (packet, ingress)
                    self.punts.value += 1
                    if trace is not None:
                        trace.record(now, self.name, "punt", packet, channel.controller.name)
                    channel.send_to_controller(message)
            else:
                raise OpenFlowError(f"switch {self.name} cannot apply {kind.__name__}")
        if not acted and trace is not None:
            # An empty list, or nothing but explicit drops.
            trace.record(now, self.name, "drop", packet)

    def _notify_removed(self, entry: FlowEntry, *, reason: str = "idle_timeout") -> None:
        """Tell the control plane a hop lost ``entry``.

        The notice goes on the first connected channel, in attach order:
        a cluster's replicas share one path registry, so whichever
        replica receives it can unwind the path.
        """
        if self.failed:
            return
        for channel in self.channels.values():
            if channel.connected:
                channel.send_to_controller(FlowRemoved(self, entry.match, entry.cookie, reason))
                return

    # ------------------------------------------------------------------
    # Security harness hooks
    # ------------------------------------------------------------------

    def mark_compromised(self) -> None:
        """Put the switch in the §5.2 compromised state (unregulated forwarding)."""
        self.compromised = True

    def restore(self) -> None:
        """Undo :meth:`mark_compromised`."""
        self.compromised = False

    def fail(self) -> None:
        """Power the switch off: every packet is dropped, every control
        message is ignored, and no expiry is ever notified.

        Unlike :meth:`mark_compromised` (which forwards *everything*),
        a failed switch forwards *nothing* — the mid-path failure mode
        the fabric bench gates on.
        """
        self.failed = True

    def recover(self) -> None:
        """Power a failed switch back on.

        The flow table comes back as it was at failure time; entries
        whose timeouts elapsed meanwhile expire on the next packet or
        sweep, and the resulting ``FlowRemoved`` messages let the
        controller unwind any path state still referencing this hop.
        Sweep schedulers that went quiet over the dead switch are woken,
        so an idle network still gets that sweep.
        """
        self.failed = False
        for listener in self._recovery_listeners:
            listener()

    def _record(self, now: float, event: str, packet: Packet, note: str = "") -> None:
        """Capture one step off the per-hop path (misses, failed and
        compromised switches); hits and action lists test the capture inline."""
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.record(now, self.name, event, packet, note)

    def __repr__(self) -> str:
        return f"OpenFlowSwitch({self.name!r}, entries={len(self.flow_table)})"
