"""Controller base class.

The OpenFlow mechanics of a controller: owning control channels to a
set of switches, receiving ``packet_in`` / ``flow_removed`` messages and
answering with ``flow_mod`` / ``packet_out``.  The one subclass is the
ident++ controller (:mod:`repro.core.controller_base` and its punt
pipeline, :mod:`repro.core.controller`), which every architecture runs
on: a baseline of :mod:`repro.baselines` is a decider in its ``policy``
slot, not a controller of its own.
"""

from __future__ import annotations

from collections import deque
from typing import Optional, Sequence

from repro.exceptions import ChannelError, OpenFlowError
from repro.netsim.events import Simulator
from repro.openflow.actions import Action
from repro.openflow.channel import ControllerChannel
from repro.openflow.flow_table import DEFAULT_PRIORITY
from repro.openflow.match import Match
from repro.openflow.messages import (
    ControlMessage,
    FlowMod,
    FlowModCommand,
    FlowRemoved,
    PacketIn,
    PacketOut,
)
from repro.openflow.switch import OpenFlowSwitch

#: The match of every cookie-scoped delete: the cookie does the scoping.
_ANY = Match()


class Controller:
    """Base class for OpenFlow controllers.

    Subclasses implement :meth:`on_packet_in`; everything else (switch
    registration, message dispatch, flow-mod helpers, statistics) is
    provided here.
    """

    def __init__(self, name: str = "controller") -> None:
        self.name = name
        # The name the event labels were last built for (tests and
        # clusters rename controllers after construction).
        self._labelled_name: Optional[str] = None
        self.sim: Optional[Simulator] = None
        self.channels: dict[str, ControllerChannel] = {}
        self.packet_ins = 0
        self.compromised = False
        self.halted = False
        # Messages that arrived while halted (the dead process's socket
        # backlog); a failover monitor drains them to a successor.
        self._halted_inbox: list[ControlMessage] = []
        # Opt-in non-blocking inbox: with this set (and a simulator
        # attached), incoming messages are queued and drained by a
        # same-instant scheduled event instead of being handled inside
        # the channel's delivery call — a slow handler never blocks the
        # delivery path, and handlers observe a consistent "all arrivals
        # first, then dispatch" order within an instant.
        self.nonblocking_inbox = False
        self._inbox: deque[ControlMessage] = deque()
        self._drain_scheduled = False

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def attach(self, sim: Simulator) -> None:
        """Bind the controller to a simulator clock."""
        self.sim = sim

    def _relabel(self) -> None:
        """Build the event labels: once per controller name, not once per event."""
        name = self._labelled_name = self.name
        self._inbox_label = f"{name}:inbox"

    @property
    def now(self) -> float:
        """Return the current simulated time (0.0 when detached)."""
        return self.sim.now if self.sim is not None else 0.0

    def register_switch(self, switch: OpenFlowSwitch) -> ControllerChannel:
        """Create the control channel to ``switch`` and remember it."""
        if switch.name in self.channels:
            raise ChannelError(f"switch {switch.name} already registered with {self.name}")
        if self.sim is None and switch.sim is not None:
            self.sim = switch.sim
        channel = ControllerChannel(switch, self)
        switch.set_channel(channel)
        self.channels[switch.name] = channel
        return channel

    def switches(self) -> list[OpenFlowSwitch]:
        """Return the registered switches in name order."""
        return [self.channels[name].switch for name in sorted(self.channels)]

    def channel_for(self, switch: OpenFlowSwitch | str) -> ControllerChannel:
        """Return the control channel for a switch (by object or name).

        The send helpers look the channel up inline and call this only
        to raise for an unregistered switch.
        """
        name = switch if isinstance(switch, str) else switch.name
        try:
            return self.channels[name]
        except KeyError as exc:
            raise ChannelError(f"switch {name} is not registered with controller {self.name}") from exc

    # ------------------------------------------------------------------
    # Message dispatch
    # ------------------------------------------------------------------

    def handle_message(self, message: ControlMessage) -> None:
        """Dispatch a switch → controller message to the right handler."""
        if self.halted:
            # A crashed controller cannot process anything; keep the
            # message so a failover can hand it to a live replica.
            self._halted_inbox.append(message)
            return
        if self.nonblocking_inbox and self.sim is not None:
            self._inbox.append(message)
            if not self._drain_scheduled:
                self._drain_scheduled = True
                if self.name is not self._labelled_name:
                    self._relabel()
                self.sim.schedule(0.0, self._drain_inbox, label=self._inbox_label)
            return
        self._dispatch(message)

    def _drain_inbox(self) -> None:
        """Drain the non-blocking inbox (one scheduled event per burst)."""
        self._drain_scheduled = False
        while self._inbox:
            message = self._inbox.popleft()
            if self.halted:
                # The process died between arrival and dispatch; the
                # backlog belongs to the failover handoff.
                self._halted_inbox.append(message)
                continue
            self._dispatch(message)

    def _dispatch(self, message: ControlMessage) -> None:
        kind = message.__class__
        if kind is PacketIn:
            self.packet_ins += 1
            self.on_packet_in(message)
        elif kind is FlowRemoved:
            self.on_flow_removed(message)
        else:
            raise OpenFlowError(f"controller {self.name} cannot handle {type(message).__name__}")

    def on_packet_in(self, message: PacketIn) -> None:
        """Handle an unmatched packet.  Subclasses must override."""
        raise NotImplementedError

    def on_flow_removed(self, message: FlowRemoved) -> None:
        """Handle a flow-expiry notification (default: ignore)."""

    # ------------------------------------------------------------------
    # Controller → switch helpers
    # ------------------------------------------------------------------

    def install_flow(
        self,
        switch: OpenFlowSwitch | str,
        match: Match,
        actions: Sequence[Action],
        *,
        priority: int = DEFAULT_PRIORITY,
        idle_timeout: float = 0.0,
        hard_timeout: float = 0.0,
        cookie: str = "",
        buffer_id: Optional[int] = None,
    ) -> FlowMod:
        """Send a flow-mod installing a cached decision on ``switch``."""
        message = FlowMod(
            match, tuple(actions), FlowModCommand.ADD, priority, idle_timeout, hard_timeout,
            cookie, buffer_id,
        )
        (
            self.channels.get(getattr(switch, "name", switch))
            or self.channel_for(switch)
        ).send_to_switch(message)
        return message

    def remove_flows_by_cookie(self, switch: OpenFlowSwitch | str, cookie: str) -> FlowMod:
        """Send a wildcard delete scoped to one decision's ``cookie``.

        Removes every entry the decision installed on ``switch`` and
        nothing else — the message the path unwinder sends to the other
        hops when a ``FlowRemoved`` reports one hop's entry gone.
        """
        message = FlowMod(match=_ANY, command=FlowModCommand.DELETE, cookie=cookie)
        (
            self.channels.get(getattr(switch, "name", switch))
            or self.channel_for(switch)
        ).send_to_switch(message)
        return message

    def send_packet_out(
        self,
        switch: OpenFlowSwitch | str,
        *,
        actions: Sequence[Action],
        buffer_id: Optional[int] = None,
        in_port: Optional[int] = None,
    ) -> PacketOut:
        """Release a buffered packet on ``switch``."""
        message = PacketOut(actions=tuple(actions), buffer_id=buffer_id, in_port=in_port)
        (
            self.channels.get(getattr(switch, "name", switch))
            or self.channel_for(switch)
        ).send_to_switch(message)
        return message

    # ------------------------------------------------------------------
    # Failure harness hooks
    # ------------------------------------------------------------------

    def halt(self) -> None:
        """Model a crashed controller process.

        A halted controller neither processes nor emits messages; its
        in-flight state (pending punts, scheduled decisions) freezes in
        place until a failover exports it or :meth:`resume` revives the
        replica.
        """
        self.halted = True

    def resume(self) -> None:
        """Bring a halted controller back (its frozen state thaws as-is)."""
        self.halted = False

    def take_halted_messages(self) -> list[ControlMessage]:
        """Drain the messages that arrived while halted (failover handoff).

        Messages still sitting in the non-blocking inbox — delivered
        before the crash but never dispatched — are part of the dead
        process's backlog too, and come first (they arrived first).
        """
        backlog = list(self._inbox) + self._halted_inbox
        self._inbox.clear()
        self._halted_inbox = []
        return backlog

    # ------------------------------------------------------------------
    # Security harness hook
    # ------------------------------------------------------------------

    def mark_compromised(self) -> None:
        """Mark the controller attacker-controlled (§5.1: all protection is disabled)."""
        self.compromised = True

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r}, switches={len(self.channels)})"
