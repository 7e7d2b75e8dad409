"""The per-hop path before a flow-table hit was one step, and before deliveries shared.

Two references, each the code as it stood, for two differentials:

* **The hit path** (``tests/test_hit_path_reference.py``).
  ``OpenFlowSwitch.receive`` enters lazy expiry on every packet — the
  ``FlowTable.expire`` that asks the deadline heap for its earliest
  record — and applies every hit's actions through ``_apply_actions``,
  ``Port.send`` and ``Link.transmit``, which asks ``Packet.wire_size()``
  for the size and schedules a ``Port.deliver`` bound afresh per packet;
  ``EndHost.receive`` compares addresses through ``IPv4Address.__ne__``.
  :func:`use_reference_hit_path` swaps these in on the real classes.
* **One event per delivery** (``tests/test_shared_delivery.py``).
  ``Link.transmit`` and ``ControllerChannel.send_to_controller`` /
  ``send_to_switch`` as they stood before a delivery could ride the
  previous same-instant delivery of its link or channel direction
  (``Simulator.deliver``): each packet or control message is its own
  ``Simulator.schedule`` call, so its own event, heap record and
  sequence number.  The per-packet counters those methods also kept and
  nothing read (``Link.tx_packets``, a link drop count) are left out, as
  is the reply-address stamp of the since-removed port-statistics
  request.  :class:`ReferenceLink` and :class:`ReferenceChannel` carry
  these methods, so one test can hold a sharing world and a reference
  world side by side; :func:`use_reference_delivery` swaps them in, on
  top of the reference hit path (a switch forwards through
  ``Link.transmit`` there), so any network — a whole ``IdentPPNetwork``
  — can be run both ways and compared.

In both, the link's byte count is the plain ``int`` it is now and the
delivery label is the link's ``deliver_label``; every other line is the
original.  Nothing here is importable from ``src/`` and nothing outside
the tests may use it.
"""

from __future__ import annotations

import contextlib
import math
from typing import Iterator, Optional, Sequence

from repro.exceptions import OpenFlowError, SimulationError
from repro.hosts.endhost import EndHost
from repro.netsim.events import Simulator
from repro.netsim.links import Link
from repro.netsim.nodes import Port
from repro.netsim.packet import Packet
from repro.openflow.actions import (
    Action,
    ControllerAction,
    DropAction,
    FloodAction,
    OutputAction,
)
from repro.openflow.channel import ControllerChannel
from repro.openflow.flow_table import (
    _AHEAD,
    _AHEAD_MARGIN,
    FlowEntry,
    FlowTable,
    _deadline,
    _installation_order,
)
from repro.openflow.messages import ControlMessage, PacketIn
from repro.openflow.switch import OpenFlowSwitch

# ----------------------------------------------------------------------
# The hit path
# ----------------------------------------------------------------------


def receive(self: OpenFlowSwitch, packet: Packet, in_port: Port) -> None:
    """Forward, drop or punt an arriving packet."""
    sim = self.sim
    now = sim.now if sim is not None else 0.0
    if self.failed:
        self._record(now, "drop", packet, "switch failed")
        return
    if self.compromised:
        self._record(now, "forward", packet, "compromised switch floods")
        self.flood(packet, exclude=in_port)
        return
    table = self.flow_table
    for expired in table.expire(now):
        self._notify_removed(expired)
    entry = table.lookup(packet, in_port.number, now=now)
    if entry is not None:
        trace = self.trace
        if trace is not None and trace.enabled:
            trace.record(now, self.name, "hit", packet, entry.cookie)
        self._apply_actions(packet, entry.actions, in_port.number, now)
        return
    self._handle_table_miss(packet, in_port, now)


def _apply_actions(
    self: OpenFlowSwitch,
    packet: Packet,
    actions: Sequence[Action],
    in_port: Optional[int],
    now: float,
) -> None:
    """Apply an action list; ``now`` is the caller's one clock reading."""
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
            (ports.get(action.port) or self.port(action.port)).send(packet)
        elif kind is DropAction:
            continue
        elif kind is FloodAction:
            acted = True
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
                self.punts.increment()
                if trace is not None:
                    trace.record(now, self.name, "punt", packet, channel.controller.name)
                channel.send_to_controller(message)
        else:
            raise OpenFlowError(f"switch {self.name} cannot apply {kind.__name__}")
    if not acted and trace is not None:
        trace.record(now, self.name, "drop", packet)


def expire(self: FlowTable, now: float) -> list[FlowEntry]:
    """Remove and return entries whose timeouts have elapsed, oldest first."""
    deadlines = self._deadlines
    due = deadlines.next_due()
    if due is None or due > now * _AHEAD + _AHEAD_MARGIN:
        return []
    horizon = math.nextafter(math.nextafter(now, math.inf), math.inf)
    if due > horizon:
        return []
    expired: list[FlowEntry] = []
    alive: list[FlowEntry] = []
    for sequence, _ in deadlines.pop_due(horizon):
        entry = self._by_sequence.get(sequence)
        if entry is not None:
            (expired if entry.is_expired(now) else alive).append(entry)
    for entry in alive:
        due = _deadline(entry)
        deadlines.push(due, entry.sequence, due)
    if expired:
        expired.sort(key=_installation_order)
        self._discard(expired)
        self.expirations += len(expired)
    return expired


def send(self: Port, packet: Packet) -> bool:
    """Transmit a packet out of this port; ``False`` when the port is un-wired."""
    link = self.link
    if link is None:
        return False
    link.transmit(packet, self)
    return True


def deliver(self: Port, packet: Packet) -> None:
    """Called by the attached link when a packet arrives at this port."""
    self.node.receive(packet, self)


# Named as the method it was: the sanitizer's trace hash reads the name
# of every event's callback.
deliver.__qualname__ = "Port.deliver"


def transmit_shared(self: Link, packet: Packet, from_port: Port) -> None:
    """Send a packet from one endpoint toward the other, riding a shared delivery."""
    if from_port is self.port_a:
        destination = self.port_b
    elif from_port is self.port_b:
        destination = self.port_a
    else:
        destination = self.other_end(from_port)
    if not self.up or (self.loss_filter is not None and self.loss_filter(packet)):
        return
    size = packet.wire_size()
    self.carried_bytes += size
    sim: Optional[Simulator] = destination.node.sim or from_port.node.sim
    if sim is None:
        raise SimulationError(
            f"link {self.name} cannot deliver: neither endpoint is attached to a simulator"
        )
    delay = self.latency
    if self.bandwidth is not None:
        delay += size * 8.0 / self.bandwidth
    sim.deliver(
        delay, destination, deliver.__get__(destination), packet, label=self.deliver_label
    )


def host_receive(self: EndHost, packet: Packet, in_port: Port) -> None:
    """Deliver a packet addressed to this host."""
    if not packet.is_ip() or packet.ip_dst != self.ip:
        return
    handler = self._services.get((packet.ip_proto, packet.tp_dst))
    if handler is not None:
        handler(packet, self)
        return
    sim = self.sim
    self.delivered.append(packet)
    self.delivered_times.append(sim.now if sim is not None else 0.0)


# ----------------------------------------------------------------------
# One event per delivery
# ----------------------------------------------------------------------


def transmit(self: Link, packet: Packet, from_port: Port) -> None:
    """Send a packet from one endpoint toward the other: one event per packet."""
    destination = self.other_end(from_port)
    if not self.up or (self.loss_filter is not None and self.loss_filter(packet)):
        return
    size = packet.wire_size()
    self.carried_bytes += size
    sim: Optional[Simulator] = destination.node.sim or from_port.node.sim
    if sim is None:
        raise SimulationError(
            f"link {self.name} cannot deliver: neither endpoint is attached to a simulator"
        )
    delay = self.latency
    if self.bandwidth is not None:
        delay += size * 8.0 / self.bandwidth
    sim.schedule(delay, destination.deliver, packet, label=self.deliver_label)


def send_to_controller(self: ControllerChannel, message: ControlMessage) -> None:
    """Deliver a message to the controller after the latency: one event per message."""
    if not self.connected:
        return
    self.to_controller_messages.increment()
    if self.switch.name is not self._labelled_name:
        self._relabel()
    self._sim().schedule(
        self.latency,
        self.controller.handle_message,
        message,
        label=self._ctrl_rx_label,
    )


def send_to_switch(self: ControllerChannel, message: ControlMessage) -> None:
    """Deliver a message to the switch after the latency: one event per message."""
    if not self.connected:
        return
    self.to_switch_messages.increment()
    if self.switch.name is not self._labelled_name:
        self._relabel()
    self._sim().schedule(
        self.latency,
        self.switch.handle_message,
        message,
        label=self._switch_rx_label,
    )


class ReferenceLink(Link):
    """A link that schedules one event per packet."""

    transmit = transmit


class ReferenceChannel(ControllerChannel):
    """A control channel that schedules one event per message."""

    send_to_controller = send_to_controller
    send_to_switch = send_to_switch


# ----------------------------------------------------------------------
# Swapping them in
# ----------------------------------------------------------------------

_HIT_PATH = (
    (OpenFlowSwitch, "receive", receive),
    (OpenFlowSwitch, "_apply_actions", _apply_actions),
    (FlowTable, "expire", expire),
    (Port, "send", send),
    (Link, "transmit", transmit_shared),
    (EndHost, "receive", host_receive),
)

_ONE_EVENT = (
    (Link, "transmit", transmit),
    (ControllerChannel, "send_to_controller", send_to_controller),
    (ControllerChannel, "send_to_switch", send_to_switch),
)


@contextlib.contextmanager
def _swapped(*replacements: tuple) -> Iterator[None]:
    """Set each ``(cls, name, function)`` inside the block; restore on exit."""
    originals = [(cls, name, vars(cls)[name]) for cls, name, _ in replacements]
    try:
        for cls, name, function in replacements:
            setattr(cls, name, function)
        yield
    finally:
        for cls, name, original in reversed(originals):
            setattr(cls, name, original)


def use_reference_hit_path() -> contextlib.AbstractContextManager[None]:
    """Run every hop the way it ran before a hit was one step, inside the block."""
    return _swapped(*_HIT_PATH)


def use_reference_delivery() -> contextlib.AbstractContextManager[None]:
    """Schedule one event per delivery inside the block (on the reference hit path)."""
    return _swapped(*_HIT_PATH, *_ONE_EVENT)
