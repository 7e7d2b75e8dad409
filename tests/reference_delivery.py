"""One event per delivery: how links and channels scheduled before they shared.

This is ``Link.transmit`` and ``ControllerChannel.send_to_controller`` /
``send_to_switch`` as they stood before a delivery could ride the
previous same-instant delivery of its link or channel direction
(``Simulator.deliver``): each packet or control message is its own
``Simulator.schedule`` call, so its own event, heap record and sequence
number.  The per-packet counters those methods also kept and nothing
read (``Link.tx_packets``, a link drop count) are left out, as is the
reply-address stamp of the since-removed port-statistics request; the
link's byte counter goes by its current name; every other line is the
original.

:class:`ReferenceLink` and :class:`ReferenceChannel` carry these methods,
so one test can hold a sharing world and a reference world side by side;
:func:`use_reference_delivery` swaps them in on the real classes for as
long as a ``with`` block runs, so any network — a whole
``IdentPPNetwork`` — can be run both ways and compared
(``tests/test_shared_delivery.py``).  It is not importable from ``src/``
and nothing outside the tests may use it.
"""

from __future__ import annotations

import contextlib
from typing import Iterator, Optional

from repro.exceptions import SimulationError
from repro.netsim.events import Simulator
from repro.netsim.links import Link
from repro.netsim.nodes import Port
from repro.netsim.packet import Packet
from repro.openflow.channel import ControllerChannel
from repro.openflow.messages import ControlMessage


def transmit(self: Link, packet: Packet, from_port: Port) -> None:
    """Send a packet from one endpoint toward the other: one event per packet."""
    destination = self.other_end(from_port)
    if not self.up or (self.loss_filter is not None and self.loss_filter(packet)):
        return
    size = packet.wire_size()
    self.carried_bytes.increment(size)
    sim: Optional[Simulator] = destination.node.sim or from_port.node.sim
    if sim is None:
        raise SimulationError(
            f"link {self.name} cannot deliver: neither endpoint is attached to a simulator"
        )
    name = self.name
    if name is not self._labelled_name:
        self._labelled_name = name
        self._deliver_label = f"deliver:{name}"
    delay = self.latency
    if self.bandwidth is not None:
        delay += size * 8.0 / self.bandwidth
    sim.schedule(delay, destination.deliver, packet, label=self._deliver_label)


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


_REFERENCE = (
    (Link, "transmit", transmit),
    (ControllerChannel, "send_to_controller", send_to_controller),
    (ControllerChannel, "send_to_switch", send_to_switch),
)


@contextlib.contextmanager
def use_reference_delivery() -> Iterator[None]:
    """Schedule one event per delivery inside the block; restore on exit."""
    originals = [(cls, name, vars(cls)[name]) for cls, name, _ in _REFERENCE]
    try:
        for cls, name, function in _REFERENCE:
            setattr(cls, name, function)
        yield
    finally:
        for cls, name, original in originals:
            setattr(cls, name, original)
