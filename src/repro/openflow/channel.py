"""The switch ↔ controller control channel.

OpenFlow runs its control connection out of band (or at least logically
separated) from the datapath.  :class:`ControllerChannel` models that
connection as a pair of message queues with a configurable one-way
latency; message delivery is scheduled on the simulator so flow-setup
latency measurements (experiment E1/E10) include control-channel
round-trips.

The channel also exposes ``connected`` so a switch can lose its
controller (fail-open / fail-closed behaviour).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.exceptions import ChannelError
from repro.netsim.events import Simulator
from repro.netsim.statistics import Counter
from repro.openflow.messages import ControlMessage

if TYPE_CHECKING:  # pragma: no cover
    from repro.openflow.controller_base import Controller
    from repro.openflow.switch import OpenFlowSwitch

#: Default one-way control-channel latency: 200 microseconds.
DEFAULT_CONTROL_LATENCY = 200e-6


class ControllerChannel:
    """A bidirectional control channel between one switch and one controller."""

    def __init__(
        self,
        switch: "OpenFlowSwitch",
        controller: "Controller",
    ) -> None:
        self.switch = switch
        self.controller = controller
        self.latency = DEFAULT_CONTROL_LATENCY
        self.connected = True
        # Counter names carry both endpoints: with several controllers
        # per switch (cluster shards) a bare "->controller" name would
        # collide across channels and make the stats unattributable.
        self.to_controller_messages = Counter(f"{switch.name}->{controller.name}.messages")
        self.to_switch_messages = Counter(f"{controller.name}->{switch.name}.messages")
        # One lane per direction (Simulator.deliver): messages sent one way
        # at one instant, with nothing scheduled between them, share an event.
        self._to_controller_lane = object()
        self._to_switch_lane = object()
        self._relabel()

    def _relabel(self) -> None:
        """Build the two event labels: once per switch name, not once per message."""
        name = self._labelled_name = self.switch.name
        self._ctrl_rx_label = f"ctrl-rx:{name}"
        self._switch_rx_label = f"switch-rx:{name}"

    def _sim(self) -> Simulator:
        sim = self.switch.sim or getattr(self.controller, "sim", None)
        if sim is None:
            raise ChannelError(
                f"control channel for {self.switch.name} has no simulator attached"
            )
        return sim

    def send_to_controller(self, message: ControlMessage) -> None:
        """Deliver a message from the switch to the controller after the channel latency."""
        if not self.connected:
            return
        self.to_controller_messages.value += 1
        if self.switch.name is not self._labelled_name:
            self._relabel()
        (self.switch.sim or self._sim()).deliver(
            self.latency,
            self._to_controller_lane,
            self.controller.handle_message,
            message,
            label=self._ctrl_rx_label,
        )

    def send_to_switch(self, message: ControlMessage) -> None:
        """Deliver a message from the controller to the switch after the channel latency."""
        if not self.connected:
            return
        self.to_switch_messages.value += 1
        if self.switch.name is not self._labelled_name:
            self._relabel()
        (self.switch.sim or self._sim()).deliver(
            self.latency,
            self._to_switch_lane,
            self.switch.handle_message,
            message,
            label=self._switch_rx_label,
        )

    def disconnect(self) -> None:
        """Tear the channel down (messages are silently dropped afterwards)."""
        self.connected = False

    def reconnect(self) -> None:
        """Bring the channel back up."""
        self.connected = True

    def __repr__(self) -> str:
        state = "up" if self.connected else "down"
        return f"ControllerChannel({self.switch.name}, latency={self.latency}, {state})"
