"""Point-to-point links with latency, bandwidth and loss.

A link connects exactly two :class:`~repro.netsim.nodes.Port` objects.
Packet delivery is scheduled on the simulator: the delay is
``propagation latency + wire_size * 8 / bandwidth``, and an optional
deterministic loss pattern lets failure-injection tests drop packets.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.exceptions import SimulationError, TopologyError
from repro.netsim.events import Simulator
from repro.netsim.nodes import Port
from repro.netsim.packet import Packet

#: Default link latency: 50 microseconds, a typical enterprise LAN hop.
DEFAULT_LATENCY = 50e-6
#: Default link bandwidth: 1 Gb/s.
DEFAULT_BANDWIDTH = 1e9


class Link:
    """A bidirectional point-to-point link between two ports.

    Attributes:
        latency: One-way propagation delay in seconds.
        bandwidth: Capacity in bits per second; ``None`` models an
            infinitely fast link (zero serialisation delay).
        loss_filter: Optional callable ``f(packet) -> bool``; returning
            ``True`` drops the packet.  Used by the failure-injection
            tests.
        carried_bytes: Wire bytes the link has carried, both ways (a
            plain ``int``, added to per packet).
    """

    def __init__(
        self,
        port_a: Port,
        port_b: Port,
        *,
        latency: float = DEFAULT_LATENCY,
        bandwidth: Optional[float] = DEFAULT_BANDWIDTH,
        name: str = "",
        loss_filter: Optional[Callable[[Packet], bool]] = None,
    ) -> None:
        if port_a is port_b:
            raise TopologyError("cannot link a port to itself")
        if latency < 0:
            raise TopologyError(f"negative latency: {latency}")
        if bandwidth is not None and bandwidth <= 0:
            raise TopologyError(f"non-positive bandwidth: {bandwidth}")
        self.port_a = port_a
        self.port_b = port_b
        self.latency = latency
        self.bandwidth = bandwidth
        self.name = name or f"{port_a.name}<->{port_b.name}"
        self.loss_filter = loss_filter
        self.up = True
        self.carried_bytes = 0
        port_a.attach_link(self)
        port_b.attach_link(self)

    @property
    def name(self) -> str:
        """The link's name; setting it rebuilds :attr:`deliver_label`."""
        return self._name

    @name.setter
    def name(self, name: str) -> None:
        self._name = name
        #: The label of every delivery event this link schedules, built
        #: once per name rather than once per packet.
        self.deliver_label = f"deliver:{name}"

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------

    def endpoints(self) -> tuple[Port, Port]:
        """Return both endpoint ports."""
        return (self.port_a, self.port_b)

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def transmit(self, packet: Packet, from_port: Port) -> None:
        """Send a packet from one endpoint toward the other.

        Delivery is scheduled on the simulator of the *receiving* node;
        both nodes must therefore be attached to the same simulator (the
        topology builder guarantees this).  The receiving port is the
        direction's lane: packets sent one way at one instant, with
        nothing scheduled between them, share one delivery event.
        """
        if from_port is self.port_a:
            destination = self.port_b
        elif from_port is self.port_b:
            destination = self.port_a
        else:
            raise TopologyError(f"port {from_port.name} is not an endpoint of link {self.name}")
        if not self.up or (self.loss_filter is not None and self.loss_filter(packet)):
            return
        size = packet._wire_size
        if size is None:
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
        sim.deliver(delay, destination, destination.deliver, packet, label=self.deliver_label)

    def __repr__(self) -> str:
        state = "up" if self.up else "down"
        return f"Link({self.name}, latency={self.latency}, {state})"
