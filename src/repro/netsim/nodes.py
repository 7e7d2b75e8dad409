"""Node and port abstractions.

Every element of the simulated network — OpenFlow switches, end-hosts,
legacy hosts, middleboxes — is a :class:`Node` with numbered
:class:`Port` objects.  Links (see :mod:`repro.netsim.links`) connect two
ports; a node sends a packet by handing it to one of its ports and
receives packets through :meth:`Node.receive`.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Optional

from repro.exceptions import PortError
from repro.netsim.packet import Packet

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers only
    from repro.netsim.events import Simulator
    from repro.netsim.links import Link


class Port:
    """A numbered attachment point on a :class:`Node`.

    A port keeps no counters: the bytes a link carried are counted once,
    on the link (:attr:`~repro.netsim.links.Link.carried_bytes`).
    """

    def __init__(self, node: "Node", number: int, name: str = "") -> None:
        self.node = node
        self.number = number
        self.name = name or f"{node.name}:{number}"
        self.link: Optional["Link"] = None
        # Bound once: a link hands every packet arriving here to this
        # one object instead of binding the method per packet.
        self.deliver = self.deliver

    @property
    def is_wired(self) -> bool:
        """Return ``True`` when a link is attached to this port."""
        return self.link is not None

    def attach_link(self, link: "Link") -> None:
        """Wire a link to this port.  A port can carry at most one link."""
        if self.link is not None:
            raise PortError(f"port {self.name} already wired to {self.link}")
        self.link = link

    def send(self, packet: Packet) -> bool:
        """Transmit a packet out of this port.

        Returns ``True`` if a link was attached and the packet was handed
        to it, ``False`` if the port is un-wired (the packet is dropped,
        mirroring a real NIC with no carrier).
        """
        link = self.link
        if link is None:
            return False
        link.transmit(packet, self)
        return True

    def deliver(self, packet: Packet) -> None:
        """Called by the attached link when a packet arrives at this port."""
        self.node.receive(packet, self)

    def peer(self) -> Optional["Port"]:
        """Return the port at the other end of the attached link, if any."""
        if self.link is None:
            return None
        return self.link.other_end(self)

    def __repr__(self) -> str:
        return f"Port({self.name})"


class Node:
    """Base class for every simulated network element.

    Subclasses override :meth:`receive` to implement forwarding or host
    behaviour.  Nodes are created detached; :meth:`attach` binds them to
    a :class:`~repro.netsim.events.Simulator` (the topology builder does
    this automatically).
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self.sim: Optional["Simulator"] = None
        self._ports: dict[int, Port] = {}

    # ------------------------------------------------------------------
    # Simulator binding
    # ------------------------------------------------------------------

    def attach(self, sim: "Simulator") -> None:
        """Bind this node to a simulator clock."""
        self.sim = sim

    @property
    def now(self) -> float:
        """Return the current simulated time (0.0 when detached)."""
        return self.sim.now if self.sim is not None else 0.0

    # ------------------------------------------------------------------
    # Ports
    # ------------------------------------------------------------------

    def add_port(self, number: int | None = None, name: str = "") -> Port:
        """Create a new port.  Port numbers default to the next free integer starting at 1."""
        highest = max(self._ports, default=0)
        if number is None:
            number = highest + 1
        if number in self._ports:
            raise PortError(f"node {self.name} already has port {number}")
        port = Port(self, number, name)
        self._ports[number] = port
        if number < highest:
            # Kept in port-number order, so nothing sorts per packet.
            self._ports = dict(sorted(self._ports.items()))
        return port

    def port(self, number: int) -> Port:
        """Return the port with the given number."""
        try:
            return self._ports[number]
        except KeyError as exc:
            raise PortError(f"node {self.name} has no port {number}") from exc

    def ports(self) -> Iterator[Port]:
        """Iterate over ports in port-number order."""
        return iter(tuple(self._ports.values()))

    # ------------------------------------------------------------------
    # Traffic
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: Port) -> None:
        """Handle a packet arriving on ``in_port``.

        The base implementation ignores it; switches and hosts override
        this.
        """

    def send(self, packet: Packet, out_port: Port | int) -> bool:
        """Send a packet out of the given port (number or object)."""
        if isinstance(out_port, int):
            out_port = self.port(out_port)
        if out_port.node is not self:
            raise PortError(f"port {out_port.name} does not belong to node {self.name}")
        return out_port.send(packet)

    def flood(self, packet: Packet, exclude: Port | None = None) -> int:
        """Send a copy of the packet out of every wired port except ``exclude``.

        Returns the number of ports the packet was sent on.
        """
        count = 0
        for port in self.ports():
            if port is exclude or not port.is_wired:
                continue
            port.send(packet.copy())
            count += 1
        return count

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"
