"""The end-host simulator node.

An :class:`EndHost` ties together the account database, application
registry, process table and socket table, and participates in the
simulated network as a :class:`~repro.netsim.nodes.Node`: applications
on the host open flows (which emit packets into the network) and listen
on ports (which receive packets delivered to the host's IP address).

The host's ident++ daemon is not a network service here: it attaches
itself as ``host.identpp_daemon`` and controllers query it through
:class:`~repro.identpp.client.QueryClient`, so every packet that reaches
a host is application traffic the controller has decided.
"""

from __future__ import annotations

from typing import Any, Optional

from repro.exceptions import HostError
from repro.hosts.applications import Application, ApplicationRegistry
from repro.hosts.processes import Process, ProcessTable
from repro.hosts.sockets import Socket, SocketTable
from repro.hosts.users import User, UserDatabase
from repro.netsim.addresses import IPv4Address, MACAddress
from repro.netsim.nodes import Node, Port
from repro.netsim.packet import IP_PROTO_TCP, Packet

class EndHost(Node):
    """A simulated end-host with users, applications, processes and sockets."""

    def __init__(
        self,
        name: str,
        ip: IPv4Address | str,
        mac: MACAddress | str | None = None,
    ) -> None:
        super().__init__(name)
        self.ip = IPv4Address(ip)
        self.mac = MACAddress(mac) if mac is not None else MACAddress.from_index(abs(hash(name)) % (2**32))
        self.users = UserDatabase()
        self.applications = ApplicationRegistry()
        self.processes = ProcessTable()
        self.sockets = SocketTable(self.ip)
        self.delivered: list[Packet] = []
        self.delivered_times: list[float] = []
        self.compromised = False
        self.compromised_as_superuser = False

    # ------------------------------------------------------------------
    # Host administration
    # ------------------------------------------------------------------

    def install(self, app: Application) -> Application:
        """Install an application on this host."""
        return self.applications.install(app)

    def install_all(self, apps: list[Application]) -> None:
        """Install a list of applications."""
        for app in apps:
            self.install(app)

    def add_user(self, name: str, groups: tuple[str, ...] | list[str] = ()) -> User:
        """Create a user account (idempotent for existing users with no group change)."""
        if self.users.has_user(name):
            user = self.users.user(name)
            for group in groups:
                self.users.add_to_group(name, group)
            return user
        return self.users.add_user(name, groups=list(groups))

    # ------------------------------------------------------------------
    # Application activity
    # ------------------------------------------------------------------

    def run_server(
        self,
        app_name: str,
        user_name: str,
        port: int | None = None,
        proto: int | str = IP_PROTO_TCP,
        *,
        runtime_keys: Optional[dict[str, str]] = None,
    ) -> tuple[Process, Socket]:
        """Start an application as a server listening on ``port``.

        ``port`` defaults to the application's ``default_port``.  The
        privileged-port rule is enforced by the socket table: binding a
        port below 1024 as a non-root user follows the fork-as-superuser
        pattern discussed in §5.4, which the caller models by passing the
        ``root`` user explicitly.
        """
        app = self.applications.require(app_name)
        user = self.users.user(user_name)
        if port is None:
            port = app.default_port
        if not port:
            raise HostError(f"application {app_name} has no default port; pass one explicitly")
        process = self.processes.spawn(user, app, runtime_keys=runtime_keys)
        socket = self.sockets.listen(process, port, proto)
        return process, socket

    def open_flow(
        self,
        app_name: str,
        user_name: str,
        dst_ip: IPv4Address | str,
        dst_port: int,
        proto: int | str = IP_PROTO_TCP,
        *,
        payload: Any = b"",
        payload_size: Optional[int] = None,
        runtime_keys: Optional[dict[str, str]] = None,
        send: bool = True,
    ) -> tuple[Packet, Socket, Process]:
        """Open a new outgoing flow from an application.

        Spawns a process for the application under ``user_name``, opens a
        connected socket (allocating an ephemeral source port) and, when
        ``send`` is true, emits the flow's first packet into the network.

        Returns ``(first packet, socket, process)``.
        """
        app = self.applications.require(app_name)
        user = self.users.user(user_name)
        process = self.processes.spawn(user, app, runtime_keys=runtime_keys)
        if not isinstance(dst_ip, IPv4Address):
            dst_ip = IPv4Address(dst_ip)
        socket = self.sockets.connect(process, dst_ip, dst_port, proto)
        packet = Packet(
            eth_src=self.mac,
            ip_src=self.ip,
            ip_dst=dst_ip,
            ip_proto=socket.proto,
            tp_src=socket.local_port,
            tp_dst=dst_port,
            payload=payload,
            payload_size=payload_size,
        )
        if send:
            self.transmit(packet)
        return packet, socket, process

    def send_on_socket(
        self,
        socket: Socket,
        *,
        payload: Any = b"",
        payload_size: Optional[int] = None,
    ) -> Packet:
        """Send another packet on an already-open connected socket."""
        if socket.is_listening:
            raise HostError("cannot send on a listening socket without a peer")
        packet = Packet(
            eth_src=self.mac,
            ip_src=self.ip,
            ip_dst=socket.remote_ip,
            ip_proto=socket.proto,
            tp_src=socket.local_port,
            tp_dst=socket.remote_port,
            payload=payload,
            payload_size=payload_size,
        )
        self.transmit(packet)
        return packet

    def transmit(self, packet: Packet) -> bool:
        """Send a packet out of the host's (first wired) uplink port."""
        for port in self._ports.values():
            if port.link is not None:
                return port.send(packet)
        return False

    # ------------------------------------------------------------------
    # Packet reception
    # ------------------------------------------------------------------

    def receive(self, packet: Packet, in_port: Port) -> None:
        """Deliver a packet addressed to this host.

        Every packet is recorded in :attr:`delivered` so tests and the
        collaboration benchmark can check exactly what reached the host.
        Packets not addressed to this host's IP are dropped (hosts do not
        forward).
        """
        # Addresses are ints: C's comparison, not IPv4Address.__ne__.
        if not packet.is_ip() or int.__ne__(packet.ip_dst, self.ip):
            return
        sim = self.sim
        self.delivered.append(packet)
        self.delivered_times.append(sim.now if sim is not None else 0.0)

    # ------------------------------------------------------------------
    # Introspection used by daemons
    # ------------------------------------------------------------------

    def process_for_flow(
        self,
        ip_src: IPv4Address | str,
        ip_dst: IPv4Address | str,
        proto: int | str,
        tp_src: int,
        tp_dst: int,
    ) -> Optional[Process]:
        """Return the local process owning the flow, looking at both directions."""
        as_destination = IPv4Address(ip_dst) == self.ip
        return self.sockets.process_for_flow(
            ip_src, ip_dst, proto, tp_src, tp_dst, as_destination=as_destination
        )

    def mark_compromised(self, *, superuser: bool = False) -> None:
        """Mark the host as attacker-controlled (see :mod:`repro.security`).

        Controller-side endpoint caches must drop this host's answers:
        everything its daemon said before the compromise is now
        untrusted, and everything it says afterwards may be spoofed.
        """
        self.compromised = True
        self.compromised_as_superuser = superuser
        daemon = getattr(self, "identpp_daemon", None)
        if daemon is not None:
            daemon.notify_invalidation("host-compromised")

    def __repr__(self) -> str:
        return f"EndHost({self.name!r}, ip={self.ip})"
