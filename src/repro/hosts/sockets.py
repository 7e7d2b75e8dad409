"""Socket table with lsof-style flow lookups.

The ident++ daemon resolves a queried 5-tuple to a process "using
techniques similar to lsof" (§3.5).  :class:`SocketTable` is that
machinery: applications bind listening sockets or open connected
sockets, and :meth:`SocketTable.lookup_flow` answers "which process owns
this flow?" for both the sending side (connected socket matches the
4-tuple) and the receiving side (connected socket *or* a listening
socket on the destination port — "a destination that has yet to accept a
connection").  The table files every socket under the endpoint key a
flow would name it by, so a lookup is a hash probe, not a walk over the
host's connections.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from repro.exceptions import SocketError
from repro.netsim.addresses import IPv4Address
from repro.netsim.packet import IP_PROTO_TCP, proto_number
from repro.hosts.processes import Process

#: First ephemeral port handed out to outgoing connections.
EPHEMERAL_PORT_BASE = 32768
#: Ports below this require superuser privileges to bind (§5.4).
PRIVILEGED_PORT_LIMIT = 1024


@dataclass
class Socket:
    """One socket owned by a process.

    ``remote_ip``/``remote_port`` are ``None``/0 for listening sockets.
    """

    proto: int
    local_ip: IPv4Address
    local_port: int
    process: Process
    remote_ip: Optional[IPv4Address] = None
    remote_port: int = 0

    @property
    def is_listening(self) -> bool:
        """Return ``True`` for listening (unconnected) sockets."""
        return self.remote_ip is None

    @property
    def is_privileged(self) -> bool:
        """Return ``True`` if the local port is in the privileged range (< 1024)."""
        return 0 < self.local_port < PRIVILEGED_PORT_LIMIT

    def __str__(self) -> str:
        remote = f"{self.remote_ip}:{self.remote_port}" if not self.is_listening else "*:*"
        return f"{self.local_ip}:{self.local_port} <-> {remote} (pid {self.process.pid})"


def _endpoint_key(socket: Socket) -> tuple:
    """Return the index key: ``(proto, local port, remote ip, remote port)``.

    A listening socket's remote half is ``(None, 0)``.
    """
    return (socket.proto, socket.local_port, socket.remote_ip, socket.remote_port)


class SocketTable:
    """All sockets on one end-host."""

    def __init__(self, host_ip: IPv4Address) -> None:
        self.host_ip = IPv4Address(host_ip)
        # Every socket, in insertion order, under ``id(socket)`` (the
        # table holds the socket, so the id cannot be reused while it is
        # a key); a dict so ``close`` deletes without a scan.
        self._sockets: dict[int, Socket] = {}
        # ``_endpoint_key(socket)`` -> the sockets sharing that key, in
        # insertion order.  A flow names its owner's key exactly, so
        # ``lookup_flow``, ``find_listener`` and ``close`` each touch one
        # bucket however many connections the host holds.
        self._by_endpoint: dict[tuple, list[Socket]] = {}
        self._next_ephemeral = EPHEMERAL_PORT_BASE
        # Which flow a 5-tuple resolves to depends on the socket set; a
        # mutation means previously computed owners may be stale.  The
        # epoch is cheap to compare, the listeners let the ident++
        # daemon push invalidations to controller-side endpoint caches.
        self.epoch = 0
        self._change_listeners: list[Callable[[], None]] = []

    def add_change_listener(self, listener: Callable[[], None]) -> None:
        """Register a callback fired after every socket open/close."""
        if listener not in self._change_listeners:
            self._change_listeners.append(listener)

    def _changed(self) -> None:
        self.epoch += 1
        for listener in list(self._change_listeners):
            listener()

    # ------------------------------------------------------------------
    # Socket creation
    # ------------------------------------------------------------------

    def listen(self, process: Process, port: int, proto: int | str = IP_PROTO_TCP) -> Socket:
        """Bind a listening socket on ``port``.

        Enforces the privileged-port rule from §5.4: only the superuser
        may bind ports below 1024.
        """
        proto = proto_number(proto)
        if not 0 < port <= 0xFFFF:
            raise SocketError(f"invalid port: {port}")
        if port < PRIVILEGED_PORT_LIMIT and not process.user.can_bind_privileged_ports:
            raise SocketError(
                f"user {process.user.name} cannot bind privileged port {port} (requires superuser)"
            )
        if self.find_listener(port, proto) is not None:
            raise SocketError(f"port {port}/{proto} already in use")
        socket = Socket(proto=proto, local_ip=self.host_ip, local_port=port, process=process)
        self._add(socket)
        return socket

    def connect(
        self,
        process: Process,
        remote_ip: IPv4Address | str,
        remote_port: int,
        proto: int | str = IP_PROTO_TCP,
        local_port: int | None = None,
    ) -> Socket:
        """Open a connected socket to ``remote_ip:remote_port``.

        An ephemeral local port is allocated unless ``local_port`` is
        given explicitly.
        """
        proto = proto_number(proto)
        if not isinstance(remote_ip, IPv4Address):
            remote_ip = IPv4Address(remote_ip)
        if local_port is None:
            local_port = self._allocate_ephemeral_port(proto, remote_ip, remote_port)
        socket = Socket(
            proto=proto,
            local_ip=self.host_ip,
            local_port=local_port,
            process=process,
            remote_ip=remote_ip,
            remote_port=remote_port,
        )
        self._add(socket)
        return socket

    def _add(self, socket: Socket) -> None:
        self._sockets[id(socket)] = socket
        self._by_endpoint.setdefault(_endpoint_key(socket), []).append(socket)
        self._changed()

    def close(self, socket: Socket) -> None:
        """Remove a socket from the table (the first one equal to ``socket``)."""
        key = _endpoint_key(socket)
        bucket = self._by_endpoint.get(key, [])
        try:
            stored = bucket.pop(bucket.index(socket))
        except ValueError as exc:
            raise SocketError(f"socket not in table: {socket}") from exc
        if not bucket:
            del self._by_endpoint[key]
        del self._sockets[id(stored)]
        self._changed()

    def _allocate_ephemeral_port(
        self, proto: int, remote_ip: IPv4Address, remote_port: int
    ) -> int:
        """Return the next ephemeral port not already open to this remote endpoint.

        The range wraps, so a long-lived connection's port comes round
        again; handing it out a second time to the same remote endpoint
        would give two sockets one 5-tuple, and the lsof lookup would
        attribute the new flow to the old owner.
        """
        for _ in range(0x10000 - EPHEMERAL_PORT_BASE):
            port = self._next_ephemeral
            self._next_ephemeral = port + 1 if port < 0xFFFF else EPHEMERAL_PORT_BASE
            if (proto, port, remote_ip, remote_port) not in self._by_endpoint:
                return port
        raise SocketError(
            f"no free ephemeral port towards {remote_ip}:{remote_port}/{proto}"
        )

    # ------------------------------------------------------------------
    # Lookups (the lsof part)
    # ------------------------------------------------------------------

    def find_listener(self, port: int, proto: int | str = IP_PROTO_TCP) -> Optional[Socket]:
        """Return the listening socket on ``port``/``proto``, if any."""
        bucket = self._by_endpoint.get((proto_number(proto), port, None, 0))
        return bucket[0] if bucket else None

    def lookup_flow(
        self,
        ip_src: IPv4Address | str,
        ip_dst: IPv4Address | str,
        proto: int | str,
        tp_src: int,
        tp_dst: int,
        *,
        as_destination: bool = False,
    ) -> Optional[Socket]:
        """Return the socket owning the given 5-tuple on this host.

        ``as_destination`` selects which endpoint of the flow this host
        plays.  Connected sockets are preferred over listening sockets so
        that an accepted connection resolves to the worker process rather
        than the listener.
        """
        proto = proto_number(proto)
        if as_destination:
            local_ip, local_port, remote_ip, remote_port = ip_dst, tp_dst, ip_src, tp_src
        else:
            local_ip, local_port, remote_ip, remote_port = ip_src, tp_src, ip_dst, tp_dst
        if not isinstance(local_ip, IPv4Address):
            local_ip = IPv4Address(local_ip)
        if not isinstance(remote_ip, IPv4Address):
            remote_ip = IPv4Address(remote_ip)
        # Every socket in the table is bound to the host's own address
        # (both are IPv4Address ints: C's comparison, not IPv4Address.__ne__).
        if int.__ne__(local_ip, self.host_ip):
            return None
        bucket = self._by_endpoint.get(
            (proto, local_port, remote_ip, remote_port)
        ) or self._by_endpoint.get((proto, local_port, None, 0))
        return bucket[0] if bucket else None

    def process_for_flow(
        self,
        ip_src: IPv4Address | str,
        ip_dst: IPv4Address | str,
        proto: int | str,
        tp_src: int,
        tp_dst: int,
        *,
        as_destination: bool = False,
    ) -> Optional[Process]:
        """Return the process owning the given flow, or ``None`` (lsof equivalent)."""
        socket = self.lookup_flow(
            ip_src, ip_dst, proto, tp_src, tp_dst, as_destination=as_destination
        )
        return socket.process if socket is not None else None

    def sockets(self) -> Iterator[Socket]:
        """Iterate over all sockets."""
        return iter(list(self._sockets.values()))

    def __len__(self) -> int:
        return len(self._sockets)
