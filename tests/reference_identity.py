"""The linear identity lookups the indexed ones replaced, kept as test oracles.

``ReferenceSocketTable`` is ``repro.hosts.sockets.SocketTable`` and
``ReferenceDocument`` is the lookup half of
``repro.identpp.keyvalue.ResponseDocument`` as they stood before either
answered from an index: every lookup is a scan over plain python lists,
which makes the intended behaviour easy to read off the code.
``tests/test_hosts.py`` and ``tests/test_identpp_protocol.py`` drive each
beside the real class with the same operations and require the same
answers in the same order.  Nothing outside the tests may use them.
"""

from __future__ import annotations

from typing import Optional

from repro.exceptions import SocketError
from repro.hosts.processes import Process
from repro.hosts.sockets import EPHEMERAL_PORT_BASE, PRIVILEGED_PORT_LIMIT, Socket
from repro.netsim.addresses import IPv4Address
from repro.netsim.packet import IP_PROTO_TCP, proto_number


def _is_source_of(socket: Socket, ip_src, ip_dst, proto, tp_src, tp_dst) -> bool:
    if socket.proto != proto:
        return False
    if socket.is_listening:
        # A server replying on an accepted connection: local port is
        # the flow's source port.
        return socket.local_ip == ip_src and socket.local_port == tp_src
    return (
        socket.local_ip == ip_src
        and socket.local_port == tp_src
        and socket.remote_ip == ip_dst
        and socket.remote_port == tp_dst
    )


def _is_destination_of(socket: Socket, ip_src, ip_dst, proto, tp_src, tp_dst) -> bool:
    if socket.proto != proto:
        return False
    if socket.is_listening:
        return socket.local_ip == ip_dst and socket.local_port == tp_dst
    return (
        socket.local_ip == ip_dst
        and socket.local_port == tp_dst
        and socket.remote_ip == ip_src
        and socket.remote_port == tp_src
    )


class ReferenceSocketTable:
    """All sockets on one end-host, as one python list scanned per lookup."""

    def __init__(self, host_ip) -> None:
        self.host_ip = IPv4Address(host_ip)
        self._sockets: list[Socket] = []
        self._next_ephemeral = EPHEMERAL_PORT_BASE

    def listen(self, process: Process, port: int, proto=IP_PROTO_TCP) -> Socket:
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
        self._sockets.append(socket)
        return socket

    def connect(self, process, remote_ip, remote_port, proto=IP_PROTO_TCP, local_port=None) -> Socket:
        proto = proto_number(proto)
        if local_port is None:
            local_port = self._allocate_ephemeral_port(
                proto, IPv4Address(remote_ip), remote_port
            )
        socket = Socket(
            proto=proto, local_ip=self.host_ip, local_port=local_port, process=process,
            remote_ip=IPv4Address(remote_ip), remote_port=remote_port,
        )
        self._sockets.append(socket)
        return socket

    def _allocate_ephemeral_port(self, proto: int, remote_ip: IPv4Address, remote_port: int) -> int:
        """Next port of the (wrapping) range with no open connection to this remote endpoint."""
        for _ in range(0x10000 - EPHEMERAL_PORT_BASE):
            port = self._next_ephemeral
            self._next_ephemeral = port + 1 if port < 0xFFFF else EPHEMERAL_PORT_BASE
            if not any(
                (s.proto, s.local_port, s.remote_ip, s.remote_port)
                == (proto, port, remote_ip, remote_port)
                for s in self._sockets
            ):
                return port
        raise SocketError(
            f"no free ephemeral port towards {remote_ip}:{remote_port}/{proto}"
        )

    def close(self, socket: Socket) -> None:
        try:
            self._sockets.remove(socket)
        except ValueError as exc:
            raise SocketError(f"socket not in table: {socket}") from exc

    def find_listener(self, port: int, proto=IP_PROTO_TCP) -> Optional[Socket]:
        proto = proto_number(proto)
        for socket in self._sockets:
            if socket.is_listening and socket.local_port == port and socket.proto == proto:
                return socket
        return None

    def lookup_flow(
        self, ip_src, ip_dst, proto, tp_src, tp_dst, *, as_destination: bool = False
    ) -> Optional[Socket]:
        ip_src = IPv4Address(ip_src)
        ip_dst = IPv4Address(ip_dst)
        proto = proto_number(proto)
        matcher = _is_destination_of if as_destination else _is_source_of
        best: Optional[Socket] = None
        for socket in self._sockets:
            if matcher(socket, ip_src, ip_dst, proto, tp_src, tp_dst):
                if not socket.is_listening:
                    return socket
                best = best or socket
        return best

    def sockets(self) -> list[Socket]:
        return list(self._sockets)

    def __len__(self) -> int:
        return len(self._sockets)


def _section_get(pairs, key: str) -> Optional[str]:
    result = None
    for existing_key, value in pairs:
        if existing_key == key:
            result = value
    return result


def _section_keys(pairs) -> list[str]:
    seen: list[str] = []
    for key, _ in pairs:
        if key not in seen:
            seen.append(key)
    return seen


class ReferenceDocument:
    """PF+=2's reading of a response, as scans over ``[[(key, value), ...], ...]``.

    Holds the sections as plain lists of pairs; empty sections are kept
    out, as :meth:`ResponseDocument.add_section` keeps them out.
    """

    def __init__(self, sections=()) -> None:
        self.sections: list[list[tuple[str, str]]] = [list(s) for s in sections if s]

    def latest(self, key: str) -> Optional[str]:
        for pairs in reversed(self.sections):
            value = _section_get(pairs, key)
            if value is not None:
                return value
        return None

    def concatenated(self, key: str, separator: str = " ") -> str:
        values = []
        for pairs in self.sections:
            value = _section_get(pairs, key)
            if value is not None:
                values.append(value)
        return separator.join(values)

    def keys(self) -> list[str]:
        seen: list[str] = []
        for pairs in self.sections:
            for key in _section_keys(pairs):
                if key not in seen:
                    seen.append(key)
        return seen

    def as_flat_dict(self) -> dict[str, str]:
        return {key: self.latest(key) for key in self.keys()}
