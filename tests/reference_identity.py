"""Identity-plane code the current one replaced, kept as test oracles.

``ReferenceSocketTable`` is ``repro.hosts.sockets.SocketTable`` and
``ReferenceDocument`` is the lookup half of
``repro.identpp.keyvalue.ResponseDocument`` as they stood before either
answered from an index: every lookup is a scan over plain python lists,
which makes the intended behaviour easy to read off the code.
``tests/test_hosts.py`` and ``tests/test_identpp_protocol.py`` drive each
beside the real class with the same operations and require the same
answers in the same order.

``ReferenceDaemon`` and ``ReferenceQueryEngine`` are the identity plane
as it stood while a daemon change reached an engine twice: once as a
reason string through the invalidation listener, once as an
``IdentDelta`` through a per-subscriber delivery callable, with the
promotion tally kept beside the engine (where the controller kept it)
and reset through an ``on_demote`` hook.  They override only what that
design did differently; ``tests/test_identity_plane_reference.py``
drives them beside the real classes.  Nothing outside the tests may use
any of these.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.exceptions import SocketError
from repro.hosts.processes import Process
from repro.hosts.sockets import EPHEMERAL_PORT_BASE, PRIVILEGED_PORT_LIMIT, Socket
from repro.identpp.daemon import SOCKET_TABLE_CHANGED, IdentPPDaemon
from repro.identpp.engine import UNTIL_DELTA, PushSubscription, QueryEngine
from repro.identpp.wire import (
    CAP_SUBSCRIBE,
    WIRE_VERSION_PULL,
    WIRE_VERSION_PUSH,
    IdentDelta,
    IdentSubscribe,
    IdentSubscribeAck,
)
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


class ReferenceDaemon(IdentPPDaemon):
    """The daemon with two fan-outs: reasons to listeners, deltas to sinks."""

    def __init__(self, host, **kwargs) -> None:
        super().__init__(host, **kwargs)
        # Subscriber name → delta sink.
        self._delta_subscribers: dict[str, Callable[[IdentDelta], None]] = {}

    def notify_invalidation(self, reason: str) -> None:
        self.delta_serial += 1
        if reason != SOCKET_TABLE_CHANGED:
            self._base_memo.clear()
            self._config_memo.clear()
        for listener in list(self._invalidation_listeners):
            listener(reason)
        if self._delta_subscribers:
            delta = IdentDelta(
                host_ip=str(self.host.ip), serial=self.delta_serial, reason=reason,
            )
            for deliver in list(self._delta_subscribers.values()):
                self.deltas_published.increment()
                deliver(delta)

    def subscribe(
        self, message: IdentSubscribe, deliver: Callable[[IdentDelta], None]
    ) -> IdentSubscribeAck:
        if not self.push_capable or message.version < WIRE_VERSION_PUSH:
            return IdentSubscribeAck(
                host_ip=str(self.host.ip), accepted=False,
                capabilities=(), version=WIRE_VERSION_PULL, serial=0,
            )
        self._delta_subscribers[message.subscriber] = deliver
        return IdentSubscribeAck(
            host_ip=str(self.host.ip), accepted=True,
            capabilities=self.capabilities(), version=WIRE_VERSION_PUSH,
            serial=self.delta_serial,
        )

    def unsubscribe(self, subscriber: str) -> bool:
        return self._delta_subscribers.pop(subscriber, None) is not None


@dataclass
class _Subscription(PushSubscription):
    #: The exact daemon object the subscription's sink was registered on.
    daemon: object = None


class ReferenceQueryEngine(QueryEngine):
    """The engine that heard every change twice and kept a refusal memo.

    Per-host listener closures (host IP → (daemon, closure)) call
    :meth:`invalidate_host`, which spares a subscribed host's resident
    answers because the delta sink (:meth:`_on_delta`) re-primes them.
    :meth:`note_punt` is the controller's promotion tally as it stood.
    """

    def __init__(self, client, **kwargs) -> None:
        super().__init__(client, **kwargs)
        self._subscribed: dict[str, tuple[object, Callable[[str], None]]] = {}
        self._push_refused: dict[str, object] = {}
        self._push_punt_counts: dict[str, int] = {}
        self.on_demote: Optional[Callable[[str], None]] = (
            lambda ip: self._push_punt_counts.pop(ip, None)
        )

    def note_punt(self, host_ip, *, from_node=None, now=None) -> None:
        if not self.push:
            return
        ip = str(host_ip)
        if self.is_subscribed(ip):
            return
        count = self._push_punt_counts.get(ip, 0) + 1
        self._push_punt_counts[ip] = count
        if count >= self.push_promote_punts:
            if self.subscribe_host(ip, from_node=from_node, now=now):
                del self._push_punt_counts[ip]

    def quarantine(self, host_ip) -> None:
        """What ``Controller.quarantine_host`` asked of the engine: two calls."""
        self.unsubscribe_host(host_ip)
        self.invalidate_host(host_ip, reason="quarantine")

    def _hook(self, host_ip: str, daemon) -> None:
        current = self._subscribed.get(host_ip)
        if current is not None and current[0] is daemon:
            return
        if current is not None:
            current[0].remove_invalidation_listener(current[1])

        def listener(reason: str, _ip=host_ip) -> None:
            self.invalidate_host(_ip, reason)

        self._subscribed[host_ip] = (daemon, listener)
        daemon.add_invalidation_listener(listener)

    def _release_host(self, host_ip: str) -> None:
        if host_ip in self._by_host or host_ip in self._subs:
            return
        record = self._subscribed.pop(host_ip, None)
        if record is not None:
            daemon, listener = record
            daemon.remove_invalidation_listener(listener)

    def subscribe_host(self, host_ip, *, from_node=None, now=None) -> bool:
        if not self.push:
            return False
        ip = str(host_ip)
        daemon = getattr(self.client.topology.node_for_ip(ip), "identpp_daemon", None)
        if daemon is None:
            return False
        now = self._now(now)
        existing = self._subs.get(ip)
        if existing is not None:
            if existing.daemon is daemon:
                return True
            self._close_subscription(ip)
        if self._push_refused.get(ip) is daemon:
            return False
        ack = daemon.subscribe(
            IdentSubscribe(host_ip=ip, subscriber=self.name, keys=self.client.default_keys),
            self._on_delta,
        )
        if not ack.accepted or CAP_SUBSCRIBE not in ack.capabilities:
            self._push_refused[ip] = daemon
            return False
        self._subs[ip] = _Subscription(
            host_ip=ip, daemon=daemon, serial=ack.serial, subscribed_at=now,
            last_hit=now, from_node=from_node,
        )
        self.subscriptions_opened += 1
        self._hook(ip, daemon)
        for key in self._by_host.get(ip, ()):
            entry = self._entries[key]
            if entry.negative or entry.flow_scoped:
                continue
            if now < entry.expires_at < UNTIL_DELTA:
                entry.expires_at = UNTIL_DELTA
                self._until_delta += 1
                self.resident_fills += 1
        return True

    def unsubscribe_host(self, host_ip) -> bool:
        ip = str(host_ip)
        if self._close_subscription(ip) is None:
            return False
        self.subscriptions_closed += 1
        if self.on_demote is not None:
            self.on_demote(ip)
        return True

    def _close_subscription(self, host_ip: str):
        sub = self._subs.pop(host_ip, None)
        if sub is None:
            return None
        sub.daemon.unsubscribe(self.name)
        for entry in self._held_until_delta(host_ip):
            self._discard(entry.key)
        self._release_host(host_ip)
        return sub

    def _on_delta(self, delta: IdentDelta) -> None:
        sub = self._subs.get(str(delta.host_ip))
        if sub is None:
            return
        if delta.serial <= sub.serial:
            self.duplicate_deltas += 1
            return
        sub.serial = delta.serial
        self.deltas_applied += 1
        now = self._now(None)
        for entry in self._held_until_delta(sub.host_ip):
            self._reprime(sub, entry, now)

    def invalidate_host(self, host_ip, reason: str = "") -> int:
        ip = str(host_ip)
        subscribed = ip in self._subs
        removed = 0
        for key in list(self._by_host.get(ip, ())):
            if subscribed and self._entries[key].resident:
                continue
            self._discard(key)
            removed += 1
        self.invalidation_events += 1
        self.invalidated_entries += removed
        return removed
