"""The ident++ query/response wire format (§3.2).

A query packet's payload is::

    <PROTO> <SRC PORT> <DST PORT>
    <key 0>
    <key 1>
    ...

and a response packet's payload is::

    <PROTO> <SRC PORT> <DST PORT>
    <key 0>: <value 0>
    ...
    <newline>
    <key n>: <value n>
    ...

The flow's IP addresses are carried in the packet's IP header rather
than the payload: "The controller making the query uses the flow's
destination IP address as the query's source IP address" when querying
the flow's *source* host (mirroring RFC 1413, where the connection's
remote end asks the local end).  Symmetrically, a query to the flow's
*destination* host is sent with the flow's source IP address as the
query's source.  A real daemon listens on TCP port 783.

This module is the encoding only.  In the simulation the controller
reaches a host's daemon through :class:`~repro.identpp.client.QueryClient`,
not over the datapath, so a packet to or from port 783 is an ordinary
flow: punted, decided against policy and audited like any other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

from repro.exceptions import PacketError, WireFormatError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.netsim.packet import IP_PROTO_TCP, Packet, proto_name, proto_number

#: The TCP port the ident++ daemon listens on (§2). RFC 1413 uses 113;
#: the paper moves the richer protocol to 783.
IDENT_PP_PORT = 783

#: Roles a queried host can play in the flow being asked about.
ROLE_SOURCE = "src"
ROLE_DESTINATION = "dst"

#: Default keys a controller asks for when the policy does not say
#: otherwise.  "The list of keys in the query packet only provide a hint
#: for what the controller needs" (§3.2).
DEFAULT_QUERY_KEYS = (
    "userID",
    "groupID",
    "name",
    "app-name",
    "exe-hash",
    "version",
    "requirements",
    "req-sig",
)

#: Wire protocol versions.  Version 1 is the paper's pull-only
#: query/response exchange above; version 2 adds the standing
#: SUBSCRIBE / DELTA / UNSUBSCRIBE messages of the push identity plane.
#: A v2 controller talking to a v1 daemon negotiates down to pull —
#: legacy fleets keep working unchanged.
WIRE_VERSION_PULL = 1
WIRE_VERSION_PUSH = 2

#: Capability token a push-capable daemon advertises in its SUBSCRIBE-ACK.
CAP_SUBSCRIBE = "subscribe"


def _first_line(flow: FlowSpec) -> str:
    return f"{flow.proto_name().upper()} {flow.src_port} {flow.dst_port}"


def _parse_first_line(line: str) -> tuple[int, int, int]:
    parts = line.split()
    if len(parts) != 3:
        raise WireFormatError(f"malformed ident++ first line: {line!r}")
    proto_text, src_text, dst_text = parts
    try:
        proto = proto_number(proto_text.lower())
        src_port = int(src_text)
        dst_port = int(dst_text)
    except (ValueError, PacketError) as exc:
        raise WireFormatError(f"malformed ident++ first line: {line!r}") from exc
    if not (0 <= src_port <= 0xFFFF and 0 <= dst_port <= 0xFFFF):
        raise WireFormatError(f"ident++ first line port out of range: {line!r}")
    return proto, src_port, dst_port


@dataclass
class IdentQuery:
    """An ident++ query about one flow, aimed at one of its endpoints.

    Attributes:
        flow: The flow being asked about.
        target_role: Which end of the flow is being queried
            (``"src"`` or ``"dst"``).
        keys: The key hints included in the query payload.
    """

    flow: FlowSpec
    target_role: str = ROLE_SOURCE
    keys: tuple[str, ...] = DEFAULT_QUERY_KEYS

    def __post_init__(self) -> None:
        if self.target_role not in (ROLE_SOURCE, ROLE_DESTINATION):
            raise WireFormatError(f"unknown ident++ query target role: {self.target_role!r}")
        if self.keys.__class__ is not tuple:
            self.keys = tuple(self.keys)

    @property
    def target_ip(self):
        """Return the IP address of the host this query is addressed to."""
        return self.flow.src_ip if self.target_role == ROLE_SOURCE else self.flow.dst_ip

    def to_payload(self) -> str:
        """Serialise the query payload."""
        lines = [_first_line(self.flow)]
        lines.extend(self.keys)
        return "\n".join(lines)


@dataclass
class IdentResponse:
    """An ident++ response: the echoed flow line plus the section document."""

    flow: FlowSpec
    document: ResponseDocument
    responder: str = ""

    def to_payload(self) -> str:
        """Serialise the response payload (§3.2 format)."""
        body = self.document.to_body()
        first = _first_line(self.flow)
        if body:
            return first + "\n" + body
        return first


# ----------------------------------------------------------------------
# Push-plane messages (wire version 2)
# ----------------------------------------------------------------------

@dataclass
class IdentSubscribe:
    """A standing-interest registration against one host's daemon.

    The controller (named ``subscriber``) asks the daemon on ``host_ip``
    to push an :class:`IdentDelta` whenever any of ``keys`` may have
    changed.  ``version`` carries the sender's wire version so a legacy
    (v1) daemon can refuse with a downgraded ack instead of guessing.
    """

    host_ip: str
    subscriber: str
    keys: tuple[str, ...] = field(default_factory=lambda: tuple(DEFAULT_QUERY_KEYS))
    version: int = WIRE_VERSION_PUSH

    def __post_init__(self) -> None:
        self.host_ip = str(self.host_ip)
        self.keys = tuple(self.keys)
        if not self.subscriber or any(ch.isspace() for ch in self.subscriber):
            raise WireFormatError(f"invalid ident++ subscriber name: {self.subscriber!r}")

    def to_payload(self) -> str:
        lines = [f"SUBSCRIBE {self.version} {self.subscriber}"]
        lines.extend(self.keys)
        return "\n".join(lines)


@dataclass
class IdentSubscribeAck:
    """The daemon's answer to an :class:`IdentSubscribe`.

    ``accepted`` is the capability negotiation result: a push-capable
    daemon accepts and advertises :data:`CAP_SUBSCRIBE`; a legacy daemon
    answers ``accepted=False`` at ``version=1`` with no capabilities,
    telling the controller to fall back to the pull path.  ``serial`` is
    the daemon's current delta serial — the subscriber's baseline, so
    the first delta it must apply is ``serial + 1``.
    """

    host_ip: str
    accepted: bool
    capabilities: tuple[str, ...] = ()
    version: int = WIRE_VERSION_PUSH
    serial: int = 0

    def __post_init__(self) -> None:
        self.host_ip = str(self.host_ip)
        self.capabilities = tuple(self.capabilities)

    def to_payload(self) -> str:
        status = "ok" if self.accepted else "refused"
        lines = [f"SUBSCRIBE-ACK {self.version} {status} {self.serial}"]
        lines.extend(self.capabilities)
        return "\n".join(lines)


@dataclass
class IdentDelta:
    """One pushed identity change: (host, key-set), serial-numbered.

    ``serial`` totally orders one daemon's deltas; a subscriber that
    sees ``serial <= last_applied`` drops the message as a duplicate,
    and a gap after failover means deltas were missed and the resident
    answers must be re-primed.  An empty ``keys`` tuple means "the
    whole identity document may have changed".
    """

    host_ip: str
    serial: int
    reason: str = ""
    keys: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.host_ip = str(self.host_ip)
        self.keys = tuple(self.keys)
        if self.serial < 0:
            raise WireFormatError(f"ident++ delta serial must be >= 0: {self.serial}")

    def to_payload(self) -> str:
        reason = self.reason or "-"
        if any(ch.isspace() for ch in reason):
            reason = reason.replace(" ", "_")
        lines = [f"DELTA {self.serial} {reason}"]
        lines.extend(self.keys)
        return "\n".join(lines)


@dataclass
class IdentUnsubscribe:
    """Cancel one subscriber's standing interest in one host."""

    host_ip: str
    subscriber: str

    def __post_init__(self) -> None:
        self.host_ip = str(self.host_ip)
        if not self.subscriber or any(ch.isspace() for ch in self.subscriber):
            raise WireFormatError(f"invalid ident++ subscriber name: {self.subscriber!r}")

    def to_payload(self) -> str:
        return f"UNSUBSCRIBE {self.subscriber}"


def parse_push_payload(payload: str, *, host_ip):
    """Parse one push-plane payload; dispatches on the first token.

    Returns the matching message dataclass.  ``host_ip`` supplies the
    addressing the payload itself does not carry (it rides in the IP
    header, like query/response addressing does).  Raises
    :class:`WireFormatError` on malformed input or an unsupported
    version.
    """
    lines = str(payload).splitlines()
    if not lines or not lines[0].split():
        raise WireFormatError("empty ident++ push payload")
    head = lines[0].split()
    kind = head[0].upper()
    rest = tuple(line.strip() for line in lines[1:] if line.strip())
    if kind == "SUBSCRIBE":
        if len(head) != 3:
            raise WireFormatError(f"malformed SUBSCRIBE line: {lines[0]!r}")
        try:
            version = int(head[1])
        except ValueError as exc:
            raise WireFormatError(f"malformed SUBSCRIBE version: {lines[0]!r}") from exc
        if version < WIRE_VERSION_PUSH:
            raise WireFormatError(
                f"SUBSCRIBE requires wire version >= {WIRE_VERSION_PUSH} (got {version})"
            )
        return IdentSubscribe(host_ip=host_ip, subscriber=head[2], keys=rest or tuple(DEFAULT_QUERY_KEYS), version=version)
    if kind == "SUBSCRIBE-ACK":
        if len(head) != 4 or head[2] not in ("ok", "refused"):
            raise WireFormatError(f"malformed SUBSCRIBE-ACK line: {lines[0]!r}")
        try:
            version, serial = int(head[1]), int(head[3])
        except ValueError as exc:
            raise WireFormatError(f"malformed SUBSCRIBE-ACK line: {lines[0]!r}") from exc
        return IdentSubscribeAck(
            host_ip=host_ip, accepted=head[2] == "ok",
            capabilities=rest, version=version, serial=serial,
        )
    if kind == "DELTA":
        if len(head) != 3:
            raise WireFormatError(f"malformed DELTA line: {lines[0]!r}")
        try:
            serial = int(head[1])
        except ValueError as exc:
            raise WireFormatError(f"malformed DELTA serial: {lines[0]!r}") from exc
        reason = "" if head[2] == "-" else head[2]
        return IdentDelta(host_ip=host_ip, serial=serial, reason=reason, keys=rest)
    if kind == "UNSUBSCRIBE":
        if len(head) != 2:
            raise WireFormatError(f"malformed UNSUBSCRIBE line: {lines[0]!r}")
        return IdentUnsubscribe(host_ip=host_ip, subscriber=head[1])
    raise WireFormatError(f"unknown ident++ push message kind: {head[0]!r}")


def parse_query_payload(
    payload: str,
    *,
    query_src_ip,
    query_dst_ip,
    target_role: str = ROLE_SOURCE,
) -> IdentQuery:
    """Parse a query payload back into an :class:`IdentQuery`.

    The flow's IP addresses are reconstructed from the query packet's IP
    header: the queried host is always the packet's destination, and the
    spoofed source is the flow's other end.  ``target_role`` says which
    end the queried host plays.
    """
    lines = [line for line in str(payload).splitlines()]
    if not lines:
        raise WireFormatError("empty ident++ query payload")
    proto, src_port, dst_port = _parse_first_line(lines[0])
    keys = tuple(line.strip() for line in lines[1:] if line.strip())
    if target_role == ROLE_SOURCE:
        flow = FlowSpec(
            src_ip=query_dst_ip, dst_ip=query_src_ip,
            proto=proto, src_port=src_port, dst_port=dst_port,
        )
    elif target_role == ROLE_DESTINATION:
        flow = FlowSpec(
            src_ip=query_src_ip, dst_ip=query_dst_ip,
            proto=proto, src_port=src_port, dst_port=dst_port,
        )
    else:
        raise WireFormatError(f"unknown ident++ query target role: {target_role!r}")
    return IdentQuery(flow=flow, target_role=target_role, keys=keys or tuple(DEFAULT_QUERY_KEYS))


def parse_query_packet(packet: Packet) -> IdentQuery:
    """Parse a query directly from a packet (role read from packet metadata)."""
    if not packet.carries_ip or packet.ip_proto != IP_PROTO_TCP or packet.tp_dst != IDENT_PP_PORT:
        raise WireFormatError("packet is not an ident++ query (wrong protocol/port)")
    metadata = packet.metadata
    role = ROLE_SOURCE if metadata is None else metadata.get("role", ROLE_SOURCE)
    payload = packet.payload if isinstance(packet.payload, str) else packet.payload_bytes().decode("utf-8")
    return parse_query_payload(
        payload, query_src_ip=packet.ip_src, query_dst_ip=packet.ip_dst, target_role=role
    )


def parse_response_payload(payload: str, flow: Optional[FlowSpec] = None) -> IdentResponse:
    """Parse a response payload into an :class:`IdentResponse`.

    When ``flow`` is given it overrides the proto/port line (the IP
    addresses are not carried in the payload); otherwise a placeholder
    flow with zeroed addresses is synthesised from the first line.
    """
    lines = str(payload).splitlines()
    if not lines:
        raise WireFormatError("empty ident++ response payload")
    proto, src_port, dst_port = _parse_first_line(lines[0])
    body = "\n".join(lines[1:])
    document = ResponseDocument.from_body(body)
    if flow is None:
        flow = FlowSpec(src_ip=0, dst_ip=0, proto=proto, src_port=src_port, dst_port=dst_port)
    else:
        if (flow.proto, flow.src_port, flow.dst_port) != (proto, src_port, dst_port):
            raise WireFormatError(
                "response first line does not match the expected flow: "
                f"{proto_name(proto)} {src_port} {dst_port} vs {flow}"
            )
    return IdentResponse(flow=flow, document=document)
