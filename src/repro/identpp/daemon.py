"""The ident++ end-host daemon (§3.5).

"End-hosts run a simple userspace ident++ daemon that responds with the
key-value pairs to controller queries.  The daemon can answer queries
both when the end-host is the source and when it is a destination that
has yet to accept a connection."

The daemon gathers key/value pairs from three places:

1. **The operating system** — the process and user owning the queried
   5-tuple (found lsof-style through the host's socket table), the
   application's identity keys (name, executable hash, version, vendor)
   and host-level facts such as the installed OS patch level.
2. **Configuration files** — ``@app`` blocks from the system and user
   configuration directories (:mod:`repro.identpp.daemon_config`),
   possibly containing signed ``requirements`` the controller's
   ``allowed()``/``verify()`` functions consume.
3. **The application at run time** — pairs published over the
   Unix-domain-socket channel, modelled by :class:`RuntimeKeyRegistry`
   (e.g. a browser marking which flows were user-initiated).

Pairs from different sources go into different response sections, as the
wire format requires.

Each change to a future answer bumps the daemon's delta serial and hands
the same :class:`~repro.identpp.wire.IdentDelta` to every listener
(:meth:`IdentPPDaemon.notify_invalidation`): the listener list is the
one channel a change travels on.  A wire-v2 SUBSCRIBE only records the
subscriber's name and acks the serial it starts from.
"""

from __future__ import annotations

import copy
import sys
from functools import partial
from typing import Callable, Optional

from repro.exceptions import QueryError
from repro.hosts.endhost import EndHost
from repro.hosts.processes import Process
from repro.identpp.daemon_config import DaemonConfig
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import AnswerTemplate, KeyValueSection
from repro.identpp.wire import (
    CAP_SUBSCRIBE,
    ROLE_DESTINATION,
    ROLE_SOURCE,
    WIRE_VERSION_PULL,
    WIRE_VERSION_PUSH,
    IdentDelta,
    IdentQuery,
    IdentResponse,
    IdentSubscribe,
    IdentSubscribeAck,
)
from repro.netsim.statistics import Counter

#: Time the daemon takes to assemble one response (process lookup +
#: config file reads), charged to flow-setup latency.
DEFAULT_PROCESSING_DELAY = 500e-6

#: Invalidation reason for a socket opening or closing.
SOCKET_TABLE_CHANGED = "socket-table"

#: The memo key of a spoofed answer's template (no identity's key is a 1-tuple).
_SPOOFED = ("spoofed",)

#: Reason of the last notice a daemon sends when another replaces it on
#: its host: whatever it said no longer speaks for the host.
DAEMON_REPLACED = "daemon-replaced"


class RuntimeKeyRegistry:
    """Run-time key/value pairs published by applications.

    "The application can provide key-value pairs to the ident++ daemon at
    run-time ... sent to the ident++ daemon via a Unix domain socket"
    (§3.5).  The registry keys published pairs by flow so a single
    process can label individual flows differently (the browser example).
    """

    def __init__(self) -> None:
        self._by_flow: dict[FlowSpec, dict[str, str]] = {}
        self._by_pid: dict[int, dict[str, str]] = {}
        #: Called with a reason string whenever published pairs change.
        #: The owning daemon wires this to its cache-invalidation
        #: listeners so controller-side endpoint caches drop answers
        #: assembled before the publish.
        self.on_publish: Optional[Callable[[str], None]] = None

    def publish_for_flow(self, flow: FlowSpec, pairs: dict[str, str]) -> None:
        """Publish pairs that apply to one specific flow."""
        self._by_flow.setdefault(flow, {}).update({str(k): str(v) for k, v in pairs.items()})
        self._published()

    def publish_for_process(self, process: Process, pairs: dict[str, str]) -> None:
        """Publish pairs that apply to every flow of one process."""
        self._by_pid.setdefault(process.pid, {}).update({str(k): str(v) for k, v in pairs.items()})
        self._published()

    def _published(self) -> None:
        if self.on_publish is not None:
            self.on_publish("runtime-publish")

    def pairs_for(self, flow: FlowSpec, process: Optional[Process]) -> dict[str, str]:
        """Return the merged run-time pairs for a flow (flow-specific wins)."""
        merged: dict[str, str] = {}
        if process is not None:
            merged.update(self._by_pid.get(process.pid, {}))
        merged.update(self._by_flow.get(flow, {}))
        return merged

    def has_flow_pairs(self, flow: FlowSpec) -> bool:
        """Return whether any pairs were published for this *specific* flow."""
        return bool(self._by_flow.get(flow))


class IdentPPDaemon:
    """The ident++ daemon running on one end-host."""

    def __init__(
        self,
        host: EndHost,
        *,
        processing_delay: float = DEFAULT_PROCESSING_DELAY,
        host_facts: Optional[dict[str, str]] = None,
        serialize: bool = False,
        push_capable: bool = True,
    ) -> None:
        self.host = host
        self.processing_delay = processing_delay
        #: Wire-version-2 daemons accept SUBSCRIBE and publish deltas;
        #: legacy (v1) daemons refuse the handshake and the controller
        #: falls back to the pull path untouched.
        self.push_capable = push_capable
        #: §3.5's "simple userspace ident++ daemon" is a serial process:
        #: with ``serialize`` on, each answer occupies the daemon for
        #: ``processing_delay``, so a flash crowd's queries queue behind
        #: each other and a popular server's daemon becomes a measurable
        #: bottleneck.  Off by default so scenario timelines are stable.
        self.serialize = serialize
        self._busy_until = 0.0
        self.system_config = DaemonConfig()
        self.user_config = DaemonConfig()
        self.runtime = RuntimeKeyRegistry()
        self.runtime.on_publish = self.notify_invalidation
        #: Host-level facts reported on every response (OS name, patch
        #: level, ...).  Figure 8's policy checks ``os-patch``.
        self.host_facts: dict[str, str] = dict(host_facts or {})
        #: When the host is compromised an attacker may replace responses
        #: wholesale ("The attacker would gain control of the ident++
        #: daemon and can send false ident++ responses", §5.3).
        self.spoofed_pairs: Optional[dict[str, str]] = None
        self.queries_answered = Counter(f"{host.name}.identpp.queries_answered")
        # Controller-side endpoint caches (QueryEngine) register here to
        # hear about anything that changes future answers.
        self._invalidation_listeners: list[Callable[[IdentDelta], None]] = []
        # Names of the standing push subscribers (the deltas they hear
        # come through the listeners above).
        self._delta_subscribers: set[str] = set()
        #: Serial number of the *last* identity change this daemon saw.
        #: Bumped on every invalidation — subscribers or not — so a
        #: controller re-subscribing after failover can tell from the
        #: ack's serial whether it missed deltas during the gap.
        self.delta_serial = 0
        # The flow-independent part of an answer, built once per identity:
        # (user name, executable path) -> (what it was built from, its
        # AnswerTemplate).  Holds no Process (they churn);
        # ``notify_invalidation`` drops it.
        self._base_memo: dict[Optional[tuple], tuple[tuple, AnswerTemplate]] = {}
        # Make the daemon discoverable by the query client / controllers.
        replaced = getattr(host, "identpp_daemon", None)
        setattr(host, "identpp_daemon", self)
        # A socket gaining or losing an owner changes which process a
        # 5-tuple resolves to, which changes the answer.
        host.sockets.add_change_listener(partial(self.notify_invalidation, SOCKET_TABLE_CHANGED))
        # So does the owning user's group membership.
        host.users.add_change_listener(partial(self.notify_invalidation, "user-table"))
        if replaced is not None:
            replaced.notify_invalidation(DAEMON_REPLACED)

    # ------------------------------------------------------------------
    # Configuration
    # ------------------------------------------------------------------

    def load_system_config(self, text: str) -> None:
        """Load an administrator-controlled configuration file."""
        self.system_config.load(text, source="system")
        self.notify_invalidation("config-load")

    def load_user_config(self, text: str) -> None:
        """Load a user-controlled configuration file."""
        self.user_config.load(text, source="user")
        self.notify_invalidation("config-load")

    def spoof_responses(self, pairs: Optional[dict[str, str]]) -> None:
        """Make the daemon lie (attacker-controlled host).  ``None`` restores honesty."""
        self.spoofed_pairs = dict(pairs) if pairs is not None else None
        self.notify_invalidation("spoofed")

    # ------------------------------------------------------------------
    # Cache-invalidation fan-out
    # ------------------------------------------------------------------

    def add_invalidation_listener(self, listener: Callable[[IdentDelta], None]) -> None:
        """Register a callback fired with every :class:`IdentDelta` this daemon issues.

        Fired on runtime-key publishes, configuration loads, host-fact
        changes, spoofing toggles, host compromise, socket-table owner
        changes and this daemon's replacement.  The controller-side
        :class:`~repro.identpp.engine.QueryEngine` registers here while
        it holds an answer from, or a subscription on, this daemon.
        """
        if listener not in self._invalidation_listeners:
            self._invalidation_listeners.append(listener)

    def remove_invalidation_listener(self, listener: Callable[[IdentDelta], None]) -> None:
        """Unregister a listener (no-op when absent).

        An engine dropping its interest in this host must call this, or
        the daemon keeps a strong reference to the dead engine forever —
        the stale-subscription leak the push plane's demotion path
        exists to prevent.
        """
        try:
            self._invalidation_listeners.remove(listener)
        except ValueError:
            pass

    def notify_invalidation(self, reason: str) -> None:
        """Issue one delta: bump the serial and hand it to every listener.

        The serial is bumped unconditionally (even with no listeners, so
        a later subscriber's baseline reflects changes it never saw);
        every listener, pull or push, receives the same
        :class:`IdentDelta`.
        """
        self.delta_serial += 1
        if reason != SOCKET_TABLE_CHANGED:
            # Which process owns a flow is looked up per query; a socket
            # opening or closing changes nothing the memo holds.
            self._base_memo.clear()
        if not self._invalidation_listeners:
            return
        delta = IdentDelta(host_ip=str(self.host.ip), serial=self.delta_serial, reason=reason)
        for listener in list(self._invalidation_listeners):
            listener(delta)

    # ------------------------------------------------------------------
    # Push subscriptions (wire version 2)
    # ------------------------------------------------------------------

    def capabilities(self) -> tuple[str, ...]:
        """Return the wire capabilities this daemon advertises."""
        return (CAP_SUBSCRIBE,) if self.push_capable else ()

    def subscribe(self, message: IdentSubscribe) -> IdentSubscribeAck:
        """Handle a SUBSCRIBE: the wire-v2 handshake.

        A push-capable daemon accepts a version-2 SUBSCRIBE, records the
        subscriber's name and acks with its current :attr:`delta_serial`
        as the subscriber's baseline; the deltas themselves reach the
        subscriber through its invalidation listener.  A legacy daemon —
        or a downlevel SUBSCRIBE — is refused with a version-1 ack
        carrying no capabilities, which tells the controller to keep
        using the pull path.
        """
        if not self.push_capable or message.version < WIRE_VERSION_PUSH:
            return IdentSubscribeAck(
                host_ip=str(self.host.ip), accepted=False,
                capabilities=(), version=WIRE_VERSION_PULL, serial=0,
            )
        self._delta_subscribers.add(message.subscriber)
        return IdentSubscribeAck(
            host_ip=str(self.host.ip), accepted=True,
            capabilities=self.capabilities(), version=WIRE_VERSION_PUSH,
            serial=self.delta_serial,
        )

    def unsubscribe(self, subscriber: str) -> bool:
        """Cancel one subscriber's standing interest; True when it existed."""
        known = subscriber in self._delta_subscribers
        self._delta_subscribers.discard(subscriber)
        return known

    def subscriber_count(self) -> int:
        """Return how many standing push subscriptions this daemon holds."""
        return len(self._delta_subscribers)

    # ------------------------------------------------------------------
    # Answering queries
    # ------------------------------------------------------------------

    def answer(self, query: IdentQuery) -> IdentResponse:
        """Build the response document for a query.

        The queried host must be an endpoint of the flow in the role the
        query names; otherwise :class:`~repro.exceptions.QueryError` is
        raised (a real daemon would simply not receive such a query).

        The document is the owning identity's :class:`AnswerTemplate`
        (:meth:`_template`) with the process's own ``pid`` overlaid; the
        run-time pairs, when any were published, follow as a section of
        their own.
        """
        flow = query.flow
        expected_ip = flow.src_ip if query.target_role == ROLE_SOURCE else flow.dst_ip
        # Both are IPv4Address ints: C's comparison, not IPv4Address.__ne__.
        if int.__ne__(expected_ip, self.host.ip):
            raise QueryError(
                f"daemon on {self.host.name} ({self.host.ip}) queried as {query.target_role} "
                f"of flow {flow}, which names {expected_ip}"
            )
        self.queries_answered.value += 1
        spoofed = self.spoofed_pairs
        if spoofed is not None:
            key, built_from, process = _SPOOFED, tuple(spoofed.items()), None
        else:
            process = self.host.sockets.process_for_flow(
                flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port,
                as_destination=query.target_role == ROLE_DESTINATION,
            )
            if process is None:
                key, built_from = None, ()
            else:
                user, app = process.user, process.application
                key = (user.name, app.path)
                built_from = (
                    user.groups, app.name, app.version, app.vendor, app.app_type,
                    app.contents, app.extra_keys,
                )
        entry = self._base_memo.get(key)
        if entry is not None and entry[0] == built_from:
            template = entry[1]
        else:
            template = self._template(key, built_from, process)
        # Interned: every audit record whose view holds this answer keeps
        # the pid text, and many hosts run the same pids.
        document = template.document(
            None if template.slot is None else sys.intern(str(process.pid))
        )
        runtime = self.runtime
        if spoofed is None and (runtime._by_pid or runtime._by_flow):
            runtime_pairs = runtime.pairs_for(flow, process)
            if runtime_pairs:
                document.add_section(
                    KeyValueSection.from_dict(runtime_pairs, source=f"{self.host.name}:runtime")
                )
        return IdentResponse(flow, document, self.host.name)

    def answer_is_shareable(self, query: IdentQuery) -> bool:
        """Return whether the answer depends only on (host, role, proto, port).

        A controller-side endpoint cache may serve one flow's answer to
        *other* flows hitting the same host/role/port only when nothing
        in the answer is specific to the queried flow.  That fails in
        two cases: pairs were published for this exact flow
        (:meth:`RuntimeKeyRegistry.publish_for_flow`), or the 5-tuple
        resolves to a *connected* socket — a per-connection worker
        process whose identity must not be attributed to other flows.
        A listening socket's answer (the hot-server case) is shared
        safely; so is a spoofed answer (the attacker lies to everyone
        alike).
        """
        if self.spoofed_pairs is not None:
            return True
        flow = query.flow
        if self.runtime.has_flow_pairs(flow):
            return False
        as_destination = query.target_role == ROLE_DESTINATION
        socket = self.host.sockets.lookup_flow(
            flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port,
            as_destination=as_destination,
        )
        return socket is None or socket.is_listening

    def _template(self, key, built_from: tuple, process: Optional[Process]) -> AnswerTemplate:
        """Build (and memo) the :class:`AnswerTemplate` of one identity.

        The OS-derived section (user, group, application identity, host
        facts), then the configuration-file sections for the executable,
        built once per (user, application) and shared by every answer
        for it, with the ``pid`` left to each answer.  Users and
        applications are plain mutable objects with no change hook (a
        trojaned binary is just new ``contents``), so a memo entry is
        trusted only while what it was built from still compares equal;
        :meth:`notify_invalidation` drops the memo on any other change.
        A spoofed answer is one section of the attacker's pairs.
        """
        host = self.host.name
        if key is _SPOOFED:
            template = AnswerTemplate(
                [KeyValueSection.from_dict(dict(built_from), source=f"{host}:spoofed")]
            )
        else:
            base = KeyValueSection(source=f"{host}:daemon")
            base.add("responder", host)
            slot = None
            if process is None:
                base.add("no-process", "true")
                sections = [base]
            else:
                user, app = process.user, process.application
                base.add("userID", user.name)
                base.add("groupID", " ".join(sorted(user.groups)) or user.name)
                # ``pid`` is the one pair that differs between two
                # processes of one (user, application).
                slot = (0, len(base))
                base.add("pid", str(process.pid))
                for name, value in app.identity_keys().items():
                    base.add(name, value)
                sections = [
                    base,
                    *self.system_config.sections_for_path(app.path),
                    *self.user_config.sections_for_path(app.path),
                ]
            for name, value in sorted(self.host_facts.items()):
                base.add(name, value)
            template = AnswerTemplate(sections, slot)
        # Shallow copies: the strings are shared, the groups set and the
        # extra-keys dict become the memo's own, so a later in-place
        # change to either shows up as a difference.
        self._base_memo[key] = (tuple(map(copy.copy, built_from)), template)
        return template

    # ------------------------------------------------------------------
    # Controller-facing entry points
    # ------------------------------------------------------------------

    def query_local(
        self, query: IdentQuery, *, now: Optional[float] = None
    ) -> tuple[IdentResponse, float]:
        """Answer a query without going through the network.

        Returns ``(response, processing delay)``; the query client adds
        network round-trip time on top.  With :attr:`serialize` on and a
        clock reading supplied, the answer occupies the daemon's single
        thread — concurrent queries queue, and the returned delay is the
        caller's *wait-plus-service* time, not just the service time.
        """
        response = self.answer(query)
        if not self.serialize or now is None:
            return response, self.processing_delay
        start = max(now, self._busy_until)
        self._busy_until = start + self.processing_delay
        return response, self._busy_until - now

    def __repr__(self) -> str:
        return f"IdentPPDaemon(host={self.host.name!r})"
