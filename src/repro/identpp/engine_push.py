"""The push identity plane: standing subscriptions over a query engine's store.

A :class:`PushPlane` registers standing interest with a hot host's
daemon (wire-v2 SUBSCRIBE; a legacy daemon refuses and pull applies)
once :meth:`PushPlane.note_punt` has counted ``promote_punts`` punts
toward it.  Pull versus push is then only the **expiry policy** of an
entry in the engine's one store: a subscribed host's shareable answers
are *resident* (:data:`~repro.identpp.engine_store.UNTIL_DELTA`), served with
**zero** daemon round-trips.  A daemon change reaches the engine once,
as its delta; the engine drops the host's TTL entries and hands it to
:meth:`PushPlane.apply_delta`, which applies its serial and *re-primes*
each resident answer off the punt path, so the first post-change punt
pays nothing.  The plane works through the public verbs of the engine
and of its :class:`~repro.identpp.engine_store.AnswerStore`; a pull
engine holds no plane.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.identpp.wire import CAP_SUBSCRIBE, DEFAULT_QUERY_KEYS, IdentDelta, IdentSubscribe


@dataclass
class PushSubscription:
    """One standing subscription: host and delta position.

    ``serial`` is the last delta serial applied; a gap against the
    daemon's serial after failover means deltas were missed.
    ``last_hit`` is the subscription instant until a resident hit
    moves it.
    """

    host_ip: str
    serial: int
    last_hit: float
    from_node: object = None


class PushPlane:
    """One engine's standing subscriptions; constructing it attaches it to ``engine``."""

    def __init__(self, engine, *, idle_demote: float, promote_punts: int) -> None:
        self.engine = engine
        #: Idle seconds after which the lifecycle sweeper demotes a host.
        self.idle_demote = idle_demote
        #: Punts toward a destination that earn it a subscription.
        self.promote_punts = promote_punts
        #: Standing subscriptions by host IP.
        self.subscriptions: dict[str, PushSubscription] = {}
        # Punts per not-yet-subscribed destination (promotion tally).
        self._punts: dict[str, int] = {}
        self.deltas_applied = 0
        self.duplicate_deltas = 0
        engine.push_plane = self
        engine.enabled = True

    def note_punt(self, host_ip, *, from_node=None) -> None:
        """Tally one punt toward a destination; subscribe it when hot.

        A destination punted :attr:`promote_punts` times earns a
        standing subscription.  A refused subscription (no daemon, or a
        legacy one) leaves the tally in place, so each later punt asks
        again and a daemon upgrade is noticed on the next one.
        """
        ip = str(host_ip)
        if ip in self.subscriptions:
            return
        count = self._punts.get(ip, 0) + 1
        self._punts[ip] = count
        if count >= self.promote_punts and self.subscribe_host(ip, from_node=from_node):
            del self._punts[ip]

    def subscribe_host(self, host_ip, *, from_node=None) -> bool:
        """Open (or confirm) a standing subscription on one host's daemon.

        Returns ``True`` when the host is subscribed after the call.
        Refusals — no daemon on the host, or a legacy wire-v1 daemon —
        return ``False`` and change nothing, so asking again gets the
        same answer until the daemon changes.  The table holds at most
        one subscription per host, and idle ones are demoted after
        :attr:`idle_demote`.
        """
        engine = self.engine
        ip = str(host_ip)
        daemon = getattr(engine.client.topology.node_for_ip(ip), "identpp_daemon", None)
        if daemon is None:
            return False
        if ip in self.subscriptions:
            return True
        ack = daemon.subscribe(
            IdentSubscribe(host_ip=ip, subscriber=engine.name, keys=DEFAULT_QUERY_KEYS)
        )
        if not ack.accepted or CAP_SUBSCRIBE not in ack.capabilities:
            return False
        now = engine.now()
        self.subscriptions[ip] = PushSubscription(
            host_ip=ip, serial=ack.serial, last_hit=now, from_node=from_node
        )
        engine.hook(ip, daemon)
        # A flash crowd's hot answer fills on the punt *before* the one
        # that promotes it; without this the next wave pays a round trip.
        engine.store.promote(ip, now)
        return True

    def unsubscribe_host(self, host_ip) -> bool:
        """Close a standing subscription and drop its resident answers.

        The daemon-side subscription is always cancelled, and when the
        host has no TTL entries left either, the listener is
        unregistered too — a demoted host strands nothing on its daemon
        (the stale-subscription leak fix).  The host's promotion tally
        starts again from zero.  Returns ``True`` when a subscription
        existed.
        """
        ip = str(host_ip)
        if self._close_subscription(ip) is None:
            return False
        self._punts.pop(ip, None)
        return True

    def _close_subscription(self, host_ip: str) -> Optional[PushSubscription]:
        """Cancel one host's subscription and end the residency of its answers."""
        sub = self.subscriptions.pop(host_ip, None)
        if sub is None:
            return None
        self.engine.end_residency(host_ip)
        return sub

    def apply_delta(self, delta: IdentDelta) -> None:
        """Apply one delta's serial and re-prime the host's resident answers.

        The engine has already dropped the host's TTL entries, so every
        entry left is resident.  A serial at or below the last applied
        one is a duplicate (e.g. re-delivered around a failover re-home)
        and is dropped: the refresh it would trigger already happened.
        """
        sub = self.subscriptions.get(delta.host_ip)
        if sub is None:
            return
        if delta.serial <= sub.serial:
            self.duplicate_deltas += 1
            return
        sub.serial = delta.serial
        self.deltas_applied += 1
        engine = self.engine
        now = engine.now()
        for entry in engine.store.entries(delta.host_ip):
            engine.reprime(entry, now, sub.from_node)

    def demote_idle(self, now: float) -> int:
        """Demote subscriptions idle past :attr:`idle_demote` (sweep hook)."""
        idle = [ip for ip, sub in self.subscriptions.items() if now - sub.last_hit >= self.idle_demote]
        for ip in idle:
            self.unsubscribe_host(ip)
        return len(idle)

    def next_demotion(self) -> Optional[float]:
        """Return the earliest instant a subscription can go idle-demoted."""
        if not self.subscriptions:
            return None
        return min(sub.last_hit + self.idle_demote for sub in self.subscriptions.values())

    # ------------------------------------------------------------------
    # Failover hand-off
    # ------------------------------------------------------------------

    def export(self) -> list[dict]:
        """Tear down every subscription for failover hand-off.

        Returns one record per subscription — host, last applied delta
        serial, the querying node and the resident entries — in the
        shape :meth:`adopt` consumes on the successor shard.  The dying
        engine's subscriptions are all cancelled daemon-side; its
        listener on a host's daemon goes with them unless TTL entries
        for the host stay behind — those must keep hearing the daemon's
        deltas, or a revived shard would serve them stale.
        """
        records: list[dict] = []
        for ip in list(self.subscriptions):
            entries = [entry for entry in self.engine.store.entries(ip) if entry.resident]
            sub = self._close_subscription(ip)
            records.append({
                "host_ip": ip, "serial": sub.serial, "from_node": sub.from_node,
                "entries": entries,
            })
        return records

    def adopt(self, records) -> int:
        """Re-home exported subscriptions onto this plane (failover).

        For each record the successor opens its *own* subscription, then
        compares delta serials: if the daemon published nothing since
        the dead shard's last applied delta, the exported resident
        answers install verbatim (no deltas were lost, and the serial
        guard in :meth:`apply_delta` rejects any replayed ones); if the
        serials diverged, the answers are conservatively re-primed, so
        the successor is resident — or resident-in-flight — before the
        re-punted backlog arrives.  Returns how many subscriptions were
        adopted.
        """
        engine = self.engine
        now = engine.now()
        adopted = 0
        for record in records:
            ip = str(record["host_ip"])
            if not self.subscribe_host(ip, from_node=record.get("from_node")):
                continue
            adopted += 1
            sub = self.subscriptions[ip]
            fresh = sub.serial == record["serial"]
            for entry in record["entries"]:
                # The dead engine's parked continuations must not
                # transfer: its futures belong to decision tasks that
                # were exported separately (or died with the shard).
                entry.waiters = []
                engine.store.put(entry)
                if not fresh:
                    engine.reprime(entry, now, sub.from_node)
        return adopted
