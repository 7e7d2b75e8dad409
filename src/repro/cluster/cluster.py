"""A sharded cluster of ident++ controllers behind one consistent-hash map.

The paper's single controller (§3.4) is the scalability chokepoint:
every new flow punts to one decision loop.  :class:`ControllerCluster` fronts N
:class:`~repro.core.controller.IdentPPController` replicas with a
:class:`~repro.cluster.shard_map.ShardMap`:

* every switch gets one control channel **per replica** plus a shard
  router, so each flow punts directly to its owning shard — no central
  dispatcher on the punt path;
* a :class:`~repro.cluster.failover.FailoverMonitor` detects a dead
  replica by missed heartbeats, re-homes its ring arc and re-punts its
  orphaned in-flight flows to the successors (fail-closed throughout:
  adopted flows get the successor's pending deadline);
* a :class:`~repro.cluster.coordinator.ClusterCoordinator` applies
  policy reloads and delegation grants/revocations to every replica in
  one call, so a ``revoke_delegation`` issued on any shard takes effect
  cluster-wide, with the originating shard audited ("override, audit,
  and revoke the delegation when necessary", §7);
* the replicas share one path-install registry (flow entries "along
  the path", §3.4): whichever replica a hop's ``FlowRemoved`` reaches
  tears the whole path down, so a dead owner strands no unwind.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.cluster.coordinator import ClusterCoordinator
from repro.cluster.failover import FailoverMonitor
from repro.cluster.shard_map import ShardMap, flow_key, identity_key
from repro.core.audit import AuditTrail
from repro.core.controller import ControllerConfig, IdentPPController
from repro.core.installer import PathInstall, PathInstaller
from repro.core.policy_engine import PolicyEngine
from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec
from repro.netsim.packet import Packet
from repro.netsim.topology import Topology
from repro.openflow.messages import PacketIn
from repro.openflow.switch import OpenFlowSwitch


class ControllerCluster:
    """N ident++ controller shards, one consistent-hash control plane."""

    def __init__(
        self,
        name: str,
        topology: Topology,
        *,
        shards: int = 2,
        config: Optional[ControllerConfig] = None,
        policy_default_action: str = "pass",
    ) -> None:
        if shards < 1:
            raise TopologyError(f"a cluster needs at least one shard (got {shards})")
        self.name = name
        self.topology = topology
        self.config = config if config is not None else ControllerConfig()
        self.replicas: dict[str, IdentPPController] = {}
        # One path registry per control plane: the replica a hop's
        # FlowRemoved reaches pops the cookie and unwinds on its channels.
        self.path_installs: dict[str, PathInstall] = {}
        for index in range(shards):
            shard_name = f"{name}.shard{index}"
            engine = PolicyEngine(
                default_action=policy_default_action, name=f"{shard_name}.policy"
            )
            replica = self.replicas[shard_name] = IdentPPController(
                shard_name, topology, engine, config=self.config
            )
            replica.installer = PathInstaller(replica, self.path_installs)
        self.shard_map = ShardMap(self.replicas)
        self.coordinator = ClusterCoordinator(self)
        self.monitor = FailoverMonitor(self)
        self.failovers = 0
        self.repunted_flows = 0
        self.repunted_messages = 0

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    @property
    def sim(self):
        """Return the topology's simulator clock."""
        return self.topology.sim

    @property
    def now(self) -> float:
        """Return the current simulated time."""
        return self.sim.now if self.sim is not None else 0.0

    def register_switch(self, switch: OpenFlowSwitch) -> None:
        """Give ``switch`` one channel per replica and the shard router."""
        for controller in self.replicas.values():
            controller.register_switch(switch)
        switch.set_shard_router(self.route)

    def route(self, packet: Packet) -> Iterable[str]:
        """Return the preference-ordered shard names for a punted packet.

        Lazy: the common case (owner channel up) only walks the ring to
        the first live shard; successors are resolved only if the
        switch keeps iterating past a downed channel.
        """
        return self.shard_map.iter_preference_of_key(self._routing_key(packet))

    def _routing_key(self, packet: Packet) -> str:
        """Return the ring key for a packet.

        Non-IP traffic has no 5-tuple; it hashes under one stable key so
        a single shard consistently handles it.  Punt routing and
        failover re-homing both go through here, so they cannot
        disagree on ownership.
        """
        if packet.carries_ip:
            return flow_key(FlowSpec.from_packet(packet))
        return f"{self.name}:non-ip"

    def replica(self, name: str) -> IdentPPController:
        """Return a replica by shard name."""
        try:
            return self.replicas[name]
        except KeyError as exc:
            raise TopologyError(f"unknown shard: {name}") from exc

    # ------------------------------------------------------------------
    # Failure injection + failover
    # ------------------------------------------------------------------

    def kill(self, shard: str) -> None:
        """Crash a replica: it stops processing and its channels drop.

        Future punts re-home immediately (the shard router skips
        disconnected channels); flows already inside the dead replica
        wait for the :class:`FailoverMonitor` to export them.
        """
        controller = self.replica(shard)
        controller.halt()
        for channel in controller.channels.values():
            channel.disconnect()

    def restore(self, shard: str) -> None:
        """Bring a crashed replica back into the ring.

        Channels reconnect before the replica resumes so what it replays
        from its halted inbox (punts, a FlowRemoved whose path it then
        unwinds) and any deadline it fails closed can reach the switches
        again.
        """
        controller = self.replica(shard)
        for channel in controller.channels.values():
            channel.reconnect()
        self.shard_map.revive(shard)
        # Resync before resume: the punts resume() replays from the
        # halted inbox must be decided under the policy/delegation state
        # the corpse missed, not the stale pre-crash one.
        self.coordinator.resync(shard)
        controller.resume()
        self.monitor.note_revived(shard)

    def fail_over(self, shard: str) -> int:
        """Re-home a dead shard's ring arc and re-punt its orphaned flows.

        Exports the dead replica's pending table and halted inbox as one
        backlog, then delivers every orphaned PacketIn to the shard that
        now owns its flow.  Returns how many flows were re-punted.

        A shard that is somehow still running is killed first: exporting
        a *live* replica's pending table would let its in-flight
        decision events complete against successors' adoptions —
        duplicate decisions, duplicate flow entries.
        """
        dead = self.replica(shard)
        if not dead.halted:
            self.kill(shard)
        if self.shard_map.is_live(shard):
            self.shard_map.mark_dead(shard)
        self.failovers += 1
        # Re-home the corpse's standing subscriptions *before* its
        # punts: each successor must be resident (or resident-in-flight)
        # by the time the re-punted backlog arrives, or the backlog pays
        # the pull round-trips the push plane exists to remove.  The
        # re-home is also committed to the coordinator's replay log, so
        # a shard revived later re-registers interest in the hosts it
        # owns instead of rebuilding residency from cold punt history.
        dead_plane = dead.query_engine.push_plane
        push_records = dead_plane.export() if dead_plane is not None else []
        if push_records:
            by_successor: dict[str, list] = {}
            for record in push_records:
                owner = self.shard_map.owner_of_key(identity_key(record["host_ip"]))
                by_successor.setdefault(owner, []).append(record)
            for owner, records in by_successor.items():
                self.replicas[owner].query_engine.push_plane.adopt(records)
            self.coordinator.rehome_subscriptions(
                [record["host_ip"] for record in push_records], origin_shard=shard
            )
        repunted_keys: set[str] = set()
        for message in dead.export_pending() + dead.take_halted_messages():
            # The dead process's frozen punts, then its socket backlog:
            # punts re-home to their owners; a FlowRemoved goes to any
            # running replica, which unwinds its path from the shared
            # registry (with none running it stays in the corpse's inbox
            # for restore()).
            if isinstance(message, PacketIn):
                key = self._routing_key(message.packet)
                self.replicas[self.shard_map.owner_of_key(key)].adopt_punt(message)
                self.repunted_messages += 1
                repunted_keys.add(key)
            else:
                receiver = next((c for c in self.replicas.values() if not c.halted), dead)
                receiver.handle_message(message)
        self.repunted_flows += len(repunted_keys)
        return len(repunted_keys)

    # ------------------------------------------------------------------
    # Cluster-wide configuration (delegated to the coordinator)
    # ------------------------------------------------------------------

    def set_policy(self, files: dict[str, str]):
        """Load ``.control`` files on every shard (one cluster epoch)."""
        return self.coordinator.set_policy(files)

    def grant_delegation(self, principal: str, key):
        """Grant a principal on every shard."""
        return self.coordinator.grant_delegation(principal, key)

    def revoke_delegation(self, principal: str, *, origin_shard: Optional[str] = None):
        """Revoke a grant cluster-wide (see :class:`ClusterCoordinator`)."""
        return self.coordinator.revoke_delegation(principal, origin_shard=origin_shard)

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def pending_total(self) -> int:
        """Return how many flows are pending across all replicas."""
        return sum(c.inflight_count() for c in self.replicas.values())

    def decided_total(self) -> int:
        """Return non-cached decisions made across all replicas."""
        return sum(
            summary["total"] - summary["cached"]
            for summary in (c.audit.summary() for c in self.replicas.values())
        )

    def audit_records(self) -> AuditTrail:
        """Return every replica's audit records, ordered by time (a tie in
        replica order), as a trail that merges the logs when it is walked."""
        return AuditTrail(c.audit for c in self.replicas.values())

    def __repr__(self) -> str:
        return (
            f"ControllerCluster({self.name!r}, shards={len(self.replicas)}, "
            f"live={len(self.shard_map.live_shards())})"
        )
