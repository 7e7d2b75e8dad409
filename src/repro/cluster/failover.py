"""Heartbeat-driven shard failure detection and pending-flow re-punt.

The paper's centralised controller (§3.4) is also a single point of
failure; the sharded cluster removes it only if a dead replica's
in-flight work is re-homed rather than stranded.  A dead replica
strands three kinds of flows:

1. flows in its ``_pending`` table — punts it accepted but never
   decided (queries or the decision event froze with the process);
2. punts that were in flight on its control channels when it died (the
   dead process's socket backlog, modelled by the halted inbox);
3. *future* punts — prevented structurally, because killing a replica
   disconnects its channels and the switch-side shard router skips
   disconnected channels on the spot.

The :class:`FailoverMonitor` closes 1 and 2: it polls each live shard
every :data:`DEFAULT_HEARTBEAT_INTERVAL` of simulated time, counts
consecutive missed heartbeats (a halted replica answers none), and
after :data:`DEFAULT_MISS_THRESHOLD` misses declares the shard dead —
marking its ring arc over to the successors and re-punting every
orphaned flow to the shard that now owns it.  Adopted flows run the
normal punt pipeline on the successor, including its fail-closed
pending deadline, so even a decision lost *twice* ends as an audited
drop rather than a stranded buffer.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Optional

from repro.exceptions import SimulationError

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ControllerCluster
    from repro.netsim.events import RepeatingEvent

#: How often the monitor polls shard liveness (simulated seconds).
DEFAULT_HEARTBEAT_INTERVAL = 0.05

#: Consecutive missed heartbeats before a shard is declared dead.
DEFAULT_MISS_THRESHOLD = 2


class FailoverMonitor:
    """Detects dead shards by missed heartbeats and triggers re-homing."""

    def __init__(self, cluster: "ControllerCluster") -> None:
        self.cluster = cluster
        self._misses: dict[str, int] = {}
        self._armed = False
        self._event: Optional["RepeatingEvent"] = None

    def start(self) -> None:
        """Begin polling on the cluster's simulator clock.

        The repeating event keeps itself scheduled only while armed, so
        :meth:`stop` lets the event queue drain (simulations can still
        run to completion).
        """
        if self._armed:
            return
        sim = self.cluster.sim
        if sim is None:
            raise SimulationError("failover monitor needs a simulator attached")
        self._armed = True
        self._event = sim.schedule_repeating(
            DEFAULT_HEARTBEAT_INTERVAL, self._tick, label="cluster:heartbeat"
        )

    def stop(self) -> None:
        """Stop polling (pending tick is cancelled)."""
        self._armed = False
        if self._event is not None:
            self._event.cancel()
            self._event = None

    def _tick(self) -> bool:
        """One heartbeat round: poll every live shard, fail the silent ones."""
        if not self._armed:
            return False
        for name in self.cluster.shard_map.live_shards():
            controller = self.cluster.replicas[name]
            if controller.halted:
                misses = self._misses.get(name, 0) + 1
                self._misses[name] = misses
                if misses < DEFAULT_MISS_THRESHOLD:
                    continue
                if len(self.cluster.shard_map.live_shards()) <= 1:
                    # Nobody left to adopt the flows: keep the shard
                    # suspected instead of wedging the ring.  Its flows
                    # stay frozen until a replica is restored; the
                    # switches already fail per their fail_mode.
                    continue
                self._misses.pop(name, None)
                self.cluster.fail_over(name)
            else:
                self._misses.pop(name, None)
        return self._armed

    def note_revived(self, shard: str) -> None:
        """Forget miss history for a shard brought back to service."""
        self._misses.pop(shard, None)
