"""Consistent-hash assignment of flows to controller shards.

The single ident++ controller (§3.4) is the scalability chokepoint:
every new flow punts to one decision loop.  The cluster splits that load across N
replicas with a consistent-hash ring — each shard owns many virtual
nodes, a flow hashes to the first virtual node clockwise from its own
hash — so

* assignment is **deterministic**: every switch, with no coordination,
  routes a given flow to the same shard;
* assignment is **symmetric**: a flow and its reverse hash to the same
  shard (the endpoint pair is ordered canonically before hashing), so
  ``keep state`` punts of reply traffic land on the shard that holds
  the state;
* failure is **minimally disruptive**: marking a shard dead re-homes
  only *its* arc of the ring onto the successors — every other flow
  keeps its owner, so live caches and pending tables stay valid.

Hashes are SHA-256 (:func:`repro.crypto.hashing.sha256_int`), so the
ring is stable across processes and runs.
"""

from __future__ import annotations

import bisect
from typing import Iterable

from repro.crypto.hashing import sha256_int
from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec

#: Virtual nodes per shard.  More vnodes → tighter load balance (the
#: cluster scale benchmark is gated on 4 shards ≥ 3x one shard, which
#: needs the largest shard to stay near 1/N of the flows).
DEFAULT_VNODES = 128

#: Ring positions are 64-bit so bisection stays cheap.
_RING_BITS = 64
_RING_MASK = (1 << _RING_BITS) - 1


def _position(label: str) -> int:
    """Return the stable ring position for a label."""
    return sha256_int(label) & _RING_MASK


def flow_key(flow: FlowSpec) -> str:
    """Return the canonical (direction-independent) hash key of a flow.

    The endpoint pair is ordered so ``a->b`` and ``b->a`` share a key:
    reply traffic of a ``keep state`` decision (PF's stateful pass,
    §3.2) must punt to the shard that cached the decision.
    """
    forward = (str(flow.src_ip), flow.src_port)
    reverse = (str(flow.dst_ip), flow.dst_port)
    first, second = sorted((forward, reverse))
    return f"{first[0]}:{first[1]}|{second[0]}:{second[1]}|{flow.proto}"


class ShardMap:
    """A consistent-hash ring over named controller shards."""

    def __init__(self, shards: Iterable[str]) -> None:
        self._shards: list[str] = []
        self._dead: set[str] = set()
        # Sorted, parallel arrays of (position, shard) — rebuilt on
        # membership change, binary-searched per lookup.
        self._positions: list[int] = []
        self._owners: list[str] = []
        for shard in shards:
            self.add_shard(shard)
        if not self._shards:
            raise TopologyError("a shard map needs at least one shard")

    # ------------------------------------------------------------------
    # Membership
    # ------------------------------------------------------------------

    def add_shard(self, shard: str) -> None:
        """Add a shard's virtual nodes to the ring."""
        if shard in self._shards:
            raise TopologyError(f"shard {shard!r} already in the ring")
        self._shards.append(shard)
        self._rebuild()

    def mark_dead(self, shard: str) -> None:
        """Mark a shard failed: lookups skip it, its ring arc re-homes.

        The shard's virtual nodes stay on the ring so :meth:`revive`
        restores the exact pre-failure assignment.
        """
        if shard not in self._shards:
            raise TopologyError(f"shard {shard!r} not in the ring")
        if all(s == shard or s in self._dead for s in self._shards):
            raise TopologyError("cannot mark the last live shard dead")
        self._dead.add(shard)

    def revive(self, shard: str) -> None:
        """Return a dead shard to service (its original arc comes back)."""
        if shard not in self._shards:
            raise TopologyError(f"shard {shard!r} not in the ring")
        self._dead.discard(shard)

    def shards(self) -> list[str]:
        """Return every shard on the ring (dead ones included)."""
        return list(self._shards)

    def live_shards(self) -> list[str]:
        """Return the shards currently taking traffic."""
        return [shard for shard in self._shards if shard not in self._dead]

    def is_live(self, shard: str) -> bool:
        """Return whether a shard is live."""
        return shard in self._shards and shard not in self._dead

    def _rebuild(self) -> None:
        ring = []
        for shard in self._shards:
            for vnode in range(DEFAULT_VNODES):
                ring.append((_position(f"{shard}#{vnode}"), shard))
        ring.sort()
        self._positions = [position for position, _ in ring]
        self._owners = [shard for _, shard in ring]

    # ------------------------------------------------------------------
    # Lookups
    # ------------------------------------------------------------------

    def owner(self, flow: FlowSpec) -> str:
        """Return the live shard that owns ``flow``."""
        return self.owner_of_key(flow_key(flow))

    def owner_of_key(self, key: str) -> str:
        """Return the live shard owning an arbitrary hash key."""
        start = self._bisect(_position(key))
        count = len(self._owners)
        for offset in range(count):
            shard = self._owners[(start + offset) % count]
            if shard not in self._dead:
                return shard
        raise TopologyError("no live shard in the ring")

    def iter_preference_of_key(self, key: str):
        """Yield the failover order lazily (the punt hot path).

        Punt routing usually consumes only the first shard (its channel
        is up), so the generator stops after a short walk to the first
        live vnode instead of scanning the whole ring per packet.
        """
        start = self._bisect(_position(key))
        count = len(self._owners)
        remaining = len(self.live_shards())
        seen: set[str] = set()
        for offset in range(count):
            if not remaining:
                return
            shard = self._owners[(start + offset) % count]
            if shard not in self._dead and shard not in seen:
                seen.add(shard)
                remaining -= 1
                yield shard

    def _bisect(self, position: int) -> int:
        """Return the ring index of the first vnode at/after ``position``."""
        index = bisect.bisect_left(self._positions, position)
        return index % len(self._positions)

    def __len__(self) -> int:
        return len(self._shards)

    def __repr__(self) -> str:
        return (
            f"ShardMap(shards={len(self._shards)}, live={len(self.live_shards())}, "
            f"vnodes={DEFAULT_VNODES})"
        )
