"""Tests for the consistent-hash shard map."""

import collections

import pytest

from repro.cluster.shard_map import DEFAULT_VNODES, ShardMap, flow_key
from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec


def make_flows(count):
    return [
        FlowSpec.tcp(
            f"10.{(i >> 8) % 200}.{i % 256}.{1 + i % 250}",
            f"192.168.1.{1 + i % 8}",
            40_000 + i % 20_000,
            80,
        )
        for i in range(count)
    ]


SHARDS = ["shard0", "shard1", "shard2", "shard3"]


class TestAssignment:
    def test_deterministic_across_instances(self):
        flows = make_flows(200)
        a = ShardMap(SHARDS)
        b = ShardMap(SHARDS)
        assert [a.owner(f) for f in flows] == [b.owner(f) for f in flows]

    def test_direction_independent(self):
        # Reply traffic must land on the shard that holds the state.
        for flow in make_flows(100):
            ring = ShardMap(SHARDS)
            assert ring.owner(flow) == ring.owner(flow.reversed())
            assert flow_key(flow) == flow_key(flow.reversed())

    def test_balance_within_reason(self):
        ring = ShardMap(SHARDS)
        counts = collections.Counter(ring.owner(flow) for flow in make_flows(4000))
        assert set(counts) == set(SHARDS)
        # Consistent hashing is not perfectly uniform, but no shard may
        # dominate: the scale bench's 3x floor needs the largest shard
        # near 1/N of the load.
        assert max(counts.values()) / 4000 < 0.35
        assert min(counts.values()) > 0

    def test_preference_starts_with_owner_and_covers_live_shards(self):
        ring = ShardMap(SHARDS)
        flow = make_flows(1)[0]
        preference = ring.preference(flow)
        assert preference[0] == ring.owner(flow)
        assert sorted(preference) == sorted(SHARDS)


class TestFailure:
    def test_mark_dead_rehomes_only_the_dead_arc(self):
        flows = make_flows(1000)
        ring = ShardMap(SHARDS)
        before = {id(f): ring.owner(f) for f in flows}
        ring.mark_dead("shard2")
        for flow in flows:
            owner = ring.owner(flow)
            assert owner != "shard2"
            if before[id(flow)] != "shard2":
                # Minimal disruption: survivors keep their flows.
                assert owner == before[id(flow)]

    def test_successor_adopts_dead_shards_flows(self):
        ring = ShardMap(SHARDS)
        flows = [f for f in make_flows(500) if ring.owner(f) == "shard1"]
        assert flows
        for flow in flows:
            successor = ring.successor(flow, "shard1")
            assert successor in SHARDS and successor != "shard1"
            ring.mark_dead("shard1")
            assert ring.owner(flow) == successor
            ring.revive("shard1")

    def test_revive_restores_exact_assignment(self):
        flows = make_flows(300)
        ring = ShardMap(SHARDS)
        before = [ring.owner(f) for f in flows]
        ring.mark_dead("shard0")
        ring.revive("shard0")
        assert [ring.owner(f) for f in flows] == before

    def test_cannot_kill_the_last_live_shard(self):
        ring = ShardMap(["a", "b"])
        ring.mark_dead("a")
        with pytest.raises(TopologyError):
            ring.mark_dead("b")
        # The failed mark must not poison the ring: "b" stays live and
        # every lookup still resolves.
        assert ring.live_shards() == ["b"]
        assert ring.owner_of_key("anything") == "b"

    def test_dead_shards_excluded_from_preference(self):
        ring = ShardMap(SHARDS)
        ring.mark_dead("shard3")
        flow = make_flows(1)[0]
        assert "shard3" not in ring.preference(flow)


class TestMembership:
    def test_add_shard(self):
        ring = ShardMap(["a", "b"])
        ring.add_shard("c")
        assert sorted(ring.shards()) == ["a", "b", "c"]

    def test_adding_a_shard_moves_flows_only_onto_it(self):
        flows = make_flows(400)
        ring = ShardMap(SHARDS)
        before = {flow: ring.owner(flow) for flow in flows}
        ring.add_shard("shard4")
        moved = [flow for flow in flows if ring.owner(flow) != before[flow]]
        assert moved
        assert all(ring.owner(flow) == "shard4" for flow in moved)

    def test_a_dead_shard_stays_dead_when_the_ring_grows(self):
        ring = ShardMap(SHARDS)
        ring.mark_dead("shard1")
        ring.add_shard("shard4")
        assert not ring.is_live("shard1")
        assert ring.live_shards() == ["shard0", "shard2", "shard3", "shard4"]
        assert all(ring.owner(flow) != "shard1" for flow in make_flows(200))

    def test_unknown_shard_cannot_be_revived_or_is_live(self):
        ring = ShardMap(SHARDS)
        with pytest.raises(TopologyError):
            ring.revive("ghost")
        assert not ring.is_live("ghost")

    def test_duplicate_and_unknown_shards_rejected(self):
        ring = ShardMap(["a", "b"])
        with pytest.raises(TopologyError):
            ring.add_shard("a")
        with pytest.raises(TopologyError):
            ring.mark_dead("ghost")

    def test_empty_ring_rejected(self):
        with pytest.raises(TopologyError):
            ShardMap([])

    def test_stats_shape(self):
        ring = ShardMap(SHARDS)
        ring.owner(make_flows(1)[0])
        stats = ring.stats()
        assert stats["shards"] == 4
        assert stats["ring_size"] == 4 * DEFAULT_VNODES
        assert stats["lookups"] == 1
