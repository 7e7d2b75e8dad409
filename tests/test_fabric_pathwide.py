"""Tests for the path-wide enforcement fabric.

Covers the netsim fabric builders (spine-leaf, fat-tree), the
deterministic path tie-break and topology edge cases, multi-hop flow
install with exactly one punt, drop-at-first-hop denials,
FlowRemoved-driven path unwinding, the failed-switch fail-closed
semantics, and the cluster's re-homing of path-install state across a
shard failover.
"""

import pytest

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.exceptions import TopologyError
from repro.netsim.fabrics import build_fat_tree, build_spine_leaf
from repro.netsim.nodes import Node
from repro.netsim.topology import Topology
from repro.openflow.switch import OpenFlowSwitch

POLICY = {"00-fabric.control": "block all\npass from any to any port 80 keep state\n"}


def fabric_network(*, spines=2, leaves=4, clients=2, **net_kwargs):
    """A spine-leaf network: clients on leaf0.., server on the last leaf."""
    net = IdentPPNetwork(
        "fabric-test",
        policy_default_action="block",
        **net_kwargs,
    )
    fabric = net.add_spine_leaf_fabric(spines=spines, leaves=leaves)
    for index in range(clients):
        net.add_host(
            HostSpec(
                name=f"client{index}",
                ip=f"192.168.0.{10 + index}",
                users={"alice": ("users", "staff")},
            ),
            switch=fabric.leaves[index % (leaves - 1)],
        )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=fabric.leaves[-1])
    server.run_server("httpd", "root", 80)
    net.set_policy(POLICY)
    return net, fabric


def entries_with_cookie(net, cookie):
    """Map switch name -> entries carrying ``cookie`` (only non-empty)."""
    found = {}
    for name, switch in net.switches.items():
        entries = switch.flow_table.find(lambda e: e.cookie == cookie)
        if entries:
            found[name] = entries
    return found


class TestFabricBuilders:
    def test_spine_leaf_shape(self):
        fabric = build_spine_leaf(Node, spines=2, leaves=4)
        assert [n.name for n in fabric.spines] == ["fabric-spine0", "fabric-spine1"]
        assert len(fabric.leaves) == 4
        assert fabric.topology.link_count() == 2 * 4
        assert len(fabric.switches()) == 6

    def test_spine_leaf_paths_are_three_switches(self):
        fabric = build_spine_leaf(Node, spines=3, leaves=4)
        path = fabric.topology.shortest_path("fabric-leaf0", "fabric-leaf3")
        assert len(path) == 3
        assert path[1] in fabric.spines

    def test_spine_leaf_validation(self):
        with pytest.raises(TopologyError):
            build_spine_leaf(Node, spines=0, leaves=4)
        with pytest.raises(TopologyError):
            build_spine_leaf(Node, spines=2, leaves=1)

    def test_spine_leaf_grows_existing_topology(self):
        topo = Topology("mine")
        fabric = build_spine_leaf(Node, spines=1, leaves=2, topology=topo)
        assert fabric.topology is topo
        assert topo.has_node("fabric-spine0")

    def test_fat_tree_shape(self):
        fabric = build_fat_tree(Node, k=4)
        assert len(fabric.cores) == 4
        assert len(fabric.aggregations) == 8
        assert len(fabric.edges) == 8
        # k=4: 8 edge-agg links per pod pair-wiring (2x2 per pod * 4 pods)
        # plus 2 core links per agg * 8 aggs.
        assert fabric.topology.link_count() == 4 * (2 * 2) + 8 * 2
        assert len(fabric.pod_edges(0)) == 2
        with pytest.raises(TopologyError):
            fabric.pod_edges(4)

    def test_fat_tree_cross_pod_path_is_five_switches(self):
        fabric = build_fat_tree(Node, k=4)
        path = fabric.topology.shortest_path(
            fabric.pod_edges(0)[0], fabric.pod_edges(3)[1]
        )
        assert len(path) == 5
        assert path[2] in fabric.cores

    def test_fat_tree_k_must_be_even(self):
        with pytest.raises(TopologyError):
            build_fat_tree(Node, k=3)
        with pytest.raises(TopologyError):
            build_fat_tree(Node, k=0)


class TestTopologyPathEdgeCases:
    def test_disconnected_nodes_raise_and_report_unconnected(self):
        topo = Topology()
        topo.add_node(Node("island-a"))
        topo.add_node(Node("island-b"))
        with pytest.raises(TopologyError):
            topo.shortest_path("island-a", "island-b")
        with pytest.raises(TopologyError):
            topo.path_latency("island-a", "island-b")
        assert not topo.connected("island-a", "island-b")

    def test_self_path_is_single_node(self):
        topo = Topology()
        node = topo.add_node(Node("a"))
        path = topo.shortest_path(node, node)
        assert [n.name for n in path] == ["a"]
        assert topo.path_latency(node, node) == 0.0
        assert topo.connected(node, node)

    def test_unknown_node_raises(self):
        topo = Topology()
        topo.add_node(Node("a"))
        with pytest.raises(TopologyError):
            topo.shortest_path("a", "ghost")

    def test_equal_latency_ties_break_lexicographically(self):
        # a - {mid-b, mid-z} - d: two equal-cost paths; the tie must
        # break on the smaller middle name, deterministically.
        topo = Topology()
        for name in ("a", "mid-z", "mid-b", "d"):
            topo.add_node(Node(name))
        for mid in ("mid-z", "mid-b"):
            topo.add_link("a", mid, latency=1e-3)
            topo.add_link(mid, "d", latency=1e-3)
        first = [n.name for n in topo.shortest_path("a", "d")]
        assert first == ["a", "mid-b", "d"]
        for _ in range(5):
            assert [n.name for n in topo.shortest_path("a", "d")] == first

    def test_fewer_hops_beat_name_order_on_equal_latency(self):
        # a-b-d (2 hops, 2ms) vs a-aa-ab-d (3 hops, 2ms total): the
        # shorter hop count wins even though "aa" sorts before "b".
        topo = Topology()
        for name in ("a", "b", "aa", "ab", "d"):
            topo.add_node(Node(name))
        topo.add_link("a", "b", latency=1e-3)
        topo.add_link("b", "d", latency=1e-3)
        topo.add_link("a", "aa", latency=0.5e-3)
        topo.add_link("aa", "ab", latency=0.5e-3)
        topo.add_link("ab", "d", latency=1e-3)
        assert [n.name for n in topo.shortest_path("a", "d")] == ["a", "b", "d"]

    def test_path_cache_invalidated_by_new_link(self):
        topo = Topology()
        for name in ("a", "b", "c"):
            topo.add_node(Node(name))
        topo.add_link("a", "b", latency=1e-3)
        topo.add_link("b", "c", latency=1e-3)
        assert len(topo.shortest_path("a", "c")) == 3
        # A direct cheap link must displace the cached two-hop path.
        topo.add_link("a", "c", latency=0.1e-3)
        assert [n.name for n in topo.shortest_path("a", "c")] == ["a", "c"]

    def test_two_spine_four_leaf_fabric_resolves_the_pinned_hops(self):
        # The hop set every install on the perf/soak fabric depends on,
        # pinned literally: it must not move with the adjacency's keeper.
        topo = build_spine_leaf(Node, spines=2, leaves=4).topology
        leaves = [f"fabric-leaf{index}" for index in range(4)]
        for source in leaves:
            for target in leaves:
                expected = [source, "fabric-spine0", target] if source != target else [source]
                assert [n.name for n in topo.shortest_path(source, target)] == expected
        assert [n.name for n in topo.shortest_path("fabric-spine0", "fabric-spine1")] == [
            "fabric-spine0", "fabric-leaf0", "fabric-spine1",
        ]
        assert topo.describe()["diameter"] == 2

    def test_second_link_between_a_pair_is_refused(self):
        # A pair has one link: a second used to shadow the first in every
        # path answer while both stayed wired (remove_link then reported
        # the pair unconnected with a live link still carrying packets).
        topo = Topology()
        a, b = topo.add_node(Node("a")), topo.add_node(Node("b"))
        first = topo.add_link(a, b, latency=1e-3)
        epoch = topo.mutation_epoch
        for pair in ((a, b), (b, a)):
            with pytest.raises(TopologyError):
                topo.add_link(*pair, latency=5e-3)
        assert (a.port_count(), b.port_count()) == (1, 1)  # refused before allocating
        assert topo.link_count() == 1 and topo.mutation_epoch == epoch
        assert topo.path_latency(a, b) == 1e-3
        assert topo.remove_link(a, b) is first
        assert not topo.connected(a, b) and not any(p.is_wired for p in (*a.ports(), *b.ports()))
        topo.add_link(a, b, latency=5e-3)  # free again once removed
        assert topo.path_latency(a, b) == 5e-3

    def test_egress_port_toward_each_neighbour(self):
        fabric = build_spine_leaf(Node, spines=2, leaves=2)
        leaf = fabric.leaves[0]
        ports = {
            fabric.topology.egress_port(leaf, spine).number
            for spine in fabric.spines
        }
        assert len(ports) == 2  # distinct ports per uplink
        with pytest.raises(TopologyError):
            fabric.topology.egress_port(leaf, fabric.leaves[1])  # not adjacent


class TestPathWideInstall:
    def test_approved_flow_installs_every_hop_with_one_punt(self):
        net, fabric = fabric_network()
        result = net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
        assert result.delivered and result.decision_action == "pass"
        assert sum(int(s.punts.value) for s in net.switches.values()) == 1
        record = net.controller.audit.records()[-1]
        hops = entries_with_cookie(net, record.cookie)
        assert set(hops) == {"fabric-leaf0", "fabric-spine0", "fabric-leaf3"}
        # keep state: forward and reverse entries on every hop.
        assert all(len(entries) == 2 for entries in hops.values())
        assert len(net.controller.installer) == 1

    def test_denial_drops_at_first_hop_only(self):
        net, fabric = fabric_network()
        result = net.send_flow("client0", "telnet", "alice", "192.168.1.1", 23)
        assert not result.delivered and result.decision_action == "block"
        record = net.controller.audit.records()[-1]
        hops = entries_with_cookie(net, record.cookie)
        assert set(hops) == {"fabric-leaf0"}
        # Denials are single-hop: nothing to unwind, nothing registered.
        assert len(net.controller.installer) == 0

    def test_flow_removed_on_one_hop_unwinds_the_path(self):
        net, fabric = fabric_network()
        net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
        cookie = net.controller.audit.records()[-1].cookie
        sim = net.topology.sim
        sim.schedule_at(sim.now + net.controller.config.idle_timeout + 1.0, lambda: None)
        net.run()
        # Only the egress leaf sweeps; the unwind must clear the others.
        assert fabric.leaves[3].sweep_expired(sim.now) > 0
        net.run()
        assert entries_with_cookie(net, cookie) == {}
        assert net.controller.installer.unwinds == 1
        assert len(net.controller.installer) == 0

    def test_unwind_spares_unrelated_flows(self):
        net, fabric = fabric_network(clients=2)
        net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
        first = net.controller.audit.records()[-1].cookie
        # Let the first flow go idle, then open a second one that shares
        # the spine hop; the sweep expires only the idle flow's entries.
        sim = net.topology.sim
        sim.schedule_at(sim.now + net.controller.config.idle_timeout + 1.0, lambda: None)
        net.run()
        net.send_flow("client1", "http", "alice", "192.168.1.1", 80)
        second = net.controller.audit.records()[-1].cookie
        assert first != second
        fabric.spines[0].sweep_expired(sim.now)
        net.run()
        # The idle flow is unwound everywhere; the fresh flow keeps its
        # full path — the cookie-scoped delete touched nothing else.
        assert entries_with_cookie(net, first) == {}
        assert len(entries_with_cookie(net, second)) == 3
        assert net.controller.installer.unwinds == 1
        assert len(net.controller.installer) == 1

    def test_unwind_covers_surviving_entries_on_the_reporting_switch(self):
        # Refresh only the forward direction, let the reverse entries
        # idle out: the reporting switch's surviving forward entry must
        # die in the unwind too (path state lives and dies as a unit).
        net, fabric = fabric_network()
        client = net.host("client0")
        _, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        cookie = net.controller.audit.records()[-1].cookie
        sim = net.topology.sim
        idle = net.controller.config.idle_timeout
        sim.schedule_at(sim.now + 0.7 * idle, lambda: client.send_on_socket(socket))
        net.run()
        sim.schedule_at(sim.now + 0.5 * idle, lambda: None)
        net.run()
        assert fabric.leaves[0].sweep_expired(sim.now) >= 1  # reverse expired
        net.run()
        assert entries_with_cookie(net, cookie) == {}
        assert net.controller.installer.unwinds == 1

    def test_cached_block_installs_drop_at_repeat_punting_switch(self):
        net, fabric = fabric_network()
        client = net.host("client0")
        packet, _, _ = client.open_flow("telnet", "alice", "192.168.1.1", 23)
        net.run()
        record = net.controller.audit.records()[-1]
        assert record.action == "block"
        assert set(entries_with_cookie(net, record.cookie)) == {"fabric-leaf0"}
        # The same packet surfacing at an off-path switch (flooded there
        # by a fail-open neighbour, say) punts once, hits the cached
        # verdict, and earns that switch its own drop entry.
        spine = fabric.spines[0]
        spine.receive(packet.copy(), spine.port(1))
        net.run()
        assert "fabric-spine0" in entries_with_cookie(net, record.cookie)
        punts_before = int(spine.punts.value)
        spine.receive(packet.copy(), spine.port(1))
        net.run()
        assert int(spine.punts.value) == punts_before  # now a table hit

    def test_capacity_eviction_on_one_hop_unwinds_the_path(self):
        net, fabric = fabric_network(clients=2)
        net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
        first = net.controller.audit.records()[-1].cookie
        # Squeeze the ingress leaf: the next install evicts the LRU
        # entries, which must notify the controller like a timeout would.
        net.switches["fabric-leaf0"].flow_table.capacity = 2
        net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
        second = net.controller.audit.records()[-1].cookie
        assert first != second
        net.run()
        assert entries_with_cookie(net, first) == {}
        assert len(entries_with_cookie(net, second)) == 3
        assert net.controller.installer.unwinds == 1

    def test_revocation_clears_path_registry(self):
        net, fabric = fabric_network()
        net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
        cookie = net.controller.audit.records()[-1].cookie
        removed = net.controller.revoke_decision(cookie)
        assert removed >= 3
        assert len(net.controller.installer) == 0
        assert entries_with_cookie(net, cookie) == {}


class TestFailedSwitch:
    def test_failed_switch_forwards_and_processes_nothing(self):
        net, fabric = fabric_network(spines=2, leaves=2, clients=1)
        client, server = net.host("client0"), net.host("server")
        _, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        assert len(server.delivered) == 1
        path = net.topology.shortest_path(client, server)
        spine = next(n for n in path if isinstance(n, OpenFlowSwitch) and n in fabric.spines)
        spine.fail()
        entries_before = len(spine.flow_table)
        client.send_on_socket(socket)
        net.run()
        assert len(server.delivered) == 1  # fail closed
        assert spine.sweep_expired(1e9) == 0  # dead switches notify nobody
        assert len(spine.flow_table) == entries_before
        spine.recover()
        client.send_on_socket(socket)
        net.run()
        assert len(server.delivered) == 2

    def test_mid_path_failure_then_unwind_leaves_no_live_entries(self):
        net, fabric = fabric_network(spines=2, leaves=2, clients=1)
        client, server = net.host("client0"), net.host("server")
        client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        path = net.topology.shortest_path(client, server)
        spine = next(n for n in path if isinstance(n, OpenFlowSwitch) and n in fabric.spines)
        spine.fail()
        sim = net.topology.sim
        sim.schedule_at(sim.now + net.controller.config.idle_timeout + 1.0, lambda: None)
        net.run()
        fabric.leaves[0].sweep_expired(sim.now)
        net.run()
        live = {
            name: len(s.flow_table)
            for name, s in net.switches.items()
            if not s.failed and len(s.flow_table)
        }
        assert live == {}
        assert net.controller.installer.unwinds == 1


class TestClusterFabric:
    def make_cluster_net(self, shards=2):
        net = IdentPPClusterNetwork(
            "fabric-cluster",
            shards=shards,
            policy_default_action="block",
            controller_config=ControllerConfig(pending_deadline=60.0),
        )
        fabric = net.add_spine_leaf_fabric(spines=2, leaves=2)
        net.add_host(
            HostSpec(
                name="client0", ip="192.168.0.10", users={"alice": ("users", "staff")}
            ),
            switch=fabric.leaves[0],
        )
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=fabric.leaves[1])
        server.run_server("httpd", "root", 80)
        net.set_policy(POLICY)
        return net, fabric

    def test_owning_shard_installs_full_path(self):
        net, fabric = self.make_cluster_net()
        net.host("client0").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        records = [r for r in net.cluster.audit_records() if not r.cached]
        assert len(records) == 1
        record = records[0]
        owner = net.cluster.shard_map.owner(record.flow)
        assert record.cookie.startswith(owner + ":")
        hops = entries_with_cookie(net, record.cookie)
        assert len(hops) == 3
        assert len(net.cluster.replicas[owner].installer) == 1

    def test_failover_rehomes_path_unwinding(self):
        net, fabric = self.make_cluster_net()
        net.host("client0").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        record = [r for r in net.cluster.audit_records() if not r.cached][0]
        owner = net.cluster.shard_map.owner(record.flow)
        net.cluster.kill(owner)
        net.cluster.fail_over(owner)
        adopter = net.cluster._flow_removed_fallback()
        assert adopter is not None and adopter.name != owner
        assert len(adopter.installer) == 1
        # An expiry on any hop now reaches the adopter, which unwinds.
        sim = net.topology.sim
        sim.schedule_at(sim.now + 61.0, lambda: None)
        net.run()
        fabric.leaves[0].sweep_expired(sim.now)
        net.run()
        assert entries_with_cookie(net, record.cookie) == {}
        assert adopter.installer.unwinds == 1

    def test_total_outage_keeps_unwind_duty_on_the_corpse(self):
        net, fabric = self.make_cluster_net()
        net.host("client0").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        record = [r for r in net.cluster.audit_records() if not r.cached][0]
        owner = net.cluster.shard_map.owner(record.flow)
        for shard in net.cluster.shard_map.shards():
            net.cluster.kill(shard)
        net.cluster.fail_over(owner)
        # Nobody could adopt: the registry must survive on the corpse.
        assert len(net.cluster.replicas[owner].installer) == 1
        net.cluster.restore(owner)
        sim = net.topology.sim
        sim.schedule_at(sim.now + 61.0, lambda: None)
        net.run()
        fabric.leaves[0].sweep_expired(sim.now)
        net.run()
        assert entries_with_cookie(net, record.cookie) == {}
        assert net.cluster.replicas[owner].installer.unwinds == 1

    @pytest.mark.parametrize("name", ["lab", "lab:1"])
    def test_flow_removed_reaches_the_owner_whatever_the_cluster_name(self, name):
        # The owner is the cookie up to its last ':'; a cluster name
        # holding one used to send every FlowRemoved to the first shard,
        # leaving the other shard's path registry to grow for good.
        net = IdentPPClusterNetwork(
            name,
            shards=2,
            policy_default_action="block",
            controller_config=ControllerConfig(
                idle_timeout=1.0, decision_ttl=1.0, lifecycle_interval=0.5
            ),
        )
        fabric = net.add_spine_leaf_fabric(spines=1, leaves=2)
        client = net.add_host(
            HostSpec(name="client0", ip="192.168.0.10", users={"alice": ("users",)}),
            switch=fabric.leaves[0],
        )
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=fabric.leaves[1])
        server.run_server("httpd", "root", 80)
        net.set_policy(POLICY)
        for _ in range(40):
            client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        installed = {shard: len(r.installer) for shard, r in net.cluster.replicas.items()}
        assert installed == dict.fromkeys(net.cluster.replicas, 0)
        assert sum(r.installer.unwinds for r in net.cluster.replicas.values()) == 40
        assert all(len(switch.flow_table) == 0 for switch in net.switches.values())

    def test_cluster_revocation_purges_adopted_path_registry(self):
        net, fabric = self.make_cluster_net()
        net.cluster.grant_delegation("secur", "beefcafe" * 8)
        net.host("client0").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        record = [r for r in net.cluster.audit_records() if not r.cached][0]
        owner = net.cluster.shard_map.owner(record.flow)
        # Tie the decision to the grant (what _audit_decision does for
        # delegated rules), then re-home its unwind duty via failover.
        net.cluster.replicas[owner].delegations.record_use("secur", record.cookie)
        net.cluster.kill(owner)
        net.cluster.fail_over(owner)
        adopter = net.cluster._flow_removed_fallback()
        assert record.cookie in adopter.installer
        net.cluster.revoke_delegation("secur")
        # The revocation removed the entries silently everywhere; the
        # adopter's registry entry must not outlive them.
        assert record.cookie not in adopter.installer
        net.cluster.restore(owner)
        assert record.cookie not in net.cluster.replicas[owner].installer
        assert entries_with_cookie(net, record.cookie) == {}

    def test_restore_reclaims_path_installs(self):
        net, fabric = self.make_cluster_net()
        net.host("client0").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        record = [r for r in net.cluster.audit_records() if not r.cached][0]
        owner = net.cluster.shard_map.owner(record.flow)
        net.cluster.kill(owner)
        net.cluster.fail_over(owner)
        net.cluster.restore(owner)
        restored = net.cluster.replicas[owner]
        assert len(restored.installer) == 1
        others = sum(
            len(c.installer)
            for name, c in net.cluster.replicas.items()
            if name != owner
        )
        assert others == 0
