"""Tests for the path-wide enforcement fabric.

Covers the netsim spine-leaf fabric builder, the
deterministic path tie-break and topology edge cases, multi-hop flow
install with exactly one punt, drop-at-first-hop denials,
FlowRemoved-driven path unwinding, the failed-switch fail-closed
semantics, and the cluster's path unwinding around a shard failure.
"""

import pytest

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.exceptions import TopologyError
from repro.netsim.fabrics import build_spine_leaf
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
        assert len(fabric.topology.links()) == 2 * 4
        assert len(fabric.switches()) == 6

    def test_spine_leaf_paths_are_three_switches(self):
        fabric = build_spine_leaf(Node, spines=3, leaves=4)
        path = fabric.topology.shortest_path("fabric-leaf0", "fabric-leaf3")
        assert len(path) == 3
        assert path[1] in fabric.spines

    @pytest.mark.parametrize("spines, leaves", [(1, 2), (2, 4), (4, 3)])
    def test_spine_leaf_links_every_leaf_to_every_spine(self, spines, leaves):
        fabric = build_spine_leaf(Node, spines=spines, leaves=leaves, prefix="dc")
        description = fabric.describe()
        assert description["kind"] == "spine-leaf"
        assert description["spines"] == [f"dc-spine{i}" for i in range(spines)]
        assert description["leaves"] == [f"dc-leaf{i}" for i in range(leaves)]
        assert description["links"] == len(fabric.topology.links()) == spines * leaves
        for leaf in fabric.leaves:
            for spine in fabric.spines:
                assert fabric.topology.link_between(leaf, spine) is not None
        assert fabric.switches() == fabric.spines + fabric.leaves

    def test_spine_leaf_validation(self):
        with pytest.raises(TopologyError):
            build_spine_leaf(Node, spines=0, leaves=4)
        with pytest.raises(TopologyError):
            build_spine_leaf(Node, spines=2, leaves=1)

    def test_spine_leaf_grows_existing_topology(self):
        topo = Topology("mine")
        fabric = build_spine_leaf(Node, spines=1, leaves=2, topology=topo)
        assert fabric.topology is topo
        assert "fabric-spine0" in topo._nodes


class TestTopologyPathEdgeCases:
    def test_disconnected_nodes_raise_and_report_unconnected(self):
        topo = Topology()
        topo.add_node(Node("island-a"))
        topo.add_node(Node("island-b"))
        with pytest.raises(TopologyError):
            topo.shortest_path("island-a", "island-b")
        with pytest.raises(TopologyError):
            topo.path_latency("island-a", "island-b")

    def test_self_path_is_single_node(self):
        topo = Topology()
        node = topo.add_node(Node("a"))
        path = topo.shortest_path(node, node)
        assert [n.name for n in path] == ["a"]
        assert topo.path_latency(node, node) == 0.0

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

    def test_second_link_between_a_pair_is_refused(self):
        # A pair has one link: a second used to shadow the first in every
        # path answer while both stayed wired.
        topo = Topology()
        a, b = topo.add_node(Node("a")), topo.add_node(Node("b"))
        first = topo.add_link(a, b, latency=1e-3)
        epoch = topo.mutation_epoch
        for pair in ((a, b), (b, a)):
            with pytest.raises(TopologyError):
                topo.add_link(*pair, latency=5e-3)
        assert (len(a._ports), len(b._ports)) == (1, 1)  # refused before allocating
        assert topo.links() == [first] and topo.mutation_epoch == epoch
        assert topo.path_latency(a, b) == 1e-3

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

    def decide(self, net):
        """Open one passed flow; return its audit record and owning shard."""
        net.host("client0").open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        record = [r for r in net.cluster.audit_records() if not r.cached][0]
        return record, net.cluster.shard_map.owner(record.flow)

    @staticmethod
    def expire_ingress_entry(net, fabric):
        """Idle the path out and sweep the ingress leaf only: one hop reports."""
        sim = net.topology.sim
        sim.schedule_at(sim.now + 61.0, lambda: None)
        net.run()
        assert fabric.leaves[0].sweep_expired(sim.now) > 0
        net.run()

    @staticmethod
    def assert_unwound_once(net, cookie):
        """Every hop lost the cookie, the cluster unwound once and forgot it."""
        assert entries_with_cookie(net, cookie) == {}
        assert sum(r.installer.unwinds for r in net.cluster.replicas.values()) == 1
        assert cookie not in net.cluster.path_installs

    def test_an_expiry_before_fail_over_still_unwinds_the_path(self):
        # The owner is dead but not failed over yet: the hop's FlowRemoved
        # reaches the other replica, which must unwind the whole path.
        net, fabric = self.make_cluster_net()
        record, owner = self.decide(net)
        net.cluster.kill(owner)
        self.expire_ingress_entry(net, fabric)
        assert entries_with_cookie(net, record.cookie) == {}
        net.cluster.fail_over(owner)
        net.run()
        self.assert_unwound_once(net, record.cookie)

    def test_an_expiry_after_fail_over_unwinds_the_path(self):
        net, fabric = self.make_cluster_net()
        record, owner = self.decide(net)
        net.cluster.kill(owner)
        net.cluster.fail_over(owner)
        self.expire_ingress_entry(net, fabric)
        self.assert_unwound_once(net, record.cookie)

    def test_an_expiry_after_a_total_outage_and_restore_unwinds_the_path(self):
        net, fabric = self.make_cluster_net()
        record, owner = self.decide(net)
        for shard in net.cluster.shard_map.shards():
            net.cluster.kill(shard)
        net.cluster.fail_over(owner)
        net.cluster.restore(owner)
        self.expire_ingress_entry(net, fabric)
        self.assert_unwound_once(net, record.cookie)

    @pytest.mark.parametrize("name", ["lab", "lab:1"])
    def test_every_expired_path_unwinds_whatever_the_cluster_name(self, name):
        # A cookie starts with its decider's name, which may hold a ':'
        # of its own: whichever shard an expiry reaches, every path
        # unwinds once and the shared registry ends empty.
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

    def test_cluster_revocation_of_a_crashed_deciders_path_clears_the_registry(self):
        net, fabric = self.make_cluster_net()
        net.cluster.grant_delegation("secur", "beefcafe" * 8)
        record, owner = self.decide(net)
        # Tie the decision to the grant (what _resolve does for
        # delegated rules), then crash its decider.
        net.cluster.replicas[owner].delegations.record_use("secur", record.cookie)
        net.cluster.kill(owner)
        net.cluster.fail_over(owner)
        change = net.cluster.revoke_delegation("secur")
        # A live replica deletes the dead decider's entries on every hop
        # at once, silently: no FlowRemoved will ever pop the cookie.
        assert entries_with_cookie(net, record.cookie) == {}
        assert change.removed_entries == 6  # forward and reverse on 3 hops
        assert record.cookie not in net.cluster.path_installs
        net.cluster.restore(owner)
        assert entries_with_cookie(net, record.cookie) == {}
        assert record.cookie not in net.cluster.path_installs
        assert sum(r.installer.unwinds for r in net.cluster.replicas.values()) == 0

    def test_an_expiry_after_restore_unwinds_the_path(self):
        net, fabric = self.make_cluster_net()
        record, owner = self.decide(net)
        net.cluster.kill(owner)
        net.cluster.fail_over(owner)
        net.cluster.restore(owner)
        self.expire_ingress_entry(net, fabric)
        self.assert_unwound_once(net, record.cookie)
