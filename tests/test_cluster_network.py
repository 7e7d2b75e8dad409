"""Integration tests: the sharded controller cluster on a real network."""

import pytest

from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.exceptions import DelegationError, TopologyError
from repro.identpp.flowspec import FlowSpec

POLICY = {
    "00-default.control": (
        "block all\n"
        "pass from any to any port 80 keep state\n"
    ),
}


def build_cluster_network(shards=4, **kwargs):
    net = IdentPPClusterNetwork("cluster-test", shards=shards,
                                policy_default_action="block", **kwargs)
    left = net.add_switch("sw-left")
    right = net.add_switch("sw-right")
    net.connect(left, right)
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
        switch=left,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=right)
    server.run_server("httpd", "root", 80)
    net.set_policy(POLICY)
    return net


class TestClusterRouting:
    def test_flow_is_decided_by_its_owning_shard_only(self):
        net = build_cluster_network()
        result = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert result.delivered and result.decision_action == "pass"
        owner = net.cluster.shard_map.owner(result.flow)
        for name, controller in net.cluster.replicas.items():
            records = controller.audit.records()
            if name == owner:
                assert len(records) == 1
            else:
                assert len(records) == 0

    def test_every_switch_holds_one_channel_per_replica(self):
        net = build_cluster_network(shards=3)
        for switch in net.switches.values():
            assert sorted(switch.channels) == sorted(net.cluster.replicas)
            assert switch.shard_router is not None

    def test_channel_counters_name_both_endpoints(self):
        # With several controllers per switch, bare "->controller" names
        # would collide and make the stats unattributable.
        net = build_cluster_network(shards=2)
        switch = net.switches["sw-left"]
        names = {
            channel.to_controller_messages.name for channel in switch.channels.values()
        }
        assert names == {
            f"sw-left->{name}.messages" for name in net.cluster.replicas
        }
        for name, channel in switch.channels.items():
            assert channel.to_switch_messages.name == f"{name}->sw-left.messages"

    def test_reverse_direction_maps_to_the_same_shard(self):
        net = build_cluster_network()
        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 44000, 80)
        ring = net.cluster.shard_map
        assert ring.owner(flow) == ring.owner(flow.reversed())

    def test_load_spreads_across_shards(self):
        net = build_cluster_network()
        client = net.host("client")
        for _ in range(40):
            client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        deciders = [
            name for name, c in net.cluster.replicas.items() if c.audit.records()
        ]
        assert len(deciders) >= 2
        assert net.cluster.decided_total() == 40


class TestClusterBuilders:
    def test_cluster_network_has_no_default_controller(self):
        # A cluster network must not carry a dead unsharded controller.
        net = build_cluster_network(shards=2)
        assert net.controller is None
        assert sorted(net.controllers) == sorted(net.cluster.replicas)

    def test_explicit_controller_network_skips_default_controller(self):
        net = IdentPPNetwork("explicit", create_default_controller=False)
        controller = net.add_controller("the-one")
        switch = net.add_switch("sw", controller=controller)
        assert net.controller is None
        assert list(net.controllers) == ["the-one"]
        assert switch.channel.controller is controller

    def test_switch_without_any_controller_rejected(self):
        net = IdentPPNetwork("bare", create_default_controller=False)
        with pytest.raises(TopologyError):
            net.add_switch("sw")

    def test_single_controller_networks_unchanged(self):
        net = IdentPPNetwork("classic")
        net.add_switch("sw")
        assert net.controller is not None
        assert list(net.controllers) == [net.controller.name]
        assert net.cluster is None


class TestClusterCoordination:
    def test_policy_reload_propagates_to_every_shard(self):
        net = build_cluster_network()
        record = net.cluster.set_policy(
            {"10-extra.control": "pass from any to any port 443\n"}
        )
        assert record.kind == "policy_reload"
        assert sorted(record.applied_to) == sorted(net.cluster.replicas)
        rule_counts = {
            len(c.policy.evaluator.ruleset.rules()) for c in net.cluster.replicas.values()
        }
        assert len(rule_counts) == 1
        assert net.cluster.coordinator.verify_converged()

    def test_revocation_is_cluster_wide_and_audits_origin(self):
        net = build_cluster_network()
        cluster = net.cluster
        cluster.grant_delegation("secur", "ab" * 32)
        assert all(
            c.delegations.is_active("secur") for c in cluster.replicas.values()
        )
        origin = sorted(cluster.replicas)[2]
        record = cluster.revoke_delegation("secur", origin_shard=origin)
        assert record.kind == "revocation"
        assert record.origin_shard == origin
        assert sorted(record.applied_to) == sorted(cluster.replicas)
        assert not any(
            c.delegations.is_active("secur") for c in cluster.replicas.values()
        )
        assert cluster.coordinator.verify_converged()

    def test_revoking_unknown_principal_rejected(self):
        net = build_cluster_network(shards=2)
        with pytest.raises(DelegationError):
            net.cluster.revoke_delegation("ghost")

    def test_broken_policy_reload_is_atomic(self):
        # A bad ruleset must fail before touching any replica: no shard
        # may end up with the broken file (or a divergent rule count).
        from repro.exceptions import PFError

        net = build_cluster_network()
        before_counts = [
            len(c.policy.evaluator.ruleset.rules()) for c in net.cluster.replicas.values()
        ]
        before_epoch = net.cluster.coordinator.epoch
        with pytest.raises(PFError):
            net.cluster.set_policy({"99-broken.control": "pass frm any to any\n"})
        assert [
            len(c.policy.evaluator.ruleset.rules()) for c in net.cluster.replicas.values()
        ] == before_counts
        assert all(
            "99-broken.control" not in c.policy.loader.file_names()
            for c in net.cluster.replicas.values()
        )
        assert net.cluster.coordinator.epoch == before_epoch
        assert net.cluster.coordinator.verify_converged()
        # The cluster still decides flows after the failed reload.
        assert net.send_flow("client", "http", "alice", "192.168.1.1", 80).delivered

    def test_changes_skip_crashed_replicas_and_resync_on_restore(self):
        net = build_cluster_network()
        cluster = net.cluster
        cluster.grant_delegation("secur", "ab" * 32)
        victim = sorted(cluster.replicas)[0]
        cluster.kill(victim)

        record = cluster.revoke_delegation("secur")
        assert victim not in record.applied_to
        # The corpse cannot observe the change...
        assert cluster.replicas[victim].delegations.is_active("secur")
        assert cluster.coordinator.verify_converged()  # live replicas agree

        # ...but a restored replica replays what it missed.
        cluster.restore(victim)
        assert not cluster.replicas[victim].delegations.is_active("secur")
        assert cluster.coordinator.resyncs == 1
        assert cluster.coordinator.verify_converged()
        # With every replica caught up, the replay log prunes to empty.
        assert cluster.coordinator._changes == []

    def test_revocation_during_total_outage_lands_at_resync(self):
        # Even with every replica crashed, the revocation is recorded;
        # no shard may be revived still enforcing the revoked grant.
        net = build_cluster_network(shards=2)
        cluster = net.cluster
        cluster.grant_delegation("secur", "ab" * 32)
        for shard in list(cluster.replicas):
            cluster.replicas[shard].halt()  # total outage (no ring change)

        record = cluster.revoke_delegation("secur")
        assert record.applied_to == ()
        for shard in list(cluster.replicas):
            cluster.replicas[shard].resume()
            cluster.coordinator.resync(shard)
        assert not any(
            c.delegations.is_active("secur") for c in cluster.replicas.values()
        )
        assert cluster.coordinator.verify_converged()

    def test_failed_grant_does_not_poison_the_replay_log(self):
        # A rejected change must leave no epoch, no audit entry and no
        # closure for resync to re-raise on every future restore.
        net = build_cluster_network()
        cluster = net.cluster
        before_epoch = cluster.coordinator.epoch
        with pytest.raises(Exception):
            cluster.grant_delegation("poison", None)  # keystore rejects None
        assert cluster.coordinator.epoch == before_epoch

        victim = sorted(cluster.replicas)[0]
        cluster.kill(victim)
        cluster.restore(victim)  # must not re-raise the poisoned grant
        assert not cluster.replicas[victim].halted

    def test_grant_appears_in_every_shards_pubkeys(self):
        net = build_cluster_network()
        from repro.crypto.signatures import Signer

        signer = Signer("secur", seed=3)
        record = net.cluster.grant_delegation("secur", signer)
        assert record.kind == "grant"
        keys = {
            c.delegations.pubkeys_dict()["secur"]
            for c in net.cluster.replicas.values()
        }
        assert len(keys) == 1  # same key everywhere


class TestClusterEdges:
    def test_single_shard_cluster_behaves_like_one_controller(self):
        net = build_cluster_network(shards=1)
        result = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert result.delivered
        (controller,) = net.cluster.replicas.values()
        assert len(controller.audit.records()) == 1

    def test_zero_shards_rejected(self):
        with pytest.raises(TopologyError):
            IdentPPClusterNetwork("broken", shards=0)
