"""Tests for the enterprise/branch network builders and the paper config generators."""

import pytest

from repro.crypto.signatures import Signer, verify_values
from repro.hosts.applications import standard_applications
from repro.identpp.daemon_config import parse_daemon_config
from repro.workloads import paper_configs
from repro.workloads.enterprise import build_branch_network, build_linear_network


class TestLinearBuilder:
    def test_shape_and_daemons(self):
        net = build_linear_network(switch_count=3)
        assert set(net.switches) == {"sw1", "sw2", "sw3"}
        assert net.topology.shortest_path("client", "server")
        assert set(net.daemons) == {"client", "server"}

    def test_server_listens_on_http(self):
        net = build_linear_network()
        assert net.host("server").sockets.find_listener(80) is not None


    def test_switches_are_chained_in_order(self):
        net = build_linear_network(switch_count=3)
        path = [node.name for node in net.topology.shortest_path("client", "server")]
        assert path == ["client", "sw1", "sw2", "sw3", "server"]

    def test_a_switch_count_below_one_still_builds_one_switch(self):
        net = build_linear_network(switch_count=0)
        assert set(net.switches) == {"sw1"}
        assert net.topology.shortest_path("client", "server")


class TestBranchBuilder:
    def test_two_controllers_and_bottleneck(self):
        branches = build_branch_network()
        assert branches.controller_a is not branches.controller_b
        assert branches.controller_a.switches()[0].name == "sw-branch-a"
        assert branches.controller_b.switches()[0].name == "sw-branch-b"
        bottleneck = next(
            link for link in branches.net.topology.links()
            if link.name == branches.bottleneck_link_name
        )
        assert bottleneck.latency > branches.net.link_latency
        # branch B hosts serve HTTP
        assert branches.net.host(branches.branch_b_hosts[0]).sockets.find_listener(80)


    def test_branch_hosts_are_addressed_and_controlled_per_site(self):
        branches = build_branch_network()
        net = branches.net
        assert branches.branch_a_hosts == ["a-host1", "a-host2", "a-host3"]
        assert [str(net.host(name).ip) for name in branches.branch_b_hosts] == [
            "10.2.0.10", "10.2.0.11", "10.2.0.12"
        ]
        path = [node.name for node in net.topology.shortest_path("a-host1", "b-host1")]
        assert path == ["a-host1", "sw-branch-a", "sw-branch-b", "b-host1"]


class TestPaperConfigGenerators:
    def test_figure3_signature_verifies_against_reported_values(self):
        signer = Signer("skype-vendor", seed=3)
        skype = next(a for a in standard_applications() if a.name == "skype")
        text = paper_configs.figure3_skype_daemon_config(skype, signer)
        app_config = parse_daemon_config(text).app_for_path(skype.path)
        assert verify_values(
            signer.public_key_hex, app_config.pairs["req-sig"],
            [skype.exe_hash, skype.name, app_config.pairs["requirements"]],
        )

    def test_figure3_placeholder_without_signer(self):
        skype = next(a for a in standard_applications() if a.name == "skype")
        text = paper_configs.figure3_skype_daemon_config(skype)
        assert "21oir...w3eda" in text

    def test_figure4_signature_round_trip(self):
        signer = Signer("research", seed=11)
        app = next(a for a in standard_applications() if a.name == "research-app")
        text = paper_configs.figure4_research_daemon_config(app, signer)
        pairs = parse_daemon_config(text).app_for_path(app.path).pairs
        assert verify_values(
            signer.public_key_hex, pairs["req-sig"], [app.exe_hash, app.name, pairs["requirements"]]
        )

    def test_figure6_rule_maker_is_secur(self):
        secur = Signer("Secur", seed=23)
        app = next(a for a in standard_applications() if a.name == "thunderbird")
        pairs = parse_daemon_config(
            paper_configs.figure6_thunderbird_daemon_config(app, secur)
        ).app_for_path(app.path).pairs
        assert pairs["rule-maker"] == "Secur"
        assert verify_values(
            secur.public_key_hex, pairs["req-sig"], [app.exe_hash, app.name, pairs["requirements"]]
        )

    def test_figure5_control_fills_its_tables(self):
        files = paper_configs.figure5_research_control("10001.abc")
        combined = "\n".join(files.values())
        for machine in (
            *paper_configs.DEFAULT_RESEARCH_MACHINES, *paper_configs.DEFAULT_PRODUCTION_MACHINES
        ):
            assert machine in combined

    def test_figure2_and_8_default_deny_first(self):
        header = paper_configs.figure2_control_files()["00-local-header.control"]
        assert "block all" in header
        rules = paper_configs.figure8_control_files()["10-user-rules.control"]
        assert rules.strip().splitlines()[1].startswith("block all")
