"""Tests for the baseline architectures and the security analysis harness."""

import pytest

from repro.baselines.distributed_firewall import DistributedFirewall
from repro.baselines.ethane import EthanePolicy
from repro.baselines.vanilla_firewall import FirewallRule, VanillaFirewall, enterprise_default_rules
from repro.baselines.vlan import VLANSegmentation
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Address
from repro.security.analysis import AttackProbe, SecurityMatrix, impact_of_compromise
from repro.security.threat_model import CompromiseScenario

LAN_TO_SERVER_HTTP = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)
LAN_TO_SERVER_SMB = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 445)
EXTERNAL_TO_LAN = FlowSpec.tcp("203.0.113.5", "192.168.0.10", 40000, 80)


class TestVanillaFirewall:
    def test_first_match_wins(self):
        firewall = VanillaFirewall([
            FirewallRule("block", dst_port=445),
            FirewallRule("pass", dst="192.168.1.0/24"),
            FirewallRule("block"),
        ])
        assert firewall.decide(LAN_TO_SERVER_SMB) == "block"
        assert firewall.decide(LAN_TO_SERVER_HTTP) == "pass"
        assert firewall.decide(EXTERNAL_TO_LAN) == "block"

    def test_default_action(self):
        assert VanillaFirewall([]).decide(LAN_TO_SERVER_HTTP) == "block"
        assert VanillaFirewall([], default_action="pass").decide(LAN_TO_SERVER_HTTP) == "pass"

    def test_stateful_return_traffic(self):
        firewall = VanillaFirewall([FirewallRule("pass", dst="192.168.1.0/24", keep_state=True),
                                    FirewallRule("block")])
        assert firewall.decide(LAN_TO_SERVER_HTTP) == "pass"
        assert firewall.decide(LAN_TO_SERVER_HTTP.reversed()) == "pass"

    def test_allow_deny_helpers_and_defaults(self):
        firewall = VanillaFirewall()
        firewall.allow(dst="192.168.1.0/24", dst_port=80)
        firewall.deny()
        assert firewall.decide(LAN_TO_SERVER_HTTP) == "pass"
        assert len(firewall) == 2

    def test_enterprise_default_rules_shape(self):
        firewall = VanillaFirewall(enterprise_default_rules())
        assert firewall.decide(LAN_TO_SERVER_HTTP) == "pass"
        assert firewall.decide(EXTERNAL_TO_LAN) == "block"


class TestDistributedFirewall:
    def test_same_policy_as_vanilla_when_uncompromised(self):
        firewall = DistributedFirewall(enterprise_default_rules())
        assert firewall.decide(LAN_TO_SERVER_HTTP) == "pass"
        assert firewall.decide(EXTERNAL_TO_LAN) == "block"

    def test_compromised_destination_enforces_nothing(self):
        firewall = DistributedFirewall(enterprise_default_rules())
        assert firewall.decide(EXTERNAL_TO_LAN) == "block"
        firewall.compromised_hosts.add(IPv4Address("192.168.0.10"))
        assert firewall.decide(EXTERNAL_TO_LAN) == "pass"


class TestEthane:
    def build(self):
        policy = EthanePolicy()
        policy.register_host("192.168.0.10", "alice", groups=["staff"])
        policy.register_host("192.168.0.5", "system", groups=["system"])
        policy.register_host("192.168.1.1", "system", groups=["system"])
        policy.allow(src_group="staff", dst="192.168.1.0/24", dst_port=80)
        policy.allow(src_user="system", dst="192.168.1.0/24", dst_port=445)
        policy.deny()
        return policy

    def test_user_based_rules(self):
        policy = self.build()
        assert policy.decide(LAN_TO_SERVER_HTTP) == "pass"
        assert policy.decide(LAN_TO_SERVER_SMB) == "block"
        admin_flow = FlowSpec.tcp("192.168.0.5", "192.168.1.1", 40000, 445)
        assert policy.decide(admin_flow) == "pass"

    def test_unregistered_host_blocked(self):
        policy = self.build()
        assert policy.decide(EXTERNAL_TO_LAN) == "block"

    def test_cannot_express_application_rules(self):
        # Ethane sees users and ports, never applications: a decision takes
        # the flow alone, so telnet and http from one user/host look the same.
        policy = self.build()
        assert policy.decide(LAN_TO_SERVER_HTTP) == "pass"


class TestVLAN:
    def build(self):
        vlan = VLANSegmentation()
        vlan.assign("lan", ["192.168.0.0/24"])
        vlan.assign("servers", ["192.168.1.0/24"])
        vlan.allow_between("lan", "servers")
        return vlan

    def test_intra_segment_allowed(self):
        vlan = self.build()
        assert vlan.decide(FlowSpec.tcp("192.168.0.1", "192.168.0.2", 1, 2)) == "pass"

    def test_whitelisted_inter_segment_allowed(self):
        assert self.build().decide(LAN_TO_SERVER_HTTP) == "pass"

    def test_unknown_and_unlisted_blocked(self):
        vlan = self.build()
        assert vlan.decide(EXTERNAL_TO_LAN) == "block"
        vlan.assign("research", ["192.168.2.0/24"])
        research_flow = FlowSpec.tcp("192.168.0.1", "192.168.2.1", 1, 7777)
        assert vlan.decide(research_flow) == "block"

    def test_segment_of(self):
        vlan = self.build()
        assert vlan.segment_of("192.168.0.7") == "lan"
        assert vlan.segment_of("8.8.8.8") is None
        assert vlan.segments() == ["lan", "servers"]


class TestSecurityAnalysis:
    def make_probes(self):
        return [
            AttackProbe.build(LAN_TO_SERVER_HTTP, {"userID": "alice"}, description="web"),
            AttackProbe.build(LAN_TO_SERVER_SMB, {"userID": "system"}, description="smb",
                              requires_spoofing=True),
        ]

    def test_impact_of_compromise(self):
        probes = self.make_probes()
        scenario = CompromiseScenario("end-host", "c1")
        result = impact_of_compromise(
            "test-arch", scenario,
            decider_before=lambda probe: probe.description == "web",
            decider_after=lambda probe: True,
            probes=probes,
        )
        assert result.total_probes == 2
        assert result.gained_count == 1
        assert result.gained_fraction == 0.5
        assert result.exposure_after == 1.0
        assert {p.description for p in result.gained} == {"smb"}

    def test_matrix_rows(self):
        matrix = SecurityMatrix()
        probes = self.make_probes()
        for arch in ("a", "b"):
            result = impact_of_compromise(
                arch, CompromiseScenario("switch", "sw1"),
                lambda probe: False, lambda probe: True, probes,
            )
            matrix.add(result)
        rows = matrix.rows()
        assert len(rows) == 1 and rows[0]["a"] == 2 and rows[0]["b"] == 2
        assert matrix.architectures() == ["a", "b"]
        assert len(matrix) == 2

    def test_unknown_component_rejected(self):
        with pytest.raises(ValueError):
            CompromiseScenario("toaster", "x")

    def test_probe_claims_round_trip(self):
        probe = AttackProbe.build(LAN_TO_SERVER_SMB, {"b": "2", "a": "1"})
        assert probe.claims() == {"a": "1", "b": "2"}
