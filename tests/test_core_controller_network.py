"""Integration tests: the ident++ controller driving the full datapath."""

import pytest

from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.netsim.packet import Packet


BASIC_POLICY = {
    "00-default.control": (
        "block all\n"
        "pass from any to any with member(@src[name], approved) keep state\n"
        'approved = "{ http ssh }"\n'
    ),
}

# Macros must be defined before use for readability, but PF reads the whole
# file before evaluating, so ordering inside the file does not matter for the
# evaluator.  Keep a second, conventional layout for most tests.
POLICY = {
    "00-default.control": (
        'approved = "{ http ssh }"\n'
        "block all\n"
        "pass from any to any with member(@src[name], $approved) keep state\n"
    ),
}


def build_network(policy=None):
    net = IdentPPNetwork("test-net")
    left = net.add_switch("sw-left")
    right = net.add_switch("sw-right")
    net.connect(left, right)
    net.add_host(HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
                 switch=left)
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1", users={}), switch=right)
    server.run_server("httpd", "root", 80)
    net.set_policy(policy or POLICY)
    return net


class TestControllerDatapath:
    def test_allowed_flow_is_delivered_and_audited(self):
        net = build_network()
        result = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert result.delivered and result.decision_action == "pass"
        assert [record.action for record in net.controller.audit.records()] == ["pass"]
        assert len(net.controller.flow_setup_latency.samples()) == 1

    def test_blocked_flow_never_reaches_the_server(self):
        net = build_network()
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert not result.delivered and result.decision_action == "block"
        assert net.host("server").delivered == []

    def test_flow_entries_installed_along_path(self):
        net = build_network()
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert len(net.switches["sw-left"].flow_table) >= 1
        assert len(net.switches["sw-right"].flow_table) >= 1

    def test_second_packet_uses_cached_entry(self):
        net = build_network()
        client = net.host("client")
        _, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        punts_after_first = int(net.switches["sw-left"].punts.value)
        client.send_on_socket(socket)
        net.run()
        assert int(net.switches["sw-left"].punts.value) == punts_after_first
        assert len(net.host("server").delivered) == 2

    def test_keep_state_allows_reverse_direction(self):
        net = build_network()
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        server = net.host("server")
        reply_flow = FlowSpec.tcp("192.168.1.1", "192.168.0.10", 80, server.delivered[0].tp_src)
        # send the server's reply; it must be covered by the cached keep-state decision
        server.transmit(Packet.tcp("192.168.1.1", "192.168.0.10", 80, reply_flow.dst_port))
        net.run()
        client_flows = {packet.five_tuple() for packet in net.host("client").delivered}
        assert reply_flow.as_tuple() in client_flows

    def test_same_flow_from_two_switches_queries_once(self):
        net = build_network()
        # Second packet of the same flow punted by the downstream switch while
        # the first is still pending is answered from the pending table.
        client = net.host("client")
        packet, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        client.send_on_socket(socket)
        net.run()
        audit = net.controller.audit.records()
        non_cached = [r for r in audit if not r.cached]
        assert len(non_cached) == 1

    def test_revoke_decision_removes_entries(self):
        net = build_network()
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        cookie = net.controller.audit.records()[-1].cookie
        removed = net.controller.revoke_decision(cookie)
        assert removed >= 1
        assert all(len(switch.flow_table.find(lambda e: e.cookie == cookie)) == 0
                   for switch in net.switches.values())

    def test_decide_flow_direct_api(self):
        net = build_network()
        from repro.identpp.keyvalue import ResponseDocument
        doc = ResponseDocument()
        doc.add_section({"name": "http"})
        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 41000, 80)
        assert net.controller.policy.decide(flow, doc).is_pass

    def test_summary_structure(self):
        net = build_network()
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert net.controller.packet_ins >= 1
        assert net.controller.summary() == {"serial_queue": {"max_depth": 0}}

    def test_query_timeout_for_daemonless_host_fails_closed(self):
        net = IdentPPNetwork("no-daemon")
        switch = net.add_switch("sw")
        net.add_host(HostSpec(name="legacy", ip="192.168.0.99", users={"alice": ("staff",)},
                              run_daemon=False), switch=switch)
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=switch)
        server.run_server("httpd", "root", 80)
        net.set_policy(POLICY)
        result = net.send_flow("legacy", "http", "alice", "192.168.1.1", 80)
        assert not result.delivered and result.decision_action == "block"


class TestIdentPPPortIsOrdinaryTraffic:
    """Port 783 earns no datapath exemption: the controller learns
    identities by querying the daemons itself (§3.2), so a packet to or
    from the ident++ port is a flow like any other."""

    def test_source_port_783_does_not_bypass_block_all(self):
        net = build_network(BASIC_POLICY)
        net.host("client").transmit(Packet.tcp("192.168.0.10", "192.168.1.1", 783, 23))
        net.run()
        assert net.host("server").delivered == []
        records = net.controller.audit.records()
        assert [(r.flow.src_port, r.flow.dst_port, r.action) for r in records] == [
            (783, 23, "block")
        ]

    def test_a_flow_to_port_783_is_decided_and_audited(self):
        net = build_network()
        result = net.send_flow("client", "http", "alice", "192.168.1.1", 783)
        assert result.delivered and result.decision_action == "pass"
        records = net.controller.audit.records()
        assert [(r.flow.dst_port, r.action, r.cached) for r in records] == [(783, "pass", False)]
        assert net.daemon("server").queries_answered.value == 1


    def test_udp_from_source_port_783_does_not_bypass_block_all(self):
        net = build_network(BASIC_POLICY)
        net.host("client").transmit(Packet(
            ip_src="192.168.0.10", ip_dst="192.168.1.1", ip_proto="udp", tp_src=783, tp_dst=53,
        ))
        net.run()
        assert net.host("server").delivered == []
        assert [r.action for r in net.controller.audit.records()] == ["block"]

    def test_a_flow_to_port_783_installs_entries_along_its_path(self):
        net = build_network()
        net.send_flow("client", "http", "alice", "192.168.1.1", 783)
        for name in ("sw-left", "sw-right"):
            assert net.switches[name].flow_table.find(lambda entry: entry.match.tp_dst == 783)

    def test_a_blocked_application_cannot_reach_port_783(self):
        net = build_network()
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 783)
        assert not result.delivered and result.decision_action == "block"
        assert net.host("server").delivered == []

class TestCompromisedComponents:
    def test_compromised_controller_forwards_everything(self):
        net = build_network()
        net.controller.mark_compromised()
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert result.delivered
        # nothing is audited while the controller is owned
        assert len(net.controller.audit) == 0

    def test_compromised_switch_forwards_blocked_traffic(self):
        # Single-switch network: the compromised switch is the only enforcement
        # point on the path, so blocked traffic now gets through (§5.2).
        net = IdentPPNetwork("single-switch")
        switch = net.add_switch("sw")
        net.add_host(HostSpec(name="client", ip="192.168.0.10", users={"alice": ("staff",)}),
                     switch=switch)
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=switch)
        server.run_server("httpd", "root", 80)
        net.set_policy(POLICY)
        switch.mark_compromised()
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert result.delivered
        switch.restore()
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 2323)
        assert not result.delivered

    def test_compromised_switch_does_not_disable_other_switches(self):
        # With a second, honest switch on the path the flow is still blocked:
        # compromising one switch "does not necessarily enable the compromise
        # of the controller" or of the rest of the network (§5.2).
        net = build_network()
        net.switches["sw-left"].mark_compromised()
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert not result.delivered

    def test_compromised_host_daemon_spoofs_identity(self):
        net = build_network()
        net.host("client").mark_compromised(superuser=True)
        net.daemon("client").spoof_responses({"name": "http"})
        # telnet now claims to be the approved browser and slips through
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert result.delivered

    def test_an_honest_daemon_again_gets_the_flow_blocked(self):
        net = build_network()
        net.host("client").mark_compromised(superuser=True)
        daemon = net.daemon("client")
        daemon.spoof_responses({"name": "http"})
        assert net.send_flow("client", "telnet", "alice", "192.168.1.1", 23).delivered
        daemon.spoof_responses(None)
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert not result.delivered and result.decision_action == "block"
