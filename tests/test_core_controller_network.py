"""Integration tests: the ident++ controller driving the full datapath."""

import pytest

from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.security.attacks import Attacker


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
        assert net.controller.audit.summary()["pass"] == 1
        assert net.controller.flow_setup_latency.count == 1

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
        reply_flow = FlowSpec.tcp("192.168.1.1", "192.168.0.10", 80, net.host("server").delivered[0].tp_src)
        # send the server's reply; it must be covered by the cached keep-state decision
        reply = server.delivered[0].reply_template()
        server.transmit(reply)
        net.run()
        client_flows = net.host("client").delivered_flows()
        assert reply_flow.as_tuple() in {f for f in client_flows}

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
        summary = net.controller.summary()
        assert summary["packet_ins"] >= 1
        assert "flow_setup_latency" in summary
        assert net.summary()["topology"]["nodes"]

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


class TestCompromisedComponents:
    def test_compromised_controller_forwards_everything(self):
        net = build_network()
        Attacker().compromise_controller(net.controller)
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
        attacker = Attacker()
        record = attacker.compromise_switch(switch)
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert result.delivered
        record.revert()
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 2323)
        assert not result.delivered

    def test_compromised_switch_does_not_disable_other_switches(self):
        # With a second, honest switch on the path the flow is still blocked:
        # compromising one switch "does not necessarily enable the compromise
        # of the controller" or of the rest of the network (§5.2).
        net = build_network()
        Attacker().compromise_switch(net.switches["sw-left"])
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert not result.delivered

    def test_compromised_host_daemon_spoofs_identity(self):
        net = build_network()
        attacker = Attacker()
        attacker.compromise_end_host(net.host("client"), spoofed_pairs={"name": "http"})
        # telnet now claims to be the approved browser and slips through
        result = net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        assert result.delivered

    def test_application_masquerade_blocked_by_setgid_isolation(self):
        net = build_network()
        client = net.host("client")
        # the administrator runs the browser setgid-isolated (§5.4)
        client.processes.spawn(client.users.user("alice"),
                               client.applications.require("http"),
                               setgid_isolated=True)
        attacker = Attacker()
        record = attacker.compromise_application(client, "skype", "alice", masquerade_as="http")
        assert record.details["masquerade_succeeded"] == "no"

    def test_application_masquerade_succeeds_without_isolation(self):
        net = build_network()
        client = net.host("client")
        client.processes.spawn(client.users.user("alice"), client.applications.require("http"))
        attacker = Attacker()
        record = attacker.compromise_application(client, "skype", "alice", masquerade_as="http")
        assert record.details["masquerade_succeeded"] == "yes"
        attacker.revert_all()
        assert len(attacker) == 0
