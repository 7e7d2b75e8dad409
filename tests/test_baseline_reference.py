"""Ethane on the one controller against the controller it used to run on.

A baseline is now a decider in ``IdentPPController``'s ``policy`` slot
(``repro.baselines.base.BaselineDecider``): the controller asks no
end-host, decides from the flow alone and installs, unwinds and audits
through the pipeline ident++ uses.  ``tests/reference_baseline_controller.py``
is the second OpenFlow controller it replaced, with its own copy of the
install path.  Both are driven through the same generated Ethane rules,
host bindings and flows, on E10a's two-switch line and on a
2-spine/2-leaf fabric, and must give every flow the same verdict — the
one ``EthanePolicy.decide`` gives — and deliver and drop the same
packets at the same instants.  What only the live controller does (a
cookie per decision, a path registry, an unwind, an audit record) is
checked on its own below.
"""

from dataclasses import dataclass

from hypothesis import given, settings, strategies as st

from repro.baselines.base import BaselineDecider
from repro.baselines.ethane import EthanePolicy, EthaneRule
from repro.core.controller import ControllerConfig, IdentPPController
from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from tests.reference_baseline_controller import ReferenceBaselineController

CLIENTS = {"client0": "192.168.0.10", "client1": "192.168.0.11", "client2": "192.168.0.12"}
SERVERS = {"server0": "192.168.1.1", "server1": "192.168.1.2"}
HOSTS = {**CLIENTS, **SERVERS}
USERS = {"alice": ("staff",), "bob": ("guests",)}
GROUPS = ("staff", "guests", "admins")
PORTS = (22, 80, 443)
TOPOLOGIES = ("line", "fabric")


@dataclass(frozen=True)
class Flow:
    client: str
    server: str
    port: int
    user: str
    #: Virtual seconds after the previous flow's first packet (0: same instant).
    gap: float
    #: A second packet on the flow, after its first has been decided.
    again: bool


@dataclass(frozen=True)
class Scenario:
    rules: tuple
    default_action: str
    #: host name -> (bound user, groups): Ethane's registration step.
    bindings: tuple
    flows: tuple


rules = st.builds(
    EthaneRule,
    action=st.sampled_from(("pass", "block")),
    src_user=st.none() | st.sampled_from(tuple(USERS) + ("root",)),
    src_group=st.none() | st.sampled_from(GROUPS),
    src=st.none() | st.sampled_from(("192.168.0.0/24", "192.168.0.11/32")),
    dst=st.none() | st.sampled_from(("192.168.1.0/24", "192.168.1.2/32")),
    dst_port=st.none() | st.sampled_from(PORTS),
)
bindings = st.dictionaries(
    st.sampled_from(tuple(HOSTS)),
    st.tuples(
        st.sampled_from(("alice", "bob", "root")),
        st.lists(st.sampled_from(GROUPS), unique=True, max_size=2).map(tuple),
    ),
).map(lambda bound: tuple(sorted(bound.items())))
flows = st.builds(
    Flow,
    client=st.sampled_from(tuple(CLIENTS)),
    server=st.sampled_from(tuple(SERVERS)),
    port=st.sampled_from(PORTS),
    user=st.sampled_from(tuple(USERS)),
    gap=st.sampled_from((0.0, 0.0002, 0.01)),
    again=st.booleans(),
)
scenarios = st.builds(
    Scenario,
    rules=st.lists(rules, max_size=5).map(tuple),
    default_action=st.sampled_from(("pass", "block")),
    bindings=bindings,
    flows=st.lists(flows, min_size=1, max_size=8).map(tuple),
)


def ethane_policy(scenario: Scenario) -> EthanePolicy:
    policy = EthanePolicy(scenario.rules, default_action=scenario.default_action)
    for host, (user, groups) in scenario.bindings:
        policy.register_host(HOSTS[host], user, groups=groups)
    return policy


def build(kind: str, scenario: Scenario, *, reference: bool, idle_timeout: float = 60.0):
    """Clients and servers across ``kind``, every host running its daemon."""
    net = IdentPPNetwork("ethane", create_default_controller=False)
    policy = ethane_policy(scenario)
    if reference:
        controller = ReferenceBaselineController(
            "ethane", net.topology, policy, idle_timeout=idle_timeout
        )
    else:
        controller = IdentPPController(
            "ethane", net.topology, BaselineDecider(policy),
            config=ControllerConfig(policy_eval_delay=0.0, idle_timeout=idle_timeout),
        )
    if kind == "line":
        left = net.add_switch("sw-left", controller=controller)
        right = net.add_switch("sw-right", controller=controller)
        net.connect(left, right)
        client_switches, server_switch = (left, left, right), right
    else:
        net.controller = controller
        fabric = net.add_spine_leaf_fabric(spines=2, leaves=2)
        first, last = fabric.leaves
        client_switches, server_switch = (first, last, first), last
    for (name, ip), switch in zip(CLIENTS.items(), client_switches):
        net.add_host(HostSpec(name=name, ip=ip, users=USERS), switch=switch)
    for name, ip in SERVERS.items():
        net.add_host(HostSpec(name=name, ip=ip), switch=server_switch)
    return net, controller


def drive(net: IdentPPNetwork, scenario: Scenario) -> list:
    """Send every flow's packets; return each flow's ``FlowSpec`` in send order."""
    sim = net.topology.sim
    sent = []

    def open_flow(flow: Flow) -> None:
        host = net.hosts[flow.client]
        packet, socket, _ = host.open_flow("http", flow.user, SERVERS[flow.server], flow.port)
        sent.append(FlowSpec.from_packet(packet))
        if flow.again:
            sim.schedule(0.05, host.send_on_socket, socket)

    at = 0.0
    for flow in scenario.flows:
        at += flow.gap
        sim.schedule_at(at, open_flow, flow)
    net.topology.run()
    return sent


def deliveries(net: IdentPPNetwork) -> dict:
    """Host name -> every packet it received, as ``(instant, flow)`` in arrival order."""
    return {
        name: [(at, str(FlowSpec.from_packet(packet)))
               for packet, at in zip(host.delivered, host.delivered_times)]
        for name, host in sorted(net.hosts.items())
    }


def by_flow(verdicts) -> list:
    """``(flow, action)`` pairs in one order, whatever order they were decided in."""
    return sorted(verdicts, key=lambda pair: str(pair[0]))


def end_host_queries(net: IdentPPNetwork, controller: IdentPPController) -> int:
    return controller.query_client.queries_sent + sum(
        daemon.queries_answered.value for daemon in net.daemons.values()
    )


@settings(max_examples=60, deadline=None)
@given(scenario=scenarios, kind=st.sampled_from(TOPOLOGIES))
def test_the_live_ethane_decides_and_delivers_as_the_reference(scenario, kind):
    old_net, old = build(kind, scenario, reference=True)
    new_net, new = build(kind, scenario, reference=False)
    sent = drive(old_net, scenario)
    assert drive(new_net, scenario) == sent

    oracle = ethane_policy(scenario)
    expected = by_flow((flow, oracle.decide(flow)) for flow in sent)
    # One decision per flow: a pass is on every hop before its packet
    # gets there, and a block stops the flow at its first.
    assert by_flow(old.decisions) == expected
    assert by_flow((r.flow, r.action) for r in new.audit.records()) == expected
    received = deliveries(new_net)
    assert received == deliveries(old_net)
    # A passed flow's every packet arrives, a blocked flow's none.
    delivered = {flow for packets in received.values() for _, flow in packets}
    assert delivered == {str(flow) for flow, action in expected if action == "pass"}
    assert end_host_queries(new_net, new) == 0


def one_flow_each(*ports: int) -> Scenario:
    return Scenario(
        rules=(EthaneRule("block", dst_port=23),), default_action="pass", bindings=(),
        flows=tuple(Flow("client0", "server0", port, "alice", 0.01, False) for port in ports),
    )


def cookies_on(net: IdentPPNetwork) -> dict:
    """Switch name -> the cookies of its flow entries."""
    return {
        name: sorted(entry.cookie for entry in switch.flow_table.entries())
        for name, switch in sorted(net.switches.items())
    }


def expire_left_hop(net: IdentPPNetwork) -> None:
    """Let every entry go idle, then age only the ingress switch's table."""
    sim = net.topology.sim
    sim.schedule_at(sim.now + 2.0, lambda: None)
    net.topology.run()
    assert net.switches["sw-left"].sweep_expired(sim.now) == 2
    net.topology.run()


class TestEthaneFlowLifecycle:
    def test_an_ethane_flow_lives_like_an_identpp_flow(self):
        net, controller = build("line", one_flow_each(80, 443), reference=False, idle_timeout=1.0)
        sent = drive(net, one_flow_each(80, 443))
        records = controller.audit.records()
        assert [(r.flow, r.action, r.rule_origin, r.query_latency) for r in records] == [
            (flow, "pass", "ethane", 0.0) for flow in sent
        ]
        cookies = [r.cookie for r in records]
        # Each decision is its own cookie, and its two-hop path is registered.
        assert len(set(cookies)) == 2
        assert all(cookie in controller.installer for cookie in cookies)
        assert cookies_on(net) == {"sw-left": cookies, "sw-right": cookies}
        expire_left_hop(net)
        # sw-left's FlowRemoved unwound sw-right: nothing is stranded.
        assert cookies_on(net) == {"sw-left": [], "sw-right": []}
        assert controller.installer.unwinds == 2 and len(controller.installer) == 0
        assert end_host_queries(net, controller) == 0

    def test_the_reference_shares_one_cookie_and_strands_the_other_hop(self):
        net, controller = build("line", one_flow_each(80, 443), reference=True, idle_timeout=1.0)
        drive(net, one_flow_each(80, 443))
        assert cookies_on(net) == {
            "sw-left": ["ethane:pass"] * 2, "sw-right": ["ethane:pass"] * 2,
        }
        expire_left_hop(net)
        assert cookies_on(net) == {"sw-left": [], "sw-right": ["ethane:pass"] * 2}

    def test_a_block_is_audited_and_dropped_at_the_first_hop(self):
        net, controller = build("line", one_flow_each(23), reference=False)
        (flow,) = drive(net, one_flow_each(23))
        (record,) = controller.audit.records()
        assert (record.flow, record.action, record.rule_origin) == (flow, "block", "ethane")
        assert cookies_on(net) == {"sw-left": [record.cookie], "sw-right": []}
        assert len(controller.installer) == 0
        assert deliveries(net)["server0"] == []
