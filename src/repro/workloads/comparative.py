"""Comparative scenarios: collaboration (E7), incremental deployment (E8)
and the §5 security matrix (E9).

Unlike the figure scenarios, these compare ident++ against something —
either against itself without a feature (collaboration off, daemons not
deployed) or against the baseline architectures of §5/§6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Iterable, Optional

from repro.baselines.distributed_firewall import DistributedFirewall
from repro.baselines.ethane import EthanePolicy
from repro.baselines.vanilla_firewall import FirewallRule, VanillaFirewall
from repro.baselines.vlan import VLANSegmentation
from repro.core.network import HostSpec, IdentPPNetwork
from repro.core.policy_engine import PolicyEngine
from repro.identpp.client import QueryClient
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.netsim.addresses import IPv4Network
from repro.security.analysis import AttackProbe, SecurityMatrix, impact_of_compromise
from repro.security.threat_model import (
    COMPONENT_CONTROLLER,
    COMPONENT_END_HOST,
    COMPONENT_SWITCH,
    COMPONENT_USER_APPLICATION,
    CompromiseScenario,
)
from repro.workloads.enterprise import build_branch_network


# ---------------------------------------------------------------------------
# E7 — network collaboration between branches
# ---------------------------------------------------------------------------

BRANCH_A_POLICY = {
    "00-branch-a.control": """\
table <branch-a> { 10.1.0.0/16 }
block all
pass from <branch-a> to any keep state
""",
    "90-collaboration.control": """\
# Drop at the source what the remote branch marked as unwanted.
block all with eq(@dst[remote-accept], no)
""",
}

BRANCH_B_POLICY = {
    "00-branch-b.control": """\
table <branch-b> { 10.2.0.0/16 }
block all
pass from any to <branch-b> port 80 keep state
""",
}


#: The port branch B will not accept (its policy only passes port 80).
COLLABORATION_UNWANTED_PORT = 9999


def collaboration(
    *,
    collaborate: bool = True,
    hosts_per_branch: int = 3,
    flows: int = 24,
    unwanted_fraction: float = 0.5,
    packets_per_flow: int = 4,
    payload_size: int = 1200,
) -> dict:
    """Two branches; branch B tells branch A what it will not accept (§4).

    Send the flow mix from branch A to branch B and report what crossed
    the bottleneck: ``unwanted_flows`` sent, ``bottleneck_bytes``, the
    wanted and unwanted packets delivered in branch B, and the packet-ins
    branch B's controller saw (``remote_packet_ins``).
    """
    branches = build_branch_network(hosts_per_branch=hosts_per_branch)
    net = branches.net
    net.set_policy(BRANCH_A_POLICY, controller=branches.controller_a)
    net.set_policy(BRANCH_B_POLICY, controller=branches.controller_b)
    if collaborate:
        branch_b_prefix = IPv4Network("10.2.0.0/16")

        def branch_b_rejects(query) -> bool:
            # Mark only the flows branch B's own policy would drop.
            return query.flow.dst_ip in branch_b_prefix and query.flow.dst_port != 80

        branches.controller_b.interception.augment_with(
            {"remote-accept": "no"},
            source="branch-b:collaboration",
            applies_to=branch_b_rejects,
        )
        branches.controller_a.add_peer_interceptor(branches.controller_b)

    bottleneck = next(
        link for link in net.topology.links() if link.name == branches.bottleneck_link_name
    )
    unwanted_target = int(round(flows * unwanted_fraction))
    unwanted_sent = 0
    for index in range(flows):
        src = branches.branch_a_hosts[index % len(branches.branch_a_hosts)]
        dst = branches.branch_b_hosts[index % len(branches.branch_b_hosts)]
        dst_ip = str(net.host(dst).ip)
        # Exactly ``unwanted_target`` of the indices, evenly spread
        # (every other one at a half, three in four at 0.75).
        unwanted = index * unwanted_target % flows < unwanted_target
        unwanted_sent += unwanted
        port = COLLABORATION_UNWANTED_PORT if unwanted else 80
        host = net.host(src)
        _, socket, _ = host.open_flow("http", "alice", dst_ip, port, payload_size=payload_size)
        for _ in range(packets_per_flow - 1):
            host.send_on_socket(socket, payload_size=payload_size)
        net.topology.run(until=net.topology.sim.now + 0.5)
    net.topology.run(until=net.topology.sim.now + 1.0)

    wanted_delivered = 0
    unwanted_delivered = 0
    for name in branches.branch_b_hosts:
        for delivered in net.host(name).delivered:
            if delivered.tp_dst == 80:
                wanted_delivered += 1
            else:
                unwanted_delivered += 1
    return {
        "unwanted_flows": unwanted_sent,
        "bottleneck_bytes": bottleneck.carried_bytes,
        "wanted_delivered": wanted_delivered,
        "unwanted_delivered": unwanted_delivered,
        "remote_packet_ins": int(branches.controller_b.packet_ins.value),
    }


# ---------------------------------------------------------------------------
# E8 — incremental benefit
# ---------------------------------------------------------------------------

NAT_SHARED_HOST_IP = "192.168.0.40"
NAT_SERVER_IP = "192.168.1.40"


def nat_identification(*, flows_per_user: int = 5, with_daemon: bool = True) -> dict:
    """Only end-hosts deploy ident++: a server distinguishes users behind one address.

    Open flows as alice and bob from one shared host, then identify each
    flow from the server side.  Reports the ``flows`` opened, how many
    were ``identified`` as their real user (and that as
    ``identified_fraction``), and the distinct users reported and
    actually behind the address.
    """
    net = IdentPPNetwork("nat-identification")
    switch = net.add_switch("sw")
    shared = net.add_host(
        HostSpec(
            name="shared-host",
            ip=NAT_SHARED_HOST_IP,
            users={"alice": ("users",), "bob": ("users",)},
            run_daemon=with_daemon,
        ),
        switch=switch,
    )
    server = net.add_host(HostSpec(name="server", ip=NAT_SERVER_IP, users={}), switch=switch)
    server.run_server("httpd", "root", 80)
    # The network itself is permissive: this sub-experiment is about
    # what the *server* can learn, not about enforcement.
    net.set_policy({"00-open.control": "pass all\n"})

    flows: list[FlowSpec] = []
    expected_users: list[str] = []
    for user in ("alice", "bob"):
        for _ in range(flows_per_user):
            packet, _, _ = shared.open_flow("http", user, NAT_SERVER_IP, 80)
            flows.append(FlowSpec.from_packet(packet))
            expected_users.append(user)
    net.topology.run()

    client = QueryClient(net.topology)
    identified = 0
    reported_users: set[str] = set()
    for flow, expected in zip(flows, expected_users):
        outcome = client.query(flow, "src", from_node=server)
        reported = outcome.document.latest("userID")
        if reported is not None:
            reported_users.add(reported)
            if reported == expected:
                identified += 1
    return {
        "flows": len(flows),
        "identified": identified,
        "identified_fraction": identified / len(flows) if flows else 0.0,
        "distinct_users_reported": len(reported_users),
        "distinct_users_actual": len(set(expected_users)),
    }


PARTIAL_DEPLOYMENT_POLICY = {
    "00-staff.control": """\
block all
pass from any to any with member(@src[groupID], staff) keep state
""",
}

PARTIAL_DEPLOYMENT_SERVER_IP = "192.168.1.50"


def partial_deployment(
    *,
    clients: int = 8,
    deployment_fraction: float = 0.5,
    controller_answers_for_legacy: bool = False,
) -> dict:
    """Only some hosts run daemons; optionally the controller answers for the rest (§4).

    Send one legitimate flow per client and report how many of the
    ``flows`` got through (``allowed``, and ``allowed_fraction``).
    """
    net = IdentPPNetwork("partial-deployment")
    switch = net.add_switch("sw")
    client_names: list[str] = []
    daemon_count = int(round(clients * deployment_fraction))
    for index in range(clients):
        name = f"client{index + 1}"
        runs_daemon = index < daemon_count
        ip = f"192.168.0.{60 + index}"
        net.add_host(
            HostSpec(name=name, ip=ip, users={"alice": ("users", "staff")},
                     run_daemon=runs_daemon),
            switch=switch,
        )
        client_names.append(name)
        if not runs_daemon and controller_answers_for_legacy:
            # The administrator vouches for legacy hosts: the controller
            # answers queries about them with a registered identity.
            net.controller.interception.answer_for_host(
                ip, {"userID": "registered-host", "groupID": "staff"},
            )
    server = net.add_host(
        HostSpec(name="server", ip=PARTIAL_DEPLOYMENT_SERVER_IP, users={}), switch=switch
    )
    server.run_server("httpd", "root", 80)
    net.set_policy(PARTIAL_DEPLOYMENT_POLICY)
    if controller_answers_for_legacy:
        # The controller consults its own interception policy for its own
        # queries — the degenerate (single-domain) case of §3.4.
        net.controller.add_peer_interceptor(net.controller.interception)

    allowed = 0
    for name in client_names:
        result = net.send_flow(name, "http", "alice", PARTIAL_DEPLOYMENT_SERVER_IP, 80)
        if result.delivered:
            allowed += 1
    return {
        "flows": len(client_names),
        "allowed": allowed,
        "allowed_fraction": allowed / len(client_names) if client_names else 0.0,
    }


# ---------------------------------------------------------------------------
# E9 — the §5 security matrix
# ---------------------------------------------------------------------------

#: The architectures compared in the matrix.
ARCH_IDENTPP = "identpp"
ARCH_VANILLA = "vanilla-firewall"
ARCH_DISTRIBUTED = "distributed-firewall"
ARCH_ETHANE = "ethane"
ARCH_VLAN = "vlan"
ALL_ARCHITECTURES = (ARCH_IDENTPP, ARCH_VANILLA, ARCH_DISTRIBUTED, ARCH_ETHANE, ARCH_VLAN)


@dataclass
class ModelHost:
    """A host in the policy-level enterprise model used by the matrix."""

    name: str
    ip: str
    user: str
    groups: tuple[str, ...]
    apps: tuple[str, ...]
    services: dict[int, tuple[str, str]] = field(default_factory=dict)  # port -> (app, user)
    facts: dict[str, str] = field(default_factory=dict)


IDENTPP_MATRIX_POLICY = {
    "00-tables.control": """\
table <lan> { 192.168.0.0/24 }
table <servers> { 192.168.1.0/24 }
table <research-machines> { 192.168.2.0/24 }
approved = "{ http ssh }"
block all
""",
    "10-staff.control": """\
# staff may use approved applications toward the servers and the Internet
pass from <lan> to <servers> \\
    with member(@src[groupID], staff) with member(@src[name], $approved) keep state
pass from <lan> to !<lan> \\
    with member(@src[groupID], staff) with member(@src[name], $approved) keep state
""",
    "20-windows-service.control": """\
# only system users reach the Server service, and only on patched hosts
block from any to <servers> port 445
pass from <lan> to <servers> port 445 \\
    with eq(@src[userID], system) with includes(@dst[os-patch], MS08-067) keep state
""",
    "30-research.control": """\
# research data is only for the research group
block from any to <research-machines> port 7777
pass from <lan> to <research-machines> port 7777 \\
    with member(@src[groupID], research) keep state
""",
}


class SecurityComparisonScenario:
    """The §5 compromise-impact comparison, run at the policy level.

    Probes originate from the attacker's foothold host ``c1``.  "Before"
    deciders model the attacker using its own (truthful) identity from
    that host; "after" deciders model the capabilities each §5 compromise
    grants under each architecture.
    """

    C1_IP = "192.168.0.10"
    C2_IP = "192.168.0.11"
    ADMIN_IP = "192.168.0.5"
    RESEARCH_CLIENT_IP = "192.168.0.12"
    SERVER_IP = "192.168.1.1"
    MAIL_IP = "192.168.1.25"
    RESEARCH_IP = "192.168.2.10"
    EXTERNAL_IP = "203.0.113.50"

    def __init__(self) -> None:
        self.hosts = self._build_hosts()
        self.engine = PolicyEngine(name="matrix-identpp")
        self.engine.add_control_files(IDENTPP_MATRIX_POLICY)
        self.vanilla = self._build_vanilla()
        self.distributed = self._build_distributed()
        self.ethane = self._build_ethane()
        self.vlan = self._build_vlan()
        self.probes = self._build_probes()

    # -- enterprise model -------------------------------------------------

    def _build_hosts(self) -> dict[str, ModelHost]:
        hosts = [
            ModelHost("c1", self.C1_IP, "alice", ("users", "staff"), ("http", "ssh", "skype")),
            ModelHost("c2", self.C2_IP, "bob", ("users", "staff"), ("http", "ssh"),
                      services={22: ("sshd", "root")}),
            ModelHost("admin", self.ADMIN_IP, "system", ("system",), ("Server", "http")),
            ModelHost("research-client", self.RESEARCH_CLIENT_IP, "carol",
                      ("users", "research"), ("http", "research-app")),
            ModelHost("server", self.SERVER_IP, "system", ("system",), ("Server", "httpd", "sshd"),
                      services={445: ("Server", "system"), 80: ("httpd", "root"), 22: ("sshd", "root")},
                      facts={"os-patch": "MS08-067 MS08-068"}),
            ModelHost("mail", self.MAIL_IP, "smtp", ("service",), ("smtp-server",),
                      services={25: ("smtp-server", "smtp")}),
            ModelHost("research-server", self.RESEARCH_IP, "carol", ("research",),
                      ("research-app",), services={7777: ("research-app", "carol")}),
            ModelHost("external", self.EXTERNAL_IP, "mallory", ("internet",), ("httpd",),
                      services={443: ("httpd", "root"), 80: ("httpd", "root")}),
        ]
        return {host.name: host for host in hosts}

    def host_by_ip(self, ip: str) -> Optional[ModelHost]:
        """Return the model host owning ``ip``."""
        for host in self.hosts.values():
            if host.ip == str(ip):
                return host
        return None

    # -- baseline policies -------------------------------------------------

    def _base_port_rules(self) -> list[FirewallRule]:
        return [
            FirewallRule("pass", src="192.168.0.0/24", dst="192.168.1.0/24", proto="tcp",
                         dst_port=80, keep_state=True),
            FirewallRule("pass", src="192.168.0.0/24", dst="192.168.1.0/24", proto="tcp",
                         dst_port=22, keep_state=True),
            FirewallRule("pass", src="192.168.0.0/24", dst="192.168.1.0/24", proto="tcp",
                         dst_port=25, keep_state=True),
            FirewallRule("pass", src=f"{self.ADMIN_IP}/32", dst="192.168.1.0/24", proto="tcp",
                         dst_port=445, keep_state=True),
            FirewallRule("pass", src=f"{self.RESEARCH_CLIENT_IP}/32", dst="192.168.2.0/24",
                         proto="tcp", dst_port=7777, keep_state=True),
            FirewallRule("pass", src="192.168.0.0/24", dst="203.0.113.0/24", proto="tcp",
                         keep_state=True),
            FirewallRule("block"),
        ]

    def _build_vanilla(self) -> VanillaFirewall:
        return VanillaFirewall(self._base_port_rules(), name="vanilla")

    def _build_distributed(self) -> DistributedFirewall:
        return DistributedFirewall(self._base_port_rules(), name="distributed")

    def _build_ethane(self) -> EthanePolicy:
        policy = EthanePolicy(name="ethane")
        for host in self.hosts.values():
            policy.register_host(host.ip, host.user, groups=host.groups)
        policy.allow(src_group="staff", dst="192.168.1.0/24", proto="tcp", dst_port=80)
        policy.allow(src_group="staff", dst="192.168.1.0/24", proto="tcp", dst_port=22)
        policy.allow(src_group="staff", dst="192.168.1.0/24", proto="tcp", dst_port=25)
        policy.allow(src_user="system", dst="192.168.1.0/24", proto="tcp", dst_port=445)
        policy.allow(src_group="research", dst="192.168.2.0/24", proto="tcp", dst_port=7777)
        policy.allow(src_group="staff", dst="203.0.113.0/24", proto="tcp")
        return policy

    def _build_vlan(self) -> VLANSegmentation:
        vlan = VLANSegmentation(name="vlan")
        vlan.assign("lan", ["192.168.0.0/24"])
        vlan.assign("servers", ["192.168.1.0/24"])
        vlan.assign("research", ["192.168.2.0/24"])
        vlan.assign("internet", ["203.0.113.0/24"])
        vlan.allow_between("lan", "servers")
        vlan.allow_between("lan", "internet")
        return vlan

    # -- probes -------------------------------------------------------------

    def _build_probes(self) -> list[AttackProbe]:
        def probe(description, dst_ip, dst_port, claims, spoof=True):
            return AttackProbe.build(
                FlowSpec.tcp(self.C1_IP, dst_ip, 40001, dst_port),
                claims,
                description=description,
                requires_spoofing=spoof,
            )

        return [
            probe("reach the Windows Server service as 'system'", self.SERVER_IP, 445,
                  {"userID": "system", "groupID": "system", "name": "Server"}),
            probe("reach the web server claiming an approved app", self.SERVER_IP, 80,
                  {"userID": "alice", "groupID": "users staff", "name": "http"}, spoof=False),
            probe("reach the mail server claiming an approved app", self.MAIL_IP, 25,
                  {"userID": "alice", "groupID": "users staff", "name": "http"}),
            probe("reach the research data port claiming the research group", self.RESEARCH_IP, 7777,
                  {"userID": "alice", "groupID": "research users", "name": "research-app"}),
            probe("lateral movement to another workstation's sshd", self.C2_IP, 22,
                  {"userID": "alice", "groupID": "users staff", "name": "ssh"}),
            probe("exfiltrate to an Internet host claiming the browser", self.EXTERNAL_IP, 443,
                  {"userID": "alice", "groupID": "users staff", "name": "http"}),
        ]

    # -- ident++ deciders ---------------------------------------------------

    def _doc_from_claims(self, claims: dict[str, str]) -> ResponseDocument:
        document = ResponseDocument()
        document.add_section(dict(claims), source="attacker")
        return document

    def _honest_src_doc(self, host: ModelHost, app_name: str) -> ResponseDocument:
        document = ResponseDocument()
        document.add_section(
            {
                "userID": host.user,
                "groupID": " ".join(host.groups),
                "name": app_name,
                "app-name": app_name,
            },
            source=f"{host.name}:daemon",
        )
        return document

    def _honest_dst_doc(self, flow: FlowSpec) -> ResponseDocument:
        host = self.host_by_ip(str(flow.dst_ip))
        document = ResponseDocument()
        if host is None:
            return document
        service = host.services.get(flow.dst_port)
        pairs = {"groupID": " ".join(host.groups)}
        if service is not None:
            app, user = service
            pairs.update({"name": app, "app-name": app, "userID": user})
        pairs.update(host.facts)
        document.add_section(pairs, source=f"{host.name}:daemon")
        return document

    def _identpp_allows(self, flow: FlowSpec, src_doc: ResponseDocument) -> bool:
        return self.engine.decide(flow, src_doc, self._honest_dst_doc(flow)).is_pass

    def identpp_decider_truthful(self, probe: AttackProbe) -> bool:
        """The attacker on c1 uses its own tool under its own account."""
        c1 = self.hosts["c1"]
        return self._identpp_allows(probe.flow, self._honest_src_doc(c1, "evil-tool"))

    def identpp_decider_app_compromise(self, probe: AttackProbe) -> bool:
        """Alice's application is compromised: any of *her* apps can be claimed (§5.4)."""
        c1 = self.hosts["c1"]
        for app in c1.apps:
            if self._identpp_allows(probe.flow, self._honest_src_doc(c1, app)):
                return True
        return False

    def identpp_decider_host_compromise(self, probe: AttackProbe) -> bool:
        """The whole host (and daemon) is compromised: arbitrary claims (§5.3)."""
        return self._identpp_allows(probe.flow, self._doc_from_claims(probe.claims()))

    # -- generic deciders ---------------------------------------------------

    def _baseline_decider(self, policy) -> Callable[[AttackProbe], bool]:
        return lambda probe: policy.decide(probe.flow) == "pass"

    @staticmethod
    def _allow_everything(probe: AttackProbe) -> bool:
        return True

    # -- the matrix ---------------------------------------------------------

    def compromise_scenarios(self) -> list[CompromiseScenario]:
        """Return the four §5 compromises, in increasing difficulty order."""
        return [
            CompromiseScenario(COMPONENT_USER_APPLICATION, "c1:skype(alice)"),
            CompromiseScenario(COMPONENT_END_HOST, "c1", superuser=True),
            CompromiseScenario(COMPONENT_SWITCH, "sw-access"),
            CompromiseScenario(COMPONENT_CONTROLLER, "controller"),
        ]

    def _after_decider(self, architecture: str, scenario: CompromiseScenario) -> Callable[[AttackProbe], bool]:
        before = self._before_decider(architecture)
        if scenario.component == COMPONENT_CONTROLLER:
            # §5.1: every architecture's central policy point, once owned,
            # stops protecting anything.
            return self._allow_everything
        if scenario.component == COMPONENT_SWITCH:
            # §5.2: in-network enforcement evaporates for traffic through the
            # compromised device; distributed firewalls enforce at the hosts
            # and are unaffected.
            if architecture == ARCH_DISTRIBUTED:
                return before
            return self._allow_everything
        if scenario.component == COMPONENT_END_HOST:
            if architecture == ARCH_IDENTPP:
                return self.identpp_decider_host_compromise
            # Architectures that never believed the host gain nothing new
            # from its lies; their (coarser) decisions are unchanged.
            return before
        if scenario.component == COMPONENT_USER_APPLICATION:
            if architecture == ARCH_IDENTPP:
                return self.identpp_decider_app_compromise
            return before
        raise ValueError(f"unknown component: {scenario.component}")

    def _before_decider(self, architecture: str) -> Callable[[AttackProbe], bool]:
        if architecture == ARCH_IDENTPP:
            return self.identpp_decider_truthful
        if architecture == ARCH_VANILLA:
            return self._baseline_decider(self.vanilla)
        if architecture == ARCH_DISTRIBUTED:
            return self._baseline_decider(self.distributed)
        if architecture == ARCH_ETHANE:
            return self._baseline_decider(self.ethane)
        if architecture == ARCH_VLAN:
            return self._baseline_decider(self.vlan)
        raise ValueError(f"unknown architecture: {architecture}")

    def build_matrix(self, architectures: Iterable[str] = ALL_ARCHITECTURES) -> SecurityMatrix:
        """Compute the full matrix."""
        matrix = SecurityMatrix()
        for architecture in architectures:
            before = self._before_decider(architecture)
            for scenario in self.compromise_scenarios():
                after = self._after_decider(architecture, scenario)
                matrix.add(
                    impact_of_compromise(architecture, scenario, before, after, self.probes)
                )
        return matrix
