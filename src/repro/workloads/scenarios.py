"""Executable scenarios for the paper's figures (experiments E1–E6).

Each figure scenario class (E2–E6) builds an ident++-protected network
loaded with the corresponding figure's configuration (from
:mod:`repro.workloads.paper_configs`), drives a matrix of flows through
the full datapath (switch punt → ident++ queries → PF+=2 decision →
flow entries → delivery) and reports one row per flow beside the verdict
the paper's prose leads us to expect.  E1, Figure 1's walkthrough, is
the function :func:`flow_setup`.

The examples, the integration tests and the ``paper`` soak
(:mod:`repro.workloads.paper`) all consume these, so the "what should
happen" knowledge lives in exactly one place.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.network import HostSpec, IdentPPNetwork
from repro.crypto.signatures import Signer
from repro.exceptions import WorkloadError
from repro.hosts.applications import Application, standard_applications
from repro.netsim.links import DEFAULT_LATENCY
from repro.workloads import paper_configs
from repro.workloads.enterprise import build_linear_network


@dataclass
class FlowCase:
    """One flow to drive through a scenario network."""

    label: str
    src_host: str
    app: str
    user: str
    dst_ip: str
    dst_port: int
    expected: str


class FigureScenario:
    """Shared machinery: build a network, run a case matrix, collect results.

    A figure is data: its network's ``NAME``, its ``SWITCHES`` (each
    linked to the one before), the host rows :meth:`hosts` returns, the
    control files :meth:`control_files` returns, and the cases
    :meth:`build_cases` returns.
    """

    NAME: str
    SWITCHES: tuple[str, ...]

    def __init__(self) -> None:
        self.net: IdentPPNetwork = self.build_network()
        self.cases: list[FlowCase] = self.build_cases()

    def build_network(self) -> IdentPPNetwork:
        """Link the switches in a line, add each host row and run its
        servers, then load the figure's control files."""
        net = IdentPPNetwork(self.NAME)
        switches = [net.add_switch(name) for name in self.SWITCHES]
        for left, right in zip(switches, switches[1:]):
            net.connect(left, right)
        by_name = dict(zip(self.SWITCHES, switches))
        for switch, spec, *servers in self.hosts():
            host = net.add_host(spec, switch=by_name[switch])
            for app, user, port in servers:
                host.run_server(app, user, port)
        net.set_policy(self.control_files())
        return net

    # Subclasses override these three.
    def hosts(self) -> list[tuple]:
        """One row per host, in order: ``(switch, HostSpec, *(app, user, port))``."""
        raise NotImplementedError

    def control_files(self) -> dict[str, str]:
        raise NotImplementedError

    def build_cases(self) -> list[FlowCase]:
        raise NotImplementedError

    def run(self) -> dict:
        """Drive every case through the datapath: return a row per case, and
        a violation telling its story per case that misses the paper's verdict.

        A case is ``correct`` when the observed verdict is the expected one
        and delivery agrees: a passed flow arrives, a blocked one does not.
        """
        rows, violations = [], []
        for case in self.cases:
            outcome = self.net.send_flow(
                case.src_host, case.app, case.user, case.dst_ip, case.dst_port
            )
            observed, delivered = outcome.decision_action, outcome.delivered
            correct = observed == case.expected and delivered == (case.expected == "pass")
            rows.append({"case": case.label, "expected": case.expected, "observed": observed,
                         "delivered": delivered, "correct": correct})
            if not correct:
                violations.append(
                    f"{case.label}: the paper expects {case.expected}, observed {observed} "
                    f"({'' if delivered else 'not '}delivered), "
                    f"decided by {outcome.decision_rule or 'no rule'!r}"
                )
        return {"rows": rows, "violations": violations}


def _application(name: str) -> Application:
    """The standard application called ``name``."""
    return next(app for app in standard_applications() if app.name == name)


def tamper(config: str, signed: str, rewritten: str) -> str:
    """Return ``config`` with ``signed`` rewritten after it was signed.

    Raises when ``signed`` is not in the text: the "tampered" host would
    then report honest requirements, and the case that shows ``verify()``
    rejecting them would block for some other reason or not at all.
    """
    if signed not in config:
        raise WorkloadError(f"nothing to tamper with: {signed!r} is not in the figure's text")
    return config.replace(signed, rewritten, 1)


# ---------------------------------------------------------------------------
# E1 — Figure 1: the flow-setup walkthrough
# ---------------------------------------------------------------------------

FLOW_SETUP_POLICY = {
    "00-default.control": "block all\npass from any to any with eq(@src[name], http) keep state\n",
}


def flow_setup(*, switch_count: int = 2, link_latency: float = DEFAULT_LATENCY) -> dict:
    """Send one flow along a line of ``switch_count`` switches and report
    where the setup time went (virtual seconds): the endpoint queries,
    the policy evaluation, the controller's whole decision, and the first
    packet's delivery (``None`` when the server never saw it)."""
    net = build_linear_network(switch_count, link_latency=link_latency)
    net.set_policy(FLOW_SETUP_POLICY)
    server = net.host("server")
    result = net.send_flow("client", "http", "alice", str(server.ip), 80)
    controller = net.controller
    # The one flow is the one decision the audit holds.
    (decision,) = controller.audit.records()
    return {
        "query_latency": decision.query_latency,
        "policy_delay": controller.config.policy_eval_delay,
        "controller_decision_latency": controller.flow_setup_latency.mean,
        "end_to_end_delivery": server.delivered_times[0] if server.delivered_times else None,
        "delivered": result.delivered,
    }


# ---------------------------------------------------------------------------
# E2 + E3 — Figures 2 and 3: the Skype policy
# ---------------------------------------------------------------------------

class SkypeScenario(FigureScenario):
    """Figure 2's three ``.control`` files plus Figure 3's daemon configuration."""

    LAN_A = "192.168.0.10"
    LAN_B = "192.168.0.11"
    SERVER = "192.168.1.1"
    EXTERNAL = "203.0.113.80"
    SKYPE_UPDATE = "123.123.123.5"
    SKYPE_PORT = 5060

    NAME = "skype-scenario"
    SWITCHES = ("sw-lan", "sw-core", "sw-edge")

    def hosts(self) -> list[tuple]:
        self.signer = Signer("skype-vendor", seed=3)
        skype_config = paper_configs.figure3_skype_daemon_config(_application("skype"), self.signer)
        return [
            ("sw-lan", HostSpec(name="lan-a", ip=self.LAN_A, users={"alice": ("users", "staff")},
                                daemon_system_configs=[skype_config])),
            ("sw-lan", HostSpec(name="lan-b", ip=self.LAN_B, users={"bob": ("users", "staff")},
                                daemon_system_configs=[skype_config]),
             ("skype", "bob", self.SKYPE_PORT), ("sshd", "root", 22)),
            ("sw-core", HostSpec(name="server", ip=self.SERVER, users={"smtp": ("service",)}),
             ("httpd", "root", 80), ("smtp-server", "root", 25)),
            ("sw-edge", HostSpec(name="external", ip=self.EXTERNAL, users={"mallory": ("internet",)}),
             ("httpd", "root", 80)),
            ("sw-edge", HostSpec(name="skype-update", ip=self.SKYPE_UPDATE,
                                 users={"www": ("service",)}),
             ("httpd", "root", 80)),
        ]

    def control_files(self) -> dict[str, str]:
        return paper_configs.figure2_control_files()

    def build_cases(self) -> list[FlowCase]:
        return [
            FlowCase("approved app (http) inside the LAN", "lan-a", "http", "alice",
                     self.SERVER, 80, "pass"),
            FlowCase("approved app (ssh) inside the LAN", "lan-a", "ssh", "alice",
                     self.LAN_B, 22, "pass"),
            FlowCase("skype to skype (current version)", "lan-a", "skype", "alice",
                     self.LAN_B, self.SKYPE_PORT, "pass"),
            FlowCase("skype older than version 200", "lan-a", "skype-old", "alice",
                     self.LAN_B, self.SKYPE_PORT, "block"),
            FlowCase("skype to the protected server", "lan-a", "skype", "alice",
                     self.SERVER, 25, "block"),
            FlowCase("unapproved app (telnet) inside the LAN", "lan-a", "telnet", "alice",
                     self.LAN_B, 23, "block"),
            FlowCase("outbound connection to the Internet", "lan-a", "http", "alice",
                     self.EXTERNAL, 80, "pass"),
            FlowCase("inbound connection from the Internet", "external", "http", "mallory",
                     self.LAN_A, 80, "block"),
            FlowCase("skype update check (port 80 to update servers)", "lan-a", "skype", "alice",
                     self.SKYPE_UPDATE, 80, "pass"),
        ]


# ---------------------------------------------------------------------------
# E4 — Figures 4 and 5: delegation to users (the research application)
# ---------------------------------------------------------------------------

class ResearchDelegationScenario(FigureScenario):
    """A researcher delegates per-application rules, signed with her own key."""

    RESEARCH_A = "192.168.2.10"
    RESEARCH_B = "192.168.2.11"
    RESEARCH_TAMPERED = "192.168.2.12"
    PRODUCTION = "192.168.3.10"
    LAN_CLIENT = "192.168.0.10"
    APP_PORT = 7777

    NAME = "research-delegation"
    SWITCHES = ("sw-research", "sw-core")

    def hosts(self) -> list[tuple]:
        self.researcher_signer = Signer("research", seed=11)
        good_config = paper_configs.figure4_research_daemon_config(
            _application("research-app"), self.researcher_signer
        )
        # The tampered variant loosens the requirements after signing (the
        # default deny disappears), so the text the daemon reports no longer
        # matches the researcher's signature.
        tampered_config = tamper(good_config, "block all pass all", "pass all")
        return [
            ("sw-research", HostSpec(name="research-a", ip=self.RESEARCH_A,
                                     users={"carol": ("research", "users")},
                                     daemon_user_configs=[good_config])),
            ("sw-research", HostSpec(name="research-b", ip=self.RESEARCH_B,
                                     users={"dave": ("research", "users")},
                                     daemon_user_configs=[good_config]),
             ("research-app", "dave", self.APP_PORT)),
            ("sw-research", HostSpec(name="research-tampered", ip=self.RESEARCH_TAMPERED,
                                     users={"erin": ("research", "users")},
                                     daemon_user_configs=[tampered_config]),
             ("research-app", "erin", self.APP_PORT)),
            ("sw-core", HostSpec(name="production", ip=self.PRODUCTION,
                                 users={"ops": ("research", "production")},
                                 daemon_user_configs=[good_config]),
             ("research-app", "ops", self.APP_PORT)),
            ("sw-core", HostSpec(name="lan-client", ip=self.LAN_CLIENT,
                                 users={"alice": ("users", "staff")},
                                 daemon_user_configs=[good_config])),
        ]

    def control_files(self) -> dict[str, str]:
        return paper_configs.figure5_research_control(self.researcher_signer.public_key_hex)

    def build_cases(self) -> list[FlowCase]:
        return [
            FlowCase("research app between researcher machines", "research-a", "research-app",
                     "carol", self.RESEARCH_B, self.APP_PORT, "pass"),
            FlowCase("research app toward a production machine", "research-a", "research-app",
                     "carol", self.PRODUCTION, self.APP_PORT, "block"),
            FlowCase("different application toward the research server", "research-a", "telnet",
                     "carol", self.RESEARCH_B, self.APP_PORT, "block"),
            FlowCase("tampered requirements on the destination", "research-a", "research-app",
                     "carol", self.RESEARCH_TAMPERED, self.APP_PORT, "block"),
            FlowCase("non-research machine reaching the research server", "lan-client",
                     "research-app", "alice", self.RESEARCH_B, self.APP_PORT, "block"),
        ]


# ---------------------------------------------------------------------------
# E5 — Figures 6 and 7: trust delegation to a third party ("Secur")
# ---------------------------------------------------------------------------

class ThirdPartyTrustScenario(FigureScenario):
    """Applications approved (and signed for) by the Secur security company."""

    CLIENT = "192.168.0.20"
    CLIENT_TAMPERED = "192.168.0.21"
    MAIL_SERVER = "192.168.1.25"
    WEB_SERVER = "192.168.1.80"

    NAME = "secur-trust"
    SWITCHES = ("sw-access", "sw-servers")

    def hosts(self) -> list[tuple]:
        self.secur = Signer("Secur", seed=23)
        good_config = paper_configs.figure6_thunderbird_daemon_config(
            _application("thunderbird"), self.secur
        )
        # The tampered variant widens Secur's rules after signing (drops the
        # mail-server-only restriction), so verify() must reject it.
        tampered_config = tamper(
            good_config, "to any with eq(@dst[type], email-server)", "to any"
        )
        return [
            ("sw-access", HostSpec(name="client", ip=self.CLIENT, users={"alice": ("users", "staff")},
                                   daemon_system_configs=[good_config])),
            ("sw-access", HostSpec(name="client-tampered", ip=self.CLIENT_TAMPERED,
                                   users={"bob": ("users", "staff")},
                                   daemon_system_configs=[tampered_config])),
            ("sw-servers", HostSpec(name="mail-server", ip=self.MAIL_SERVER,
                                    users={"smtp": ("service",)}),
             ("smtp-server", "root", 25)),
            ("sw-servers", HostSpec(name="web-server", ip=self.WEB_SERVER, users={"www": ("service",)}),
             ("httpd", "root", 80)),
        ]

    def control_files(self) -> dict[str, str]:
        return paper_configs.figure7_secur_control(self.secur.public_key_hex)

    def build_cases(self) -> list[FlowCase]:
        return [
            FlowCase("Secur-approved thunderbird to a mail server", "client", "thunderbird",
                     "alice", self.MAIL_SERVER, 25, "pass"),
            FlowCase("Secur-approved thunderbird to a web server", "client", "thunderbird",
                     "alice", self.WEB_SERVER, 80, "block"),
            FlowCase("application without third-party approval", "client", "pine",
                     "alice", self.MAIL_SERVER, 25, "block"),
            FlowCase("tampered Secur rules on the source host", "client-tampered", "thunderbird",
                     "bob", self.MAIL_SERVER, 25, "block"),
        ]


# ---------------------------------------------------------------------------
# E6 — Figure 8: user/application-specific rules (Conficker / MS08-067)
# ---------------------------------------------------------------------------

class ConfickerScenario(FigureScenario):
    """Only ``system`` users reach the Server service, and only on patched hosts."""

    ADMIN_HOST = "192.168.0.5"
    WORKSTATION = "192.168.0.6"
    INFECTED_LAN = "192.168.0.66"
    PATCHED_SERVER = "192.168.1.10"
    UNPATCHED_SERVER = "192.168.1.11"
    INTERNET = "203.0.113.66"
    SMB_PORT = 445

    NAME = "conficker"
    SWITCHES = ("sw-access", "sw-servers", "sw-edge")

    def hosts(self) -> list[tuple]:
        return [
            ("sw-access", HostSpec(name="admin-host", ip=self.ADMIN_HOST,
                                   users={"admin": ("system", "users")})),
            ("sw-access", HostSpec(name="workstation", ip=self.WORKSTATION,
                                   users={"alice": ("users",)})),
            ("sw-access", HostSpec(name="infected-lan", ip=self.INFECTED_LAN,
                                   users={"victim": ("users",)})),
            ("sw-servers", HostSpec(name="patched-server", ip=self.PATCHED_SERVER, users={},
                                    host_facts={"os-patch": "MS08-067 MS08-068"}),
             ("Server", "system", self.SMB_PORT)),
            ("sw-servers", HostSpec(name="unpatched-server", ip=self.UNPATCHED_SERVER, users={},
                                    host_facts={"os-patch": "MS08-001"}),
             ("Server", "system", self.SMB_PORT)),
            ("sw-edge", HostSpec(name="internet-attacker", ip=self.INTERNET,
                                 users={"mallory": ("internet",)}, run_daemon=False)),
        ]

    def control_files(self) -> dict[str, str]:
        return paper_configs.figure8_control_files()

    def build_cases(self) -> list[FlowCase]:
        return [
            FlowCase("system user to the patched Server service", "admin-host", "Server",
                     "system", self.PATCHED_SERVER, self.SMB_PORT, "pass"),
            FlowCase("system user to an unpatched Server service", "admin-host", "Server",
                     "system", self.UNPATCHED_SERVER, self.SMB_PORT, "block"),
            FlowCase("ordinary user to the Server service", "workstation", "http",
                     "alice", self.PATCHED_SERVER, self.SMB_PORT, "block"),
            FlowCase("Conficker probe from the Internet", "internet-attacker", "conficker",
                     "mallory", self.PATCHED_SERVER, self.SMB_PORT, "block"),
            FlowCase("Conficker probe from an infected LAN host (ordinary user)", "infected-lan",
                     "conficker", "victim", self.UNPATCHED_SERVER, self.SMB_PORT, "block"),
        ]
