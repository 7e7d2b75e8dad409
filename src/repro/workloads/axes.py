"""What a cell of the scenario matrix can be: every value of every axis.

Each axis of a :class:`~repro.workloads.experiment.ScenarioSpec` is a
plain registry here, gathered in :data:`AXES`: :data:`TOPOLOGIES`,
:data:`CONTROLS`, :data:`POLICIES` (:class:`PolicyRow`),
:data:`TRAFFIC_MIXES` (:class:`TrafficMix`: the hosts it plans as
:class:`HostPlan` rows, each flow it draws as a :class:`FlowIntent`)
and :data:`FAILURES` (:class:`FailureRow`).  A row carries everything
about its value, so adding one is one row (plus an arm function for a
failure).  How a cell runs them is :mod:`repro.workloads.experiment`'s.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable, Mapping, Optional

from repro.baselines.ethane import EthaneRule
from repro.baselines.vanilla_firewall import FirewallRule
from repro.core.network import IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.workloads import invariants
from repro.workloads.soak import web_listener

if TYPE_CHECKING:  # pragma: no cover
    from repro.workloads.experiment import ScenarioSpec

#: Address plan shared by every scenario (baseline builders key off it).
TENANT_A_CLIENTS = "192.168.0.0/24"
TENANT_A_SERVERS = "192.168.1.0/24"
TENANT_B_CLIENTS = "10.2.0.0/24"
TENANT_B_SERVERS = "10.2.1.0/24"


# ======================================================================
# Flow intents, host plans, and the state of one repeat
# ======================================================================

@dataclass(frozen=True)
class FlowIntent:
    """One planned flow: who opens it, where it goes, and the ground truth.

    ``wanted`` is the *intent* of the administrator's policy — worm
    traffic is unwanted even when a port-based policy happens to pass
    it.  ``expect_verdict`` marks flows the control plane is expected to
    account for (quarantine wildcard drops and partition blackouts stop
    packets before any punt, so those flows legitimately reach no
    verdict).
    """

    at: float
    src_host: str
    src_ip: str
    app: str
    user: str
    dst_ip: str
    dst_port: int
    wanted: bool
    expect_verdict: bool = True

    def planned_flow(self, index: int) -> FlowSpec:
        """A deterministic 5-tuple stand-in used for baseline evaluation."""
        return FlowSpec.tcp(self.src_ip, self.dst_ip, 40000 + index, self.dst_port)


@dataclass
class HostPlan:
    """One planned end-host: identity, attachment role, services."""

    name: str
    ip: str
    users: dict[str, tuple[str, ...]]
    role: str = "client"           # client | server | roam_a | roam_b | infected
    run_daemon: bool = True
    server_app: Optional[tuple[str, str, int]] = None   # (app, user, port)


@dataclass
class CellContext:
    """Mutable state of one repeat: the network plus everything observed."""

    spec: ScenarioSpec
    net: IdentPPNetwork
    #: The repeat's seeded draws: the flows' instants, then the mix's own.
    rng: random.Random
    switches: dict[str, list] = field(default_factory=dict)
    plans: dict[str, HostPlan] = field(default_factory=dict, init=False)
    intents: list[FlowIntent] = field(default_factory=list)
    injected: list[tuple[FlowIntent, FlowSpec]] = field(default_factory=list, init=False)
    peaks: dict[str, int] = field(default_factory=dict, init=False)

    def hosts_in_role(self, role: str, prefix: str = "") -> list[HostPlan]:
        return [
            plan for plan in self.plans.values()
            if plan.role == role and plan.name.startswith(prefix)
        ]

    def pick(self, role: str, prefix: str = "") -> HostPlan:
        return self.rng.choice(self.hosts_in_role(role, prefix))

    def schedule(self, fraction: float, callback: Callable, *args, label: str) -> None:
        """Run ``callback(*args)`` at ``fraction`` of the cell's duration."""
        self.net.topology.sim.schedule_at(self.spec.duration * fraction, callback, *args, label=label)


# ======================================================================
# Topologies and control planes
# ======================================================================

def _topology_single(ctx: CellContext) -> None:
    sw = ctx.net.add_switch("sw0")
    ctx.switches = {"client": [sw], "server": [sw], "spine": []}


def _topology_edge_core(ctx: CellContext) -> None:
    edge = ctx.net.add_switch("sw-edge")
    core = ctx.net.add_switch("sw-core")
    ctx.net.connect(edge, core)
    ctx.switches = {"client": [edge], "server": [core], "spine": []}


def _topology_spine_leaf(ctx: CellContext) -> None:
    fabric = ctx.net.add_spine_leaf_fabric(spines=2, leaves=3, prefix="sl")
    ctx.switches = {
        "client": fabric.leaves[:-1],
        "server": [fabric.leaves[-1]],
        "spine": fabric.spines,
    }


TOPOLOGIES: dict[str, Callable[[CellContext], None]] = {
    "single": _topology_single,
    "edge_core": _topology_edge_core,
    "spine_leaf": _topology_spine_leaf,
}

#: Control plane → shard count (0 = one unsharded controller).
CONTROLS: dict[str, int] = {"single": 0, "cluster2": 2, "cluster4": 4}


# ======================================================================
# Policy sets (ident++ control files + what each baseline can say)
# ======================================================================

@dataclass(frozen=True)
class PolicyRow:
    """One policy set: ident++'s control files and each baseline's approximation.

    Each baseline gets the closest approximation its architecture can
    state: port/subnet rules for the firewalls, per-host user bindings
    for Ethane, subnet segments for VLANs.  The gap between these
    approximations and the ground-truth ``wanted`` labels is exactly
    what the per-cell comparison measures.
    """

    control_files: Mapping[str, str]
    #: The rules of both firewalls, vanilla and distributed, in order.
    #: Every policy but tenant isolation narrows port 80; a firewall can
    #: only say "port 80".
    firewall: tuple[FirewallRule, ...] = (
        FirewallRule("pass", proto="tcp", dst_port=80, keep_state=True),
        FirewallRule("block"),
    )
    #: Ethane's rules over its per-host user bindings, in order.
    ethane: tuple[EthaneRule, ...] = (EthaneRule("pass", proto="tcp", dst_port=80),)
    #: Whether the VLAN design keeps the two tenants apart; outside the
    #: isolation cells it has one big zone.
    vlan_isolates: bool = False


def _port_80(*condition: str) -> str:
    """A control file passing port 80 alone, on ``condition`` (a ``with`` clause)."""
    return " ".join(("block all\npass from any to any port 80", *condition, "keep state\n"))


# Table names must not collide with group names: a bare name inside
# member() resolves as a PF table first, so member(@src[groupID], tenant-a)
# with a <tenant-a> table would test groups against CIDR prefixes.
_TABLE_HEADER = f"""\
table <tenant-a-net> {{ {TENANT_A_CLIENTS}, {TENANT_A_SERVERS} }}
table <tenant-b-net> {{ {TENANT_B_CLIENTS}, {TENANT_B_SERVERS} }}
"""

# Ethane can bind users (not apps): user_gated is its best case,
# app_gated its documented blind spot — same rule either way.
_ETHANE_STAFF_80 = (EthaneRule("pass", src_group="staff", proto="tcp", dst_port=80),)

POLICIES: dict[str, PolicyRow] = {
    # Port-based: what a conventional firewall can express.
    "web_open": PolicyRow({"00-web.control": _port_80()}),
    # Only the approved browser may speak HTTP (Figure 2's skype-vs-web).
    "app_gated": PolicyRow(
        {"00-app.control": _port_80("with eq(@src[name], http)")}, ethane=_ETHANE_STAFF_80,
    ),
    # Only staff users may speak HTTP, whoever's machine they borrow.
    "user_gated": PolicyRow(
        {"00-user.control": _port_80("with member(@src[groupID], staff)")},
        ethane=_ETHANE_STAFF_80,
    ),
    # Tenants are isolated by group membership, not just by subnet.
    "tenant_iso": PolicyRow(
        {"00-tenants.control": _TABLE_HEADER + (
            "block all\n"
            "pass from <tenant-a-net> to <tenant-a-net> port 80 "
            "with member(@src[groupID], tenant-a) keep state\n"
            "pass from <tenant-b-net> to <tenant-b-net> port 80 "
            "with member(@src[groupID], tenant-b) keep state\n"
        )},
        firewall=(
            FirewallRule("pass", src=TENANT_A_CLIENTS, dst=TENANT_A_SERVERS,
                         proto="tcp", dst_port=80, keep_state=True),
            FirewallRule("pass", src=TENANT_B_CLIENTS, dst=TENANT_B_SERVERS,
                         proto="tcp", dst_port=80, keep_state=True),
            FirewallRule("block"),
        ),
        ethane=(
            EthaneRule("pass", src_group="tenant-a", dst=TENANT_A_SERVERS, proto="tcp", dst_port=80),
            EthaneRule("pass", src_group="tenant-b", dst=TENANT_B_SERVERS, proto="tcp", dst_port=80),
        ),
        vlan_isolates=True,
    ),
    # The *destination* must be the real web server (coherence cells).
    "dst_app_gated": PolicyRow({"00-dst.control": _port_80("with eq(@dst[name], httpd)")}),
}


# ======================================================================
# Traffic mixes
# ======================================================================

def _client_plans(spec: ScenarioSpec) -> list[HostPlan]:
    return [
        HostPlan(
            name=f"c{i}", ip=f"192.168.0.{10 + i}",
            users={f"alice{i}": ("users", "staff")},
            run_daemon=i < round(spec.daemon_fraction * spec.clients),
        )
        for i in range(spec.clients)
    ]


def _server_plans(spec: ScenarioSpec, *, subnet_prefix="192.168.1", name_prefix="srv") -> list[HostPlan]:
    return [
        HostPlan(
            name=f"{name_prefix}{j}", ip=f"{subnet_prefix}.{1 + j}",
            users={"root": ("system",)}, role="server",
            server_app=("httpd", "root", 80),
        )
        for j in range(spec.servers)
    ]


def _clients_and_servers(spec: ScenarioSpec) -> list[HostPlan]:
    return _client_plans(spec) + _server_plans(spec)


@dataclass(frozen=True)
class TrafficMix:
    """One traffic mix: the hosts it plans and its draw of one flow.

    The runner jitters the flows' opening instants over the first
    ``end_fraction`` of the cell, then calls ``draw`` once per instant
    in order, so the mix's own draws are its only other ``rng`` calls.
    """

    draw: Callable[[CellContext, float], FlowIntent]
    hosts: Callable[[ScenarioSpec], list[HostPlan]] = _clients_and_servers
    end_fraction: float = 0.7


def _intent(at: float, src: HostPlan, dst: HostPlan, app: str = "http", *,
            user: Optional[str] = None, port: int = 80, wanted: bool = True,
            expect_verdict: bool = True) -> FlowIntent:
    """``src`` (as its first user, unless ``user``) opens ``app`` toward ``dst``."""
    return FlowIntent(at, src.name, src.ip, app, user or next(iter(src.users)), dst.ip, port,
                      wanted=wanted, expect_verdict=expect_verdict)


def _draw_web_burst(ctx: CellContext, at: float) -> FlowIntent:
    client, server = ctx.pick("client"), ctx.pick("server")
    if ctx.rng.random() < 0.8:
        return _intent(at, client, server)
    return _intent(at, client, server, "telnet", port=23, wanted=False)


def _draw_app_mix(ctx: CellContext, at: float) -> FlowIntent:
    client, server = ctx.pick("client"), ctx.pick("server")
    app = "http" if ctx.rng.random() < 0.7 else "skype"
    return _intent(at, client, server, app, wanted=app == "http")


def _with_guest(spec: ScenarioSpec) -> list[HostPlan]:
    plans = _clients_and_servers(spec)
    plans[0].users["eve"] = ("users", "guests")  # a guest borrows c0
    return plans


def _draw_user_mix(ctx: CellContext, at: float) -> FlowIntent:
    server = ctx.pick("server")
    if ctx.rng.random() < 0.7:
        return _intent(at, ctx.pick("client"), server)
    return _intent(at, ctx.plans["c0"], server, user="eve", wanted=False)


def _with_roamer(spec: ScenarioSpec) -> list[HostPlan]:
    return _clients_and_servers(spec) + [
        HostPlan("roam-a", "192.168.0.30", {"roamer": ("users", "staff")}, role="roam_a"),
        HostPlan("roam-b", "192.168.0.31", {"roamer": ("users", "staff")}, role="roam_b"),
    ]


def _draw_roaming(ctx: CellContext, at: float) -> FlowIntent:
    """A staff user re-homes across leaves mid-run; policy follows the user."""
    server = ctx.pick("server")
    if ctx.rng.random() < 0.5:
        return _intent(at, ctx.pick("client"), server)
    (roamer,) = ctx.hosts_in_role("roam_a" if at < ctx.spec.duration * 0.35 else "roam_b")
    return _intent(at, roamer, server)


def _two_tenants(spec: ScenarioSpec) -> list[HostPlan]:
    plans = [
        HostPlan(f"c{i}", f"192.168.0.{10 + i}", {f"alice{i}": ("users", "tenant-a")})
        for i in range(spec.clients)
    ]
    plans += [
        HostPlan(f"b{i}", f"10.2.0.{10 + i}", {f"bob{i}": ("users", "tenant-b")})
        for i in range(spec.clients)
    ]
    # A contractor badge: tenant-b credentials on a tenant-a subnet host.
    plans.append(HostPlan("a-contract", "192.168.0.40", {"mallory": ("users", "tenant-b")}))
    plans += _server_plans(spec)
    plans += _server_plans(spec, subnet_prefix="10.2.1", name_prefix="bsrv")
    return plans


def _draw_multi_tenant(ctx: CellContext, at: float) -> FlowIntent:
    roll = ctx.rng.random()
    if roll < 0.40:
        client, server, wanted = ctx.pick("client", "c"), ctx.pick("server", "srv"), True
    elif roll < 0.65:
        client, server, wanted = ctx.pick("client", "b"), ctx.pick("server", "bsrv"), True
    elif roll < 0.80:
        client, server, wanted = ctx.pick("client", "c"), ctx.pick("server", "bsrv"), False
    elif roll < 0.90:
        client, server, wanted = ctx.pick("client", "b"), ctx.pick("server", "srv"), False
    else:
        (client,) = ctx.hosts_in_role("client", "a-contract")
        server, wanted = ctx.pick("server", "srv"), False
    return _intent(at, client, server, wanted=wanted)


def _with_worms(spec: ScenarioSpec) -> list[HostPlan]:
    return _clients_and_servers(spec) + [
        HostPlan(f"w{i}", f"192.168.0.{40 + i}", {f"worm{i}": ("users",)}, role="infected")
        for i in range(2)
    ]


def _draw_worm(ctx: CellContext, at: float) -> FlowIntent:
    """Clean web traffic with an outbreak racing cluster-wide quarantine."""
    if ctx.rng.random() < 0.5:
        return _intent(at, ctx.pick("client"), ctx.pick("server"))
    at = max(at, ctx.spec.duration * 0.2)  # outbreak starts after warm-up
    worm = ctx.pick("infected")
    target = ctx.rng.choice(ctx.hosts_in_role("client") + ctx.hosts_in_role("server"))
    return _intent(at, worm, target, "conficker", wanted=False,
                   expect_verdict=at < ctx.spec.duration * QUARANTINE_AT - 0.05)


def _draw_legacy(ctx: CellContext, at: float) -> FlowIntent:
    """A 90 % daemon-less fleet: queries time out, policy still decides."""
    return _intent(at, ctx.pick("client"), ctx.pick("server"))


def _draw_retenant(ctx: CellContext, at: float) -> FlowIntent:
    """The web server's port is re-tenanted mid-run; caches must converge."""
    t_r = ctx.spec.duration * RETENANT_AT
    if t_r <= at <= t_r + 0.3:
        at = t_r + 0.3 + (at - t_r)  # keep clear of the re-tenant instant
    (server,) = ctx.hosts_in_role("server")
    return _intent(at, ctx.pick("client"), server, wanted=at < t_r)


TRAFFIC_MIXES: dict[str, TrafficMix] = {
    "web_burst": TrafficMix(_draw_web_burst),
    "app_mix": TrafficMix(_draw_app_mix),
    "user_mix": TrafficMix(_draw_user_mix, _with_guest),
    "roaming": TrafficMix(_draw_roaming, _with_roamer),
    "multi_tenant": TrafficMix(_draw_multi_tenant, _two_tenants),
    "worm": TrafficMix(_draw_worm, _with_worms, end_fraction=0.75),
    "legacy_fleet": TrafficMix(_draw_legacy),
    "retenant": TrafficMix(
        _draw_retenant, lambda spec: _client_plans(spec) + _server_plans(spec)[:1],
        end_fraction=0.85,
    ),
}


# ======================================================================
# Failure schedules
# ======================================================================

#: When a failure strikes and ends, as fractions of the cell's duration.
#: The arm that schedules a failure and whatever judges the flows around
#: it read the same pair, so moving one instant cannot misjudge a flow.
KILL_AT, RESTORE_AT = 0.35, 0.70
PARTITION_AT, HEAL_AT = 0.35, 0.60
QUARANTINE_AT = RETENANT_AT = 0.5
#: Wanted flows opened within this many virtual seconds of a partition
#: (or inside it) expect no delivery.
BLACKOUT_MARGIN = 0.5


def _arm_kill_shard(ctx: CellContext) -> None:
    cluster = ctx.net.cluster
    victim = cluster.shard_map.shards()[0]
    ctx.schedule(KILL_AT, cluster.kill, victim, label="experiment.kill_shard")
    ctx.schedule(RESTORE_AT, cluster.restore, victim, label="experiment.restore_shard")


def _arm_partition_heal(ctx: CellContext) -> None:
    for spine in ctx.switches["spine"]:
        ctx.schedule(PARTITION_AT, spine.fail, label="experiment.partition")
        ctx.schedule(HEAL_AT, spine.recover, label="experiment.heal")


def _arm_quarantine_race(ctx: CellContext) -> None:
    plane = ctx.net.controller if ctx.net.cluster is None else ctx.net.cluster.coordinator

    def quarantine() -> None:
        for plan in ctx.hosts_in_role("infected"):
            plane.quarantine_host(plan.ip)

    ctx.schedule(QUARANTINE_AT, quarantine, label="experiment.quarantine")


def _arm_retenant(ctx: CellContext) -> None:
    def retenant() -> None:
        server = ctx.net.host(next(p.name for p in ctx.hosts_in_role("server")))
        server.sockets.close(web_listener(server))
        server.run_server("telnet", "root", 80)

    ctx.schedule(RETENANT_AT, retenant, label="experiment.retenant")


@dataclass(frozen=True)
class FailureRow:
    """One failure schedule: its arm and everything a cell must know of it."""

    #: Schedules the failure on the repeat's simulator, hosts placed.
    arm: Callable[[CellContext], None]
    #: The checkers it adds to every cell's fail-closed, bounded-state and delivery.
    invariants: tuple[str, ...] = ()
    #: The axis values it runs on (``{"topology": "spine_leaf"}``).
    needs: Mapping[str, str] = field(default_factory=dict)
    #: Whether it kills a shard: it needs a cluster control plane, and
    #: the failover monitor running to notice.
    cluster: bool = False
    #: Whether the traffic mix it needs runs under it alone (the two pair up).
    paired: bool = False
    #: Its blackout, as fractions of the duration: wanted flows opened
    #: inside, or within :data:`BLACKOUT_MARGIN` of it, expect no delivery.
    blackout: Optional[tuple[float, float]] = None


FAILURES: dict[str, FailureRow] = {
    "none": FailureRow(lambda ctx: None),
    "kill_shard": FailureRow(_arm_kill_shard, cluster=True),
    "partition_heal": FailureRow(
        _arm_partition_heal, needs={"topology": "spine_leaf"}, blackout=(PARTITION_AT, HEAL_AT),
    ),
    "quarantine_race": FailureRow(_arm_quarantine_race, needs={"traffic": "worm"}),
    "retenant": FailureRow(
        _arm_retenant, (invariants.CACHE_COHERENCE,), needs={"traffic": "retenant"}, paired=True,
    ),
}

#: The axes whose values are registry rows, in cell-id order.
AXES: dict[str, Mapping] = {
    "topology": TOPOLOGIES,
    "control": CONTROLS,
    "policy": POLICIES,
    "traffic": TRAFFIC_MIXES,
    "failure": FAILURES,
}
