"""The scenario matrix: cells as data, run as one step of the soak kit.

The soaks each prove one claim on one hand-built network; this module
sweeps those claims across a grid.  A cell is a frozen
:class:`ScenarioSpec` — topology × control plane × policy set × traffic
mix × failure schedule × seed — whose axes are keys of plain registries
(:data:`TOPOLOGIES`, :data:`CONTROLS`, :data:`POLICIES`,
:data:`TRAFFIC_MIXES`, :data:`FAILURES`) whose rows carry everything
about the value, so adding one is one row (plus an arm function for a
failure); :func:`expand_grid` turns an axis grid into cells.
:func:`run_cell` runs one cell :data:`MATRIX_REPEATS` times with
derived seeds on the virtual clock and returns its entry, a plain dict:

* **architectures** — ident++'s delivered-or-not outcome per injected
  flow against the administrator's intent, beside four baselines
  (vanilla firewall, distributed firewall, Ethane, VLAN segmentation)
  re-deciding the same planned flows, all counted by one tally;
* **invariants** — the applicable checkers from
  :mod:`repro.workloads.invariants` (fail-closed, zero-loss failover,
  delivery, cache coherence, bounded state), evaluated on every
  repeat.  A cell passes only if every applicable invariant passes in
  every repeat — the matrix asserts the paper's correctness story, it
  does not merely record numbers.

The committed :func:`default_matrix` — 30 cells covering roaming users
re-homing across leaves, multi-tenant isolation, partition + heal, a
worm outbreak racing cluster-wide quarantine, 90 % daemon-less legacy
fleets, and the push identity plane (flash-crowd A/B against pull,
shard-kill subscription re-homing, push over a daemon-less fleet) — is
the one step of this module's :data:`SOAK` table, ``experiment_matrix``::

    python -m repro.workloads.soak matrix      # = make soak_matrix
"""

from __future__ import annotations

import itertools
import operator
import random
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Mapping, Optional, Sequence

from repro.baselines.ethane import EthanePolicy, EthaneRule
from repro.baselines.distributed_firewall import DistributedFirewall
from repro.baselines.vanilla_firewall import FirewallRule, VanillaFirewall
from repro.baselines.vlan import VLANSegmentation
from repro.core.audit import audit_digest
from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.workloads import invariants
from repro.workloads.soak import Gate, Soak

ARCH_IDENTPP = "identpp"
ARCH_VANILLA = "vanilla"
ARCH_DISTRIBUTED = "distributed"
ARCH_ETHANE = "ethane"
ARCH_VLAN = "vlan"
BASELINE_ARCHITECTURES = (ARCH_VANILLA, ARCH_DISTRIBUTED, ARCH_ETHANE, ARCH_VLAN)

#: Address plan shared by every scenario (baseline builders key off it).
TENANT_A_CLIENTS = "192.168.0.0/24"
TENANT_A_SERVERS = "192.168.1.0/24"
TENANT_B_CLIENTS = "10.2.0.0/24"
TENANT_B_SERVERS = "10.2.1.0/24"


# ======================================================================
# Scenario specification
# ======================================================================

@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the matrix: every axis that defines a scenario.

    The axes are registry keys (:data:`TOPOLOGIES`, :data:`CONTROLS`,
    :data:`POLICIES`, :data:`TRAFFIC_MIXES`, :data:`FAILURES`); the
    scalars size and seed the run.  Specs are frozen so a grid expansion
    can never mutate its base, and hashable.
    """

    name: str = ""
    topology: str = "edge_core"
    control: str = "single"
    policy: str = "web_open"
    traffic: str = "web_burst"
    failure: str = "none"
    flows: int = 24
    clients: int = 4
    servers: int = 2
    daemon_fraction: float = 1.0
    query_cache_ttl: float = 0.0
    identity_plane: str = "pull"
    duration: float = 12.0
    seed: int = 2009
    sanitize: bool = False

    def cell_id(self) -> str:
        """The canonical axis string identifying this cell."""
        parts = [getattr(self, axis) for axis in AXES]
        if self.daemon_fraction < 1.0:
            parts.append(f"daemons{int(round(self.daemon_fraction * 100))}%")
        if self.identity_plane != "pull":
            parts.append(self.identity_plane)
        return "/".join(parts)

    def validate(self) -> None:
        """Raise ``ValueError`` on an unknown axis value or invalid combo.

        What a failure schedule needs is read off its :class:`FailureRow`.
        """
        for axis, registry in AXES.items():
            value = getattr(self, axis)
            if value not in registry:
                raise ValueError(f"unknown {axis} {value!r} (have {sorted(registry)})")
        failure = FAILURES[self.failure]
        if failure.cluster and not CONTROLS[self.control]:
            raise ValueError(f"{self.failure} needs a cluster control plane")
        for axis, value in failure.needs.items():
            if getattr(self, axis) != value:
                raise ValueError(f"{self.failure} needs the {value} {axis}")
        for name, other in FAILURES.items():
            if other.paired and name != self.failure and other.needs.get("traffic") == self.traffic:
                raise ValueError(f"the {name} failure schedule and the {self.traffic} traffic pair up")
        if not 0.0 <= self.daemon_fraction <= 1.0:
            raise ValueError(f"daemon_fraction must be in [0, 1] (got {self.daemon_fraction})")
        if self.identity_plane not in ("pull", "push"):
            raise ValueError(f"identity_plane must be 'pull' or 'push' (got {self.identity_plane!r})")
        if self.flows < 1 or self.clients < 1 or self.servers < 1:
            raise ValueError("flows, clients and servers must be positive")


def expand_grid(
    axes: Mapping[str, Sequence],
    *,
    base: Optional[ScenarioSpec] = None,
) -> list[ScenarioSpec]:
    """Expand an axis grid into one validated spec per combination.

    ``axes`` maps :class:`ScenarioSpec` field names to the values to
    sweep; the cartesian product is taken in sorted-key order so the
    cell order (and therefore each cell's derived seed) is stable.
    Every cell gets ``base.seed + index`` as its seed — repeats within
    a cell re-derive from it — and a name from :meth:`ScenarioSpec.cell_id`
    unless the grid sets one explicitly.
    """
    base = base if base is not None else ScenarioSpec()
    names = sorted(axes)
    specs = []
    for index, combo in enumerate(itertools.product(*(axes[name] for name in names))):
        spec = replace(base, **dict(zip(names, combo)))
        spec = replace(
            spec,
            seed=base.seed + index,
            name=spec.name or spec.cell_id(),
        )
        spec.validate()
        specs.append(spec)
    return specs


# ======================================================================
# Flow intents (planned traffic with ground truth)
# ======================================================================

@dataclass(frozen=True)
class FlowIntent:
    """One planned flow: who opens it, where it goes, and the ground truth.

    ``wanted`` is the *intent* of the administrator's policy — worm
    traffic is unwanted even when a port-based policy happens to pass
    it.  ``expect_verdict`` marks flows the control plane is expected to
    account for (quarantine wildcard drops and partition blackouts stop
    packets before any punt, so those flows legitimately reach no
    verdict).  ``judged`` is false for a wanted flow opened into a
    partition blackout: whether it arrives is no verdict.
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
    judged: bool = True

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


# ======================================================================
# Cell context: everything a live run accumulates
# ======================================================================

@dataclass
class CellContext:
    """Mutable state of one repeat: the network plus everything observed."""

    spec: ScenarioSpec
    net: IdentPPNetwork
    #: The repeat's seeded draws: the flows' instants, then the mix's own.
    rng: random.Random
    switches: dict[str, list] = field(default_factory=dict)
    plans: dict[str, HostPlan] = field(default_factory=dict, init=False)
    #: Each server's listening socket, by host name.
    sockets: dict[str, object] = field(default_factory=dict, init=False)
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
# Topologies
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

#: Where each host role attaches: its switch group, and the switch in it
#: (``None``: round robin over the group).  Any other role is a client's.
_ATTACH: dict[str, tuple[str, Optional[int]]] = {
    "server": ("server", None),
    "roam_a": ("client", 0),
    "roam_b": ("client", -1),
}


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


def build_baselines(policy_name: str, plans: Mapping[str, HostPlan]) -> dict[str, object]:
    """Build the four baseline deciders of one policy set's row."""
    row = POLICIES[policy_name]
    ethane = EthanePolicy(row.ethane, name="ethane")
    for plan in plans.values():
        primary = next(iter(plan.users))
        ethane.register_host(plan.ip, primary, groups=plan.users[primary])
    vlan = VLANSegmentation(name="vlan")
    vlan.assign("tenant-a", [TENANT_A_CLIENTS, TENANT_A_SERVERS])
    vlan.assign("tenant-b", [TENANT_B_CLIENTS, TENANT_B_SERVERS])
    if not row.vlan_isolates:
        vlan.allow_between("tenant-a", "tenant-b")
    return {
        ARCH_VANILLA: VanillaFirewall(row.firewall, name="vanilla"),
        ARCH_DISTRIBUTED: DistributedFirewall(row.firewall, name="distributed"),
        ARCH_ETHANE: ethane,
        ARCH_VLAN: vlan,
    }


# ======================================================================
# Traffic mixes
# ======================================================================

def _client_plans(spec: ScenarioSpec) -> list[HostPlan]:
    return [
        HostPlan(
            name=f"c{i}", ip=f"192.168.0.{10 + i}",
            users={f"alice{i}": ("users", "staff")},
            run_daemon=i < max(1, round(spec.daemon_fraction * spec.clients)),
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

    :func:`_plan_traffic` jitters the flows' opening instants over the
    first ``end_fraction`` of the cell, then calls ``draw`` once per
    instant in order, so the mix's own draws are its only other ``rng``
    calls.
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


def _plan_traffic(ctx: CellContext) -> None:
    """Plan the cell's hosts, and draw its flows from its traffic mix."""
    spec = ctx.spec
    mix = TRAFFIC_MIXES[spec.traffic]
    ctx.plans = {plan.name: plan for plan in mix.hosts(spec)}
    start = 0.5
    window = spec.duration * mix.end_fraction - start
    instants = sorted(start + ctx.rng.random() * window for _ in range(spec.flows))
    ctx.intents = [mix.draw(ctx, at) for at in instants]


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
        name = next(p.name for p in ctx.hosts_in_role("server"))
        server = ctx.net.host(name)
        server.sockets.close(ctx.sockets[name])
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


# ======================================================================
# Cell execution
# ======================================================================

def _build_network(spec: ScenarioSpec) -> IdentPPNetwork:
    config = ControllerConfig(
        pending_deadline=2.0,
        lifecycle_interval=0.5,
        decision_ttl=3.0,
        idle_timeout=1.0,
        query_cache_ttl=spec.query_cache_ttl,
        identity_plane=spec.identity_plane,
        push_promote_punts=2,
        push_idle_demote=5.0,
    )
    shards = CONTROLS[spec.control]
    if shards:
        return IdentPPClusterNetwork(
            f"matrix-{spec.control}", shards=shards, controller_config=config,
            policy_default_action="block",
        )
    return IdentPPNetwork(
        "matrix-single", controller_config=config, policy_default_action="block",
    )


def _place_hosts(ctx: CellContext) -> None:
    round_robin = {"client": 0, "server": 0}
    for plan in ctx.plans.values():
        group, index = _ATTACH.get(plan.role, ("client", None))
        switches = ctx.switches[group]
        if index is None:
            index = round_robin[group] % len(switches)
            round_robin[group] += 1
        host = ctx.net.add_host(
            HostSpec(name=plan.name, ip=plan.ip, users=dict(plan.users),
                     run_daemon=plan.run_daemon),
            switch=switches[index],
        )
        if plan.server_app is not None:
            app, user, port = plan.server_app
            _process, ctx.sockets[plan.name] = host.run_server(app, user, port)


def _run_once(spec: ScenarioSpec, seed: int) -> CellContext:
    """Execute one seeded repeat of one cell and collect everything."""
    net = _build_network(spec)
    ctx = CellContext(spec=spec, net=net, rng=random.Random(seed))
    TOPOLOGIES[spec.topology](ctx)
    net.set_policy(dict(POLICIES[spec.policy].control_files))
    _plan_traffic(ctx)
    failure = FAILURES[spec.failure]
    if failure.blackout is not None:
        start = spec.duration * failure.blackout[0] - BLACKOUT_MARGIN
        end = spec.duration * failure.blackout[1] + BLACKOUT_MARGIN
        ctx.intents = [
            replace(intent, judged=False)
            if start <= intent.at <= end and intent.wanted
            else intent
            for intent in ctx.intents
        ]
    _place_hosts(ctx)
    failure.arm(ctx)
    sim = net.topology.sim
    if spec.sanitize:
        sim.enable_sanitizer()

    def inject(intent: FlowIntent) -> None:
        host = net.host(intent.src_host)
        packet, _socket, _process = host.open_flow(
            intent.app, intent.user, intent.dst_ip, intent.dst_port,
        )
        ctx.injected.append((intent, FlowSpec.from_packet(packet)))

    for intent in ctx.intents:
        sim.schedule_at(intent.at, inject, intent, label="experiment.inject")

    end_time = spec.duration

    def sample() -> bool:
        for name, value in invariants.network_flow_state(net).items():
            key = f"{name}_peak"
            ctx.peaks[key] = max(ctx.peaks.get(key, 0), value)
        return sim.now < end_time

    sim.schedule_repeating(0.25, sample, label="experiment.sampler")
    if failure.cluster:
        net.start_monitoring()
    net.run(duration=spec.duration)
    if failure.cluster:
        net.stop_monitoring()
    net.run()  # drain: lifecycle sweeps reclaim all remaining state
    return ctx


def _coherence_probes(ctx: CellContext) -> list[invariants.CoherenceProbe]:
    """Each injected flow's last verdict against the one its intent demands.

    An intent's ``wanted`` is drawn against the identity the flow meets
    (the re-tenant mix wants a flow only before the re-tenant), so a
    stale cached answer shows as a verdict that contradicts it.
    """
    last = {record.flow: record.action for record in invariants.network_audit_records(ctx.net)}
    return [
        invariants.CoherenceProbe(
            label=f"{intent.src_host}->{intent.dst_ip}:{intent.dst_port}@{intent.at:.2f}",
            expected="pass" if intent.wanted else "block",
            observed=last.get(flow),
        )
        for intent, flow in ctx.injected
    ]


# ======================================================================
# Invariant evaluation
# ======================================================================

def applicable_invariants(spec: ScenarioSpec) -> list[str]:
    """The invariant checkers a cell of this shape must run and pass."""
    names = [invariants.FAIL_CLOSED, invariants.BOUNDED_STATE, invariants.DELIVERY]
    if CONTROLS[spec.control]:
        names.append(invariants.ZERO_LOSS)
    return names + list(FAILURES[spec.failure].invariants)


def _state_caps(ctx: CellContext) -> dict[str, float]:
    flows = len(ctx.injected)
    switches = len(ctx.net.switches)
    quarantine_allowance = 4.0 * len(invariants.network_quarantines(ctx.net)) * switches
    return {
        "pending_peak": float(flows),
        "decision_cache_peak": 2.0 * flows + 8,
        "flow_table_peak": 6.0 * flows + quarantine_allowance + 8,
        "pending_final": 0.0,
        "buffered_final": 0.0,
        "decision_cache_final": 0.0,
        "flow_table_final": quarantine_allowance,
        # Push plane: subscriptions are bounded by the host population
        # while running and fully demoted (idle sweeper) after drain.
        "subscriptions_peak": float(len(ctx.net.hosts)),
        "subscriptions_final": 0.0,
        # No cell starts a packet capture, so none may retain a record.
        "packet_trace_peak": 0.0,
    }


def evaluate_invariants(ctx: CellContext, deliveries: list) -> dict[str, invariants.InvariantResult]:
    """Run every applicable checker against one finished repeat and its deliveries."""
    records = invariants.network_audit_records(ctx.net)
    final = invariants.network_flow_state(ctx.net)
    accounted_flows = [flow for intent, flow in ctx.injected if intent.expect_verdict]
    drained = {"pending": final["pending"], "buffered": final["buffered"]}
    checks = {
        invariants.FAIL_CLOSED: lambda: invariants.check_fail_closed(
            accounted_flows, records, **drained),
        invariants.ZERO_LOSS: lambda: invariants.check_zero_loss(
            accounted_flows, records, **drained),
        invariants.DELIVERY: lambda: invariants.check_delivery(
            deliveries, records, invariants.network_quarantines(ctx.net), grace=0.1),
        invariants.CACHE_COHERENCE: lambda: invariants.check_cache_coherence(
            _coherence_probes(ctx)),
        invariants.BOUNDED_STATE: lambda: invariants.check_bounded_state(
            {**ctx.peaks, **{f"{key}_final": value for key, value in final.items()}},
            _state_caps(ctx)),
    }
    return {name: checks[name]() for name in applicable_invariants(ctx.spec)}


# ======================================================================
# Outcomes against intent: one tally for every architecture
# ======================================================================

def _tally(outcomes: Iterable[tuple[FlowIntent, bool, bool]]) -> dict[str, float]:
    """Count ``(intent, allowed, judged)`` outcomes against their intents.

    Every outcome is allowed or blocked; only a judged one can be a false
    accept or a false reject, and accuracy is over the judged ones: every
    intent for a baseline, for ident++ the flows whose delivery is a
    verdict (a wanted flow opened into a blackout is not).
    """
    stats = {"allowed": 0, "blocked": 0, "false_accepts": 0, "false_rejects": 0}
    judged = 0
    for intent, allowed, counts in outcomes:
        stats["allowed" if allowed else "blocked"] += 1
        if counts:
            judged += 1
            if allowed != intent.wanted:
                stats["false_accepts" if allowed else "false_rejects"] += 1
    stats["accuracy"] = round(
        1.0 - (stats["false_accepts"] + stats["false_rejects"]) / max(judged, 1), 4
    )
    return stats


def _identpp_outcomes(ctx: CellContext, deliveries: list) -> list[tuple[FlowIntent, bool, bool]]:
    """Each injected flow once: delivered or not, and whether that is a verdict."""
    delivered = {flow for _when, flow in deliveries}
    return [(intent, flow in delivered, intent.judged) for intent, flow in ctx.injected]


# ======================================================================
# One cell
# ======================================================================

#: Seeded repeats per cell: seeds ``spec.seed``, ``spec.seed + 1``, ...
MATRIX_REPEATS = 2


def run_cell(spec: ScenarioSpec) -> dict:
    """Run one cell :data:`MATRIX_REPEATS` times; return its matrix entry.

    The baselines re-decide the first repeat's intents; ident++'s
    outcomes are summed over every repeat.  An invariant passes only if
    it held in every repeat, and its ``details`` are the first repeat's.
    Each violation is a line naming the cell, the repeat's seed and the
    invariant, so it reads the same wherever it is printed.
    ``audit_digests`` holds one :func:`~repro.core.audit.audit_digest`
    per repeat, in repeat order: equal digests mean no decision moved.
    """
    spec.validate()
    merged: dict[str, invariants.InvariantResult] = {}
    digests: list[str] = []
    identpp: list[tuple[FlowIntent, bool, bool]] = []
    architectures: dict[str, dict[str, float]] = {}
    for seed in range(spec.seed, spec.seed + MATRIX_REPEATS):
        ctx = _run_once(spec, seed)
        digests.append(audit_digest(invariants.network_audit_records(ctx.net)))
        deliveries = invariants.network_deliveries(ctx.net)
        for name, result in evaluate_invariants(ctx, deliveries).items():
            if name not in merged:
                merged[name] = invariants.InvariantResult(name, details=result.details)
            merged[name].violations.extend(
                f"{spec.name} (seed {seed}): [{name}] {violation}"
                for violation in result.violations
            )
        if not architectures:  # every planned flow re-decided, each one judged
            architectures = {
                arch: _tally(
                    (intent, policy.decide(intent.planned_flow(index)) == "pass", True)
                    for index, intent in enumerate(ctx.intents)
                )
                for arch, policy in build_baselines(spec.policy, ctx.plans).items()
            }
        identpp += _identpp_outcomes(ctx, deliveries)
    architectures[ARCH_IDENTPP] = _tally(identpp)
    return {
        "cell": spec.name,
        "axes": {axis: getattr(spec, axis) for axis in (*AXES, "daemon_fraction", "identity_plane")},
        "seed": spec.seed,
        "repeats": MATRIX_REPEATS,
        "architectures": architectures,
        "invariants": {name: result.as_dict() for name, result in merged.items()},
        "passed": all(result.passed for result in merged.values()),
        "audit_digests": digests,
    }


# ======================================================================
# The committed default matrix (the matrix gate: at least 20 cells)
# ======================================================================

#: The floor the ``matrix`` soak gates the committed matrix's size on.
MATRIX_MIN_CELLS = 20

_BOTH_TOPOLOGIES = {"topology": ["edge_core", "spine_leaf"]}
_SINGLE_AND_CLUSTER2 = {"control": ["single", "cluster2"]}
_APP_GATED = {"policy": "app_gated", "traffic": "app_mix"}
_LEGACY_FLEET = {"traffic": "legacy_fleet", "clients": 10, "daemon_fraction": 0.1,
                 "query_cache_ttl": 2.0}

#: The committed grids, one row each: the seed offset from the default
#: spec's seed, the axes swept, and what the grid's base sets otherwise.
MATRIX_GRIDS: tuple[tuple[int, Mapping[str, Sequence], Mapping[str, object]], ...] = (
    # Core sweep: topology x control for the port- and app-gated stories.
    (0, {**_BOTH_TOPOLOGIES, **_SINGLE_AND_CLUSTER2}, {}),
    (0, {**_BOTH_TOPOLOGIES, **_SINGLE_AND_CLUSTER2}, _APP_GATED),
    # Failover sweep: a shard dies mid-burst on a 4-way cluster.
    (100, _BOTH_TOPOLOGIES, {"control": "cluster4", "failure": "kill_shard"}),
    (100, _BOTH_TOPOLOGIES, {"control": "cluster4", "failure": "kill_shard", **_APP_GATED}),
    # Users borrow machines; policy follows people, not ports.
    (200, _SINGLE_AND_CLUSTER2, {"policy": "user_gated", "traffic": "user_mix"}),
    # A staff user re-homes across leaves mid-run.
    (300, _SINGLE_AND_CLUSTER2,
     {"topology": "spine_leaf", "policy": "user_gated", "traffic": "roaming"}),
    # Multi-tenant isolation incl. a contractor badge on the wrong subnet.
    (400, _BOTH_TOPOLOGIES,
     {"control": "cluster2", "policy": "tenant_iso", "traffic": "multi_tenant"}),
    # The fabric partitions and heals; flows in the blackout fail closed.
    (500, _SINGLE_AND_CLUSTER2, {"topology": "spine_leaf", "failure": "partition_heal"}),
    # A worm outbreak races cluster-wide quarantine.
    (600, {"control": ["cluster2", "cluster4"]}, {"traffic": "worm", "failure": "quarantine_race"}),
    # Identity changes mid-run; cached answers must converge.
    (700, _SINGLE_AND_CLUSTER2, {"policy": "dst_app_gated", "traffic": "retenant",
                                 "failure": "retenant", "query_cache_ttl": 5.0}),
    # 90 % daemon-less legacy fleet: ident++ degrades to the firewall.
    (800, _SINGLE_AND_CLUSTER2, _LEGACY_FLEET),
    # Push identity plane (PR 10): a flash crowd hammers two servers on
    # both planes (A/B), push rides out a shard kill with subscription
    # re-homing, and push degrades gracefully on a 90 % daemon-less fleet.
    (900, {"identity_plane": ["pull", "push"]},
     {"topology": "single", "flows": 48, "query_cache_ttl": 2.0}),
    (920, {"identity_plane": ["push"]},
     {"control": "cluster4", "failure": "kill_shard", "query_cache_ttl": 2.0}),
    (940, {"identity_plane": ["push"]}, _LEGACY_FLEET),
)


def default_matrix() -> list[ScenarioSpec]:
    """The committed scenario matrix: 30 cells across every axis."""
    base = ScenarioSpec()
    cells = [
        spec
        for offset, axes, sets in MATRIX_GRIDS
        for spec in expand_grid(axes, base=replace(base, seed=base.seed + offset, **sets))
    ]
    # Cell names must be unique: the grids above never collide, keep it so.
    names = [spec.name for spec in cells]
    assert len(names) == len(set(names)), "duplicate cell names in default matrix"
    return cells


def experiment_matrix() -> dict:
    """The committed scenario matrix: every cell, every invariant it runs."""
    cells = [run_cell(spec) for spec in default_matrix()]
    return {
        "experiment": "scenario-matrix",
        "cells": cells,
        "cells_total": len(cells),
        "cells_failed": sum(not cell["passed"] for cell in cells),
        "passed": all(cell["passed"] for cell in cells),
        "rows": [
            {
                "cell": cell["cell"],
                "invariants": ",".join(sorted(cell["invariants"])),
                "identpp_accuracy": cell["architectures"][ARCH_IDENTPP]["accuracy"],
                "passed": cell["passed"],
            }
            for cell in cells
        ],
        "violations": [
            violation
            for cell in cells
            for entry in cell["invariants"].values()
            for violation in entry["violations"]
        ],
    }


SOAK = Soak(
    steps=(("experiment_matrix", experiment_matrix),),
    gates=(
        Gate("experiment_matrix.cells_total", operator.ge, MATRIX_MIN_CELLS,
             f"the experiment matrix has {{value}} cells, "
             f"below the {MATRIX_MIN_CELLS}-cell acceptance floor"),
        Gate("experiment_matrix.passed", operator.eq, True,
             "the experiment matrix failed: a cell broke an invariant in some repeat"),
    ),
    ok=(
        f"matrix ok: every cell held every invariant it runs, in all {MATRIX_REPEATS} "
        "seeded repeats"
    ),
)
