"""The scenario matrix: cells as data, run as one step of the soak kit.

The soaks each prove one claim on one hand-built network; this module
sweeps those claims across a grid.  A cell is a frozen
:class:`ScenarioSpec` — topology × control plane × policy set × traffic
mix × failure schedule × seed — whose axes are keys of plain registries
(:data:`TOPOLOGIES`, :data:`CONTROLS`, :data:`POLICIES`,
:data:`TRAFFIC_MIXES`, :data:`FAILURES`); :func:`expand_grid` turns an
axis grid into cells.  :func:`run_cell` runs one cell
:data:`MATRIX_REPEATS` times with derived seeds on the virtual clock and
returns its entry, a plain dict:

* **architectures** — ident++'s delivered-or-not outcome per injected
  flow against the administrator's intent, beside four baselines
  (vanilla firewall, distributed firewall, Ethane, VLAN segmentation)
  re-deciding the same planned flows;
* **invariants** — the applicable checkers from
  :mod:`repro.workloads.invariants` (fail-closed, zero-loss failover,
  containment, cache coherence, bounded state), evaluated on every
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
from typing import Callable, Mapping, Optional, Sequence

from repro.baselines.ethane import EthanePolicy
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
        parts = [self.topology, self.control, self.policy, self.traffic, self.failure]
        if self.daemon_fraction < 1.0:
            parts.append(f"daemons{int(round(self.daemon_fraction * 100))}%")
        if self.identity_plane != "pull":
            parts.append(self.identity_plane)
        return "/".join(parts)

    def validate(self) -> None:
        """Raise ``ValueError`` on an unknown axis value or invalid combo."""
        for axis, registry in (
            ("topology", TOPOLOGIES),
            ("control", CONTROLS),
            ("policy", POLICIES),
            ("traffic", TRAFFIC_MIXES),
            ("failure", FAILURES),
        ):
            value = getattr(self, axis)
            if value not in registry:
                raise ValueError(f"unknown {axis} {value!r} (have {sorted(registry)})")
        if self.failure == "kill_shard" and self.control == "single":
            raise ValueError("kill_shard needs a cluster control plane")
        if self.failure == "partition_heal" and self.topology != "spine_leaf":
            raise ValueError("partition_heal needs the spine_leaf topology")
        if not 0.0 <= self.daemon_fraction <= 1.0:
            raise ValueError(f"daemon_fraction must be in [0, 1] (got {self.daemon_fraction})")
        if self.identity_plane not in ("pull", "push"):
            raise ValueError(f"identity_plane must be 'pull' or 'push' (got {self.identity_plane!r})")
        if self.flows < 1 or self.clients < 1 or self.servers < 1:
            raise ValueError("flows, clients and servers must be positive")
        if (self.failure == "retenant") != (self.traffic == "retenant"):
            raise ValueError("the retenant failure schedule and traffic mix pair up")
        if self.failure == "quarantine_race" and self.traffic != "worm":
            raise ValueError("quarantine_race needs the worm traffic mix")


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
    verdict).  ``expect_delivery`` marks wanted flows whose delivery is
    expected (a wanted flow during a partition blackout is not).
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
    expect_delivery: Optional[bool] = None

    def should_deliver(self) -> bool:
        if self.expect_delivery is not None:
            return self.expect_delivery
        return self.wanted

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
    switches: dict[str, list] = field(default_factory=dict)
    plans: dict[str, HostPlan] = field(default_factory=dict)
    intents: list[FlowIntent] = field(default_factory=list)
    injected: list[tuple[FlowIntent, FlowSpec]] = field(default_factory=list)
    peaks: dict[str, int] = field(default_factory=dict)
    quarantined_since: dict[str, float] = field(default_factory=dict)
    coherence_probes: list[invariants.CoherenceProbe] = field(default_factory=list)
    needs_monitoring: bool = False
    retenant_socket: object = None

    def hosts_in_role(self, *roles: str) -> list[HostPlan]:
        return [plan for plan in self.plans.values() if plan.role in roles]


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


# ======================================================================
# Policy sets (ident++ control files + the matching baseline builders)
# ======================================================================

# Table names must not collide with group names: a bare name inside
# member() resolves as a PF table first, so member(@src[groupID], tenant-a)
# with a <tenant-a> table would test groups against CIDR prefixes.
_TABLE_HEADER = f"""\
table <tenant-a-net> {{ {TENANT_A_CLIENTS}, {TENANT_A_SERVERS} }}
table <tenant-b-net> {{ {TENANT_B_CLIENTS}, {TENANT_B_SERVERS} }}
"""

POLICIES: dict[str, dict[str, str]] = {
    # Port-based: what a conventional firewall can express.
    "web_open": {
        "00-web.control": "block all\npass from any to any port 80 keep state\n",
    },
    # Only the approved browser may speak HTTP (Figure 2's skype-vs-web).
    "app_gated": {
        "00-app.control": (
            "block all\n"
            "pass from any to any port 80 with eq(@src[name], http) keep state\n"
        ),
    },
    # Only staff users may speak HTTP, whoever's machine they borrow.
    "user_gated": {
        "00-user.control": (
            "block all\n"
            "pass from any to any port 80 with member(@src[groupID], staff) keep state\n"
        ),
    },
    # Tenants are isolated by group membership, not just by subnet.
    "tenant_iso": {
        "00-tenants.control": _TABLE_HEADER + (
            "block all\n"
            "pass from <tenant-a-net> to <tenant-a-net> port 80 "
            "with member(@src[groupID], tenant-a) keep state\n"
            "pass from <tenant-b-net> to <tenant-b-net> port 80 "
            "with member(@src[groupID], tenant-b) keep state\n"
        ),
    },
    # The *destination* must be the real web server (coherence cells).
    "dst_app_gated": {
        "00-dst.control": (
            "block all\n"
            "pass from any to any port 80 with eq(@dst[name], httpd) keep state\n"
        ),
    },
}


def build_baselines(policy_name: str, plans: Mapping[str, HostPlan]) -> dict[str, object]:
    """Build the four baseline deciders that best express one policy set.

    Each baseline gets the closest approximation its architecture can
    state: port/subnet rules for the firewalls, per-host user bindings
    for Ethane, subnet segments for VLANs.  The gap between these
    approximations and the ground-truth ``wanted`` labels is exactly
    what the per-cell comparison measures.
    """
    port_rules = _port_rules_for(policy_name)
    ethane = EthanePolicy(name="ethane")
    for plan in plans.values():
        primary = next(iter(plan.users))
        ethane.register_host(plan.ip, primary, groups=plan.users[primary])
    _add_ethane_rules(ethane, policy_name)
    vlan = VLANSegmentation(name="vlan")
    vlan.assign("tenant-a", [TENANT_A_CLIENTS, TENANT_A_SERVERS])
    vlan.assign("tenant-b", [TENANT_B_CLIENTS, TENANT_B_SERVERS])
    if policy_name != "tenant_iso":
        # Outside the isolation cells the VLAN design has one big zone.
        vlan.allow_between("tenant-a", "tenant-b")
    return {
        ARCH_VANILLA: VanillaFirewall(port_rules, name="vanilla"),
        ARCH_DISTRIBUTED: DistributedFirewall(port_rules, name="distributed"),
        ARCH_ETHANE: ethane,
        ARCH_VLAN: vlan,
    }


def _port_rules_for(policy_name: str) -> list[FirewallRule]:
    if policy_name == "tenant_iso":
        return [
            FirewallRule("pass", src=TENANT_A_CLIENTS, dst=TENANT_A_SERVERS,
                         proto="tcp", dst_port=80, keep_state=True),
            FirewallRule("pass", src=TENANT_B_CLIENTS, dst=TENANT_B_SERVERS,
                         proto="tcp", dst_port=80, keep_state=True),
            FirewallRule("block"),
        ]
    # Every other policy narrows port 80; a firewall can only say "port 80".
    return [
        FirewallRule("pass", proto="tcp", dst_port=80, keep_state=True),
        FirewallRule("block"),
    ]


def _add_ethane_rules(ethane: EthanePolicy, policy_name: str) -> None:
    if policy_name == "tenant_iso":
        ethane.allow(src_group="tenant-a", dst=TENANT_A_SERVERS, proto="tcp", dst_port=80)
        ethane.allow(src_group="tenant-b", dst=TENANT_B_SERVERS, proto="tcp", dst_port=80)
    elif policy_name in ("user_gated", "app_gated"):
        # Ethane can bind users (not apps): user_gated is its best case,
        # app_gated its documented blind spot — same rule either way.
        ethane.allow(src_group="staff", proto="tcp", dst_port=80)
    else:
        ethane.allow(proto="tcp", dst_port=80)


# ======================================================================
# Traffic mixes
# ======================================================================

def _client_plans(spec: ScenarioSpec, *, groups=("users", "staff")) -> list[HostPlan]:
    return [
        HostPlan(
            name=f"c{i}", ip=f"192.168.0.{10 + i}",
            users={f"alice{i}": tuple(groups)},
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


def _jittered_times(spec: ScenarioSpec, rng: random.Random, count: int,
                    start: float = 0.5, end_fraction: float = 0.7) -> list[float]:
    window = spec.duration * end_fraction - start
    return sorted(start + rng.random() * window for _ in range(count))


def _mix_web_burst(spec, rng):
    plans = _client_plans(spec) + _server_plans(spec)
    clients = [p for p in plans if p.role == "client"]
    servers = [p for p in plans if p.role == "server"]
    intents = []
    for at in _jittered_times(spec, rng, spec.flows):
        client, server = rng.choice(clients), rng.choice(servers)
        user = next(iter(client.users))
        if rng.random() < 0.8:
            intents.append(FlowIntent(at, client.name, client.ip, "http", user, server.ip, 80, wanted=True))
        else:
            intents.append(FlowIntent(at, client.name, client.ip, "telnet", user, server.ip, 23, wanted=False))
    return plans, intents


def _mix_app_mix(spec, rng):
    plans = _client_plans(spec) + _server_plans(spec)
    clients = [p for p in plans if p.role == "client"]
    servers = [p for p in plans if p.role == "server"]
    intents = []
    for at in _jittered_times(spec, rng, spec.flows):
        client, server = rng.choice(clients), rng.choice(servers)
        user = next(iter(client.users))
        app = "http" if rng.random() < 0.7 else "skype"
        intents.append(FlowIntent(at, client.name, client.ip, app, user, server.ip, 80, wanted=app == "http"))
    return plans, intents


def _mix_user_mix(spec, rng):
    plans = _client_plans(spec) + _server_plans(spec)
    plans[0].users["eve"] = ("users", "guests")
    clients = [p for p in plans if p.role == "client"]
    servers = [p for p in plans if p.role == "server"]
    intents = []
    for at in _jittered_times(spec, rng, spec.flows):
        server = rng.choice(servers)
        if rng.random() < 0.7:
            client = rng.choice(clients)
            user = f"alice{client.name[1:]}"
            wanted = True
        else:
            client, user, wanted = plans[0], "eve", False
        intents.append(FlowIntent(at, client.name, client.ip, "http", user, server.ip, 80, wanted=wanted))
    return plans, intents


def _mix_roaming(spec, rng):
    """A staff user re-homes across leaves mid-run; policy follows the user."""
    plans = _client_plans(spec) + _server_plans(spec)
    plans.append(HostPlan("roam-a", "192.168.0.30", {"roamer": ("users", "staff")}, role="roam_a"))
    plans.append(HostPlan("roam-b", "192.168.0.31", {"roamer": ("users", "staff")}, role="roam_b"))
    clients = [p for p in plans if p.role == "client"]
    servers = [p for p in plans if p.role == "server"]
    rehome_at = spec.duration * 0.35
    intents = []
    for at in _jittered_times(spec, rng, spec.flows):
        server = rng.choice(servers)
        if rng.random() < 0.5:
            client = rng.choice(clients)
            user = f"alice{client.name[1:]}"
            intents.append(FlowIntent(at, client.name, client.ip, "http", user, server.ip, 80, wanted=True))
        else:
            src = "roam-a" if at < rehome_at else "roam-b"
            src_ip = "192.168.0.30" if src == "roam-a" else "192.168.0.31"
            intents.append(FlowIntent(at, src, src_ip, "http", "roamer", server.ip, 80, wanted=True))
    return plans, intents


def _mix_multi_tenant(spec, rng):
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
    a_clients = [p for p in plans if p.name.startswith("c")]
    b_clients = [p for p in plans if p.name.startswith("b") and p.role == "client"]
    a_servers = [p for p in plans if p.name.startswith("srv")]
    b_servers = [p for p in plans if p.name.startswith("bsrv")]
    intents = []
    for at in _jittered_times(spec, rng, spec.flows):
        roll = rng.random()
        if roll < 0.40:
            client, server, wanted = rng.choice(a_clients), rng.choice(a_servers), True
        elif roll < 0.65:
            client, server, wanted = rng.choice(b_clients), rng.choice(b_servers), True
        elif roll < 0.80:
            client, server, wanted = rng.choice(a_clients), rng.choice(b_servers), False
        elif roll < 0.90:
            client, server, wanted = rng.choice(b_clients), rng.choice(a_servers), False
        else:
            contractor = next(p for p in plans if p.name == "a-contract")
            client, server, wanted = contractor, rng.choice(a_servers), False
        user = next(iter(client.users))
        intents.append(FlowIntent(at, client.name, client.ip, "http", user, server.ip, 80, wanted=wanted))
    return plans, intents


def _mix_worm(spec, rng):
    """Clean web traffic with an outbreak racing cluster-wide quarantine."""
    plans = _client_plans(spec) + _server_plans(spec)
    plans += [
        HostPlan(f"w{i}", f"192.168.0.{40 + i}", {f"worm{i}": ("users",)}, role="infected")
        for i in range(2)
    ]
    clients = [p for p in plans if p.role == "client"]
    servers = [p for p in plans if p.role == "server"]
    infected = [p for p in plans if p.role == "infected"]
    targets = clients + servers
    t_q = _quarantine_time(spec)
    intents = []
    for at in _jittered_times(spec, rng, spec.flows, end_fraction=0.75):
        if rng.random() < 0.5:
            client, server = rng.choice(clients), rng.choice(servers)
            user = next(iter(client.users))
            intents.append(FlowIntent(at, client.name, client.ip, "http", user, server.ip, 80, wanted=True))
        else:
            at = max(at, spec.duration * 0.2)  # outbreak starts after warm-up
            worm = rng.choice(infected)
            target = rng.choice(targets)
            intents.append(FlowIntent(
                at, worm.name, worm.ip, "conficker", next(iter(worm.users)), target.ip, 80,
                wanted=False, expect_verdict=at < t_q - 0.05,
            ))
    return plans, intents


def _mix_legacy(spec, rng):
    """A 90 % daemon-less fleet: queries time out, policy still decides."""
    plans = _client_plans(spec) + _server_plans(spec)
    clients = [p for p in plans if p.role == "client"]
    servers = [p for p in plans if p.role == "server"]
    intents = []
    for at in _jittered_times(spec, rng, spec.flows):
        client, server = rng.choice(clients), rng.choice(servers)
        user = next(iter(client.users))
        intents.append(FlowIntent(at, client.name, client.ip, "http", user, server.ip, 80, wanted=True))
    return plans, intents


def _mix_retenant(spec, rng):
    """The web server's port is re-tenanted mid-run; caches must converge."""
    plans = _client_plans(spec) + _server_plans(spec)[:1]
    clients = [p for p in plans if p.role == "client"]
    server = next(p for p in plans if p.role == "server")
    t_r = _retenant_time(spec)
    intents = []
    for at in _jittered_times(spec, rng, spec.flows, end_fraction=0.85):
        if t_r <= at <= t_r + 0.3:
            at = t_r + 0.3 + (at - t_r)  # keep clear of the re-tenant instant
        client = rng.choice(clients)
        user = next(iter(client.users))
        intents.append(FlowIntent(
            at, client.name, client.ip, "http", user, server.ip, 80, wanted=at < t_r,
        ))
    return plans, intents


TRAFFIC_MIXES: dict[str, Callable] = {
    "web_burst": _mix_web_burst,
    "app_mix": _mix_app_mix,
    "user_mix": _mix_user_mix,
    "roaming": _mix_roaming,
    "multi_tenant": _mix_multi_tenant,
    "worm": _mix_worm,
    "legacy_fleet": _mix_legacy,
    "retenant": _mix_retenant,
}


# ======================================================================
# Failure schedules
# ======================================================================

#: When a failure strikes and ends, as fractions of the cell's duration.
#: The arm that schedules a failure and whatever judges the flows around
#: it read the same pair, so moving one instant cannot misjudge a flow.
KILL_AT, RESTORE_AT = 0.35, 0.70
PARTITION_AT, HEAL_AT = 0.35, 0.60
#: Wanted flows opened within this many virtual seconds of a partition
#: (or inside it) expect no delivery.
BLACKOUT_MARGIN = 0.5


def _quarantine_time(spec: ScenarioSpec) -> float:
    return spec.duration * 0.5


def _retenant_time(spec: ScenarioSpec) -> float:
    return spec.duration * 0.5


def _arm_none(ctx: CellContext) -> None:
    return None


def _arm_kill_shard(ctx: CellContext) -> None:
    cluster = ctx.net.cluster
    victim = cluster.shard_map.shards()[0]
    sim = ctx.net.topology.sim
    ctx.needs_monitoring = True
    sim.schedule_at(ctx.spec.duration * KILL_AT, cluster.kill, victim,
                    label="experiment.kill_shard")
    sim.schedule_at(ctx.spec.duration * RESTORE_AT, cluster.restore, victim,
                    label="experiment.restore_shard")


def _arm_partition_heal(ctx: CellContext) -> None:
    spines = ctx.switches["spine"]
    sim = ctx.net.topology.sim
    for spine in spines:
        sim.schedule_at(ctx.spec.duration * PARTITION_AT, spine.fail,
                        label="experiment.partition")
        sim.schedule_at(ctx.spec.duration * HEAL_AT, spine.recover,
                        label="experiment.heal")


def _arm_quarantine_race(ctx: CellContext) -> None:
    t_q = _quarantine_time(ctx.spec)
    sim = ctx.net.topology.sim

    def quarantine() -> None:
        for plan in ctx.hosts_in_role("infected"):
            if ctx.net.cluster is not None:
                ctx.net.cluster.coordinator.quarantine_host(plan.ip)
            else:
                ctx.net.controller.quarantine_host(plan.ip)
            ctx.quarantined_since[plan.ip] = t_q

    sim.schedule_at(t_q, quarantine, label="experiment.quarantine")


def _arm_retenant(ctx: CellContext) -> None:
    t_r = _retenant_time(ctx.spec)
    sim = ctx.net.topology.sim

    def retenant() -> None:
        server = ctx.net.host(next(p.name for p in ctx.hosts_in_role("server")))
        server.sockets.close(ctx.retenant_socket)
        server.run_server("telnet", "root", 80)

    sim.schedule_at(t_r, retenant, label="experiment.retenant")


FAILURES: dict[str, Callable[[CellContext], None]] = {
    "none": _arm_none,
    "kill_shard": _arm_kill_shard,
    "partition_heal": _arm_partition_heal,
    "quarantine_race": _arm_quarantine_race,
    "retenant": _arm_retenant,
}

#: Blackout windows per failure: wanted flows opened inside expect no delivery.
def _blackout_window(spec: ScenarioSpec) -> Optional[tuple[float, float]]:
    if spec.failure == "partition_heal":
        return (spec.duration * PARTITION_AT - BLACKOUT_MARGIN,
                spec.duration * HEAL_AT + BLACKOUT_MARGIN)
    return None


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


def _place_hosts(ctx: CellContext, plans: list[HostPlan]) -> None:
    client_switches = ctx.switches["client"]
    server_switches = ctx.switches["server"]
    round_robin = {"client": 0, "server": 0}
    for plan in plans:
        if plan.role == "server":
            switch = server_switches[round_robin["server"] % len(server_switches)]
            round_robin["server"] += 1
        elif plan.role == "roam_a":
            switch = client_switches[0]
        elif plan.role == "roam_b":
            switch = client_switches[-1]
        else:
            switch = client_switches[round_robin["client"] % len(client_switches)]
            round_robin["client"] += 1
        host = ctx.net.add_host(
            HostSpec(name=plan.name, ip=plan.ip, users=dict(plan.users),
                     run_daemon=plan.run_daemon),
            switch=switch,
        )
        ctx.plans[plan.name] = plan
        if plan.server_app is not None:
            app, user, port = plan.server_app
            _process, socket = host.run_server(app, user, port)
            if ctx.spec.failure == "retenant":
                ctx.retenant_socket = socket


def _run_once(spec: ScenarioSpec, seed: int) -> CellContext:
    """Execute one seeded repeat of one cell and collect everything."""
    rng = random.Random(seed)
    net = _build_network(spec)
    ctx = CellContext(spec=spec, net=net)
    TOPOLOGIES[spec.topology](ctx)
    net.set_policy(dict(POLICIES[spec.policy]))
    plans, intents = TRAFFIC_MIXES[spec.traffic](spec, rng)
    blackout = _blackout_window(spec)
    if blackout is not None:
        intents = [
            replace(intent, expect_delivery=False)
            if blackout[0] <= intent.at <= blackout[1] and intent.wanted
            else intent
            for intent in intents
        ]
    ctx.intents = intents
    _place_hosts(ctx, plans)
    FAILURES[spec.failure](ctx)
    sim = net.topology.sim
    if spec.sanitize:
        sim.enable_sanitizer()

    def inject(intent: FlowIntent) -> None:
        host = net.host(intent.src_host)
        packet, _socket, _process = host.open_flow(
            intent.app, intent.user, intent.dst_ip, intent.dst_port,
        )
        ctx.injected.append((intent, FlowSpec.from_packet(packet)))

    for intent in intents:
        sim.schedule_at(intent.at, inject, intent, label="experiment.inject")

    end_time = spec.duration

    def sample() -> bool:
        for name, value in invariants.network_flow_state(net).items():
            key = f"{name}_peak"
            ctx.peaks[key] = max(ctx.peaks.get(key, 0), value)
        return sim.now < end_time

    sim.schedule_repeating(0.25, sample, label="experiment.sampler")
    if ctx.needs_monitoring:
        net.start_monitoring()
    net.run(duration=spec.duration)
    if ctx.needs_monitoring:
        net.stop_monitoring()
    net.run()  # drain: lifecycle sweeps reclaim all remaining state
    if spec.failure == "retenant":
        _collect_coherence_probes(ctx)
    return ctx


def _last_action_for(ctx: CellContext, flow: FlowSpec) -> Optional[str]:
    for record in reversed(invariants.network_audit_records(ctx.net)):
        if record.flow == flow:
            return record.action
    return None


def _collect_coherence_probes(ctx: CellContext) -> None:
    t_r = _retenant_time(ctx.spec)
    for intent, flow in ctx.injected:
        expected = "pass" if intent.at < t_r else "block"
        ctx.coherence_probes.append(invariants.CoherenceProbe(
            label=f"{intent.src_host}->{intent.dst_ip}:{intent.dst_port}@{intent.at:.2f}",
            expected=expected,
            observed=_last_action_for(ctx, flow),
        ))


# ======================================================================
# Invariant evaluation
# ======================================================================

def applicable_invariants(spec: ScenarioSpec) -> list[str]:
    """The invariant checkers a cell of this shape must run and pass."""
    names = [invariants.FAIL_CLOSED, invariants.BOUNDED_STATE]
    if spec.control != "single":
        names.append(invariants.ZERO_LOSS)
    if spec.failure == "quarantine_race":
        names.append(invariants.CONTAINMENT)
    if spec.failure == "retenant":
        names.append(invariants.CACHE_COHERENCE)
    return names


def _state_caps(ctx: CellContext) -> dict[str, float]:
    spec = ctx.spec
    flows = len(ctx.injected)
    switches = len(ctx.net.switches)
    quarantine_allowance = 4.0 * len(ctx.quarantined_since) * switches
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


def evaluate_invariants(ctx: CellContext) -> dict[str, invariants.InvariantResult]:
    """Run every applicable checker against one finished repeat."""
    spec = ctx.spec
    records = invariants.network_audit_records(ctx.net)
    final = invariants.network_flow_state(ctx.net)
    accounted_flows = [
        flow for intent, flow in ctx.injected if intent.expect_verdict
    ]
    results: dict[str, invariants.InvariantResult] = {}
    for name in applicable_invariants(spec):
        if name == invariants.FAIL_CLOSED:
            results[name] = invariants.check_fail_closed(
                accounted_flows, records,
                pending=final["pending"], buffered=final["buffered"],
            )
        elif name == invariants.ZERO_LOSS:
            results[name] = invariants.check_zero_loss(
                accounted_flows, records,
                pending=final["pending"], buffered=final["buffered"],
            )
        elif name == invariants.CONTAINMENT:
            results[name] = invariants.check_containment(
                invariants.network_deliveries(ctx.net),
                ctx.quarantined_since,
                grace=0.1,
            )
        elif name == invariants.CACHE_COHERENCE:
            results[name] = invariants.check_cache_coherence(ctx.coherence_probes)
        elif name == invariants.BOUNDED_STATE:
            observed = dict(ctx.peaks)
            observed.update({f"{key}_final": value for key, value in final.items()})
            results[name] = invariants.check_bounded_state(observed, _state_caps(ctx))
    return results


# ======================================================================
# Baseline comparison
# ======================================================================

def _evaluate_baselines(ctx: CellContext) -> dict[str, dict[str, float]]:
    baselines = build_baselines(ctx.spec.policy, ctx.plans)
    comparison: dict[str, dict[str, float]] = {}
    for arch, policy in baselines.items():
        stats = {"allowed": 0, "blocked": 0, "false_accepts": 0, "false_rejects": 0}
        for index, intent in enumerate(ctx.intents):
            action = policy.decide(intent.planned_flow(index))
            allowed = action == "pass"
            stats["allowed" if allowed else "blocked"] += 1
            if allowed and not intent.wanted:
                stats["false_accepts"] += 1
            elif not allowed and intent.wanted:
                stats["false_rejects"] += 1
        total = max(len(ctx.intents), 1)
        stats["accuracy"] = round(
            1.0 - (stats["false_accepts"] + stats["false_rejects"]) / total, 4
        )
        comparison[arch] = stats
    return comparison


def _identpp_outcomes(ctx: CellContext) -> dict[str, float]:
    """Classify each injected flow once: delivered or not, against its intent."""
    delivered = set()
    for host in ctx.net.hosts.values():
        for packet in host.delivered:
            delivered.add(FlowSpec.from_packet(packet).as_tuple())
    stats = {"allowed": 0, "blocked": 0, "false_accepts": 0, "false_rejects": 0, "judged": 0}
    for intent, flow in ctx.injected:
        arrived = flow.as_tuple() in delivered
        stats["allowed" if arrived else "blocked"] += 1
        if intent.wanted and not intent.should_deliver():
            continue  # blackout windows: delivery is not a verdict here
        stats["judged"] += 1
        if arrived and not intent.wanted:
            stats["false_accepts"] += 1
        elif not arrived and intent.wanted:
            stats["false_rejects"] += 1
    return stats


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
    identpp = {"allowed": 0, "blocked": 0, "false_accepts": 0, "false_rejects": 0, "judged": 0}
    architectures: dict[str, dict[str, float]] = {}
    for seed in range(spec.seed, spec.seed + MATRIX_REPEATS):
        ctx = _run_once(spec, seed)
        digests.append(audit_digest(invariants.network_audit_records(ctx.net)))
        for name, result in evaluate_invariants(ctx).items():
            if name not in merged:
                merged[name] = invariants.InvariantResult(name, details=result.details)
            merged[name].violations.extend(
                f"{spec.name} (seed {seed}): [{name}] {violation}"
                for violation in result.violations
            )
        if not architectures:
            architectures = _evaluate_baselines(ctx)
        for key, value in _identpp_outcomes(ctx).items():
            identpp[key] += value
    identpp["accuracy"] = round(
        1.0
        - (identpp["false_accepts"] + identpp["false_rejects"])
        / max(identpp.pop("judged"), 1),
        4,
    )
    architectures[ARCH_IDENTPP] = identpp
    return {
        "cell": spec.name,
        "axes": {
            "topology": spec.topology,
            "control": spec.control,
            "policy": spec.policy,
            "traffic": spec.traffic,
            "failure": spec.failure,
            "daemon_fraction": spec.daemon_fraction,
            "identity_plane": spec.identity_plane,
        },
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


def default_matrix() -> list[ScenarioSpec]:
    """The committed scenario matrix: 30 cells across every axis."""
    cells: list[ScenarioSpec] = []
    base = ScenarioSpec()
    # Core sweep: topology x control for the port- and app-gated stories.
    for policy, traffic in (("web_open", "web_burst"), ("app_gated", "app_mix")):
        cells += expand_grid(
            {"topology": ["edge_core", "spine_leaf"], "control": ["single", "cluster2"]},
            base=replace(base, policy=policy, traffic=traffic),
        )
    # Failover sweep: a shard dies mid-burst on a 4-way cluster.
    for policy, traffic in (("web_open", "web_burst"), ("app_gated", "app_mix")):
        cells += expand_grid(
            {"topology": ["edge_core", "spine_leaf"]},
            base=replace(base, control="cluster4", failure="kill_shard",
                         policy=policy, traffic=traffic, seed=base.seed + 100),
        )
    # Users borrow machines; policy follows people, not ports.
    cells += expand_grid(
        {"control": ["single", "cluster2"]},
        base=replace(base, policy="user_gated", traffic="user_mix", seed=base.seed + 200),
    )
    # A staff user re-homes across leaves mid-run.
    cells += expand_grid(
        {"control": ["single", "cluster2"]},
        base=replace(base, topology="spine_leaf", policy="user_gated",
                     traffic="roaming", seed=base.seed + 300),
    )
    # Multi-tenant isolation incl. a contractor badge on the wrong subnet.
    cells += expand_grid(
        {"topology": ["edge_core", "spine_leaf"]},
        base=replace(base, control="cluster2", policy="tenant_iso",
                     traffic="multi_tenant", seed=base.seed + 400),
    )
    # The fabric partitions and heals; flows in the blackout fail closed.
    cells += expand_grid(
        {"control": ["single", "cluster2"]},
        base=replace(base, topology="spine_leaf", failure="partition_heal",
                     seed=base.seed + 500),
    )
    # A worm outbreak races cluster-wide quarantine.
    cells += expand_grid(
        {"control": ["cluster2", "cluster4"]},
        base=replace(base, policy="web_open", traffic="worm",
                     failure="quarantine_race", seed=base.seed + 600),
    )
    # Identity changes mid-run; cached answers must converge.
    cells += expand_grid(
        {"control": ["single", "cluster2"]},
        base=replace(base, policy="dst_app_gated", traffic="retenant",
                     failure="retenant", query_cache_ttl=5.0, seed=base.seed + 700),
    )
    # 90 % daemon-less legacy fleet: ident++ degrades to the firewall.
    cells += expand_grid(
        {"control": ["single", "cluster2"]},
        base=replace(base, policy="web_open", traffic="legacy_fleet",
                     clients=10, daemon_fraction=0.1, query_cache_ttl=2.0,
                     seed=base.seed + 800),
    )
    # Push identity plane (PR 10): a flash crowd hammers two servers on
    # both planes (A/B), push rides out a shard kill with subscription
    # re-homing, and push degrades gracefully on a 90 % daemon-less fleet.
    cells += expand_grid(
        {"identity_plane": ["pull", "push"]},
        base=replace(base, topology="single", policy="web_open",
                     traffic="web_burst", flows=48, query_cache_ttl=2.0,
                     seed=base.seed + 900),
    )
    cells += expand_grid(
        {"identity_plane": ["push"]},
        base=replace(base, control="cluster4", failure="kill_shard",
                     query_cache_ttl=2.0, seed=base.seed + 920),
    )
    cells += expand_grid(
        {"identity_plane": ["push"]},
        base=replace(base, policy="web_open", traffic="legacy_fleet",
                     clients=10, daemon_fraction=0.1, query_cache_ttl=2.0,
                     seed=base.seed + 940),
    )
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
