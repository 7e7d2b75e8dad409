"""The scenario matrix: cells as data, run as one step of the soak kit.

The soaks each prove one claim on one hand-built network; this module
sweeps those claims across a grid.  A cell is a frozen
:class:`ScenarioSpec` — topology × control plane × policy set × traffic
mix × failure schedule × seed — whose axes are keys of the registries
in :mod:`repro.workloads.axes`; :func:`expand_grid` turns an axis grid
into cells.  :func:`run_cell` runs one cell :data:`MATRIX_REPEATS`
times with derived seeds on the virtual clock and returns its entry, a
plain dict:

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
from dataclasses import dataclass, replace
from typing import Iterable, Mapping, Optional, Sequence

from repro.baselines.ethane import EthanePolicy
from repro.baselines.distributed_firewall import DistributedFirewall
from repro.baselines.vanilla_firewall import VanillaFirewall
from repro.baselines.vlan import VLANSegmentation
from repro.core.audit import audit_digest
from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.workloads import axes, invariants
from repro.workloads.soak import Gate, Soak

#: ident++'s key among a cell's architectures; a baseline's is its decider's name.
ARCH_IDENTPP = "identpp"


# ======================================================================
# Scenario specification
# ======================================================================

@dataclass(frozen=True)
class ScenarioSpec:
    """One cell of the matrix: every axis that defines a scenario.

    The axes are keys of the :data:`~repro.workloads.axes.AXES`
    registries; the scalars size and seed the run.  Specs are frozen so a grid expansion
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
        parts = [getattr(self, axis) for axis in axes.AXES]
        if self.daemon_fraction < 1.0:
            parts.append(f"daemons{int(round(self.daemon_fraction * 100))}%")
        if self.identity_plane != "pull":
            parts.append(self.identity_plane)
        return "/".join(parts)

    def validate(self) -> None:
        """Raise ``ValueError`` on an unknown axis value or invalid combo.

        What a failure schedule needs is read off its :class:`FailureRow`.
        """
        for axis, registry in axes.AXES.items():
            value = getattr(self, axis)
            if value not in registry:
                raise ValueError(f"unknown {axis} {value!r} (have {sorted(registry)})")
        failure = axes.FAILURES[self.failure]
        if failure.cluster and not axes.CONTROLS[self.control]:
            raise ValueError(f"{self.failure} needs a cluster control plane")
        for axis, value in failure.needs.items():
            if getattr(self, axis) != value:
                raise ValueError(f"{self.failure} needs the {value} {axis}")
        for name, other in axes.FAILURES.items():
            if other.paired and name != self.failure and other.needs.get("traffic") == self.traffic:
                raise ValueError(f"the {name} failure schedule and the {self.traffic} traffic pair up")
        if not 0.0 <= self.daemon_fraction <= 1.0:
            raise ValueError(f"daemon_fraction must be in [0, 1] (got {self.daemon_fraction})")
        if self.identity_plane not in ("pull", "push"):
            raise ValueError(f"identity_plane must be 'pull' or 'push' (got {self.identity_plane!r})")
        if self.flows < 1 or self.clients < 1 or self.servers < 1:
            raise ValueError("flows, clients and servers must be positive")


def expand_grid(
    grid: Mapping[str, Sequence],
    *,
    base: Optional[ScenarioSpec] = None,
) -> list[ScenarioSpec]:
    """Expand an axis grid into one validated spec per combination.

    ``grid`` maps :class:`ScenarioSpec` field names to the values to
    sweep; the cartesian product is taken in sorted-key order so the
    cell order (and therefore each cell's derived seed) is stable.
    Every cell gets ``base.seed + index`` as its seed — repeats within
    a cell re-derive from it — and a name from :meth:`ScenarioSpec.cell_id`
    unless the grid sets one explicitly.
    """
    base = base if base is not None else ScenarioSpec()
    names = sorted(grid)
    specs = []
    for index, combo in enumerate(itertools.product(*(grid[name] for name in names))):
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
# Running a repeat
# ======================================================================

#: Where each host role attaches: its switch group, and the switch in it
#: (``None``: round robin over the group).  Any other role is a client's.
_ATTACH: dict[str, tuple[str, Optional[int]]] = {
    "server": ("server", None),
    "roam_a": ("client", 0),
    "roam_b": ("client", -1),
}


def _plan_traffic(ctx: axes.CellContext) -> None:
    """Plan the cell's hosts, and draw its flows from its traffic mix."""
    spec = ctx.spec
    mix = axes.TRAFFIC_MIXES[spec.traffic]
    ctx.plans = {plan.name: plan for plan in mix.hosts(spec)}
    start = 0.5
    window = spec.duration * mix.end_fraction - start
    instants = sorted(start + ctx.rng.random() * window for _ in range(spec.flows))
    ctx.intents = [mix.draw(ctx, at) for at in instants]


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
    shards = axes.CONTROLS[spec.control]
    if shards:
        return IdentPPClusterNetwork(f"matrix-{spec.control}", shards=shards,
                                     controller_config=config, policy_default_action="block")
    return IdentPPNetwork("matrix-single", controller_config=config, policy_default_action="block")


def _place_hosts(ctx: axes.CellContext) -> None:
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
            host.run_server(*plan.server_app)


def _run_once(spec: ScenarioSpec, seed: int) -> axes.CellContext:
    """Execute one seeded repeat of one cell and collect everything."""
    net = _build_network(spec)
    ctx = axes.CellContext(spec=spec, net=net, rng=random.Random(seed))
    axes.TOPOLOGIES[spec.topology](ctx)
    net.set_policy(dict(axes.POLICIES[spec.policy].control_files))
    _plan_traffic(ctx)
    failure = axes.FAILURES[spec.failure]
    _place_hosts(ctx)
    failure.arm(ctx)
    sim = net.topology.sim
    if spec.sanitize:
        sim.enable_sanitizer()

    def inject(intent: axes.FlowIntent) -> None:
        host = net.host(intent.src_host)
        packet, _socket, _process = host.open_flow(
            intent.app, intent.user, intent.dst_ip, intent.dst_port,
        )
        ctx.injected.append((intent, FlowSpec.from_packet(packet)))

    for intent in ctx.intents:
        sim.schedule_at(intent.at, inject, intent, label="experiment.inject")

    def sample() -> bool:
        for name, value in invariants.network_flow_state(net).items():
            key = f"{name}_peak"
            ctx.peaks[key] = max(ctx.peaks.get(key, 0), value)
        return sim.now < spec.duration

    sim.schedule_repeating(0.25, sample, label="experiment.sampler")
    if failure.cluster:
        net.start_monitoring()
    net.run(duration=spec.duration)
    if failure.cluster:
        net.stop_monitoring()
    net.run()  # drain: lifecycle sweeps reclaim all remaining state
    return ctx


# ======================================================================
# Judging a repeat: its invariants, and every architecture's outcomes
# against intent in one tally
# ======================================================================

def _coherence_probes(ctx: axes.CellContext) -> list[invariants.CoherenceProbe]:
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


def applicable_invariants(spec: ScenarioSpec) -> list[str]:
    """The invariant checkers a cell of this shape must run and pass."""
    names = [invariants.FAIL_CLOSED, invariants.BOUNDED_STATE, invariants.DELIVERY]
    if axes.CONTROLS[spec.control]:
        names.append(invariants.ZERO_LOSS)
    return names + list(axes.FAILURES[spec.failure].invariants)


def _state_caps(ctx: axes.CellContext) -> dict[str, float]:
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


def evaluate_invariants(ctx: axes.CellContext,
                        deliveries: list) -> dict[str, invariants.InvariantResult]:
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
            deliveries, records, invariants.network_quarantines(ctx.net),
            grace=invariants.DELIVERY_GRACE),
        invariants.CACHE_COHERENCE: lambda: invariants.check_cache_coherence(
            _coherence_probes(ctx)),
        invariants.BOUNDED_STATE: lambda: invariants.check_bounded_state(
            {**ctx.peaks, **{f"{key}_final": value for key, value in final.items()}},
            _state_caps(ctx)),
    }
    return {name: checks[name]() for name in applicable_invariants(ctx.spec)}


def build_baselines(policy_name: str, plans: Mapping[str, axes.HostPlan]) -> dict[str, object]:
    """Build the four baseline deciders of one policy set's row, by name."""
    row = axes.POLICIES[policy_name]
    ethane = EthanePolicy(row.ethane, name="ethane")
    for plan in plans.values():
        primary = next(iter(plan.users))
        ethane.register_host(plan.ip, primary, groups=plan.users[primary])
    vlan = VLANSegmentation(name="vlan")
    vlan.assign("tenant-a", [axes.TENANT_A_CLIENTS, axes.TENANT_A_SERVERS])
    vlan.assign("tenant-b", [axes.TENANT_B_CLIENTS, axes.TENANT_B_SERVERS])
    if not row.vlan_isolates:
        vlan.allow_between("tenant-a", "tenant-b")
    firewalls = (VanillaFirewall(row.firewall, name="vanilla"),
                 DistributedFirewall(row.firewall, name="distributed"))
    return {decider.name: decider for decider in (*firewalls, ethane, vlan)}


def _tally(outcomes: Iterable[tuple[axes.FlowIntent, bool, bool]]) -> dict[str, float]:
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


def _identpp_outcomes(ctx: axes.CellContext,
                      deliveries: list) -> list[tuple[axes.FlowIntent, bool, bool]]:
    """Each injected flow once: delivered or not, and whether that is a verdict
    (not for a wanted flow opened into the failure's blackout, or within
    :data:`~repro.workloads.axes.BLACKOUT_MARGIN` of it)."""
    delivered = {flow for _when, flow in deliveries}
    first, last = axes.FAILURES[ctx.spec.failure].blackout or (float("inf"), float("-inf"))
    start = ctx.spec.duration * first - axes.BLACKOUT_MARGIN
    end = ctx.spec.duration * last + axes.BLACKOUT_MARGIN
    return [(intent, flow in delivered, not (intent.wanted and start <= intent.at <= end))
            for intent, flow in ctx.injected]


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
    identpp: list[tuple[axes.FlowIntent, bool, bool]] = []
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
        "axes": {axis: getattr(spec, axis)
                 for axis in (*axes.AXES, "daemon_fraction", "identity_plane")},
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
        for offset, grid, sets in MATRIX_GRIDS
        for spec in expand_grid(grid, base=replace(base, seed=base.seed + offset, **sets))
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
