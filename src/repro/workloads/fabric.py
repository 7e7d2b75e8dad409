"""Fabric workloads: path-wide enforcement on a multi-hop data plane.

The paper's controller installs flow entries "along the path" of an
approved flow (§3.4).  On the single-switch networks of the earlier
workloads that collapses to one hop; :func:`fabric_scale` runs the
same punt pipeline on a spine-leaf fabric and gates the three properties
that make path-wide enforcement real (recorded in
``BENCH_results.json`` and run by ``make soak_fabric``):

1. **One punt per flow, k hops per install** — an approved flow's first
   packet punts exactly once (at its ingress leaf); the owning shard of
   a 2-shard cluster installs forward + reverse entries on *every*
   switch of ``Topology.shortest_path`` (leaf → spine → leaf), and the
   packet is delivered across the fabric without further controller
   involvement.
2. **Mid-path failure fails closed** — killing the spine of an approved
   flow's path stops delivery instantly (the dead hop forwards
   nothing), and the first ``FlowRemoved`` from a surviving hop unwinds
   the rest of the path, so no live hop retains an entry for a flow
   whose path is gone.
3. **Fabric throughput within 1.5x of single-switch** — with the
   controller modelled as a serial decision loop
   (``ControllerConfig.serialize_decisions``), decided-flows per
   simulated second on a 4-leaf fabric must stay within
   :data:`FABRIC_SLOWDOWN_CEILING` of the single-switch baseline:
   path-wide install must not turn k hops into a k-fold setup cost.

Run standalone::

    python -m repro.workloads.soak fabric
"""

from __future__ import annotations

import operator

from repro.core.controller import ControllerConfig
from repro.core.network import IdentPPClusterNetwork, IdentPPNetwork
from repro.openflow.switch import OpenFlowSwitch
from repro.workloads.soak import (
    Gate,
    Soak,
    add_web_hosts,
    decided,
    open_web_flows,
    ratio,
    timed,
    uncached,
)

#: The fabric workloads' policy: allow web traffic statefully.
FABRIC_POLICY = {
    "00-fabric.control": (
        "block all\n"
        "pass from any to any port 80 keep state\n"
    ),
}

#: Acceptance ceiling on (single-switch throughput / fabric throughput):
#: path-wide install may cost at most 1.5x in decided-flows/vsec.
FABRIC_SLOWDOWN_CEILING = 1.5

#: Path-install phase (sharded cluster on a 2x4 spine-leaf).
SPINES = 2
LEAVES = 4
CLIENTS = 6
FLOWS = 300
SHARDS = 2
#: Throughput phase (serialized decision loop, like the cluster bench).
THROUGHPUT_FLOWS = 500
EVAL_DELAY = 500e-6


def _spread_hosts(net: IdentPPNetwork, fabric, clients: int) -> None:
    """Clients on all leaves but the last, the server on the last leaf."""
    add_web_hosts(net, fabric.leaves[:-1], fabric.leaves[-1], clients)


def _path_install() -> dict:
    """Phase 1: one punt per flow, full-path install by the owning shard."""
    net = IdentPPClusterNetwork(
        "fabric-path",
        shards=SHARDS,
        policy_default_action="block",
        controller_config=ControllerConfig(pending_deadline=60.0),
    )
    fabric = net.add_spine_leaf_fabric(spines=SPINES, leaves=LEAVES)
    _spread_hosts(net, fabric, CLIENTS)
    net.set_policy(FABRIC_POLICY)
    open_web_flows(net, FLOWS, CLIENTS)
    net.run()

    records = uncached(net.cluster.audit_records())
    # Hop count per decision, read back from the switch tables: every
    # hop of leaf -> spine -> leaf must hold the decision's cookie.
    min_hops = LEAVES + SPINES  # upper bound; min() below
    for record in records[:50]:
        hops = sum(
            1
            for switch in net.switches.values()
            if switch.flow_table.find(lambda e, c=record.cookie: e.cookie == c)
        )
        min_hops = min(min_hops, hops)
    return {
        "flows": FLOWS,
        "punts_total": sum(int(s.punts.value) for s in net.switches.values()),
        "decided": len(records),
        "delivered": len(net.host("server").delivered),
        "min_path_hops": min_hops,
        "owner_installed": all(
            record.cookie.startswith(net.cluster.shard_map.owner(record.flow) + ":")
            for record in records
        ),
        "path_installs_tracked": len(net.cluster.path_installs),
    }


def _fail_closed() -> dict:
    """Phase 2: mid-path switch failure fails closed, then unwinds."""
    net = IdentPPNetwork(
        "fabric-fail",
        policy_default_action="block",
        controller_config=ControllerConfig(pending_deadline=60.0),
    )
    fabric = net.add_spine_leaf_fabric(spines=2, leaves=2)
    _spread_hosts(net, fabric, 1)
    net.set_policy(FABRIC_POLICY)
    client = net.host("client0")
    server = net.host("server")
    _, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
    net.run()
    approved = len(server.delivered) == 1

    # Fail the spine this flow's path actually crossed.
    path = net.topology.shortest_path(client, server)
    mid = next(
        node for node in path
        if isinstance(node, OpenFlowSwitch) and node in fabric.spines
    )
    mid.fail()
    client.send_on_socket(socket)
    net.run()
    fail_closed = approved and len(server.delivered) == 1

    # Idle-expire the ingress entry; its FlowRemoved must unwind the
    # egress leaf (the dead spine ignores the delete, and forwards
    # nothing regardless).
    controller = net.controller
    sim = net.topology.sim
    sim.schedule_at(
        sim.now + controller.config.idle_timeout + 1.0, lambda: None
    )
    net.run()
    fabric.leaves[0].sweep_expired(sim.now)
    net.run()
    live_entries = sum(
        len(switch.flow_table)
        for switch in net.switches.values()
        if not switch.failed
    )
    return {
        "fail_closed": fail_closed,
        "unwound": live_entries == 0 and controller.installer.unwinds >= 1,
        "path_unwinds": controller.installer.unwinds,
    }


def _throughput(*, fabric: bool) -> float:
    """Phase 3: decided-flows/vsec on the 4-leaf fabric or on a single switch."""
    net = IdentPPNetwork(
        f"fabric-tput-{'fabric' if fabric else 'single'}",
        policy_default_action="block",
        controller_config=ControllerConfig(
            serialize_decisions=True,
            policy_eval_delay=EVAL_DELAY,
            pending_deadline=60.0,
        ),
    )
    if fabric:
        _spread_hosts(net, net.add_spine_leaf_fabric(spines=SPINES, leaves=LEAVES), CLIENTS)
    else:
        switch = net.add_switch("sw0")
        add_web_hosts(net, [switch], switch, CLIENTS)
    net.set_policy(FABRIC_POLICY)
    open_web_flows(net, THROUGHPUT_FLOWS, CLIENTS)
    net.run()
    count, makespan = decided(net.controller.audit.records())
    return ratio(count, makespan)


@timed
def fabric_scale() -> dict:
    """Path-wide enforcement on a spine-leaf fabric: install, fail, scale."""
    entry = {**_path_install(), **_fail_closed()}
    baseline_tput = _throughput(fabric=False)
    fabric_tput = _throughput(fabric=True)
    flows = entry["flows"]

    violations = []
    if entry["punts_total"] != flows:
        violations.append(
            f"{entry['punts_total']} punts for {flows} flows "
            "(path install must leave exactly one punt per flow)"
        )
    if entry["decided"] != flows:
        violations.append(f"only {entry['decided']}/{flows} flows decided")
    if entry["delivered"] != flows:
        violations.append(
            f"only {entry['delivered']}/{flows} first packets crossed the fabric"
        )
    if entry["min_path_hops"] < 3:
        violations.append(
            f"a flow was installed on only {entry['min_path_hops']} hops "
            "(leaf-spine-leaf needs 3)"
        )
    if not entry["owner_installed"]:
        violations.append("a flow's path was installed by a non-owning shard")
    if not entry["fail_closed"]:
        violations.append("a packet crossed the fabric after its mid-path hop died")
    if not entry["unwound"]:
        violations.append(
            "surviving hops kept entries for a flow whose path entry was gone"
        )
    if not fabric_tput:
        violations.append("the fabric throughput phase decided nothing")
    entry.update({
        "baseline_decided_per_vsec": round(baseline_tput, 1),
        "fabric_decided_per_vsec": round(fabric_tput, 1),
        # Single-switch throughput over fabric throughput.
        "slowdown_vs_single_switch": round(ratio(baseline_tput, fabric_tput), 2),
        "violations": violations,
        # Headline ops/s: decided-flows per simulated second on the 4-leaf fabric.
        "ops_per_sec": round(fabric_tput, 1),
    })
    return entry


SOAK = Soak(
    steps=(("fabric_scale_bench", fabric_scale),),
    gates=(
        Gate("fabric_scale_bench.slowdown_vs_single_switch", operator.le,
             FABRIC_SLOWDOWN_CEILING,
             "fabric decided-flows/vsec {value}x below single-switch "
             f"(ceiling {FABRIC_SLOWDOWN_CEILING:g}x)"),
    ),
    ok=(
        "fabric soak ok: one punt per flow, mid-path failure fails closed, "
        f"throughput within {FABRIC_SLOWDOWN_CEILING:g}x of single-switch"
    ),
)
