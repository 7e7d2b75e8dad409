"""Cluster workloads: decision-loop scale-out and failover churn.

The paper's flow-setup experiment measures one controller's decision
loop (§3.4, Figure 1); these workloads measure what sharding that loop
buys and what a shard crash costs.  Two soaks for the sharded control
plane, run by ``make soak_cluster`` and recorded in
``BENCH_results.json``:

* :func:`cluster_scale` — the scalability claim.  Each controller
  is modelled as a **serial decision loop**
  (``ControllerConfig.serialize_decisions``): one evaluation occupies it
  for ``policy_eval_delay``, so a burst of punts queues behind it.  The
  bench injects the same burst of unique flows into a 1-shard and a
  4-shard cluster and compares aggregate decided-flows per *simulated*
  second.  With a balanced ring the 4-shard makespan approaches a
  quarter of the 1-shard one, so the speedup doubles as a consistent-
  hash balance gate: a skewed ring makes the slowest shard the
  bottleneck and fails the ≥ 3x acceptance floor.

* :func:`cluster_failover` — the resilience claim.  Bursty churn
  traffic runs against a 4-shard cluster; one replica is killed mid-
  run with punts in flight.  The soak asserts **zero flows are lost
  open-ended**: every flow is either decided (by its owner or, after
  re-punt, by the successor) or failed closed by the pending-deadline
  backstop; every pending table and switch buffer drains to empty; and
  a delegation revocation issued after the failover is observed on
  every shard (the coordinator's cluster-wide propagation).

Run standalone::

    python -m repro.workloads.soak cluster
"""

from __future__ import annotations

import operator

from repro.core.controller import ControllerConfig
from repro.core.network import IdentPPClusterNetwork
from repro.identpp.flowspec import FlowSpec
from repro.workloads.invariants import check_zero_loss
from repro.workloads.soak import (
    Gate,
    Soak,
    decided,
    edge_core_net,
    open_web_flows,
    ratio,
    timed,
)

#: The cluster workloads' policy: allow web traffic statefully.
CLUSTER_POLICY = {
    "00-cluster.control": (
        "block all\n"
        "pass from any to any port 80 keep state\n"
    ),
}

#: Acceptance floor for the 4-shard aggregate throughput speedup.
CLUSTER_SPEEDUP_FLOOR = 3.0

#: Hosts opening flows, in both soaks.
CLIENTS = 8

# ----------------------------------------------------------------------
# Scale bench
# ----------------------------------------------------------------------

SCALE_FLOWS = 1_000
SHARD_COUNTS = (1, 4)
#: Serial decision-loop occupancy per evaluation.  Dominates the
#: (parallel) ident++ query latency so the makespan measures the
#: decision loop, the resource sharding multiplies.
SCALE_EVAL_DELAY = 500e-6


def scale_cell(name: str, shards: int) -> IdentPPClusterNetwork:
    """Return one cell of the scale bench: ``shards`` serialized decision
    loops behind the bench fabric."""
    return edge_core_net(
        name,
        clients=CLIENTS,
        shards=shards,
        policy=CLUSTER_POLICY,
        config=ControllerConfig(
            serialize_decisions=True,
            policy_eval_delay=SCALE_EVAL_DELAY,
            # The 1-shard run queues flows * eval_delay seconds of work;
            # the deadline must not fire while flows wait their turn.
            pending_deadline=60.0,
        ),
    )


@timed
def cluster_scale() -> dict:
    """Run 1 and 4 shards of serialized decision loops over the identical flow burst."""
    per_vsec: dict[str, float] = {}
    makespan: dict[str, float] = {}
    count: dict[str, int] = {}
    largest_share: dict[str, float] = {}
    for shards in SHARD_COUNTS:
        net = scale_cell(f"cluster-scale-{shards}", shards)
        open_web_flows(net, SCALE_FLOWS, CLIENTS)
        net.run()
        loads = [
            decided(controller.audit.records())
            for controller in net.cluster.replicas.values()
        ]
        key = str(shards)
        count[key] = sum(made for made, _ in loads)
        makespan[key] = max(last for _, last in loads)
        per_vsec[key] = ratio(count[key], makespan[key])
        largest_share[key] = max(made for made, _ in loads) / max(1, count[key])
    base, top = str(SHARD_COUNTS[0]), str(SHARD_COUNTS[-1])
    return {
        "flows": SCALE_FLOWS,
        "decided_flows_per_vsec": {key: round(value, 1) for key, value in per_vsec.items()},
        "makespan_vsec": {key: round(value, 6) for key, value in makespan.items()},
        "decided": count,
        "largest_shard_share": {
            key: round(value, 3) for key, value in largest_share.items()
        },
        "speedup": round(ratio(per_vsec[top], per_vsec[base]), 2),
        # Headline ops/s: aggregate decided-flows per simulated second at 4 shards.
        "ops_per_sec": round(per_vsec[top], 1),
    }


# ----------------------------------------------------------------------
# Failover churn soak
# ----------------------------------------------------------------------

FAILOVER_SHARDS = 4
#: Bursts model flash crowds: each burst queues work at every shard,
#: so the kill lands with punts genuinely in flight.
BURSTS = 20
BURST_SIZE = 20
BURST_INTERVAL = 0.1
KILL_AFTER_BURST = 10
FAILOVER_EVAL_DELAY = 2e-3
SETTLE = 2.0


@timed
def cluster_failover() -> dict:
    """Kill one of 4 replicas mid-churn and account for every flow."""
    net = edge_core_net(
        "cluster-failover",
        clients=CLIENTS,
        shards=FAILOVER_SHARDS,
        policy=CLUSTER_POLICY,
        # Serialized, with a tight deadline.
        config=ControllerConfig(
            serialize_decisions=True,
            policy_eval_delay=FAILOVER_EVAL_DELAY,
            pending_deadline=1.0,
        ),
    )
    cluster = net.cluster
    cluster.grant_delegation("secur", "beefcafe" * 8)

    flows: list[FlowSpec] = []

    def burst(index: int) -> None:
        for _, packet, _, _ in open_web_flows(
            net, BURST_SIZE, CLIENTS, first=index * BURST_SIZE
        ):
            flows.append(FlowSpec.from_packet(packet))

    sim = net.topology.sim
    for index in range(BURSTS):
        sim.schedule_at(index * BURST_INTERVAL, burst, index)
    killed = cluster.shard_map.shards()[0]
    # Kill a hair after a burst lands so the victim holds pending
    # punts and has more in flight on its channels.
    sim.schedule_at(KILL_AFTER_BURST * BURST_INTERVAL + 1e-3, cluster.kill, killed)

    net.start_monitoring()
    net.run(BURSTS * BURST_INTERVAL + SETTLE)
    net.stop_monitoring()
    net.run()  # drain every remaining decision/deadline event

    # Accounting/drain violations come from the shared zero-loss checker
    # (repro.workloads.invariants) — the same one the experiment matrix
    # evaluates — so the soak and the matrix cannot drift apart.
    pending_after = cluster.pending_total()
    buffered_after = sum(s.buffered_count() for s in net.switches.values())
    accounting = check_zero_loss(
        flows, cluster.audit_records(), pending=pending_after, buffered=buffered_after
    )
    violations = list(accounting.violations)

    # --- cluster-wide revocation after the failover ----------------------
    # Issued while one replica is still a corpse: every live shard
    # applies it now, and restoring the corpse resyncs it too — no
    # revived shard may keep enforcing the revoked grant.
    successor = cluster.shard_map.live_shards()[0]
    revocation = cluster.revoke_delegation("secur", origin_shard=successor)
    cluster.restore(killed)
    net.run()
    active_after = sum(
        1 for c in cluster.replicas.values() if c.delegations.is_active("secur")
    )
    epochs_converged = cluster.coordinator.verify_converged()

    if cluster.failovers < 1:
        violations.append("the kill was never detected (no failover ran)")
    if active_after:
        violations.append(f"revocation left {active_after} shards with the grant active")
    if not epochs_converged:
        violations.append("replica policy/delegation epochs diverged")
    return {
        "flows": len(flows),
        "decided": accounting.details["decided"],
        "failed_closed": accounting.details["failed_closed"],
        "flows_accounted": len(flows) - accounting.details["unaccounted"],
        "repunted_flows": cluster.repunted_flows,
        "repunted_messages": cluster.repunted_messages,
        "failovers": cluster.failovers,
        "pending_after": pending_after,
        "buffered_after": buffered_after,
        "killed_shard": killed,
        # Punts the survivors adopted through the failover handoff.
        "adopted_punts": sum(c.repunts_adopted for c in cluster.replicas.values()),
        "revocation_applied_to": list(revocation.applied_to),
        "revocation_origin": revocation.origin_shard,
        "epochs_converged": epochs_converged,
        "resyncs": cluster.coordinator.resyncs,
        # True when no flow was lost open-ended.
        "zero_loss": not violations,
        "violations": violations,
    }


SOAK = Soak(
    steps=(
        ("cluster_scale_1_to_4", cluster_scale),
        ("cluster_failover_churn", cluster_failover),
    ),
    gates=(
        Gate("cluster_scale_1_to_4.speedup", operator.ge, CLUSTER_SPEEDUP_FLOOR,
             f"4-shard speedup {{value}}x below the {CLUSTER_SPEEDUP_FLOOR:g}x "
             "acceptance floor"),
    ),
    ok="cluster soak ok: sharding scales the decision loop, failover loses nothing",
)
