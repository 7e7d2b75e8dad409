"""Churn/soak workload: bounded flow-state under heavy flow turnover.

The ROADMAP north-star (millions of users, heavy churn) means the
controller sees short-lived flows arriving far faster than their TTLs
expire.  Every flow deposits state in two caches — the controller
:class:`~repro.core.cache.DecisionCache` and the per-switch
:class:`~repro.openflow.flow_table.FlowTable` — so without a working
lifecycle the state grows linearly with *total* flows instead of with
the *live* working set.

:func:`churn_soak` drives ~100k unique short-lived flows through the
real decision components (policy engine, decision cache, flow tables,
lifecycle sweeps) on a virtual clock and reports the peak
and final entry counts against the expected live working set.  The
companion :func:`error_probe` drives a real
:class:`~repro.core.network.IdentPPNetwork` whose policy raises a
:class:`~repro.exceptions.PFError` for one flow and checks the
controller fails closed (audited drop, no pending leak).

Run it standalone (``make soak``)::

    python -m repro.workloads.soak churn
"""

from __future__ import annotations

import operator
import time

from repro.core.cache import DecisionCache
from repro.core.lifecycle import LifecycleService
from repro.core.network import IdentPPNetwork
from repro.core.policy_engine import PolicyEngine
from repro.identpp.flowspec import FlowSpec
from repro.openflow.actions import OutputAction
from repro.openflow.flow_table import FlowEntry, FlowTable
from repro.openflow.match import Match
from repro.workloads.invariants import check_bounded_state
from repro.workloads.soak import Gate, Soak, add_web_hosts, ratio

#: The soak policy: allow web traffic statefully, deny the rest.
CHURN_POLICY = (
    "block all\n"
    "pass from any to any port 80 keep state\n"
)

#: Entry lifetimes.  New flows arrive at ``working_set / DECISION_TTL``
#: per virtual second, so at steady state roughly ``working_set``
#: decisions are inside their TTL at any instant.  Everything beyond
#: that (plus one sweep interval of slack) is state the lifecycle
#: failed to reclaim.
DECISION_TTL = 2.0
IDLE_TIMEOUT = 1.0
SWITCHES = 2


def churn_flow(index: int) -> FlowSpec:
    """Materialise a unique, deterministic 5-tuple for draw ``index``."""
    return FlowSpec.tcp(
        f"10.{(index >> 16) % 200}.{(index >> 8) % 256}.{index % 256}",
        f"192.168.1.{1 + index % 8}",
        40_000 + index % 20_000,
        80,
    )


def _install(tables: list[FlowTable], flow: FlowSpec, cookie: str, now: float) -> None:
    """Mirror the controller's datapath programming: forward + reverse entries."""
    match = Match.from_five_tuple(
        flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
    )
    reverse = flow.reversed()
    reverse_match = Match.from_five_tuple(
        reverse.src_ip, reverse.dst_ip, reverse.proto, reverse.src_port, reverse.dst_port
    )
    for port, table in enumerate(tables):
        table.install(
            FlowEntry(match=match, actions=(OutputAction(port + 1),),
                      idle_timeout=IDLE_TIMEOUT, cookie=cookie),
            now=now,
        )
        table.install(
            FlowEntry(match=reverse_match, actions=(OutputAction(port + 2),),
                      idle_timeout=IDLE_TIMEOUT, cookie=cookie),
            now=now,
        )


def churn_soak(
    flows: int = 100_000, working_set: int = 512, sweep_interval: float = 0.5
) -> dict:
    """Drive unique short-lived flows (100k of them) through the decision components."""
    engine = PolicyEngine(default_action="block", name="churn.policy")
    engine.add_control_file("00-churn.control", CHURN_POLICY)
    cache = DecisionCache(ttl=DECISION_TTL)
    tables = [FlowTable(name=f"sw{i}.flow-table") for i in range(SWITCHES)]

    lifecycle = LifecycleService(name="churn.lifecycle")
    lifecycle.register("decisions", cache.expire, cache.expirable_count)
    for i, table in enumerate(tables):
        lifecycle.register(
            f"flow_table:sw{i}",
            lambda now, _t=table: len(_t.expire(now)),
            table.expirable_count,
        )

    # New flows per virtual second.
    arrival_rate = working_set / DECISION_TTL
    dt = 1.0 / arrival_rate
    next_sweep = sweep_interval
    peak_cache = peak_table = 0
    decision_walls: list[float] = []
    now = 0.0
    wall_start = time.perf_counter()

    for index in range(flows):
        now = index * dt
        flow = churn_flow(index)
        if cache.lookup(flow, now) is None:
            t0 = time.perf_counter()
            decision = engine.decide(flow)
            decision_walls.append(time.perf_counter() - t0)
            cookie = f"churn:decision-{len(decision_walls)}"
            cache.store(
                flow,
                decision.action,
                cookie,
                now,
                keep_state=decision.keep_state,
                rule_text=decision.rule_text,
            )
            if decision.is_pass:
                _install(tables, flow, cookie, now)
        if now >= next_sweep:
            lifecycle.sweep(now)
            next_sweep = now + sweep_interval
        peak_cache = max(peak_cache, len(cache))
        peak_table = max(peak_table, max(len(t) for t in tables))

    # Drain: sweep past every timeout so steady-state leftovers show up
    # as non-zero finals instead of hiding behind "the run just ended".
    drain = now + max(DECISION_TTL, IDLE_TIMEOUT)
    lifecycle.sweep(drain + sweep_interval)
    wall = time.perf_counter() - wall_start

    # Live working set per structure: arrival rate x entry lifetime
    # (+ one sweep interval of reclamation slack).
    expected = {
        "DecisionCache": arrival_rate * (DECISION_TTL + sweep_interval),
        "FlowTable": 2 * arrival_rate * (IDLE_TIMEOUT + sweep_interval),
    }
    # Every peak must stay within 2x expected.  The shared bounded-state
    # invariant checker (repro.workloads.invariants) — the same one the
    # experiment matrix runs on every cell — words the violations, so
    # failures are diagnosable from the entry alone.
    bounded = check_bounded_state(
        observed={"DecisionCache": peak_cache, "FlowTable": peak_table},
        caps={name: 2.0 * entries for name, entries in expected.items()},
    )
    slice_size = max(1, len(decision_walls) // 10)
    early = sum(decision_walls[:slice_size])
    late = sum(decision_walls[-slice_size:])
    return {
        "flows": flows,
        "virtual_seconds": round(now, 3),
        "wall_seconds": round(wall, 3),
        # Headline ops/s: flows driven per host second.
        "ops_per_sec": round(ratio(flows, wall), 1),
        "peak_cache_entries": peak_cache,
        "final_cache_entries": len(cache),
        "peak_table_entries": peak_table,
        "final_table_entries": max(len(t) for t in tables),
        "expected_cache_entries": expected["DecisionCache"],
        "expected_table_entries": expected["FlowTable"],
        "cache_expirations": cache.expirations,
        "table_expirations": sum(t.expirations for t in tables),
        "sweeps": lifecycle.sweeps,
        "reclaimed_total": lifecycle.total_reclaimed(),
        # Late-run / early-run mean decision latency (1.0 = flat).  Host
        # time, so reported rather than gated.
        "latency_ratio": round(late / early if early > 0 else 1.0, 3),
        "bounded_within_2x": bounded.passed,
        "violations": list(bounded.violations),
    }


def error_probe() -> dict:
    """Check the fail-closed pipeline on a real network.

    The policy's port-6666 rule calls an unregistered function, so
    evaluating a flow to that port raises inside the controller's decision.
    A correct controller resolves it as an audited drop with nothing left
    in the pending table or the switch buffers.
    """
    net = IdentPPNetwork("churn-errors", policy_default_action="block")
    switch = net.add_switch("sw")
    add_web_hosts(net, [switch], switch, 1)
    net.set_policy({
        "00-churn-errors.control": (
            "block all\n"
            "pass from any to any port 80 keep state\n"
            "pass from any to any port 6666 with bogus(@src[name])\n"
        ),
    })
    healthy = net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
    poisoned = net.send_flow("client0", "http", "alice", "192.168.1.1", 6666)
    controller = net.controller
    error_records = [r for r in controller.audit.records() if r.rule_origin == "error"]
    return {
        "healthy_flow_delivered": healthy.delivered,
        "error_flow_delivered": poisoned.delivered,
        "error_flow_audited": len(error_records) == 1,
        "pending_after": controller.inflight_count(),
        "buffered_after": switch.buffered_count(),
        "policy_errors": controller.policy_errors,
        "failed_closed": (
            not poisoned.delivered
            and len(error_records) == 1
            and not controller.inflight_count()
            and switch.buffered_count() == 0
        ),
    }


SOAK = Soak(
    steps=(
        ("soak_churn_100k", churn_soak),
        ("soak_fail_closed_probe", error_probe),
    ),
    gates=(
        Gate("soak_fail_closed_probe.failed_closed", operator.eq, True,
             "PFError flow was not failed closed (see the probe above)"),
    ),
    ok="soak ok: state bounded, policy errors fail closed",
)
