"""E10 — flow-setup latency vs. baselines and PF+=2 evaluator throughput.

Two series the paper only alludes to (§3.1 keeps "enforcement in the
network where it can be done at line-rate"):

* reactive flow-setup latency of the ident++ controller (which pays two
  extra end-host round trips) against an Ethane-style controller and a
  plain learning switch on the same topology, and
* PF+=2 policy-evaluation throughput versus ruleset size.

Expected shape: ident++ setup latency ≈ baseline + the end-host query
round trips; per-packet forwarding after setup is identical (cached in
the flow tables); evaluator cost stays flat as the ruleset grows, because
a decision only visits the rules its port/prefix index cannot rule out.
"""

import time

from conftest import emit

from repro.analysis.report import format_table
from repro.baselines.base import BaselineController
from repro.baselines.ethane import EthanePolicy
from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.pf.evaluator import PolicyEvaluator
from repro.pf.parser import parse_ruleset
from repro.workloads.scenarios import FlowSetupScenario


def _identpp_setup_latency() -> float:
    return FlowSetupScenario(switch_count=2).run().end_to_end_delivery


def _baseline_setup_latency() -> float:
    net = IdentPPNetwork("ethane-baseline")
    # replace the primary controller with an Ethane-style one on the same shape
    left = net.add_switch("sw-left")
    right = net.add_switch("sw-right")
    net.connect(left, right)
    client = net.add_host(HostSpec(name="client", ip="192.168.0.10",
                                   users={"alice": ("staff",)}, run_daemon=False), switch=left)
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1", run_daemon=False),
                          switch=right)
    server.run_server("httpd", "root", 80)
    policy = EthanePolicy(default_action="pass")
    ethane = BaselineController("ethane", net.topology, policy)
    # steal the switches from the identpp controller: register with ethane instead
    for switch in (left, right):
        switch.channel = None
    ethane.register_switch(left)
    ethane.register_switch(right)
    client.open_flow("http", "alice", "192.168.1.1", 80)
    net.topology.run()
    return server.delivered_times[0] if server.delivered_times else float("nan")


def test_flow_setup_latency_vs_baseline(benchmark):
    identpp_latency = benchmark(_identpp_setup_latency)
    baseline_latency = _baseline_setup_latency()
    rows = [
        {"architecture": "identpp (queries both ends)", "first_packet_ms": identpp_latency * 1e3},
        {"architecture": "ethane-style (no end-host queries)", "first_packet_ms": baseline_latency * 1e3},
        {"architecture": "identpp overhead (ms)",
         "first_packet_ms": (identpp_latency - baseline_latency) * 1e3},
    ]
    emit(format_table(rows, title="E10a — reactive flow setup: first-packet latency"))
    assert identpp_latency > baseline_latency


def _build_policy(rule_count: int) -> PolicyEvaluator:
    lines = ["block all"]
    for index in range(rule_count):
        lines.append(
            f"pass from any to 10.{index % 250}.0.0/16 port {1000 + index} "
            f"with eq(@src[name], app{index})"
        )
    return PolicyEvaluator(parse_ruleset("\n".join(lines)), default_action="block")


def test_policy_evaluation_throughput(benchmark):
    """E10b — evaluator throughput vs ruleset size.

    A decision visits the rules the port/prefix index cannot rule out,
    not the ruleset, so its cost stays flat from 10 to 2000 rules.  The
    series also proves, in the same run, that the index is being hit.
    """
    flow = FlowSpec.tcp("192.168.0.10", "10.1.2.3", 40000, 1001)
    src = ResponseDocument()
    src.add_section({"name": "app1", "userID": "alice"})
    evaluator = _build_policy(200)

    benchmark(lambda: evaluator.evaluate(flow, src, None))

    rows = []
    per_decision = {}
    iterations, rounds = 1000, 5
    for size in (10, 100, 500, 2000):
        sized = _build_policy(size)
        assert sized.evaluate(flow, src, None).is_pass

        single_elapsed = batch_elapsed = float("inf")
        for _ in range(rounds):
            start = time.perf_counter()
            for _ in range(iterations):
                sized.evaluate(flow, src, None)
            single_elapsed = min(single_elapsed, time.perf_counter() - start)

            start = time.perf_counter()
            sized.evaluate_batch([(flow, src, None)] * iterations)
            batch_elapsed = min(batch_elapsed, time.perf_counter() - start)

        stats = sized.stats()
        assert stats["indexed_rules"] == size  # every generated rule indexed
        # Every decision on this policy sees the block-all header plus at
        # most one port bucket entry; anything near the full ruleset size
        # means the index stopped being consulted.
        assert stats["candidates_visited"] <= 4 * stats["evaluations"]

        per_decision[size] = single_elapsed / iterations
        rows.append({
            "rules": size,
            "single_eps": round(iterations / single_elapsed),
            "batch_eps": round(iterations / batch_elapsed),
            "cost_vs_10_rules": round(per_decision[size] / per_decision[10], 2),
        })
    emit(format_table(rows, title="E10b — PF+=2 evaluator throughput vs ruleset size"))
    # Same gate as run_benchmarks.py's derived.policy_eval_2000_vs_10.
    assert per_decision[2000] / per_decision[10] <= 1.5
