#!/usr/bin/env python
"""Run the hot-path benchmark suite and write ``BENCH_results.json``.

A plain script, so CI and future PRs have a stable, dependency-free
perf trajectory to compare against::

    python benchmarks/run_benchmarks.py          # or: make bench

Each benchmark reports operations per second, not gated; the JSON file
maps benchmark name -> {ops_per_sec, iterations, seconds} under
``results``.  A bench claiming that a hard case costs no more than an
easy one also records each case's ``opcodes_per_op`` (``tools/counts.py``:
the same on every host and run) and on the hard case's entry their
ratio (``policy_eval_compiled_2000.opcodes_vs_10``), which ``GATES``
judges.  The soak entries and their gates come from the ``SOAK`` tables
of the soak modules (``repro.workloads.soak``), the same ones ``make
soak_*`` walks — the paper's own experiments, E1–E12, among them
(``results.paper_*``), the scenario matrix
(``results.experiment_matrix``) and the determinism double run
(``results.determinism_double_run``).
"""

from __future__ import annotations

import json
import operator
import os
import platform
import sys
import time
from functools import partial

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
sys.path[:0] = [os.path.join(ROOT, "src"), ROOT]

from repro.core.cache import DecisionCache  # noqa: E402
from repro.core.policy_engine import PolicyEngine  # noqa: E402
from repro.hosts.applications import standard_applications  # noqa: E402
from repro.hosts.endhost import EndHost  # noqa: E402
from repro.identpp.daemon import IdentPPDaemon  # noqa: E402
from repro.identpp.flowspec import FlowSpec  # noqa: E402
from repro.identpp.keyvalue import ResponseDocument  # noqa: E402
from repro.identpp.wire import IdentQuery  # noqa: E402
from repro.netsim.events import Simulator  # noqa: E402
from repro.netsim.packet import Packet  # noqa: E402
from repro.netsim.topology import Topology  # noqa: E402
from repro.openflow.actions import OutputAction  # noqa: E402
from repro.openflow.flow_table import FlowEntry, FlowTable  # noqa: E402
from repro.openflow.match import Match  # noqa: E402
from repro.openflow.switch import OpenFlowSwitch  # noqa: E402
from repro.pf.evaluator import PolicyEvaluator  # noqa: E402
from repro.pf.parser import parse_ruleset  # noqa: E402
from repro.workloads.generators import FlowGenerator, FlowTemplate  # noqa: E402
from repro.workloads.paper_configs import figure2_control_files  # noqa: E402
from repro.workloads.soak import SOAKS, Gate, failed_gates, load, recorded  # noqa: E402
from tools.counts import count  # noqa: E402

#: The soaks recorded here, in run order.  Each module's ``SOAK`` table
#: names its ``results`` entries and gates them; ``make soak_<name>``
#: walks the same table.  (``push`` re-runs a phase of ``queryload``.)
BENCH_SOAKS = tuple(name for name in SOAKS if name != "push")

#: The gates on what no soak table covers, the micro-benches' count
#: ratios, as data: where the value sits in ``results``, the comparison
#: it must satisfy against the bound, the bound, and what to print when
#: it does not.  A count is exact, so a size claim is an equality.  An
#: opcode count cannot see work done in C, such as dead records riding
#: the heap; the heap's length can.
GATES = (
    Gate("policy_eval_compiled_2000.opcodes_vs_10", operator.eq, 1, "a policy decision runs "
         "{value:.4g}x the opcodes against 2000 rules as against 10 (it walks the ruleset)"),
    Gate("policy_eval_compiled_2000.candidates_visited_vs_10", operator.eq, 1, "a policy "
         "decision visits {value:.4g}x the candidates against 2000 rules as against 10"),
    Gate("policy_eval_compiled_2000.rules_checked_vs_10", operator.eq, 1, "a policy decision "
         "checks {value:.4g}x the rules against 2000 rules as against 10"),
    Gate("policy_reload_unchanged.opcodes_vs_cold", operator.le, 0.05, "an unchanged reload "
         "runs {value:.4g} of a cold load's opcodes (a kept parse or compile is not reused)"),
    Gate("policy_reload_unchanged.rules_compiled", operator.eq, 0, "an unchanged reload "
         "compiled {value} rules (a control file's kept compile is not being reused)"),
    Gate("flow_table_churn_4096.opcodes_vs_128", operator.eq, 1, "a punt's flow-table work runs "
         "{value:.4g}x the opcodes beside 4096 entries as beside 128 (it walks the table)"),
    Gate("daemon_answer_sockets_4096.opcodes_vs_16", operator.eq, 1, "an ident++ answer runs "
         "{value:.4g}x the opcodes beside 4096 sockets as beside 16 (it walks the sockets)"),
    Gate("event_loop_90pct_cancelled.opcodes_vs_clean", operator.le, 1, "an event runs "
         "{value:.4g}x the opcodes with nine in ten cancelled as with every one firing"),
    Gate("event_loop_90pct_cancelled.pending_per_live", operator.le, 2, "the heap holds "
         "{value:.4g} records per live event (dead records are not compacted away)"),
    Gate("packet_hop_captured.opcodes_vs_off", operator.le, 1.25, "a hop runs {value:.4g}x "
         "the opcodes with a capture running as with none (a per-record copy or lookup)"),
)

RESULTS_PATH = os.path.join(ROOT, "BENCH_results.json")


def _timeit(fn, *, min_seconds: float = 0.2, max_iterations: int = 200_000) -> dict:
    """Time ``fn`` until ``min_seconds`` of wall clock have been spent."""
    fn()  # warm-up (compilation, caches)
    iterations = 0
    elapsed = 0.0
    batch = 1
    while elapsed < min_seconds and iterations < max_iterations:
        start = time.perf_counter()
        for _ in range(batch):
            fn()
        elapsed += time.perf_counter() - start
        iterations += batch
        batch = min(batch * 2, 4096)
    return {
        "ops_per_sec": round(iterations / elapsed, 1),
        "iterations": iterations,
        "seconds": round(elapsed, 4),
    }


def _measure(make_step, *, batch: int = 1, counted: int = 1) -> dict:
    """Time a step ``make_step()`` builds, then record the opcodes ``repro``
    runs over ``counted`` calls of a second one after its warm-up call;
    both per item, each call ``batch`` items."""
    entry = _timeit(make_step())
    entry["ops_per_sec"] = round(entry["ops_per_sec"] * batch, 1)
    entry["iterations"] *= batch
    step = make_step()
    step()
    opcodes = count(lambda: [step() for _ in range(counted)]).opcodes
    entry["opcodes_per_op"] = opcodes / (counted * batch)
    return entry


def _record_ratio(results: dict, hard: str, easy: str, suffix: str, name: str = "opcodes") -> None:
    """Record on the ``hard`` entry its ``name`` per op over the ``easy`` entry's."""
    per_op = f"{name}_per_op"
    results[hard][f"{name}_vs_{suffix}"] = results[hard][per_op] / results[easy][per_op]


def _e10b_text(rule_count: int) -> str:
    lines = ["block all"]
    for index in range(rule_count):
        lines.append(
            f"pass from any to 10.{index % 250}.0.0/16 port {1000 + index} "
            f"with eq(@src[name], app{index})"
        )
    return "\n".join(lines)


def _e10b_policy(rule_count: int) -> PolicyEvaluator:
    return PolicyEvaluator(parse_ruleset(_e10b_text(rule_count)), default_action="block")


def _src_doc() -> ResponseDocument:
    document = ResponseDocument()
    document.add_section({"name": "app1", "userID": "alice"})
    return document


def bench_policy_evaluator(results: dict) -> None:
    flow = FlowSpec.tcp("192.168.0.10", "10.1.2.3", 40000, 1001)
    src = _src_doc()
    for size in (10, 100, 500, 2000):
        # An evaluation leaves nothing behind that the next one reads, and
        # every one visits the same rules: a count over however many the
        # timed window ran is exact per evaluation.
        evaluator = _e10b_policy(size)
        entry = results[f"policy_eval_compiled_{size}"] = _measure(
            lambda: partial(evaluator.evaluate, flow, src, None)
        )
        stats = evaluator.stats()
        entry["candidates_visited_per_op"] = stats["candidates_visited"] / stats["evaluations"]
        entry["rules_checked_per_op"] = stats["rules_checked"] / stats["evaluations"]
    for name in ("opcodes", "candidates_visited", "rules_checked"):
        _record_ratio(results, "policy_eval_compiled_2000", "policy_eval_compiled_10", "10", name)
    # The index counters of the last, 2000-rule policy.
    results["policy_eval_index_stats"] = {
        "indexed_rules": stats["indexed_rules"],
        "scan_bucket_rules": stats["scan_bucket_rules"],
        "candidates_visited_per_eval": entry["candidates_visited_per_op"],
        "rules_checked_per_eval": entry["rules_checked_per_op"],
    }


def bench_policy_engine(results: dict) -> None:
    engine = PolicyEngine(default_action="block")
    engine.add_control_files(figure2_control_files())
    flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)
    src = ResponseDocument()
    src.add_section({"name": "http"})
    results["engine_decide_figure2"] = _timeit(lambda: engine.decide(flow, src, None))


def bench_policy_reload(results: dict) -> None:
    """A reload of one 1 001-rule file: on a fresh engine, then with the text unchanged.

    Register, rebuild, compile.  Cold pays lex + parse + compile; an
    unchanged reload keeps the registered file's parse and compiled
    rules and pays the concatenation and a fresh index.  The unchanged
    entry also records how many rules such a reload compiled (none).
    """
    text = _e10b_text(1000)

    def reload(engine: PolicyEngine):
        engine.add_control_file("00-hot.control", text)
        return engine.rebuild().compiled

    def cold():
        return reload(PolicyEngine(default_action="block"))

    def unchanged():
        """A step reloading into one fresh engine: cold once, unchanged after."""
        engine = PolicyEngine(default_action="block")
        return lambda: reload(engine)

    results["policy_reload_cold"] = _measure(lambda: cold)
    entry = results["policy_reload_unchanged"] = _measure(unchanged)
    step = unchanged()
    step()
    entry["rules_compiled"] = step().rules_compiled
    _record_ratio(results, "policy_reload_unchanged", "policy_reload_cold", "cold")


def bench_decision_cache(results: dict) -> None:
    cache = DecisionCache(ttl=0.0)
    flows = [FlowSpec.tcp("10.0.0.1", "10.0.1.1", 1000 + i, 80) for i in range(512)]
    for i, flow in enumerate(flows):
        cache.store(flow, "pass", f"cookie-{i}", now=0.0, keep_state=(i % 4 == 0))
    hit_flow = flows[17]
    results["decision_cache_hit"] = _timeit(lambda: cache.lookup(hit_flow, now=1.0))
    miss_flow = FlowSpec.tcp("172.16.0.1", "172.16.0.2", 5, 5)
    results["decision_cache_miss"] = _timeit(lambda: cache.lookup(miss_flow, now=1.0))

    def churn_cookie() -> None:
        cache.store(hit_flow, "pass", "cookie-churn", now=0.0)
        cache.invalidate_cookie("cookie-churn")

    results["decision_cache_invalidate_cookie"] = _timeit(churn_cookie)


def bench_flow_table(results: dict) -> None:
    table = FlowTable()
    for i in range(256):
        match = Match.from_five_tuple(f"10.0.{i}.1", "10.1.0.1", 6, 40000 + i, 80)
        table.install(FlowEntry(match=match, actions=(OutputAction(1),)))
    packet = Packet.tcp("10.0.17.1", "10.1.0.1", 40017, 80)
    results["flow_table_lookup_repeat"] = _timeit(lambda: table.lookup(packet, now=0.0))
    results["packet_wire_size"] = _timeit(packet.wire_size)
    for resident in (128, 4096):
        results[f"flow_table_churn_{resident}"] = _measure(lambda: _flow_table_churn(resident))
    _record_ratio(results, "flow_table_churn_4096", "flow_table_churn_128", "128")


def _flow_table_churn(resident: int):
    """One punted flow's table work beside ``resident`` timed entries.

    install -> miss lookup -> cookie-scoped delete -> expire, the four
    operations a punt costs the switch; none may depend on table size.
    """
    table = FlowTable()
    for i in range(resident):
        match = Match.from_five_tuple(f"10.0.{i >> 8}.{i & 255}", "10.1.0.1", 6, 1024 + i, 80)
        table.install(
            FlowEntry(match=match, actions=(OutputAction(1),), idle_timeout=60.0,
                      cookie=f"resident-{i}"),
            now=0.0,
        )
    entry = FlowEntry(
        match=Match.from_five_tuple("192.168.0.1", "10.1.0.1", 6, 40000, 80),
        actions=(OutputAction(1),), idle_timeout=60.0, cookie="churn",
    )
    stranger = Packet.tcp("192.168.0.2", "10.1.0.1", 40000, 80)
    everything = Match()

    def iteration() -> None:
        table.install(entry, now=1.0)
        table.lookup(stranger, now=1.0)
        table.remove(everything, cookie="churn")
        table.expire(1.0)

    return iteration


def bench_daemon_answer(results: dict) -> None:
    for sockets in (16, 4096):
        results[f"daemon_answer_sockets_{sockets}"] = _measure(lambda: _daemon_answer(sockets))
    _record_ratio(results, "daemon_answer_sockets_4096", "daemon_answer_sockets_16", "16")


def _daemon_answer(sockets: int):
    """One source-side answer, read flat, on a host holding ``sockets`` connections.

    What each end of a punt costs the identity plane: find the owning
    process, assemble the document, flatten it for the policy.  The
    queried connection sits in the middle of the table, so a scan would
    pay for half of it.
    """
    host = EndHost("client", "10.0.0.1")
    host.install_all(standard_applications())
    host.add_user("alice", ("users", "staff"))
    daemon = IdentPPDaemon(host, host_facts={"os-patch": "MS08-067"})
    flows = [
        FlowSpec.from_packet(host.open_flow("http", "alice", "10.1.0.1", 80, send=False)[0])
        for _ in range(sockets)
    ]
    query = IdentQuery(flow=flows[len(flows) // 2], target_role="src")

    def iteration() -> None:
        response, _ = daemon.query_local(query)
        response.document.as_flat_dict()

    return iteration


#: Events one event-loop iteration schedules; packets one hop iteration
#: sends; the iterations counted after the warm-up one.
_LOOP_BATCH = 1000
_HOP_BATCH = 200
_COUNTED = 4


def bench_event_loop(results: dict) -> None:
    """Scheduled events per second: all firing, and nine in ten cancelled."""
    for tenths, name in ((0, "event_loop_clean"), (9, "event_loop_90pct_cancelled")):
        results[name] = _measure(lambda: _event_loop(tenths), batch=_LOOP_BATCH, counted=_COUNTED)
    # A fresh loop's first batch is as it is every time: all scheduled, nine
    # in ten cancelled, and beside the live events whatever dead records stay.
    live = _LOOP_BATCH // 10
    results["event_loop_90pct_cancelled"]["pending_per_live"] = _event_loop(9)() / live
    _record_ratio(results, "event_loop_90pct_cancelled", "event_loop_clean", "clean")
    for capture, name in ((False, "packet_hop"), (True, "packet_hop_captured")):
        results[name] = _measure(
            lambda: _packet_hops(capture=capture), batch=2 * _HOP_BATCH, counted=_COUNTED
        )
    _record_ratio(results, "packet_hop_captured", "packet_hop", "off")


def _event_loop(cancelled_tenths: int):
    """Schedule a batch of no-op events and run the simulator over them.

    ``cancelled_tenths`` of every ten are armed whole seconds ahead and
    cancelled at once, the way a timeout that almost never fires is
    used.  Their records must not pile up in the heap, and dropping
    them must not cost more than firing them would.  An iteration
    returns the heap's length with its whole batch scheduled.
    """
    sim = Simulator()

    def noop() -> None:
        pass

    def iteration() -> int:
        for index in range(_LOOP_BATCH):
            if index % 10 < cancelled_tenths:
                sim.schedule(5.0, noop, label="backstop").cancel()
            else:
                sim.schedule(1e-3, noop, label="work")
        pending = sim.pending()
        sim.run(until=sim.now + 1e-3)
        return pending

    return iteration


def _packet_hops(*, capture: bool):
    """Packets of an established flow across host -- switch -- host.

    Two hops per packet, each the whole per-hop path: ``Port.send``,
    ``Link.transmit``, at most one event (the switch's forwards of the
    packets that reached it at one instant ride one), ``Port.deliver``,
    and at the switch a flow-table hit and the forward — plus, with a
    packet capture started, the two trace records of the switch hop.
    """
    topo = Topology("hop")
    topo.trace.enabled = capture
    switch = topo.add_node(OpenFlowSwitch("sw", trace=topo.trace))
    client = topo.add_node(EndHost("client", "10.0.0.1"))
    server = topo.add_node(EndHost("server", "10.0.0.2"))
    topo.add_link(client, switch)
    topo.add_link(server, switch)
    switch.flow_table.install(FlowEntry(match=Match(tp_dst=80), actions=(OutputAction(2),)))
    packets = [
        Packet.tcp("10.0.0.1", "10.0.0.2", 40000, 80, payload_size=size)
        for size in (64, 1400)
    ]

    def iteration() -> None:
        for index in range(_HOP_BATCH):
            client.transmit(packets[index % 2])
        topo.run()
        # The delivery log is the caller's to drain; clearing the capture
        # keeps every iteration appending to a ring that is not yet full.
        topo.trace.clear()
        server.delivered.clear()
        server.delivered_times.clear()

    return iteration


def bench_flow_generator(results: dict) -> None:
    templates = [
        FlowTemplate(
            src_host=f"h{i}",
            dst_host="server",
            src_ip=f"10.0.0.{i + 1}",
            dst_ip="10.1.0.1",
            dst_port=80,
            app_name="web",
            user_name="alice",
        )
        for i in range(32)
    ]
    generator = FlowGenerator(templates, seed=7, zipf_skew=1.1)
    entry = _timeit(lambda: generator.draw_batch(64))
    entry["seed"] = generator.seed
    results["flow_generator_draw_batch_64"] = entry


def bench_soaks(results: dict) -> list:
    """Run every step of every soak table; return the tables' gates."""
    gates = []
    for name in BENCH_SOAKS:
        soak = load(name)
        print(f"running {name} soak ...")
        for entry, step in soak.steps:
            results[entry] = step()
        gates.extend(soak.gates)
    return gates


def main() -> int:
    results: dict = {}
    print("running hot-path benchmarks ...")
    bench_policy_evaluator(results)
    bench_policy_engine(results)
    bench_policy_reload(results)
    bench_decision_cache(results)
    bench_flow_table(results)
    bench_daemon_answer(results)
    bench_event_loop(results)
    bench_flow_generator(results)
    soak_gates = bench_soaks(results)
    payload = {
        "command": "python benchmarks/run_benchmarks.py",
        "python": platform.python_version(),
        "results": results,
    }
    with open(RESULTS_PATH, "w", encoding="utf-8") as handle:
        # A non-finite number would be written as a bare token no JSON
        # parser accepts: fail here instead.
        json.dump(payload, handle, indent=2, sort_keys=True, allow_nan=False)
        handle.write("\n")

    gates = soak_gates + list(GATES)
    width = max(len(name) for name in [*results, *(gate.path for gate in gates)])
    for name, timing in results.items():
        if "ops_per_sec" in timing:
            print(f"  {name:<{width}}  {timing['ops_per_sec']:>14,.0f} ops/s")
    for path, holds, bound, _ in gates:
        print(f"  {path:<{width}}  {recorded(results, path)!s:>14}  {holds.__name__} {bound}")
    print(f"wrote {os.path.relpath(RESULTS_PATH)}")
    failures = failed_gates(results, gates)
    for message in failures:
        print(f"FAIL: {message}")
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
