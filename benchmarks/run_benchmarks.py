#!/usr/bin/env python
"""Run the hot-path benchmark suite and write ``BENCH_results.json``.

A plain script, so CI and future PRs have a stable, dependency-free
perf trajectory to compare against::

    python benchmarks/run_benchmarks.py          # or: make bench

Each benchmark reports operations per second; the JSON file maps
benchmark name -> {ops_per_sec, iterations, seconds} under ``results``.
A bench that times an easy and a hard case records on the hard case's
entry how much more it costs (``policy_eval_compiled_2000.vs_10``), and
the ``GATES`` rows judge those ratios.  The soak entries and their gates
come from the ``SOAK`` tables of the soak modules
(``repro.workloads.soak``), the same ones ``make soak_*`` walks — the
paper's own experiments, E1–E12, among them (``results.paper_*``), the
scenario matrix (``results.experiment_matrix``) and the determinism
double run (``results.determinism_double_run``).
"""

from __future__ import annotations

import json
import operator
import os
import platform
import sys
import time

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src"))

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
from repro.openflow.flow_table import FlowTable, make_entry  # noqa: E402
from repro.openflow.match import Match  # noqa: E402
from repro.openflow.switch import OpenFlowSwitch  # noqa: E402
from repro.pf.evaluator import PolicyEvaluator  # noqa: E402
from repro.pf.parser import parse_ruleset  # noqa: E402
from repro.workloads.generators import FlowGenerator, FlowTemplate  # noqa: E402
from repro.workloads.paper_configs import figure2_control_files  # noqa: E402
from repro.workloads.soak import SOAKS, Gate, failed_gates, load, recorded  # noqa: E402

#: The soaks recorded here, in run order.  Each module's ``SOAK`` table
#: names its ``results`` entries and gates them; ``make soak_<name>``
#: walks the same table.  (``push`` re-runs a phase of ``queryload``.)
BENCH_SOAKS = tuple(name for name in SOAKS if name != "push")

#: One policy decision may cost at most this much more against a
#: 2000-rule ruleset than against a 10-rule one.
POLICY_EVAL_CEILING = 1.5

#: Reloading a 1 001-rule file whose text has not moved may cost at most
#: this share of loading it cold.  0.008 measured (~0.3 ms against ~38 ms:
#: the file keeps its parse and its compile, what remains is the
#: concatenation and a fresh index); 0.05 leaves 6x for timer noise, and
#: a reload that compiled again would read ~0.2, one that parsed ~0.8.
POLICY_RELOAD_UNCHANGED_CEILING = 0.05

#: A punt's table work may cost at most this much more beside 4096
#: resident entries than beside 128.
FLOW_TABLE_CHURN_CEILING = 1.5

#: One ident++ answer may cost at most this much more on a host holding
#: 4096 connected sockets than on one holding 16.
DAEMON_ANSWER_CEILING = 1.5

#: A scheduled event may cost at most this much more when nine in ten
#: are cancelled long before their time than when every one fires.
EVENT_LOOP_CANCELLED_CEILING = 1.5

#: A hop may cost at most this much more while a packet capture is
#: running than with none (loose: two records and their ring per hop).
PACKET_HOP_CAPTURE_CEILING = 1.6

#: The gates on what no soak table covers, the micro-bench ratios, as
#: data: where the value sits in ``results``, the comparison it must
#: satisfy against the bound, the bound, and what to print when it does not.
GATES = (
    Gate("policy_eval_compiled_2000.vs_10", operator.le, POLICY_EVAL_CEILING,
         f"a policy decision costs more than {POLICY_EVAL_CEILING:g}x as much against "
         "2000 rules as against 10 (a decision walks the ruleset, not its candidates)"),
    Gate("policy_reload_unchanged.vs_cold", operator.le, POLICY_RELOAD_UNCHANGED_CEILING,
         f"reloading an unchanged 1 001-rule file costs more than "
         f"{POLICY_RELOAD_UNCHANGED_CEILING:g} of loading it cold "
         "(an unchanged control file is being parsed or compiled again)"),
    Gate("policy_reload_unchanged.rules_compiled", operator.eq, 0,
         "reloading an unchanged 1 001-rule file compiled {value} rules "
         "(a control file's kept compile is not being reused)"),
    Gate("flow_table_churn_4096.vs_128", operator.le, FLOW_TABLE_CHURN_CEILING,
         f"flow-table churn costs more than {FLOW_TABLE_CHURN_CEILING:g}x as much "
         "beside 4096 resident entries as beside 128 (an operation walks the table)"),
    Gate("daemon_answer_sockets_4096.vs_16", operator.le, DAEMON_ANSWER_CEILING,
         f"an ident++ answer costs more than {DAEMON_ANSWER_CEILING:g}x as much on a "
         "host holding 4096 sockets as on one holding 16 (a lookup walks the socket table)"),
    Gate("event_loop_90pct_cancelled.vs_clean", operator.le, EVENT_LOOP_CANCELLED_CEILING,
         f"a scheduled event costs more than {EVENT_LOOP_CANCELLED_CEILING:g}x as much "
         "with nine in ten cancelled as with all firing (dead records pile up in the heap)"),
    Gate("packet_hop_captured.vs_off", operator.le, PACKET_HOP_CAPTURE_CEILING,
         f"a hop costs more than {PACKET_HOP_CAPTURE_CEILING:g}x as much with a packet "
         "capture running as with none"),
)

RESULTS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "BENCH_results.json")


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


def _per_item(timing: dict, batch: int) -> dict:
    """Report a batched iteration's throughput per item, not per batch."""
    timing["ops_per_sec"] = round(timing["ops_per_sec"] * batch, 1)
    timing["iterations"] = timing["iterations"] * batch
    return timing


def _vs(easy: dict, hard: dict, digits: int = 2) -> float:
    """Return how much more the ``hard`` case costs: the ``easy`` case's ops/s over its own."""
    return round(easy["ops_per_sec"] / hard["ops_per_sec"], digits)


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
        evaluator = _e10b_policy(size)
        results[f"policy_eval_compiled_{size}"] = _timeit(
            lambda: evaluator.evaluate(flow, src, None)
        )
    results["policy_eval_compiled_2000"]["vs_10"] = _vs(
        results["policy_eval_compiled_10"], results["policy_eval_compiled_2000"]
    )
    # The index counters of the last, 2000-rule policy.
    stats = evaluator.stats()
    results["policy_eval_index_stats"] = {
        "indexed_rules": stats["indexed_rules"],
        "scan_bucket_rules": stats["scan_bucket_rules"],
        "candidates_visited": stats["candidates_visited"],
        "rules_checked": stats["rules_checked"],
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

    cold = results["policy_reload_cold"] = _timeit(
        lambda: reload(PolicyEngine(default_action="block"))
    )
    warm = PolicyEngine(default_action="block")
    unchanged = results["policy_reload_unchanged"] = _timeit(lambda: reload(warm))
    unchanged["rules_compiled"] = reload(warm).rules_compiled
    unchanged["vs_cold"] = _vs(cold, unchanged, 3)


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
        table.install(make_entry(match, [OutputAction(1)]))
    packet = Packet.tcp("10.0.17.1", "10.1.0.1", 40017, 80)
    results["flow_table_lookup_repeat"] = _timeit(lambda: table.lookup(packet, now=0.0))
    results["packet_wire_size"] = _timeit(packet.wire_size)
    for resident in (128, 4096):
        results[f"flow_table_churn_{resident}"] = _timeit(_flow_table_churn(resident))
    results["flow_table_churn_4096"]["vs_128"] = _vs(
        results["flow_table_churn_128"], results["flow_table_churn_4096"]
    )


def _flow_table_churn(resident: int):
    """One punted flow's table work beside ``resident`` timed entries.

    install -> miss lookup -> cookie-scoped delete -> expire, the four
    operations a punt costs the switch; none may depend on table size.
    """
    table = FlowTable()
    for i in range(resident):
        match = Match.from_five_tuple(f"10.0.{i >> 8}.{i & 255}", "10.1.0.1", 6, 1024 + i, 80)
        table.install(
            make_entry(match, [OutputAction(1)], idle_timeout=60.0, cookie=f"resident-{i}"),
            now=0.0,
        )
    entry = make_entry(
        Match.from_five_tuple("192.168.0.1", "10.1.0.1", 6, 40000, 80),
        [OutputAction(1)], idle_timeout=60.0, cookie="churn",
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
        results[f"daemon_answer_sockets_{sockets}"] = _timeit(_daemon_answer(sockets))
    results["daemon_answer_sockets_4096"]["vs_16"] = _vs(
        results["daemon_answer_sockets_16"], results["daemon_answer_sockets_4096"]
    )


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


#: Events one event-loop iteration schedules; packets one hop iteration sends.
_LOOP_BATCH = 1000
_HOP_BATCH = 200


def bench_event_loop(results: dict) -> None:
    """Scheduled events per second: all firing, and nine in ten cancelled."""
    clean = results["event_loop_clean"] = _per_item(_timeit(_event_loop(0)), _LOOP_BATCH)
    cancelled = results["event_loop_90pct_cancelled"] = _per_item(
        _timeit(_event_loop(9)), _LOOP_BATCH
    )
    cancelled["vs_clean"] = _vs(clean, cancelled)
    off = results["packet_hop"] = _per_item(_timeit(_packet_hops(capture=False)), 2 * _HOP_BATCH)
    captured = results["packet_hop_captured"] = _per_item(
        _timeit(_packet_hops(capture=True)), 2 * _HOP_BATCH
    )
    captured["vs_off"] = _vs(off, captured)


def _event_loop(cancelled_tenths: int):
    """Schedule a batch of no-op events and run the simulator over them.

    ``cancelled_tenths`` of every ten are armed whole seconds ahead and
    cancelled at once, the way a timeout that almost never fires is
    used.  Their records must not pile up in the heap, and dropping
    them must not cost more than firing them would.
    """
    sim = Simulator()

    def noop() -> None:
        pass

    def iteration() -> None:
        for index in range(_LOOP_BATCH):
            if index % 10 < cancelled_tenths:
                sim.schedule(5.0, noop, label="backstop").cancel()
            else:
                sim.schedule(1e-3, noop, label="work")
        sim.run(until=sim.now + 1e-3)

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
    switch.flow_table.install(make_entry(Match(tp_dst=80), [OutputAction(2)]))
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
