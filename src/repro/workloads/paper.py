"""The paper's own claims, E1–E12, as one gated and recorded soak.

The paper reports no numbers: its evaluation is Figure 1's walkthrough,
the verdicts implied by the configuration files of Figures 2–8, §4's
collaboration and incremental-deployment arguments and §5's compromise
analysis.  Each is a step here: a plain function returning the table it
prints (``rows``) beside the scalars its gates read — virtual time and
counts only, so an entry is exact for a seed and ``make bench`` records
it under ``results.paper_*``.  What the paper expects is written once:
as a violation where the step can name the case, as a :class:`Gate` row
where it bounds a number.  E10's second half (evaluator cost against
ruleset size) is a count of the micro-benches:
``results.policy_eval_compiled_*`` and its ``opcodes_vs_10`` ratio.

    python -m repro.workloads.soak paper      # = make soak_paper
"""

from __future__ import annotations

import operator
from typing import Optional

from repro.baselines.base import BaselineDecider
from repro.baselines.ethane import EthanePolicy
from repro.core.controller import ControllerConfig, IdentPPController
from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.identpp.wire import IdentQuery
from repro.pf.evaluator import PolicyEvaluator
from repro.pf.parser import parse_ruleset
from repro.workloads import comparative, scenarios
from repro.workloads.generators import FlowGenerator, FlowTemplate
from repro.workloads.soak import Gate, Soak, add_web_hosts, ratio

#: E1: Figure 1 on 1, 2 and 4 switches over LAN, campus and WAN links.
E1_SWITCHES = (1, 2, 4)
E1_LATENCIES = (50e-6, 500e-6, 5e-3)
#: Asking both ends (§2 step 3) is where a flow setup's time goes: at
#: least this share of the controller's decision at every point (0.857
#: on the shortest, fastest path; it only rises from there).
E1_QUERY_SHARE_FLOOR = 0.8
#: E10a: ident++'s first packet trails the Ethane-style baseline's by the
#: two endpoint queries plus one eval, and by at most this much more
#: than that sum (0.812 ms against 0.800 ms: 1.015).
E10_OVERHEAD_CEILING = 1.05
#: E7: twelve flows of three packets, so every quarter of the sweep is a
#: whole number of flows.  E12a is its half-unwanted point on eight.
E7_FLOWS, E7_PACKETS, E12_FLOWS = 12, 3, 8
E7_FRACTIONS = (0.0, 0.25, 0.5, 0.75)
#: E8: two users of three flows behind one address; six clients, of
#: which none, half or all run a daemon.
E8_FLOWS_PER_USER, E8_CLIENTS = 3, 6
E8_FRACTIONS = (0.0, 0.5, 1.0)
#: E11: sixty packets from four clients — one in five a new connection
#: on Zipf-popular flows, against every packet a new flow.
E11_PACKETS, E11_CLIENTS, E11_SEED = 60, 4, 11
E11_POLICY = {
    "00-default.control":
        "block all\npass from any to any with member(@src[groupID], staff) keep state\n",
}


def _ms(seconds: Optional[float]) -> Optional[float]:
    """Virtual seconds as milliseconds to the nanosecond (sums of link
    latencies carry float dust below that); ``None`` stays ``None``."""
    return None if seconds is None else round(seconds * 1e3, 6)


def _unmet(prefix: str, *claims: tuple[bool, str]) -> list[str]:
    """Return ``prefix + claim`` for every ``(holds, claim)`` that does not hold."""
    return [prefix + claim for holds, claim in claims if not holds]


def _ask(net: IdentPPNetwork, src: str, app: str, user: str, dst: str, port: int) -> tuple:
    """Open one flow without sending it; return it and both daemons' answers."""
    packet, _, _ = net.host(src).open_flow(app, user, str(net.host(dst).ip), port, send=False)
    flow = FlowSpec.from_packet(packet)
    return flow, *(
        net.daemon(name).answer(IdentQuery(flow=flow, target_role=role)).document
        for name, role in ((src, "src"), (dst, "dst"))
    )


def paper_e1_flow_setup() -> dict:
    """E1 / Figure 1: where a reactive flow setup's time goes."""
    rows, violations = [], []
    for switches in E1_SWITCHES:
        for latency in E1_LATENCIES:
            sample = scenarios.flow_setup(switch_count=switches, link_latency=latency)
            row = {
                "switches": switches,
                "link_latency_ms": _ms(latency),
                "query_ms": _ms(sample["query_latency"]),
                "eval_ms": _ms(sample["policy_delay"]),
                "decision_ms": _ms(sample["controller_decision_latency"]),
                "end_to_end_ms": _ms(sample["end_to_end_delivery"]),
            }
            at = f"at switches={switches}, latency={row['link_latency_ms']} ms"
            if row["end_to_end_ms"] is None:
                violations.append(f"first packet never delivered {at}")
            if row["decision_ms"] != round(row["query_ms"] + row["eval_ms"], 6):
                violations.append(f"decision {row['decision_ms']} ms is not query + eval {at}")
            # Every earlier row has a path no longer; where its links are
            # no slower either, its queries must have been faster.
            violations.extend(
                f"queries no slower {at} than at switches={near['switches']}, "
                f"latency={near['link_latency_ms']} ms"
                for near in rows
                if near["link_latency_ms"] <= row["link_latency_ms"]
                and near["query_ms"] >= row["query_ms"]
            )
            rows.append(row)
    share = min(ratio(row["query_ms"], row["decision_ms"]) for row in rows)
    return {"rows": rows, "min_query_share": round(share, 3), "violations": violations}


def paper_e2_skype() -> dict:
    """E2 / Figure 2: the three-file Skype policy, case by case."""
    scenario = scenarios.SkypeScenario()
    entry = scenario.run()
    entry["audited"] = scenario.net.controller.audit.summary()["total"]
    if entry["audited"] != len(entry["rows"]):
        entry["violations"].append(f"{entry['audited']} decisions audited, not one per case")
    return entry


def paper_e3_daemon() -> dict:
    """E3 / Figure 3: what the skype ``@app`` file makes a daemon answer."""
    scenario = scenarios.SkypeScenario()
    _, document, _ = _ask(scenario.net, "lan-a", "skype", "alice", "lan-b", scenario.SKYPE_PORT)
    answered = {
        key: document.latest(key)
        for key in ("userID", "groupID", "name", "version", "vendor", "type",
                    "exe-hash", "requirements", "req-sig")
    }
    return {
        "rows": [{"key": key, "value": (value or "")[:40]} for key, value in answered.items()],
        "sections": document.section_count(),
        "violations": _unmet(
            "the daemon's answer: ",
            (answered["name"] == "skype", "name is not skype"),
            (answered["version"] == "210", "version is not 210"),
            (answered["req-sig"] is not None, "no req-sig: the requirements are unsigned"),
            (document.section_count() >= 2, "the @app section was not added to the host's own"),
        ),
    }


def paper_e4_research_delegation() -> dict:
    """E4 / Figures 4-5: a researcher's signed rules, honoured and refused."""
    scenario = scenarios.ResearchDelegationScenario()
    entry = scenario.run()
    decision = scenario.net.controller.policy.decide(*_ask(
        scenario.net, "research-a", "research-app", "carol", "research-b", scenario.APP_PORT
    ))
    entry["delegation_functions"] = list(decision.delegation_functions)
    if not decision.delegated or "verify" not in decision.delegation_functions:
        entry["violations"].append("the good research flow was not decided through verify()")
    return entry


def paper_e5_thirdparty_trust() -> dict:
    """E5 / Figures 6-7: applications Secur signed for, and nothing else."""
    scenario = scenarios.ThirdPartyTrustScenario()
    entry = scenario.run()
    decision = scenario.net.controller.policy.decide(
        *_ask(scenario.net, "client", "thunderbird", "alice", "mail-server", 25)
    )
    entry["principals"] = list(decision.principals)
    if not decision.delegated or entry["principals"] != ["Secur"]:
        entry["violations"].append("approved mail was not decided on Secur's word alone")
    return entry


def paper_e6_conficker() -> dict:
    """E6 / Figure 8: only patched hosts, only ``system`` users, no worm probe."""
    return scenarios.ConfickerScenario().run()


def _branches(collaborate: bool, fraction: float = 0.5, flows: int = E7_FLOWS) -> dict:
    return comparative.collaboration(
        collaborate=collaborate, flows=flows, unwanted_fraction=fraction,
        packets_per_flow=E7_PACKETS,
    )


def paper_e7_collaboration() -> dict:
    """E7 / §4: the remote branch says what it will not accept."""
    rows, violations = [], []
    for fraction in E7_FRACTIONS:
        alone, told = _branches(False, fraction), _branches(True, fraction)
        saved = ratio(
            alone["bottleneck_bytes"] - told["bottleneck_bytes"], alone["bottleneck_bytes"]
        )
        row = {"unwanted_fraction": fraction, "unwanted_flows": told["unwanted_flows"],
               "bytes_saved_fraction": round(saved, 3)}
        for field in ("bottleneck_bytes", "wanted_delivered", "remote_packet_ins"):
            row[f"{field}_no_collab"] = alone[field]
            row[f"{field}_collab"] = told[field]
        unwanted = round(E7_FLOWS * fraction)
        wanted = (E7_FLOWS - unwanted) * E7_PACKETS
        violations += _unmet(
            f"at fraction {fraction}, without / with collaboration: ",
            (alone["unwanted_flows"] == told["unwanted_flows"] == unwanted,
             f"{alone['unwanted_flows']} / {told['unwanted_flows']} flows unwanted, "
             f"not {unwanted}"),
            (alone["wanted_delivered"] == told["wanted_delivered"] == wanted,
             f"{alone['wanted_delivered']} / {told['wanted_delivered']} wanted packets "
             f"delivered, not {wanted}"),
            (not rows or saved > rows[-1]["bytes_saved_fraction"],
             f"{saved:.3f} of the bottleneck bytes saved, no more than at the fraction before"),
        )
        rows.append(row)
    return {"rows": rows, "violations": violations}


def paper_e8_incremental() -> dict:
    """E8 / §4: what partial deployment already buys."""
    identification_rows, rows, violations = [], [], []
    for deployment, with_daemon in (
        ("ident++ daemon on the shared host", True), ("no daemon (status quo)", False)
    ):
        seen = comparative.nat_identification(
            flows_per_user=E8_FLOWS_PER_USER, with_daemon=with_daemon
        )
        identification_rows.append({
            "deployment": deployment, "flows": seen["flows"],
            "identified_fraction": seen["identified_fraction"],
            "distinct_users_seen": seen["distinct_users_reported"],
        })
        if seen["identified_fraction"] != float(with_daemon):
            violations.append(
                f"{deployment}: the server identified {seen['identified_fraction']:g}"
            )
    for answers in (False, True):
        for fraction in E8_FRACTIONS:
            allowed = comparative.partial_deployment(
                clients=E8_CLIENTS, deployment_fraction=fraction,
                controller_answers_for_legacy=answers,
            )["allowed_fraction"]
            rows.append({"daemon_deployment": fraction, "controller_answers_for_legacy": answers,
                         "legitimate_flows_allowed": allowed})
            # Admission tracks deployment, or is complete once the
            # controller vouches for the legacy hosts.
            if allowed != (1.0 if answers else fraction):
                violations.append(f"{allowed:g} of the legitimate flows admitted at deployment "
                                  f"{fraction}, controller answering for legacy hosts: {answers}")
    return {"rows": rows, "identification_rows": identification_rows, "violations": violations}


def paper_e9_security_matrix() -> dict:
    """E9 / §5: what each compromise buys, per architecture."""
    matrix = comparative.SecurityComparisonScenario().build_matrix()
    rows = matrix.exposure_rows()

    def exposed(architecture: str, component: str) -> float:
        return next(row[architecture] for row in rows if row["scenario"].startswith(component))

    return {
        "rows": rows,
        "gained_rows": matrix.rows(),
        "violations": _unmet(
            "§5 ordering broken: ",
            (exposed("identpp", "controller") == 1.0,
             "a compromised controller exposes everything (§5.1)"),
            (exposed("distributed-firewall", "switch") < exposed("identpp", "switch"),
             "a compromised switch leaves end-host-enforced firewalls standing (§5.2)"),
            (exposed("identpp", "end-host") >= exposed("ethane", "end-host"),
             "a lying end-host fools ident++ at least as much as Ethane (§5.3)"),
            (exposed("identpp", "user-application") <= exposed("identpp", "end-host"),
             "a compromised application buys no more than its whole host (§5.4)"),
        ),
    }


def _ethane_first_packet() -> tuple[Optional[float], int]:
    """First-packet latency under Ethane on E1's two-switch line, and the
    end-host queries it took (sent by the controller plus answered by the
    daemons both hosts run).

    Ethane is the one controller over an address-only decider, with no
    eval slot: it pays only the control-channel round trip.
    """
    net = IdentPPNetwork("ethane-baseline", create_default_controller=False)
    ethane = IdentPPController(
        "ethane", net.topology, BaselineDecider(EthanePolicy(default_action="pass")),
        config=ControllerConfig(policy_eval_delay=0.0),
    )
    left, right = (net.add_switch(name, controller=ethane) for name in ("sw-left", "sw-right"))
    net.connect(left, right)
    client = net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("staff",)}), switch=left
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=right)
    server.run_server("httpd", "root", 80)
    client.open_flow("http", "alice", "192.168.1.1", 80)
    net.topology.run()
    queries = ethane.query_client.queries_sent + sum(
        daemon.queries_answered.value for daemon in net.daemons.values()
    )
    return (server.delivered_times[0] if server.delivered_times else None), queries


def paper_e10_setup_vs_ethane() -> dict:
    """E10a / §3.1: what asking the end-hosts adds to a first packet."""
    identpp = scenarios.flow_setup(switch_count=2)
    ethane, ethane_queries = _ethane_first_packet()
    first = {"identpp (queries both ends)": identpp["end_to_end_delivery"],
             "ethane-style (no end-host queries)": ethane}
    undelivered = [name for name, latency in first.items() if latency is None]
    asking, not_asking = first.values()
    overhead = None if undelivered else asking - not_asking
    floor = identpp["query_latency"] + identpp["policy_delay"]
    return {
        "rows": [{"architecture": name, "first_packet_ms": _ms(latency)}
                 for name, latency in (*first.items(), ("identpp overhead", overhead))],
        "queries_plus_eval_ms": _ms(floor),
        # 0.0, beside the violation, when a first packet went missing.
        "overhead_vs_queries_plus_eval": round(ratio(overhead or 0.0, floor), 3),
        "ethane_end_host_queries": ethane_queries,
        "violations": [f"first packet never delivered under {name}" for name in undelivered],
    }


def _packet_train(workload: str, *, new_connection_probability: float, zipf_skew) -> dict:
    """Drive E11's packets through one ident++ switch; return its row."""
    net = IdentPPNetwork("cache-bench")
    switch = net.add_switch("sw")
    add_web_hosts(net, [switch], switch, E11_CLIENTS)
    net.set_policy(E11_POLICY)
    templates = [
        FlowTemplate(f"client{index}", "server", str(net.host(f"client{index}").ip),
                     "192.168.1.1", 80, "http", "alice")
        for index in range(E11_CLIENTS)
    ]
    sockets: dict[tuple, object] = {}
    for template, flow in FlowGenerator(templates, seed=E11_SEED, zipf_skew=zipf_skew).sequence(
        E11_PACKETS, new_connection_probability=new_connection_probability
    ):
        host, key = net.host(template.src_host), flow.as_tuple()
        if key in sockets:
            host.send_on_socket(sockets[key])
        else:
            _, sockets[key], _ = host.open_flow(
                template.app_name, template.user_name, template.dst_ip, template.dst_port
            )
        net.topology.run()
    return {
        "workload": workload,
        "packets": E11_PACKETS,
        "distinct_flows": len(sockets),
        "flow_table_hit_rate": round(switch.flow_table.stats()["hit_rate"], 3),
        "controller_packet_ins": net.controller.packet_ins,
    }


def paper_e11_flow_cache() -> dict:
    """E11 / §3.1: the flow table is the decision cache."""
    trains = _packet_train("zipf, long-lived flows", new_connection_probability=0.2, zipf_skew=1.2)
    fresh = _packet_train(
        "uniform, every packet a new flow", new_connection_probability=1.0, zipf_skew=None
    )
    return {
        "rows": [trains, fresh],
        "violations": _unmet(
            "long-lived flows, against one-packet flows, did not ",
            (trains["flow_table_hit_rate"] > fresh["flow_table_hit_rate"],
             "hit the flow table more often"),
            (trains["controller_packet_ins"] < fresh["controller_packet_ins"],
             "cost the controller fewer packet-ins"),
        ),
    }


def paper_e12_ablations() -> dict:
    """E12 / §3.2, §3.4: response augmentation off; ``@src`` without ``*@src``."""
    told, alone = _branches(True, flows=E12_FLOWS), _branches(False, flows=E12_FLOWS)
    violations = []
    if told["bottleneck_bytes"] >= alone["bottleneck_bytes"]:
        violations.append("response augmentation saved no bottleneck bytes")
    # An upstream section said "mallory"; a later, on-path one overwrote it.
    overwritten, consistent = ResponseDocument(), ResponseDocument()
    overwritten.add_section({"userID": "mallory"}, source="end-host")
    overwritten.add_section({"userID": "trusted"}, source="on-path-controller")
    consistent.add_section({"userID": "trusted"}, source="end-host")
    flow = FlowSpec.tcp("10.1.0.10", "10.2.0.10", 40000, 9999)
    lookup_rows = []
    for lookup, rule, expected in (
        ("@src only (latest value wins)",
         "pass all with eq(@src[userID], trusted)", ("pass", "pass")),
        ("@src and *@src (whole chain checked)",
         "pass all with eq(@src[userID], trusted) with eq(*@src[userID], trusted)",
         ("block", "pass")),
    ):
        policy = PolicyEvaluator(parse_ruleset(f"block all\n{rule}"), default_action="block")
        verdicts = tuple(policy.evaluate(flow, chain).action for chain in (overwritten, consistent))
        lookup_rows.append({"lookup": lookup, "overwritten_chain": verdicts[0],
                            "consistent_chain": verdicts[1]})
        if verdicts != expected:
            violations.append(f"{lookup}: {' / '.join(verdicts)} on the overwritten / consistent "
                              f"chain, not {' / '.join(expected)}")
    return {
        "rows": [
            {"configuration": "with response augmentation (§3.4)",
             "bottleneck_bytes": told["bottleneck_bytes"]},
            {"configuration": "augmentation disabled (ablation)",
             "bottleneck_bytes": alone["bottleneck_bytes"]},
        ],
        "lookup_rows": lookup_rows,
        "violations": violations,
    }


_E10_RATIO = "paper_e10_setup_vs_ethane.overhead_vs_queries_plus_eval"
_E10_TRAILS = "ident++'s first packet trails the Ethane-style baseline's by {value}x the queries plus one eval"

SOAK = Soak(
    steps=tuple((step.__name__, step) for step in (
        paper_e1_flow_setup, paper_e2_skype, paper_e3_daemon, paper_e4_research_delegation,
        paper_e5_thirdparty_trust, paper_e6_conficker, paper_e7_collaboration,
        paper_e8_incremental, paper_e9_security_matrix, paper_e10_setup_vs_ethane,
        paper_e11_flow_cache, paper_e12_ablations,
    )),
    gates=(
        Gate("paper_e1_flow_setup.min_query_share", operator.ge, E1_QUERY_SHARE_FLOOR,
             "the endpoint queries are only {value} of a flow setup's decision time "
             f"somewhere in the sweep (floor {E1_QUERY_SHARE_FLOOR:g})"),
        Gate(_E10_RATIO, operator.ge, 1.0, f"{_E10_TRAILS}: less than it must pay"),
        Gate(_E10_RATIO, operator.le, E10_OVERHEAD_CEILING,
             f"{_E10_TRAILS} (ceiling {E10_OVERHEAD_CEILING:g}x)"),
        Gate("paper_e10_setup_vs_ethane.ethane_end_host_queries", operator.eq, 0,
             "Ethane's first packet took {value} end-host queries; it can ask nobody"),
    ),
    ok=(
        "paper soak ok: E1-E12 read as the paper says — Figure 1's breakdown, every "
        "verdict of Figures 2-8, §4's collaboration and deployment, §5's orderings"
    ),
)
