"""The accepted table: the findings of the program rules and of ``make reach`` that stay.

One ``Row(rule, qualname, category, reason, test)`` per finding kept.
``rule`` is ``R13``, ``R14`` or ``R16``, or ``reach`` for a function no
entry point enters (``tools/reach.py``, which reads the ``R16`` rows
too).  ``docs/ANALYSIS.md`` ("The accepted table") defines the
categories and limits; :func:`stale_rows` is the one staleness check
lint and ``make reach`` share, so the table can only shrink.
"""

from __future__ import annotations

import ast
import functools
from pathlib import Path
from typing import NamedTuple, Optional


class Row(NamedTuple):
    rule: str
    qualname: str
    category: str
    reason: str
    #: ``tests/file.py::Class::test`` that drives it.
    test: str


#: The categories each rule's rows may take; a rule not named takes none.
CATEGORIES = {
    "R13": ("seam", "fault", "surface"),
    "R14": ("seam", "fault", "surface"),
    "R16": ("reading",),
    "reach": ("fault", "surface"),
}
#: The most rows the rules of each group may hold together.
LIMITS = {("R13", "R14"): 25, ("reach", "R16"): 60, ("R16",): 6}

ACCEPTED: tuple[Row, ...] = (
    # R13: a keyword or field that keeps its default
    Row("R13", "QueryEngine.query_both_ends", "seam",
        "the engine's synchronous pair query: the tests' explicit now= clock, and the from_node / "
        "interceptors QueryClient.query takes; perf/tracing.py pins it",
        "tests/test_reach.py::test_every_traced_layer_keeps_a_name_that_resolves"),
    Row("R13", "QueryClient.query_both_ends", "seam",
        "the client's pair query the engine tests compare the engine with; perf/tracing.py pins "
        "it",
        "tests/test_query_engine.py::TestPerRoleInterceptorOrdering::test_query_both_ends_walks_reversed_toward_source"),
    Row("R13", "churn_soak", "seam", "the churn soak's sizes, which tier-1 shrinks",
        "tests/test_churn_workload.py::TestChurnSoak::test_without_sweeps_state_grows_unbounded"),
    Row("R13", "conficker_detection", "seam", "the telemetry soak's sizes, which tier-1 shrinks",
        "tests/test_telemetry.py::TestEndToEnd::test_conficker_outbreak_detected_by_telemetry_alone"),
    Row("R13", "ScenarioSpec", "seam",
        "a matrix cell's sizes (servers, duration) tier-1 shrinks, and sanitize, which its "
        "sanitized end-to-end run turns on",
        "tests/test_experiment_matrix.py::TestRunCell::test_repeats_thread_distinct_seeds"),
    Row("R13", "Link", "fault", "loss_filter: a lossy link (ROADMAP item 2)",
        "tests/test_hit_path_reference.py::TestDifferential::test_every_delivery_message_record_and_byte_is_the_same"),
    Row("R13", "OpenFlowSwitch", "fault",
        "table_capacity: a full table (item 2); fail_mode: a switch cut off from its controller "
        "failing open",
        "tests/test_openflow_switch_controller.py::TestSwitchDatapath::test_fail_open_floods_on_miss_without_controller"),
    Row("R13", "IdentPPDaemon", "fault", "push_capable: a daemon too old to push (item 2)",
        "tests/test_push_plane.py::TestDaemonPush::test_legacy_daemon_refuses_with_pull_ack"),
    Row("R13", "FlowTable", "fault", "capacity: a full table and its LRU eviction (item 2)",
        "tests/test_openflow_match_table.py::TestFlowTable::test_lru_eviction_at_capacity"),
    Row("R13", "Simulator.enable_sanitizer", "fault",
        "perturb_ties: same-instant events served in another legal order (item 19)",
        "tests/test_dispatch_reference.py::test_one_arrival_decides_what_two_answer_events_decided"),
    Row("R13", "EndHost.mark_compromised", "fault", "superuser: a host compromised as root (§5)",
        "tests/test_core_controller_network.py::TestCompromisedComponents::test_compromised_host_daemon_spoofs_identity"),
    Row("R13", "Application", "fault",
        "contents: a trojaned binary, same name and path, another exe-hash (§5)",
        "tests/test_hosts.py::TestApplications::test_exe_hash_follows_the_contents_not_the_name"),
    Row("R13", "Match", "surface", "OpenFlow 1.0 match fields no installed path constrains",
        "tests/test_openflow_match_table.py::TestMatch::test_exact_match_from_packet"),
    Row("R13", "Packet", "surface", "Ethernet and VLAN headers, payload and the capture's metadata",
        "tests/test_netsim_packet.py::TestPacketConstruction::test_non_ip_packet"),
    Row("R13", "Packet.tcp", "surface", "a TCP packet's payload, as Packet takes it",
        "tests/test_netsim_packet.py::TestPacketConstruction::test_tcp_constructor"),
    Row("R13", "PacketOut", "surface", "OpenFlow packet-out data: a packet that is not buffered",
        "tests/test_openflow_switch_controller.py::TestSwitchDatapath::test_action_lists_dispatch_on_each_action"),
    Row("R13", "ResponseDocument", "surface", "an ident++ response body read back in sections",
        "tests/test_audit_footprint.py::TestKeyView::test_equals_the_flat_dict_in_content_and_order"),
    Row("R13", "parse_response_payload", "surface",
        "the flow a parsed ident++ response answers, when the wire omits it",
        "tests/test_identpp_protocol.py::TestWireFormat::test_response_payload_round_trip"),
    # R14: a count only the tests read
    Row("R14", "FlowTable.evictions", "fault", "what the capacity= seam evicted",
        "tests/test_openflow_match_table.py::TestFlowTable::test_lru_eviction_at_capacity"),
    Row("R14", "PacketTrace.dropped", "surface",
        "a capture's drop count, as pcap reports one: records the ring evicted",
        "tests/test_packet_capture.py::TestRing::test_overflow_evicts_oldest_first_and_counts_it"),
    # reach: a fault path
    Row("reach", "FlowTable._evict_lru", "fault",
        "a switch table at capacity; every workload sizes its tables to fit",
        "tests/test_openflow_match_table.py::TestFlowTable::test_lru_eviction_at_capacity"),
    Row("reach", "Node.flood", "fault",
        "a compromised switch, a fail-open miss with no controller, or a flood action; no "
        "workload compromises a switch or floods",
        "tests/test_openflow_switch_controller.py::TestSwitchDatapath::test_compromised_switch_floods_everything"),
    Row("reach", "Packet.copy", "fault",
        "a flood sends one copy per port, and only a flood copies a packet",
        "tests/test_netsim_packet.py::TestPacketViews::test_copy_gets_new_id_and_independent_metadata"),
    Row("reach", "Node.port", "fault",
        "an output action naming a port the switch lacks raises PortError through it",
        "tests/test_netsim_nodes_links.py::TestPorts::test_unknown_port_rejected"),
    Row("reach", "ControllerChannel._sim", "fault",
        "a channel whose switch has no simulator: it borrows the controller's, or raises "
        "ChannelError",
        "tests/test_openflow_switch_controller.py::TestControllerBase::test_a_channel_runs_on_the_controllers_clock_or_refuses_without_one"),
    Row("reach", "Controller.channel_for", "fault",
        "a message to a switch the controller never registered raises ChannelError through it",
        "tests/test_openflow_switch_controller.py::TestControllerBase::test_unknown_switch_channel_rejected"),
    Row("reach", "Controller.mark_compromised", "fault",
        "the §5 compromise hook of a controller: no workload compromises one",
        "tests/test_core_controller_network.py::TestCompromisedComponents::test_compromised_controller_forwards_everything"),
    Row("reach", "OpenFlowSwitch.mark_compromised", "fault",
        "the §5 compromise hook of a switch: no workload compromises one",
        "tests/test_core_controller_network.py::TestCompromisedComponents::test_compromised_switch_forwards_blocked_traffic"),
    Row("reach", "OpenFlowSwitch.restore", "fault", "undoes the §5 compromise hook of a switch",
        "tests/test_core_controller_network.py::TestCompromisedComponents::test_compromised_switch_forwards_blocked_traffic"),
    # reach: protocol surface no workload sends
    Row("reach", "_first_line", "surface",
        "the ident++ wire's first line (proto and ports); the engine hands answers over "
        "in-process, so no workload encodes one",
        "tests/test_identpp_protocol.py::TestWireFormat::test_query_round_trip_via_packet"),
    Row("reach", "_parse_first_line", "surface",
        "parses the ident++ wire's first line; no workload decodes one",
        "tests/test_identpp_protocol.py::TestWireFormat::test_query_round_trip_via_packet"),
    Row("reach", "ResponseDocument.to_body", "surface",
        "the ident++ response body on the wire: key: value lines, sections apart",
        "tests/test_identpp_protocol.py::TestKeyValueSections::test_body_round_trip"),
    Row("reach", "ResponseDocument.from_body", "surface",
        "parses an ident++ response body off the wire",
        "tests/test_identpp_protocol.py::TestKeyValueSections::test_body_round_trip"),
    Row("reach", "_fn_gt", "surface", "PF+=2's gt(); no shipped policy calls it",
        "tests/test_pf_evaluator.py::TestComparisonFunctions::test_ordering_functions"),
    Row("reach", "_fn_gte", "surface", "PF+=2's gte(); no shipped policy calls it",
        "tests/test_pf_evaluator.py::TestComparisonFunctions::test_ordering_functions"),
    Row("reach", "_fn_lte", "surface", "PF+=2's lte(); no shipped policy calls it",
        "tests/test_pf_evaluator.py::TestComparisonFunctions::test_ordering_functions"),
    Row("reach", "_split_list", "surface",
        "a PF+=2 macro used as an address list ({ a b }); no shipped policy has one",
        "tests/test_pf_evaluator.py::TestEndpointMatching::test_macro_as_address_list"),
    Row("reach", "_parse_literal", "surface",
        "a PF+=2 address literal met at evaluation time (a macro's value); no shipped policy has "
        "one",
        "tests/test_pf_evaluator.py::TestEndpointMatching::test_macro_as_address_list"),
    Row("reach", "Match.matches", "surface",
        "OpenFlow 1.0 match semantics, field by field; the table's indexes decide lookups, and "
        "the flow-table differential holds them to this",
        "tests/test_openflow_match_table.py::TestMatch::test_wildcard_matches_everything"),
    Row("reach", "_ip_field_matches", "surface",
        "OpenFlow 1.0 address or prefix match of one field",
        "tests/test_openflow_match_table.py::TestMatch::test_wildcard_matches_everything"),
    Row("reach", "Match.covers", "surface",
        "OpenFlow 1.0 non-strict delete: which entries a match covers",
        "tests/test_openflow_match_table.py::TestMatch::test_covers"),
    Row("reach", "_ip_field_covers", "surface",
        "OpenFlow 1.0 non-strict delete of one address or prefix field",
        "tests/test_openflow_match_table.py::TestMatch::test_covers"),
    Row("reach", "FlowTable._covered_by", "surface",
        "OpenFlow 1.0 non-strict delete; installs and unwinds remove strictly or by cookie",
        "tests/test_openflow_match_table.py::TestFlowTable::test_remove_covered"),
    Row("reach", "_no_fields", "surface",
        "the key of an all-wildcard OpenFlow entry; no workload installs one",
        "tests/test_openflow_match_table.py::TestFlowTable::test_priority_wins"),
    Row("reach", "Event.cancelled", "surface",
        "whether a held event was cancelled; the event loop and every product caller read or "
        "drop the record itself",
        "tests/test_netsim_events.py::TestEventOrdering::test_record_fields_are_read_only_views"),
    # R16 (and reach): a reading
    Row("R16", "IdentPPDaemon.subscriber_count", "reading",
        "a side-effect-free reading of the daemon's subscribers that the push-plane and failover "
        "tests assert on; no other public name gives it",
        "tests/test_push_plane.py::TestDaemonPush::test_one_subscription_per_subscriber_name_and_one_delta_per_listener"),
    Row("R16", "QueryOutcome.succeeded", "reading",
        "a side-effect-free reading of whether some party answered a query; the client, engine "
        "and decision-core tests assert on it",
        "tests/test_identpp_daemon.py::TestQueryClient::test_query_returns_daemon_answer_and_latency"),
    Row("R16", "RuntimeKeyRegistry.publish_for_flow", "reading",
        "the per-flow runtime pairs of §3.5: answer() and answer_is_shareable() read them, and "
        "the identity-plane differential generates them",
        "tests/test_identpp_daemon.py::TestDaemonAnswers::test_runtime_keys_from_application"),
)


@functools.cache
def _test_file(path: Path) -> ast.Module:
    return ast.parse(path.read_text(), filename=str(path))


def names_a_test(node_id: str, root: Path) -> bool:
    """Whether ``tests/file.py::Class::test`` names a file and, in it, those definitions."""
    path, *names = node_id.split("::")
    if not names or not (root / path).is_file():
        return False
    body = _test_file(root / path).body
    for name in names:
        found = [
            node for node in body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and node.name == name
        ]
        if not found:
            return False
        body = found[0].body
    return True


def stale_rows(rows, judged: set[str], found: set[str], root: Path) -> list[tuple[Row, str]]:
    """``(row, why)`` of each row to drop: it names nothing its rule judges,
    its finding is gone, or its test is not found."""
    stale = []
    for row in rows:
        if row.qualname not in judged:
            stale.append((row, "names nothing the rule judges"))
        elif row.qualname not in found:
            stale.append((row, "its finding is gone"))
        if not names_a_test(row.test, root):
            stale.append((row, f"no such test: {row.test}"))
    return stale


def shape_problems(rows) -> list[tuple[Optional[Row], str]]:
    """``(row or None, why)`` of each break of the table's own rules: a
    category its rule does not take, an empty reason, a group over its limit."""
    problems: list[tuple[Optional[Row], str]] = []
    for row in rows:
        if row.category not in CATEGORIES.get(row.rule, ()):
            problems.append((row, f"{row.rule} takes no {row.category!r} row"))
        if not row.reason.strip():
            problems.append((row, "no reason"))
    for rules, limit in LIMITS.items():
        held = sum(row.rule in rules for row in rows)
        if held > limit:
            problems.append((None, f"{held} {'/'.join(rules)} rows, more than {limit}"))
    return problems
