"""The functions of ``src/repro`` that no product entry point enters, and why each stays.

``qualname -> (category, test, reason)``; ``tools/reach.py`` fails on
an entry that is entered now, names no definition or names a test that
does not exist, so the list can only shrink.  The categories:

* ``fault``: entered only when something fails or changes outside a
  workload's script (a deadline that fires, a full table, a compromise,
  malformed input);
* ``surface``: a message or language element of a protocol the system
  speaks (the ident++ wire, PF+=2, OpenFlow 1.0 matching) that a test
  drives but no shipped workload sends;
* ``reading``: a side-effect-free reading the tests assert on that no
  other public name gives.  ``tests/test_options_have_callers.py`` takes
  these rows as its allowlist.
"""

CATEGORIES = ("fault", "surface", "reading")
LIMIT = 60
READING_LIMIT = 6

ACCEPTED: dict[str, tuple[str, str, str]] = {
    # ------------------------------------------------------------------
    # fault
    # ------------------------------------------------------------------
    "IdentPPController._pending_deadline_fired": (
        "fault",
        "tests/test_lifecycle_churn.py::TestFailClosedPuntPipeline::test_lost_decision_hits_pending_deadline",
        "the fail-closed backstop for a punt whose answers never came: it fires only "
        "when a decision is lost, which no green run does",
    ),
    "IdentPPDaemon._on_user_change": (
        "fault",
        "tests/test_query_engine.py::TestEngineInvalidation::test_group_membership_change_invalidates",
        "a host's user or group table changing under a running daemon; no workload "
        "edits accounts mid-run",
    ),
    "FlowTable._evict_lru": (
        "fault",
        "tests/test_openflow_match_table.py::TestFlowTable::test_lru_eviction_at_capacity",
        "a switch table at capacity; every workload sizes its tables to fit",
    ),
    "Node.flood": (
        "fault",
        "tests/test_openflow_switch_controller.py::TestSwitchDatapath::test_compromised_switch_floods_everything",
        "a compromised switch, a fail-open miss with no controller, or a flood action; "
        "no workload compromises a switch or floods",
    ),
    "Packet.copy": (
        "fault",
        "tests/test_netsim_packet.py::TestPacketViews::test_copy_gets_new_id_and_independent_metadata",
        "a flood sends one copy per port, and only a flood copies a packet",
    ),
    "Node.port": (
        "fault",
        "tests/test_netsim_nodes_links.py::TestPorts::test_unknown_port_rejected",
        "an output action naming a port the switch lacks raises PortError through it",
    ),
    "ControllerChannel._sim": (
        "fault",
        "tests/test_openflow_switch_controller.py::TestControllerBase::test_a_channel_runs_on_the_controllers_clock_or_refuses_without_one",
        "a channel whose switch has no simulator: it borrows the controller's, or "
        "raises ChannelError",
    ),
    "Controller.channel_for": (
        "fault",
        "tests/test_openflow_switch_controller.py::TestControllerBase::test_unknown_switch_channel_rejected",
        "a message to a switch the controller never registered raises ChannelError "
        "through it",
    ),
    "Controller.mark_compromised": (
        "fault",
        "tests/test_core_controller_network.py::TestCompromisedComponents::test_compromised_controller_forwards_everything",
        "the §5 compromise hook of a controller: no workload compromises one",
    ),
    "OpenFlowSwitch.mark_compromised": (
        "fault",
        "tests/test_core_controller_network.py::TestCompromisedComponents::test_compromised_switch_forwards_blocked_traffic",
        "the §5 compromise hook of a switch: no workload compromises one",
    ),
    "OpenFlowSwitch.restore": (
        "fault",
        "tests/test_core_controller_network.py::TestCompromisedComponents::test_compromised_switch_forwards_blocked_traffic",
        "undoes the §5 compromise hook of a switch",
    ),
    # ------------------------------------------------------------------
    # surface
    # ------------------------------------------------------------------
    "_first_line": (
        "surface",
        "tests/test_identpp_protocol.py::TestWireFormat::test_query_round_trip_via_packet",
        "the ident++ wire's first line (proto and ports); the engine hands answers "
        "over in-process, so no workload encodes one",
    ),
    "_parse_first_line": (
        "surface",
        "tests/test_identpp_protocol.py::TestWireFormat::test_query_round_trip_via_packet",
        "parses the ident++ wire's first line; no workload decodes one",
    ),
    "ResponseDocument.to_body": (
        "surface",
        "tests/test_identpp_protocol.py::TestKeyValueSections::test_body_round_trip",
        "the ident++ response body on the wire: key: value lines, sections apart",
    ),
    "ResponseDocument.from_body": (
        "surface",
        "tests/test_identpp_protocol.py::TestKeyValueSections::test_body_round_trip",
        "parses an ident++ response body off the wire",
    ),
    "_fn_gt": (
        "surface",
        "tests/test_pf_evaluator.py::TestComparisonFunctions::test_ordering_functions",
        "PF+=2's gt(); no shipped policy calls it",
    ),
    "_fn_gte": (
        "surface",
        "tests/test_pf_evaluator.py::TestComparisonFunctions::test_ordering_functions",
        "PF+=2's gte(); no shipped policy calls it",
    ),
    "_fn_lte": (
        "surface",
        "tests/test_pf_evaluator.py::TestComparisonFunctions::test_ordering_functions",
        "PF+=2's lte(); no shipped policy calls it",
    ),
    "_split_list": (
        "surface",
        "tests/test_pf_evaluator.py::TestEndpointMatching::test_macro_as_address_list",
        "a PF+=2 macro used as an address list ({ a b }); no shipped policy has one",
    ),
    "_parse_literal": (
        "surface",
        "tests/test_pf_evaluator.py::TestEndpointMatching::test_macro_as_address_list",
        "a PF+=2 address literal met at evaluation time (a macro's value); no shipped "
        "policy has one",
    ),
    "Match.matches": (
        "surface",
        "tests/test_openflow_match_table.py::TestMatch::test_wildcard_matches_everything",
        "OpenFlow 1.0 match semantics, field by field; the table's indexes decide "
        "lookups, and the flow-table differential holds them to this",
    ),
    "_ip_field_matches": (
        "surface",
        "tests/test_openflow_match_table.py::TestMatch::test_wildcard_matches_everything",
        "OpenFlow 1.0 address or prefix match of one field",
    ),
    "Match.covers": (
        "surface",
        "tests/test_openflow_match_table.py::TestMatch::test_covers",
        "OpenFlow 1.0 non-strict delete: which entries a match covers",
    ),
    "_ip_field_covers": (
        "surface",
        "tests/test_openflow_match_table.py::TestMatch::test_covers",
        "OpenFlow 1.0 non-strict delete of one address or prefix field",
    ),
    "FlowTable._covered_by": (
        "surface",
        "tests/test_openflow_match_table.py::TestFlowTable::test_remove_covered",
        "OpenFlow 1.0 non-strict delete; installs and unwinds remove strictly or by cookie",
    ),
    "_no_fields": (
        "surface",
        "tests/test_openflow_match_table.py::TestFlowTable::test_priority_wins",
        "the key of an all-wildcard OpenFlow entry; no workload installs one",
    ),
    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    "QueryEngine.is_subscribed": (
        "reading",
        "tests/test_push_plane.py::TestEnginePush::test_unsubscribe_unregisters_everything_daemon_side",
        "a side-effect-free reading of the push subscriptions that the push-plane "
        "and failover tests assert on; no other public name gives it",
    ),
    "IdentPPDaemon.subscriber_count": (
        "reading",
        "tests/test_push_plane.py::TestDaemonPush::test_one_subscription_per_subscriber_name_and_one_delta_per_listener",
        "a side-effect-free reading of the daemon's subscribers that the push-plane "
        "and failover tests assert on; no other public name gives it",
    ),
    "QueryOutcome.succeeded": (
        "reading",
        "tests/test_identpp_daemon.py::TestQueryClient::test_query_returns_daemon_answer_and_latency",
        "a side-effect-free reading of whether some party answered a query; the "
        "client, engine and decision-core tests assert on it",
    ),
    "RuntimeKeyRegistry.publish_for_flow": (
        "reading",
        "tests/test_identpp_daemon.py::TestDaemonAnswers::test_runtime_keys_from_application",
        "the per-flow runtime pairs of §3.5: answer() and answer_is_shareable() read "
        "them, and the identity-plane differential generates them",
    ),
}
