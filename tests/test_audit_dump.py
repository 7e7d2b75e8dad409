"""One canonical line per audit record (``tools/audit_dump.py``), and its digest."""

from dataclasses import replace

from repro.core.audit import DecisionRecord, audit_digest, record_line
from repro.identpp.flowspec import FlowSpec
from tools import audit_dump

RECORD = DecisionRecord(
    time=0.1 + 0.2,
    flow=FlowSpec("10.0.0.1", "10.0.0.2", "tcp", 40000, 80),
    action="pass",
    rule_text="pass from any to any port 80",
    rule_origin="00.control",
    cookie="ctrl:decision-1",
    delegated=True,
    delegation_functions=("allowed", "verify"),
    src_keys={"userID": "alice", "name": "http"},
    query_latency=0.0007,
)


def test_a_record_is_one_line_of_every_field_in_exact_form():
    assert audit_dump.record_line is record_line
    assert record_line(RECORD, "punt_unique", "ctrl") == (
        "punt_unique|ctrl|0.30000000000000004|10.0.0.1:40000>10.0.0.2:80/6|pass"
        "|pass from any to any port 80|00.control|ctrl:decision-1|True|allowed,verify"
        "|False|0.0007||{'userID': 'alice', 'name': 'http'}|{}"
    )


def test_one_changed_rule_origin_changes_the_digest():
    records = [RECORD, replace(RECORD, time=0.5, cookie="ctrl:decision-2")]
    assert audit_digest(records) == audit_digest(list(records))
    moved = [records[0], replace(records[1], rule_origin="01.control")]
    assert audit_digest(moved) != audit_digest(records)
    assert audit_digest(records[::-1]) != audit_digest(records)
