"""``tools/audit_dump.py``: one canonical line per audit record."""

from repro.core.audit import DecisionRecord
from repro.identpp.flowspec import FlowSpec
from tools.audit_dump import record_line


def test_a_record_is_one_line_of_every_field_in_exact_form():
    record = DecisionRecord(
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
    assert record_line("punt_unique", "ctrl", record) == (
        "punt_unique|ctrl|0.30000000000000004|10.0.0.1:40000>10.0.0.2:80/6|pass"
        "|pass from any to any port 80|00.control|ctrl:decision-1|True|allowed,verify"
        "|False|0.0007||{'userID': 'alice', 'name': 'http'}|{}"
    )
