"""The columnar audit log against the list of records it replaced.

``repro.core.audit.AuditLog`` keeps a decision as a row of columns and
builds :class:`~repro.core.audit.DecisionRecord` objects when read;
``tests/reference_audit.py`` keeps the records themselves.  Generated
decisions — pass, block, cached, fail-closed and delegated verdicts;
``…:decision-N`` cookies and odd ones; empty, shared and one-value-delta
identity views; several controllers with tied times — are appended to
both, and every read must agree: the records, indexes and slices,
both walk directions, the canonical lines and digest, the filters and
counts, and the order of the merged control-plane trail.
"""

from types import SimpleNamespace

from hypothesis import given, strategies as st

from repro.core.audit import AuditLog, DecisionRecord, audit_digest, record_line
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import EMPTY_KEYS, KeyView, ResponseDocument
from repro.workloads.invariants import network_audit_records
from tests.reference_audit import ReferenceAuditLog, reference_trail

FLOWS = [
    FlowSpec.tcp("10.0.0.1", "192.168.1.1", 40000, 80),
    FlowSpec.tcp("10.0.0.2", "192.168.1.1", 0, 65535),
    FlowSpec("255.255.255.255", "0.0.0.0", "udp", 65535, 0),
    FlowSpec("10.0.0.1", "10.0.0.3", 1, 5, 7),
]

VERDICTS = {
    "pass": dict(action="pass", rule_text="pass from any to any port 80", rule_origin="00-web.control"),
    "block": dict(action="block", rule_text="block all", rule_origin="10-deny.control"),
    "cached": dict(action="pass", rule_text="pass from any to any port 80", rule_origin="cache", cached=True),
    "cached-block": dict(action="block", rule_text="block all", rule_origin="cache", cached=True),
    "error": dict(action="block", rule_text="", rule_origin="error", note="policy evaluation failed: boom"),
    "expired": dict(
        action="block", rule_text="", rule_origin="error",
        note="pending decision deadline exceeded; failing closed",
    ),
    "delegated": dict(
        action="pass", rule_text="pass all with allowed(@pubkeys[research], @src[req-sig])",
        rule_origin="20-grant.control", delegated=True, delegation_functions=("allowed",),
    ),
    "verified": dict(
        action="block", rule_text="block all with verify(@pubkeys[it])", rule_origin="30-it.control",
        delegated=True, delegation_functions=("allowed", "verify"),
    ),
}

#: Cookies that are not a prefix and a canonical ``-N``: kept whole.
ODD_COOKIES = [
    "c1", "x-01", "x-", "", "x-+5", "x- 5", "x-٣", "a-b-c", "ctl:decision-18446744073709551615",
]
#: Cookies the columns split, some of them at the edges.
SPLIT_COOKIES = ["x-0", "-7", "a-b-3", "ctl:decision-9999999999999999999"]

cookies = st.one_of(
    st.builds(lambda shard, n: f"ctl{shard}:decision-{n}", st.integers(0, 2), st.integers(0, 10**6)),
    st.sampled_from(ODD_COOKIES + SPLIT_COOKIES),
)

#: One end's answer: the same host mostly, a new pid often, a new user
#: or an extra key now and then — so views are shared, one-value deltas
#: of a keyframe, or full.
answers = st.one_of(
    st.none(),
    st.builds(
        lambda pid, user, extra: {
            "responder": "h1", "userID": user, "pid": str(pid), **({"os-patch": "7"} if extra else {})
        },
        st.integers(100, 103), st.sampled_from(["alice", "alice", "bob"]), st.booleans(),
    ),
)

decisions = st.lists(
    st.tuples(
        st.sampled_from([0.0, 0.0, 0.25, 0.5]),
        st.sampled_from(FLOWS),
        st.sampled_from(sorted(VERDICTS)),
        cookies,
        answers,
        answers,
        st.sampled_from([0.0, 0.001, 0.0123]),
    ),
    max_size=25,
)


def document(answer: dict) -> ResponseDocument:
    doc = ResponseDocument()
    doc.add_section(dict(answer))
    return doc


def fill(specs, last_views: dict) -> tuple[AuditLog, ReferenceAuditLog]:
    """Append the decisions ``specs`` describe to a new log and a reference log."""
    log, reference = AuditLog(), ReferenceAuditLog()
    now = 0.0
    for step, flow, verdict, cookie, src, dst, latency in specs:
        now += step
        views = []
        for role, address, answer in (("src", flow.src_ip, src), ("dst", flow.dst_ip, dst)):
            if answer is None:
                views.append(EMPTY_KEYS)
                continue
            key = (role, address)
            view = last_views[key] = KeyView.of(document(answer), last_views.get(key, EMPTY_KEYS))
            views.append(view)
        fields = dict(
            time=now, flow=flow, cookie=cookie, src_keys=views[0], dst_keys=views[1],
            query_latency=latency, **VERDICTS[verdict],
        )
        log.record(**fields)
        reference.record(DecisionRecord(**fields))
    return log, reference


slices = st.builds(
    slice, st.integers(-30, 30) | st.none(), st.integers(-30, 30) | st.none(),
    st.sampled_from([None, 1, 2, -1, -3]),
)


@given(specs=decisions, window=slices)
def test_one_log_reads_as_the_list_of_records(specs, window):
    log, reference = fill(specs, {})
    expected = reference.records()
    records = log.records()
    assert len(log) == len(records) == len(expected)
    assert list(records) == expected
    assert list(log) == list(reference)
    assert list(reversed(log)) == list(reversed(reference))
    assert list(reversed(records)) == expected[::-1]
    for index in range(-len(expected), len(expected)):
        assert records[index] == expected[index]
    assert records[window] == expected[window]
    assert [record_line(r, "ctl") for r in log] == [record_line(r, "ctl") for r in expected]
    assert audit_digest(log) == audit_digest(expected)
    # The cookie text comes back exactly, however it was split.
    assert [r.cookie for r in records] == [spec[3] for spec in specs]


@given(specs=decisions)
def test_filters_and_counts_read_as_the_scans(specs):
    log, reference = fill(specs, {})
    assert log.summary() == reference.summary()
    assert log.delegated_decisions() == reference.delegated_decisions()


@given(specs=decisions, more=decisions)
def test_records_is_fixed_when_called(specs, more):
    log, _ = fill(specs, {})
    records = log.records()
    before = list(records)
    extra, _ = fill(more, {})
    for record in extra:
        log.record(**{name: getattr(record, name) for name in DecisionRecord.__slots__})
    assert len(records) == len(before) and list(records) == before
    assert len(log) == len(before) + len(extra)


@given(shards=st.lists(decisions, min_size=1, max_size=3))
def test_the_control_plane_trail_is_the_stable_sort(shards):
    last_views: dict = {}
    logs, references = [], []
    for specs in shards:
        log, reference = fill(specs, last_views)
        logs.append(log)
        references.append(reference)
    net = SimpleNamespace(
        cluster=None,
        controllers={f"c{index}": SimpleNamespace(audit=log) for index, log in enumerate(logs)},
    )
    trail = network_audit_records(net)
    expected = reference_trail(references)
    assert list(trail) == expected
    assert list(trail) == expected  # a trail can be walked again
    assert list(reversed(trail)) == expected[::-1]
    assert audit_digest(trail) == audit_digest(expected)
