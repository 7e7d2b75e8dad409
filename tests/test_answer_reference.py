"""Daemon answers over templates equal the section-by-section build they replaced.

Hypothesis generates identities: a user's groups, an application's
fields, host facts, system and user configuration sections for the
executable (keys that collide with the daemon's own, ``pid`` included),
run-time pairs per process and per flow, spoofing, a flow no process
owns, an in-place change to the groups or the binary between two
answers, and an interceptor's augment after the answer.  Every answer of
``IdentPPDaemon.answer`` must read exactly like
``tests/reference_answer.py``'s: ``latest``, ``concatenated``,
``as_flat_dict``, ``to_body`` and the sections, the ``KeyView`` a
decision keeps, and the audit ``record_line`` of a decision holding it.
The verdict fields a decision reads off its rule's ``VerdictShape`` must
equal the ones derived from the rule afresh.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.core.audit import AuditLog, record_line
from repro.core.policy_engine import PolicyEngine
from repro.crypto.signatures import Signer
from repro.hosts.applications import Application
from repro.hosts.endhost import EndHost
from repro.identpp.daemon import IdentPPDaemon
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import EMPTY_KEYS, KeyView, ResponseDocument
from repro.identpp.wire import IdentQuery
from repro.pf.evaluator import PolicyEvaluator, Verdict
from repro.workloads.paper_configs import (
    figure2_control_files,
    figure5_research_control,
    figure7_secur_control,
    figure8_control_files,
)
from tests.reference_answer import reference_answer, reference_verdict_fields
from tests.test_pf_language import ruleset_of

HOST_IP = "10.0.0.1"
PEER_IP = "10.0.0.2"
APP_PATH = "/usr/bin/app"

#: Few keys, so configuration and run-time pairs override the daemon's
#: own (``pid`` among them) and each other.
KEYS = st.sampled_from(["name", "pid", "version", "userID", "os-patch", "extra", "tag"])
VALUES = st.sampled_from(["a", "b", "skype", "210", "x y", "MS08-067"])
PAIRS = st.dictionaries(KEYS, VALUES, max_size=3)
GROUPS = st.sets(st.sampled_from(["users", "staff", "research", "admin"]), max_size=3)

APPLICATIONS = st.builds(
    Application,
    name=st.sampled_from(["app", "skype", "web"]),
    path=st.just(APP_PATH),
    version=st.sampled_from(["1", "210"]),
    vendor=st.sampled_from(["", "skype.com"]),
    app_type=st.sampled_from(["", "voip"]),
    contents=st.sampled_from(["", "image"]),
    extra_keys=st.dictionaries(KEYS, VALUES, max_size=2),
)


def config_text(pairs: dict) -> str:
    """One configuration file with an ``@app`` block for the executable."""
    lines = [f"{key} : {value}" for key, value in pairs.items()]
    return "\n".join([f"@app {APP_PATH} {{", *lines, "}"]) + "\n"


def same_document(actual: ResponseDocument, expected: ResponseDocument) -> None:
    """Every reader sees the same document, before and after its sections are built."""
    keys = [*expected.as_flat_dict(), "absent"]
    assert [actual.latest(key) for key in keys] == [expected.latest(key) for key in keys]
    assert list(actual.as_flat_dict().items()) == list(expected.as_flat_dict().items())
    assert len(actual) == len(expected) and bool(actual) == bool(expected)
    assert [actual.concatenated(key) for key in keys] == [expected.concatenated(key) for key in keys]
    assert actual.to_body() == expected.to_body()
    assert [(s.source, list(s.pairs)) for s in actual.sections] == [
        (s.source, list(s.pairs)) for s in expected.sections
    ]


def same_view(actual: ResponseDocument, expected: ResponseDocument, last) -> KeyView:
    """The view a decision keeps is the reference's, in key order, and audits alike."""
    view = KeyView.of(actual, last)
    reference = KeyView.of(expected, EMPTY_KEYS)
    assert list(view.items()) == list(reference.items())
    flow = FlowSpec.tcp(HOST_IP, PEER_IP, 40000, 80)
    lines = []
    for keys in (view, reference):
        log = AuditLog()
        log.record(1.0, flow, "pass", "pass all", "00.control", "c:decision-1", src_keys=keys)
        lines.append(record_line(log.records()[0]))
    assert lines[0] == lines[1]
    return view


class Identity:
    """One host whose daemon answers, built from generated facts."""

    def __init__(self, data) -> None:
        self.host = EndHost("host", HOST_IP)
        self.app = self.host.install(data.draw(APPLICATIONS))
        self.user = self.host.add_user("alice", tuple(data.draw(GROUPS)))
        self.daemon = IdentPPDaemon(self.host, host_facts=data.draw(PAIRS))
        for load in (self.daemon.load_system_config, self.daemon.load_user_config):
            if data.draw(st.booleans()):
                load(config_text(data.draw(PAIRS)))

    def open(self, data) -> IdentQuery:
        """A fresh flow of the application, or a port nobody owns, with run-time pairs."""
        runtime = self.daemon.runtime
        if data.draw(st.booleans()):
            _, socket, process = self.host.open_flow(self.app.name, "alice", PEER_IP, 80, send=False)
            flow = FlowSpec.tcp(HOST_IP, PEER_IP, socket.local_port, 80)
            if data.draw(st.booleans()):
                runtime.publish_for_process(process, data.draw(PAIRS))
        else:
            flow = FlowSpec.tcp(HOST_IP, PEER_IP, 1, 80)
        if data.draw(st.booleans()):
            runtime.publish_for_flow(flow, data.draw(PAIRS))
        return IdentQuery(flow=flow, target_role="src")

    def change(self, data) -> None:
        """Between two answers: nothing, or a change the daemon is not told about."""
        kind = data.draw(st.sampled_from(["none", "groups", "binary", "spoof", "unspoof"]))
        if kind == "groups":
            self.user.groups.add(data.draw(st.sampled_from(["wheel", "research"])))
        elif kind == "binary":
            self.app.contents = data.draw(st.sampled_from(["trojan", "image2"]))
            self.app.extra_keys["tag"] = "changed"
        elif kind == "spoof":
            self.daemon.spoof_responses(data.draw(PAIRS))
        elif kind == "unspoof":
            self.daemon.spoof_responses(None)


class TestAnswerAgainstReference:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_every_answer_reads_like_the_section_by_section_build(self, data):
        identity = Identity(data)
        last = EMPTY_KEYS
        for _ in range(data.draw(st.integers(1, 4))):
            identity.change(data)
            query = identity.open(data)
            actual = identity.daemon.answer(query).document
            expected = reference_answer(identity.daemon, query).document
            # The view first: a decision takes it before anyone builds sections.
            last = same_view(actual, expected, last)
            same_document(actual, expected)
            if data.draw(st.booleans()):
                # An on-path controller augments the answer on its way back.
                pairs = data.draw(PAIRS)
                actual.augment(pairs, source="controller:branch")
                expected.augment(pairs, source="controller:branch")
                same_view(actual, expected, last)
                same_document(actual, expected)

    @settings(max_examples=50, deadline=None)
    @given(st.data())
    def test_answers_of_one_identity_each_read_like_the_reference(self, data):
        identity = Identity(data)
        first = identity.open(data)
        second = identity.open(data)
        for query in (first, second, first):
            same_document(
                identity.daemon.answer(query).document,
                reference_answer(identity.daemon, query).document,
            )


def _policies() -> list[PolicyEvaluator]:
    signer = Signer("research")
    files = [
        figure2_control_files(),
        figure5_research_control(signer.public_key_hex),
        figure7_secur_control(signer.public_key_hex),
        figure8_control_files(),
        {
            "00.control": (
                "block all\n"
                "pass quick from any to any port 22 keep state\n"
                # A function and a principal named twice are recorded once.
                "pass from any to any port 25 with allowed(@src[requirements]) "
                "with ALLOWED(@dst[requirements]) with verify(@src[req-sig], @pubkeys[a], "
                "@src[exe-hash], @pubkeys[b], @pubkeys[a])\n"
            ),
        },
    ]
    return [PolicyEvaluator(ruleset_of(control), default_action="block") for control in files]


class TestVerdictFieldsAgainstReference:
    def test_each_rules_shape_is_what_a_decision_derived_from_it(self):
        checked = 0
        for evaluator in _policies():
            for compiled in evaluator.compiled.rules:
                shape = compiled.shape
                expected = reference_verdict_fields(Verdict(compiled.rule.action, compiled.rule))
                assert {name: getattr(shape, name) for name in expected} == expected
                assert shape.rule is compiled.rule
                checked += 1
        assert checked > 10

    def test_a_decision_reads_the_fields_the_reference_derives(self):
        engine = PolicyEngine(default_action="block")
        engine.add_control_files(figure2_control_files())
        answers = [
            ResponseDocument(),
            _document({"name": "skype", "version": "210"}),
            _document({"name": "http", "userID": "alice"}),
        ]
        for port in (22, 80, 443, 5060):
            flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, port)
            for answer in answers:
                decision = engine.decide(flow, answer, answer)
                expected = reference_verdict_fields(decision.verdict)
                assert {name: getattr(decision, name) for name in expected} == expected


def _document(pairs: dict) -> ResponseDocument:
    document = ResponseDocument()
    document.add_section(pairs, source="daemon")
    return document
