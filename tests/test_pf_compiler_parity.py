"""The evaluator against its oracle: every verdict must agree bit-for-bit.

``repro.pf.compiler`` is the only place a rule is matched, and its index
is only allowed to *skip* rules that provably cannot match.  The oracle
is the AST walk it replaced (``tests/reference_evaluator.py``): every
verdict — action, deciding rule, the full matched-rule list, keep_state,
quick termination, default use — and every raised error (type and text)
must be identical.  ``TestGeneratedParity`` draws rulesets, flows
(including none) and response documents from a hypothesis strategy over
the whole language; the named classes pin the E10b benchmark rulesets,
the paper-figure configurations and the regressions found so far.
"""

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.crypto.signatures import Signer
from repro.exceptions import ReproError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.pf.evaluator import PolicyEvaluator
from repro.pf.parser import parse_ruleset
from repro.pf.tables import TableSet
from repro.workloads.paper_configs import (
    RESEARCH_REQUIREMENTS,
    THUNDERBIRD_REQUIREMENTS,
    figure2_control_files,
    figure5_research_control,
    figure7_secur_control,
    figure8_control_files,
)
from tests.reference_evaluator import reference_evaluate
from tests.test_pf_language import ruleset_of


def doc(*sections: dict) -> ResponseDocument:
    document = ResponseDocument()
    for entries in sections:
        document.add_section(entries)
    return document


def assert_parity(evaluator: PolicyEvaluator, flow, src=None, dst=None) -> None:
    """Assert the evaluator and the oracle return the same verdict (or error)."""
    try:
        expected = reference_evaluate(evaluator, flow, src, dst)
    except ReproError as error:
        with pytest.raises(type(error)) as caught:
            evaluator.evaluate(flow, src, dst)
        assert type(caught.value) is type(error)
        assert str(caught.value) == str(error)
        return
    verdict = evaluator.evaluate(flow, src, dst)
    assert verdict.action == expected.action
    assert verdict.rule is expected.rule
    assert len(verdict.matched_rules) == len(expected.matched_rules)
    assert all(a is b for a, b in zip(verdict.matched_rules, expected.matched_rules))
    assert verdict.keep_state == expected.keep_state
    assert verdict.quick_terminated == expected.quick_terminated
    assert verdict.default_used == expected.default_used


# ---------------------------------------------------------------------------
# Generated rulesets, flows and response documents
# ---------------------------------------------------------------------------

#: Definitions a generated ruleset may open with.  Rules name any of them
#: whether or not their ruleset drew the definition, so "unknown table",
#: "unknown macro" and "unknown dict" need no cases of their own.
DEFINITIONS = (
    "table <lan> { 192.168.0.0/24 10.0.0.0/8 }",
    "table <dmz> { 172.16.0.1 }",
    "table <inside> { <lan> <dmz> }",
    "table <loop> { <loop> }",
    "table <junk> { 10.0.0.1 not-an-address }",
    'servers = "192.168.1.1 10.1.2.3"',
    'braced = "{ 8.8.8.8 172.16.0.0/12 }"',
    'partbad = "10.0.0.1 junk 192.168.0.0/16"',
    'wide = "0.0.0.0/0 10.0.0.1"',
    'apps = "{ pine mutt }"',
    'appname = "skype"',
    "dict <roles> { alice : admin bob : staff }",
)

#: 8.0.0.0/5 is the widest prefix the first-octet gate indexes and
#: 0.0.0.0/4 the narrowest it does not; 10.1.2.3/16 has host bits set.
ADDRESS_SPECS = (
    "10.1.2.3", "192.168.1.1", "203.0.113.7/32", "10.0.0.0/8", "10.1.2.3/16",
    "8.0.0.0/5", "0.0.0.0/4", "0.0.0.0/0",
    "<lan>", "<dmz>", "<inside>", "<loop>", "<junk>", "<nosuch>",
    "$servers", "$braced", "$partbad", "$wide", "$apps", "$nosuch",
)
FLOW_ADDRESSES = (
    "10.1.2.3", "10.0.0.1", "192.168.0.9", "192.168.1.1", "172.16.0.1", "172.20.1.1",
    "8.8.8.8", "15.255.255.255", "16.0.0.1", "203.0.113.7",
)
PORTS = (22, 80, 443, 1001)

CONDITIONS = (
    "eq(@src[name], skype)",
    "eq(@dst[name], skype)",
    "gt(@src[version], 200)",
    'eq(*@src[name], "http skype")',
    "includes(*@dst[os-patch], MS08-067)",
    "member(@src[groupID], $apps)",
    "member(@src[groupID], $nosuch)",
    "member(@src[net], <lan>)",
    "member(@src[net], <nosuch>)",
    "eq(@src[name], $appname)",
    "eq(@roles[alice], admin)",
    "eq(@nosuch[alice], admin)",
    "eq(@src[name])",
    "nosuchfn(@src[name])",
    "allowed(@src[requirements])",
    "allowed(@dst[requirements])",
)

#: Delegated rule text an end-host may report: valid, reading the outer
#: ruleset's tables, shadowed by them, raising inside, recursing into the
#: other side's text (up to the depth guard), and not parsing at all.
REQUIREMENTS = (
    "pass from any to any port 443",
    "block all pass from <lan> to any keep state",
    "table <lan> { 8.8.8.8 } pass from <lan> to any",
    "table <t> { junk } pass from <t> to any",
    "pass from <nosuch> to any",
    "pass from $servers to any",
    "pass all with allowed(@dst[requirements])",
    "pass all with allowed(@src[requirements])",
    "not valid pf text (((",
)

#: What one responder may say about a flow.  A document is one or two of
#: these (``@src[k]`` reads the latest section, ``*@src[k]`` all of them).
SECTIONS = (
    {"name": "skype", "version": "400"},
    {"name": "skype", "version": "150", "groupID": "pine staff"},
    {"name": "http", "net": "10.0.0.0/8", "groupID": "mutt"},
    {"name": "pine", "net": "172.16.0.1/32", "os-patch": "MS08-067 MS08-068"},
    {"os-patch": "MS08-001"},
) + tuple({"requirements": text} for text in REQUIREMENTS)


def render_endpoint(spec: str, negated: bool, port) -> str:
    text = ("!" if negated else "") + spec
    return text if port is None else f"{text} port {port}"


def render_rule(action, quick, src, dst, conditions, keep_state) -> str:
    parts = [action]
    if quick:
        parts.append("quick")
    parts.append("all" if src == dst == "any" else f"from {src} to {dst}")
    parts.extend(f"with {condition}" for condition in conditions)
    if keep_state:
        parts.append("keep state")
    return " ".join(parts)


#: Every address spec, plain and negated, bare and port-qualified.
ENDPOINTS = tuple(
    render_endpoint(spec, negated, port)
    for spec in ("any",) + ADDRESS_SPECS
    for negated in (False, True)
    for port in (None,) + PORTS + ("http",)
)

# Each strategy is a few wide draws rather than many narrow ones: hypothesis
# charges per draw, and tier-1 pays for every example.
endpoints = st.just("any") | st.sampled_from(ENDPOINTS)
rules = st.builds(
    render_rule,
    st.sampled_from(("pass", "block")),
    st.booleans(),
    endpoints,
    endpoints,
    st.just([]) | st.lists(st.sampled_from(CONDITIONS), max_size=2),
    st.booleans(),
)
rulesets = st.builds(
    lambda definitions, body: "\n".join(definitions + body),
    st.lists(st.sampled_from(DEFINITIONS), unique=True),
    st.lists(rules, min_size=1, max_size=6),
)
tcp_flows = st.builds(
    FlowSpec.tcp,
    st.sampled_from(FLOW_ADDRESSES),
    st.sampled_from(FLOW_ADDRESSES),
    st.sampled_from((40000, 80)),
    st.sampled_from(PORTS),
)
documents = st.none() | st.lists(st.sampled_from(SECTIONS), min_size=1, max_size=2).map(
    lambda found: doc(*found)
)


class TestGeneratedParity:
    """Generated rulesets and flows, inputs nobody picked, checked against the oracle."""

    @settings(max_examples=120, deadline=None)
    @given(
        text=rulesets,
        default_action=st.sampled_from(("pass", "block")),
        flows=st.lists(tcp_flows, max_size=4),
        src=documents,
        dst=documents,
    )
    # The index may not skip a rule whose source side raises, whatever the port.
    @example(
        text="block all\npass from <nosuch> to any port 99",
        default_action="block",
        flows=[FlowSpec.tcp("10.1.2.3", "8.8.8.8", 40000, 80)],
        src=None,
        dst=None,
    )
    # A table that cannot resolve raises where the walk reaches it, not at compile time.
    @example(
        text="table <junk> { 10.0.0.1 not-an-address }\npass quick all\nblock from <junk> to any",
        default_action="block",
        flows=[FlowSpec.tcp("10.1.2.3", "8.8.8.8", 40000, 80)],
        src=None,
        dst=None,
    )
    # Mutually recursive delegation stops at the depth guard on both sides.
    @example(
        text="block all\npass all with allowed(@src[requirements])",
        default_action="block",
        flows=[],
        src=doc({"requirements": "pass all with allowed(@dst[requirements])"}),
        dst=doc({"requirements": "pass all with allowed(@src[requirements])"}),
    )
    def test_generated_rulesets_agree_with_the_oracle(self, text, default_action, flows, src, dst):
        """One evaluator, a few flows and no flow at all, the same answers as the walk."""
        evaluator = PolicyEvaluator(parse_ruleset(text), default_action=default_action)
        for flow in flows + [None]:
            assert_parity(evaluator, flow, src, dst)

    def test_bad_table_in_delegated_text_fails_closed(self):
        # End-host text naming an unparseable table member is "not allowed",
        # not an AddressError escaping the PFError handlers.
        evaluator = PolicyEvaluator(
            parse_ruleset("block all\npass all with allowed(@src[requirements])"),
            default_action="block",
        )
        flow = FlowSpec.tcp("10.1.2.3", "8.8.8.8", 40000, 80)
        src = doc({"requirements": "table <t> { junk } pass from <t> to any"})
        assert not evaluator.evaluate(flow, src, None).is_pass
        assert_parity(evaluator, flow, src, None)


def e10b_policy(rule_count: int) -> PolicyEvaluator:
    """The exact ruleset shape bench_latency_throughput.py sweeps."""
    lines = ["block all"]
    for index in range(rule_count):
        lines.append(
            f"pass from any to 10.{index % 250}.0.0/16 port {1000 + index} "
            f"with eq(@src[name], app{index})"
        )
    return PolicyEvaluator(parse_ruleset("\n".join(lines)), default_action="block")


class TestE10bRulesetParity:
    @pytest.mark.parametrize("size", [10, 100, 500])
    def test_port_and_prefix_sweep(self, size):
        evaluator = e10b_policy(size)
        src = doc({"name": "app1", "userID": "alice"})
        flows = []
        for port in (1000, 1001, 1000 + size - 1, 1000 + size, 80, 65000):
            for dst in ("10.1.2.3", "10.249.0.1", "11.1.2.3", "192.168.0.1"):
                flows.append(FlowSpec.tcp("192.168.0.10", dst, 40000, port))
        for flow in flows:
            assert_parity(evaluator, flow, src, None)
            assert_parity(evaluator, flow, doc({"name": "nomatch"}), None)

    def test_matching_app_names(self):
        evaluator = e10b_policy(200)
        for index in (0, 7, 199):
            flow = FlowSpec.tcp("1.2.3.4", f"10.{index % 250}.0.9", 40000, 1000 + index)
            assert_parity(evaluator, flow, doc({"name": f"app{index}"}), None)

    def test_index_actually_used(self):
        evaluator = e10b_policy(500)
        flow = FlowSpec.tcp("1.2.3.4", "10.1.0.9", 40000, 1001)
        evaluator.evaluate(flow, doc({"name": "app1"}), None)
        stats = evaluator.stats()
        assert stats["indexed_rules"] == 500
        assert stats["scan_bucket_rules"] == 1  # the block-all header
        # One decision should visit ~2 candidates, not the full ruleset.
        assert stats["candidates_visited"] <= 4


class TestPaperFigureParity:
    def figure2_evaluator(self) -> PolicyEvaluator:
        return PolicyEvaluator(ruleset_of(figure2_control_files()), default_action="block")

    def test_figure2_grid(self):
        evaluator = self.figure2_evaluator()
        addresses = ["192.168.0.10", "192.168.1.1", "123.123.123.7", "8.8.8.8"]
        documents = [
            None,
            doc({"name": "skype", "version": "400"}),
            doc({"name": "skype", "version": "150"}),
            doc({"name": "http"}),
            doc({"name": "pine"}),
        ]
        for src_ip in addresses:
            for dst_ip in addresses:
                for port in (80, 443, 5060):
                    flow = FlowSpec.tcp(src_ip, dst_ip, 40000, port)
                    for src_doc in documents:
                        for dst_doc in (None, doc({"name": "skype"})):
                            assert_parity(evaluator, flow, src_doc, dst_doc)

    def test_figure8_grid(self):
        evaluator = PolicyEvaluator(ruleset_of(figure8_control_files()), default_action="block")
        for dst_ip in ("192.168.1.40", "10.0.0.1"):
            for port in (445, 139, 80):
                flow = FlowSpec.tcp("192.168.0.10", dst_ip, 40000, port)
                for dst_doc in (
                    None,
                    doc({"os-patch": "MS08-067 MS08-068"}),
                    doc({"os-patch": "MS08-001"}),
                ):
                    assert_parity(evaluator, flow, None, dst_doc)

    def test_figure5_and_figure7_delegation(self):
        """``allowed()`` + ``verify()`` over signed requirements: same verdicts, memo warm or cold."""
        signer = Signer("delegate", seed=5)

        def signed(requirements, **facts):
            signature = signer.sign(["hash-1", facts["name"], requirements])
            return doc({"exe-hash": "hash-1", "app-name": facts["name"],
                        "requirements": requirements, "req-sig": signature, **facts})

        research = signed(RESEARCH_REQUIREMENTS, name="research-app", groupID="research")
        figure5 = PolicyEvaluator(
            ruleset_of(figure5_research_control(signer.public_key_hex)), default_action="block"
        )
        thunderbird = signed(THUNDERBIRD_REQUIREMENTS, name="thunderbird", **{"rule-maker": "Secur"})
        figure7 = PolicyEvaluator(
            ruleset_of(figure7_secur_control(signer.public_key_hex)), default_action="block"
        )
        inside = FlowSpec.tcp("192.168.2.10", "192.168.2.20", 40000, 9000)
        production = FlowSpec.tcp("192.168.2.10", "192.168.3.20", 40000, 9000)
        for _ in range(2):
            assert figure5.evaluate(inside, research, research).is_pass
            assert not figure5.evaluate(production, research, research).is_pass
            assert not figure5.evaluate(inside, doc({"groupID": "research"}), research).is_pass
            assert figure7.evaluate(inside, thunderbird, doc({"type": "email-server"})).is_pass
            assert not figure7.evaluate(inside, thunderbird, doc({"type": "web-server"})).is_pass
        for flow in (inside, production, None):
            assert_parity(figure5, flow, research, research)
            assert_parity(figure5, flow, doc({"name": "telnet", "groupID": "research"}), research)
            assert_parity(figure7, flow, thunderbird, doc({"type": "email-server"}))
            assert_parity(figure7, flow, thunderbird, None)


class TestLanguageFeatureParity:
    FEATURES = """\
table <lan> { 192.168.0.0/24 10.0.0.0/8 }
servers = "192.168.1.1 192.168.1.2"
appset = "{ pine mutt }"
block all
pass quick from 172.16.0.1 to any port 22
pass from <lan> to !<lan> keep state
pass from $servers to any port 25
block from any to !192.168.5.0/24 with eq(@src[name], leaky)
pass from any to <lan> port http with member(@src[app], $appset)
pass from any to 203.0.113.7 with allowed(@src[requirements])
"""

    def evaluator(self) -> PolicyEvaluator:
        return PolicyEvaluator(parse_ruleset(self.FEATURES), default_action="block")

    def test_feature_grid(self):
        evaluator = self.evaluator()
        sources = ["172.16.0.1", "192.168.0.9", "192.168.1.1", "10.2.3.4", "8.8.4.4"]
        destinations = ["192.168.0.1", "192.168.5.5", "203.0.113.7", "1.1.1.1"]
        documents = [
            None,
            doc({"name": "leaky", "app": "pine"}),
            doc({"app": "mutt"}),
            doc({"requirements": "pass from any to any port 443"}),
            doc({"requirements": "not valid pf text ((("}),
        ]
        for src_ip in sources:
            for dst_ip in destinations:
                for port in (22, 25, 80, 443):
                    flow = FlowSpec.tcp(src_ip, dst_ip, 41000, port)
                    for src_doc in documents:
                        assert_parity(evaluator, flow, src_doc, None)

    def test_flowless_parity(self):
        evaluator = self.evaluator()
        assert_parity(evaluator, None, doc({"name": "x"}), None)
        # Only the address-free "block all" can match without a flow.
        verdict = evaluator.evaluate(None, doc({"name": "x"}), None)
        assert [str(rule) for rule in verdict.matched_rules] == ["block all"]

    def test_unknown_macro_raises_identically(self):
        evaluator = PolicyEvaluator(
            parse_ruleset("block all\npass from $nosuch to any"), default_action="block"
        )
        flow = FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2)
        assert_parity(evaluator, flow)

    def test_unknown_table_raises_identically(self):
        evaluator = PolicyEvaluator(
            parse_ruleset("block all\npass from <nosuch> to any port 99"), default_action="block"
        )
        flow = FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 99)
        assert_parity(evaluator, flow)
        # Port-indexing may not skip the raising rule for other ports either:
        # the oracle raises while evaluating src before dst port.
        assert_parity(evaluator, FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 80))

    def test_table_redefinition_triggers_recompile(self):
        evaluator = PolicyEvaluator(
            parse_ruleset("table <lan> { 10.0.0.0/8 }\nblock all\npass from <lan> to any"),
            default_action="block",
        )
        inside = FlowSpec.tcp("10.1.1.1", "2.2.2.2", 1, 2)
        outside = FlowSpec.tcp("192.168.7.7", "2.2.2.2", 1, 2)
        assert evaluator.evaluate(inside, None, None).is_pass
        assert not evaluator.evaluate(outside, None, None).is_pass
        evaluator.tables.merge(
            TableSet.from_definitions(parse_ruleset("table <lan> { 192.168.0.0/16 }").tables())
        )
        assert_parity(evaluator, inside)
        assert_parity(evaluator, outside)
        assert evaluator.evaluate(outside, None, None).is_pass
        assert not evaluator.evaluate(inside, None, None).is_pass


class TestBatchParity:
    def test_batch_matches_single(self):
        evaluator = e10b_policy(100)
        src = doc({"name": "app3"})
        items = [
            (FlowSpec.tcp("1.2.3.4", f"10.{i % 250}.0.1", 40000, 1000 + i), src, None)
            for i in range(0, 100, 7)
        ]
        assert evaluator.evaluate_batch(items) == [evaluator.evaluate(*item) for item in items]
