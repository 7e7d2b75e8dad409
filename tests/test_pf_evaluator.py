"""Tests for PF+=2 evaluation: functions, last-match semantics, state, delegation."""

import pytest

from repro.crypto.signatures import Signer
from repro.exceptions import PFEvalError, UnknownFunctionError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.pf.compiler import CompiledPolicy
from repro.pf.evaluator import PolicyEvaluator
from repro.pf.functions import DELEGATED_PARSE_MEMO_SIZE, _parse_delegated, default_registry
from repro.pf.parser import parse_ruleset
from repro.pf.state import StateTable
from repro.workloads.scenarios import ResearchDelegationScenario


def doc(pairs, *more_sections):
    document = ResponseDocument()
    document.add_section(dict(pairs))
    for section in more_sections:
        document.add_section(dict(section))
    return document


def evaluate(policy_text, flow=None, src=None, dst=None, default="block", registry=None):
    evaluator = PolicyEvaluator(parse_ruleset(policy_text), default_action=default,
                                registry=registry)
    return evaluator.evaluate(flow, src, dst)


FLOW = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)


class TestLastMatchSemantics:
    def test_default_action_when_nothing_matches(self):
        assert evaluate("", FLOW, default="pass").action == "pass"
        assert evaluate("", FLOW, default="block").action == "block"
        assert evaluate("", FLOW).default_used

    def test_last_matching_rule_wins(self):
        verdict = evaluate("block all\npass all", FLOW)
        assert verdict.is_pass
        verdict = evaluate("pass all\nblock all", FLOW)
        assert not verdict.is_pass

    def test_quick_stops_evaluation(self):
        verdict = evaluate("pass quick all\nblock all", FLOW)
        assert verdict.is_pass and verdict.quick_terminated
        # without quick, the later block would win
        assert not evaluate("pass all\nblock all", FLOW).is_pass

    def test_matched_rules_recorded(self):
        verdict = evaluate("block all\npass all\nblock from any to 1.2.3.4", FLOW)
        assert len(verdict.matched_rules) == 2
        assert verdict.rules_evaluated == 3

    def test_keep_state_reported(self):
        assert evaluate("pass all keep state", FLOW).keep_state
        assert not evaluate("pass all", FLOW).keep_state


class TestEndpointMatching:
    def test_table_and_negation(self):
        policy = (
            "table <lan> { 192.168.0.0/24 }\n"
            "block all\n"
            "pass from <lan> to !<lan>\n"
        )
        outbound = FlowSpec.tcp("192.168.0.10", "8.8.8.8", 1, 80)
        internal = FlowSpec.tcp("192.168.0.10", "192.168.0.20", 1, 80)
        inbound = FlowSpec.tcp("8.8.8.8", "192.168.0.10", 1, 80)
        assert evaluate(policy, outbound).is_pass
        assert not evaluate(policy, internal).is_pass
        assert not evaluate(policy, inbound).is_pass

    def test_literal_address_and_cidr(self):
        policy = "block all\npass from 192.168.0.10 to 192.168.1.0/24"
        assert evaluate(policy, FLOW).is_pass
        other = FlowSpec.tcp("192.168.0.11", "192.168.1.1", 1, 80)
        assert not evaluate(policy, other).is_pass

    def test_port_matching(self):
        policy = "block all\npass from any to any port 80"
        assert evaluate(policy, FLOW).is_pass
        assert not evaluate(policy, FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 22)).is_pass

    def test_source_port_matching(self):
        policy = "block all\npass from any port 40000 to any"
        assert evaluate(policy, FLOW).is_pass
        assert not evaluate(policy, FlowSpec.tcp("1.1.1.1", "2.2.2.2", 41000, 80)).is_pass

    def test_macro_as_address_list(self):
        policy = 'servers = "{ 192.168.1.1 192.168.1.2 }"\nblock all\npass from any to $servers'
        assert evaluate(policy, FLOW).is_pass
        assert not evaluate(policy, FlowSpec.tcp("1.1.1.1", "192.168.1.3", 1, 80)).is_pass

    def test_rule_with_addresses_needs_a_flow(self):
        assert not evaluate("pass from 10.0.0.1 to any", None).is_pass
        assert evaluate("pass all", None, default="block").is_pass


class TestComparisonFunctions:
    def test_eq_string_and_numeric(self):
        policy = "block all\npass all with eq(@src[name], skype)"
        assert evaluate(policy, FLOW, doc({"name": "skype"})).is_pass
        assert not evaluate(policy, FLOW, doc({"name": "pine"})).is_pass
        numeric = "block all\npass all with eq(@src[version], 210)"
        assert evaluate(numeric, FLOW, doc({"version": "210"})).is_pass
        assert evaluate(numeric, FLOW, doc({"version": "210.0"})).is_pass

    def test_eq_missing_key_is_false(self):
        policy = "block all\npass all with eq(@src[name], skype)"
        assert not evaluate(policy, FLOW, doc({})).is_pass

    def test_ordering_functions(self):
        src = doc({"version": "150"})
        assert evaluate("block all\npass all with lt(@src[version], 200)", FLOW, src).is_pass
        assert not evaluate("block all\npass all with gt(@src[version], 200)", FLOW, src).is_pass
        assert evaluate("block all\npass all with lte(@src[version], 150)", FLOW, src).is_pass
        assert evaluate("block all\npass all with gte(@src[version], 150)", FLOW, src).is_pass

    def test_lexicographic_fallback(self):
        src = doc({"codename": "beta"})
        assert evaluate("block all\npass all with gt(@src[codename], alpha)", FLOW, src).is_pass

    def test_includes(self):
        policy = "block all\npass all with includes(@dst[os-patch], MS08-067)"
        assert evaluate(policy, FLOW, None, doc({"os-patch": "MS08-067 MS08-068"})).is_pass
        assert not evaluate(policy, FLOW, None, doc({"os-patch": "MS08-001"})).is_pass
        assert not evaluate(policy, FLOW, None, doc({})).is_pass

    def test_unknown_function_raises(self):
        with pytest.raises(UnknownFunctionError):
            evaluate("pass all with frobnicate(@src[name])", FLOW, doc({"name": "x"}))

    def test_custom_function_registration(self):
        registry = default_registry()
        registry.register("starts_with", lambda ctx, args: str(args[0] or "").startswith(str(args[1])))
        policy = "block all\npass all with starts_with(@src[name], sky)"
        assert evaluate(policy, FLOW, doc({"name": "skype"}), registry=registry).is_pass
        with pytest.raises(PFEvalError):
            registry.register("eq", lambda ctx, args: True)

    def test_member_with_macro_table_and_literal(self):
        policy = (
            'approved = "{ http ssh }"\n'
            "table <servers> { 192.168.1.0/24 }\n"
            "block all\n"
            "pass all with member(@src[name], $approved)\n"
        )
        assert evaluate(policy, FLOW, doc({"name": "ssh"})).is_pass
        assert not evaluate(policy, FLOW, doc({"name": "skype"})).is_pass
        # membership in a table of addresses
        table_policy = (
            "table <servers> { 192.168.1.1 }\nblock all\n"
            "pass all with member(@src[claims-server], servers)"
        )
        assert evaluate(table_policy, FLOW, doc({"claims-server": "192.168.1.1"})).is_pass
        # bare name acts as a one-element list (group membership)
        group_policy = "block all\npass all with member(@src[groupID], research)"
        assert evaluate(group_policy, FLOW, doc({"groupID": "research users"})).is_pass
        assert not evaluate(group_policy, FLOW, doc({"groupID": "staff"})).is_pass


class TestDictionarySemantics:
    def test_latest_value_wins(self):
        policy = "block all\npass all with eq(@src[userID], trusted)"
        document = doc({"userID": "alice"}, {"userID": "trusted"})
        assert evaluate(policy, FLOW, document).is_pass

    def test_concatenated_access(self):
        policy = "block all\npass all with includes(*@src[userID], alice)"
        document = doc({"userID": "alice"}, {"userID": "override"})
        assert evaluate(policy, FLOW, document).is_pass
        # plain access only sees the override
        plain = "block all\npass all with eq(@src[userID], alice)"
        assert not evaluate(plain, FLOW, document).is_pass

    def test_named_dict_lookup(self):
        policy = (
            "dict <pubkeys> { research : key123 }\n"
            "block all\npass all with eq(@pubkeys[research], key123)"
        )
        assert evaluate(policy, FLOW).is_pass

    def test_unknown_dict_rejected(self):
        with pytest.raises(PFEvalError):
            evaluate("pass all with eq(@nosuch[key], 1)", FLOW)

    def test_unknown_macro_rejected(self):
        with pytest.raises(PFEvalError):
            evaluate("pass all with eq($missing, 1)", FLOW)


class TestDelegationFunctions:
    def test_allowed_evaluates_requirements(self):
        requirements = "block all pass all with eq(@src[name], research-app)"
        policy = "block all\npass all with allowed(@dst[requirements])"
        src = doc({"name": "research-app"})
        dst = doc({"requirements": requirements})
        assert evaluate(policy, FLOW, src, dst).is_pass
        assert not evaluate(policy, FLOW, doc({"name": "telnet"}), dst).is_pass

    def test_allowed_rejects_missing_or_malformed_rules(self):
        policy = "block all\npass all with allowed(@dst[requirements])"
        assert not evaluate(policy, FLOW, doc({}), doc({})).is_pass
        assert not evaluate(policy, FLOW, doc({}), doc({"requirements": "not pf (("})).is_pass

    def test_allowed_respects_flow_addresses_in_requirements(self):
        requirements = "block all pass from any to 192.168.1.1"
        policy = "block all\npass all with allowed(@dst[requirements])"
        dst = doc({"requirements": requirements})
        assert evaluate(policy, FLOW, doc({}), dst).is_pass
        other_flow = FlowSpec.tcp("192.168.0.10", "192.168.9.9", 1, 80)
        assert not evaluate(policy, other_flow, doc({}), dst).is_pass

    def test_allowed_recursion_bounded(self):
        # requirements that delegate to themselves must not recurse forever
        requirements = "pass all with allowed(@dst[requirements])"
        policy = "block all\npass all with allowed(@dst[requirements])"
        verdict = evaluate(policy, FLOW, doc({}), doc({"requirements": requirements}))
        assert not verdict.is_pass

    def test_verify_accepts_only_genuine_signatures(self):
        signer = Signer("research", seed=2)
        exe_hash, app, requirements = "hash-value", "research-app", "block all pass all"
        signature = signer.sign([exe_hash, app, requirements])
        policy = (
            f"dict <pubkeys> {{ research : {signer.public_key_hex} }}\n"
            "block all\n"
            "pass all with verify(@dst[req-sig], @pubkeys[research], "
            "@dst[exe-hash], @dst[app-name], @dst[requirements])"
        )
        good = doc({"req-sig": signature, "exe-hash": exe_hash, "app-name": app,
                    "requirements": requirements})
        assert evaluate(policy, FLOW, None, good).is_pass
        tampered = doc({"req-sig": signature, "exe-hash": exe_hash, "app-name": app,
                        "requirements": requirements + " pass all"})
        assert not evaluate(policy, FLOW, None, tampered).is_pass
        wrong_signer = Signer("imposter", seed=3)
        forged = doc({"req-sig": wrong_signer.sign([exe_hash, app, requirements]),
                      "exe-hash": exe_hash, "app-name": app, "requirements": requirements})
        assert not evaluate(policy, FLOW, None, forged).is_pass

    def test_verify_missing_values_fails_closed(self):
        policy = (
            "dict <pubkeys> { research : 10001.abc }\n"
            "block all\n"
            "pass all with verify(@dst[req-sig], @pubkeys[research], @dst[exe-hash])"
        )
        assert not evaluate(policy, FLOW, None, doc({"exe-hash": "x"})).is_pass


class TestDelegatedParseMemo:
    """``allowed()`` parses each distinct delegated text once, for a bounded number of texts."""

    POLICY = "block all\npass all with allowed(@dst[requirements])"

    def setup_method(self):
        _parse_delegated.cache_clear()

    def test_same_text_twice_parses_once(self):
        dst = doc({"requirements": "block all pass from any to 192.168.1.1"})
        assert evaluate(self.POLICY, FLOW, None, dst).is_pass
        assert evaluate(self.POLICY, FLOW, None, dst).is_pass
        info = _parse_delegated.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_text_that_does_not_parse_is_remembered_too(self):
        dst = doc({"requirements": "not pf (("})
        assert not evaluate(self.POLICY, FLOW, None, dst).is_pass
        assert not evaluate(self.POLICY, FLOW, None, dst).is_pass
        info = _parse_delegated.cache_info()
        assert (info.misses, info.hits) == (1, 1)

    def test_more_distinct_texts_than_the_bound_evict(self):
        texts = [f"pass from any to any port {1000 + n}" for n in range(DELEGATED_PARSE_MEMO_SIZE + 5)]
        for text in texts:
            _parse_delegated(text)
        info = _parse_delegated.cache_info()
        assert info.currsize == info.maxsize == DELEGATED_PARSE_MEMO_SIZE
        _parse_delegated(texts[-1])  # still held
        _parse_delegated(texts[0])  # evicted: parsed again
        after = _parse_delegated.cache_info()
        assert (after.hits - info.hits, after.misses - info.misses) == (1, 1)

    def test_shared_ruleset_is_never_mutated(self):
        # The delegated text reads <lan>; each outer policy's own <lan> wins the
        # merge inside the nested evaluator's TableSet, never in the shared parse.
        text = "table <lan> { 8.8.8.8 } block all pass from <lan> to any"
        dst = doc({"requirements": text})
        shared = _parse_delegated(text).ruleset
        before = ([str(s) for s in shared.statements], list(shared.statements))
        outer_lan = "table <lan> { 192.168.0.0/24 }\n" + self.POLICY
        for _ in range(2):
            assert evaluate(outer_lan, FLOW, None, dst).is_pass
            assert not evaluate(self.POLICY, FLOW, None, dst).is_pass
        assert _parse_delegated(text).ruleset is shared
        assert [str(s) for s in shared.statements] == before[0]
        assert all(now is then for now, then in zip(shared.statements, before[1]))
        assert [str(n) for n in PolicyEvaluator(shared).tables.resolve("lan").networks] == ["8.8.8.8/32"]

    def test_figure5_punts_compile_the_delegated_text_once(self, monkeypatch):
        compiles = []
        init = CompiledPolicy.__init__

        def counting(self, ruleset, macros, tables):
            compiles.append(ruleset.name)
            init(self, ruleset, macros, tables)

        monkeypatch.setattr(CompiledPolicy, "__init__", counting)
        scenario = ResearchDelegationScenario()
        for _ in range(5):
            result = scenario.net.send_flow(
                "research-a", "research-app", "carol", scenario.RESEARCH_B, scenario.APP_PORT
            )
            assert result.delivered and result.decision_action == "pass"
        # The controller's policy once, and the researcher's requirements once.
        assert len(compiles) == 2 and compiles.count("requirements") == 1

    def test_other_functions_get_their_own_nested_evaluator(self):
        registry = default_registry()
        registry.register("always", lambda context, args: True)
        dst = doc({"requirements": "pass all with always()"})
        assert evaluate(self.POLICY, FLOW, None, dst, registry=registry).is_pass
        # A caller without the function may not reuse an evaluator that has it.
        assert not evaluate(self.POLICY, FLOW, None, dst).is_pass
        assert evaluate(self.POLICY, FLOW, None, dst, registry=registry).is_pass


class TestStateTable:
    def test_match_both_directions(self):
        table = StateTable()
        flow = FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1000, 80)
        table.add(flow, now=0.0, cookie="c1")
        assert table.match(flow, now=1.0) is not None
        assert table.match(flow.reversed(), now=2.0) is not None
        assert flow in table and flow.reversed() in table

    def test_miss_counted(self):
        table = StateTable()
        assert table.match(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2)) is None
        assert table.misses == 1

    def test_idle_expiry(self):
        table = StateTable(timeout=10.0)
        flow = FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1000, 80)
        table.add(flow, now=0.0)
        assert table.match(flow, now=5.0) is not None
        assert table.match(flow, now=100.0) is None
        assert len(table) == 0

    def test_explicit_expire(self):
        table = StateTable(timeout=10.0)
        table.add(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2), now=0.0)
        table.add(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 3, 4), now=50.0)
        assert table.expire(now=20.0) == 1
        assert len(table) == 1

    def test_remove_by_cookie(self):
        table = StateTable()
        table.add(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2), cookie="a")
        table.add(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 3, 4), cookie="b")
        assert table.remove_by_cookie("a") == 1
        assert len(table) == 1


class TestPaperSection33Example:
    """The §3.3 example policy behaves as the prose describes."""

    POLICY = (
        "table <mail-server> {192.168.42.32}\n"
        "block all\n"
        "pass from any with member(@src[groupID], users) with eq(@src[app-name], pine) "
        "to <mail-server> with eq(@dst[userID], smtp)\n"
    )
    MAIL_FLOW = FlowSpec.tcp("10.0.0.5", "192.168.42.32", 40000, 25)

    def test_compliant_flow_passes(self):
        verdict = evaluate(self.POLICY, self.MAIL_FLOW,
                           doc({"groupID": "users staff", "app-name": "pine"}),
                           doc({"userID": "smtp"}))
        assert verdict.is_pass

    def test_wrong_application_blocked(self):
        verdict = evaluate(self.POLICY, self.MAIL_FLOW,
                           doc({"groupID": "users", "app-name": "thunderbird"}),
                           doc({"userID": "smtp"}))
        assert not verdict.is_pass

    def test_wrong_group_blocked(self):
        verdict = evaluate(self.POLICY, self.MAIL_FLOW,
                           doc({"groupID": "guests", "app-name": "pine"}),
                           doc({"userID": "smtp"}))
        assert not verdict.is_pass

    def test_wrong_destination_user_blocked(self):
        verdict = evaluate(self.POLICY, self.MAIL_FLOW,
                           doc({"groupID": "users", "app-name": "pine"}),
                           doc({"userID": "www"}))
        assert not verdict.is_pass

    def test_wrong_server_blocked(self):
        flow = FlowSpec.tcp("10.0.0.5", "192.168.42.99", 40000, 25)
        verdict = evaluate(self.POLICY, flow,
                           doc({"groupID": "users", "app-name": "pine"}),
                           doc({"userID": "smtp"}))
        assert not verdict.is_pass
