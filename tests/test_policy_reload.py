"""A control file is parsed and compiled once per distinct content; a reload stays a reload.

§3.4's policy is several ``.control`` files, some the administrator's
and some a vendor's, so a reload normally changes one of them.  The
registered :class:`~repro.pf.ruleset.ControlFile` carries its own parse
and its own compile: these tests count parses and compiles through a
reload of unchanged, changed, removed and broken files, on one engine
and across a cluster's shards, hold the memoised loader and its kept
compiles to a fresh build over generated add / replace / remove
sequences (macros and tables in one file feeding another file's rules
among them), and check that cluster reload validation refuses a rule
that could only ever raise.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.network import HostSpec, IdentPPNetwork
from repro.core.policy_engine import PolicyEngine
from repro.crypto.signatures import Signer
from repro.exceptions import PFError, PolicyError, ReproError
from repro.identpp.flowspec import FlowSpec
from repro.pf import ruleset as ruleset_module
from repro.pf.evaluator import PolicyEvaluator
from repro.pf.ruleset import ControlFile, RulesetLoader, build_ruleset
from tests.test_cluster_network import build_cluster_network
from tests.test_pf_compiler_parity import documents, rules, rulesets, tcp_flows

FILES = {
    "00-header.control": "block all\n",
    "50-vendor.control": "pass from any to any port 80 keep state\n",
    "99-footer.control": "block from any to any port 23\n",
}
WEB = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)


@pytest.fixture
def parsed(monkeypatch):
    """The origin of every ``parse_ruleset`` call the loader makes, in order."""
    calls = []
    parse = ruleset_module.parse_ruleset

    def counting(text, origin=""):
        calls.append(origin)
        return parse(text, origin=origin)

    monkeypatch.setattr(ruleset_module, "parse_ruleset", counting)
    return calls


@pytest.fixture
def compiled(monkeypatch):
    """The name of every file whose rules a policy compiled rather than reused, in order."""
    names = []
    compiled_rules = ControlFile.compiled_rules

    def counting(self, macros, tables):
        rules, compiled_now = compiled_rules(self, macros, tables)
        if compiled_now:
            names.append(self.name)
        return rules, compiled_now

    monkeypatch.setattr(ControlFile, "compiled_rules", counting)
    return names


class TestParsedOncePerContent:
    def test_identical_files_are_not_parsed_again(self, parsed):
        engine = PolicyEngine()
        engine.add_control_files(FILES)
        engine.rebuild()
        assert sorted(parsed) == sorted(FILES)
        del parsed[:]
        engine.add_control_files(dict(FILES))
        engine.rebuild()
        engine.rebuild()
        assert parsed == []

    def test_only_the_changed_file_is_parsed(self, parsed):
        engine = PolicyEngine()
        engine.add_control_files(FILES)
        engine.rebuild()
        del parsed[:]
        engine.add_control_files({**FILES, "50-vendor.control": "pass from any to any port 443\n"})
        assert engine.rule_count() == 3
        assert parsed == ["50-vendor.control"]
        assert "port 443" in engine.evaluator.ruleset.to_text()

    def test_a_changed_provenance_is_a_changed_file(self, parsed):
        loader = RulesetLoader()
        first = loader.add_file("50-vendor", FILES["50-vendor.control"])
        assert loader.add_file("50-vendor.control", first.text) is first
        vendor = loader.add_file("50-vendor.control", first.text, provenance="vendor")
        assert vendor is not first and loader.get("50-vendor").provenance == "vendor"

    def test_removed_then_added_is_parsed_again(self, parsed):
        engine = PolicyEngine()
        engine.add_control_files(FILES)
        engine.rebuild()
        del parsed[:]
        assert engine.remove_control_file("50-vendor.control")
        assert engine.rule_count() == 2 and parsed == []
        engine.add_control_file("50-vendor.control", FILES["50-vendor.control"])
        assert engine.rule_count() == 3 and parsed == ["50-vendor.control"]

    def test_a_file_that_does_not_parse_raises_on_every_rebuild(self, parsed):
        engine = PolicyEngine()
        engine.add_control_files({**FILES, "60-broken.control": "pass frm any to any\n"})
        for attempt in range(1, 4):
            with pytest.raises(PFError):
                engine.rebuild()
            assert parsed.count("60-broken.control") == attempt
        assert engine.ruleset_epoch == 0
        engine.add_control_file("60-broken.control", "pass from any to any port 22\n")
        assert engine.rule_count() == 4

    def test_control_file_is_immutable(self):
        control_file = ControlFile("00-header.control", "block all\n")
        with pytest.raises(dataclasses.FrozenInstanceError):
            control_file.text = "pass all\n"
        assert control_file.ruleset is control_file.ruleset
        assert control_file == ControlFile("00-header.control", "block all\n")


class TestCompiledOncePerContent:
    def test_only_the_changed_file_is_compiled(self, compiled):
        engine = PolicyEngine(default_action="block")
        engine.add_control_files(FILES)
        assert engine.evaluator.compiled.rules_compiled == 3
        assert sorted(compiled) == sorted(FILES)
        del compiled[:]
        engine.add_control_files({**FILES, "50-vendor.control": "pass from any to any port 443\n"})
        assert engine.evaluator.compiled.rules_compiled == 1
        assert compiled == ["50-vendor.control"]
        assert engine.decide(FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 443)).is_pass

    def test_a_moved_macro_recompiles_every_file_and_reaches_their_rules(self, compiled):
        engine = PolicyEngine(default_action="block")
        engine.add_control_files({
            "00-header.control": 'web = "192.168.1.1"\nblock all\n',
            "50-vendor.control": "pass from any to $web port 80\n",
        })
        assert engine.decide(WEB).is_pass
        del compiled[:]
        engine.add_control_file("00-header.control", 'web = "10.9.9.9"\nblock all\n')
        assert not engine.decide(WEB).is_pass
        assert sorted(compiled) == ["00-header.control", "50-vendor.control"]

    def test_a_moved_table_reaches_the_other_files_rules(self):
        engine = PolicyEngine(default_action="block")
        engine.add_control_files({
            "00-header.control": "table <web> { 192.168.1.0/24 }\nblock all\n",
            "50-vendor.control": "pass from any to <web> port 80\n",
        })
        assert engine.decide(WEB).is_pass
        engine.add_control_file("00-header.control", "block all\n")
        with pytest.raises(PFError, match="unknown table <web>"):
            engine.decide(WEB)
        engine.add_control_file("00-header.control", "table <web> { 10.0.0.0/8 }\nblock all\n")
        assert not engine.decide(WEB).is_pass

    def test_a_table_mutation_recompiles_everything(self):
        engine = PolicyEngine(default_action="block")
        engine.add_control_files(FILES)
        evaluator = engine.evaluator
        first = evaluator.compiled
        evaluator.tables.add_table("lan", ["10.0.0.0/8"])
        assert evaluator.compiled is not first and evaluator.compiled.rules_compiled == 3

    def test_a_quarantine_compiles_only_its_own_file(self, compiled):
        net = IdentPPNetwork("quarantine-compile")
        switch = net.add_switch("sw")
        net.add_host(HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}), switch=switch)
        net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=switch)
        net.set_policy(FILES)
        policy = net.controller.policy
        policy.evaluator.compiled
        del compiled[:]
        for last_octet in (20, 21, 22):
            net.controller.quarantine_host(f"192.168.0.{last_octet}")
            assert policy.evaluator.compiled.rules_compiled == 2
        assert compiled == [f"00-quarantine-192.168.0.{n}.control" for n in (20, 21, 22)]


class TestAReloadIsStillAReload:
    def test_fresh_evaluator_zeroed_counters_next_epoch_fresh_pubkeys(self, parsed, compiled):
        engine = PolicyEngine(default_action="block")
        engine.delegations.grant("research", Signer("research", seed=4))
        engine.add_control_files(FILES)
        before = engine.evaluator
        for _ in range(3):
            engine.decide(WEB)
        assert before.stats()["evaluations"] == 3.0 and before.compiled.index_lookups == 3
        epoch, refreshes = engine.ruleset_epoch, engine.pubkeys_refreshes
        del compiled[:]

        engine.add_control_files(FILES)
        after = engine.evaluator
        assert after is not before and after.ruleset is not before.ruleset
        assert after.stats()["evaluations"] == 0.0
        policy = after.compiled
        assert policy is not before.compiled and policy.index is not before.compiled.index
        assert policy.rules_compiled == 0 and compiled == []  # every rule is the kept compile
        assert all(a is b for a, b in zip(policy.rules, before.compiled.rules))
        assert (policy.index_lookups, policy.candidates_visited, policy.gate_skipped) == (0, 0, 0)
        assert engine.ruleset_epoch == epoch + 1
        assert "pubkeys" not in after.dicts
        assert engine.decide(WEB).is_pass
        assert engine.pubkeys_refreshes == refreshes + 1 and "research" in after.dicts["pubkeys"]
        assert after.stats()["evaluations"] == 1.0 and policy.index_lookups == 1
        assert len(parsed) == len(FILES)  # the first build's, nothing since


def _outcome(evaluator, flow, src, dst):
    """A verdict by value (rules compare by content, origin and line) or the error raised."""
    try:
        verdict = evaluator.evaluate(flow, src, dst)
    except ReproError as error:
        return type(error), str(error)
    return (
        verdict.action, verdict.rule, verdict.matched_rules,
        verdict.quick_terminated, verdict.default_used,
    )


def _assert_same_verdicts(memoised, scratch, flows, src, dst):
    """The memoised build, compiled from whatever its files kept, decides like a fresh one."""
    evaluators = [PolicyEvaluator(r, default_action="block") for r in (memoised, scratch)]
    for flow in flows + [None]:
        assert _outcome(evaluators[0], flow, src, dst) == _outcome(evaluators[1], flow, src, dst)


_names = st.sampled_from(["00-header", "50-vendor.control", "60-extra", "99-footer.control"])
_operations = st.lists(st.tuples(_names, st.none() | rulesets), min_size=1, max_size=6)

#: Header definitions the vendor file's rules read, each in two versions.
HEADER_DEFINITIONS = (
    'servers = "192.168.1.1 10.1.2.3"',
    'servers = "8.8.8.8"',
    'appname = "skype"',
    'appname = "http"',
    "table <lan> { 192.168.0.0/24 10.0.0.0/8 }",
    "table <lan> { 8.8.8.8 }",
    "table <inside> { <lan> <dmz> }",
    "table <dmz> { 172.16.0.1 }",
)
_headers = st.lists(st.sampled_from(HEADER_DEFINITIONS), max_size=4).map("\n".join)


class TestMemoisedLoaderDifferential:
    @settings(max_examples=40, deadline=None)
    @given(operations=_operations, flows=st.lists(tcp_flows, max_size=3), src=documents, dst=documents)
    def test_build_equals_build_ruleset_from_scratch(self, operations, flows, src, dst):
        """One loader lives through the sequence; a new one is built from the file set each step."""
        loader = RulesetLoader()
        files = {}
        for name, text in operations:
            full_name = name if name.endswith(".control") else name + ".control"
            if text is None:
                assert loader.remove_file(name) == (files.pop(full_name, None) is not None)
            else:
                loader.add_file(name, text)
                files[full_name] = text
            memoised, scratch = loader.build(), build_ruleset(files)
            assert memoised.name == scratch.name
            assert memoised.to_text() == scratch.to_text()
            assert memoised.statements == scratch.statements  # content, origins and lines
            _assert_same_verdicts(memoised, scratch, flows, src, dst)

    @settings(max_examples=40, deadline=None)
    @given(
        headers=st.lists(_headers, min_size=1, max_size=4),
        vendor=st.lists(rules, min_size=1, max_size=4).map("\n".join),
        flows=st.lists(tcp_flows, max_size=3),
        src=documents,
        dst=documents,
    )
    def test_a_header_redefinition_reaches_the_vendor_rules(self, headers, vendor, flows, src, dst):
        """Only ``00-header`` moves; ``50-vendor`` reads its macros and tables."""
        loader = RulesetLoader()
        loader.add_file("50-vendor", vendor)
        for header in headers:
            loader.add_file("00-header", header)
            files = {"00-header.control": header, "50-vendor.control": vendor}
            _assert_same_verdicts(loader.build(), build_ruleset(files), flows, src, dst)


class TestClusterReloadParsesOnce:
    def test_four_shards_parse_a_changed_file_once(self, parsed, compiled):
        net = build_cluster_network(shards=4)
        cluster = net.cluster
        assert parsed == ["00-default.control"]  # validation's parse served every shard
        assert compiled == ["00-default.control"]  # and so did its compile
        del parsed[:], compiled[:]
        cluster.set_policy({"50-vendor.control": FILES["50-vendor.control"]})
        assert parsed == ["50-vendor.control"]
        shared = {id(c.policy.loader.get("50-vendor")) for c in cluster.replicas.values()}
        assert len(shared) == 1
        epochs = {c.policy.ruleset_epoch for c in cluster.replicas.values()}
        assert all(c.policy.evaluator.compiled.rules_compiled == 0 for c in cluster.replicas.values())
        assert compiled == ["50-vendor.control"]  # one compile in total, in validation

        cluster.set_policy({"50-vendor.control": FILES["50-vendor.control"]})
        assert parsed == ["50-vendor.control"]  # unchanged text: no parse anywhere
        assert {c.policy.ruleset_epoch for c in cluster.replicas.values()} == {e + 1 for e in epochs}
        assert cluster.coordinator.verify_converged()
        assert all(c.policy.rule_count() == 3 for c in cluster.replicas.values())
        assert net.send_flow("client", "http", "alice", "192.168.1.1", 80).delivered
        assert compiled == ["50-vendor.control"]  # nor a compile

    def test_a_crashed_shard_resyncs_to_the_same_parse(self, parsed, compiled):
        net = build_cluster_network(shards=4)
        cluster = net.cluster
        victim = sorted(cluster.replicas)[0]
        cluster.kill(victim)
        del parsed[:], compiled[:]
        cluster.set_policy({"50-vendor.control": FILES["50-vendor.control"]})
        cluster.restore(victim)
        assert parsed == ["50-vendor.control"]
        assert cluster.replicas[victim].policy.rule_count() == 3
        assert cluster.replicas[victim].policy.evaluator.compiled.rules_compiled == 0
        assert compiled == ["50-vendor.control"]
        assert cluster.coordinator.verify_converged()


class TestReloadValidationCompiles:
    """A cluster reload whose rule can only ever raise is refused; the old rules keep deciding."""

    @pytest.mark.parametrize("rule, defect", [
        ("pass from $webserver to any port 80", "unknown macro $webserver used as an address"),
        ("pass from any to any port 80 with member(@src[name], $apps)", "unknown macro $apps"),
        ("pass from any to <servers> port 80", "unknown table <servers>"),
        ("pass from !<loop> to any", "cyclic table definition: loop -> loop"),
    ])
    def test_a_rule_that_always_raises_is_refused(self, rule, defect):
        net = build_cluster_network(shards=4)
        cluster = net.cluster
        epoch = cluster.coordinator.epoch
        with pytest.raises(PolicyError) as refused:
            cluster.set_policy(
                {"50-vendor.control": f"table <loop> {{ <loop> }}\n\n{rule}\n"}
            )
        assert str(refused.value).startswith("50-vendor.control, line 3: ")
        assert str(refused.value).endswith(defect)
        assert cluster.coordinator.epoch == epoch
        assert all("50-vendor.control" not in c.policy.loader.file_names() for c in cluster.replicas.values())
        for _ in range(6):
            assert net.send_flow("client", "http", "alice", "192.168.1.1", 80).delivered
        records = [r for c in cluster.replicas.values() for r in c.audit.records()]
        assert len(records) == 6 and not any(r.rule_origin == "error" for r in records)

    def test_a_table_the_reload_defines_is_accepted(self):
        net = build_cluster_network(shards=2)
        net.cluster.set_policy({
            "10-tables.control": "table <servers> { 192.168.1.0/24 }\n",
            "50-vendor.control": "pass from any to <servers> port 80\n",
        })
        assert net.send_flow("client", "http", "alice", "192.168.1.1", 80).delivered
