"""A control file is parsed once per distinct content; a reload stays a reload.

§3.4's policy is several ``.control`` files, some the administrator's
and some a vendor's, so a reload normally changes one of them.  The
registered :class:`~repro.pf.ruleset.ControlFile` carries its own parse:
these tests count calls to the parser through a reload of unchanged,
changed, removed and broken files, on one engine and across a cluster's
shards, and hold the memoised loader to ``build_ruleset`` from scratch
over generated add / replace / remove sequences.
"""

import dataclasses

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.policy_engine import PolicyEngine
from repro.crypto.signatures import Signer
from repro.exceptions import PFError, ReproError
from repro.pf import ruleset as ruleset_module
from repro.pf.evaluator import PolicyEvaluator
from repro.pf.ruleset import ControlFile, RulesetLoader, build_ruleset
from tests.test_cluster_network import build_cluster_network
from tests.test_pf_compiler_parity import documents, rulesets, tcp_flows

FILES = {
    "00-header.control": "block all\n",
    "50-vendor.control": "pass from any to any port 80 keep state\n",
    "99-footer.control": "block from any to any port 23\n",
}


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


class TestAReloadIsStillAReload:
    def test_fresh_evaluator_zeroed_counters_next_epoch_fresh_pubkeys(self, parsed):
        engine = PolicyEngine(default_action="block")
        engine.delegations.grant("research", Signer("research", seed=4))
        engine.add_control_files(FILES)
        before = engine.evaluator
        for _ in range(3):
            engine.decide(None)
        assert before.stats()["evaluations"] == 3.0
        epoch, refreshes = engine.ruleset_epoch, engine.pubkeys_refreshes

        engine.add_control_files(FILES)
        after = engine.evaluator
        assert after is not before and after.ruleset is not before.ruleset
        assert after.stats()["evaluations"] == 0.0
        assert after.compiled is not before.compiled
        assert engine.ruleset_epoch == epoch + 1
        assert "pubkeys" not in after.dicts
        engine.decide(None)
        assert engine.pubkeys_refreshes == refreshes + 1 and "research" in after.dicts["pubkeys"]
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


_names = st.sampled_from(["00-header", "50-vendor.control", "60-extra", "99-footer.control"])
_operations = st.lists(st.tuples(_names, st.none() | rulesets), min_size=1, max_size=6)


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
        evaluators = [PolicyEvaluator(r, default_action="block") for r in (memoised, scratch)]
        for flow in flows + [None]:
            assert _outcome(evaluators[0], flow, src, dst) == _outcome(evaluators[1], flow, src, dst)


class TestClusterReloadParsesOnce:
    def test_four_shards_parse_a_changed_file_once(self, parsed):
        net = build_cluster_network(shards=4)
        cluster = net.cluster
        assert parsed == ["00-default.control"]  # validation's parse served every shard
        del parsed[:]
        cluster.set_policy({"50-vendor.control": FILES["50-vendor.control"]})
        assert parsed == ["50-vendor.control"]
        shared = {id(c.policy.loader.get("50-vendor")) for c in cluster.replicas.values()}
        assert len(shared) == 1
        epochs = {c.policy_epoch for c in cluster.replicas.values()}

        cluster.set_policy({"50-vendor.control": FILES["50-vendor.control"]})
        assert parsed == ["50-vendor.control"]  # unchanged text: no parse anywhere
        assert {c.policy_epoch for c in cluster.replicas.values()} == {e + 1 for e in epochs}
        assert cluster.coordinator.verify_converged()
        assert all(c.policy.rule_count() == 3 for c in cluster.replicas.values())
        assert net.send_flow("client", "http", "alice", "192.168.1.1", 80).delivered

    def test_a_crashed_shard_resyncs_to_the_same_parse(self, parsed):
        net = build_cluster_network(shards=4)
        cluster = net.cluster
        victim = sorted(cluster.replicas)[0]
        cluster.kill(victim)
        del parsed[:]
        cluster.set_policy({"50-vendor.control": FILES["50-vendor.control"]})
        cluster.restore(victim)
        assert parsed == ["50-vendor.control"]
        assert cluster.replicas[victim].policy.rule_count() == 3
        assert cluster.coordinator.verify_converged()
