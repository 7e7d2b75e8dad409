"""Tests for the core package: cache, audit, delegation, interception, policy engine."""

import pytest

from repro.core.audit import AuditLog, DecisionRecord
from repro.core.cache import DecisionCache
from repro.core.delegation import DelegationManager
from repro.core.interception import InterceptionPolicy
from repro.core.policy_engine import PolicyEngine
from repro.crypto.signatures import Signer
from repro.exceptions import DelegationError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.identpp.wire import IdentQuery

FLOW = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)


def doc(pairs):
    document = ResponseDocument()
    document.add_section(dict(pairs))
    return document


class TestDecisionCache:
    def test_store_and_lookup(self):
        cache = DecisionCache(ttl=10.0)
        cache.store(FLOW, "pass", "cookie-1", now=0.0)
        assert cache.lookup(FLOW, now=5.0).is_pass
        assert cache.hit_rate() == 1.0

    def test_ttl_expiry(self):
        cache = DecisionCache(ttl=10.0)
        cache.store(FLOW, "pass", "cookie-1", now=0.0)
        assert cache.lookup(FLOW, now=20.0) is None

    def test_reverse_direction_only_for_keep_state(self):
        cache = DecisionCache()
        cache.store(FLOW, "pass", "c1", now=0.0, keep_state=True)
        assert cache.lookup(FLOW.reversed(), now=1.0) is not None
        plain = DecisionCache()
        plain.store(FLOW, "pass", "c1", now=0.0, keep_state=False)
        assert plain.lookup(FLOW.reversed(), now=1.0) is None

    def test_block_decision_does_not_cover_reverse(self):
        cache = DecisionCache()
        cache.store(FLOW, "block", "c1", now=0.0, keep_state=True)
        assert cache.lookup(FLOW.reversed(), now=1.0) is None

    def test_invalidate_cookie(self):
        cache = DecisionCache()
        cache.store(FLOW, "pass", "c1", now=0.0, keep_state=True)
        assert cache.invalidate_cookie("c1") == 1
        assert FLOW not in cache
        assert cache.lookup(FLOW.reversed(), now=1.0) is None


class TestAuditLog:
    def record(self, action="pass", delegated=False, cached=False):
        return DecisionRecord(
            time=0.0, flow=FLOW, action=action, rule_text="pass all", rule_origin="00-x.control",
            cookie="c1", delegated=delegated, cached=cached,
            src_keys={"userID": "alice"},
        )

    def test_summary_counts(self):
        log = AuditLog()
        log.record(self.record("pass"))
        log.record(self.record("block"))
        log.record(self.record("pass", delegated=True))
        summary = log.summary()
        assert summary == {"total": 3, "pass": 2, "block": 1, "delegated": 1, "cached": 0}

    def test_filters(self):
        log = AuditLog()
        log.record(self.record("pass"))
        log.record(self.record("block", delegated=True))
        assert len(log.filter(action="block")) == 1
        assert len(log.delegated_decisions()) == 1
        assert len(log.decisions_for_user("alice")) == 2
        assert len(log.filter(flow=FLOW.reversed())) == 0


class TestDelegationManager:
    def test_grant_and_pubkeys(self):
        manager = DelegationManager()
        signer = Signer("research", seed=1)
        manager.grant("research", signer)
        assert manager.is_active("research")
        assert manager.pubkeys_dict()["research"] == signer.public_key_hex

    def test_duplicate_grant_rejected(self):
        manager = DelegationManager()
        manager.grant("research", Signer("research", seed=1))
        with pytest.raises(DelegationError):
            manager.grant("research", Signer("research", seed=2))

    def test_revoke_removes_key(self):
        manager = DelegationManager()
        manager.grant("research", Signer("research", seed=1))
        manager.record_use("research", "cookie-1")
        grant = manager.revoke("research")
        assert grant.revoked and grant.decisions == ["cookie-1"]
        assert "research" not in manager.pubkeys_dict()
        with pytest.raises(DelegationError):
            manager.revoke("research")


class TestInterceptionPolicy:
    def test_static_answer_for_subnet(self):
        policy = InterceptionPolicy("edge")
        policy.answer_for_subnet("192.168.0.0/24", {"userID": "registered"})
        query = IdentQuery(flow=FLOW, target_role="src")
        answer = policy.intercept_query(query)
        assert answer is not None
        assert answer.document.latest("userID") == "registered"
        # hosts outside the subnet are not answered for
        other = IdentQuery(flow=FlowSpec.tcp("10.9.9.9", "192.168.1.1", 1, 2), target_role="src")
        assert policy.intercept_query(other) is None

    def test_augmentation_with_predicate(self):
        policy = InterceptionPolicy("branch-b")
        policy.augment_flows_to("192.168.1.0/24", {"remote-accept": "no"})
        query = IdentQuery(flow=FLOW, target_role="dst")
        from repro.identpp.wire import IdentResponse
        response = IdentResponse(flow=FLOW, document=doc({"userID": "bob"}))
        policy.augment_response(query, response)
        assert response.document.latest("remote-accept") == "no"
        assert response.document.section_count() == 2

    def test_augmentation_skips_non_matching_flows(self):
        policy = InterceptionPolicy("branch-b")
        policy.augment_flows_to("10.2.0.0/16", {"remote-accept": "no"})
        from repro.identpp.wire import IdentResponse
        response = IdentResponse(flow=FLOW, document=doc({"userID": "bob"}))
        policy.augment_response(IdentQuery(flow=FLOW, target_role="dst"), response)
        assert response.document.latest("remote-accept") is None


class TestPolicyEngine:
    def test_alphabetical_concatenation_and_decisions(self):
        engine = PolicyEngine(default_action="pass")
        engine.add_control_files({
            "00-default.control": "block all\n",
            "50-apps.control": "pass all with eq(@src[name], http)\n",
        })
        assert engine.rule_count() == 2
        assert engine.decide(FLOW, doc({"name": "http"})).is_pass
        assert not engine.decide(FLOW, doc({"name": "telnet"})).is_pass

    def test_rebuild_after_file_change(self):
        engine = PolicyEngine()
        engine.add_control_file("00-a.control", "block all\n")
        assert not engine.decide(FLOW, doc({})).is_pass
        engine.add_control_file("00-a.control", "pass all\n")
        assert engine.decide(FLOW, doc({})).is_pass
        engine.remove_control_file("00-a.control")
        assert engine.rule_count() == 0

    def test_delegation_detection_and_principals(self):
        signer = Signer("research", seed=4)
        engine = PolicyEngine()
        engine.delegations.grant("research", signer)
        engine.add_control_files({
            "00-default.control": "block all\n",
            "30-research.control": (
                "pass all with allowed(@src[requirements]) "
                "with verify(@src[req-sig], @pubkeys[research], @src[requirements])\n"
            ),
        })
        requirements = "block all pass all"
        signature = signer.sign([requirements])
        decision = engine.decide(FLOW, doc({"requirements": requirements, "req-sig": signature}))
        assert decision.is_pass
        assert decision.delegated
        assert set(decision.delegation_functions) == {"allowed", "verify"}
        assert decision.principals == ("research",)

    def test_revoked_grant_stops_verifying(self):
        signer = Signer("research", seed=4)
        engine = PolicyEngine()
        engine.delegations.grant("research", signer)
        engine.add_control_files({
            "00-default.control": "block all\n",
            "30-research.control": "pass all with verify(@src[req-sig], @pubkeys[research], @src[data])\n",
        })
        signature = signer.sign(["payload"])
        src = doc({"req-sig": signature, "data": "payload"})
        assert engine.decide(FLOW, src).is_pass
        engine.delegations.revoke("research")
        assert not engine.decide(FLOW, src).is_pass

    def test_config_pubkeys_override_grants(self):
        signer = Signer("research", seed=4)
        other = Signer("other", seed=5)
        engine = PolicyEngine()
        engine.delegations.grant("research", other)
        engine.add_control_files({
            "00-default.control": "block all\n",
            "30-research.control": (
                f"dict <pubkeys> {{ research : {signer.public_key_hex} }}\n"
                "pass all with verify(@src[req-sig], @pubkeys[research], @src[data])\n"
            ),
        })
        src = doc({"req-sig": signer.sign(["payload"]), "data": "payload"})
        assert engine.decide(FLOW, src).is_pass

    def test_stats(self):
        engine = PolicyEngine()
        engine.add_control_file("00-a.control", "block all\n")
        engine.decide(FLOW, doc({}))
        stats = engine.stats()
        assert stats["decisions_made"] == 1.0
        assert stats["control_files"] == 1.0
