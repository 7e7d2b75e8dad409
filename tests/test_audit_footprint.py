"""What an audit record keeps: the decision's identity views, once.

* :class:`~repro.identpp.keyvalue.KeyView` against
  :meth:`ResponseDocument.as_flat_dict` — its oracle — over generated
  documents: repeated keys within and across sections, empty sections,
  on-path augmentation;
* the reuse rule: the same content is the same object, one moved value
  is a view of the keyframe holding only that value (never of another
  such view), more moved values share the keys tuple, new keys share
  nothing;
* ``DecisionRecord``, ``FlowSpec``, ``Packet``, views and PF AST nodes
  carry no ``__dict__``;
* a tripwire on the bytes a decided punt leaves behind.
"""

import dataclasses
import gc
import tracemalloc
import weakref

import pytest
from hypothesis import given, strategies as st

from repro.core.audit import DecisionRecord
from repro.core.controller import ControllerConfig
from repro.core.policy_engine import PolicyEngine
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import EMPTY_KEYS, KeyValueSection, KeyView, ResponseDocument
from repro.netsim.packet import Packet
from repro.pf import ast_nodes
from repro.pf.parser import parse_ruleset
from repro.workloads import decision_core
from repro.workloads.soak import open_web_flows
from tests.reference_audit import REFERENCE_EMPTY_KEYS, ReferenceKeyView

KEYS = ["userID", "name", "pid", "groupID", "os-patch"]
VALUES = ["alice", "bob", "http", "7", ""]

pairs = st.lists(st.tuples(st.sampled_from(KEYS), st.sampled_from(VALUES)), max_size=6)
extras = st.dictionaries(st.sampled_from(KEYS), st.sampled_from(VALUES), max_size=3)


def build(sections, augments) -> ResponseDocument:
    # The constructor keeps an empty section; ``augment`` appends the way
    # an on-path controller does.
    document = ResponseDocument([KeyValueSection(pairs=list(p)) for p in sections])
    for extra in augments:
        document.augment(extra)
    return document


documents = st.builds(build, st.lists(pairs, max_size=4), st.lists(extras, max_size=2))
#: One host's answers: a new pid, a new name now and then, or anything.
answers = st.one_of(
    documents,
    st.builds(
        lambda pid, name: doc({"userID": "alice", "name": name, "pid": str(pid)}),
        st.integers(100, 103), st.sampled_from(["http", "http", "sshd"]),
    ),
)


def doc(mapping: dict) -> ResponseDocument:
    document = ResponseDocument()
    document.add_section(dict(mapping))
    return document


class TestKeyView:
    @given(document=documents, previous=documents)
    def test_equals_the_flat_dict_in_content_and_order(self, document, previous):
        flat = document.as_flat_dict()
        last = KeyView.of(previous, EMPTY_KEYS)
        view = KeyView.of(document, last)
        assert list(view.items()) == list(flat.items())
        assert list(view) == list(flat)
        assert view == flat and flat == view
        assert len(view) == len(flat)
        for key in KEYS:
            assert view.get(key) == flat.get(key)
            assert (key in view) == (key in flat)
        assert (view == last) == (flat == previous.as_flat_dict())
        if view == last:
            assert hash(view) == hash(last)

    @given(answers=st.lists(st.tuples(st.sampled_from(["10.0.0.1", "10.0.0.2"]), answers), max_size=12))
    def test_every_view_is_its_flat_dict_and_no_delta_chains(self, answers):
        # Views taken per endpoint, as the policy engine takes them, beside
        # the single-slot views the audit kept before one-value deltas.
        last, reference_last = {}, {}
        for address, document in answers:
            view = last[address] = KeyView.of(document, last.get(address, EMPTY_KEYS))
            reference = reference_last[address] = ReferenceKeyView.of(
                document, reference_last.get(address, REFERENCE_EMPTY_KEYS)
            )
            flat = document.as_flat_dict()
            assert view == flat and list(view.items()) == list(flat.items())
            assert view == reference and list(view.items()) == list(reference.items())
            assert hash(view) == hash(KeyView(tuple(flat), tuple(flat.values())))
            if type(view) is not KeyView:
                assert type(view._keyframe) is KeyView

    def test_missing_key_raises_key_error(self):
        view = KeyView.of(doc({"userID": "alice"}), EMPTY_KEYS)
        with pytest.raises(KeyError):
            view["name"]
        assert view.get("name", "none") == "none"

    def test_immutable_and_slotted(self):
        view = KeyView.of(doc({"userID": "alice"}), EMPTY_KEYS)
        with pytest.raises(TypeError):
            view["userID"] = "mallory"
        with pytest.raises(AttributeError):
            view.extra = 1
        assert not hasattr(view, "__dict__")

    def test_equal_views_hash_alike_whatever_their_order(self):
        first = KeyView.of(doc({"a": "1", "b": "2"}), EMPTY_KEYS)
        second = KeyView.of(doc({"b": "2", "a": "1"}), EMPTY_KEYS)
        assert first == second and hash(first) == hash(second)
        assert first != KeyView.of(doc({"a": "1", "b": "3"}), EMPTY_KEYS)


class TestReuse:
    def setup_method(self):
        self.first = KeyView.of(doc({"a": "1", "b": "2"}), EMPTY_KEYS)

    def test_same_content_is_the_same_object(self):
        assert KeyView.of(doc({"a": "1", "b": "2"}), self.first) is self.first

    def test_same_keys_with_new_values_share_the_keys_tuple(self):
        second = KeyView.of(doc({"a": "1", "b": "3"}), self.first)
        assert second is not self.first
        assert second._keys is self.first._keys
        assert second == {"a": "1", "b": "3"}

    def test_one_moved_value_keeps_only_that_value(self):
        second = KeyView.of(doc({"a": "1", "b": "3"}), self.first)
        third = KeyView.of(doc({"a": "1", "b": "4"}), second)
        # Each holds the keyframe and the one value that moved from it.
        assert second._keyframe is third._keyframe is self.first
        assert (third._at, third._value) == (1, "4")
        assert third == {"a": "1", "b": "4"} and third["a"] == "1"
        # Back to the keyframe's content is the keyframe; two values moved
        # from it is a full view again, sharing the keys tuple.
        assert KeyView.of(doc({"a": "1", "b": "2"}), third) is self.first
        fourth = KeyView.of(doc({"a": "2", "b": "5"}), third)
        assert type(fourth) is KeyView and fourth._keys is self.first._keys

    def test_new_keys_share_nothing(self):
        reordered = KeyView.of(doc({"b": "2", "a": "1"}), self.first)
        assert reordered is not self.first
        assert reordered._keys is not self.first._keys
        assert list(reordered) == ["b", "a"]

    def test_no_content_is_the_shared_empty_view(self):
        assert KeyView.of(ResponseDocument(), self.first) is EMPTY_KEYS

    def test_engine_keeps_one_view_of_an_unchanged_answer(self):
        engine = PolicyEngine(default_action="block")
        engine.add_control_file("00-web.control", "pass from any to any port 80")
        decisions = [
            engine.decide(
                FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000 + index, 80),
                doc({"name": "http", "pid": str(index)}),
                doc({"name": "httpd", "userID": "root"}),
            )
            for index in range(3)
        ]
        first, second, third = decisions
        assert first.dst_keys is second.dst_keys is third.dst_keys
        assert first.src_keys is not second.src_keys
        assert first.src_keys._keys is second.src_keys._keys is third.src_keys._keys
        assert second.src_keys == {"name": "http", "pid": "1"}
        assert engine.decide(first.flow, None, None).src_keys is EMPTY_KEYS


class TestSlots:
    def test_no_instance_dicts(self):
        flow = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80)
        record = DecisionRecord(
            time=0.0, flow=flow, action="block", rule_text="", rule_origin="error", cookie="c1",
        )
        packet = Packet.tcp("10.0.0.1", "10.0.0.2", 1000, 80)
        for instance in (record, flow, packet):
            assert not hasattr(instance, "__dict__"), type(instance).__name__
        # A record that saw no documents keeps the one empty view.
        assert record.src_keys is EMPTY_KEYS and record.dst_keys is EMPTY_KEYS
        # The packet capture's tripwire holds packets by weak reference.
        assert weakref.ref(packet)() is packet

    def test_views_and_policy_nodes_are_slotted(self):
        first = KeyView.of(doc({"pid": "1", "userID": "alice"}), EMPTY_KEYS)
        delta = KeyView.of(doc({"pid": "2", "userID": "alice"}), first)
        assert not hasattr(delta, "__dict__")
        # A large policy's AST lives as long as the policy.
        nodes = [cls for cls in vars(ast_nodes).values() if dataclasses.is_dataclass(cls)]
        assert len(nodes) == 13
        for cls in nodes:
            assert "__slots__" in cls.__dict__, cls.__name__
        rule = parse_ruleset("pass from <lan> to any port 80 with allowed(@src[userID])").rules()[0]
        for node in (rule, rule.src, rule.dst, rule.src.address, *rule.conditions, *rule.conditions[0].args):
            assert not hasattr(node, "__dict__"), type(node).__name__

    def test_flow_hash_is_not_part_of_equality_or_repr(self):
        flow = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80)
        assert flow == FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80)
        assert hash(flow) == hash(flow.as_tuple())
        assert "_hash" not in repr(flow)


#: Unique punts per burst of :func:`audit_bytes_per_decision`.
PUNTS = 1000
#: What a decided punt may leave behind (~144 B: a row of the columnar
#: log and the source end's one-value view; ~666 B while the log kept a
#: slotted record with its flow, cookie and a full view per decision,
#: ~1 292 B while a record kept two flat-dict copies of what it saw).
AUDIT_BYTES_CEILING = 160


def audit_bytes_per_decision(punts: int = PUNTS) -> float:
    """Return the bytes one decided punt leaves allocated once its flow is gone.

    The audit log keeps every decision, so what a record holds is the
    controller's memory per decided flow.  Two bursts of ``punts``
    unique web flows on the edge-core bench network, each run until
    quiet — flow entries and cached decisions aged out — with its
    sessions closed and its deliveries drained; ``tracemalloc`` reads
    the growth across the second, so a table that only regrew to its
    first-burst size counts nothing.  Exact for an interpreter.
    """
    net = decision_core.decision_net(
        "audit-footprint",
        ControllerConfig(
            idle_timeout=decision_core.FLOW_TIMEOUT,
            hard_timeout=decision_core.FLOW_TIMEOUT,
            lifecycle_interval=decision_core.LIFECYCLE_INTERVAL,
        ),
        decision_core.PROCESSING_DELAY,
    )
    audit = net.controller.audit

    def burst() -> None:
        opened = open_web_flows(net, punts, decision_core.CLIENTS)
        net.run()
        for client, _, socket, process in opened:
            client.sockets.close(socket)
            client.processes.kill(process.pid)
        for host in net.hosts.values():
            host.delivered.clear()
            host.delivered_times.clear()
        gc.collect()

    gc.collect()
    tracemalloc.start()
    try:
        burst()
        records, traced = len(audit), tracemalloc.get_traced_memory()[0]
        burst()
        grown = tracemalloc.get_traced_memory()[0] - traced
    finally:
        tracemalloc.stop()
    return grown / (len(audit) - records)


def test_a_decided_punt_leaves_under_the_ceiling():
    assert audit_bytes_per_decision() <= AUDIT_BYTES_CEILING
