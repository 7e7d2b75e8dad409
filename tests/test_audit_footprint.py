"""What an audit record keeps: the decision's identity views, once.

* :class:`~repro.identpp.keyvalue.KeyView` against
  :meth:`ResponseDocument.as_flat_dict` — its oracle — over generated
  documents: repeated keys within and across sections, empty sections,
  on-path augmentation;
* the reuse rule: the same content is the same object, the same keys
  with new values share the keys tuple, new keys share nothing;
* ``DecisionRecord``, ``FlowSpec`` and ``Packet`` carry no ``__dict__``;
* a tripwire on the bytes a decided punt leaves behind.
"""

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
from repro.workloads import decision_core
from repro.workloads.soak import open_web_flows

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

    def test_flow_hash_is_not_part_of_equality_or_repr(self):
        flow = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80)
        assert flow == FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1000, 80)
        assert hash(flow) == hash(flow.as_tuple())
        assert "_hash" not in repr(flow)


#: Unique punts per burst of :func:`audit_bytes_per_decision`.
PUNTS = 1000
#: What a decided punt may leave behind (~746 B: the slotted record, its
#: flow, cookie and times, the source end's view values; ~1 292 B while
#: a record kept two flat-dict copies of what the decision saw).
AUDIT_BYTES_CEILING = 900


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
