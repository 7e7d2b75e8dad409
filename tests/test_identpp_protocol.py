"""Tests for the ident++ protocol: flow specs, key/value documents, wire format."""

import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.exceptions import WireFormatError
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import KeyValueSection, ResponseDocument
from repro.identpp.wire import (
    IDENT_PP_PORT,
    IdentQuery,
    IdentResponse,
    parse_query_packet,
    parse_query_payload,
    parse_response_payload,
)
from repro.netsim.packet import Packet
from tests.reference_identity import ReferenceDocument


class TestFlowSpec:
    def test_from_packet(self):
        packet = Packet.tcp("10.0.0.1", "10.0.0.2", 1234, 80)
        flow = FlowSpec.from_packet(packet)
        assert str(flow.src_ip) == "10.0.0.1"
        assert flow.dst_port == 80
        assert flow.proto_name() == "tcp"
        assert flow.matches_packet(packet)

    def test_reversed(self):
        flow = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1234, 80)
        back = flow.reversed()
        assert back.src_port == 80 and back.dst_port == 1234
        assert back.reversed() == flow

    def test_hashable(self):
        a = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2)
        b = FlowSpec.tcp("10.0.0.1", "10.0.0.2", 1, 2)
        assert a == b and len({a, b}) == 1

    def test_hash_is_the_same_however_the_flow_was_spelled(self):
        from_text = FlowSpec("10.0.0.1", "10.0.0.2", "tcp", 1234, 80)
        from_packet = FlowSpec.from_packet(Packet.tcp("10.0.0.1", "10.0.0.2", 1234, 80))
        there_and_back = from_text.reversed().reversed()
        assert hash(from_text) == hash(from_packet) == hash(there_and_back)
        assert {from_text: "pending"}[from_packet] == "pending"
        assert hash(from_text) != hash(from_text.reversed())

    def test_udp_constructor(self):
        assert FlowSpec.udp("1.1.1.1", "2.2.2.2", 53, 53).proto_name() == "udp"

    def test_string_form(self):
        assert str(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2)) == "tcp 1.1.1.1:1 -> 2.2.2.2:2"


class TestKeyValueSections:
    def test_section_last_duplicate_wins(self):
        section = KeyValueSection()
        section.add("name", "skype")
        section.add("name", "http")
        assert section.get("name") == "http"
        assert section.keys() == ["name"]
        assert len(section) == 2

    def test_empty_key_rejected(self):
        with pytest.raises(WireFormatError):
            KeyValueSection().add("  ", "value")

    def test_latest_takes_last_section(self):
        document = ResponseDocument()
        document.add_section({"userID": "alice"}, source="daemon")
        document.add_section({"userID": "trusted-override"}, source="controller")
        assert document.latest("userID") == "trusted-override"

    def test_concatenated_joins_all_sections(self):
        document = ResponseDocument()
        document.add_section({"userID": "alice"})
        document.add_section({"userID": "alice"})
        document.add_section({"userID": "mallory"})
        assert document.concatenated("userID") == "alice alice mallory"
        assert document.all_values("userID") == ["alice", "alice", "mallory"]

    def test_missing_key(self):
        document = ResponseDocument()
        document.add_section({"a": "1"})
        assert document.latest("missing") is None
        assert document.concatenated("missing") == ""
        assert not document.has_key("missing")

    def test_empty_sections_not_stored(self):
        document = ResponseDocument()
        document.add_section({})
        assert document.section_count() == 0
        assert not document

    def test_augment_appends_new_section(self):
        document = ResponseDocument()
        document.add_section({"userID": "alice"}, source="daemon")
        document.augment({"remote-accept": "no"}, source="branch-b")
        assert document.section_count() == 2
        assert document.sources() == ["daemon", "branch-b"]

    def test_body_round_trip(self):
        document = ResponseDocument()
        document.add_section({"userID": "alice", "name": "skype"})
        document.add_section({"requirements": "block all pass all"})
        restored = ResponseDocument.from_body(document.to_body())
        assert restored.section_count() == 2
        assert restored.latest("requirements") == "block all pass all"
        assert restored.as_flat_dict() == document.as_flat_dict()

    def test_malformed_body_rejected(self):
        with pytest.raises(WireFormatError):
            ResponseDocument.from_body("no colon here")

    def test_copy_is_independent(self):
        document = ResponseDocument()
        document.add_section({"a": "1"})
        clone = document.copy()
        clone.augment({"b": "2"})
        assert document.section_count() == 1 and clone.section_count() == 2

    @given(st.dictionaries(
        st.text(alphabet="abcdefghij-", min_size=1, max_size=8),
        st.text(alphabet="abcdefghij0123456789 ", min_size=0, max_size=12).map(str.strip),
        min_size=1, max_size=5,
    ))
    def test_property_body_round_trip(self, pairs):
        document = ResponseDocument()
        document.add_section(pairs)
        restored = ResponseDocument.from_body(document.to_body())
        assert restored.as_flat_dict() == {k: v for k, v in pairs.items()}


# Few keys, so duplicates within a section and overrides across sections
# are the common case; values survive the body format unchanged.
_KEYS = st.sampled_from(["userID", "name", "version", "req-sig", "x"])
_VALUES = st.text(alphabet="ab 01", max_size=5).map(str.strip)
_PAIRS = st.lists(st.tuples(_KEYS, _VALUES), max_size=6)
_PICK = st.integers(min_value=0)


class DocumentDifferential(RuleBasedStateMachine):
    """Edit a document and a list-of-lists model alike; the oracle reads the model."""

    @initialize(sections=st.lists(_PAIRS, max_size=3))
    def build(self, sections):
        self.document = ResponseDocument([KeyValueSection(pairs=list(p)) for p in sections if p])
        self.model = [list(pairs) for pairs in sections if pairs]

    def has_sections(self):
        return bool(self.model)

    @rule(pairs=_PAIRS, as_dict=st.booleans())
    def add_section(self, pairs, as_dict):
        if as_dict:
            pairs = list(dict(pairs).items())
            self.document.add_section(dict(pairs), source="dict")
        else:
            self.document.add_section(KeyValueSection(pairs=list(pairs)), source="section")
        if pairs:
            self.model.append(list(pairs))

    @rule(pairs=_PAIRS)
    def augment(self, pairs):
        self.document.augment(dict(pairs), source="controller")
        if pairs:
            self.model.append(list(dict(pairs).items()))

    @precondition(has_sections)
    @rule(pick=_PICK, key=_KEYS, value=_VALUES, direct=st.booleans())
    def append_pair(self, pick, key, value, direct):
        index = pick % len(self.model)
        section = self.document.sections[index]
        if direct:
            section.pairs.append((key, value))
        else:
            section.add(key, f"  {value} ")
        self.model[index].append((key, value))

    @precondition(has_sections)
    @rule(pick=_PICK, where=_PICK, key=_KEYS, value=_VALUES)
    def overwrite_pair(self, pick, where, key, value):
        index = pick % len(self.model)
        where %= len(self.model[index])
        self.document.sections[index].pairs[where] = (key, value)
        self.model[index][where] = (key, value)

    @precondition(has_sections)
    @rule(pick=_PICK, pairs=_PAIRS.filter(bool), how=st.sampled_from(["assign", "extend", "pop"]))
    def rewrite_pairs(self, pick, pairs, how):
        index = pick % len(self.model)
        section = self.document.sections[index]
        if how == "assign":
            section.pairs = list(pairs)
            self.model[index] = list(pairs)
        elif how == "extend":
            section.pairs += pairs
            self.model[index] += pairs
        elif len(self.model[index]) > 1:
            section.pairs.pop()
            self.model[index].pop()

    @precondition(has_sections)
    @rule(pick=_PICK)
    def drop_section(self, pick):
        index = pick % len(self.model)
        del self.document.sections[index]
        del self.model[index]

    @rule()
    def continue_with_copy(self):
        original, self.document = self.document, self.document.copy()
        self.document.augment({"x": "copy-only"})
        assert original.to_body() == _body(self.model)
        self.model.append([("x", "copy-only")])

    @rule()
    def round_trip_through_body(self):
        self.document = ResponseDocument.from_body(self.document.to_body())

    @invariant()
    def reads_agree(self):
        oracle = ReferenceDocument(self.model)
        flat = self.document.as_flat_dict()
        assert flat == oracle.as_flat_dict()
        assert list(flat) == self.document.keys() == oracle.keys()
        assert self.document.to_body() == _body(self.model)
        for key in ("userID", "name", "version", "req-sig", "x", "absent"):
            assert self.document.latest(key) == oracle.latest(key)
            assert self.document.has_key(key) == (oracle.latest(key) is not None)
            assert self.document.concatenated(key) == oracle.concatenated(key)
            assert self.document.concatenated(key, "|") == oracle.concatenated(key, "|")
        for section, pairs in zip(self.document.sections, self.model):
            assert section.keys() == list(dict(pairs))
            assert section.as_dict() == dict(pairs)


def _body(model):
    return "\n\n".join("\n".join(f"{k}: {v}" for k, v in pairs) for pairs in model)


DocumentDifferential.TestCase.settings = settings(
    max_examples=80, stateful_step_count=30, deadline=None
)
TestDocumentDifferential = DocumentDifferential.TestCase


class TestWireFormat:
    def flow(self):
        return FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)

    def test_query_payload_format(self):
        query = IdentQuery(flow=self.flow(), target_role="src", keys=("userID", "name"))
        lines = query.to_payload().splitlines()
        assert lines[0] == "TCP 40000 80"
        assert lines[1:] == ["userID", "name"]

    def test_query_packet_spoofs_source_ip(self):
        query = IdentQuery(flow=self.flow(), target_role="src")
        packet = query.to_packet()
        # query to the flow's source carries the flow's destination as its source IP
        assert str(packet.ip_src) == "192.168.1.1"
        assert str(packet.ip_dst) == "192.168.0.10"
        assert packet.tp_dst == IDENT_PP_PORT

    def test_query_packet_to_destination(self):
        query = IdentQuery(flow=self.flow(), target_role="dst")
        packet = query.to_packet()
        assert str(packet.ip_src) == "192.168.0.10"
        assert str(packet.ip_dst) == "192.168.1.1"

    def test_query_round_trip_via_packet(self):
        query = IdentQuery(flow=self.flow(), target_role="src", keys=("userID",))
        parsed = parse_query_packet(query.to_packet())
        assert parsed.flow == self.flow()
        assert parsed.keys == ("userID",)
        assert parsed.target_role == "src"

    def test_query_round_trip_destination_role(self):
        query = IdentQuery(flow=self.flow(), target_role="dst")
        parsed = parse_query_packet(query.to_packet())
        assert parsed.flow == self.flow()

    def test_unknown_role_rejected(self):
        with pytest.raises(WireFormatError):
            IdentQuery(flow=self.flow(), target_role="middle")

    def test_parse_query_payload_defaults_keys(self):
        parsed = parse_query_payload(
            "TCP 40000 80", query_src_ip="192.168.1.1", query_dst_ip="192.168.0.10"
        )
        assert parsed.keys  # falls back to the default hint list

    @pytest.mark.parametrize("payload", ["", "TCP 1", "TCP a b", "TCP 99999 80"])
    def test_malformed_query_payload_rejected(self, payload):
        with pytest.raises(WireFormatError):
            parse_query_payload(payload, query_src_ip="1.1.1.1", query_dst_ip="2.2.2.2")

    def test_non_identpp_packet_rejected(self):
        with pytest.raises(WireFormatError):
            parse_query_packet(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80))

    def test_response_payload_round_trip(self):
        document = ResponseDocument()
        document.add_section({"userID": "alice", "name": "skype"}, source="daemon")
        document.add_section({"remote-accept": "no"}, source="controller")
        response = IdentResponse(flow=self.flow(), document=document, responder="host-a")
        payload = response.to_payload()
        assert payload.splitlines()[0] == "TCP 40000 80"
        assert "" in payload.splitlines()  # blank line separates sections
        parsed = parse_response_payload(payload, flow=self.flow())
        assert parsed.document.latest("userID") == "alice"
        assert parsed.document.section_count() == 2

    def test_response_flow_mismatch_rejected(self):
        response = IdentResponse(flow=self.flow(), document=ResponseDocument())
        other_flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 22)
        with pytest.raises(WireFormatError):
            parse_response_payload(response.to_payload(), flow=other_flow)

    def test_response_to_packet_reverses_query(self):
        query_packet = IdentQuery(flow=self.flow(), target_role="src").to_packet()
        response = IdentResponse(flow=self.flow(), document=ResponseDocument(), responder="h")
        reply = response.to_packet(query_packet)
        assert reply.ip_dst == query_packet.ip_src
        assert reply.tp_dst == IDENT_PP_PORT
