"""Tests for the OpenFlow match structure and flow table."""

import dataclasses
import math

import pytest
from hypothesis import example, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from repro.exceptions import FlowTableError, MatchError
from repro.netsim.addresses import IPv4Address
from repro.netsim.packet import IP_PROTO_TCP, Packet
from repro.openflow.actions import DropAction, OutputAction, describe_actions
from repro.openflow.flow_table import FlowEntry, FlowTable, make_entry
from repro.openflow.match import MATCH_FIELDS, Match
from tests.reference_flow_table import ReferenceFlowTable


def tcp_packet(src="10.0.0.1", dst="10.0.0.2", sport=1234, dport=80):
    return Packet.tcp(src, dst, sport, dport)


class TestMatch:
    def test_wildcard_matches_everything(self):
        assert Match().matches(tcp_packet())
        assert Match().matches(Packet(eth_type=0x0806))

    def test_exact_match_from_packet(self):
        packet = tcp_packet()
        match = Match.from_packet(packet, in_port=3)
        assert match.matches(packet, in_port=3)
        assert not match.matches(packet, in_port=4)
        assert match.specificity() == len(MATCH_FIELDS)

    def test_five_tuple_match_ignores_l2(self):
        packet = tcp_packet()
        match = Match.from_five_tuple(packet.ip_src, packet.ip_dst, packet.ip_proto,
                                      packet.tp_src, packet.tp_dst)
        other_mac = packet.copy(eth_src="02:00:00:00:00:99")
        assert match.matches(other_mac)

    def test_cidr_match(self):
        match = Match(nw_src="10.0.0.0/24")
        assert match.matches(tcp_packet(src="10.0.0.7"))
        assert not match.matches(tcp_packet(src="10.0.1.7"))

    def test_port_and_proto_fields(self):
        match = Match(nw_proto=IP_PROTO_TCP, tp_dst=80)
        assert match.matches(tcp_packet(dport=80))
        assert not match.matches(tcp_packet(dport=22))
        assert not match.matches(Packet(eth_type=0x0806))

    def test_specificity_counts_fields(self):
        assert Match().specificity() == 0
        assert Match(tp_dst=80, nw_proto=6).specificity() == 2

    def test_invalid_port_rejected(self):
        with pytest.raises(MatchError):
            Match(tp_dst=70000)

    def test_covers(self):
        broad = Match(nw_dst="10.0.0.0/8")
        narrow = Match(nw_dst="10.1.0.0/16")
        assert broad.covers(narrow)
        assert not narrow.covers(broad)
        assert Match().covers(narrow)
        exact = Match(nw_dst="10.1.2.3", tp_dst=80)
        assert broad.covers(exact)
        assert not Match(tp_dst=22).covers(exact)

    def test_string_form(self):
        assert str(Match()) == "Match(*)"
        assert "tp_dst=80" in str(Match(tp_dst=80))

    @given(st.integers(min_value=0, max_value=2**32 - 1), st.integers(min_value=0, max_value=65535))
    def test_property_from_packet_always_matches_itself(self, src, dport):
        packet = Packet.tcp(src, src ^ 0xFFFF, 1000, dport)
        assert Match.from_packet(packet, in_port=1).matches(packet, in_port=1)


class TestActions:
    def test_describe(self):
        assert describe_actions([OutputAction(3)]) == "output:3"
        assert describe_actions([]) == "drop(implicit)"


class TestFlowTable:
    def test_install_and_lookup(self):
        table = FlowTable()
        entry = make_entry(Match(tp_dst=80), [OutputAction(2)])
        table.install(entry)
        hit = table.lookup(tcp_packet(), in_port=1)
        assert hit is entry
        assert entry.packet_count == 1
        assert table.hit_rate() == 1.0

    def test_miss_counted(self):
        table = FlowTable()
        assert table.lookup(tcp_packet()) is None
        assert table.misses == 1

    def test_priority_wins(self):
        table = FlowTable()
        low = make_entry(Match(), [OutputAction(1)], priority=10)
        high = make_entry(Match(tp_dst=80), [DropAction()], priority=200)
        table.install(low)
        table.install(high)
        assert table.lookup(tcp_packet(dport=80)) is high
        assert table.lookup(tcp_packet(dport=22)) is low

    def test_specificity_breaks_priority_ties(self):
        table = FlowTable()
        broad = make_entry(Match(), [OutputAction(1)], priority=100)
        narrow = make_entry(Match(tp_dst=80, nw_proto=6), [OutputAction(2)], priority=100)
        table.install(broad)
        table.install(narrow)
        assert table.lookup(tcp_packet(dport=80)) is narrow

    def test_replace_same_match_and_priority(self):
        table = FlowTable()
        table.install(make_entry(Match(tp_dst=80), [OutputAction(1)]))
        table.install(make_entry(Match(tp_dst=80), [OutputAction(2)]))
        assert len(table) == 1
        with pytest.raises(FlowTableError):
            table.install(make_entry(Match(tp_dst=80), [OutputAction(3)]), replace=False)

    def test_idle_timeout_refreshed_by_traffic(self):
        table = FlowTable()
        entry = make_entry(Match(tp_dst=80), [OutputAction(1)], idle_timeout=10.0)
        table.install(entry, now=0.0)
        assert table.lookup(tcp_packet(dport=80), now=8.0) is entry
        # the lookup refreshed the idle timer, so at t=12 the entry survives
        assert table.expire(now=12.0) == []
        # but 10 idle seconds after the last packet it goes away
        assert table.expire(now=20.0) == [entry]

    def test_idle_timeout_removes_entry(self):
        table = FlowTable()
        entry = make_entry(Match(tp_dst=80), [OutputAction(1)], idle_timeout=10.0)
        table.install(entry, now=0.0)
        expired = table.expire(now=11.0)
        assert expired == [entry]
        assert len(table) == 0
        assert table.expirations == 1

    def test_hard_timeout(self):
        table = FlowTable()
        entry = make_entry(Match(), [OutputAction(1)], hard_timeout=5.0)
        table.install(entry, now=0.0)
        # activity does not save it
        table.lookup(tcp_packet(), now=4.9)
        assert table.expire(now=5.1) == [entry]

    def test_expired_entry_not_matched(self):
        table = FlowTable()
        table.install(make_entry(Match(), [OutputAction(1)], hard_timeout=5.0), now=0.0)
        assert table.lookup(tcp_packet(), now=10.0) is None

    def test_negative_timeout_rejected(self):
        with pytest.raises(FlowTableError):
            FlowEntry(match=Match(), idle_timeout=-1.0)

    def test_remove_covered(self):
        table = FlowTable()
        table.install(make_entry(Match(nw_dst="10.0.0.1", tp_dst=80), [OutputAction(1)]))
        table.install(make_entry(Match(nw_dst="10.0.0.2", tp_dst=80), [OutputAction(1)]))
        removed = table.remove(Match(nw_dst="10.0.0.0/24"))
        assert removed == 2 and len(table) == 0

    def test_remove_strict(self):
        table = FlowTable()
        exact = Match(nw_dst="10.0.0.1")
        table.install(make_entry(exact, [OutputAction(1)]))
        assert table.remove(Match(nw_dst="10.0.0.0/24"), strict=True) == 0
        assert table.remove(exact, strict=True) == 1

    def test_remove_by_cookie(self):
        table = FlowTable()
        table.install(make_entry(Match(tp_dst=80), [OutputAction(1)], cookie="decision-1"))
        table.install(make_entry(Match(tp_dst=22), [OutputAction(1)], cookie="decision-2"))
        assert table.remove_by_cookie("decision-1") == 1
        assert len(table) == 1

    def test_lru_eviction_at_capacity(self):
        table = FlowTable(capacity=2)
        first = make_entry(Match(tp_dst=80), [OutputAction(1)])
        second = make_entry(Match(tp_dst=22), [OutputAction(1)])
        table.install(first, now=0.0)
        table.install(second, now=1.0)
        table.lookup(tcp_packet(dport=80), now=2.0)  # refresh first
        table.install(make_entry(Match(tp_dst=443), [OutputAction(1)]), now=3.0)
        assert table.evictions == 1
        assert Match(tp_dst=80) in table
        assert Match(tp_dst=22) not in table

    def test_entries_iteration_order(self):
        table = FlowTable()
        table.install(make_entry(Match(), [OutputAction(1)], priority=1))
        table.install(make_entry(Match(tp_dst=80), [OutputAction(1)], priority=50))
        priorities = [entry.priority for entry in table.entries()]
        assert priorities == sorted(priorities, reverse=True)

    def test_stats_keys(self):
        stats = FlowTable().stats()
        assert {"entries", "lookups", "hits", "misses", "hit_rate"} <= set(stats)


class TestMatchDerivedViews:
    def test_views_follow_the_declared_field_order(self):
        match = Match(in_port=3, nw_src="10.0.0.0/24", nw_proto=6, tp_dst=80)
        assert match.field_values == tuple(getattr(match, name) for name in MATCH_FIELDS)
        assert [MATCH_FIELDS[i] for i in match.shape] == ["in_port", "nw_src", "nw_proto", "tp_dst"]
        assert match.has_prefix and not Match(nw_src="10.0.0.1").has_prefix
        assert str(match) == "Match(in_port=3, nw_src=10.0.0.0/24, nw_proto=6, tp_dst=80)"

    def test_views_do_not_leak_into_equality_or_replace(self):
        match = Match(tp_dst=80)
        assert match == Match(tp_dst=80) and hash(match) == hash(Match(tp_dst=80))
        wider = dataclasses.replace(match, nw_proto=6)
        assert wider.shape == (MATCH_FIELDS.index("nw_proto"), MATCH_FIELDS.index("tp_dst"))
        assert wider.specificity() == 2


class TestFlowTableIndexes:
    """The three indexes answer exactly what the list scan answered."""

    def test_expiry_at_the_exact_deadline(self):
        table = FlowTable()
        entry = make_entry(Match(tp_dst=80), [OutputAction(1)], hard_timeout=2.5)
        table.install(entry, now=1.0)
        assert table.next_deadline() == 3.5
        assert table.expire(now=3.4999) == []
        # now - installed_at == hard_timeout: due, not one sweep later.
        assert table.expire(now=3.5) == [entry]
        assert table.next_deadline() is None and table.expirable_count() == 0

    def test_expiry_where_deadline_and_judge_round_apart(self):
        # 0.28 + 2.5 rounds up to 2.7800000000000002, yet at the float just
        # below it `now - installed_at >= hard_timeout` already holds.
        installed_at, timeout = 0.28, 2.5
        now = math.nextafter(installed_at + timeout, 0.0)
        assert now - installed_at >= timeout and now < installed_at + timeout
        table = FlowTable()
        entry = make_entry(Match(tp_dst=80), [OutputAction(1)], hard_timeout=timeout)
        table.install(entry, now=installed_at)
        assert table.expire(now=now) == [entry]

    def test_idle_refresh_after_the_deadline_was_pushed(self):
        table = FlowTable()
        idle = make_entry(Match(tp_dst=80), [OutputAction(1)], idle_timeout=10.0)
        hard = make_entry(Match(tp_dst=22), [OutputAction(1)], hard_timeout=15.0)
        table.install(idle, now=0.0)
        table.install(hard, now=0.0)
        assert table.next_deadline() == 10.0
        assert table.lookup(tcp_packet(dport=80), now=8.0) is idle
        # The record filed at install says 10; the entry now says 18, so
        # the hard entry's 15 is the table's earliest deadline.
        assert table.next_deadline() == 15.0
        assert table.expire(now=12.0) == []
        assert table.expire(now=16.0) == [hard]
        assert table.next_deadline() == 18.0
        assert table.expire(now=18.0) == [idle]

    def test_replaced_entry_leaves_no_live_deadline(self):
        table = FlowTable()
        match = Match(tp_dst=80)
        table.install(make_entry(match, [OutputAction(1)], hard_timeout=1.0), now=0.0)
        successor = make_entry(match, [OutputAction(2)], hard_timeout=10.0)
        table.install(successor, now=0.5)
        assert table.expirable_count() == 1
        assert table.next_deadline() == 10.5
        assert table.expire(now=2.0) == []
        assert table.lookup(tcp_packet(dport=80), now=2.0) is successor
        # ... nor one for an untimed successor to inherit.
        table.install(make_entry(match, [OutputAction(3)]), now=3.0)
        assert table.expirable_count() == 0 and table.next_deadline() is None
        assert table.expire(now=100.0) == []

    def test_expire_returns_victims_in_installation_order(self):
        table = FlowTable()
        late = make_entry(Match(tp_dst=1), [OutputAction(1)], hard_timeout=5.0)
        early = make_entry(Match(tp_dst=2), [OutputAction(1)], hard_timeout=1.0)
        table.install(late, now=0.0)
        table.install(early, now=0.0)
        assert table.expire(now=9.0) == [late, early]

    def test_two_shapes_matching_one_packet(self):
        packet = tcp_packet()
        five_tuple = Match.from_five_tuple(
            packet.ip_src, packet.ip_dst, packet.ip_proto, packet.tp_src, packet.tp_dst
        )
        table = FlowTable()
        by_port = make_entry(Match(in_port=1), [OutputAction(1)], priority=100)
        by_flow = make_entry(five_tuple, [OutputAction(2)], priority=100)
        table.install(by_port)
        table.install(by_flow)
        # Equal priority: the more specific shape wins ...
        assert table.lookup(packet, in_port=1) is by_flow
        # ... a higher priority beats specificity ...
        urgent = make_entry(Match(in_port=1), [DropAction()], priority=200)
        table.install(urgent)
        assert table.lookup(packet, in_port=1) is urgent
        table.remove(Match(in_port=1), strict=True)
        # ... and between equals in both, the older entry wins.
        by_dst = make_entry(Match(nw_dst=packet.ip_dst, tp_dst=80), [OutputAction(3)])
        by_src = make_entry(Match(nw_src=packet.ip_src, tp_src=1234), [OutputAction(4)])
        table.remove(five_tuple, strict=True)
        table.install(by_dst)
        table.install(by_src)
        assert table.lookup(packet, in_port=1) is by_dst

    def test_non_ip_frame_never_matches_a_port_constraint(self):
        table = FlowTable()
        table.install(make_entry(Match(tp_dst=0), [OutputAction(1)]))
        table.install(make_entry(Match(dl_type=0x0806), [OutputAction(2)], priority=1))
        arp = Packet(eth_type=0x0806)
        assert arp.tp_dst == 0
        assert table.lookup(arp).priority == 1

    def test_cookie_delete_touches_only_that_cookie(self):
        table = FlowTable()
        table.install(make_entry(Match(tp_dst=80), [OutputAction(1)], cookie="a"))
        table.install(make_entry(Match(tp_dst=22), [OutputAction(1)], cookie="a"))
        table.install(make_entry(Match(tp_dst=443), [OutputAction(1)], cookie="b"))
        assert table.remove(Match(tp_dst=80), cookie="b") == 0
        assert table.remove(Match(tp_dst=80), cookie="a") == 1
        assert table.remove(Match(), cookie="a") == 1
        assert table.remove(Match(), cookie="a") == 0
        assert [entry.cookie for entry in table.entries()] == ["b"]

    def test_deadline_heap_stays_bounded_when_entries_die_young(self):
        table = FlowTable()
        resident = make_entry(Match(tp_dst=80), [OutputAction(1)], hard_timeout=3600.0)
        table.install(resident, now=0.0)
        for i in range(5000):
            table.install(
                make_entry(Match(tp_dst=22), [OutputAction(1)], hard_timeout=3600.0, cookie="c"),
                now=0.0,
            )
            table.remove_by_cookie("c")
        assert len(table._deadlines) <= 2 * table.expirable_count() + table.STALE_DEADLINE_SLACK + 1
        assert table.next_deadline() == 3600.0
        assert table.expire(now=3600.0) == [resident]


# ----------------------------------------------------------------------
# Differential test: the indexed table against the linear oracle
# ----------------------------------------------------------------------

# Small pools, so that entries collide, tie and shadow each other often.
_IPS = ["10.0.0.1", "10.0.1.1"]
_PREFIXES = ["10.0.0.0/24", "10.0.0.0/8"]
_MACS = ["02:00:00:00:00:01", "02:00:00:00:00:02"]
_SPORTS = [1000]
_DPORTS = [80, 22]
_IN_PORTS = [1, 2]

_ip_packets = st.builds(
    Packet.tcp,
    st.sampled_from(_IPS), st.sampled_from(_IPS),
    st.sampled_from(_SPORTS), st.sampled_from(_DPORTS),
    eth_src=st.sampled_from(_MACS), eth_dst=st.sampled_from(_MACS),
)
# Non-IP frames, some carrying (meaningless) addresses and ports.
_other_packets = st.builds(
    Packet,
    eth_src=st.sampled_from(_MACS), eth_dst=st.sampled_from(_MACS),
    eth_type=st.just(0x0806),
    ip_src=st.sampled_from([None, *_IPS]), ip_dst=st.sampled_from([None, *_IPS]),
    tp_src=st.sampled_from([0, *_SPORTS]), tp_dst=st.sampled_from([0, *_DPORTS]),
)
_packets = st.one_of(_ip_packets, _other_packets)

_matches = st.one_of(
    st.just(Match()),
    st.builds(Match, in_port=st.sampled_from(_IN_PORTS)),
    st.builds(Match, dl_type=st.sampled_from([0x0800, 0x0806])),
    st.builds(Match, nw_proto=st.just(IP_PROTO_TCP), tp_dst=st.sampled_from(_DPORTS)),
    st.builds(
        Match.from_five_tuple,
        st.sampled_from(_IPS), st.sampled_from(_IPS), st.just(IP_PROTO_TCP),
        st.sampled_from(_SPORTS), st.sampled_from(_DPORTS),
    ),
    st.builds(Match.from_packet, _packets, in_port=st.sampled_from(_IN_PORTS)),
    st.builds(Match, nw_src=st.sampled_from(_PREFIXES)),
    st.builds(
        Match, nw_src=st.sampled_from(_IPS + _PREFIXES), nw_dst=st.sampled_from(_PREFIXES),
        tp_dst=st.sampled_from([None, *_DPORTS]),
    ),
)
_cookies = st.sampled_from(["", "a", "b"])


def _packet_matching(match):
    """Return ``(packet, in_port)`` that ``match`` matches (a prefix by its first host)."""
    def address(value, default):
        if value is None:
            return default
        return value if isinstance(value, IPv4Address) else next(value.hosts())

    packet = Packet(
        eth_src=match.dl_src or _MACS[0], eth_dst=match.dl_dst or _MACS[1],
        eth_type=0x0800 if match.dl_type is None else match.dl_type,
        vlan_id=match.vlan_id or 0,
        ip_src=address(match.nw_src, _IPS[0]), ip_dst=address(match.nw_dst, _IPS[1]),
        ip_proto=IP_PROTO_TCP if match.nw_proto is None else match.nw_proto,
        tp_src=_SPORTS[0] if match.tp_src is None else match.tp_src,
        tp_dst=_DPORTS[0] if match.tp_dst is None else match.tp_dst,
    )
    return packet, match.in_port or _IN_PORTS[0]


def _describe(entry):
    """Everything observable about an entry (two tables hold two objects)."""
    if entry is None:
        return None
    return (
        entry.match, entry.priority, entry.cookie, entry.actions, entry.sequence,
        entry.idle_timeout, entry.hard_timeout, entry.installed_at, entry.last_used_at,
        entry.packet_count,
    )


def _timed_entry(entry):
    return bool(entry.idle_timeout or entry.hard_timeout)


def _timed(table):
    """The entries of ``table`` that carry a timeout, in installation order."""
    return table.find(_timed_entry)


def _near_deadline(entry, which, nudge):
    """One of ``entry``'s deadlines, moved ``nudge`` floats later (or earlier)."""
    deadlines = []
    if entry.hard_timeout:
        deadlines.append(entry.installed_at + entry.hard_timeout)
    if entry.idle_timeout:
        deadlines.append(entry.last_used_at + entry.idle_timeout)
    when = deadlines[which % len(deadlines)]
    for _ in range(abs(nudge)):
        when = math.nextafter(when, math.copysign(math.inf, nudge))
    return when


_entry_specs = st.fixed_dictionaries({
    "match": _matches,
    "priority": st.sampled_from([100, 100, 100, 10, 200]),
    "idle_timeout": st.sampled_from([0.0, 1.0, 2.5]),
    "hard_timeout": st.sampled_from([0.0, 3.0, 5.0]),
    "cookie": _cookies,
})
# Exactly representable steps keep the clock on the deadlines' own grid
# (boundary hits); arbitrary ones exercise the rounding.
_steps = st.one_of(st.sampled_from([0.0, 0.5, 1.0, 2.5]), st.floats(0.0, 3.0))


class FlowTableDifferential(RuleBasedStateMachine):
    """Drive the indexed table and the linear oracle with the same calls.

    Every rule first moves the shared clock forward (never back: the
    table's contract), so timeouts are always in play.
    """

    @initialize(
        capacity=st.sampled_from([None, None, 4]),
        eager_deadlines=st.booleans(),
        residents=st.lists(_entry_specs, min_size=2, max_size=8),
    )
    def build(self, capacity, eager_deadlines, residents):
        # next_deadline() tidies the indexed table's heap as it answers.
        # Asking after every step would leave expire() nothing stale to
        # meet, so half the runs only ask when the rule below fires.
        self.eager_deadlines = eager_deadlines
        self.now = 0.0
        self.tables = (FlowTable(capacity=capacity), ReferenceFlowTable(capacity=capacity))
        self.evicted = ([], [])
        for table, log in zip(self.tables, self.evicted):
            table.evict_listener = lambda entry, log=log: log.append(_describe(entry))
        for spec in residents:
            self.install(0.0, spec, True)

    def both(self, call):
        """Apply ``call`` to each table; exceptions count as results."""
        results = []
        for table in self.tables:
            try:
                results.append(call(table))
            except FlowTableError as exc:
                results.append(("raised", str(exc)))
        assert results[0] == results[1]
        return results[0]

    @rule(step=_steps, spec=_entry_specs, replace=st.sampled_from([True, True, True, False]))
    def install(self, step, spec, replace):
        self.now += step
        self.both(lambda table: _describe(table.install(
            make_entry(actions=[OutputAction(spec["priority"])], **spec),
            now=self.now, replace=replace,
        )))

    @rule(step=_steps, packet=_packets, in_port=st.sampled_from([None, *_IN_PORTS]))
    def lookup(self, step, packet, in_port):
        self.now += step
        self.both(lambda table: _describe(table.lookup(packet, in_port, now=self.now)))

    @precondition(lambda self: len(self.tables[1]) > 0)
    @rule(step=_steps, pick=st.integers(min_value=0))
    def lookup_resident(self, step, pick):
        # Traffic for an entry that is there: hits, idle refreshes, ties.
        self.now += step
        residents = self.tables[1].find(lambda entry: True)
        packet, in_port = _packet_matching(residents[pick % len(residents)].match)
        self.both(lambda table: _describe(table.lookup(packet, in_port, now=self.now)))

    @rule(
        step=_steps, match=_matches, strict=st.booleans(),
        cookie=st.one_of(st.none(), _cookies),
        verb=st.sampled_from(["remove"] * 6 + ["remove_by_cookie"] * 2 + ["clear"]),
    )
    def delete(self, step, match, strict, cookie, verb):
        self.now += step
        if verb == "remove":
            self.both(lambda table: table.remove(match, strict=strict, cookie=cookie))
        elif verb == "remove_by_cookie":
            self.both(lambda table: table.remove_by_cookie(cookie or ""))
        else:
            self.both(lambda table: table.clear())

    @precondition(lambda self: bool(_timed(self.tables[1])))
    @rule(
        pick=st.integers(min_value=0), which=st.integers(0, 1),
        nudge=st.sampled_from([-2, -1, -1, 0, 0, 1, 2]), verb=st.sampled_from(["lookup", "expire"]),
    )
    def at_a_deadline(self, pick, which, nudge, verb):
        # The clock lands on a live entry's deadline, or a float or two
        # either side of it: where the cached hit's inline expiry test and
        # expire()'s early return must agree with is_expired to the bit.
        timed = _timed(self.tables[1])
        entry = timed[pick % len(timed)]
        packet, in_port = _packet_matching(entry.match)
        if verb == "lookup":
            # Puts the winner in the exact cache; the clock then goes to the
            # winner's deadline, so the lookup below is a hit tested there.
            winners = [table.lookup(packet, in_port, now=self.now) for table in self.tables]
            assert _describe(winners[0]) == _describe(winners[1])
            if winners[1] is not None and _timed_entry(winners[1]):
                entry = winners[1]
        self.now = max(self.now, _near_deadline(entry, which, nudge))
        if verb == "lookup":
            self.both(lambda table: _describe(table.lookup(packet, in_port, now=self.now)))
        else:
            self.both(lambda table: [_describe(entry) for entry in table.expire(self.now)])

    @rule(step=_steps)
    def expire(self, step):
        self.now += step
        self.both(lambda table: [_describe(entry) for entry in table.expire(self.now)])

    @rule()
    def next_deadline(self):
        self.both(lambda table: table.next_deadline())

    @invariant()
    def same_observable_state(self):
        self.both(len)
        self.both(lambda table: table.stats())
        self.both(lambda table: table.expirable_count())
        if self.eager_deadlines:
            self.both(lambda table: table.next_deadline())
        self.both(lambda table: [_describe(entry) for entry in table.entries()])
        residents = self.both(lambda table: [_describe(e) for e in table.find(lambda e: True)])
        for match in {resident[0] for resident in residents}:
            assert match in self.tables[0] and match in self.tables[1]
        assert Match(vlan_id=7) not in self.tables[0]
        assert self.evicted[0] == self.evicted[1]


FlowTableDifferential.TestCase.settings = settings(
    max_examples=80, stateful_step_count=40, deadline=None
)
TestFlowTableDifferential = FlowTableDifferential.TestCase


@settings(max_examples=300, deadline=None)
@given(
    installed_at=st.one_of(st.sampled_from([0.0, 0.28, 1.0]), st.floats(0.0, 100.0)),
    used_after=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    timeouts=st.sampled_from([(0.0, 2.5), (1.0, 0.0), (0.1, 0.3), (2.5, 3.0), (0.7, 0.7)]),
    which=st.integers(0, 1),
    nudge=st.integers(-2, 2),
    sweep_first=st.booleans(),
)
# 0.28 + 2.5 rounds up, so one float below it the judge already says due.
@example(installed_at=0.28, used_after=0.0, timeouts=(0.0, 2.5), which=0, nudge=-1, sweep_first=True)
@example(installed_at=0.28, used_after=0.0, timeouts=(0.0, 2.5), which=0, nudge=-1, sweep_first=False)
@example(installed_at=0.28, used_after=0.0, timeouts=(2.5, 3.0), which=1, nudge=-1, sweep_first=False)
def test_a_cached_hit_and_expire_agree_with_the_oracle_at_a_deadline(
    installed_at, used_after, timeouts, which, nudge, sweep_first
):
    # The focused form of the state machine's at_a_deadline step: a
    # cached hit tests expiry inline and expire() may return early, and
    # at a deadline, or a float or two either side, both must answer
    # what FlowEntry.is_expired answers in the linear table.
    idle, hard = timeouts
    packet = tcp_packet()
    results = []
    for table in (FlowTable(), ReferenceFlowTable()):
        entry = table.install(
            make_entry(Match(tp_dst=80), [OutputAction(1)], idle_timeout=idle, hard_timeout=hard),
            now=installed_at,
        )
        used_at = installed_at + used_after
        table.lookup(packet, 1, now=used_at)  # the entry is the cached winner now
        now = max(_near_deadline(entry, which, nudge), used_at)
        swept = [_describe(e) for e in table.expire(now)] if sweep_first else None
        results.append((swept, _describe(table.lookup(packet, 1, now=now)), table.stats()))
    assert results[0] == results[1]
