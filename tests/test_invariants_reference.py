"""The invariant checkers against the ones they replaced, and planted faults.

Generated record streams mix fresh decisions, cache replays and
fail-closed verdicts, repeat flows, and leave some punted flows with no
record at all; the drain counts vary too.  The one-pass fail-closed and
zero-loss checkers must return equal
:class:`~repro.workloads.invariants.InvariantResult` objects to the
grouping ones: name, every violation string in order, and ``details``.

``check_delivery`` folded the containment checker in.  Over generated
deliveries that each have a ``pass`` behind them, quarantine instants
and graces, it must report exactly the (source host, delivery time)
breaches containment reported.  Two planted faults show what the fold
adds and what it keeps: a bypass that delivers with no verdict (which
containment passed), and a quarantine that leaves an open path in place
(which both catch, and only the quarantine clause of the two).
"""

import re
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from hypothesis import given, strategies as st

from repro.core.controller import IdentPPController
from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import IDENT_PP_PORT
from repro.netsim.packet import Packet
from repro.openflow.actions import FloodAction
from repro.workloads import invariants
from tests import reference_invariants as reference

FLOWS = [f"f{index}" for index in range(6)]


@dataclass(frozen=True)
class Record:
    flow: str
    cached: bool
    rule_origin: str


records = st.lists(
    st.builds(
        Record,
        flow=st.sampled_from(FLOWS),
        cached=st.booleans(),
        rule_origin=st.sampled_from(["rule", "cache", "error"]),
    ),
    max_size=20,
)
punted = st.lists(st.sampled_from(FLOWS + ["unseen"]), max_size=8)
drained = st.integers(0, 3)


@given(flows=punted, records=records, pending=drained, buffered=drained)
def test_checkers_agree_with_the_reference(flows, records, pending, buffered):
    for check, oracle in (
        (invariants.check_fail_closed, reference.check_fail_closed),
        (invariants.check_zero_loss, reference.check_zero_loss),
    ):
        got = check(flows, records, pending=pending, buffered=buffered)
        expected = oracle(flows, records, pending=pending, buffered=buffered)
        assert got == expected
        assert list(got.details) == list(expected.details)


# ----------------------------------------------------------------------
# Delivery against containment
# ----------------------------------------------------------------------

HOSTS = ["10.0.0.1", "10.0.0.2", "10.0.0.3"]
#: Instants and graces on a quarter grid, so a delivery lands exactly on
#: a quarantine instant plus the grace often enough to pin the boundary.
instants = st.integers(0, 16).map(lambda quarters: quarters / 4)
graces = st.sampled_from([0.0, 0.25, 0.5])
flows = st.builds(
    lambda src, dst, port: FlowSpec.tcp(src, dst, port, 80),
    st.sampled_from(HOSTS), st.sampled_from(HOSTS), st.integers(1024, 1027),
)


@dataclass(frozen=True)
class Verdict:
    time: float
    flow: FlowSpec
    action: str


@st.composite
def passed_deliveries(draw):
    """``(time, flow)`` deliveries in time order, each with a ``pass``
    verdict at or before it, and those verdicts in time order."""
    deliveries = sorted(draw(st.lists(st.tuples(instants, flows), max_size=12)), key=itemgetter(0))
    verdicts = sorted(
        (Verdict(when - draw(st.sampled_from([0.0, 0.25, 1.0])), flow, "pass")
         for when, flow in deliveries),
        key=attrgetter("time"),
    )
    return deliveries, verdicts


SOURCE_BREACH = re.compile(r"delivered at t=(\S+): its source (\S+) was quarantined")
CONTAINMENT_BREACH = re.compile(r"quarantined host (\S+) delivered to \S+ at t=(\S+) ")


@given(drawn=passed_deliveries(), quarantined=st.dictionaries(st.sampled_from(HOSTS), instants),
       grace=graces)
def test_delivery_reports_the_source_breaches_containment_did(drawn, quarantined, grace):
    deliveries, verdicts = drawn
    got = invariants.check_delivery(deliveries, verdicts, quarantined, grace=grace)
    expected = reference.check_containment(
        [(when, flow.src_ip, flow.dst_ip) for when, flow in deliveries], quarantined, grace=grace,
    )
    assert got.details["without_pass"] == 0
    assert [
        (host, when) for line in got.violations for when, host in SOURCE_BREACH.findall(line)
    ] == [match for line in expected.violations for match in CONTAINMENT_BREACH.findall(line)]
    assert got.details["after_quarantine"] >= expected.details["breaches"]


# ----------------------------------------------------------------------
# Planted faults
# ----------------------------------------------------------------------

def _network() -> IdentPPNetwork:
    net = IdentPPNetwork("delivery-plant")
    left, right = net.add_switch("sw-left"), net.add_switch("sw-right")
    net.connect(left, right)
    net.add_host(HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
                 switch=left)
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=right)
    server.run_server("httpd", "root", 80)
    net.set_policy({"00-web.control": "block all\npass from any to any port 80 keep state\n"})
    return net


def _judged(net: IdentPPNetwork, quarantined) -> invariants.InvariantResult:
    return invariants.check_delivery(
        invariants.network_deliveries(net), invariants.network_audit_records(net),
        quarantined, grace=0.1,
    )


def _contained(net: IdentPPNetwork, quarantined) -> invariants.InvariantResult:
    return reference.check_containment(
        [(when, flow.src_ip, flow.dst_ip) for when, flow in invariants.network_deliveries(net)],
        quarantined, grace=0.1,
    )


def test_a_port_783_bypass_delivers_with_no_verdict_behind_it(monkeypatch):
    decide = IdentPPController.on_packet_in

    def bypass(self, message):
        # The ident++ port's old datapath exemption: flooded, never audited.
        if IDENT_PP_PORT in (message.packet.tp_src, message.packet.tp_dst):
            self.send_packet_out(message.switch, actions=[FloodAction()],
                                 buffer_id=message.buffer_id, in_port=message.in_port)
            return
        decide(self, message)

    monkeypatch.setattr(IdentPPController, "on_packet_in", bypass)
    net = _network()
    net.host("client").transmit(Packet.tcp("192.168.0.10", "192.168.1.1", 783, 23))
    net.run()
    ((when, _flow),) = invariants.network_deliveries(net)
    result = _judged(net, invariants.network_quarantines(net))
    assert result.violations == [
        f"flow tcp 192.168.0.10:783 -> 192.168.1.1:23 delivered at t={when:.3f}:"
        " no pass verdict behind it (verdicts: [])"
    ]
    # Containment judged quarantined sources only: it let this through.
    assert _contained(net, invariants.network_quarantines(net)).passed


def test_a_quarantine_that_leaves_the_path_open_fails_only_the_quarantine_clause(monkeypatch):
    net = _network()
    client, controller = net.host("client"), net.controller
    packet, _socket, _process = client.open_flow("http", "alice", "192.168.1.1", 80)
    net.run(1.0)
    with monkeypatch.context() as patch:
        # Skip the revocation and the wildcard drops: the path stays open.
        patch.setattr(controller, "revoke_decision", lambda cookie: 0)
        patch.setattr(controller, "switches", lambda: [])
        assert controller.quarantine_host("192.168.0.10")
    net.run(0.5)
    client.transmit(Packet.tcp("192.168.0.10", "192.168.1.1", packet.tp_src, 80))
    net.run(1.0)
    (decided,) = invariants.network_audit_records(net)
    first, second = invariants.network_deliveries(net)
    quarantined = invariants.network_quarantines(net)
    assert quarantined == {"192.168.0.10": 1.0}
    # Every delivery has a pass behind it: the latest-verdict clause alone passes.
    assert _judged(net, {}).passed
    assert _judged(net, quarantined).violations == [
        f"flow {decided.flow} delivered at t={second[0]:.3f}: its source 192.168.0.10 was"
        f" quarantined at t=1.000 (verdicts: [pass@{decided.time:.3f}])"
    ]
    assert first[0] < 1.0 < second[0]
    # Containment caught it too: the fold loses nothing it caught.
    assert not _contained(net, quarantined).passed
