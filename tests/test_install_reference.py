"""The planned path installer against the per-decision one it replaced.

``tests/reference_install.py`` is the installer as it stood before the
hop plan: it resolves everything per decision, releases every punt with
its own PacketOut and unwinds by deleting on every hop.  The real one
plans once per endpoint pair, lets the FlowMod carry the buffer and
skips the reporting hop when it held a single entry; its registry export
is one prefix filter where the reference has two branches.  Both are
driven through the same punts here and must leave the same *outcome*:
the same entries on every switch, the same packets released at the same
instants, the same registry handed over, the same tables after an unwind
and the same audit records.  The messages that get them there are
allowed to differ.
"""

from collections import Counter
from dataclasses import dataclass
from typing import Optional

from hypothesis import given, settings, strategies as st

from repro.core.controller import ControllerConfig
from repro.core.installer import PathInstall
from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.openflow.messages import FlowRemoved
from tests.reference_install import use_reference_installer

SERVER_IP = "192.168.1.1"
WEB_PORT, BLOCKED_PORT = 80, 23
#: Long enough for a decision, its installs and any flood it sets off.
SETTLE = 0.05
TOPOLOGIES = ("line", "edge-core", "spine-leaf")


def build(kind: str, *, keep_state: bool, reference: bool = False, **config) -> IdentPPNetwork:
    """Client and server across ``kind``, with at least one switch off their path."""
    config.setdefault("idle_timeout", 7.0)
    config.setdefault("hard_timeout", 11.0)
    net = IdentPPNetwork(
        "install", policy_default_action="block", controller_config=ControllerConfig(**config)
    )
    if kind == "spine-leaf":
        fabric = net.add_spine_leaf_fabric(spines=2, leaves=3)
        first, last = fabric.leaves[0], fabric.leaves[-1]
    else:
        names = ["s1", "s2", "s3"] if kind == "line" else ["sw-edge", "sw-core"]
        chain = [net.add_switch(name) for name in names]
        for left, right in zip(chain, chain[1:]):
            net.connect(left, right)
        net.connect(chain[-1], net.add_switch("s-off"))
        first, last = chain[0], chain[-1]
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}), switch=first
    )
    server = net.add_host(HostSpec(name="server", ip=SERVER_IP), switch=last)
    server.run_server("httpd", "root", WEB_PORT)
    state = " keep state" if keep_state else ""
    net.set_policy({"00.control": f"block all\npass from any to any port {WEB_PORT}{state}\n"})
    if reference:
        use_reference_installer(net.controller)
    return net


def unlinked_switch_pairs(net: IdentPPNetwork) -> list[tuple[str, str]]:
    """Every pair of switches with no link between them, sorted, in a fixed order."""
    names = sorted(net.switches)
    return [
        (left, right) for index, left in enumerate(names) for right in names[index + 1:]
        if net.topology.link_between(left, right) is None
    ]


def punt(net: IdentPPNetwork, switch_name: str, packet, ordinal: int = 0) -> None:
    """Make ``switch_name`` miss on a copy of ``packet`` (buffer it, send the PacketIn).

    ``ordinal`` tags the copy, so the order in which a hop lets its
    buffered packets go can be compared between two networks.  The tag
    names the copy's id: a flood copies it on to packets of its own.
    """
    switch = net.switches[switch_name]
    tag: dict = {}
    copy = packet.copy(metadata=tag)
    tag["ordinal"] = (copy.packet_id, ordinal)
    switch._handle_table_miss(copy, next(iter(switch._ports.values())), switch.sim.now)


def tables(net: IdentPPNetwork) -> dict:
    """Every switch's entries: match, actions, priority, both timeouts, cookie."""
    return {
        name: sorted(
            (
                str(entry.match), tuple(map(repr, entry.actions)), entry.priority,
                entry.idle_timeout, entry.hard_timeout, entry.cookie,
            )
            for entry in switch.flow_table.entries()
        )
        for name, switch in sorted(net.switches.items())
    }


def audit(net: IdentPPNetwork) -> list:
    return [
        (r.time, str(r.flow), r.action, r.rule_text, r.rule_origin, r.cookie, r.cached,
         r.query_latency)
        for r in net.controller.audit.records()
    ]


def ordinal_of(packet) -> Optional[int]:
    """The ordinal :func:`punt` tagged ``packet`` with; ``None`` for any other."""
    packet_id, ordinal = (packet.metadata or {}).get("ordinal", (None, None))
    return ordinal if packet_id == packet.packet_id else None


def spy_on_releases(net: IdentPPNetwork) -> list:
    """Record ``(switch, instant, actions, ordinal)`` of every buffered packet let go."""
    released = []
    for switch in net.switches.values():
        def release(buffer_id, actions, now, switch=switch, inner=switch._release_buffer):
            if buffer_id in switch._buffered:
                packet, _ = switch._buffered[buffer_id]
                released.append((
                    switch.name, switch.sim.now, tuple(map(repr, actions)),
                    ordinal_of(packet),
                ))
            inner(buffer_id, actions, now)
        switch._release_buffer = release
    return released


@dataclass(frozen=True)
class Decision:
    port: int
    #: Indexes (modulo the switch count) into the sorted switch names: on
    #: the path or off it, a hop twice, mid-path only — whatever is drawn.
    punters: tuple[int, ...]


@dataclass(frozen=True)
class Scenario:
    kind: str
    keep_state: bool
    decisions: tuple[Decision, ...]
    #: Switch pair linked after the first decision (index modulo the count
    #: of unlinked pairs): a shortcut that may reroute later decisions.
    shortcut: Optional[int]
    #: Whether the registry is then exported and adopted back, and how:
    #: ``"all"`` drains it, ``"own"`` takes the controller's own cookie
    #: prefix (a foreign install planted beside them must stay behind).
    handover: Optional[str]
    #: Which hop of the last pass decision reports one entry gone, which of
    #: its entries that is, and whether a decision-cache hit re-installs the
    #: cookie while that FlowRemoved is still in flight.
    reporter: int
    entry: int
    reinstall: bool


decisions = st.builds(
    Decision,
    port=st.sampled_from([WEB_PORT, WEB_PORT, WEB_PORT, BLOCKED_PORT]),
    punters=st.lists(st.integers(0, 5), min_size=1, max_size=3).map(tuple),
)
scenarios = st.builds(
    Scenario,
    kind=st.sampled_from(TOPOLOGIES),
    keep_state=st.booleans(),
    decisions=st.lists(decisions, min_size=1, max_size=3).map(tuple),
    shortcut=st.none() | st.integers(0, 5),
    handover=st.sampled_from([None, "all", "own"]),
    reporter=st.integers(0, 2),
    entry=st.integers(0, 1),
    reinstall=st.booleans(),
)


def play(scenario: Scenario, *, reference: bool) -> list:
    """Run the scenario on one installer and return everything observable."""
    net = build(scenario.kind, keep_state=scenario.keep_state, reference=reference)
    controller = net.controller
    installer = controller.installer
    released = spy_on_releases(net)
    names = sorted(net.switches)
    client = net.host("client")
    observed = []
    last_pass = None
    for index, decision in enumerate(scenario.decisions):
        if index == 1 and scenario.shortcut is not None:
            pairs = unlinked_switch_pairs(net)
            net.connect(*pairs[scenario.shortcut % len(pairs)])
        packet, _, _ = client.open_flow("http", "alice", SERVER_IP, decision.port, send=False)
        for ordinal, punter in enumerate(decision.punters):
            punt(net, names[punter % len(names)], packet, ordinal)
        net.run(duration=SETTLE)
        if decision.port == WEB_PORT:
            last_pass = packet
        observed.append((tables(net), sorted(installer._installs)))

    if scenario.handover is not None:
        foreign = PathInstall(
            flow=FlowSpec.tcp("10.9.9.9", SERVER_IP, 1, WEB_PORT), switches=tuple(names)
        )
        installer.adopt([("elsewhere:decision-1", foreign)])
        prefix = f"{controller.name}:" if scenario.handover == "own" else None
        items = installer.export() if prefix is None else installer.export(prefix=prefix)
        # The reference registers no entry counts, so they are not compared.
        observed.append([(cookie, i.flow, i.switches) for cookie, i in items])
        observed.append(("elsewhere:decision-1" in installer, len(installer)))
        installer.adopt(items)

    cookie = None
    if last_pass is not None:
        flow = FlowSpec.from_packet(last_pass)
        # None while the flow is undecided: its queries still waiting for
        # an answer.
        cookie = next((r.cookie for r in controller.audit.records() if r.flow == flow), None)
    install = installer._installs.get(cookie)
    if install is not None:
        hop = net.switches[install.switches[scenario.reporter % len(install.switches)]]
        plan = installer._hop_plan(flow)
        if scenario.reinstall and plan:
            # The last hop delivers straight to the server, so the
            # re-punted packet sets off nothing further.
            punt(net, plan[-1][0].name, last_pass)
        entries = hop.flow_table.find(lambda e: e.cookie == cookie)
        gone = entries[scenario.entry % len(entries)]
        hop.flow_table.remove(gone.match, strict=True, cookie=cookie)
        hop._notify_removed(gone)
        net.run(duration=SETTLE)
        assert cookie not in installer
        if scenario.shortcut is None:
            # (A shortcut can reroute the re-install, and the registry then
            # forgets the hop the old path alone crossed: its entry waits
            # for its own timeout, with either installer.)
            remaining = {
                name: rows for name, rows in tables(net).items()
                if any(row[-1] == cookie for row in rows)
            }
            assert remaining == {}, f"unwind left entries of {cookie}: {remaining}"
    observed.append(tables(net))
    # The punts made by hand: stable sort, so what one hop released at one
    # instant stays in the order it did.  The packets a flood sent on to
    # punt elsewhere carry no ordinal and compare as a multiset.
    by_hand = [release for release in released if release[3] is not None]
    observed.append(sorted(by_hand, key=lambda release: release[:2]))
    observed.append(sorted(release[:3] for release in released if release[3] is None))
    observed.append(audit(net))
    observed.append(sorted(net.host("server").delivered_times))
    observed.append(installer.unwinds)
    return observed


@settings(max_examples=40, deadline=None)
@given(scenarios)
def test_same_outcome_as_the_reference_installer(scenario):
    assert play(scenario, reference=False) == play(scenario, reference=True)


# ----------------------------------------------------------------------
# What the differential cannot see: the messages saved, and the registry
# ----------------------------------------------------------------------


def decide(net: IdentPPNetwork, port: int = WEB_PORT):
    """Send one flow from the client through the real punt path.

    Returns its cookie and whether its first packet reached the server.
    """
    packet, _, _ = net.host("client").open_flow("http", "alice", SERVER_IP, port)
    net.run(duration=SETTLE)
    delivered = packet in net.host("server").delivered
    return net.controller.audit.records()[-1].cookie, delivered


def report_first_entry_gone(net: IdentPPNetwork, switch_name: str, cookie: str) -> None:
    switch = net.switches[switch_name]
    gone = switch.flow_table.find(lambda e: e.cookie == cookie)[0]
    switch.flow_table.remove(gone.match, strict=True, cookie=cookie)
    switch._notify_removed(gone)


def sent_to_switches(controller) -> dict[str, int]:
    """Messages the controller sent each switch so far (FlowMods and PacketOuts)."""
    return {
        name: int(channel.to_switch_messages.value)
        for name, channel in controller.channels.items()
    }


def sent_by_kind(controller) -> Counter:
    """Count the messages the controller sends its switches from now on, by type."""
    sent: Counter = Counter()
    for channel in controller.channels.values():
        def spy(message, _send=channel.send_to_switch):
            sent[type(message).__name__] += 1
            return _send(message)

        channel.send_to_switch = spy
    return sent


class TestFlowModCarriesTheBuffer:
    def test_a_passed_punt_costs_no_packet_out(self):
        net = build("line", keep_state=False)
        sent = sent_by_kind(net.controller)
        _, delivered = decide(net)
        assert delivered
        assert sent == {"FlowMod": 3}
        assert all(s.buffered_count() == 0 for s in net.switches.values())

    def test_off_path_and_second_punts_still_get_a_packet_out(self):
        net = build("line", keep_state=False)
        packet, _, _ = net.host("client").open_flow("http", "alice", SERVER_IP, WEB_PORT, send=False)
        sent = sent_by_kind(net.controller)
        for name in ("s1", "s1", "s-off"):
            punt(net, name, packet)
        net.run(duration=SETTLE)
        # s1's first buffer rode the FlowMod; its second and s-off's did not.
        assert sent["PacketOut"] >= 2
        assert all(s.buffered_count() == 0 for s in net.switches.values())


class TestUnwindOnlyWhereEntriesRemain:
    def test_single_entry_reporter_is_skipped(self):
        net = build("line", keep_state=False)
        cookie, _ = decide(net)
        assert net.controller.installer._installs[cookie].entries == (1, 1, 1)
        before = sent_to_switches(net.controller)
        report_first_entry_gone(net, "s2", cookie)
        net.run(duration=SETTLE)
        after = sent_to_switches(net.controller)
        assert {n: after[n] - before[n] for n in ("s1", "s2", "s3")} == {"s1": 1, "s2": 0, "s3": 1}
        assert all(len(s.flow_table) == 0 for s in net.switches.values())

    def test_keep_state_reporter_still_holds_an_entry_and_is_deleted(self):
        net = build("line", keep_state=True)
        cookie, _ = decide(net)
        assert net.controller.installer._installs[cookie].entries == (2, 2, 2)
        before = sent_to_switches(net.controller)
        report_first_entry_gone(net, "s2", cookie)
        net.run(duration=SETTLE)
        after = sent_to_switches(net.controller)
        assert {n: after[n] - before[n] for n in ("s1", "s2", "s3")} == {"s1": 1, "s2": 1, "s3": 1}
        assert all(len(s.flow_table) == 0 for s in net.switches.values())

    def test_reinstalled_cookie_loses_the_skip(self):
        # A FlowRemoved is in flight from s3 when a decision-cache hit
        # re-installs the cookie on every hop.  Skipping s3 in the unwind
        # would strand the fresh entry there: nobody would ever delete it.
        net = build("line", keep_state=False)
        cookie, _ = decide(net)
        flow = net.controller.installer._installs[cookie].flow
        packet = net.host("server").delivered[-1]
        assert FlowSpec.from_packet(packet) == flow
        punt(net, "s3", packet)                       # PacketIn: arrives first ...
        report_first_entry_gone(net, "s3", cookie)    # ... FlowRemoved right behind it
        net.run(duration=200e-6)                      # both handled, nothing landed yet
        assert cookie not in net.controller.installer
        assert net.controller.audit.records()[-1].cached
        net.run(duration=SETTLE)
        assert all(len(s.flow_table) == 0 for s in net.switches.values())

    def test_a_reinstall_registers_no_counts(self):
        net = build("line", keep_state=False)
        cookie, _ = decide(net)
        punt(net, "s3", net.host("server").delivered[-1])
        net.run(duration=SETTLE)
        install = net.controller.installer._installs[cookie]
        assert install.switches == ("s1", "s2", "s3") and install.entries == ()


class TestCountsCrossAFailover:
    def decided_then_joined_by_an_adopter(self):
        net = build("line", keep_state=False)
        cookie, _ = decide(net)
        # Registered last: a switch punts to the channel it attached last.
        adopter = net.add_controller("adopter")
        for switch in net.switches.values():
            adopter.register_switch(switch)
        return net, cookie, adopter

    @staticmethod
    def s2_reports_to(adopter, net, cookie):
        s2 = net.switches["s2"]
        gone = s2.flow_table.find(lambda e: e.cookie == cookie)[0]
        adopter.on_flow_removed(FlowRemoved(switch=s2, match=gone.match, cookie=cookie))
        return sent_to_switches(adopter)

    def test_export_and_adopt_carry_the_counts(self):
        net, cookie, adopter = self.decided_then_joined_by_an_adopter()
        exported = net.controller.installer.export()
        assert [(c, i.entries) for c, i in exported] == [(cookie, (1, 1, 1))]
        assert len(net.controller.installer) == 0
        adopter.installer.adopt(exported)
        sent = self.s2_reports_to(adopter, net, cookie)
        assert sent == {"s1": 1, "s2": 0, "s3": 1, "s-off": 0}

    def test_an_install_adopted_without_counts_deletes_everywhere(self):
        net, cookie, adopter = self.decided_then_joined_by_an_adopter()
        flow = net.controller.installer._installs[cookie].flow
        adopter.installer.adopt(
            [(cookie, PathInstall(flow=flow, switches=("s1", "s2", "s3")))]
        )
        sent = self.s2_reports_to(adopter, net, cookie)
        assert sent == {"s1": 1, "s2": 1, "s3": 1, "s-off": 0}


class TestPlanInvalidation:
    def out_ports(self, net: IdentPPNetwork, cookie: str) -> dict:
        return {
            name: [a.port for e in s.flow_table.find(lambda e: e.cookie == cookie)
                   for a in e.actions]
            for name, s in net.switches.items()
            if s.flow_table.find(lambda e: e.cookie == cookie)
        }

    def test_plan_is_reused_between_decisions(self):
        net = build("line", keep_state=False)
        decide(net)
        installer = net.controller.installer
        (plan,) = installer._hop_plans.values()
        decide(net)
        assert list(installer._hop_plans.values()) == [plan]
        assert installer._hop_plans[
            (net.host("client"), net.host("server"))
        ] is plan

    def test_shortcut_path_is_replanned(self):
        net = build("line", keep_state=False)
        first, _ = decide(net)
        assert set(self.out_ports(net, first)) == {"s1", "s2", "s3"}
        net.connect("s1", "s3")
        second, delivered = decide(net)
        assert delivered
        expected = net.topology.egress_port("s1", "s3").number
        to_server = net.topology.egress_port("s3", "server").number
        assert self.out_ports(net, second) == {"s1": [expected], "s3": [to_server]}

    def test_no_path_means_no_plan_and_a_flooded_release(self):
        net = IdentPPNetwork("install", policy_default_action="block")
        net.add_host(
            HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
            switch=net.add_switch("s1"),
        )
        net.add_host(HostSpec(name="server", ip=SERVER_IP), switch=net.add_switch("s2"))
        net.set_policy({"00.control": f"block all\npass from any to any port {WEB_PORT}\n"})
        sent = sent_by_kind(net.controller)
        net.send_flow("client", "http", "alice", SERVER_IP, WEB_PORT)
        assert [r.action for r in net.controller.audit.records()] == ["pass"]
        assert sent["FlowMod"] == 0
        flow = net.controller.audit.records()[-1].flow
        assert net.controller.installer._hop_plan(flow) == ()

    def test_newly_managed_switch_joins_the_plan(self):
        from repro.openflow.switch import OpenFlowSwitch

        net = IdentPPNetwork("install", policy_default_action="block")
        edge = net.add_switch("sw-edge")
        core = net.topology.add_node(OpenFlowSwitch("sw-core"))   # not managed yet
        net.connect(edge, core)
        net.add_host(
            HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}), switch=edge
        )
        net.add_host(HostSpec(name="server", ip=SERVER_IP), switch=core)
        net.set_policy({"00.control": "pass all\n"})
        flow = FlowSpec.tcp("192.168.0.10", SERVER_IP, 40000, WEB_PORT)
        assert [hop[0].name for hop in net.controller.installer._hop_plan(flow)] == ["sw-edge"]
        net.controller.register_switch(core)
        assert [hop[0].name for hop in net.controller.installer._hop_plan(flow)] == ["sw-edge", "sw-core"]
