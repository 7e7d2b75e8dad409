"""Tests for the OpenFlow switch datapath, control channel and controllers."""

import pytest

from repro.exceptions import ChannelError, OpenFlowError, PortError
from repro.netsim.nodes import Node
from repro.netsim.packet import Packet
from repro.netsim.topology import Topology
from repro.netsim.trace import PacketTrace
from repro.openflow.actions import Action, ControllerAction, DropAction, FloodAction, OutputAction
from repro.openflow.controller_base import Controller
from repro.openflow.match import Match
from repro.openflow.messages import FlowMod, FlowModCommand, PacketIn, PacketOut
from repro.openflow.switch import OpenFlowSwitch


class SinkNode(Node):
    def __init__(self, name):
        super().__init__(name)
        self.received = []

    def receive(self, packet, in_port):
        super().receive(packet, in_port)
        self.received.append(packet)


class RecordingController(Controller):
    """Controller that records packet-ins and applies a canned reaction."""

    def __init__(self, reaction=None):
        super().__init__("recording")
        self.messages = []
        self.reaction = reaction

    def on_packet_in(self, message):
        self.messages.append(message)
        if self.reaction is not None:
            self.reaction(self, message)


def build_fabric(controller=None):
    """host_a -- switch -- host_b with an optional controller attached."""
    topo = Topology("fabric")
    switch = topo.add_node(OpenFlowSwitch("sw1"))
    host_a = topo.add_node(SinkNode("host-a"))
    host_b = topo.add_node(SinkNode("host-b"))
    topo.add_link(host_a, switch)
    topo.add_link(host_b, switch)
    if controller is not None:
        controller.attach(topo.sim)
        controller.register_switch(switch)
    return topo, switch, host_a, host_b


class TestSwitchDatapath:
    def test_fail_secure_drops_on_miss_without_controller(self):
        topo, switch, host_a, host_b = build_fabric()
        switch.trace = PacketTrace()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert host_b.received == []
        assert [(r.event, r.note) for r in switch.trace] == [("drop", "fail-secure, no controller")]

    def test_fail_open_floods_on_miss_without_controller(self):
        topo = Topology()
        switch = topo.add_node(OpenFlowSwitch("sw1", fail_mode="open"))
        host_a = topo.add_node(SinkNode("a"))
        host_b = topo.add_node(SinkNode("b"))
        topo.add_link(host_a, switch)
        topo.add_link(host_b, switch)
        host_a.send(Packet(), host_a.port(1))
        topo.run()
        assert len(host_b.received) == 1

    def test_installed_entry_forwards(self):
        topo, switch, host_a, host_b = build_fabric()
        # host_b hangs off switch port 2
        switch.handle_message(FlowMod(match=Match(tp_dst=80), actions=[OutputAction(2)]))
        switch.trace = PacketTrace()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(host_b.received) == 1
        assert [record.event for record in switch.trace] == ["hit", "forward"]

    def test_drop_entry_drops(self):
        topo, switch, host_a, host_b = build_fabric()
        switch.handle_message(FlowMod(match=Match(tp_dst=80), actions=[DropAction()]))
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert host_b.received == []

    def test_action_lists_dispatch_on_each_action(self):
        trace = PacketTrace()
        controller = RecordingController()
        topo, switch, host_a, host_b = build_fabric(controller)
        switch.trace = trace
        packet = Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80)

        def apply(actions, in_port=1):
            trace.clear()
            switch.handle_message(PacketOut(packet=packet, actions=actions, in_port=in_port))
            topo.run()
            return [(record.event, record.note) for record in trace]

        # Nothing, or nothing but explicit drops, is one drop.
        assert apply([]) == [("drop", "")]
        assert apply([DropAction(), DropAction()]) == [("drop", "")]
        # A drop beside a forward is skipped; each output is its own hop.
        assert apply([DropAction(), OutputAction(2), OutputAction(2)]) == [
            ("forward", "port 2"), ("forward", "port 2")
        ]
        assert len(host_b.received) == 2
        # A flood excludes the ingress port, or nothing when it is unknown.
        assert apply([FloodAction()]) == [("forward", "flood")]
        assert (len(host_a.received), len(host_b.received)) == (0, 3)
        apply([FloodAction()], in_port=9)
        assert (len(host_a.received), len(host_b.received)) == (1, 4)
        # Punting by action buffers the packet and is not a drop; a capture
        # shows it the way it shows a table-miss punt.
        assert apply([ControllerAction()]) == [("punt", "recording")]
        assert len(controller.messages) == 1 and controller.messages[0].reason == "action"

        class Mirror(Action):
            pass

        with pytest.raises(OpenFlowError, match="cannot apply Mirror"):
            apply([OutputAction(2), Mirror()])
        topo.run()
        assert len(host_b.received) == 5  # the actions before it were applied
        with pytest.raises(PortError, match="sw1 has no port 9"):
            apply([OutputAction(9)])

    def test_miss_punts_and_buffers(self):
        controller = RecordingController()
        topo, switch, host_a, host_b = build_fabric(controller)
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(controller.messages) == 1
        assert controller.messages[0].in_port == 1
        assert switch.punts.value == 1
        assert switch.buffered_count() == 1

    def test_packet_out_releases_buffer(self):
        def release(controller, message):
            controller.send_packet_out(message.switch, actions=[OutputAction(2)],
                                       buffer_id=message.buffer_id)

        controller = RecordingController(reaction=release)
        topo, switch, host_a, host_b = build_fabric(controller)
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(host_b.received) == 1
        assert switch.buffered_count() == 0

    def test_flow_mod_with_buffer_releases_and_caches(self):
        def install(controller, message):
            controller.install_flow(message.switch, Match.from_packet(message.packet),
                                    [OutputAction(2)], buffer_id=message.buffer_id)

        controller = RecordingController(reaction=install)
        topo, switch, host_a, host_b = build_fabric(controller)
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(host_b.received) == 2
        assert len(controller.messages) == 1  # second packet hit the cached entry

    def test_flow_mod_delete(self):
        topo, switch, *_ = build_fabric()
        switch.handle_message(FlowMod(match=Match(tp_dst=80), actions=[OutputAction(2)]))
        switch.handle_message(FlowMod(match=Match(), command=FlowModCommand.DELETE))
        assert len(switch.flow_table) == 0

    def test_compromised_switch_floods_everything(self):
        topo, switch, host_a, host_b = build_fabric()
        switch.handle_message(FlowMod(match=Match(), actions=[DropAction()]))
        switch.mark_compromised()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(host_b.received) == 1
        switch.restore()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(host_b.received) == 1

    def test_packet_out_without_buffer_or_packet_rejected(self):
        topo, switch, *_ = build_fabric()
        with pytest.raises(Exception):
            switch.handle_message(PacketOut(actions=[FloodAction()]))


class TestControllerBase:
    def test_duplicate_switch_registration_rejected(self):
        controller = RecordingController()
        topo, switch, *_ = build_fabric(controller)
        with pytest.raises(ChannelError):
            controller.register_switch(switch)

    def test_unknown_switch_channel_rejected(self):
        controller = RecordingController()
        with pytest.raises(ChannelError):
            controller.channel_for("ghost")

    def test_disconnected_channel_drops_messages(self):
        controller = RecordingController()
        topo, switch, host_a, host_b = build_fabric(controller)
        controller.channel_for(switch).disconnect()
        switch.trace = PacketTrace()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert controller.messages == []
        # fail-secure switch dropped the packet instead
        assert [record.event for record in switch.trace] == ["drop"]

    def test_broadcast_flow(self):
        controller = RecordingController()
        topo = Topology()
        switches = [topo.add_node(OpenFlowSwitch(f"sw{i}")) for i in range(3)]
        controller.attach(topo.sim)
        for switch in switches:
            controller.register_switch(switch)
        controller.broadcast_flow(Match(tp_dst=80), [DropAction()])
        topo.run()
        assert all(len(switch.flow_table) == 1 for switch in switches)

    def test_counters(self):
        def install(controller, message):
            controller.install_flow(message.switch, Match.from_packet(message.packet),
                                    [OutputAction(2)], buffer_id=message.buffer_id)

        controller = RecordingController(reaction=install)
        topo, switch, host_a, host_b = build_fabric(controller)
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert controller.packet_ins.value == 1
        assert controller.flow_mods.value == 1


class TestMultiChannelRouting:
    """A switch with one channel per controller and a shard router."""

    def build_two_controller_fabric(self):
        topo = Topology("fabric")
        switch = topo.add_node(OpenFlowSwitch("sw1"))
        host_a = topo.add_node(SinkNode("host-a"))
        host_b = topo.add_node(SinkNode("host-b"))
        topo.add_link(host_a, switch)
        topo.add_link(host_b, switch)
        primary, backup = RecordingController(), RecordingController()
        primary.name, backup.name = "ctrl-a", "ctrl-b"
        for controller in (primary, backup):
            controller.attach(topo.sim)
            controller.register_switch(switch)
        switch.set_shard_router(lambda packet: ["ctrl-a", "ctrl-b"])
        return topo, switch, host_a, primary, backup

    def test_punt_goes_to_the_preferred_channel(self):
        topo, switch, host_a, primary, backup = self.build_two_controller_fabric()
        assert sorted(switch.channels) == ["ctrl-a", "ctrl-b"]
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(primary.messages) == 1
        assert backup.messages == []

    def test_dropped_channel_rehomes_punts_to_the_successor(self):
        topo, switch, host_a, primary, backup = self.build_two_controller_fabric()
        switch.channels["ctrl-a"].disconnect()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert primary.messages == []
        assert len(backup.messages) == 1
        switch.channels["ctrl-a"].reconnect()
        host_a.send(Packet.tcp("3.3.3.3", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert len(primary.messages) == 1

    def test_all_channels_down_follows_fail_mode(self):
        topo, switch, host_a, primary, backup = self.build_two_controller_fabric()
        switch.channels["ctrl-a"].disconnect()
        switch.channels["ctrl-b"].disconnect()
        switch.trace = PacketTrace()
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert primary.messages == [] and backup.messages == []
        assert [record.event for record in switch.trace] == ["drop"]  # fail-secure

    def test_event_labels_follow_renamed_owners(self):
        # Labels are built once per owner name, not per message; the
        # fixture above renames its controllers after construction, and a
        # switch may be renamed too.
        topo, switch, host_a, primary, backup = self.build_two_controller_fabric()
        sim, channel = topo.sim, switch.channels["ctrl-a"]
        primary.nonblocking_inbox = True
        channel.send_to_controller(PacketIn(switch=switch, packet=Packet(), in_port=1))
        assert sim.step().label == "ctrl-rx:sw1"
        assert sim.step().label == "ctrl-a:inbox"
        switch.name = "sw-renamed"
        channel.send_to_switch(
            FlowMod(match=Match(), command=FlowModCommand.DELETE, cookie="ctrl-a:decision-1")
        )
        assert sim.step().label == "switch-rx:sw-renamed"
        channel.send_to_controller(PacketIn(switch=switch, packet=Packet(), in_port=1))
        assert sim.step().label == "ctrl-rx:sw-renamed"
        assert sim.step().label == "ctrl-a:inbox"

    def test_channel_counters_are_attributable_per_controller(self):
        topo, switch, host_a, primary, backup = self.build_two_controller_fabric()
        assert (switch.channels["ctrl-a"].to_controller_messages.name
                == "sw1->ctrl-a.messages")
        assert (switch.channels["ctrl-b"].to_switch_messages.name
                == "ctrl-b->sw1.messages")
        host_a.send(Packet.tcp("1.1.1.1", "2.2.2.2", 1, 80), host_a.port(1))
        topo.run()
        assert switch.channels["ctrl-a"].to_controller_messages.value == 1
        assert switch.channels["ctrl-b"].to_controller_messages.value == 0

    def test_channel_drop_mid_punt_repunts_without_pending_leak(self):
        """End-to-end satellite: owner dies mid-punt, the successor decides,
        and no controller is left holding a ``_pending`` entry."""
        from repro.core.network import HostSpec, IdentPPClusterNetwork
        from repro.identpp.flowspec import FlowSpec

        net = IdentPPClusterNetwork("rehome", shards=3, policy_default_action="block")
        sw = net.add_switch("sw")
        net.add_host(HostSpec(name="client", ip="192.168.0.10",
                              users={"alice": ("users",)}), switch=sw)
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
        server.run_server("httpd", "root", 80)
        net.set_policy({"00.control": "block all\npass from any to any port 80 keep state\n"})

        packet, _, _ = net.host("client").open_flow("http", "alice", "192.168.1.1", 80)
        flow = FlowSpec.from_packet(packet)
        owner = net.cluster.shard_map.owner(flow)
        net.run(0.0005)  # punt now pending at the owner
        assert list(net.cluster.replicas[owner]._pending) == [flow]

        net.start_monitoring()
        net.cluster.kill(owner)
        net.run(1.0)
        net.stop_monitoring()
        net.run()

        assert len(server.delivered) == 1
        assert all(c.inflight_count() == 0 for c in net.cluster.replicas.values())
        assert sw.buffered_count() == 0
        assert net.cluster.repunted_flows == 1
