"""The second OpenFlow controller the baselines used to run on, kept as a test oracle.

Before a baseline became a decider in the ident++ controller's
``policy`` slot (``repro.baselines.base.BaselineDecider``), E10a's
Ethane line ran on this class: its own copy of path planning and
install, no path registry, no unwind on ``FlowRemoved``, no fail-closed
deadline, no audit, and every pass of one controller under the one
shared cookie ``{name}:pass``.  ``tests/test_baseline_reference.py``
drives it and the live controller through the same flows and requires
the same verdicts, the same delivered and dropped packets and the same
first-packet delivery instants.  It is not importable from ``src/`` and
nothing outside the tests may use it.
"""

from __future__ import annotations

from typing import Optional

from repro.baselines.base import ACTION_PASS, BaselinePolicy
from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec
from repro.netsim.topology import Topology
from repro.openflow.actions import DropAction, FloodAction, OutputAction
from repro.openflow.controller_base import Controller
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn
from repro.openflow.switch import OpenFlowSwitch


class ReferenceBaselineController(Controller):
    """Mounts a :class:`BaselinePolicy` on the OpenFlow substrate.

    Decisions are cached in switch flow tables exactly as the ident++
    controller does, but no ident++ queries are issued — what a policy
    knows beyond the flow is static (Ethane's bindings).  The baseline
    pays only the control-channel round trip.
    """

    def __init__(
        self,
        name: str,
        topology: Topology,
        policy: BaselinePolicy,
        *,
        idle_timeout: float = 60.0,
    ) -> None:
        super().__init__(name)
        self.topology = topology
        self.policy = policy
        self.idle_timeout = idle_timeout
        self.decisions: list[tuple[FlowSpec, str]] = []
        self.attach(topology.sim)

    def on_packet_in(self, message: PacketIn) -> None:
        packet = message.packet
        if not packet.carries_ip:
            self.send_packet_out(
                message.switch, actions=[FloodAction()], buffer_id=message.buffer_id,
                in_port=message.in_port,
            )
            return
        flow = FlowSpec.from_packet(packet)
        action = self.policy.decide(flow)
        self.decisions.append((flow, action))
        match = Match.from_five_tuple(
            flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
        )
        if action == ACTION_PASS:
            out_port = self._egress_toward(message.switch, flow)
            actions = [OutputAction(out_port)] if out_port is not None else [FloodAction()]
        else:
            actions = [DropAction()]
        self.install_flow(
            message.switch,
            match,
            actions,
            idle_timeout=self.idle_timeout,
            cookie=f"{self.name}:{action}",
            buffer_id=message.buffer_id,
        )
        self._install_downstream(flow, action, message.switch)

    def _install_downstream(self, flow: FlowSpec, action: str, first_switch: OpenFlowSwitch) -> None:
        if action != ACTION_PASS:
            return
        destination = self.topology.node_for_ip(flow.dst_ip)
        source = self.topology.node_for_ip(flow.src_ip)
        if destination is None or source is None:
            return
        try:
            path = self.topology.shortest_path(source, destination)
        except TopologyError:
            return
        match = Match.from_five_tuple(
            flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
        )
        for index, node in enumerate(path):
            if not isinstance(node, OpenFlowSwitch) or node.name not in self.channels:
                continue
            if node is first_switch:
                continue
            if index + 1 < len(path):
                out_port = self.topology.egress_port(node, path[index + 1]).number
                self.install_flow(
                    node, match, [OutputAction(out_port)],
                    idle_timeout=self.idle_timeout, cookie=f"{self.name}:pass",
                )

    def _egress_toward(self, switch: OpenFlowSwitch, flow: FlowSpec) -> Optional[int]:
        destination = self.topology.node_for_ip(flow.dst_ip)
        if destination is None:
            return None
        try:
            path = self.topology.shortest_path(switch, destination)
        except TopologyError:
            return None
        if len(path) < 2:
            return None
        return self.topology.egress_port(switch, path[1]).number
