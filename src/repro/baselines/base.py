"""Common interface for baseline security architectures.

A baseline is anything that can answer "may this flow proceed?" given
only the information that architecture actually has.  ident++'s whole
point is that it has *more* information (user, application, patch
level); the baselines deliberately ignore the fields they would not see
in reality — that asymmetry is what the comparison experiments measure.
"""

from __future__ import annotations

from typing import Optional, Protocol

from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec
from repro.netsim.topology import Topology
from repro.openflow.actions import DropAction, OutputAction, FloodAction
from repro.openflow.controller_base import Controller
from repro.openflow.match import Match
from repro.openflow.messages import PacketIn
from repro.openflow.switch import OpenFlowSwitch

ACTION_PASS = "pass"
ACTION_BLOCK = "block"


class BaselinePolicy(Protocol):
    """What every baseline implements."""

    name: str

    def decide(self, flow: FlowSpec) -> str:
        """Return ``"pass"`` or ``"block"`` for the flow.

        The flow is all a baseline is given: whatever else its
        architecture sees (Ethane's user bindings, a VLAN's segment map)
        it holds itself, and none of them sees applications.
        """

    def uses_information(self) -> tuple[str, ...]:
        """Return which information classes the architecture consults
        (used in the qualitative §6 comparison table)."""


class BaselineController(Controller):
    """Mounts a :class:`BaselinePolicy` on the OpenFlow substrate.

    Decisions are cached in switch flow tables exactly as the ident++
    controller does, but no ident++ queries are issued — what a policy
    knows beyond the flow is static (Ethane's bindings).  This keeps
    the flow-setup latency comparison honest: the baseline pays only the
    control-channel round trip.
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
        if not packet.is_ip():
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
            # No path between the endpoints: nothing to install
            # downstream.  Non-topology errors propagate.
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
            # Unroutable destination: the caller falls back to flooding.
            return None
        if len(path) < 2:
            return None
        return self.topology.egress_port(switch, path[1]).number
