"""The per-decision path installer the planned one replaced, kept as a test oracle.

This is the install / release / unwind slice of
``repro.core.installer.PathInstaller`` as it stood before the hop plan:
every decision resolves its path, both egress ports and both direction
matches afresh, every buffered punt is released with its own PacketOut
after all FlowMods went out, and the first ``FlowRemoved`` of a cookie
deletes on *every* registered hop, the reporter included.  Its registry
export keeps the two branches it had before they became one prefix
filter: no prefix drains everything, a prefix takes the cookies that
start with it.  It does strictly more work than the real installer for
the same outcome, which makes it easy to read the outcome off the code.
``tests/test_install_reference.py`` drives it and the real controller
through the same punts and requires the same flow entries, released
packets, unwound tables, exported registries and audit records.  It is
not importable from ``src/`` and nothing outside the tests may use it.
"""

from __future__ import annotations

import types
from typing import Optional, Sequence

from repro.core.controller import IdentPPController
from repro.core.installer import FLOW_PRIORITY, PathInstall, PathInstaller
from repro.exceptions import TopologyError
from repro.identpp.flowspec import FlowSpec
from repro.netsim.nodes import Node
from repro.openflow.actions import FloodAction, OutputAction
from repro.openflow.match import Match
from repro.openflow.messages import FlowRemoved, PacketIn
from repro.openflow.switch import OpenFlowSwitch


def use_reference_installer(controller: IdentPPController) -> IdentPPController:
    """Swap ``controller``'s installer for the reference one (this instance only)."""
    installer = controller.installer
    for function in (_install_path, _first_enforcement_hop, on_flow_removed, export):
        setattr(installer, function.__name__, types.MethodType(function, installer))
    return controller


def _path_for_flow(self: PathInstaller, flow: FlowSpec) -> Optional[list[Node]]:
    topology = self._controller.topology
    source = topology.node_for_ip(flow.src_ip)
    destination = topology.node_for_ip(flow.dst_ip)
    if source is None or destination is None:
        return None
    try:
        return topology.shortest_path(source, destination)
    except TopologyError:
        return None


def _first_enforcement_hop(self: PathInstaller, flow: FlowSpec) -> Optional[OpenFlowSwitch]:
    """Return the first managed switch on the flow's path (its ingress hop)."""
    path = _path_for_flow(self, flow)
    if path is None:
        return None
    for node in path:
        if isinstance(node, OpenFlowSwitch) and node.name in self._controller.channels:
            return node
    return None


def _install_path(
    self: PathInstaller,
    flow: FlowSpec,
    pending: Sequence[PacketIn],
    cookie: str,
    *,
    keep_state: bool,
    reinstall: bool,
) -> None:
    """Install forward (and, for ``keep state``, reverse) entries, then release every punt."""
    controller = self._controller
    topology = controller.topology
    config = controller.config
    egress_by_switch: dict[str, int] = {}
    path = _path_for_flow(self, flow)
    if path is not None:
        match = Match.from_five_tuple(
            flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
        )
        reverse = flow.reversed()
        reverse_match = Match.from_five_tuple(
            reverse.src_ip, reverse.dst_ip, reverse.proto, reverse.src_port, reverse.dst_port
        )
        touched: set[str] = set()
        for index, node in enumerate(path):
            if not isinstance(node, OpenFlowSwitch) or node.name not in controller.channels:
                continue
            next_node = path[index + 1] if index + 1 < len(path) else None
            previous_node = path[index - 1] if index > 0 else None
            if next_node is not None:
                out_port = topology.egress_port(node, next_node).number
                egress_by_switch[node.name] = out_port
                controller.install_flow(
                    node,
                    match,
                    [OutputAction(out_port)],
                    priority=FLOW_PRIORITY,
                    idle_timeout=config.idle_timeout,
                    hard_timeout=config.hard_timeout,
                    cookie=cookie,
                )
                touched.add(node.name)
            if keep_state and previous_node is not None:
                back_port = topology.egress_port(node, previous_node).number
                controller.install_flow(
                    node,
                    reverse_match,
                    [OutputAction(back_port)],
                    priority=FLOW_PRIORITY,
                    idle_timeout=config.idle_timeout,
                    hard_timeout=config.hard_timeout,
                    cookie=cookie,
                )
                touched.add(node.name)
        if len(touched) > 1:
            self._installs[cookie] = PathInstall(
                flow=flow, switches=tuple(sorted(touched))
            )
    for message in pending:
        out_port = egress_by_switch.get(message.switch.name)
        actions = [OutputAction(out_port)] if out_port is not None else [FloodAction()]
        controller.send_packet_out(
            message.switch, actions=actions, buffer_id=message.buffer_id, in_port=message.in_port
        )


def on_flow_removed(self: PathInstaller, message: FlowRemoved) -> None:
    """Delete the cookie's entries on every registered hop, the reporter included."""
    controller = self._controller
    install = self._installs.pop(message.cookie, None)
    if install is None:
        return
    self.unwinds += 1
    for name in install.switches:
        channel = controller.channels.get(name)
        if channel is not None and channel.connected:
            controller.remove_flows_by_cookie(name, message.cookie)


def export(self: PathInstaller, prefix: Optional[str] = None) -> list[tuple[str, PathInstall]]:
    """Hand over the registry: all of it without ``prefix``, else the cookies it starts."""
    if prefix is None:
        items = sorted(self._installs.items())
        self._installs.clear()
        return items
    items = sorted(
        (cookie, install)
        for cookie, install in self._installs.items()
        if cookie.startswith(prefix)
    )
    for cookie, _ in items:
        del self._installs[cookie]
    return items
