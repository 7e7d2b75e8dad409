"""A vanilla (port/address) firewall.

This is the architecture the paper's introduction criticises: policies
can only be written "in terms of incidental flow properties" — IP
prefixes, protocols and port numbers — so administrators end up with
coarse rules such as "block port 25" that also break legitimate SMTP
relaying, or cannot block Skype without blocking the web (§1).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.baselines.base import ACTION_BLOCK, ACTION_PASS
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Network
from repro.netsim.packet import proto_number


@dataclass
class FirewallRule:
    """One port/address rule: first match wins."""

    action: str
    src: Optional[IPv4Network] = None
    dst: Optional[IPv4Network] = None
    proto: Optional[int] = None
    dst_port: Optional[int] = None
    keep_state: bool = False
    comment: str = ""

    def __post_init__(self) -> None:
        if isinstance(self.src, str):
            self.src = IPv4Network(self.src)
        if isinstance(self.dst, str):
            self.dst = IPv4Network(self.dst)
        if isinstance(self.proto, str):
            self.proto = proto_number(self.proto)

    def matches(self, flow: FlowSpec) -> bool:
        """Return ``True`` if the flow matches every constrained field."""
        if self.src is not None and flow.src_ip not in self.src:
            return False
        if self.dst is not None and flow.dst_ip not in self.dst:
            return False
        if self.proto is not None and flow.proto != self.proto:
            return False
        if self.dst_port is not None and flow.dst_port != self.dst_port:
            return False
        return True


class VanillaFirewall:
    """A stateful first-match port firewall."""

    def __init__(
        self,
        rules: Iterable[FirewallRule] = (),
        *,
        name: str = "vanilla-firewall",
    ) -> None:
        self.name = name
        self.rules: list[FirewallRule] = list(rules)
        #: The flows a ``keep_state`` rule passed; either direction passes.
        self.established: set[FlowSpec] = set()
        self.decisions = 0

    # ------------------------------------------------------------------
    # Rule management
    # ------------------------------------------------------------------

    def allow(self, **kwargs) -> FirewallRule:
        """Append an allow rule (keyword arguments as in :class:`FirewallRule`)."""
        rule = FirewallRule(action=ACTION_PASS, **kwargs)
        self.rules.append(rule)
        return rule

    # ------------------------------------------------------------------
    # BaselinePolicy interface
    # ------------------------------------------------------------------

    def decide(self, flow: FlowSpec) -> str:
        """First matching rule wins; established (stateful) flows always pass.

        A port firewall has no user or application information: the
        5-tuple is all it decides on.
        """
        self.decisions += 1
        if flow in self.established or flow.reversed() in self.established:
            return ACTION_PASS
        for rule in self.rules:
            if rule.matches(flow):
                if rule.action == ACTION_PASS and rule.keep_state:
                    self.established.add(flow)
                return rule.action
        return ACTION_BLOCK

    def __len__(self) -> int:
        return len(self.rules)


def enterprise_default_rules() -> list[FirewallRule]:
    """Return a typical coarse enterprise rule set (used by the comparison benches).

    Allows outbound connections from the inside, web/ssh/smtp to the
    server subnet, and blocks everything else — the best a port firewall
    can express for the paper's scenarios.
    """
    internal, server_subnet = "192.168.0.0/16", "192.168.1.0/24"
    return [
        FirewallRule(action=ACTION_PASS, src=IPv4Network(internal), dst=None, proto="tcp",
                     keep_state=True, comment="outbound from inside"),
        FirewallRule(action=ACTION_PASS, dst=IPv4Network(server_subnet), proto="tcp", dst_port=80,
                     keep_state=True, comment="web to servers"),
        FirewallRule(action=ACTION_PASS, dst=IPv4Network(server_subnet), proto="tcp", dst_port=22,
                     keep_state=True, comment="ssh to servers"),
        FirewallRule(action=ACTION_PASS, dst=IPv4Network(server_subnet), proto="tcp", dst_port=25,
                     keep_state=True, comment="smtp to servers"),
        FirewallRule(action=ACTION_BLOCK, comment="default deny"),
    ]
