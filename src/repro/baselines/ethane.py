"""An Ethane-style controller [5].

"Ethane provides administrators with centralized control of network
flows in an enterprise network.  However, it forces the administrator to
make security decisions based on the source and destination's physical
switch ports and network primitives, and not on any application-level
information." (§6)

The model: hosts *register* with the controller (a binding of IP/MAC →
switch port and authenticated user).  Policy rules may refer to the
bound users, groups and the 5-tuple — but never to applications,
executable hashes, versions or patch levels, because Ethane has no way
to learn them.  That is precisely the gap ident++ fills, and what the
comparison experiments show: the Skype-vs-web and Conficker policies of
Figures 2 and 8 are inexpressible here.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from repro.baselines.base import ACTION_BLOCK, ACTION_PASS
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Address, IPv4Network
from repro.netsim.packet import proto_number


@dataclass
class HostBinding:
    """One registered host: who authenticated it."""

    ip: IPv4Address
    user: str
    groups: tuple[str, ...] = ()

    def __post_init__(self) -> None:
        self.ip = IPv4Address(self.ip)


@dataclass
class EthaneRule:
    """One Ethane policy rule: users/groups and network primitives, first match wins."""

    action: str
    src_user: Optional[str] = None
    src_group: Optional[str] = None
    src: Optional[IPv4Network] = None
    dst: Optional[IPv4Network] = None
    proto: Optional[int] = None
    dst_port: Optional[int] = None

    def __post_init__(self) -> None:
        if isinstance(self.src, str):
            self.src = IPv4Network(self.src)
        if isinstance(self.dst, str):
            self.dst = IPv4Network(self.dst)
        if isinstance(self.proto, str):
            self.proto = proto_number(self.proto)

    def matches(self, flow: FlowSpec, src_binding: Optional[HostBinding]) -> bool:
        """Return ``True`` if both the network fields and the source binding match."""
        if self.src is not None and flow.src_ip not in self.src:
            return False
        if self.dst is not None and flow.dst_ip not in self.dst:
            return False
        if self.proto is not None and flow.proto != self.proto:
            return False
        if self.dst_port is not None and flow.dst_port != self.dst_port:
            return False
        if self.src_user is not None and (src_binding is None or src_binding.user != self.src_user):
            return False
        if self.src_group is not None and (
            src_binding is None or self.src_group not in src_binding.groups
        ):
            return False
        return True


class EthanePolicy:
    """Centralized admission control over registered hosts and users."""

    def __init__(
        self,
        rules: Iterable[EthaneRule] = (),
        *,
        default_action: str = ACTION_BLOCK,
        name: str = "ethane",
    ) -> None:
        self.name = name
        self.rules: list[EthaneRule] = list(rules)
        self.default_action = default_action
        self._bindings: dict[IPv4Address, HostBinding] = {}
        self.decisions = 0

    # ------------------------------------------------------------------
    # Registration (Ethane's host/user authentication step)
    # ------------------------------------------------------------------

    def register_host(
        self,
        ip: IPv4Address | str,
        user: str,
        *,
        groups: Iterable[str] = (),
    ) -> HostBinding:
        """Bind a host address to an authenticated user."""
        binding = HostBinding(ip=IPv4Address(ip), user=user, groups=tuple(groups))
        self._bindings[binding.ip] = binding
        return binding

    # ------------------------------------------------------------------
    # Rules
    # ------------------------------------------------------------------

    def allow(self, **kwargs) -> EthaneRule:
        """Append an allow rule."""
        rule = EthaneRule(action=ACTION_PASS, **kwargs)
        self.rules.append(rule)
        return rule

    # ------------------------------------------------------------------
    # BaselinePolicy interface
    # ------------------------------------------------------------------

    def decide(self, flow: FlowSpec) -> str:
        """First matching rule wins; bindings substitute for ident++'s userID.

        Ethane cannot see application names, versions or patch levels, so
        nothing but the flow and the bindings reaches a decision.
        """
        self.decisions += 1
        src_binding = self._bindings.get(flow.src_ip)
        for rule in self.rules:
            if rule.matches(flow, src_binding):
                return rule.action
        return self.default_action
