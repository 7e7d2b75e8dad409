"""OpenFlow actions.

The paper (§3.1) lists the actions the reproduction needs: "dropping the
packet, forwarding it on a particular port or number of ports, or
sending the packet to the OpenFlow controller".  Each is a small class
so flow entries can carry lists of actions and the switch can apply them
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence


class Action:
    """Base class for flow-entry actions (marker type)."""

    def describe(self) -> str:
        """Return a short human-readable description (used in audit logs)."""
        return type(self).__name__


@dataclass(frozen=True)
class OutputAction(Action):
    """Forward the packet out of a specific switch port."""

    port: int

    def describe(self) -> str:
        return f"output:{self.port}"


@dataclass(frozen=True)
class FloodAction(Action):
    """Forward the packet out of every port except the ingress port."""

    def describe(self) -> str:
        return "flood"


@dataclass(frozen=True)
class DropAction(Action):
    """Drop the packet.

    An empty action list also drops in real OpenFlow; the explicit action
    keeps audit logs and tests unambiguous about *deliberate* denies.
    """

    def describe(self) -> str:
        return "drop"


@dataclass(frozen=True)
class ControllerAction(Action):
    """Punt the packet to the controller over the control channel."""

    def describe(self) -> str:
        return "controller"


def describe_actions(actions: Sequence[Action]) -> str:
    """Return a compact description of an action list (``"output:3"``, ``"drop"``...)."""
    if not actions:
        return "drop(implicit)"
    return ",".join(action.describe() for action in actions)
