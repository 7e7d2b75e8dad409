"""OpenFlow actions.

The paper (§3.1) lists the actions the reproduction needs: "dropping the
packet, forwarding it on a particular port or number of ports, or
sending the packet to the OpenFlow controller".  Each is a small class
so flow entries can carry lists of actions and the switch can apply them
uniformly.
"""

from __future__ import annotations

from dataclasses import dataclass


class Action:
    """Base class for flow-entry actions (marker type)."""


@dataclass(frozen=True)
class OutputAction(Action):
    """Forward the packet out of a specific switch port."""

    port: int


@dataclass(frozen=True)
class FloodAction(Action):
    """Forward the packet out of every port except the ingress port."""


@dataclass(frozen=True)
class DropAction(Action):
    """Drop the packet.

    An empty action list also drops in real OpenFlow; the explicit action
    keeps audit logs and tests unambiguous about *deliberate* denies.
    """


@dataclass(frozen=True)
class ControllerAction(Action):
    """Punt the packet to the controller over the control channel."""
