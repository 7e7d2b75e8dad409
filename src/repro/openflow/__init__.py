"""OpenFlow 1.0 substrate.

The paper assumes "firewalls ... implemented using an Ethane network or
an OpenFlow network" (§2) and describes its design on OpenFlow (§3.1):
switches keep a flow table keyed by the 10-tuple, unmatched packets are
punted to a controller, and the controller caches its decision by
installing flow entries (possibly preemptively along the whole path).

This package models exactly that abstraction:

* :mod:`repro.openflow.match` — the 10-tuple match with wildcards,
* :mod:`repro.openflow.actions` — forward / flood / drop / send-to-controller,
* :mod:`repro.openflow.flow_table` — priority flow tables with idle and
  hard timeouts and per-entry counters,
* :mod:`repro.openflow.messages` — ``packet_in`` / ``flow_mod`` /
  ``packet_out`` / ``flow_removed`` control messages,
* :mod:`repro.openflow.channel` — the switch↔controller control channel
  with configurable latency,
* :mod:`repro.openflow.switch` — the datapath node,
* :mod:`repro.openflow.controller_base` — the base class the ident++
  controller and the baseline controllers build on.
"""

from repro.openflow.actions import (
    Action,
    ControllerAction,
    DropAction,
    FloodAction,
    OutputAction,
)
from repro.openflow.channel import ControllerChannel
from repro.openflow.controller_base import Controller
from repro.openflow.flow_table import FlowEntry, FlowTable
from repro.openflow.match import Match
from repro.openflow.messages import (
    FlowMod,
    FlowRemoved,
    PacketIn,
    PacketOut,
    PortStatsReply,
    StatsRequest,
)
from repro.openflow.switch import OpenFlowSwitch

__all__ = [
    "Action",
    "ControllerAction",
    "DropAction",
    "FloodAction",
    "OutputAction",
    "ControllerChannel",
    "Controller",
    "FlowEntry",
    "FlowTable",
    "Match",
    "FlowMod",
    "FlowRemoved",
    "PacketIn",
    "PacketOut",
    "PortStatsReply",
    "StatsRequest",
    "OpenFlowSwitch",
]
