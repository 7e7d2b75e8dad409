"""OpenFlow control-channel messages.

Only the handful of message types the paper's design needs are modelled:
``packet_in`` (switch → controller, an unmatched packet), ``flow_mod``
(controller → switch, install/delete a cached decision), ``packet_out``
(controller → switch, release a buffered packet) and ``flow_removed``
(switch → controller, an entry expired).  There is no statistics
exchange: the counts a switch keeps are read in-process.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Optional, Sequence, TYPE_CHECKING

from repro.netsim.packet import Packet
from repro.openflow.actions import Action
from repro.openflow.flow_table import DEFAULT_PRIORITY
from repro.openflow.match import Match

if TYPE_CHECKING:  # pragma: no cover
    from repro.openflow.switch import OpenFlowSwitch

# Bound ``__next__`` of the two id streams: a default factory that is
# a C call, not a Python lambda per message.
_next_buffer_id = itertools.count(1).__next__
_next_xid = itertools.count(1).__next__


@dataclass
class ControlMessage:
    """Base class for all control-channel messages."""

    xid: int = field(default_factory=_next_xid, init=False)


@dataclass
class PacketIn(ControlMessage):
    """Switch → controller: a packet missed the flow table.

    The switch buffers the original packet; ``buffer_id`` lets a later
    :class:`PacketOut` release exactly that packet.
    """

    switch: "OpenFlowSwitch"
    packet: Packet
    in_port: int
    buffer_id: int = field(default_factory=_next_buffer_id)
    reason: str = "no_match"


class FlowModCommand:
    """Flow-mod commands (subset of OpenFlow 1.0)."""

    ADD = "add"
    DELETE = "delete"
    DELETE_STRICT = "delete_strict"
    #: The commands that remove entries rather than install one.
    DELETES = (DELETE, DELETE_STRICT)


@dataclass
class FlowMod(ControlMessage):
    """Controller → switch: install or remove a flow entry."""

    match: Match
    actions: Sequence[Action] = ()
    command: str = FlowModCommand.ADD
    priority: int = DEFAULT_PRIORITY
    idle_timeout: float = 0.0
    hard_timeout: float = 0.0
    cookie: str = ""
    buffer_id: Optional[int] = None


@dataclass
class PacketOut(ControlMessage):
    """Controller → switch: emit a packet (a buffered one or a new one)."""

    actions: Sequence[Action] = ()
    buffer_id: Optional[int] = None
    packet: Optional[Packet] = None
    in_port: Optional[int] = None


@dataclass
class FlowRemoved(ControlMessage):
    """Switch → controller: a flow entry expired or was evicted."""

    switch: "OpenFlowSwitch"
    match: Match
    cookie: str = ""
    reason: str = "idle_timeout"
    packet_count: int = 0
