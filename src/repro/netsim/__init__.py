"""Discrete-event network simulator substrate.

The paper evaluates ident++ on an OpenFlow enterprise network.  No such
testbed is available offline, so this package provides the substrate the
rest of the library runs on: a small but complete discrete-event network
simulator with

* IPv4 / MAC addressing and CIDR prefixes (:mod:`repro.netsim.addresses`),
* packets carrying the Ethernet/IP/TCP/UDP header fields OpenFlow matches
  on (:mod:`repro.netsim.packet`),
* a deterministic event scheduler (:mod:`repro.netsim.events`),
* nodes with named ports and point-to-point links with latency and
  bandwidth (:mod:`repro.netsim.nodes`, :mod:`repro.netsim.links`),
* a :class:`~repro.netsim.topology.Topology` builder that keeps its own
  adjacency and answers path queries with one deterministic search,
* a spine-leaf fabric builder for path-wide enforcement at scale
  (:mod:`repro.netsim.fabrics`), and
* statistics and packet-trace helpers
  (:mod:`repro.netsim.statistics`, :mod:`repro.netsim.trace`).

Everything above this package (OpenFlow switches, end-hosts, the ident++
controller) plugs into the simulator by subclassing
:class:`~repro.netsim.nodes.Node`.
"""

from repro.netsim.addresses import (
    BROADCAST_MAC,
    IPv4Address,
    IPv4Network,
    MACAddress,
)
from repro.netsim.events import Event, Simulator
from repro.netsim.fabrics import (
    SpineLeafFabric,
    build_spine_leaf,
)
from repro.netsim.links import Link
from repro.netsim.nodes import Node, Port
from repro.netsim.sanitizer import (
    EventTraceHasher,
    SanitizerReport,
    ShadowReplayReport,
    SimulationSanitizer,
    shadow_replay,
)
from repro.netsim.packet import (
    ETH_TYPE_ARP,
    ETH_TYPE_IP,
    IP_PROTO_ICMP,
    IP_PROTO_TCP,
    IP_PROTO_UDP,
    Packet,
)
from repro.netsim.statistics import Counter, RateCounter
from repro.netsim.topology import Topology
from repro.netsim.trace import PacketTrace, TraceRecord

__all__ = [
    "BROADCAST_MAC",
    "IPv4Address",
    "IPv4Network",
    "MACAddress",
    "Event",
    "Simulator",
    "SpineLeafFabric",
    "build_spine_leaf",
    "Link",
    "Node",
    "Port",
    "ETH_TYPE_ARP",
    "ETH_TYPE_IP",
    "IP_PROTO_ICMP",
    "IP_PROTO_TCP",
    "IP_PROTO_UDP",
    "Packet",
    "Counter",
    "EventTraceHasher",
    "RateCounter",
    "SanitizerReport",
    "ShadowReplayReport",
    "SimulationSanitizer",
    "shadow_replay",
    "Topology",
    "PacketTrace",
    "TraceRecord",
]
