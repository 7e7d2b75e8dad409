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
