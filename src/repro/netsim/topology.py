"""Topology builder.

A :class:`Topology` owns a :class:`~repro.netsim.events.Simulator`, the
set of :class:`~repro.netsim.nodes.Node` objects and the
:class:`~repro.netsim.links.Link` objects between them, and keeps the
connectivity as an adjacency dict so path queries (which the ident++
controller uses to install flow entries "along the path", §3.4) are one
call away.

The builder also hands out unique MAC addresses and keeps an IP → node
index so controllers and daemons can resolve the hosts behind a flow.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Optional

from repro.exceptions import TopologyError
from repro.netsim.addresses import IPv4Address
from repro.netsim.events import Simulator
from repro.netsim.links import DEFAULT_BANDWIDTH, DEFAULT_LATENCY, Link
from repro.netsim.nodes import Node, Port
from repro.netsim.trace import PacketTrace


class Topology:
    """A collection of nodes and links bound to a single simulator."""

    def __init__(self, name: str = "topology", sim: Optional[Simulator] = None) -> None:
        self.name = name
        self.sim = sim if sim is not None else Simulator()
        # A capture is something you start: ``trace.enabled = True``.
        self.trace = PacketTrace(name=f"{name}.trace", enabled=False)
        self._nodes: dict[str, Node] = {}
        self._links: list[Link] = []
        # node name -> {neighbour name -> the one link between them}, both
        # directions; nodes in registration order, neighbours in link order.
        self._adjacency: dict[str, dict[str, Link]] = {}
        self._ip_to_node: dict[IPv4Address, Node] = {}
        # (source, target) name pair -> shortest path (as names); valid
        # until the topology gains a node or link.  Path-wide flow
        # install resolves one path per decision, so repeat pairs are the
        # hot case.
        self._path_cache: dict[tuple[str, str], list[str]] = {}
        # (source, target) name pair -> summed link latency of that path;
        # same lifetime as the path it was summed over.
        self._latency_cache: dict[tuple[str, str], float] = {}
        # Bumped on every connectivity mutation.  Derived caches (the
        # path cache here, the query client's mean-link-latency) key on
        # this.
        self._mutation_epoch = 0

    # ------------------------------------------------------------------
    # Nodes
    # ------------------------------------------------------------------

    def add_node(self, node: Node) -> Node:
        """Register a node, binding it to the topology's simulator."""
        if node.name in self._nodes:
            raise TopologyError(f"duplicate node name: {node.name}")
        node.attach(self.sim)
        self._nodes[node.name] = node
        self._adjacency[node.name] = {}
        self._note_mutation()
        return node

    def node(self, name: str) -> Node:
        """Return the node with the given name."""
        try:
            return self._nodes[name]
        except KeyError as exc:
            raise TopologyError(f"unknown node: {name}") from exc

    def nodes(self) -> Iterator[Node]:
        """Iterate over nodes in name order."""
        for name in sorted(self._nodes):
            yield self._nodes[name]

    def node_names(self) -> list[str]:
        """Return all node names sorted."""
        return sorted(self._nodes)

    def register_ip(self, address: IPv4Address | str, node: Node) -> None:
        """Record that ``address`` belongs to ``node`` (used by host lookups)."""
        address = IPv4Address(address)
        existing = self._ip_to_node.get(address)
        if existing is not None and existing is not node:
            raise TopologyError(f"IP {address} already assigned to {existing.name}")
        self._ip_to_node[address] = node

    def node_for_ip(self, address: IPv4Address | str) -> Optional[Node]:
        """Return the node owning ``address``, or ``None``."""
        if not isinstance(address, IPv4Address):
            address = IPv4Address(address)
        return self._ip_to_node.get(address)

    # ------------------------------------------------------------------
    # Links
    # ------------------------------------------------------------------

    def add_link(
        self,
        node_a: Node | str,
        node_b: Node | str,
        *,
        latency: float = DEFAULT_LATENCY,
        bandwidth: Optional[float] = DEFAULT_BANDWIDTH,
        port_a: Optional[int] = None,
        port_b: Optional[int] = None,
    ) -> Link:
        """Create a link between two registered nodes.

        New ports are allocated on each node unless explicit port numbers
        are given.  Returns the created :class:`Link`.  A pair of nodes
        has at most one link: paths and latencies are answered per
        pair.
        """
        node_a = self._resolve(node_a)
        node_b = self._resolve(node_b)
        if node_a is node_b:
            raise TopologyError(f"cannot link node {node_a.name} to itself")
        if node_b.name in self._adjacency[node_a.name]:
            raise TopologyError(f"nodes {node_a.name} and {node_b.name} are already linked")
        end_a = node_a.port(port_a) if port_a is not None else node_a.add_port()
        end_b = node_b.port(port_b) if port_b is not None else node_b.add_port()
        link = Link(end_a, end_b, latency=latency, bandwidth=bandwidth)
        self._links.append(link)
        self._adjacency[node_a.name][node_b.name] = link
        self._adjacency[node_b.name][node_a.name] = link
        self._note_mutation()
        return link

    def _note_mutation(self) -> None:
        """Record a connectivity change: bump the epoch, drop derived caches."""
        self._mutation_epoch += 1
        self._path_cache.clear()
        self._latency_cache.clear()

    @property
    def mutation_epoch(self) -> int:
        """Return the connectivity mutation counter (bumped per node/link change).

        Anything caching a value derived from connectivity (paths, mean
        link latency) keys the cache on this epoch.
        """
        return self._mutation_epoch

    def links(self) -> list[Link]:
        """Return all links in creation order."""
        return list(self._links)

    def link_between(self, node_a: Node | str, node_b: Node | str) -> Optional[Link]:
        """Return the link directly connecting two nodes, or ``None``."""
        name_a = self._resolve(node_a).name
        name_b = self._resolve(node_b).name
        return self._adjacency[name_a].get(name_b)

    def _resolve(self, node: Node | str) -> Node:
        if isinstance(node, Node):
            if node.name not in self._nodes:
                raise TopologyError(f"node {node.name} is not part of topology {self.name}")
            return node
        return self.node(node)

    # ------------------------------------------------------------------
    # Paths
    # ------------------------------------------------------------------

    def shortest_path(self, source: Node | str, target: Node | str) -> list[Node]:
        """Return the latency-weighted shortest path as a list of nodes (inclusive).

        Equal-latency ties (the normal case on spine-leaf
        fabrics, where every leaf pair has one path per spine) break
        deterministically: the fewest hops win, then the
        lexicographically smallest node-name sequence.  Path-wide flow
        install depends on this — every decision about a flow, on any
        controller, must resolve the *same* hop set.  Results are cached
        until the topology's connectivity mutates (node or link added).
        """
        source_name = self._resolve(source).name
        target_name = self._resolve(target).name
        names = self._path_cache.get((source_name, target_name))
        if names is None:
            names = self._lex_shortest_path(source_name, target_name)
            self._path_cache[(source_name, target_name)] = names
        return [self._nodes[name] for name in names]

    def _lex_shortest_path(self, source: str, target: str) -> list[str]:
        """One uniform-cost search keyed on ``(latency, hops, path names)``.

        A single Dijkstra-style pass whose heap key carries the path
        itself: the first time ``target`` pops, its key is minimal, so
        the result is the fewest-hop, lexicographically smallest of the
        minimum-latency paths — *without* enumerating the (potentially
        combinatorial) set of equal-cost paths.  Key extension is
        monotone (latency ≥ 0, hops +1) and prefix comparison decides
        equal-length path ties, so the standard first-pop finalization
        argument carries over to the composite key.
        """
        adjacency = self._adjacency
        heap: list[tuple[float, int, tuple[str, ...]]] = [(0.0, 0, (source,))]
        finalized: set[str] = set()
        while heap:
            latency, hops, path = heapq.heappop(heap)
            node = path[-1]
            if node in finalized:
                continue
            finalized.add(node)
            if node == target:
                return list(path)
            for neighbor, link in adjacency[node].items():
                if neighbor not in finalized:
                    heapq.heappush(
                        heap,
                        (latency + link.latency, hops + 1, path + (neighbor,)),
                    )
        raise TopologyError(f"no path from {source} to {target}")

    def path_latency(self, source: Node | str, target: Node | str) -> float:
        """Return the sum of link latencies along the shortest path."""
        key = (self._resolve(source).name, self._resolve(target).name)
        total = self._latency_cache.get(key)
        if total is None:
            path = self.shortest_path(source, target)
            total = 0.0
            for left, right in zip(path, path[1:]):
                link = self.link_between(left, right)
                if link is None:
                    raise TopologyError(f"missing link between {left.name} and {right.name}")
                total += link.latency
            self._latency_cache[key] = total
        return total

    def egress_port(self, node: Node | str, toward: Node | str) -> Port:
        """Return the port on ``node`` whose link leads directly to ``toward``.

        The ident++ controller uses this when installing flow entries hop
        by hop along the path of an approved flow.
        """
        node = self._resolve(node)
        toward = self._resolve(toward)
        link = self.link_between(node, toward)
        if link is None:
            raise TopologyError(f"nodes {node.name} and {toward.name} are not adjacent")
        for port in link.endpoints():
            if port.node is node:
                return port
        raise TopologyError(f"link {link.name} has no endpoint on {node.name}")

    def connected(self, source: Node | str, target: Node | str) -> bool:
        """Return ``True`` if a path exists between the two nodes."""
        try:
            self.shortest_path(source, target)
        except TopologyError:
            return False
        return True

    # ------------------------------------------------------------------
    # Execution helpers
    # ------------------------------------------------------------------

    def run(self, until: float | None = None, max_events: int | None = None) -> int:
        """Run the owned simulator (see :meth:`Simulator.run`)."""
        return self.sim.run(until=until, max_events=max_events)

    def describe(self) -> dict[str, object]:
        """Return a dictionary summarising the topology (used in reports)."""
        return {
            "name": self.name,
            "nodes": self.node_names(),
            "links": [link.name for link in self._links],
            "diameter": self._diameter(),
        }

    def _diameter(self) -> int:
        """Longest hop-count shortest path; 0 when disconnected or under two nodes."""
        adjacency = self._adjacency
        diameter = 0
        for source in adjacency:
            seen = {source}
            frontier = [source]
            depth = -1
            while frontier:
                depth += 1
                reached = []
                for node in frontier:
                    for neighbor in adjacency[node]:
                        if neighbor not in seen:
                            seen.add(neighbor)
                            reached.append(neighbor)
                frontier = reached
            if len(seen) < len(adjacency):
                return 0
            diameter = max(diameter, depth)
        return diameter
