"""The networkx graph ``Topology`` used to keep, kept as a test oracle.

Until ``repro.netsim.topology.Topology`` held its own adjacency it
mirrored every node and link into a :class:`networkx.Graph` (edge data
``latency`` and ``link``) and read links, neighbours and the diameter
back out of it.  This is that graph, with each query answered by
networkx's own algorithms instead of the topology's search.
``tests/test_topology_reference.py`` drives it and the real topology
with the same mutations and requires the same answers.  networkx is a
test-only dependency: without it the differential skips.  It is not
importable from ``src/`` and nothing outside the tests may use it.
"""

from __future__ import annotations

from typing import Optional

import pytest

from repro.netsim.links import Link

nx = pytest.importorskip("networkx")


class ReferenceTopology:
    """Node names and links in a :class:`networkx.Graph`; queries by networkx."""

    def __init__(self) -> None:
        self.graph = nx.Graph()

    def add_node(self, name: str) -> None:
        self.graph.add_node(name)

    def add_link(self, name_a: str, name_b: str, link: Link) -> None:
        self.graph.add_edge(name_a, name_b, latency=link.latency, link=link)

    def remove_link(self, name_a: str, name_b: str) -> None:
        self.graph.remove_edge(name_a, name_b)

    def link_between(self, name_a: str, name_b: str) -> Optional[Link]:
        data = self.graph.get_edge_data(name_a, name_b)
        return None if data is None else data["link"]

    def neighbors(self, name: str) -> list[str]:
        """Neighbour names in the order the graph iterates them."""
        return list(self.graph[name])

    def connected(self, source: str, target: str) -> bool:
        return nx.has_path(self.graph, source, target)

    def path_latency(self, source: str, target: str) -> float:
        return nx.dijkstra_path_length(self.graph, source, target, weight="latency")

    def shortest_path(self, source: str, target: str) -> list[str]:
        """Minimum latency, then fewest hops, then the smallest name sequence."""
        candidates = nx.all_shortest_paths(self.graph, source, target, weight="latency")
        return min(candidates, key=lambda path: (len(path), path))

    def diameter(self) -> int:
        """Hop-count diameter; 0 when disconnected or under two nodes."""
        if self.graph.number_of_nodes() < 2 or not nx.is_connected(self.graph):
            return 0
        return int(nx.diameter(self.graph))
