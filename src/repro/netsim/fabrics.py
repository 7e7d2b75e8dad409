"""The spine-leaf switching fabric builder.

The ident++ controller installs flow entries "along the path" of an
approved flow (§3.4), but a path is only worth installing when there
*is* one: the early workloads hung every host off a single enforcement
switch, so the path-install machinery degenerated to one hop.  These
builders produce the two standard multi-stage Clos fabrics so
enforcement can be exercised — and benchmarked — across real multi-hop
paths.  :func:`build_spine_leaf` builds a two-stage leaf-spine fabric:
every leaf uplinks to every spine, hosts attach to leaves, and any
leaf-to-leaf flow crosses exactly three switches (leaf → spine → leaf).

The builder is deliberately agnostic about what a "switch" is: it
takes a ``switch_factory(name) -> Node`` callable, so :mod:`repro.netsim`
stays below :mod:`repro.openflow` in the dependency order and tests can
build fabrics out of plain nodes.  Pass an existing :class:`Topology` to
grow a fabric inside a network that already owns its topology (what
:meth:`repro.core.network.IdentPPNetwork.add_spine_leaf_fabric` does).

Equal-cost multipath is resolved by :meth:`Topology.shortest_path`'s
deterministic tie-break (lexicographically smallest node-name sequence),
so a given flow always maps to the same spine — reproducible
install sets, at the price of not load-balancing the fabric links.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.exceptions import TopologyError
from repro.netsim.links import DEFAULT_BANDWIDTH, DEFAULT_LATENCY
from repro.netsim.nodes import Node
from repro.netsim.topology import Topology


@dataclass
class SpineLeafFabric:
    """A built spine-leaf fabric: the topology plus stage membership."""

    topology: Topology
    spines: list[Node]
    leaves: list[Node]

    def switches(self) -> list[Node]:
        """Return every fabric switch, spines first then leaves."""
        return [*self.spines, *self.leaves]

    def describe(self) -> dict[str, object]:
        """Return the fabric's shape (used in reports and examples)."""
        return {
            "kind": "spine-leaf",
            "spines": [node.name for node in self.spines],
            "leaves": [node.name for node in self.leaves],
            "links": len(self.spines) * len(self.leaves),
        }


def build_spine_leaf(
    switch_factory: Callable[[str], Node],
    *,
    spines: int = 2,
    leaves: int = 4,
    topology: Optional[Topology] = None,
    prefix: str = "fabric",
    name: str = "spine-leaf",
    latency: float = DEFAULT_LATENCY,
    bandwidth: Optional[float] = DEFAULT_BANDWIDTH,
) -> SpineLeafFabric:
    """Build a spine-leaf fabric: every leaf uplinks to every spine.

    Args:
        switch_factory: Called once per switch with the node name;
            returns the (not yet attached) switch node.
        spines: Number of spine switches (≥ 1).
        leaves: Number of leaf switches (≥ 2 — one leaf is no fabric).
        topology: Grow the fabric inside this topology instead of
            creating a fresh one.
        prefix: Node-name prefix (``{prefix}-spine0``, ``{prefix}-leaf0``).
        name: Name of the topology when one is created here.
        latency / bandwidth: Applied to every leaf↔spine link.
    """
    if spines < 1:
        raise TopologyError(f"a spine-leaf fabric needs at least 1 spine (got {spines})")
    if leaves < 2:
        raise TopologyError(f"a spine-leaf fabric needs at least 2 leaves (got {leaves})")
    topo = topology if topology is not None else Topology(name=name)
    spine_nodes = [
        topo.add_node(switch_factory(f"{prefix}-spine{index}")) for index in range(spines)
    ]
    leaf_nodes = [
        topo.add_node(switch_factory(f"{prefix}-leaf{index}")) for index in range(leaves)
    ]
    for leaf in leaf_nodes:
        for spine in spine_nodes:
            topo.add_link(leaf, spine, latency=latency, bandwidth=bandwidth)
    return SpineLeafFabric(topology=topo, spines=spine_nodes, leaves=leaf_nodes)
