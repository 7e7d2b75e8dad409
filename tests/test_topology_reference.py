"""``Topology``'s own adjacency against the networkx graph it replaced.

``tests/reference_topology.py`` is the graph the topology used to
mirror itself into.  The state machine below applies the same
``add_node`` / ``add_link`` / ``remove_link`` sequence to both — small
graphs, latencies drawn from a few exactly representable values so that
equal-cost paths are the normal case — and requires, after every step,
the same links, neighbour order, connectivity, path latency, shortest
path (minimum latency, then fewest hops, then smallest name sequence)
and diameter, with the mutation epoch advancing on every change and on
nothing else.  Skips as a whole when networkx is not installed.
"""

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.exceptions import TopologyError
from repro.netsim.nodes import Node
from repro.netsim.topology import Topology
from tests.reference_topology import ReferenceTopology

# "n10" sorts between "n1" and "n2": a numeric tie-break would show.
_NAMES = ["n1", "n10", "n2", "n3", "a", "b", "m", "z"]
# Sums of these are exact, so "equal latency" means the same to both sides.
_latencies = st.sampled_from([0.0, 0.25, 0.25, 0.5, 0.5, 1.0])
_picks = st.integers(min_value=0, max_value=63)


class TopologyDifferential(RuleBasedStateMachine):
    """Drive the topology and the networkx oracle with the same mutations."""

    @initialize(order=st.permutations(_NAMES), start=st.integers(min_value=0, max_value=4))
    def build(self, order, start):
        self.topology = Topology("differential")
        self.reference = ReferenceTopology()
        self.unused = list(order)
        self.names = []
        for _ in range(start):
            self.add_node()

    def mutate(self, call):
        """Run a mutation on the topology; the epoch moves iff it took effect."""
        before = self.topology.mutation_epoch
        try:
            result = call()
        except TopologyError:
            assert self.topology.mutation_epoch == before
            return None
        assert self.topology.mutation_epoch > before
        return result

    @precondition(lambda self: self.unused)
    @rule()
    def add_node(self):
        name = self.unused.pop()
        self.names.append(name)
        self.mutate(lambda: self.topology.add_node(Node(name)))
        self.reference.add_node(name)

    @precondition(lambda self: len(self.names) >= 2)
    @rule(pick_a=_picks, pick_b=_picks, latency=_latencies)
    def add_link(self, pick_a, pick_b, latency):
        name_a = self.names[pick_a % len(self.names)]
        name_b = self.names[pick_b % len(self.names)]
        refused = name_a == name_b or self.reference.link_between(name_a, name_b) is not None
        ports = [self.topology.node(name).port_count() for name in (name_a, name_b)]
        link = self.mutate(lambda: self.topology.add_link(name_a, name_b, latency=latency))
        assert (link is None) == refused
        if refused:
            # Refused before a port was allocated on either side.
            assert ports == [self.topology.node(name).port_count() for name in (name_a, name_b)]
        else:
            self.reference.add_link(name_a, name_b, link)

    @precondition(lambda self: len(self.names) >= 2)
    @rule(pick_a=_picks, pick_b=_picks)
    def remove_link(self, pick_a, pick_b):
        name_a = self.names[pick_a % len(self.names)]
        name_b = self.names[pick_b % len(self.names)]
        expected = self.reference.link_between(name_a, name_b)
        removed = self.mutate(lambda: self.topology.remove_link(name_a, name_b))
        assert removed is expected
        if expected is not None:
            self.reference.remove_link(name_a, name_b)

    @precondition(lambda self: self.topology.link_count() > 0)
    @rule(pick=_picks)
    def remove_existing_link(self, pick):
        # A uniformly drawn pair is rarely adjacent on a sparse graph.
        links = self.topology.links()
        ends = [port.node.name for port in links[pick % len(links)].endpoints()]
        self.remove_link(self.names.index(ends[0]), self.names.index(ends[1]))

    @invariant()
    def same_answers(self):
        topology, reference = self.topology, self.reference
        assert topology.link_count() == reference.graph.number_of_edges()
        assert topology.describe()["diameter"] == reference.diameter()
        for source in self.names:
            assert list(topology._adjacency[source]) == reference.neighbors(source)
            for target in self.names:
                assert topology.link_between(source, target) is reference.link_between(source, target)
                connected = reference.connected(source, target)
                assert topology.connected(source, target) == connected
                if not connected:
                    with pytest.raises(TopologyError):
                        topology.path_latency(source, target)
                    continue
                assert topology.path_latency(source, target) == reference.path_latency(source, target)
                path = [node.name for node in topology.shortest_path(source, target)]
                assert path == reference.shortest_path(source, target)


TopologyDifferential.TestCase.settings = settings(
    max_examples=20, stateful_step_count=20, deadline=None
)
TestTopologyDifferential = TopologyDifferential.TestCase
