"""R10 fixture (bad): third-party imports in product code."""

import networkx as nx
import os, numpy.linalg
from scipy.sparse import csgraph


def diameter(graph):
    try:
        # A guarded import is still a second path nobody installs for.
        import yaml
    except ImportError:
        yaml = None
    return nx.diameter(graph), numpy.linalg, csgraph, os, yaml
