"""R10 fixture (bad): third-party packages, and rows the fixtures' row does not list."""

import networkx as nx
import os, numpy.linalg
from scipy.sparse import csgraph
from typing import TYPE_CHECKING

from perf.harness import run_repeat

if TYPE_CHECKING:
    from repro.core.controller import IdentPPController


def diameter(graph):
    try:
        # A guarded import is still a second path nobody installs for.
        import yaml
    except ImportError:
        yaml = None
    # A local import is an edge of the same graph.
    from repro.workloads import soak
    return nx.diameter(graph), numpy.linalg, csgraph, os, yaml, soak, run_repeat


def owner(controller: "IdentPPController") -> str:
    return controller.name
