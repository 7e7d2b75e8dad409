"""R10 fixture (good): the standard library, the repo's own packages, relative imports."""

from __future__ import annotations

import heapq
import os.path
from collections import deque
from typing import TYPE_CHECKING

from repro.exceptions import TopologyError
from tools.analysis.core import Violation

from . import r9_good
from .r9_good import Channel

if TYPE_CHECKING:
    from repro.netsim.links import Link


def neighbours(adjacency: dict[str, dict[str, "Link"]], name: str) -> list[str]:
    # An adjacency dict needs no graph library to be iterated.
    return list(adjacency[name])


__all__ = ["heapq", "os", "deque", "TopologyError", "Violation", "r9_good", "Channel"]
