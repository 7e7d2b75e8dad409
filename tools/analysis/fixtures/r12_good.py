"""R12 fixture (good): every import is read, re-exported or a future import."""

from __future__ import annotations

import os.path
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from repro.exceptions import TopologyError

if TYPE_CHECKING:
    from repro.netsim.links import Link


@dataclass
class Probe:
    name: str
    tags: list = field(default_factory=list)
    # A quoted forward reference reads the name too.
    link: Optional["Link"] = None

    def where(self) -> str:
        return os.path.join("probes", self.name)


__all__ = ["Probe", "TopologyError"]
