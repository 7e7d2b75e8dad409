"""R12 fixture (bad): imports the module never reads."""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Callable

if TYPE_CHECKING:
    from repro.netsim.links import Link


@dataclass
class Probe:
    # `field`, `Callable`, `os` and `Link` were used by code that has
    # since moved: nothing here reads them.
    name: str
