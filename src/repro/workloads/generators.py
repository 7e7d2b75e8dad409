"""Deterministic traffic generators.

The benchmarks need repeatable flow mixes: a population of candidate
flows (who talks to whom, with which application) and a draw sequence
with either uniform or Zipf popularity (flow locality is what makes the
switch flow-table cache effective, experiment E11).  Everything is
seeded so two runs of a benchmark see the same traffic.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator, Optional, Sequence

from repro.exceptions import WorkloadError
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Address

#: Where a generator's source ports start, and where they wrap back to.
EPHEMERAL_BASE = 40000


@dataclass(frozen=True)
class FlowTemplate:
    """One candidate flow in the population: who talks to whom, and how."""

    src_host: str
    dst_host: str
    src_ip: IPv4Address
    dst_ip: IPv4Address
    dst_port: int
    app_name: str
    user_name: str

    def flow(self, src_port: int) -> FlowSpec:
        """Materialise the template into a concrete TCP 5-tuple."""
        return FlowSpec(
            src_ip=self.src_ip,
            dst_ip=self.dst_ip,
            proto="tcp",
            src_port=src_port,
            dst_port=self.dst_port,
        )


def zipf_weights(count: int, skew: float = 1.0) -> list[float]:
    """Return normalised Zipf(``skew``) weights for ``count`` items."""
    if count <= 0:
        raise WorkloadError("zipf_weights needs a positive count")
    raw = [1.0 / ((rank + 1) ** skew) for rank in range(count)]
    total = sum(raw)
    return [value / total for value in raw]


class FlowGenerator:
    """Draws flows from a template population, uniformly or Zipf-skewed."""

    def __init__(
        self,
        templates: Sequence[FlowTemplate],
        *,
        seed: int = 0,
        zipf_skew: Optional[float] = None,
        rng: Optional[random.Random] = None,
    ) -> None:
        if not templates:
            raise WorkloadError("FlowGenerator needs at least one template")
        self.templates = list(templates)
        #: The seed behind every draw this generator makes, surfaced so
        #: benchmark reports can record it next to their results (a
        #: BENCH_results.json entry without its seed is unreproducible).
        #: ``None`` when an externally-seeded ``rng`` was injected.
        self.seed: Optional[int] = None if rng is not None else seed
        self._rng = rng if rng is not None else random.Random(seed)
        self._weights = zipf_weights(len(self.templates), zipf_skew) if zipf_skew else None
        self._next_port = EPHEMERAL_BASE

    def _allocate_port(self) -> int:
        self._next_port += 1
        if self._next_port >= 65000:
            self._next_port = EPHEMERAL_BASE
        return self._next_port

    def draw_template(self) -> FlowTemplate:
        """Pick one template according to the configured popularity."""
        if self._weights is None:
            return self._rng.choice(self.templates)
        return self._rng.choices(self.templates, weights=self._weights, k=1)[0]

    def draw_flow(self) -> tuple[FlowTemplate, FlowSpec]:
        """Draw a template and materialise a flow from it on a fresh source port."""
        template = self.draw_template()
        return template, template.flow(self._allocate_port())

    def draw_batch(self, count: int) -> list[tuple[FlowTemplate, FlowSpec]]:
        """Return the ``count`` draws of :meth:`sequence` as a list, each a new connection."""
        return list(self.sequence(count))

    def sequence(self, count: int, *, new_connection_probability: float = 1.0) -> Iterator[tuple[FlowTemplate, FlowSpec]]:
        """Yield ``count`` draws; with probability ``1 - p`` a draw reuses the previous port.

        Low ``new_connection_probability`` produces packet trains inside
        established flows, which is what makes flow-table caching pay off.
        """
        last: dict[FlowTemplate, FlowSpec] = {}
        for _ in range(count):
            template = self.draw_template()
            if template in last and self._rng.random() > new_connection_probability:
                yield template, last[template]
                continue
            flow = template.flow(self._allocate_port())
            last[template] = flow
            yield template, flow
