"""R5 fixture (good): None-sentinel defaults and registered counters."""

from typing import Optional

from repro.netsim.statistics import Counter, RateCounter


def collect(samples: Optional[list] = None):
    if samples is None:
        samples = []
    samples.append(1)
    return samples


def configure(overrides: Optional[dict] = None, tags: Optional[set] = None):
    return overrides or {}, tags or set()


def make_counter():
    return Counter(name="queries_served"), RateCounter("controller.punt_rate", 0.25)


# --- dataclass defaults done right: factories, not instances ---

from dataclasses import dataclass, field


@dataclass
class GoodExperiment:
    name: str = "baseline"
    scenarios_list: list = field(default_factory=list)
    tags: dict = field(default_factory=dict)
    keys: tuple = field(default_factory=lambda: ("a", "b"))
