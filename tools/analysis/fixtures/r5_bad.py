"""R5 fixture (bad): mutable defaults and anonymous (unregistered) counters."""

from repro.netsim.statistics import Counter


def collect(samples=[]):
    samples.append(1)
    return samples


def configure(overrides={}, tags=set()):
    return overrides, tags


def tally(events, seen=list()):
    seen.extend(events)
    return seen


def make_counter():
    # Anonymous counter: nothing it prints says what it tallies.
    return Counter()


# --- dataclass mutable-default misuse (the Experiment-exemplar trap) ---

from dataclasses import dataclass, field


@dataclass
class BadExperiment:
    # A bare mutable class default: one list shared by every instance.
    scenarios_list: list = []
    # default= evaluates the container once at class-definition time.
    tags: dict = field(default=dict())
    # default_factory wants the callable, not the result of calling it:
    # list() here builds ONE list that every instance then shares.
    repeats: list = field(default_factory=list())
