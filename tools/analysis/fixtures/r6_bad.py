"""R6 fixture (bad): anonymous histograms and rate counters."""

from repro.netsim import statistics
from repro.netsim.statistics import Histogram, RateCounter


def make_latency_histogram():
    # Anonymous histogram: its repr cannot say which latency it holds.
    return Histogram()


def make_rate():
    # Anonymous rate counter: the telemetry series it would back is
    # unnameable, so the probe can never be charted.
    return RateCounter()


def make_qualified():
    return statistics.Histogram()
