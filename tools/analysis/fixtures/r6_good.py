"""R6 fixture (good): every histogram and rate counter carries a name."""

from repro.netsim.statistics import Histogram, RateCounter


def make_latency_histogram():
    return Histogram("decision_latency")


def make_rate():
    return RateCounter("controller.punt_rate", 0.25)


def make_keyword_named():
    return Histogram(name="query_latency"), RateCounter(name="hits_per_sec")
