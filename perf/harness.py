"""One repeat of one workload: set-up, timed segments, drain, checks.

Two clocks, named everywhere.  *Host time* is what the python simulator
costs (``*_s``, ``*_us``, ``*_wall_*``, ``peak_rss_mb``); *virtual time*
is what the modelled ident++ network would take (``*_vms``), and it is
deterministic for a seed.
"""

from __future__ import annotations

import dataclasses
import gc
import resource
import time
from typing import Optional

from repro.identpp.flowspec import FlowSpec
from repro.workloads.invariants import (
    check_bounded_state,
    check_zero_loss,
    network_audit_records,
    network_flow_state,
)

from perf.oracle import percentile
from perf.tracing import Tracer
from perf.workloads import Size, Workload


def _sum_stats(dicts) -> dict[str, float]:
    total: dict[str, float] = {}
    for stats in dicts:
        for key, value in stats.items():
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                total[key] = total.get(key, 0.0) + value
    return total


def read_counters(workload: Workload) -> dict[str, float]:
    """Read every layer's counters through its public accessor.

    Called at the timed region's boundaries only; rates and per-op
    figures are differences of two readings.
    """
    net = workload.net
    controllers = list(net.controllers.values())
    tables = _sum_stats(switch.flow_table.stats() for switch in net.switches.values())
    engine = _sum_stats(c.query_engine.stats() for c in controllers)
    cache = _sum_stats(c.cache.stats() for c in controllers)
    channels = [ch for c in controllers for ch in c.channels.values()]
    counters = {
        "events": float(net.topology.sim.events_processed),
        "punts": float(sum(s.punts.value for s in net.switches.values())),
        "table_lookups": tables["lookups"],
        "table_hits": tables["hits"],
        "table_expired": tables["expirations"],
        "channel_msgs": float(sum(
            ch.to_controller_messages.value + ch.to_switch_messages.value for ch in channels
        )),
        "cache_hits": cache["hits"],
        "cache_lookups": cache["hits"] + cache["misses"],
        "reclaimed": float(sum(c.lifecycle.total_reclaimed() for c in controllers)),
        "engine_lookups": engine["lookups"],
        "engine_hits": engine["hits"],
        "engine_resident_hits": engine["resident_hits"],
        "engine_coalesced": engine["coalesced"],
        "engine_invalidated": engine["invalidated_entries"],
        "engine_deltas": engine["deltas_applied"],
        "daemon_answers": float(sum(d.queries_answered.value for d in net.daemons.values())),
        "pending_expired": float(sum(c.pending_expired for c in controllers)),
        "policy_errors": float(sum(c.policy_errors for c in controllers)),
        "telemetry_samples": float(net.telemetry.pipeline.samples) if net.telemetry else 0.0,
    }
    # An evaluator rebuild zeroes these two; a workload that reloads
    # banks them before each reload (see HotIdentityReload.reload).
    policy = _sum_stats(c.policy.stats() for c in controllers)
    for key, banked in workload.policy_stats_seen.items():
        counters[f"policy_{key}"] = policy[key] + banked
    return counters


def _check_invariants(workload: Workload, peaks: dict[str, float]) -> list:
    """Run the shared checkers of ``repro.workloads.invariants`` after the drain.

    ``check_zero_loss`` is ``check_fail_closed`` (every punted flow reached
    a verdict, nothing left pending or buffered) plus "decided exactly
    once", so the fail-closed invariant is not evaluated a second time.
    """
    net = workload.net
    flows = [FlowSpec(*key) for key in workload.ledger.punted_flows()]
    records = network_audit_records(net)
    state = network_flow_state(net)
    drained = {"pending": state["pending"], "buffered": state["buffered"]}
    return [
        check_zero_loss(flows, records, **drained),
        check_bounded_state(peaks, workload.state_caps()),
    ]


def run_repeat(
    workload_cls: type[Workload],
    seed: int,
    size: Size,
    *,
    setups: int = 1,
    tracer: Optional[Tracer] = None,
) -> dict:
    """Run one repeat and return everything it measured, JSON-ready.

    ``setups`` builds and warms the network that many times (each a
    ``setup_s`` sample) and measures on the last one.  With a ``tracer``
    the caller must already have installed its shims; the per-layer
    figures cover the timed region only.
    """
    clock = time.perf_counter
    setup_s = []
    workload = None
    for _ in range(setups):
        if workload is not None:
            workload.finish()
            workload = None
            gc.collect()
        start = clock()
        workload = workload_cls(seed, size)
        if tracer is not None:
            workload.sim.enable_sanitizer()
        workload.force_compile()
        workload.warm_up()
        setup_s.append(clock() - start)

    net, ledger = workload.net, workload.ledger
    ledger.harvest(net)
    peaks = dict.fromkeys(workload.state_caps(), 0.0)
    gc.collect()

    ledger.timed = True
    before = read_counters(workload)
    if tracer is not None:
        tracer.begin_timed()
    segment_s, segment_ops = [], []
    duration = size.waves_per_segment * workload.wave_interval
    for _ in range(size.segments):
        ops_before = ledger.timed_ops
        start = clock()
        workload.schedule_waves(size.waves_per_segment)
        net.run(duration=duration)
        segment_s.append(clock() - start)
        ledger.harvest(net)
        # A wave's ops all land within its own slot (decisions take
        # milliseconds, slots are >= 1 vms of pure forwarding or 100 vms
        # of punts), so the ops generated in a segment are the ops it ran.
        segment_ops.append(ledger.timed_ops - ops_before)
        for key, value in network_flow_state(net).items():
            if key in peaks and value > peaks[key]:
                peaks[key] = float(value)
    if tracer is not None:
        tracer.end_timed()
    after = read_counters(workload)
    ledger.timed = False

    workload.finish()
    net.run()
    ledger.harvest(net)
    ledger.close()
    invariants = _check_invariants(workload, peaks)
    violations = [v for result in invariants for v in result.violations]

    latencies = sorted(ledger.latencies)
    controllers = list(net.controllers.values())
    setup_vms = sorted(
        sample for c in controllers for sample in c.flow_setup_latency.samples()
    )
    result = {
        "workload": workload_cls.name,
        "seed": seed,
        "size": dataclasses.asdict(size),
        "setup_s": setup_s,
        "segment_s": segment_s,
        "segment_ops": segment_ops,
        "timed_ops": ledger.timed_ops,
        "timed_wall_s": sum(segment_s),
        "attempted": ledger.attempted,
        "input_digest": ledger.input_digest(),
        "failed": ledger.failed + len(violations),
        "failures": ledger.failures + violations[:10],
        "latency_vms": {
            "p50": 1e3 * percentile(latencies, 50),
            "p99": 1e3 * percentile(latencies, 99),
            "count": len(latencies),
        },
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "counters": {key: after[key] - before[key] for key in after},
        "events_total": workload.sim.events_processed,
        "state_peaks": peaks,
        "serial_depth_peak": max(
            c.summary()["serial_queue"]["max_depth"] for c in controllers
        ),
        "controller_setup_vms_p50": 1e3 * percentile(setup_vms, 50),
        "cluster": {
            "failovers": net.cluster.failovers if net.cluster else 0,
            "repunted_flows": net.cluster.repunted_flows if net.cluster else 0,
        },
        "invariants": {r.name: r.passed for r in invariants},
    }
    if tracer is not None:
        sanitizer = workload.sim.sanitizer
        result["trace_hash"] = sanitizer.trace_hash
        result["sanitizer_reports"] = sanitizer.summary()["reports_by_kind"]
        result["trace"] = tracer.report()
    return result
