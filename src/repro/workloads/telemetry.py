"""Telemetry workloads: detect-and-quarantine, and the overhead budget.

The paper's promise is a network that *reacts* to endpoint compromise;
before the telemetry plane the conficker scenario only contained the
worm because the workload scripted ``mark_compromised``.  These two
soaks prove the plane closes the loop on its own and costs almost
nothing, run by ``make soak_telemetry`` and recorded in
``BENCH_results.json``:

* :func:`conficker_detection` — the detection claim.  A cluster
  cell serves a steady clean HTTP workload (the baseline the detectors
  learn), then two infected hosts start scanning every other host on
  port 445.  Nothing tells the control plane: the punt-rate spike
  detector fires, the responder attributes the burst through the audit
  log, and the scanners are quarantined cluster-wide.  Gates: every
  infected host quarantined with exactly one alert each, zero clean
  hosts quarantined, detection inside half a second, and the datapath
  actually contained (the scanner's later traffic dies at its ingress
  switch while clean hosts still reach the server).  A control run of
  the identical cell *without* the outbreak must raise zero alerts.

* :func:`telemetry_overhead` — the cost claim.  The cluster scale
  bench's 4-shard cell runs the identical flow burst with and without
  the sampling plane; the sampling cost must stay under
  :data:`TELEMETRY_OVERHEAD_CEILING` percent (min-of-N runs to shave
  scheduler noise).

Run standalone::

    python -m repro.workloads.soak telemetry
"""

from __future__ import annotations

import gc
import time

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec
from repro.workloads.cluster import CLIENTS, CLUSTER_POLICY, scale_cell
from repro.workloads.soak import Soak, edge_core_net, open_web_flows, ratio, timed

#: Acceptance ceiling for telemetry overhead on the cluster scale cell
#: (percent of the run spent sampling).
TELEMETRY_OVERHEAD_CEILING = 5.0

#: Acceptance ceiling for outbreak detection latency (virtual seconds
#: from first scan packet to the last quarantine alert).
DETECTION_LATENCY_CEILING = 0.5

#: The production default sampling interval — the overhead gate
#: measures the shipped configuration, not a stress interval.
TELEMETRY_INTERVAL = 0.05

# ----------------------------------------------------------------------
# Detection bench
# ----------------------------------------------------------------------

DETECTION_SHARDS = 2
INFECTED_IPS = ("192.168.0.200", "192.168.0.201")
#: Clean HTTP flows per second during warmup — the baseline the
#: EWMA detectors learn before the outbreak.
WARMUP_INTERVAL = 0.05
WARMUP_DURATION = 2.0
#: Scan rounds per infected host and spacing between probes; each
#: round sprays every other host on port 445.
SCAN_ROUNDS = 2
SCAN_SPACING = 0.004
SCAN_ROUND_GAP = 0.12
FANOUT_THRESHOLD = 8


def _detection_run(name: str, clients: int, settle: float, *, outbreak: bool):
    """Run warmup traffic (and optionally the outbreak) on a fresh cell to
    completion; return the network and its telemetry plane."""
    net = edge_core_net(
        name,
        clients=clients,
        shards=DETECTION_SHARDS,
        policy=CLUSTER_POLICY,
        # Cached queries, serial eval.
        config=ControllerConfig(serialize_decisions=True, query_cache_ttl=5.0),
    )
    # Infected hosts look exactly like clients until they scan:
    # same daemon, same user database, same applications.  The
    # plane must tell them apart from behaviour, not labels.
    for index, ip in enumerate(INFECTED_IPS):
        net.add_host(
            HostSpec(
                name=f"infected{index}",
                ip=ip,
                users={"alice": ("users", "staff"), "victim": ("users",)},
            ),
            switch="sw-edge",
        )
    plane = net.enable_telemetry(
        interval=TELEMETRY_INTERVAL, fanout_threshold=FANOUT_THRESHOLD
    )
    plane.start()

    sim = net.topology.sim
    total_ticks = int((WARMUP_DURATION + settle) / WARMUP_INTERVAL)
    state = {"ticks": 0}

    def clean_tick() -> bool:
        state["ticks"] += 1
        open_web_flows(net, 1, clients, first=state["ticks"])
        return state["ticks"] < total_ticks

    sim.schedule_repeating(WARMUP_INTERVAL, clean_tick, label="clean-traffic")

    if outbreak:
        all_ips = [net.host(f"client{index}").ip for index in range(clients)]
        all_ips += [*INFECTED_IPS, net.host("server").ip]

        def start_outbreak() -> None:
            for index, own_ip in enumerate(INFECTED_IPS):
                scanner = f"infected{index}"
                targets = [ip for ip in all_ips if ip != own_ip]
                for round_no in range(SCAN_ROUNDS):
                    for pos, target in enumerate(targets):
                        sim.schedule(
                            round_no * SCAN_ROUND_GAP + pos * SCAN_SPACING,
                            lambda s=scanner, d=target: net.host(s).open_flow(
                                "conficker", "victim", d, 445
                            ),
                            label="scan",
                        )

        sim.schedule_at(WARMUP_DURATION, start_outbreak, label="outbreak")

    net.run(WARMUP_DURATION + settle)
    net.telemetry.stop()
    net.run()  # drain the queue completely
    return net, plane


@timed
def conficker_detection(clients: int = CLIENTS, settle: float = 2.0) -> dict:
    """Detect and quarantine a scanning worm by telemetry alone (no scripted compromise)."""
    net, plane = _detection_run("telemetry-conficker", clients, settle, outbreak=True)

    quarantine_alerts: dict[str, int] = {}
    detection_time = 0.0
    for alert in plane.quarantine_alerts():
        quarantine_alerts[alert.source] = quarantine_alerts.get(alert.source, 0) + 1
        detection_time = max(detection_time, alert.time)
    # Virtual seconds from outbreak start to the last quarantine.
    detection_latency = max(0.0, detection_time - WARMUP_DURATION)
    quarantined = sorted(plane.quarantined)

    # Containment: the scanner's fresh traffic must die in the
    # datapath while a clean client still reaches the server.
    contained = not net.send_flow(
        "infected0", "http", "alice", "192.168.1.1", 80
    ).delivered
    unaffected = net.send_flow(
        "client0", "http", "alice", "192.168.1.1", 80
    ).delivered

    # Control run (no outbreak: must stay silent).
    _, control_plane = _detection_run("telemetry-clean", clients, settle, outbreak=False)
    clean_run_alerts = len(control_plane.alerts())

    violations = []
    missed = set(INFECTED_IPS) - set(quarantined)
    if missed:
        violations.append(f"infected hosts never quarantined: {sorted(missed)}")
    false_positives = set(quarantined) - set(INFECTED_IPS)
    if false_positives:
        violations.append(f"clean hosts quarantined: {sorted(false_positives)}")
    wrong_counts = {ip: count for ip, count in quarantine_alerts.items() if count != 1}
    if wrong_counts:
        violations.append(
            f"expected exactly one quarantine alert per host, got {wrong_counts}"
        )
    if detection_latency > DETECTION_LATENCY_CEILING:
        violations.append(
            f"detection took {detection_latency:.3f}s "
            f"(ceiling {DETECTION_LATENCY_CEILING:g}s)"
        )
    if clean_run_alerts or control_plane.quarantined:
        violations.append(
            f"control run without outbreak raised {clean_run_alerts} "
            f"alerts / {len(control_plane.quarantined)} quarantines"
        )
    if not contained:
        violations.append("a quarantined scanner still reaches the server")
    if not unaffected:
        violations.append("quarantine broke a clean host's traffic")
    return {
        "infected": list(INFECTED_IPS),
        "quarantined": quarantined,
        "quarantine_alerts": dict(sorted(quarantine_alerts.items())),
        "spike_alerts": len(plane.alerts("spike")),
        "detection_latency_vsec": round(detection_latency, 4),
        "clean_run_alerts": clean_run_alerts,
        "infected_contained": contained,
        "clean_unaffected": unaffected,
        "telemetry_samples": plane.pipeline.samples,
        "violations": violations,
    }


# ----------------------------------------------------------------------
# Overhead bench
# ----------------------------------------------------------------------

OVERHEAD_SHARDS = 4
OVERHEAD_FLOWS = 800
OVERHEAD_HORIZON = 1.0
OVERHEAD_REPEATS = 3


def _overhead_run(*, telemetry: bool) -> tuple[float, float, int, int]:
    """One cell run; returns (wall, sampling wall, decisions, samples)."""
    net = scale_cell("telemetry-overhead", OVERHEAD_SHARDS)
    plane = None
    sampling = [0.0]
    if telemetry:
        # Detection stays on (that is the production configuration);
        # only auto-quarantine is disarmed so an aggressive burst
        # cannot rewrite the workload mid-measurement.
        plane = net.enable_telemetry(interval=TELEMETRY_INTERVAL, auto_quarantine=False)
        # Time every sweep from out here: the plane itself must stay
        # deterministic (lint R1 bans wall-clock reads in src/repro
        # outside workloads), so the bench wraps pipeline.sample —
        # the sampler tick resolves it per call, so this sees every
        # sweep.
        inner = plane.pipeline.sample

        def timed_sample(now: float) -> None:
            begin = time.perf_counter()
            inner(now)
            sampling[0] += time.perf_counter() - begin

        plane.pipeline.sample = timed_sample  # type: ignore[method-assign]
    # Collect the previous run's (and this build's) garbage now, as the
    # perf harness does before its timed region: a collector pass
    # landing inside one timed pipeline.sample reads as a 20% overhead.
    gc.collect()
    start = time.perf_counter()
    if plane is not None:
        plane.start()
    open_web_flows(net, OVERHEAD_FLOWS, CLIENTS)
    net.run(OVERHEAD_HORIZON)
    if plane is not None:
        plane.stop()
    net.run()  # drain
    elapsed = time.perf_counter() - start
    samples = plane.pipeline.samples if plane is not None else 0
    return elapsed, sampling[0], net.cluster.decided_total(), samples


@timed
def telemetry_overhead() -> dict:
    """Measure what the sampling plane costs on the cluster scale bench's 4-shard cell.

    ``overhead_pct`` — the gated number — is the CPU the plane's sweeps
    consumed as a percentage of the rest of the run, measured *inside*
    one run by timing every ``pipeline.sample`` call.  An A/B delta of
    two separate runs would be the classic definition, but on this cell
    the true sampling cost (~0.2 %) is an order of magnitude below
    run-to-run scheduler and allocator noise (±5 %), so a gate on the
    delta would flap; the in-run measurement is reported alongside the
    informational ``ab_delta_pct`` instead.
    """
    # Both variants OVERHEAD_REPEATS times, interleaved; keep the minima.
    baseline = sampled = float("inf")
    sampling = 0.0
    decided_base = decided_sampled = samples = 0
    for _ in range(OVERHEAD_REPEATS):
        elapsed, _, count, _ = _overhead_run(telemetry=False)
        if elapsed < baseline:
            baseline, decided_base = elapsed, count
        elapsed, sampled_s, count, sampled_n = _overhead_run(telemetry=True)
        if elapsed < sampled:
            sampled, sampling = elapsed, sampled_s
            decided_sampled, samples = count, sampled_n

    # CPU spent sampling, percent of the non-sampling run cost.
    useful = sampled - sampling
    overhead_pct = round(sampling / useful * 100.0 if useful > 0 else 0.0, 2)
    violations = []
    if decided_base != decided_sampled:
        violations.append(
            "sampling changed the workload: "
            f"{decided_base} vs {decided_sampled} decisions"
        )
    if overhead_pct >= TELEMETRY_OVERHEAD_CEILING:
        violations.append(
            f"telemetry overhead {overhead_pct:.2f}% breaches the "
            f"{TELEMETRY_OVERHEAD_CEILING:g}% ceiling"
        )
    return {
        "flows": OVERHEAD_FLOWS,
        "repeats": OVERHEAD_REPEATS,
        "baseline_seconds": round(baseline, 4),
        "telemetry_seconds": round(sampled, 4),
        "sampling_seconds": round(sampling, 4),
        "overhead_pct": overhead_pct,
        # Informational: wall-clock delta of the two runs (noisy).
        "ab_delta_pct": round(ratio(sampled - baseline, baseline) * 100.0, 2),
        "samples": samples,
        "decided": decided_base,
        "violations": violations,
    }


#: Every check either soak makes is a violation it lists, so the table
#: needs no gate row.
SOAK = Soak(
    steps=(
        ("telemetry_conficker_detection", conficker_detection),
        ("telemetry_overhead", telemetry_overhead),
    ),
    gates=(),
    ok=(
        "telemetry soak ok: outbreak detected and quarantined by telemetry "
        "alone, sampling within the overhead budget"
    ),
)
