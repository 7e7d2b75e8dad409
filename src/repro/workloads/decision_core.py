"""Decision-core workloads: query overlap bench and async churn soak.

The async decision core (PR 6) claims that daemon latency should set a
flow's *setup latency* but not the controller's *throughput*: queries
for thousands of concurrent punts overlap in flight, and only the
policy-eval stage serializes.  Two soaks measure exactly that claim,
run by ``make soak_async`` and recorded in ``BENCH_results.json``:

* :func:`decision_overlap` — the overlap claim.  The same burst of
  query-heavy unique flows runs against both decision cores
  (``ControllerConfig.decision_core``) at 1x and 10x daemon processing
  delay.  Under the ``serial`` core the loop services one punt end to
  end — queries *and* eval — so decided-flows/vsec collapses almost
  linearly with daemon latency.  Under the ``async`` core the
  round-trips overlap and the makespan is dominated by the serialized
  eval stage, so throughput degrades by far less than 2x.

* :func:`async_churn_soak` — the boundedness claim.  Waves of unique
  flows — 77 000 punts, each decided, installed along the path and
  unwound — churn through one async-core controller, with data-path
  flow entries aging out underneath the lifecycle sweeper.  In-flight decision state (the continuation
  tasks parked between query dispatch and eval) must stay bounded by
  the arrival rate — a leaked continuation or an unretired task shows
  up as monotonic growth and fails the gate.

Run standalone::

    python -m repro.workloads.soak decision_core
"""

from __future__ import annotations

import gc
import operator

from repro.core.controller import ControllerConfig
from repro.core.network import IdentPPNetwork
from repro.workloads.soak import (
    Gate,
    Soak,
    decided,
    edge_core_net,
    open_web_flows,
    ratio,
    timed,
)

#: The decision-core workloads' policy: stateless web allow-list.
DECISION_POLICY = {
    "00-decision.control": (
        "block all\n"
        "pass from any to any port 80\n"
    ),
}

#: Acceptance ceiling: async decided-flows/vsec may degrade by at most
#: this factor when daemon processing delay is scaled 10x.
ASYNC_DEGRADATION_CEILING = 2.0

#: Acceptance floor: async over serial decided-flows/vsec at 10x
#: daemon processing delay.
OVERLAP_SPEEDUP_FLOOR = 5.0

#: The churn soak must decide at least this many punted flows.  The size
#: floor counts work done, not simulator events: what a punt costs in
#: events is a property of the code under test (and gated on its own).
SOAK_FLOW_FLOOR = 77_000

#: What one decided punt of the async soak may cost, end to end (punt,
#: both queries, eval, path install, expiry, unwind): simulator events,
#: and control-channel messages.  Counts, exact for a seed.  ~7.07
#: events: three link deliveries (client to edge, edge to core, core to
#: server), one arrival carrying both ident++ answers (8.07 while each
#: answer was its own event), one eval slot, and one FlowMod event per
#: switch on the path.  A wave's PacketIns, a sweep's FlowRemoveds and the
#: deletes they trigger each ride one event per channel direction, so they
#: add ~0.07 (11.06 while every message was an event of its own).  5.003
#: messages: PacketIn, two FlowMods, FlowRemoved, one delete, and a second
#: FlowRemoved for the first and last wave.  A step up is a whole event
#: or message per punt.
PUNT_EVENTS_CEILING = 8.0
PUNT_MSGS_CEILING = 5.1

#: Hosts opening flows, in both soaks.
CLIENTS = 8
#: Base daemon processing delay.  The bench fabric's links are short, so
#: this — the knob the overlap bench scales — dominates a query's cost.
PROCESSING_DELAY = 500e-6


def decision_net(name: str, config: ControllerConfig, processing_delay: float) -> IdentPPNetwork:
    """Return the bench fabric with every daemon answering in ``processing_delay``."""
    net = edge_core_net(name, clients=CLIENTS, config=config, policy=DECISION_POLICY)
    for daemon in net.daemons.values():
        daemon.processing_delay = processing_delay
    return net


# ----------------------------------------------------------------------
# Overlap bench
# ----------------------------------------------------------------------

OVERLAP_FLOWS = 600
#: Daemon processing-delay scale factors to compare.
LATENCY_SCALES = (1.0, 10.0)
#: Serialized policy-eval occupancy — the stage that stays serial
#: under the async core, so it (not the daemon) sets the ceiling.
OVERLAP_EVAL_DELAY = 200e-6


@timed
def decision_overlap() -> dict:
    """Run both decision cores over the identical burst at 1x and 10x daemon latency."""
    per_vsec: dict[str, dict[str, float]] = {}
    makespan: dict[str, dict[str, float]] = {}
    count: dict[str, dict[str, int]] = {}
    for core in ("serial", "async"):
        per_vsec[core], makespan[core], count[core] = {}, {}, {}
        for scale in LATENCY_SCALES:
            key = f"{scale:g}x"
            net = decision_net(
                f"decision-overlap-{core}-{key}",
                ControllerConfig(
                    decision_core=core,
                    serialize_decisions=True,
                    nonblocking_inbox=True,
                    policy_eval_delay=OVERLAP_EVAL_DELAY,
                    # The serial core at 10x daemon latency queues flows for
                    # several virtual seconds; the deadline must not fire
                    # while they wait their turn.
                    pending_deadline=120.0,
                ),
                PROCESSING_DELAY * scale,
            )
            open_web_flows(net, OVERLAP_FLOWS, CLIENTS)
            net.run()
            count[core][key], makespan[core][key] = decided(net.controller.audit.records())
            per_vsec[core][key] = ratio(count[core][key], makespan[core][key])
    base, top = f"{LATENCY_SCALES[0]:g}x", f"{LATENCY_SCALES[-1]:g}x"
    return {
        "flows": OVERLAP_FLOWS,
        "decided_flows_per_vsec": {
            core: {key: round(value, 1) for key, value in by_scale.items()}
            for core, by_scale in per_vsec.items()
        },
        "makespan_vsec": {
            core: {key: round(value, 6) for key, value in by_scale.items()}
            for core, by_scale in makespan.items()
        },
        "decided": count,
        # Throughput at base scale over throughput at the top scale.
        "async_degradation": round(ratio(per_vsec["async"][base], per_vsec["async"][top]), 3),
        "serial_degradation": round(ratio(per_vsec["serial"][base], per_vsec["serial"][top]), 3),
        # Async over serial decided-flows/vsec at the top latency scale.
        "overlap_speedup": round(ratio(per_vsec["async"][top], per_vsec["serial"][top]), 2),
        # Headline ops/s: async decided-flows per simulated second at the
        # 10x daemon-latency scale (the overlap payoff).
        "ops_per_sec": round(per_vsec["async"][top], 1),
    }


# ----------------------------------------------------------------------
# Async churn soak
# ----------------------------------------------------------------------

WAVES = 700
WAVE_SIZE = 110
WAVE_INTERVAL = 0.1
SOAK_EVAL_DELAY = 20e-6
#: Short datapath lifetimes + a running sweeper keep the switch flow
#: tables bounded under churn (the soak is about *controller* state,
#: not table capacity).
FLOW_TIMEOUT = 0.05
LIFECYCLE_INTERVAL = 0.05
#: The waves at whose start the soak counts the objects the cyclic
#: garbage collector tracks, after a collect: a stretch mid-run where
#: transient state is steady, so the growth is what decided flows left.
GC_COUNT_WAVES = (WAVES // 2, WAVES // 2 + 10)
#: What one decided punt leaves for the collector to walk, in tracked
#: objects; a ceiling that may only tighten.  ~6.98: the decision cache's
#: entry, flow key and index objects (they live for ``decision_ttl``,
#: longer than the stretch), the packet the server keeps as delivered,
#: and the source end's one-value view in the audit log.  7.98 while the
#: audit kept a record object per decision beside a full view.
GC_TRACKED_CEILING = 7.0


@timed
def async_churn_soak() -> dict:
    """Churn 77 000 flows through one async-core controller, watching in-flight state."""
    net = decision_net(
        "decision-async-soak",
        ControllerConfig(
            decision_core="async",
            serialize_decisions=True,
            nonblocking_inbox=True,
            policy_eval_delay=SOAK_EVAL_DELAY,
            idle_timeout=FLOW_TIMEOUT,
            hard_timeout=FLOW_TIMEOUT,
            lifecycle_interval=LIFECYCLE_INTERVAL,
        ),
        PROCESSING_DELAY,
    )
    controller = net.controller
    sim = net.topology.sim
    peak = {"inflight": 0, "serial_depth": 0}

    tracked = []

    def inject(wave: int) -> None:
        if wave in GC_COUNT_WAVES:
            gc.collect()
            audited = controller.audit.summary()
            tracked.append((len(gc.get_objects()), audited["total"] - audited["cached"]))
        spawned = open_web_flows(net, WAVE_SIZE, CLIENTS, first=wave)
        # Probe at the instant after the wave's punts all arrived —
        # the high-water mark for in-flight pipeline state.
        sim.schedule(2 * PROCESSING_DELAY, probe)
        # Short-lived flows: the wave's sessions end two waves later,
        # well after their decisions landed.  Without the reap the
        # host socket tables grow run-long and the daemons' lsof-style
        # flow lookup turns quadratic — churn means turnover.
        sim.schedule(2 * WAVE_INTERVAL, reap, spawned)

    def reap(spawned: list) -> None:
        for client, _, socket, process in spawned:
            client.sockets.close(socket)
            client.processes.kill(process.pid)

    def probe() -> None:
        peak["inflight"] = max(peak["inflight"], controller.inflight_count())
        peak["serial_depth"] = max(peak["serial_depth"], controller.serial_depth())

    for wave in range(WAVES):
        sim.schedule(wave * WAVE_INTERVAL, inject, wave)
    net.run()
    flows = WAVES * WAVE_SIZE
    count, _ = decided(controller.audit.records())
    final_inflight = controller.inflight_count()
    pending_expired = controller.pending_expired

    violations = []
    if count < SOAK_FLOW_FLOOR:
        violations.append(f"soak decided {count} flows (< {SOAK_FLOW_FLOOR})")
    # Every wave's punts must clear before more than one further
    # wave lands: in-flight state tracks the arrival rate, it never
    # accumulates run-long.
    ceiling = 2 * WAVE_SIZE
    if peak["inflight"] > ceiling:
        violations.append(f"peak in-flight decisions {peak['inflight']} exceeded {ceiling}")
    if final_inflight:
        violations.append(f"run ended with {final_inflight} undecided flows")
    if count + pending_expired < flows:
        violations.append(f"only {count} of {flows} flows were decided")
    events = sim.events_processed
    # Control-channel messages, both directions, over the whole run.
    messages = sum(
        int(channel.to_controller_messages.value + channel.to_switch_messages.value)
        for channel in controller.channels.values()
    )
    (objects_before, decided_before), (objects_after, decided_after) = tracked
    return {
        "flows": flows,
        "events": events,
        "control_messages": messages,
        "decided": count,
        "events_per_decision": round(ratio(events, count), 3),
        "msgs_per_decision": round(ratio(messages, count), 3),
        "gc_tracked_per_decided_punt": round(
            ratio(objects_after - objects_before, decided_after - decided_before), 3
        ),
        "peak_inflight": peak["inflight"],
        "peak_serial_depth": peak["serial_depth"],
        "final_inflight": final_inflight,
        "pending_expired": pending_expired,
        # Enough flows decided, in-flight state bounded, everything drained.
        "bounded": not violations,
        "violations": violations,
    }


SOAK = Soak(
    steps=(
        ("decision_overlap_bench", decision_overlap),
        ("soak_async_decisions", async_churn_soak),
    ),
    gates=(
        Gate("decision_overlap_bench.async_degradation", operator.le,
             ASYNC_DEGRADATION_CEILING,
             "async core degraded {value}x at 10x daemon latency "
             f"(ceiling {ASYNC_DEGRADATION_CEILING:g}x)"),
        Gate("decision_overlap_bench.overlap_speedup", operator.ge, OVERLAP_SPEEDUP_FLOOR,
             "async over serial speedup {value}x "
             f"below the {OVERLAP_SPEEDUP_FLOOR:g}x floor"),
        # A run that decided nothing has a degradation of 0.0, which is
        # under any ceiling: hold every run to the whole burst.
        Gate("decision_overlap_bench.decided", operator.eq,
             {core: {f"{scale:g}x": OVERLAP_FLOWS for scale in LATENCY_SCALES}
              for core in ("async", "serial")},
             f"an overlap run did not decide all {OVERLAP_FLOWS} flows: {{value}}"),
        Gate("soak_async_decisions.events_per_decision", operator.le, PUNT_EVENTS_CEILING,
             "a decided punt of the async soak cost {value} simulator events "
             f"(ceiling {PUNT_EVENTS_CEILING:g})"),
        Gate("soak_async_decisions.msgs_per_decision", operator.le, PUNT_MSGS_CEILING,
             "a decided punt of the async soak cost {value} control-channel messages "
             f"(ceiling {PUNT_MSGS_CEILING:g})"),
        Gate("soak_async_decisions.gc_tracked_per_decided_punt", operator.le, GC_TRACKED_CEILING,
             "a decided punt of the async soak left {value} objects for the garbage "
             f"collector to track (ceiling {GC_TRACKED_CEILING:g})"),
    ),
    ok="soak ok: query latency overlaps, in-flight state bounded",
)
