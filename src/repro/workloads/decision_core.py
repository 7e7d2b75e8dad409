"""Decision-core workloads: query overlap bench and async churn soak.

The async decision core (PR 6) claims that daemon latency should set a
flow's *setup latency* but not the controller's *throughput*: queries
for thousands of concurrent punts overlap in flight, and only the
policy-eval stage serializes.  Two drivers measure exactly that claim,
both runnable standalone (``make soak_async``) and recorded in
``BENCH_results.json``:

* :class:`DecisionOverlapBench` — the overlap claim.  The same burst of
  query-heavy unique flows runs against both decision cores
  (``ControllerConfig.decision_core``) at 1x and 10x daemon processing
  delay.  Under the ``serial`` core the loop services one punt end to
  end — queries *and* eval — so decided-flows/vsec collapses almost
  linearly with daemon latency.  Under the ``async`` core the
  round-trips overlap and the makespan is dominated by the serialized
  eval stage, so throughput degrades by far less than 2x.

* :class:`AsyncChurnSoak` — the boundedness claim.  Waves of unique
  flows — 77 000 punts, each decided, installed along the path and
  unwound — churn through one async-core controller, with data-path
  flow entries aging out underneath the lifecycle sweeper.  In-flight decision state (the continuation
  tasks parked between query dispatch and eval) must stay bounded by
  the arrival rate — a leaked continuation or an unretired task shows
  up as monotonic growth and fails the gate.

Run standalone::

    python -m repro.workloads.decision_core
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPNetwork
from repro.netsim.statistics import RateCounter

#: The decision-core workloads' policy: stateless web allow-list.
DECISION_POLICY = (
    "block all\n"
    "pass from any to any port 80\n"
)

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


def _build_decision_net(
    name: str,
    *,
    clients: int,
    config: ControllerConfig,
    processing_delay: float,
    link_latency: float = 50e-6,
) -> IdentPPNetwork:
    """Stand up the bench fabric: clients — sw-edge — sw-core — server.

    Link latencies are kept small so the query cost is dominated by the
    daemon's ``processing_delay`` — the knob the bench scales.
    """
    net = IdentPPNetwork(
        name,
        link_latency=link_latency,
        controller_config=config,
        policy_default_action="block",
    )
    edge = net.add_switch("sw-edge")
    core = net.add_switch("sw-core")
    net.connect(edge, core)
    for index in range(clients):
        net.add_host(
            HostSpec(
                name=f"client{index}",
                ip=f"192.168.0.{10 + index}",
                users={"alice": ("users", "staff")},
            ),
            switch=edge,
        )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=core)
    server.run_server("httpd", "root", 80)
    net.set_policy({"00-decision.control": DECISION_POLICY})
    for daemon in net.daemons.values():
        daemon.processing_delay = processing_delay
    return net


# ----------------------------------------------------------------------
# Overlap bench
# ----------------------------------------------------------------------


@dataclass
class OverlapConfig:
    """Tunables of the serial-vs-async decision-core comparison."""

    flows: int = 600
    clients: int = 8
    #: Base daemon processing delay and the scale factors to compare.
    base_processing_delay: float = 500e-6
    latency_scales: tuple[float, ...] = (1.0, 10.0)
    #: Serialized policy-eval occupancy — the stage that stays serial
    #: under the async core, so it (not the daemon) sets the ceiling.
    policy_eval_delay: float = 200e-6

    def controller_config(self, core: str) -> ControllerConfig:
        """Return the per-run config for one decision core."""
        return ControllerConfig(
            decision_core=core,
            serialize_decisions=True,
            nonblocking_inbox=True,
            policy_eval_delay=self.policy_eval_delay,
            # The serial core at 10x daemon latency queues flows for
            # several virtual seconds; the deadline must not fire while
            # they wait their turn.
            pending_deadline=120.0,
        )


@dataclass
class OverlapReport:
    """Decided-flows/vsec per (core, latency scale), and the derived gates."""

    flows: int
    throughput: dict[str, dict[str, float]]
    makespan: dict[str, dict[str, float]]
    decided: dict[str, dict[str, int]]
    wall_seconds: float

    def _tput(self, core: str, scale_key: str) -> float:
        return self.throughput.get(core, {}).get(scale_key, 0.0)

    @property
    def scale_keys(self) -> list[str]:
        keys = set()
        for by_scale in self.throughput.values():
            keys.update(by_scale)
        return sorted(keys, key=lambda key: float(key.rstrip("x")))

    @property
    def async_degradation(self) -> float:
        """Async throughput at base scale over async at the top scale."""
        keys = self.scale_keys
        top = self._tput("async", keys[-1])
        base = self._tput("async", keys[0])
        return base / top if top else float("inf")

    @property
    def serial_degradation(self) -> float:
        """Serial throughput at base scale over serial at the top scale."""
        keys = self.scale_keys
        top = self._tput("serial", keys[-1])
        base = self._tput("serial", keys[0])
        return base / top if top else float("inf")

    @property
    def overlap_speedup(self) -> float:
        """Async over serial decided-flows/vsec at the top latency scale."""
        key = self.scale_keys[-1]
        serial = self._tput("serial", key)
        return self._tput("async", key) / serial if serial else 0.0

    def as_dict(self) -> dict[str, object]:
        """Return a JSON-serialisable summary for the benchmark suite."""
        return {
            "flows": self.flows,
            "decided_flows_per_vsec": {
                core: {scale: round(value, 1) for scale, value in by_scale.items()}
                for core, by_scale in sorted(self.throughput.items())
            },
            "makespan_vsec": {
                core: {scale: round(value, 6) for scale, value in by_scale.items()}
                for core, by_scale in sorted(self.makespan.items())
            },
            "decided": {core: dict(by_scale) for core, by_scale in sorted(self.decided.items())},
            "async_degradation": round(self.async_degradation, 3),
            "serial_degradation": round(self.serial_degradation, 3),
            "overlap_speedup": round(self.overlap_speedup, 2),
            "wall_seconds": round(self.wall_seconds, 3),
        }


class DecisionOverlapBench:
    """Compare the decision cores across daemon latency scales."""

    def __init__(self, config: Optional[OverlapConfig] = None) -> None:
        self.config = config if config is not None else OverlapConfig()

    def run(self) -> OverlapReport:
        """Run every (core, latency scale) pair over the identical burst."""
        cfg = self.config
        throughput: dict[str, dict[str, float]] = {}
        makespan: dict[str, dict[str, float]] = {}
        decided: dict[str, dict[str, int]] = {}
        wall_start = time.perf_counter()
        for core in ("serial", "async"):
            for scale in cfg.latency_scales:
                key = f"{scale:g}x"
                net = _build_decision_net(
                    f"decision-overlap-{core}-{key}",
                    clients=cfg.clients,
                    config=cfg.controller_config(core),
                    processing_delay=cfg.base_processing_delay * scale,
                )
                for index in range(cfg.flows):
                    client = net.host(f"client{index % cfg.clients}")
                    client.open_flow("http", "alice", "192.168.1.1", 80)
                net.run()
                rate = RateCounter(f"decision-overlap-{core}-{key}.decisions")
                last = 0.0
                for record in net.controller.audit.records():
                    if not record.cached:
                        rate.record(record.time)
                        last = max(last, record.time)
                throughput.setdefault(core, {})[key] = rate.mean_rate(last)
                makespan.setdefault(core, {})[key] = last
                decided.setdefault(core, {})[key] = int(rate.total)
        return OverlapReport(
            flows=cfg.flows,
            throughput=throughput,
            makespan=makespan,
            decided=decided,
            wall_seconds=time.perf_counter() - wall_start,
        )


# ----------------------------------------------------------------------
# Async churn soak
# ----------------------------------------------------------------------


@dataclass
class AsyncSoakConfig:
    """Tunables of the 77 000-flow async churn soak."""

    waves: int = 700
    wave_size: int = 110
    wave_interval: float = 0.1
    clients: int = 8
    processing_delay: float = 500e-6
    policy_eval_delay: float = 20e-6
    #: Short datapath lifetimes + a running sweeper keep the switch flow
    #: tables bounded under churn (the soak is about *controller* state,
    #: not table capacity).
    flow_idle_timeout: float = 0.05
    flow_hard_timeout: float = 0.05
    lifecycle_interval: float = 0.05

    @property
    def flows(self) -> int:
        """Total unique flows injected."""
        return self.waves * self.wave_size

    def controller_config(self) -> ControllerConfig:
        """Return the async-core config under test."""
        return ControllerConfig(
            decision_core="async",
            serialize_decisions=True,
            nonblocking_inbox=True,
            policy_eval_delay=self.policy_eval_delay,
            idle_timeout=self.flow_idle_timeout,
            hard_timeout=self.flow_hard_timeout,
            lifecycle_interval=self.lifecycle_interval,
        )


@dataclass
class AsyncSoakReport:
    """What the async churn soak observed."""

    flows: int
    events: int
    #: Control-channel messages, both directions, over the whole run.
    control_messages: int
    decided: int
    peak_inflight: int
    peak_serial_depth: int
    final_inflight: int
    final_pending: int
    pending_expired: int
    wave_size: int
    wall_seconds: float
    violations: list[str] = field(default_factory=list)

    def bounded(self) -> bool:
        """Gate: enough flows decided, in-flight state bounded, everything drained."""
        self.violations = []
        if self.decided < SOAK_FLOW_FLOOR:
            self.violations.append(
                f"soak decided {self.decided} flows (< {SOAK_FLOW_FLOOR})"
            )
        # Every wave's punts must clear before more than one further
        # wave lands: in-flight state tracks the arrival rate, it never
        # accumulates run-long.
        ceiling = 2 * self.wave_size
        if self.peak_inflight > ceiling:
            self.violations.append(
                f"peak in-flight decisions {self.peak_inflight} exceeded {ceiling}"
            )
        if self.final_inflight or self.final_pending:
            self.violations.append(
                f"run ended with {self.final_inflight} in-flight / "
                f"{self.final_pending} pending flows"
            )
        if self.decided + self.pending_expired < self.flows:
            self.violations.append(
                f"only {self.decided} of {self.flows} flows were decided"
            )
        return not self.violations

    def as_dict(self) -> dict[str, object]:
        """Return a JSON-serialisable summary for the benchmark suite."""
        return {
            "flows": self.flows,
            "events": self.events,
            "control_messages": self.control_messages,
            "decided": self.decided,
            "peak_inflight": self.peak_inflight,
            "peak_serial_depth": self.peak_serial_depth,
            "final_inflight": self.final_inflight,
            "final_pending": self.final_pending,
            "pending_expired": self.pending_expired,
            "bounded": self.bounded(),
            "wall_seconds": round(self.wall_seconds, 3),
        }


class AsyncChurnSoak:
    """Churn 77 000 flows through one async-core controller, watching in-flight state."""

    def __init__(self, config: Optional[AsyncSoakConfig] = None) -> None:
        self.config = config if config is not None else AsyncSoakConfig()
        self._peak_inflight = 0
        self._peak_serial_depth = 0

    def run(self) -> AsyncSoakReport:
        cfg = self.config
        net = _build_decision_net(
            "decision-async-soak",
            clients=cfg.clients,
            config=cfg.controller_config(),
            processing_delay=cfg.processing_delay,
        )
        controller = net.controller
        sim = net.topology.sim
        wall_start = time.perf_counter()

        def inject(wave: int) -> None:
            spawned = []
            for index in range(cfg.wave_size):
                client = net.host(f"client{(wave + index) % cfg.clients}")
                _, socket, process = client.open_flow("http", "alice", "192.168.1.1", 80)
                spawned.append((client, socket, process))
            # Probe at the instant after the wave's punts all arrived —
            # the high-water mark for in-flight pipeline state.
            sim.schedule(2 * cfg.processing_delay, probe)
            # Short-lived flows: the wave's sessions end two waves later,
            # well after their decisions landed.  Without the reap the
            # host socket tables grow run-long and the daemons' lsof-style
            # flow lookup turns quadratic — churn means turnover.
            sim.schedule(2 * cfg.wave_interval, reap, spawned)

        def reap(spawned: list) -> None:
            for client, socket, process in spawned:
                client.sockets.close(socket)
                client.processes.kill(process.pid)

        def probe() -> None:
            self._peak_inflight = max(self._peak_inflight, controller.inflight_count())
            self._peak_serial_depth = max(
                self._peak_serial_depth, controller._serial.depth()
            )

        for wave in range(cfg.waves):
            sim.schedule(wave * cfg.wave_interval, inject, wave)
        net.run()
        summary = controller.summary()
        decided = len([r for r in controller.audit.records() if not r.cached])
        return AsyncSoakReport(
            flows=cfg.flows,
            events=sim.events_processed,
            control_messages=sum(
                int(channel.to_controller_messages.value + channel.to_switch_messages.value)
                for channel in controller.channels.values()
            ),
            decided=decided,
            peak_inflight=self._peak_inflight,
            peak_serial_depth=self._peak_serial_depth,
            final_inflight=int(summary["inflight_decisions"]),
            final_pending=int(summary["pending_flows"]),
            pending_expired=int(summary["pending_expired"]),
            wave_size=cfg.wave_size,
            wall_seconds=time.perf_counter() - wall_start,
        )


# ----------------------------------------------------------------------
# Standalone entry point
# ----------------------------------------------------------------------


def main() -> int:
    """``make soak_async`` entry point: run both drivers, report, gate."""
    print("running decision-core overlap bench (serial vs async) ...")
    overlap = DecisionOverlapBench().run()
    payload = overlap.as_dict()
    width = max(len(key) for key in payload)
    for key, value in payload.items():
        print(f"  {key:<{width}}  {value}")

    print("running async churn soak (77 000 flows) ...")
    soak = AsyncChurnSoak().run()
    payload = soak.as_dict()
    width = max(len(key) for key in payload)
    for key, value in payload.items():
        print(f"  {key:<{width}}  {value}")

    ok = True
    if overlap.async_degradation >= ASYNC_DEGRADATION_CEILING:
        ok = False
        print(
            f"FAIL: async core degraded {overlap.async_degradation:.2f}x at 10x "
            f"daemon latency (ceiling {ASYNC_DEGRADATION_CEILING}x)"
        )
    if overlap.overlap_speedup < OVERLAP_SPEEDUP_FLOOR:
        ok = False
        print(
            f"FAIL: async over serial speedup {overlap.overlap_speedup:.2f}x "
            f"below the {OVERLAP_SPEEDUP_FLOOR}x floor"
        )
    if not soak.bounded():
        ok = False
        for violation in soak.violations:
            print(f"FAIL: {violation}")
    if ok:
        print("soak ok: query latency overlaps, in-flight state bounded")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
