"""Churn/soak workload: bounded flow-state under heavy flow turnover.

The ROADMAP north-star (millions of users, heavy churn) means the
controller sees short-lived flows arriving far faster than their TTLs
expire.  Every flow deposits state in three caches — the controller
:class:`~repro.core.cache.DecisionCache`, the ``keep state``
:class:`~repro.pf.state.StateTable` and the per-switch
:class:`~repro.openflow.flow_table.FlowTable` — so without a working
lifecycle the state grows linearly with *total* flows instead of with
the *live* working set.

:class:`ChurnSoak` drives ~100k unique short-lived flows through the
real decision components (policy engine, decision cache, state table,
flow tables, lifecycle sweeps) on a virtual clock and reports the peak
and final entry counts against the expected live working set.  The
companion :func:`error_probe` drives a real
:class:`~repro.core.network.IdentPPNetwork` whose policy raises a
:class:`~repro.exceptions.PFError` for one flow and checks the
controller fails closed (audited drop, no pending leak).

Run it standalone (``make soak``)::

    python -m repro.workloads.churn
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

from repro.core.cache import DecisionCache
from repro.core.lifecycle import LifecycleService
from repro.core.policy_engine import PolicyEngine
from repro.identpp.flowspec import FlowSpec
from repro.openflow.actions import OutputAction
from repro.openflow.flow_table import FlowTable, make_entry
from repro.openflow.match import Match
from repro.workloads.invariants import check_bounded_state

#: The soak policy: allow web traffic statefully, deny the rest.
CHURN_POLICY = (
    "block all\n"
    "pass from any to any port 80 keep state\n"
)


@dataclass
class ChurnConfig:
    """Tunables of one soak run.

    The defaults model a working set of ``working_set`` live flows: new
    flows arrive at ``working_set / decision_ttl`` per virtual second, so
    at steady state roughly ``working_set`` decisions are inside their
    TTL at any instant.  Everything beyond that (plus one sweep interval
    of slack) is state the lifecycle failed to reclaim.
    """

    flows: int = 100_000
    working_set: int = 512
    decision_ttl: float = 2.0
    state_timeout: float = 2.0
    idle_timeout: float = 1.0
    sweep_interval: float = 0.5
    switches: int = 2
    cache_capacity: Optional[int] = None

    @property
    def arrival_rate(self) -> float:
        """New flows per virtual second."""
        return self.working_set / self.decision_ttl


@dataclass
class ChurnReport:
    """What one soak run observed."""

    flows: int
    virtual_seconds: float
    wall_seconds: float
    flows_per_sec: float
    peak_cache_entries: int
    final_cache_entries: int
    peak_state_entries: int
    final_state_entries: int
    peak_table_entries: int
    final_table_entries: int
    expected_cache_entries: float
    expected_state_entries: float
    expected_table_entries: float
    cache_expirations: int
    state_expirations: int
    table_expirations: int
    sweeps: int
    reclaimed_total: int
    latency_first_mean: float
    latency_last_mean: float
    violations: list[str] = field(default_factory=list)

    @property
    def latency_ratio(self) -> float:
        """Late-run / early-run mean decision latency (1.0 = flat)."""
        if self.latency_first_mean <= 0:
            return 1.0
        return self.latency_last_mean / self.latency_first_mean

    def bounded(self, factor: float = 2.0) -> bool:
        """Return ``True`` when every peak stayed within ``factor`` × expected.

        Delegates to the shared bounded-state invariant checker
        (:func:`repro.workloads.invariants.check_bounded_state`) — the
        same one the experiment matrix runs on every cell — and
        populates :attr:`violations` with its findings, so failures are
        diagnosable from the report alone.
        """
        result = check_bounded_state(
            observed={
                "DecisionCache": self.peak_cache_entries,
                "StateTable": self.peak_state_entries,
                "FlowTable": self.peak_table_entries,
            },
            caps={
                "DecisionCache": factor * self.expected_cache_entries,
                "StateTable": factor * self.expected_state_entries,
                "FlowTable": factor * self.expected_table_entries,
            },
        )
        self.violations = list(result.violations)
        return result.passed

    def as_dict(self) -> dict[str, object]:
        """Return a JSON-serialisable summary (used by the benchmark suite)."""
        return {
            "flows": self.flows,
            "virtual_seconds": round(self.virtual_seconds, 3),
            "wall_seconds": round(self.wall_seconds, 3),
            "flows_per_sec": round(self.flows_per_sec, 1),
            "peak_cache_entries": self.peak_cache_entries,
            "final_cache_entries": self.final_cache_entries,
            "peak_state_entries": self.peak_state_entries,
            "final_state_entries": self.final_state_entries,
            "peak_table_entries": self.peak_table_entries,
            "final_table_entries": self.final_table_entries,
            "expected_cache_entries": self.expected_cache_entries,
            "expected_state_entries": self.expected_state_entries,
            "expected_table_entries": self.expected_table_entries,
            "cache_expirations": self.cache_expirations,
            "state_expirations": self.state_expirations,
            "table_expirations": self.table_expirations,
            "sweeps": self.sweeps,
            "reclaimed_total": self.reclaimed_total,
            "latency_ratio": round(self.latency_ratio, 3),
            "bounded_within_2x": self.bounded(2.0),
            "violations": list(self.violations),
        }


class ChurnSoak:
    """Drive unique short-lived flows through the decision components."""

    def __init__(self, config: Optional[ChurnConfig] = None) -> None:
        self.config = config if config is not None else ChurnConfig()

    @staticmethod
    def _flow(index: int) -> FlowSpec:
        """Materialise a unique, deterministic 5-tuple for draw ``index``."""
        return FlowSpec.tcp(
            f"10.{(index >> 16) % 200}.{(index >> 8) % 256}.{index % 256}",
            f"192.168.1.{1 + index % 8}",
            40_000 + index % 20_000,
            80,
        )

    def run(self) -> ChurnReport:
        """Run the soak and report peak/final entry counts and throughput."""
        cfg = self.config
        engine = PolicyEngine(default_action="block", name="churn.policy")
        engine.add_control_file("00-churn.control", CHURN_POLICY)
        cache = DecisionCache(ttl=cfg.decision_ttl, capacity=cfg.cache_capacity)
        cache.state_table.timeout = cfg.state_timeout
        tables = [FlowTable(name=f"sw{i}.flow-table") for i in range(cfg.switches)]

        lifecycle = LifecycleService(name="churn.lifecycle")
        lifecycle.register("decisions", cache.expire, cache.expirable_count)
        lifecycle.register(
            "states", cache.state_table.expire, cache.state_table.expirable_count
        )
        for i, table in enumerate(tables):
            lifecycle.register(
                f"flow_table:sw{i}",
                lambda now, _t=table: len(_t.expire(now)),
                table.expirable_count,
            )

        dt = 1.0 / cfg.arrival_rate
        next_sweep = cfg.sweep_interval
        peak_cache = peak_state = peak_table = 0
        decision_walls: list[float] = []
        now = 0.0
        wall_start = time.perf_counter()

        for index in range(cfg.flows):
            now = index * dt
            flow = self._flow(index)
            if cache.lookup(flow, now) is None:
                t0 = time.perf_counter()
                decision = engine.decide(flow)
                decision_walls.append(time.perf_counter() - t0)
                cookie = f"churn:decision-{len(decision_walls)}"
                cache.store(
                    flow,
                    decision.action,
                    cookie,
                    now,
                    keep_state=decision.keep_state,
                    rule_text=decision.rule_text,
                )
                if decision.is_pass:
                    self._install(tables, flow, cookie, now)
            if now >= next_sweep:
                lifecycle.sweep(now)
                next_sweep = now + cfg.sweep_interval
            peak_cache = max(peak_cache, len(cache))
            peak_state = max(peak_state, len(cache.state_table))
            peak_table = max(peak_table, max(len(t) for t in tables))

        # Drain: sweep past every timeout so steady-state leftovers show up
        # as non-zero finals instead of hiding behind "the run just ended".
        drain = now + max(cfg.decision_ttl, cfg.state_timeout, cfg.idle_timeout)
        lifecycle.sweep(drain + cfg.sweep_interval)
        wall = time.perf_counter() - wall_start

        slice_size = max(1, len(decision_walls) // 10)
        return ChurnReport(
            flows=cfg.flows,
            virtual_seconds=now,
            wall_seconds=wall,
            flows_per_sec=cfg.flows / wall if wall else 0.0,
            peak_cache_entries=peak_cache,
            final_cache_entries=len(cache),
            peak_state_entries=peak_state,
            final_state_entries=len(cache.state_table),
            peak_table_entries=peak_table,
            final_table_entries=max(len(t) for t in tables),
            # Live working set per structure: arrival rate x entry lifetime
            # (+ one sweep interval of reclamation slack).
            expected_cache_entries=cfg.arrival_rate * (cfg.decision_ttl + cfg.sweep_interval),
            expected_state_entries=cfg.arrival_rate * (cfg.state_timeout + cfg.sweep_interval),
            expected_table_entries=2 * cfg.arrival_rate * (cfg.idle_timeout + cfg.sweep_interval),
            cache_expirations=cache.expirations,
            state_expirations=cache.state_table.expirations,
            table_expirations=sum(t.expirations for t in tables),
            sweeps=lifecycle.sweeps,
            reclaimed_total=lifecycle.total_reclaimed(),
            latency_first_mean=sum(decision_walls[:slice_size]) / slice_size,
            latency_last_mean=sum(decision_walls[-slice_size:]) / slice_size,
        )

    def _install(self, tables: list[FlowTable], flow: FlowSpec, cookie: str, now: float) -> None:
        """Mirror the controller's datapath programming: forward + reverse entries."""
        cfg = self.config
        match = Match.from_five_tuple(
            flow.src_ip, flow.dst_ip, flow.proto, flow.src_port, flow.dst_port
        )
        reverse = flow.reversed()
        reverse_match = Match.from_five_tuple(
            reverse.src_ip, reverse.dst_ip, reverse.proto, reverse.src_port, reverse.dst_port
        )
        for port, table in enumerate(tables):
            table.install(
                make_entry(match, [OutputAction(port + 1)],
                           idle_timeout=cfg.idle_timeout, cookie=cookie),
                now=now,
            )
            table.install(
                make_entry(reverse_match, [OutputAction(port + 2)],
                           idle_timeout=cfg.idle_timeout, cookie=cookie),
                now=now,
            )


def error_probe() -> dict[str, object]:
    """Check the fail-closed pipeline on a real network.

    The policy's port-6666 rule calls an unregistered function, so
    evaluating a flow to that port raises inside the controller's decision.
    A correct controller resolves it as an audited drop with nothing left
    in the pending table or the switch buffers.
    """
    from repro.core.network import HostSpec, IdentPPNetwork

    net = IdentPPNetwork("churn-errors", policy_default_action="block")
    switch = net.add_switch("sw")
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
        switch=switch,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=switch)
    server.run_server("httpd", "root", 80)
    net.set_policy({
        "00-churn-errors.control": (
            "block all\n"
            "pass from any to any port 80 keep state\n"
            "pass from any to any port 6666 with bogus(@src[name])\n"
        ),
    })
    healthy = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
    poisoned = net.send_flow("client", "http", "alice", "192.168.1.1", 6666)
    controller = net.controller
    error_records = [r for r in controller.audit.records() if r.rule_origin == "error"]
    return {
        "healthy_flow_delivered": healthy.delivered,
        "error_flow_delivered": poisoned.delivered,
        "error_flow_audited": len(error_records) == 1,
        "pending_after": len(controller._pending),
        "buffered_after": switch.buffered_count(),
        "policy_errors": controller.policy_errors,
        "failed_closed": (
            not poisoned.delivered
            and len(error_records) == 1
            and not controller._pending
            and switch.buffered_count() == 0
        ),
    }


def main() -> int:
    """``make soak`` entry point: run the soak + error probe, report, gate."""
    print("running churn soak (100k short-lived flows) ...")
    report = ChurnSoak().run()
    payload = report.as_dict()
    width = max(len(key) for key in payload)
    for key, value in payload.items():
        print(f"  {key:<{width}}  {value}")
    probe = error_probe()
    print("fail-closed error probe:")
    width = max(len(key) for key in probe)
    for key, value in probe.items():
        print(f"  {key:<{width}}  {value}")

    ok = True
    if not report.bounded(2.0):
        ok = False
        for violation in report.violations:
            print(f"FAIL: {violation}")
    if not probe["failed_closed"]:
        ok = False
        print("FAIL: PFError flow was not failed closed (see probe above)")
    if report.latency_ratio > 2.5:
        # Wall-clock noise makes this advisory rather than gating.
        print(f"WARN: decision latency drifted {report.latency_ratio:.2f}x over the run")
    if ok:
        print("soak ok: state bounded, policy errors fail closed")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
