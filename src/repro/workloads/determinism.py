"""Determinism regression: the double-run event-trace hash gate.

The simulator's contract is bit-for-bit reproducibility: same scenario,
same seed, same event trace.  Every perf number in
``BENCH_results.json`` rests on that contract — if two runs of the same
workload can diverge, a "speedup" may just be a lucky interleaving.
This module makes the contract a *gate*: the queryload and
decision-core bench scenarios each run **twice** with the same seed
under ``Simulator(sanitize=True)``, and the runs must produce identical
event-trace hashes (see
:class:`repro.netsim.sanitizer.EventTraceHasher`), identical event
counts and identical audit digests (:func:`repro.core.audit.audit_digest`,
one canonical line per decision).  Any wall-clock read, module-global
RNG draw or iteration-order leak breaks the hash equality and fails
``make bench``; tier-1 pins both hashes and both digests to
``BENCH_results.json``, so a change that moves an event or a decision's
rule, origin, cookie or timing says so.

Run standalone::

    python -m repro.workloads.determinism
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable

from repro.core.audit import audit_digest
from repro.core.controller import ControllerConfig
from repro.workloads.decision_core import DECISION_POLICY
from repro.workloads.generators import FlowGenerator, FlowTemplate
from repro.workloads.queryload import QUERYLOAD_POLICY
from repro.workloads.soak import decided, edge_core_net

#: The one seed both double-runs use; recorded next to the trace hashes
#: in ``BENCH_results.json`` so the entry is reproducible by itself.
DETERMINISM_SEED = 2009

#: Hosts opening flows in either scenario.
CLIENTS = 4


@dataclass(frozen=True)
class ScenarioTrace:
    """What one sanitized run of a scenario produced."""

    trace_hash: str
    events: int
    decided: int
    max_same_instant: int
    audit_digest: str

    def as_dict(self) -> dict[str, object]:
        return {
            "trace_hash": self.trace_hash,
            "audit_digest": self.audit_digest,
            "events": self.events,
            "decided": self.decided,
            "max_same_instant": self.max_same_instant,
        }


@dataclass(frozen=True)
class DeterminismReport:
    """Two runs of one scenario, and whether they were identical."""

    scenario: str
    seed: int
    first: ScenarioTrace
    second: ScenarioTrace

    @property
    def identical(self) -> bool:
        """Gate: both runs produced the same trace hash, event count and audit."""
        return (
            self.first.trace_hash == self.second.trace_hash
            and self.first.events == self.second.events
            and self.first.audit_digest == self.second.audit_digest
        )

    def as_dict(self) -> dict[str, object]:
        return {
            "scenario": self.scenario,
            "seed": self.seed,
            "first": self.first.as_dict(),
            "second": self.second.as_dict(),
            "identical": self.identical,
        }


def _drive(
    name: str,
    config: ControllerConfig,
    policy: dict[str, str],
    server: str,
    *,
    seed: int,
    flows: int,
) -> ScenarioTrace:
    """Inject a seeded flow schedule toward ``server`` on a 4-client bench
    fabric (daemons answering in 500 us) and run it sanitized.

    Arrival times are jittered from the same seeded RNG that picks the
    source client, so repeated same-instant collisions (the case the
    sanitizer's tie tracking watches) occur naturally alongside spread
    arrivals.  An unlabelled event is hashed under its callback's
    qualified name, so renaming this function or ``inject`` moves the
    committed trace hashes.
    """
    net = edge_core_net(
        name, clients=CLIENTS, config=config, policy=policy, servers=(server,)
    )
    for daemon in net.daemons.values():
        daemon.processing_delay = 500e-6
    sim = net.topology.sim
    sim.enable_sanitizer()
    rng = random.Random(seed)
    templates = [
        FlowTemplate(
            src_host=f"client{index}",
            dst_host=server,
            src_ip=str(net.host(f"client{index}").ip),
            dst_ip=str(net.host(server).ip),
            dst_port=80,
            app_name="http",
            user_name="alice",
        )
        for index in range(CLIENTS)
    ]
    generator = FlowGenerator(templates, seed=seed, zipf_skew=1.1)

    def inject(template: FlowTemplate) -> None:
        net.host(template.src_host).open_flow(
            template.app_name, template.user_name, template.dst_ip, template.dst_port
        )

    at = 0.0
    for template, _ in generator.draw_batch(flows):
        # Quantised arrivals: distinct instants most of the time, exact
        # same-instant collisions whenever two draws land on one slot.
        at += rng.randrange(0, 4) * 0.0005
        sim.schedule(at, inject, template)
    net.run()
    sanitizer = sim.sanitizer
    assert sanitizer is not None
    records = net.controller.audit.records()
    count, _ = decided(records)
    return ScenarioTrace(
        trace_hash=sanitizer.trace_hash,
        events=sim.events_processed,
        decided=count,
        max_same_instant=sanitizer.max_same_instant,
        audit_digest=audit_digest(records),
    )


def decision_core_scenario(seed: int = DETERMINISM_SEED, *, flows: int = 80) -> ScenarioTrace:
    """The decision-core bench topology: async core, query/eval overlap."""
    return _drive(
        "determinism-decision-core",
        ControllerConfig(
            decision_core="async",
            serialize_decisions=True,
            nonblocking_inbox=True,
            policy_eval_delay=200e-6,
            pending_deadline=120.0,
        ),
        DECISION_POLICY,
        "server",
        seed=seed,
        flows=flows,
    )


def queryload_scenario(seed: int = DETERMINISM_SEED, *, flows: int = 80) -> ScenarioTrace:
    """The queryload bench topology: hot server behind the query cache."""
    return _drive(
        "determinism-queryload",
        ControllerConfig(query_cache_ttl=30.0),
        QUERYLOAD_POLICY,
        "hot-server",
        seed=seed,
        flows=flows,
    )


#: The scenarios the gate double-runs; names key the BENCH entry.
SCENARIOS: dict[str, Callable[[int], ScenarioTrace]] = {
    "decision_core": decision_core_scenario,
    "queryload": queryload_scenario,
}


class DeterminismGate:
    """Double-run every scenario and compare event-trace hashes."""

    def __init__(self, seed: int = DETERMINISM_SEED) -> None:
        self.seed = seed

    def run(self) -> dict[str, DeterminismReport]:
        reports: dict[str, DeterminismReport] = {}
        for name, scenario in SCENARIOS.items():
            reports[name] = DeterminismReport(
                scenario=name,
                seed=self.seed,
                first=scenario(self.seed),
                second=scenario(self.seed),
            )
        return reports

    def as_dict(self) -> dict[str, object]:
        """Run the gate and return the JSON summary for ``BENCH_results.json``."""
        reports = self.run()
        payload: dict[str, object] = {
            name: report.as_dict() for name, report in reports.items()
        }
        payload["seed"] = self.seed
        payload["all_identical"] = all(report.identical for report in reports.values())
        return payload


def main() -> int:
    """Standalone entry point: run the gate, print, exit non-zero on divergence."""
    gate = DeterminismGate()
    ok = True
    for name, report in gate.run().items():
        status = "identical" if report.identical else "DIVERGED"
        print(
            f"  {name}: {status}  seed={report.seed}  "
            f"events={report.first.events}/{report.second.events}  "
            f"hash={report.first.trace_hash[:16]}../{report.second.trace_hash[:16]}..  "
            f"audit={report.first.audit_digest[:16]}../{report.second.audit_digest[:16]}.."
        )
        ok = ok and report.identical
    if not ok:
        print(
            "FAIL: double-run event traces or audits diverged — the simulation is not deterministic"
        )
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
