"""Determinism regression: the double-run event-trace hash gate.

The simulator's contract is bit-for-bit reproducibility: same scenario,
same seed, same event trace.  Every perf number in
``BENCH_results.json`` rests on that contract — if two runs of the same
workload can diverge, a "speedup" may just be a lucky interleaving.
This module makes the contract a soak with one gate: the queryload and
decision-core bench scenarios each run **twice** with the same seed
under ``Simulator(sanitize=True)``, and the runs must produce identical
event-trace hashes (see
:class:`repro.netsim.sanitizer.EventTraceHasher`), identical event
counts and identical audit digests (:func:`repro.core.audit.audit_digest`,
one canonical line per decision).  Any wall-clock read, module-global
RNG draw or iteration-order leak breaks the hash equality and fails
``make determinism`` and ``make bench``; tier-1 pins both hashes and
both digests to ``BENCH_results.json``, so a change that moves an event
or a decision's rule, origin, cookie or timing says so.

Run standalone::

    python -m repro.workloads.soak determinism      # = make determinism
"""

from __future__ import annotations

import operator
import random
from typing import Callable

from repro.core.audit import audit_digest
from repro.core.controller import ControllerConfig
from repro.workloads.decision_core import DECISION_POLICY
from repro.workloads.generators import FlowGenerator, FlowTemplate
from repro.workloads.queryload import QUERYLOAD_POLICY
from repro.workloads.soak import Gate, Soak, decided, edge_core_net

#: The one seed both double-runs use; recorded next to the trace hashes
#: in ``BENCH_results.json`` so the entry is reproducible by itself.
DETERMINISM_SEED = 2009

#: Hosts opening flows in either scenario.
CLIENTS = 4


def _drive(
    name: str,
    config: ControllerConfig,
    policy: dict[str, str],
    server: str,
    *,
    seed: int,
    flows: int,
) -> dict:
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
    return {
        "trace_hash": sanitizer.trace_hash,
        "audit_digest": audit_digest(records),
        "events": sim.events_processed,
        "decided": count,
        "max_same_instant": sanitizer.max_same_instant,
    }


def decision_core_scenario(seed: int = DETERMINISM_SEED, *, flows: int = 80) -> dict:
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


def queryload_scenario(seed: int) -> dict:
    """The queryload bench topology: hot server behind the query cache, 80 flows."""
    return _drive(
        "determinism-queryload",
        ControllerConfig(query_cache_ttl=30.0),
        QUERYLOAD_POLICY,
        "hot-server",
        seed=seed,
        flows=80,
    )


#: The scenarios the gate double-runs; names key the BENCH entry.
SCENARIOS: dict[str, Callable[[int], dict]] = {
    "decision_core": decision_core_scenario,
    "queryload": queryload_scenario,
}

#: What the two runs of one scenario must agree on.
IDENTICAL_KEYS = ("trace_hash", "events", "audit_digest")


def double_run() -> dict:
    """Run each bench scenario twice at :data:`DETERMINISM_SEED` and compare the two traces."""
    seed = DETERMINISM_SEED
    entry: dict[str, object] = {}
    for name, scenario in SCENARIOS.items():
        first, second = scenario(seed), scenario(seed)
        entry[name] = {
            "scenario": name,
            "seed": seed,
            "first": first,
            "second": second,
            "identical": all(first[key] == second[key] for key in IDENTICAL_KEYS),
        }
    entry["seed"] = seed
    entry["all_identical"] = all(entry[name]["identical"] for name in SCENARIOS)
    return entry


SOAK = Soak(
    steps=(("determinism_double_run", double_run),),
    gates=(
        Gate("determinism_double_run.all_identical", operator.eq, True,
             "determinism_double_run.all_identical is {value}: a double run's event trace, "
             "event count or audit diverged — the simulation is not deterministic"),
    ),
    ok="determinism ok: every bench scenario double-ran to one trace hash and one audit digest",
)
