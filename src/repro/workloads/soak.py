"""The soak kit: what the soak modules share, and their one entry point.

A soak is a plain function.  It builds a network, drives it and returns
the very dict recorded under its name in ``BENCH_results.json`` —
violations worked out inline, headline ``ops_per_sec`` included.  Its
sizes are module constants beside the comment that explains them, and
its module ends in one :class:`Soak` table: the named steps, the floors
and ceilings on what they record as :class:`Gate` rows, and the line to
print when everything held.  ``benchmarks/run_benchmarks.py`` walks the
same tables for its ``results`` entries and their gates, so ``make
bench`` and ``make soak_*`` cannot judge one number two ways.

This module holds only what the soaks share: the canonical bench
network, the flash-crowd injector, the decided-flows count, and the
runner::

    python -m repro.workloads.soak cluster      # = make soak_cluster
"""

from __future__ import annotations

import functools
import importlib
import sys
import time
from typing import Callable, NamedTuple, Optional, Sequence

from repro.analysis.report import format_table
from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork

#: Every soak by the name ``make soak_<name>`` and the CI matrix use,
#: and where its table lives.  Looked up on demand: the soak modules
#: import this one.
SOAKS = {
    "churn": "repro.workloads.churn:SOAK",
    "cluster": "repro.workloads.cluster:SOAK",
    "fabric": "repro.workloads.fabric:SOAK",
    "queryload": "repro.workloads.queryload:SOAK",
    "push": "repro.workloads.queryload:SOAK_PUSH",
    "decision_core": "repro.workloads.decision_core:SOAK",
    "telemetry": "repro.workloads.telemetry:SOAK",
    "paper": "repro.workloads.paper:SOAK",
    "matrix": "repro.workloads.experiment:SOAK",
    "determinism": "repro.workloads.determinism:SOAK",
}


class Gate(NamedTuple):
    """One floor or ceiling on a recorded value."""

    #: Dotted path from the step's ``results`` name down to the value.
    path: str
    #: ``holds(value, bound)`` must be true (``operator.le`` / ``ge`` / ...).
    holds: Callable[[object, object], bool]
    bound: object
    #: Printed after ``FAIL:`` when it is not; ``{value}`` is filled in.
    message: str


class Soak(NamedTuple):
    """One ``make soak_*`` target: steps, gates, and the all-clear line."""

    #: ``(name in BENCH_results.json, function returning that entry)``.
    steps: tuple[tuple[str, Callable[[], dict]], ...]
    gates: tuple[Gate, ...]
    ok: str


def add_web_hosts(
    net: IdentPPNetwork,
    client_switches: Sequence,
    server_switch,
    clients: int,
    *,
    servers: Sequence[str] = ("server",),
    server_latency: Optional[float] = None,
) -> None:
    """Attach ``clients`` hosts round-robin to ``client_switches`` and an
    httpd on port 80 per name in ``servers`` (192.168.1.1 upwards) to
    ``server_switch``.

    On a fabric, pass the leaves minus the server leaf so every flow
    crosses it; on a single-switch baseline, pass the one switch for
    both roles.  One host plan for every variant keeps throughput
    comparisons apples-to-apples.
    """
    for index in range(clients):
        net.add_host(
            HostSpec(
                name=f"client{index}",
                ip=f"192.168.0.{10 + index}",
                users={"alice": ("users", "staff")},
            ),
            switch=client_switches[index % len(client_switches)],
        )
    for index, name in enumerate(servers):
        server = net.add_host(
            HostSpec(name=name, ip=f"192.168.1.{1 + index}"),
            switch=server_switch,
            link_latency=server_latency,
        )
        server.run_server("httpd", "root", 80)


def edge_core_net(
    name: str,
    *,
    clients: int,
    config: ControllerConfig,
    policy: dict[str, str],
    shards: int = 0,
    servers: Sequence[str] = ("server",),
    core_latency: Optional[float] = None,
) -> IdentPPNetwork:
    """Stand up the canonical bench fabric: clients — sw-edge — sw-core — server.

    One default-deny controller, or a cluster of ``shards`` replicas.
    Links run at the network default (50 us), small enough that a
    query's cost is the daemon's ``processing_delay``; ``core_latency``
    stretches the edge→core and core→server hops, the round trip an
    endpoint query to a server pays.
    """
    if shards:
        net = IdentPPClusterNetwork(
            name, shards=shards, policy_default_action="block", controller_config=config
        )
    else:
        net = IdentPPNetwork(name, policy_default_action="block", controller_config=config)
    edge = net.add_switch("sw-edge")
    core = net.add_switch("sw-core")
    net.connect(edge, core, latency=core_latency)
    add_web_hosts(net, [edge], core, clients, servers=servers, server_latency=core_latency)
    net.set_policy(policy)
    return net


def open_web_flows(
    net: IdentPPNetwork, flows: int, clients: int, *, first: int = 0, servers: int = 1
) -> list[tuple]:
    """Open ``flows`` new web sessions at this instant (a flash crowd).

    Flow ``i`` leaves client ``(first + i) % clients`` as alice toward
    server ``i % servers``; every one is a unique 5-tuple, so every one
    punts.  Returns ``(client, packet, socket, process)`` per flow.
    """
    opened = []
    for index in range(flows):
        client = net.host(f"client{(first + index) % clients}")
        opened.append(
            (client, *client.open_flow("http", "alice", f"192.168.1.{1 + index % servers}", 80))
        )
    return opened


def uncached(records) -> list:
    """Return the audit ``records`` of decisions actually made — a repeat
    punt answered from the decision cache is audited too, but decides
    nothing."""
    return [record for record in records if not record.cached]


def decided(records) -> tuple[int, float]:
    """Return how many decisions ``records`` hold and the instant of the last."""
    made = uncached(records)
    return len(made), max((record.time for record in made), default=0.0)


def ratio(numerator: float, denominator: float) -> float:
    """Return ``numerator / denominator``, or 0.0 over nothing.

    A run that decides nothing has no makespan and no throughput.  Its
    rates and speedups read 0.0 beside a violation saying so, never
    ``inf``: ``json.dump`` would write the bare token ``Infinity``,
    which is not JSON.
    """
    return numerator / denominator if denominator else 0.0


def timed(step: Callable[..., dict]) -> Callable[..., dict]:
    """Stamp the host seconds ``step`` took on its entry as ``wall_seconds``."""

    @functools.wraps(step)
    def run(*args, **kwargs) -> dict:
        start = time.perf_counter()
        entry = step(*args, **kwargs)
        entry["wall_seconds"] = round(time.perf_counter() - start, 3)
        return entry

    return run


def recorded(results: dict[str, dict], path: str) -> object:
    """Return the value a gate's dotted ``path`` names in ``results``."""
    value = results
    for key in path.split("."):
        value = value[key]
    return value


def failed_gates(results: dict[str, dict], gates: Sequence[Gate]) -> list[str]:
    """Return a line per gate that ``results`` fails and per violation an
    entry lists — every one, so a red run explains itself in one pass."""
    failures = []
    for path, holds, bound, message in gates:
        value = recorded(results, path)
        if not holds(value, bound):
            failures.append(message.format(value=value))
    for name, entry in results.items():
        failures.extend(f"{name}: {violation}" for violation in entry.get("violations", ()))
    return failures


def load(name: str) -> Soak:
    """Return the table registered under ``name`` in :data:`SOAKS`."""
    module, _, table = SOAKS[name].partition(":")
    return getattr(importlib.import_module(module), table)


def main(argv: Optional[list[str]] = None) -> int:
    """``make soak_NAME``: run the table's steps, print each entry (a key
    ending in ``rows`` holds a table and prints as one; any other list of
    records prints as its length — ``make bench`` records it whole), gate."""
    names = sys.argv[1:] if argv is None else argv
    if len(names) != 1 or names[0] not in SOAKS:
        print(
            "usage: python -m repro.workloads.soak NAME\n"
            f"known soaks: {', '.join(SOAKS)}",
            file=sys.stderr,
        )
        return 2
    soak = load(names[0])
    results = {}
    for name, step in soak.steps:
        print(f"running {name}: {step.__doc__.splitlines()[0]}")
        entry = results[name] = step()
        width = max(len(key) for key in entry)
        for key, value in entry.items():
            if key.endswith("rows"):
                print(format_table(value, title=f"  {key}:"))
            elif isinstance(value, list) and value and isinstance(value[0], dict):
                print(f"  {key:<{width}}  {len(value)} records")
            else:
                print(f"  {key:<{width}}  {value}")
    failures = failed_gates(results, soak.gates)
    for failure in failures:
        print(f"FAIL: {failure}")
    if not failures:
        print(soak.ok)
    return 1 if failures else 0


if __name__ == "__main__":
    raise SystemExit(main())
