"""Workloads and scenario builders.

* :mod:`repro.workloads.paper_configs` — the controller ``.control``
  files and daemon ``@app`` configuration files of Figures 2–8,
  reproduced verbatim (with real signatures substituted for the paper's
  ``21oir...w3eda`` placeholders).
* :mod:`repro.workloads.generators` — deterministic flow/traffic
  generators (uniform and Zipf-popularity flow mixes) used by the
  cache and throughput benchmarks.
* :mod:`repro.workloads.enterprise` — builders for the canonical
  enterprise network, the two-branch (collaboration) network and the
  partial-deployment network.
* :mod:`repro.workloads.scenarios` and
  :mod:`repro.workloads.comparative` — the paper's figures and arguments
  (E1–E9): a class where callers read what it built (``.net``,
  ``.cases``, ``.probes``; a figure's ``run()`` returns a row per case
  and its violations), a function returning a dict everywhere else —
  used by the examples, the integration tests and the ``paper`` soak.
* :mod:`repro.workloads.soak` — the soak kit and the one entry point
  (``python -m repro.workloads.soak NAME``, every ``make soak_*``).  A
  soak is a function returning its ``BENCH_results.json`` entry; its
  module ends in a ``SOAK`` table of steps and gates.  The soak modules:
  :mod:`~repro.workloads.churn` (100k short-lived flows: bounded state,
  fail-closed policy errors), :mod:`~repro.workloads.cluster`
  (1-vs-4-shard throughput, kill-one-replica failover),
  :mod:`~repro.workloads.fabric` (path-wide install on a spine-leaf
  fabric), :mod:`~repro.workloads.queryload` (query cache and push
  plane), :mod:`~repro.workloads.decision_core` (query/eval overlap,
  77 000-flow async churn), :mod:`~repro.workloads.telemetry`
  (outbreak detection, sampling overhead),
  :mod:`~repro.workloads.paper` (the paper's own claims, E1–E12: ``make
  soak_paper``), :mod:`~repro.workloads.experiment` (the 30-cell
  scenario matrix, cells as ``ScenarioSpec`` data: ``make
  soak_matrix``) and :mod:`~repro.workloads.determinism` (the bench
  scenarios double-run: ``make determinism``).

The soak modules and the kit are deliberately *not* imported here: the
kit runs standalone via ``python -m``, and an eager package import
would make the interpreter execute it twice (the ``found in
sys.modules after import of package`` RuntimeWarning).  Import them by
module path.
"""

from repro.workloads.generators import FlowGenerator, FlowTemplate, zipf_weights
from repro.workloads.enterprise import (
    build_branch_network,
    build_enterprise_network,
    build_linear_network,
)
from repro.workloads import paper_configs, scenarios

__all__ = [
    "FlowGenerator",
    "FlowTemplate",
    "zipf_weights",
    "build_branch_network",
    "build_enterprise_network",
    "build_linear_network",
    "paper_configs",
    "scenarios",
]
