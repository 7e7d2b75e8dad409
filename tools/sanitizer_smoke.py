#!/usr/bin/env python3
"""Sanitizer smoke: a sanitized scenario decides, a planted race and a stale
continuation are caught.

    PYTHONPATH=src python tools/sanitizer_smoke.py

Runs the decision-core scenario with the simulation sanitizer on and
requires it to decide something, then shadow-replays a callback that
schedules two same-instant writes to one key and requires the replay
to report the divergence, then punts a flow whose fail-closed deadline
runs out before its daemons answer and requires the late answer to be
reported as a stale continuation.  An assertion that fails exits non-zero.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.core.controller import ControllerConfig  # noqa: E402
from repro.netsim.sanitizer import KIND_STALE_CONTINUATION, shadow_replay  # noqa: E402
from repro.workloads.decision_core import DECISION_POLICY  # noqa: E402
from repro.workloads.determinism import decision_core_scenario  # noqa: E402
from repro.workloads.soak import edge_core_net  # noqa: E402


def planted_race(sim):
    state = {}
    sim.schedule(1.0, state.__setitem__, "winner", "a")
    sim.schedule(1.0, state.__setitem__, "winner", "b")
    sim.run()
    return state


def stale_continuations() -> int:
    """Return the stale continuations a punt reports whose deadline (0.1 ms)
    runs out while its daemons take 0.5 ms to answer."""
    net = edge_core_net(
        "smoke-stale", clients=1, config=ControllerConfig(pending_deadline=1e-4),
        policy=DECISION_POLICY,
    )
    for daemon in net.daemons.values():
        daemon.processing_delay = 500e-6
    sim = net.topology.sim
    sim.enable_sanitizer()
    net.host("client0").open_flow("http", "alice", str(net.host("server").ip), 80)
    net.run()
    return sim.sanitizer.summary()["reports_by_kind"].get(KIND_STALE_CONTINUATION, 0)


def main() -> int:
    trace = decision_core_scenario(7, flows=20)
    assert trace["decided"] > 0, "sanitized smoke scenario decided nothing"
    print(f"sanitized scenario ok: {trace['events']} events, "
          f"trace {trace['trace_hash'][:16]}..")

    report = shadow_replay(planted_race)
    assert report.diverged, "shadow replay missed the planted race"
    print("shadow replay ok: planted same-instant race detected")

    stale = stale_continuations()
    assert stale > 0, "a punt that outlived its deadline discarded its answer silently"
    print(f"stale continuations ok: {stale} reported")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
