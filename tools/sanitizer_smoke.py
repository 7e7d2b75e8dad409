#!/usr/bin/env python3
"""Sanitizer smoke: one sanitized scenario decides, and a planted race is caught.

    PYTHONPATH=src python tools/sanitizer_smoke.py

Runs the decision-core scenario with the simulation sanitizer on and
requires it to decide something, then shadow-replays a callback that
schedules two same-instant writes to one key and requires the replay
to report the divergence.  An assertion that fails exits non-zero.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.netsim.sanitizer import shadow_replay  # noqa: E402
from repro.workloads.determinism import decision_core_scenario  # noqa: E402


def planted_race(sim):
    state = {}
    sim.schedule(1.0, state.__setitem__, "winner", "a")
    sim.schedule(1.0, state.__setitem__, "winner", "b")
    sim.run()
    return state


def main() -> int:
    trace = decision_core_scenario(7, flows=20)
    assert trace["decided"] > 0, "sanitized smoke scenario decided nothing"
    print(f"sanitized scenario ok: {trace['events']} events, "
          f"trace {trace['trace_hash'][:16]}..")

    report = shadow_replay(planted_race)
    assert report.diverged, "shadow replay missed the planted race"
    print("shadow replay ok: planted same-instant race detected")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
