#!/usr/bin/env python3
"""Print every audit record of every ``perf/`` workload, one canonical line each.

    make audit_dump SEED=2009 > audit.txt
    python3 tools/audit_dump.py --seed 7 --workload punt_unique

Each workload runs once, in a fresh interpreter under
``PYTHONHASHSEED=0``, through ``perf.harness.run_repeat`` at the size and
set-up count ``perf/run.py`` gives one of its untraced repeats, so the
records are the ones a benchmark repeat of that seed decides.  Each
record is one line, ``workload|controller|`` and then the record's
canonical line (:func:`repro.core.audit.record_line`)::

    workload|controller|time|flow|action|rule|origin|cookie|delegated|functions|cached|query latency|note|src keys|dst keys

Two checkouts whose dumps are equal decided every benchmark flow alike,
to the bit: diff them to show that a change moved no decision.  A count
per workload goes to standard error.  ``perf/`` is imported, never
edited.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.harness import run_repeat  # noqa: E402
from perf.run import DEFAULT_SECONDS, REPEATS, SETUPS  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402
from repro.core.audit import record_line  # noqa: E402


def dump(name: str, seed: int, seconds: float) -> int:
    """Run ``name`` once in this interpreter and print its records; return their count."""
    kept = []

    class Kept(WORKLOADS[name]):
        """The workload itself, remembered so its network outlives the repeat."""

        def build(self):
            kept.append(self)
            return super().build()

    run_repeat(Kept, seed, Kept.size_for(seconds, REPEATS), setups=SETUPS)
    controllers = kept[-1].net.controllers
    count = 0
    for controller in sorted(controllers):
        for record in controllers[controller].audit.records():
            print(record_line(record, name, controller))
            count += 1
    return count


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="the perf/run.py --seconds whose repeat size to use")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.child:
        count = dump(args.workload, args.seed, args.seconds)
        print(f"{args.workload}: {count} audit records", file=sys.stderr)
        return 0
    # A fixed hash seed pins the hash-derived host MACs, as perf/run.py does.
    env = dict(os.environ, PYTHONHASHSEED="0")
    for name in [args.workload] if args.workload else list(WORKLOADS):
        sys.stdout.flush()
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--child", "--workload", name,
             "--seed", str(args.seed), "--seconds", repr(args.seconds)],
            env=env, check=True,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
