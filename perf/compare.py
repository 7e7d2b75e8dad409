#!/usr/bin/env python3
"""Compare two reports written by ``perf/run.py --out``.

    python3 perf/compare.py A.json B.json

One row per (end-to-end metric, workload) with both values, the bound
from ``BENCHMARK.json`` and a verdict for B against A:

* ``improved`` / ``regressed`` — B is better / worse than A by more than
  the bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — on either side the per-repeat values of the metric
  spread (max - min, as a share of their median) wider than the bound,
  and the two sides' ranges overlap, so the runs cannot tell.

Exits non-zero on any ``regressed`` row.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _range(workload: dict, metric: str) -> tuple[float, float, float] | None:
    """Return (min, max, spread as a share of the median) of the per-repeat values."""
    samples = workload["per_repeat"].get(metric)
    if not samples or len(samples) < 2:
        return None  # virtual time: one exact value per seed, no spread
    return min(samples), max(samples), (max(samples) - min(samples)) / statistics.median(samples)


def verdict(metric: dict, a: dict, b: dict) -> str:
    """Judge workload report ``b`` against ``a`` on one end-to-end metric."""
    name, bound = metric["name"], metric["bound"]
    old, new = a["end_to_end"][name], b["end_to_end"][name]
    worse_by = (new - old) / old if metric["better"] == "lower" else (old - new) / old
    range_a, range_b = _range(a, name), _range(b, name)
    if range_a and range_b and max(range_a[2], range_b[2]) > bound:
        if range_a[0] <= range_b[1] and range_b[0] <= range_a[1]:
            return "unresolved"
    if worse_by > bound:
        return "regressed"
    if worse_by < -bound:
        return "improved"
    return "unchanged"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    benchmark = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    a, b = (json.loads(Path(path).read_text(encoding="utf-8")) for path in argv)
    print(f"A: {argv[0]}  commit {a['meta']['commit'][:12]}  seed {a['meta']['seed']}")
    print(f"B: {argv[1]}  commit {b['meta']['commit'][:12]}  seed {b['meta']['seed']}")
    if (a["meta"]["seed"], a["meta"]["seconds"]) != (b["meta"]["seed"], b["meta"]["seconds"]):
        print("note: the reports differ in seed or size; virtual-time rows compare unlike inputs")
    print(f"{'workload':<26}{'metric':<22}{'A':>14}{'B':>14}{'bound':>8}  verdict")
    regressed = 0
    for workload in benchmark["workloads"]:
        name = workload["name"]
        if name not in a["workloads"] or name not in b["workloads"]:
            continue
        for metric in benchmark["end_to_end"]:
            side_a, side_b = a["workloads"][name], b["workloads"][name]
            result = verdict(metric, side_a, side_b)
            regressed += result == "regressed"
            print(f"{name:<26}{metric['name']:<22}"
                  f"{side_a['end_to_end'][metric['name']]:>14.4f}"
                  f"{side_b['end_to_end'][metric['name']]:>14.4f}"
                  f"{metric['bound']:>8.2f}  {result}")
        for side, label in ((a, "A"), (b, "B")):
            if side["workloads"][name].get("failed"):
                print(f"{name:<26}{label} had {side['workloads'][name]['failed']} failed ops")
                regressed += label == "B"
    print(f"{regressed} regressed")
    return 1 if regressed else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
