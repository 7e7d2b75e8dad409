#!/usr/bin/env python3
"""Append one run of the wall-clock benchmark to the kept history.

    make perf_history

Runs ``perf/run.py --out`` (all four workloads, about three minutes on
the 2-core reference box) and appends one JSON line to the committed
``BENCH_history.jsonl``: the commit (``-dirty`` when the tree has
uncommitted changes), the interpreter, and per workload the end-to-end
values, the per-repeat values and the quartiles of the pooled segment
costs (host seconds per op).  A run with a failed op appends nothing.
"""

from __future__ import annotations

import json
import platform
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def main() -> int:
    with tempfile.TemporaryDirectory() as scratch:
        out = Path(scratch) / "report.json"
        subprocess.run([sys.executable, str(ROOT / "perf" / "run.py"), "--out", str(out)], check=False)
        report = json.loads(out.read_text(encoding="utf-8"))
    if not report["correct"]:
        print("perf_history: the run had failures; nothing appended", file=sys.stderr)
        return 1
    status = subprocess.run(
        ["git", "-C", str(ROOT), "status", "--porcelain"], capture_output=True, text=True, check=False
    ).stdout
    line = {
        "commit": report["meta"]["commit"] + ("-dirty" if status.strip() else ""),
        "interpreter": f"{platform.python_implementation()} {report['meta']['python']}",
        "workloads": {
            name: {
                "end_to_end": workload["end_to_end"],
                "per_repeat": workload["per_repeat"],
                "segment_cost_s_quartiles": statistics.quantiles(workload["segment_cost_s"], n=4),
            }
            for name, workload in report["workloads"].items()
        },
    }
    with (ROOT / "BENCH_history.jsonl").open("a", encoding="utf-8") as history:
        history.write(json.dumps(line, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
