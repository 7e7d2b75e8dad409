#!/usr/bin/env python3
"""Wall-clock benchmark of the punt stack.

    python3 perf/run.py --seed 2009                       # every workload, full report
    python3 perf/run.py --workload punt_unique --seed 7   # one workload, end to end
    python3 perf/run.py --workload punt_unique --trace 1  # its per-layer trace

Every (workload, repeat) runs in a fresh interpreter, one at a time,
under a fixed ``PYTHONHASHSEED``; this process only spawns them, pools
their segments and prints.  The last line of standard output is one JSON
object ``{"correct", "attempted", "failed", "metrics"}``; the exit code
is non-zero when any output was incorrect.  See ``perf/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if not (ROOT / "src" / "repro").is_dir():
    sys.exit(f"perf/run.py: no program to measure ({ROOT / 'src' / 'repro'} is missing)")
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perf.harness import run_repeat  # noqa: E402
from perf.metrics import (  # noqa: E402
    end_to_end_metrics,
    per_layer_metrics,
    per_repeat_values,
    segment_costs,
    units,
)
from perf.tracing import Tracer  # noqa: E402
from perf.workloads import WORKLOADS  # noqa: E402

#: Untraced repeats per workload, each in its own interpreter.
REPEATS = 3
#: Set-ups per repeat; each is one ``setup_s`` sample.
SETUPS = 3
DEFAULT_SECONDS = 10.0


# ----------------------------------------------------------------------
# Child: one repeat in this interpreter
# ----------------------------------------------------------------------


def child_main(args: argparse.Namespace) -> int:
    workload = WORKLOADS[args.workload]
    size = workload.size_for(args.seconds, REPEATS)
    if args.trace:
        tracer = Tracer(keep_spans=bool(args.trace_out))
        with tracer.installed():
            result = run_repeat(workload, args.seed, size, tracer=tracer)
        result["shims_restored"] = tracer.restored()
        if args.trace_out:
            result["spans_written"] = tracer.write_spans(args.trace_out)
    else:
        result = run_repeat(workload, args.seed, size, setups=args.setups)
    print(json.dumps(result))
    return 0


def spawn_repeat(
    name: str, seed: int, seconds: float, *, traced: bool, setups: int, trace_out: str = ""
) -> dict:
    """Run one repeat in a fresh interpreter and return what it measured."""
    command = [
        sys.executable, str(Path(__file__).resolve()), "--child",
        "--workload", name, "--seed", str(seed), "--seconds", repr(seconds),
        "--setups", str(setups), "--trace", str(int(traced)),
    ]
    if trace_out:
        command += ["--trace-out", trace_out]
    # A fixed hash seed pins set iteration order and the hash-derived
    # host MACs, so a seed's virtual-time results are the same every run.
    env = dict(os.environ, PYTHONHASHSEED="0")
    started = time.perf_counter()
    done = subprocess.run(command, env=env, stdout=subprocess.PIPE, text=True, check=False)
    if done.returncode != 0:
        raise SystemExit(f"perf/run.py: repeat of {name} exited with {done.returncode}")
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["repeat_wall_s"] = time.perf_counter() - started
    return result


# ----------------------------------------------------------------------
# Checks across repeats
# ----------------------------------------------------------------------


def determinism_failures(name: str, repeats: list[dict]) -> list[str]:
    """Virtual-time results must be identical across repeats of one seed."""
    problems = []
    first = repeats[0]
    for index, other in enumerate(repeats[1:], start=1):
        for key in ("latency_vms", "timed_ops", "attempted"):
            if other[key] != first[key]:
                problems.append(
                    f"{name}: {key} differs between repeat 0 and repeat {index} of one seed: "
                    f"{first[key]} != {other[key]}"
                )
        if other["counters"]["events"] != first["counters"]["events"]:
            problems.append(f"{name}: simulated event count differs between repeats")
    return problems


# ----------------------------------------------------------------------
# Printing
# ----------------------------------------------------------------------


def print_end_to_end(name: str, metrics: dict, repeats: list[dict]) -> None:
    costs = sorted(cost for repeat in repeats for cost in segment_costs(repeat))
    quartiles = statistics.quantiles(costs, n=4) if len(costs) > 1 else costs * 3
    print(f"\n== {name}: end to end ({len(repeats)} untraced repeats, "
          f"{len(costs)} pooled segments) ==")
    for metric, value in metrics.items():
        print(f"  {metric:<22} {value:>14.4f} {units(metric)}")
    print(f"  segment cost us/op: q1 {1e6 * quartiles[0]:.1f}  median {1e6 * quartiles[1]:.1f}"
          f"  q3 {1e6 * quartiles[2]:.1f}  (not gated)")
    for metric, values in per_repeat_values(repeats).items():
        print(f"  {metric} per repeat: {', '.join(f'{value:.4f}' for value in values)}")
    latency = repeats[0]["latency_vms"]
    print(f"  op_latency_vms over {latency['count']} passed ops; "
          f"{int(latency['count'] * 0.01)} samples beyond p99")
    attempted = sum(r["attempted"] for r in repeats)
    failed = sum(r["failed"] for r in repeats)
    print(f"  failed_share {failed / attempted:.6f} ({failed} of {attempted} ops)")
    for repeat in repeats:
        for failure in repeat["failures"]:
            print(f"  FAILED {failure}")


def print_per_layer(name: str, metrics: dict, traced: dict) -> None:
    print(f"\n== {name}: per layer (one traced repeat; trace_hash {traced['trace_hash'][:16]}) ==")
    for metric, value in metrics.items():
        print(f"  {metric:<44} {value:>14.4f} {units(metric)}")
    timed = traced["trace"]["timed_layers"]
    unattributed = timed.get("unattributed", {"self_ns": 0})["self_ns"]
    print(f"  unattributed: {unattributed / 1e3 / max(1, traced['timed_ops']):.2f} us/op in spans "
          f"of no layer; the rest of 1 - coverage is outside any span")
    if traced["trace"]["missing_entry_points"]:
        print(f"  entry points not found: {traced['trace']['missing_entry_points']}")
    if traced["sanitizer_reports"]:
        print(f"  sanitizer reports: {traced['sanitizer_reports']}")


# ----------------------------------------------------------------------
# Parent
# ----------------------------------------------------------------------


def metadata(args: argparse.Namespace) -> dict:
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True, check=False,
        ).stdout.strip() or "unknown"
    except OSError:
        commit = "unknown"
    return {
        "commit": commit,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "seconds": args.seconds,
        "repeats": REPEATS,
        "setups_per_repeat": SETUPS,
    }


def parent_main(args: argparse.Namespace) -> int:
    names = [args.workload] if args.workload else list(WORKLOADS)
    report: dict = {"meta": metadata(args), "workloads": {n: {} for n in names}}
    problems: list[str] = []
    attempted = failed = 0
    #: The metrics of the result line: the requested kind, every workload.
    result_metrics: dict[str, dict] = {}
    single = bool(args.workload)
    # With --workload only the requested kind of metric is measured.
    measure_end_to_end = not (single and args.trace)
    measure_layers = not (single and not args.trace)

    def add_result(name: str, metrics: dict) -> None:
        for metric, value in metrics.items():
            key = metric if single else f"{name}:{metric}"
            result_metrics[key] = {"value": value, "unit": units(metric)}

    if measure_end_to_end:
        # Interleaved W1 W2 W3 W4 W1 ...: each workload samples several
        # phases of the machine's noise instead of one.
        untraced: dict[str, list[dict]] = {n: [] for n in names}
        for _ in range(REPEATS):
            for name in names:
                untraced[name].append(
                    spawn_repeat(name, args.seed, args.seconds, traced=False, setups=SETUPS)
                )
        for name in names:
            repeats = untraced[name]
            metrics = end_to_end_metrics(repeats)
            print_end_to_end(name, metrics, repeats)
            problems += determinism_failures(name, repeats)
            attempted += sum(r["attempted"] for r in repeats)
            failed += sum(r["failed"] for r in repeats)
            report["workloads"][name].update(
                end_to_end=metrics,
                per_repeat=per_repeat_values(repeats),
                setup_samples_s=[s for r in repeats for s in r["setup_s"]],
                segment_cost_s=sorted(c for r in repeats for c in segment_costs(r)),
                repeat_wall_s=[r["repeat_wall_s"] for r in repeats],
                attempted=sum(r["attempted"] for r in repeats),
                failed=sum(r["failed"] for r in repeats),
                failures=[f for r in repeats for f in r["failures"]],
                invariants=repeats[0]["invariants"],
                size=repeats[0]["size"],
            )
            if not args.trace:
                add_result(name, metrics)

    if measure_layers:
        for name in names:
            plain = spawn_repeat(name, args.seed, args.seconds, traced=False, setups=1)
            traced = spawn_repeat(
                name, args.seed, args.seconds, traced=True, setups=1,
                trace_out=args.trace_out if single else "",
            )
            metrics = per_layer_metrics(plain, traced)
            print_per_layer(name, metrics, traced)
            if not traced["shims_restored"]:
                problems.append(f"{name}: a traced entry point was not restored")
            if traced["latency_vms"] != plain["latency_vms"]:
                problems.append(f"{name}: tracing changed the virtual-time latencies")
            attempted += traced["attempted"] + plain["attempted"]
            failed += traced["failed"] + plain["failed"]
            for repeat in (plain, traced):
                for failure in repeat["failures"]:
                    print(f"  FAILED {failure}")
            report["workloads"][name].update(
                per_layer=metrics,
                trace_hash=traced["trace_hash"],
                timed_names=traced["trace"]["timed_names"],
            )
            if args.trace:
                add_result(name, metrics)

    for problem in problems:
        print(f"FAILED {problem}")
    correct = failed == 0 and not problems
    print(f"\n{'ok' if correct else 'INCORRECT'}: {attempted} ops attempted, {failed} failed, "
          f"{len(problems)} cross-repeat checks failed")
    report.update(correct=correct, attempted=attempted, failed=failed, problems=problems)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed, "metrics": result_metrics,
    }))
    return 0 if correct else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), help="default: all four")
    parser.add_argument("--seed", type=int, default=2009)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="sizes a workload's untraced repeats to about this much timed "
                             "host time in total on the reference box")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="which metrics the result line carries: 0 end to end, 1 per layer "
                             "(with --workload only that kind is measured)")
    parser.add_argument("--out", help="write the full JSON report here")
    parser.add_argument("--trace-out", default="", help="write the traced repeat's spans (JSON lines)")
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setups", type=int, default=1, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return child_main(args) if args.child else parent_main(args)


if __name__ == "__main__":
    raise SystemExit(main())
