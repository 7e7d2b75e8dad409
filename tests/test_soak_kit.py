"""The soak kit: tables, gates, the entry point — and the soaks pinned to
the committed ``BENCH_results.json``."""

import importlib.util
import json
import operator
import subprocess
import sys
from pathlib import Path

import pytest

from repro.hosts.endhost import EndHost
from repro.workloads import (
    cluster,
    decision_core,
    determinism,
    experiment,
    fabric,
    paper,
    queryload,
    scenarios,
    soak,
)
from repro.workloads.soak import Gate, Soak, failed_gates
from tools.check_docs import CI_WORKFLOW, check_ci_soaks

REPO_ROOT = Path(__file__).resolve().parent.parent
COMMITTED = json.loads((REPO_ROOT / "BENCH_results.json").read_text())["results"]

#: Host time: differs run to run, everything else is exact for a seed.
HOST_TIME_KEYS = {"wall_seconds"}


def _without_host_time(value):
    if isinstance(value, dict):
        return {
            key: _without_host_time(item)
            for key, item in value.items()
            if key not in HOST_TIME_KEYS
        }
    return value


def _nested(path: str, value) -> dict:
    """Return ``{"a": {"b": value}}`` for ``"a.b"``."""
    for key in reversed(path.split(".")):
        value = {key: value}
    return value


class TestCommittedResultsReproduce:
    """The sub-second soak steps must return what ``make bench`` recorded."""

    @pytest.mark.parametrize(
        "name, entry",
        [
            ("fabric", "fabric_scale_bench"),
            ("queryload", "query_cache_bench"),
            ("telemetry", "telemetry_conficker_detection"),
            # The paper's E1-E12: virtual time and counts, every leaf pinned.
            *(("paper", step) for step, _ in paper.SOAK.steps),
            # Every cell of the scenario matrix, every repeat's verdicts.
            ("matrix", "experiment_matrix"),
            # Both scenarios twice at the committed seed: the trace hashes,
            # the audit digests, the event counts and the verdict.
            ("determinism", "determinism_double_run"),
        ],
    )
    def test_step_equals_the_committed_entry(self, name, entry):
        step = dict(soak.load(name).steps)[entry]
        # Through JSON, as make bench writes it: a live entry may hold tuples.
        live = json.loads(json.dumps(step()))
        assert _without_host_time(live) == _without_host_time(COMMITTED[entry])

    def test_cluster_soak_runs_green_and_equals_the_committed_entries(
        self, monkeypatch, capsys
    ):
        seen = {}

        def spy(results, gates):
            seen.update(results)
            return failed_gates(results, gates)

        monkeypatch.setattr(soak, "failed_gates", spy)
        assert soak.main(["cluster"]) == 0
        assert cluster.SOAK.ok in capsys.readouterr().out
        assert set(seen) == {"cluster_scale_1_to_4", "cluster_failover_churn"}
        for entry, result in seen.items():
            assert _without_host_time(result) == _without_host_time(COMMITTED[entry])


class TestGates:
    @pytest.mark.parametrize(
        "table, path, on_bound, past_bound",
        [
            (decision_core.SOAK, "decision_overlap_bench.async_degradation", 2.0, 2.001),
            (decision_core.SOAK, "decision_overlap_bench.overlap_speedup", 5.0, 4.99),
            (cluster.SOAK, "cluster_scale_1_to_4.speedup", 3.0, 2.99),
            (fabric.SOAK, "fabric_scale_bench.slowdown_vs_single_switch", 1.5, 1.51),
            (queryload.SOAK, "query_cache_bench.speedup", 5.0, 4.99),
            (paper.SOAK, "paper_e1_flow_setup.min_query_share", 0.8, 0.799),
            (paper.SOAK, "paper_e10_setup_vs_ethane.overhead_vs_queries_plus_eval", 1.0, 0.999),
            (paper.SOAK, "paper_e10_setup_vs_ethane.overhead_vs_queries_plus_eval", 1.05, 1.051),
            (paper.SOAK, "paper_e10_setup_vs_ethane.ethane_end_host_queries", 0, 1),
            (decision_core.SOAK, "soak_async_decisions.events_per_decision", 8.0, 8.001),
            (decision_core.SOAK, "soak_async_decisions.msgs_per_decision", 5.1, 5.101),
            (determinism.SOAK, "determinism_double_run.all_identical", True, False),
            (determinism.SOAK, "determinism_double_run.delivery_violations", 0, 1),
        ],
    )
    def test_a_value_on_the_bound_passes_and_one_step_past_fails(
        self, table, path, on_bound, past_bound
    ):
        # A path may carry a floor and a ceiling: the bound picks the row.
        (gate,) = [g for g in table.gates if (g.path, g.bound) == (path, on_bound)]
        assert failed_gates(_nested(path, on_bound), [gate]) == []
        (failure,) = failed_gates(_nested(path, past_bound), [gate])
        assert str(past_bound) in failure

    def test_every_failing_gate_and_listed_violation_is_printed(self, monkeypatch, capsys):
        def step():
            """Return a canned entry."""
            return {"speedup": 1.0, "depth": 9, "violations": ["lost a flow"]}

        table = Soak(
            steps=(("canned", step),),
            gates=(
                Gate("canned.speedup", operator.ge, 3.0, "speedup {value}x too low"),
                Gate("canned.depth", operator.le, 4, "depth {value} too deep"),
            ),
            ok="all clear",
        )
        monkeypatch.setattr(soak, "load", lambda name: table)
        assert soak.main(["cluster"]) == 1
        out = capsys.readouterr().out
        assert "FAIL: speedup 1.0x too low" in out
        assert "FAIL: depth 9 too deep" in out
        assert "FAIL: canned: lost a flow" in out
        assert "all clear" not in out


def _load_run_benchmarks():
    spec = importlib.util.spec_from_file_location(
        "run_benchmarks", REPO_ROOT / "benchmarks" / "run_benchmarks.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestGatePathsResolve:
    """A mistyped gate path fails here, not at the end of a ``make bench`` run."""

    @pytest.mark.parametrize(
        "path",
        sorted(
            {gate.path for name in soak.SOAKS for gate in soak.load(name).gates}
            | {gate.path for gate in _load_run_benchmarks().GATES}
        ),
    )
    def test_every_gate_path_names_a_committed_value(self, path):
        soak.recorded(COMMITTED, path)


class TestNothingDecided:
    """A step whose network decides nothing reports finite numbers and fails."""

    @pytest.mark.parametrize(
        "module, entry",
        [(fabric, "fabric_scale_bench"), (decision_core, "decision_overlap_bench")],
    )
    def test_entry_is_finite_and_a_gate_fails(self, monkeypatch, module, entry):
        monkeypatch.setattr(module, "open_web_flows", lambda *args, **kwargs: [])
        step = dict(module.SOAK.steps)[entry]
        results = {entry: step()}
        json.dumps(results, allow_nan=False)  # raises on inf / nan
        assert failed_gates(results, [g for g in module.SOAK.gates if g.path.startswith(entry)])


class TestPaperExpectations:
    """The ``paper`` soak states what the paper expects, and says so when it is missed."""

    def test_a_missed_verdict_fails_the_soak_and_tells_the_case_story(self, monkeypatch, capsys):
        build_cases = scenarios.SkypeScenario.build_cases

        def wrong_about_old_skype(self):
            cases = build_cases(self)
            (case,) = [case for case in cases if case.label == "skype older than version 200"]
            case.expected = "pass"
            return cases

        monkeypatch.setattr(scenarios.SkypeScenario, "build_cases", wrong_about_old_skype)
        assert soak.main(["paper"]) == 1
        out = capsys.readouterr().out
        (failure,) = [line for line in out.splitlines() if line.startswith("FAIL:")]
        assert "paper_e2_skype: skype older than version 200" in failure
        assert "expects pass, observed block (not delivered)" in failure
        # ... and the rule that decided it, verbatim from Figure 2's 50-skype.control.
        assert "lt(@src[version], 200)" in failure
        assert paper.SOAK.ok not in out

    def test_an_undelivered_first_packet_is_a_failure_line_not_a_json_crash(self, monkeypatch):
        monkeypatch.setattr(EndHost, "receive", lambda self, packet, in_port: None)
        results = {
            name: step() for name, step in paper.SOAK.steps
            if name in ("paper_e1_flow_setup", "paper_e10_setup_vs_ethane")
        }
        json.dumps(results, allow_nan=False)  # None, not NaN
        assert all(row["end_to_end_ms"] is None for row in results["paper_e1_flow_setup"]["rows"])
        failures = failed_gates(results, paper.SOAK.gates)
        assert (
            "paper_e1_flow_setup: first packet never delivered at switches=1, latency=0.05 ms"
            in failures
        )
        assert any("identpp" in failure and "never delivered" in failure for failure in failures)
        assert any("less than it must pay" in failure for failure in failures)


class TestMatrixExpectations:
    """A cell that breaks an invariant fails ``make soak_matrix`` and says where."""

    def test_a_planted_violation_names_the_cell_the_seed_and_the_invariant(
        self, monkeypatch, capsys
    ):
        (cell, *_) = experiment.default_matrix()
        monkeypatch.setattr(experiment, "default_matrix", lambda: [cell])
        state_caps = experiment._state_caps

        def no_flow_entries(ctx):
            return {**state_caps(ctx), "flow_table_peak": 0.0}

        monkeypatch.setattr(experiment, "_state_caps", no_flow_entries)
        assert soak.main(["matrix"]) == 1
        out = capsys.readouterr().out
        failures = [line for line in out.splitlines() if line.startswith("FAIL:")]
        for seed in (cell.seed, cell.seed + 1):
            assert any(
                line.startswith(
                    f"FAIL: experiment_matrix: {cell.name} (seed {seed}): [bounded_state] "
                    "structure 'flow_table_peak' reached"
                )
                for line in failures
            ), failures
        assert experiment.SOAK.ok not in out


class TestEntryPoint:
    def _run(self, *argv):
        return subprocess.run(
            [sys.executable, "-m", "repro.workloads.soak", *argv],
            cwd=REPO_ROOT,
            env={"PYTHONPATH": str(REPO_ROOT / "src")},
            capture_output=True,
            text=True,
            timeout=120,
        )

    def test_a_known_soak_exits_zero(self):
        done = self._run("paper")
        assert done.returncode == 0, done.stdout + done.stderr
        assert paper.SOAK.ok in done.stdout

    def test_an_unknown_name_lists_the_known_soaks(self):
        done = self._run("no-such-soak")
        assert done.returncode != 0
        for name in soak.SOAKS:
            assert name in done.stderr

    def test_ci_runs_one_job_per_soak_and_a_dropped_name_fails_the_docs_check(self):
        workflow = (REPO_ROOT / CI_WORKFLOW).read_text()
        assert check_ci_soaks(workflow) == []
        assert check_ci_soaks(workflow.replace("cluster, ", "", 1)) == [
            f"{CI_WORKFLOW}: the soak matrix does not list the soak `cluster`"
        ]
