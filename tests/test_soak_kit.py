"""The soak kit: tables, gates, the entry point — and the soaks pinned to
the committed ``BENCH_results.json``."""

import json
import operator
import subprocess
import sys
from pathlib import Path

import pytest

from repro.workloads import cluster, decision_core, fabric, queryload, soak
from repro.workloads.soak import Gate, Soak, failed_gates

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
        ],
    )
    def test_step_equals_the_committed_entry(self, name, entry):
        step = dict(soak.load(name).steps)[entry]
        assert _without_host_time(step()) == _without_host_time(COMMITTED[entry])

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
        ],
    )
    def test_a_value_on_the_bound_passes_and_one_step_past_fails(
        self, table, path, on_bound, past_bound
    ):
        (gate,) = [gate for gate in table.gates if gate.path == path]
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
        done = self._run("push")
        assert done.returncode == 0, done.stdout + done.stderr
        assert queryload.SOAK_PUSH.ok in done.stdout

    def test_an_unknown_name_lists_the_known_soaks(self):
        done = self._run("no-such-soak")
        assert done.returncode != 0
        for name in soak.SOAKS:
            assert name in done.stderr
