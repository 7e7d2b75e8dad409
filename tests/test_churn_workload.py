"""The churn/soak workload: bounded state and a fail-closed error probe."""

from repro.workloads import churn
from repro.workloads.churn import churn_flow, churn_soak, error_probe


class TestChurnSoak:
    def test_soak_keeps_state_bounded_and_drains(self):
        # A scaled-down soak (same rates as the 100k benchmark run).
        report = churn_soak(flows=8_000, working_set=128)
        assert report["bounded_within_2x"], report["violations"]
        # Steady state is bounded *and* the drain sweep reclaims everything.
        assert report["final_cache_entries"] == 0
        assert report["final_table_entries"] == 0
        assert report["cache_expirations"] == report["flows"]
        assert report["sweeps"] > 0

    def test_without_sweeps_state_grows_unbounded(self):
        # Sanity check that the bound is meaningful: with in-run sweeping
        # disabled the flow tables accumulate every install ever made
        # (the decision cache still self-drains at store time, which is
        # why its own bound holds regardless of the lifecycle service).
        flows, working_set = 4_000, 128
        report = churn_soak(flows=flows, working_set=working_set, sweep_interval=1e9)
        assert report["peak_table_entries"] == 2 * flows
        # Far beyond the 2x envelope a swept run stays inside.
        arrival_rate = working_set / churn.DECISION_TTL
        swept_expectation = 2 * arrival_rate * (churn.IDLE_TIMEOUT + 0.5)
        assert report["peak_table_entries"] > 2 * swept_expectation

    def test_report_dict_is_json_shaped(self):
        import json

        payload = churn_soak(flows=500, working_set=64)
        json.dumps(payload)  # must be serialisable for BENCH_results.json
        assert payload["flows"] == 500
        assert "bounded_within_2x" in payload

    def test_flows_are_unique_and_deterministic(self):
        flows = [churn_flow(i) for i in range(2_000)]
        assert len({f.as_tuple() for f in flows}) == len(flows)
        assert churn_flow(42) == churn_flow(42)


class TestErrorProbe:
    def test_pferror_flow_fails_closed(self):
        probe = error_probe()
        assert probe["healthy_flow_delivered"]
        assert not probe["error_flow_delivered"]
        assert probe["error_flow_audited"]
        assert probe["pending_after"] == 0
        assert probe["buffered_after"] == 0
        assert probe["failed_closed"]
