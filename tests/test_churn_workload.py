"""The churn/soak workload: bounded state and a fail-closed error probe."""

from repro.workloads.churn import ChurnConfig, ChurnSoak, error_probe


class TestChurnSoak:
    def test_soak_keeps_state_bounded_and_drains(self):
        # A scaled-down soak (same rates as the 100k benchmark run).
        report = ChurnSoak(ChurnConfig(flows=8_000, working_set=128)).run()
        assert report.bounded(2.0), report.violations
        # Steady state is bounded *and* the drain sweep reclaims everything.
        assert report.final_cache_entries == 0
        assert report.final_state_entries == 0
        assert report.final_table_entries == 0
        assert report.cache_expirations == report.flows
        assert report.sweeps > 0

    def test_without_sweeps_state_grows_unbounded(self):
        # Sanity check that the bound is meaningful: with in-run sweeping
        # disabled the flow tables accumulate every install ever made
        # (the decision cache still self-drains at store time, which is
        # why its own bound holds regardless of the lifecycle service).
        config = ChurnConfig(flows=4_000, working_set=128, sweep_interval=1e9)
        report = ChurnSoak(config).run()
        assert report.peak_table_entries == 2 * config.flows
        # Far beyond the 2x envelope a swept run stays inside.
        swept_expectation = 2 * config.arrival_rate * (config.idle_timeout + 0.5)
        assert report.peak_table_entries > 2 * swept_expectation

    def test_report_dict_is_json_shaped(self):
        import json

        report = ChurnSoak(ChurnConfig(flows=500, working_set=64)).run()
        payload = report.as_dict()
        json.dumps(payload)  # must be serialisable for BENCH_results.json
        assert payload["flows"] == 500
        assert "bounded_within_2x" in payload

    def test_flows_are_unique_and_deterministic(self):
        flows = [ChurnSoak._flow(i) for i in range(2_000)]
        assert len({f.as_tuple() for f in flows}) == len(flows)
        assert ChurnSoak._flow(42) == ChurnSoak._flow(42)


class TestErrorProbe:
    def test_pferror_flow_fails_closed(self):
        probe = error_probe()
        assert probe["healthy_flow_delivered"]
        assert not probe["error_flow_delivered"]
        assert probe["error_flow_audited"]
        assert probe["pending_after"] == 0
        assert probe["buffered_after"] == 0
        assert probe["failed_closed"]
