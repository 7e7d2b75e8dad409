"""End-to-end checks that every paper figure's scenario behaves as described.

These are the highest-level integration tests in the suite: each one
stands up the full simulated network for a figure, drives the flow
matrix through switches, controller, ident++ queries and PF+=2 policy,
and asserts the verdicts match the paper's prose.
"""

import pytest

from repro.analysis.report import format_table
from repro.exceptions import WorkloadError
from repro.workloads.comparative import (
    SecurityComparisonScenario,
    collaboration,
    nat_identification,
    partial_deployment,
)
from repro.workloads.generators import FlowGenerator, FlowTemplate, zipf_weights
from repro.workloads.scenarios import (
    ConfickerScenario,
    ResearchDelegationScenario,
    SkypeScenario,
    ThirdPartyTrustScenario,
    flow_setup,
    tamper,
)


# -- E1: Figure 1 ------------------------------------------------------------

class TestFlowSetup:
    def test_flow_is_delivered_and_latency_decomposes(self):
        measurement = flow_setup(switch_count=2)
        assert measurement["delivered"]
        assert measurement["query_latency"] > 0
        # the controller's decision time includes the queries and the policy
        assert measurement["controller_decision_latency"] >= measurement["query_latency"]
        # end-to-end delivery includes the decision plus datapath traversal
        assert measurement["end_to_end_delivery"] > measurement["controller_decision_latency"]

    def test_latency_grows_with_link_latency(self):
        fast = flow_setup(switch_count=2, link_latency=50e-6)
        slow = flow_setup(switch_count=2, link_latency=5e-3)
        assert slow["end_to_end_delivery"] > fast["end_to_end_delivery"]
        assert slow["query_latency"] > fast["query_latency"]


# -- E2..E6: Figures 2-8 -----------------------------------------------------

@pytest.mark.parametrize("scenario_class", [
    SkypeScenario, ResearchDelegationScenario, ThirdPartyTrustScenario, ConfickerScenario,
])
def test_figure_scenarios_match_paper_expectations(scenario_class):
    entry = scenario_class().run()
    assert entry["rows"] and all(row["correct"] for row in entry["rows"])
    assert not entry["violations"], "unexpected verdicts: " + "; ".join(entry["violations"])


def test_tampering_with_text_the_figure_does_not_hold_is_an_error():
    # A silent no-op would leave the "tampered" host reporting honest rules.
    assert tamper("block all pass all", "block all ", "") == "pass all"
    with pytest.raises(WorkloadError, match="nothing to tamper with"):
        tamper("block all pass all", "block every", "")


class TestSkypeScenarioDetails:
    def test_delegated_and_blocked_counts(self):
        scenario = SkypeScenario()
        rows = scenario.run()["rows"]
        passes = [row for row in rows if row["expected"] == "pass"]
        blocks = [row for row in rows if row["expected"] == "block"]
        assert len(passes) == 5 and len(blocks) == 4
        audit = scenario.net.controller.audit.summary()
        assert audit["pass"] >= len(passes)
        assert audit["block"] >= len(blocks)


class TestResearchScenarioDetails:
    def test_delegation_recorded_in_audit(self):
        scenario = ResearchDelegationScenario()
        scenario.run()
        delegated = scenario.net.controller.audit.delegated_decisions()
        assert any(record.action == "pass" for record in delegated)


# -- E7: collaboration --------------------------------------------------------

class TestCollaboration:
    def test_collaboration_saves_bottleneck_traffic(self):
        without = collaboration(collaborate=False, flows=12, packets_per_flow=3)
        with_collab = collaboration(collaborate=True, flows=12, packets_per_flow=3)
        assert with_collab["bottleneck_bytes"] < without["bottleneck_bytes"]
        # wanted traffic is unaffected
        assert with_collab["wanted_delivered"] == without["wanted_delivered"]
        # the remote controller sees less load
        assert with_collab["remote_packet_ins"] < without["remote_packet_ins"]
        # unwanted traffic never reaches branch B hosts either way
        assert without["unwanted_delivered"] == with_collab["unwanted_delivered"] == 0

    @pytest.mark.parametrize("fraction, unwanted", [(0.25, 3), (0.5, 6), (0.75, 9), (1.0, 12)])
    def test_the_unwanted_share_is_the_one_asked_for(self, fraction, unwanted):
        # Used to flat-line at half: only even-indexed flows could be unwanted.
        result = collaboration(flows=12, unwanted_fraction=fraction, packets_per_flow=1)
        assert result["unwanted_flows"] == unwanted
        assert result["wanted_delivered"] == 12 - unwanted


# -- E8: incremental benefit ---------------------------------------------------

class TestIncrementalBenefit:
    def test_nat_user_identification(self):
        with_daemon = nat_identification(flows_per_user=3)
        assert with_daemon["identified_fraction"] == 1.0
        assert with_daemon["distinct_users_reported"] == with_daemon["distinct_users_actual"] == 2
        without_daemon = nat_identification(flows_per_user=3, with_daemon=False)
        assert without_daemon["identified_fraction"] == 0.0

    def test_partial_deployment_sweep_points(self):
        half = partial_deployment(clients=4, deployment_fraction=0.5)
        assert half["allowed_fraction"] == 0.5
        helped = partial_deployment(clients=4, deployment_fraction=0.5,
                                    controller_answers_for_legacy=True)
        assert helped["allowed_fraction"] == 1.0
        full = partial_deployment(clients=4, deployment_fraction=1.0)
        assert full["allowed_fraction"] == 1.0


# -- E9: security matrix --------------------------------------------------------

class TestSecurityMatrix:
    def test_matrix_shape_and_ordering(self):
        scenario = SecurityComparisonScenario()
        matrix = scenario.build_matrix()
        assert len(matrix.architectures()) == 5
        assert len(matrix.scenarios()) == 4

        def exposure(arch, scenario_name):
            for row in matrix.exposure_rows():
                if scenario_name in row["scenario"]:
                    return row[arch]
            raise AssertionError(scenario_name)

        # controller compromise disables everything everywhere (§5.1)
        assert exposure("identpp", "controller") == 1.0
        assert exposure("vanilla-firewall", "controller") == 1.0
        # a compromised switch does not affect end-host-enforced firewalls (§6)
        assert exposure("distributed-firewall", "switch") < 1.0
        # under ident++ an application compromise is confined to that user's
        # privileges; owning the whole host (and daemon) is strictly worse (§5.3/5.4)
        assert exposure("identpp", "user-application") <= exposure("identpp", "end-host")
        # spoofed daemon responses fool ident++ but not address-based baselines (§5.3)
        assert exposure("identpp", "end-host") >= exposure("vanilla-firewall", "end-host")

    def test_truthful_attacker_is_mostly_contained_by_identpp(self):
        scenario = SecurityComparisonScenario()
        allowed = [p for p in scenario.probes if scenario.identpp_decider_truthful(p)]
        # an unapproved tool under the attacker's own identity gets nowhere
        assert allowed == []


# -- workload generators and report helpers -------------------------------------

class TestGeneratorsAndReport:
    def make_templates(self):
        return [
            FlowTemplate("c1", "s1", "192.168.0.10", "192.168.1.1", 80, "http", "alice"),
            FlowTemplate("c2", "s1", "192.168.0.11", "192.168.1.1", 22, "ssh", "bob"),
        ]

    def test_zipf_weights_normalised_and_skewed(self):
        weights = zipf_weights(5, 1.0)
        assert abs(sum(weights) - 1.0) < 1e-9
        assert weights[0] > weights[-1]
        with pytest.raises(Exception):
            zipf_weights(0)

    def test_flow_generator_deterministic(self):
        first = FlowGenerator(self.make_templates(), seed=7)
        second = FlowGenerator(self.make_templates(), seed=7)
        draws_a = [flow.as_tuple() for _, flow in first.sequence(10)]
        draws_b = [flow.as_tuple() for _, flow in second.sequence(10)]
        assert draws_a == draws_b

    def test_flow_generator_zipf_prefers_popular(self):
        generator = FlowGenerator(self.make_templates(), seed=1, zipf_skew=2.0)
        counts = {"c1": 0, "c2": 0}
        for _ in range(200):
            template = generator.draw_template()
            counts[template.src_host] += 1
        assert counts["c1"] > counts["c2"]

    def test_sequence_reuses_flows_for_established_traffic(self):
        generator = FlowGenerator(self.make_templates(), seed=1)
        flows = [flow for _, flow in generator.sequence(50, new_connection_probability=0.1)]
        assert len({flow.as_tuple() for flow in flows}) < len(flows)

    def test_format_table(self):
        rows = [{"x": 1, "y": 10.0, "z": 3}, {"x": 2, "y": 20.0, "z": None}]
        text = format_table(rows, title="demo")
        assert "demo" in text and "x" in text and "20" in text
        assert format_table([]) == "(no rows)"
