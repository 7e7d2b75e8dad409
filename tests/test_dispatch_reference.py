"""One answer arrival per pass-through punt decides what two answer events decided.

A pass-through punt (query engine off, no on-path interceptors) has the
engine resolve both ends and schedule **one** arrival event, at the
later answer's instant, that hands both outcomes to the controller's
``_answers_ready``.  ``tests/reference_dispatch.py`` holds the dispatch
as it stood: one ``QueryEngine.query_async`` future per end, joined by
``Future.gather``.  Nothing could be scheduled between the two answer
events of a punt, so the one event sits where the later of them was
served.  The property here is that nothing recorded tells the two apart:
hypothesis builds one small network per draw — pass-through, TTL cache,
negative answers from a daemon-less client, coalesced lookups on a hot
server, resident answers on the push plane, intercepted queries; async
or serial core, serialized eval or not, deadlines that fire mid-query,
same-instant ties served in reverse — drives it with the same generated
waves of flows both ways, and requires the same audit record lines, the
same delivered packets at the same instants, the same sanitizer findings,
the same engine counters and the same order of every event that is not
an answer's arrival.
"""

from __future__ import annotations

from hypothesis import example, given, settings, strategies as st

from repro.core.audit import record_line
from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPNetwork
from repro.netsim.sanitizer import SimulationSanitizer, callback_name
from tests.reference_dispatch import use_reference_dispatch

SERVER_IP = "10.1.0.1"
CLIENTS = 3
#: A label every answer arrival carries: per role, shared, or both at once.
ANSWER_PREFIX = "identpp:answer"


class Recorder(SimulationSanitizer):
    """A sanitizer that also keeps every fired event's time, label, callback and riders."""

    def __init__(self, sim) -> None:
        super().__init__(sim)
        self.fired: list[tuple] = []

    def on_event(self, event) -> None:
        super().on_event(event)
        self.fired.append(
            (event.time, event.label, callback_name(event.callback), len(event.riders or ()))
        )


def run_world(case: dict, waves: list) -> tuple[dict, list[str]]:
    """Build the drawn network and run ``waves`` through it.

    Returns what it recorded, answer events left out, and the labels of
    the answer events in firing order.
    """
    config = ControllerConfig(
        decision_core=case["core"],
        serialize_decisions=case["serialize"],
        nonblocking_inbox=case["inbox"],
        policy_eval_delay=20e-6,
        idle_timeout=0.05,
        hard_timeout=0.05,
        lifecycle_interval=0.05,
        decision_ttl=case["decision_ttl"],
        pending_deadline=case["deadline"],
        query_cache_ttl=case["ttl"],
        identity_plane=case["plane"],
        push_promote_punts=2,
    )
    net = IdentPPNetwork("dispatch", controller_config=config, policy_default_action="block")
    sim = net.topology.sim
    sim.enable_sanitizer(perturb_ties=case["perturb"])
    recorder = sim.sanitizer = Recorder(sim)
    edge, core = net.add_switch("sw-edge"), net.add_switch("sw-core")
    net.connect(edge, core)
    clients = [
        net.add_host(
            HostSpec(
                name=f"client{index}",
                ip=f"10.0.0.{index + 1}",
                users={"alice": ("users",)},
                run_daemon=case["legacy"] != f"client{index}",
            ),
            switch=edge,
        )
        for index in range(CLIENTS)
    ]
    # A legacy host runs no daemon: every query about it times out.
    server = net.add_host(
        HostSpec(name="server", ip=SERVER_IP, run_daemon=case["legacy"] != "server"),
        switch=core,
    )
    server.run_server("httpd", "root", 80)
    net.set_policy({"00.control": "block all\npass from any to any port 80\n"})
    for daemon in net.daemons.values():
        daemon.processing_delay = case["processing"]
    controller = net.controller
    if case["intercept"]:
        # The controller vouches for client0 on its own queries (§3.4).
        controller.interception.answer_for_host(
            clients[0].ip, {"userID": "registered-host", "groupID": "users"}
        )
        controller.add_peer_interceptor(controller.interception)
    for flows, gap in waves:
        for client, port in flows:
            clients[client].open_flow("http", "alice", SERVER_IP, port)
        net.run(duration=gap)
    net.run()
    client = controller.query_client
    observed = {
        "audit": [record_line(record) for record in controller.audit.records()],
        "delivered": {host.name: list(host.delivered_times) for host in net.hosts.values()},
        "events": [event for event in recorder.fired if not event[1].startswith(ANSWER_PREFIX)],
        "findings": [(r.kind, r.time, r.detail) for r in recorder.reports],
        "engine": controller.query_engine.stats(),
        "client": (client.queries_sent, client.queries_timed_out),
        "query_latency": controller.query_latency.samples(),
        "flow_setup": controller.flow_setup_latency.samples(),
        "pending": controller.inflight_count(),
    }
    answers = [event[1] for event in recorder.fired if event[1].startswith(ANSWER_PREFIX)]
    return observed, answers


CASES = st.fixed_dictionaries(
    {
        "core": st.sampled_from(["async", "serial"]),
        "serialize": st.booleans(),
        "inbox": st.booleans(),
        "decision_ttl": st.sampled_from([0.01, 1.0]),
        "deadline": st.sampled_from([5.0, 0.0015]),
        "ttl": st.sampled_from([0.0, 0.03]),
        "plane": st.sampled_from(["pull", "push"]),
        "legacy": st.sampled_from(["", "client0", "server"]),
        "intercept": st.booleans(),
        "processing": st.sampled_from([0.0, 500e-6]),
        "perturb": st.booleans(),
    }
)
WAVES = st.lists(
    st.tuples(
        st.lists(
            st.tuples(st.integers(0, CLIENTS - 1), st.sampled_from([80, 80, 80, 23])),
            min_size=1,
            max_size=6,
        ),
        st.sampled_from([0.0, 0.0004, 0.002, 0.03]),
    ),
    min_size=1,
    max_size=5,
)


def _case(**overrides) -> dict:
    case = dict(
        core="async", serialize=True, inbox=True, decision_ttl=1.0, deadline=5.0,
        ttl=0.0, plane="pull", legacy="", intercept=False, processing=500e-6,
        perturb=False,
    )
    case.update(overrides)
    return case


#: Waves of four flows across the three clients (one to the blocked
#: port) — while the first answers are on the wire, once they are in,
#: once a timeout has landed — then a burst from one client.
_MIXED = [(0, 80), (1, 80), (2, 23), (1, 80)]
_BURSTS = [(_MIXED, 0.0004), (_MIXED, 0.01), (_MIXED, 0.05), ([(0, 80)] * 4, 0.03)]


@settings(max_examples=60, deadline=None)
@given(case=CASES, waves=WAVES)
@example(case=_case(), waves=_BURSTS)  # pass-through
@example(case=_case(perturb=True, serialize=False), waves=_BURSTS)  # ties reversed
@example(case=_case(ttl=0.03), waves=_BURSTS)  # TTL hits and coalesced lookups
@example(case=_case(ttl=0.03, legacy="server"), waves=_BURSTS)  # negative answers
@example(case=_case(ttl=0.03, plane="push"), waves=_BURSTS)  # resident answers
@example(case=_case(legacy="client0", intercept=True), waves=_BURSTS)  # intercepted
@example(case=_case(core="serial", deadline=0.0015), waves=_BURSTS)  # stale answers
def test_one_arrival_decides_what_two_answer_events_decided(case, waves):
    world, _ = run_world(case, waves)
    with use_reference_dispatch():
        reference, _ = run_world(case, waves)
    assert world == reference


def test_a_pass_through_punt_fires_one_answer_event_where_two_fired():
    world, answers = run_world(_case(), _BURSTS)
    with use_reference_dispatch():
        reference, reference_answers = run_world(_case(), _BURSTS)
    assert world == reference
    punts = world["client"][0] // 2
    assert punts > 0
    assert answers == ["identpp:answer:both"] * punts
    assert sorted(reference_answers) == sorted(
        ["identpp:answer:src", "identpp:answer:dst"] * punts
    )


def test_the_differential_reaches_every_lookup_kind():
    """The named examples above reach what they are named for."""
    worlds = {
        name: run_world(_case(**overrides), _BURSTS)[0]
        for name, overrides in {
            "ttl": dict(ttl=0.03),
            "negative": dict(ttl=0.03, legacy="server"),
            "push": dict(ttl=0.03, plane="push"),
            "intercept": dict(legacy="client0", intercept=True),
            "stale": dict(core="serial", deadline=0.0015),
        }.items()
    }
    assert worlds["ttl"]["engine"]["hits"] > 0
    assert worlds["ttl"]["engine"]["coalesced"] > 0
    assert worlds["negative"]["engine"]["negative_hits"] > 0
    assert worlds["push"]["engine"]["resident_hits"] > 0
    # The interceptor's answer for client0 decided its flows.
    assert any("registered-host" in line for line in worlds["intercept"]["audit"])
    assert worlds["stale"]["findings"]
