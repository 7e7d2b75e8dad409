"""Flow-state lifecycle: bounded caches, fail-closed punts, expiry bookkeeping."""

import math

import pytest

from repro.core import ExpiryHeap
from repro.core.cache import DecisionCache
from repro.core.controller import ControllerConfig
from repro.core.lifecycle import LifecycleService
from repro.core.network import HostSpec, IdentPPNetwork
from repro.identpp.flowspec import FlowSpec
from repro.netsim.events import Simulator
from repro.workloads.invariants import check_bounded_state, network_flow_state


POLICY = {
    "00-default.control": (
        'approved = "{ http ssh }"\n'
        "block all\n"
        "pass from any to any with member(@src[name], $approved) keep state\n"
    ),
}

#: Evaluating a port-6666 flow calls an unregistered function -> PFError.
ERROR_POLICY = {
    "00-error.control": (
        "block all\n"
        "pass from any to any port 80 keep state\n"
        "pass from any to any port 6666 with bogus(@src[name])\n"
    ),
}


def build_network(policy=None, config=None):
    net = IdentPPNetwork("lifecycle-net", controller_config=config)
    left = net.add_switch("sw-left")
    right = net.add_switch("sw-right")
    net.connect(left, right)
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")}),
        switch=left,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1", users={}), switch=right)
    server.run_server("httpd", "root", 80)
    net.set_policy(policy or POLICY)
    return net



def run_bounded(net, limit: int) -> None:
    """Fire at most ``limit`` events: a run that should drain but does not
    fails its assert instead of hanging the suite."""
    for _ in range(limit):
        if net.topology.sim.step() is None:
            return

class TestExpiryHeap:
    def test_pop_due_returns_only_due_payloads_in_order(self):
        heap = ExpiryHeap()
        heap.push(3.0, "c", "t3")
        heap.push(1.0, "a", "t1")
        heap.push(2.0, "b", "t2")
        assert list(heap.pop_due(2.0)) == [("a", "t1"), ("b", "t2")]
        assert len(heap) == 1
        assert heap.next_due() == 3.0

    def test_equal_deadlines_pop_in_insertion_order(self):
        heap = ExpiryHeap()
        heap.push(1.0, "first", None)
        heap.push(1.0, "second", None)
        assert [key for key, _ in heap.pop_due(1.0)] == ["first", "second"]

    def test_retain_drops_dead_records_and_keeps_the_order(self):
        heap = ExpiryHeap()
        for due, key in ((5.0, "e"), (1.0, "a"), (4.0, "d"), (2.0, "b"), (3.0, "c")):
            heap.push(due, key, due)
        heap.retain(lambda key, token: key in "bde" and token >= 2.0)
        assert len(heap) == 3
        assert list(heap.pop_due(10.0)) == [("b", 2.0), ("d", 4.0), ("e", 5.0)]


class TestDecisionCacheLifecycle:
    def flow(self, port=1000):
        return FlowSpec.tcp("10.0.0.1", "10.0.1.1", port, 80)

    def test_expired_lookup_evicts_and_unwinds_bookkeeping(self):
        cache = DecisionCache(ttl=1.0)
        flow = self.flow()
        cache.store(flow, "pass", "c1", 0.0, keep_state=True)
        assert len(cache) == 1 and cache._reverse_candidates == 1
        assert cache.lookup(flow, 5.0) is None
        # The stale entry is gone, not just invisible.
        assert len(cache) == 0
        assert cache._reverse_candidates == 0
        assert cache._by_cookie == {}
        assert cache.expirations == 1

    def test_expired_reverse_entry_evicted_on_lookup(self):
        cache = DecisionCache(ttl=1.0)
        flow = self.flow()
        cache.store(flow, "pass", "c1", 0.0, keep_state=True)
        # Reverse lookup within TTL hits; after TTL it evicts the entry.
        assert cache.lookup(flow.reversed(), 0.5) is not None
        assert cache.lookup(flow.reversed(), 5.0) is None
        assert len(cache) == 0 and cache._reverse_candidates == 0

    def test_heap_expire_sweeps_only_due_entries(self):
        cache = DecisionCache(ttl=1.0)
        old, fresh = self.flow(1000), self.flow(1001)
        cache.store(old, "pass", "c1", 0.0, keep_state=True)
        cache.store(fresh, "block", "c2", 0.5)
        assert cache.expire(1.2) == 1  # old (due 1.0) expires, fresh (due 1.5) stays
        assert old not in cache and fresh in cache
        assert cache._reverse_candidates == 0

    def test_store_drains_due_entries_itself(self):
        # A store whose clock has moved past another entry's deadline
        # evicts it on the spot (no sweep needed).
        cache = DecisionCache(ttl=1.0)
        old, fresh = self.flow(1000), self.flow(1001)
        cache.store(old, "pass", "c1", 0.0)
        cache.store(fresh, "block", "c2", 5.0)
        assert old not in cache and fresh in cache
        assert cache.expirations == 1

    def test_expire_at_exact_deadline_still_evicts(self):
        # Regression: an entry whose deadline coincides with the sweep
        # instant must not consume its heap record while staying cached.
        cache = DecisionCache(ttl=2.0)
        flow = self.flow()
        cache.store(flow, "pass", "c1", 0.0)
        assert cache.expire(2.0) == 1
        assert len(cache) == 0

    def test_a_decision_is_fresh_at_its_deadline_instant_and_swept_at_it(self):
        # Flow entries and query-engine entries are dead at their deadline
        # instant; a cached decision still hits at it, so a lookup and a
        # sweep at that same instant disagree.
        def stored_at_half() -> DecisionCache:
            cache = DecisionCache(ttl=1.0)
            cache.store(self.flow(), "pass", "c1", 0.5)
            return cache

        cache = stored_at_half()
        assert cache.lookup(self.flow(), 1.5) is not None
        assert cache.expire(1.5) == 1 and len(cache) == 0
        assert stored_at_half().lookup(self.flow(), math.nextafter(1.5, math.inf)) is None

    def test_refreshed_entry_survives_stale_heap_record(self):
        cache = DecisionCache(ttl=1.0)
        flow = self.flow()
        cache.store(flow, "pass", "c1", 0.0)
        cache.store(flow, "pass", "c2", 2.0)  # refreshed under a new cookie
        assert cache.expire(1.5) == 0  # c1's record is stale, c2 not due
        assert cache.lookup(flow, 2.5).cookie == "c2"
        assert cache.expire(3.5) == 1
        assert len(cache) == 0

    def test_expiry_heap_stays_bounded_without_sweeps(self):
        # Regression: with lifecycle sweeps disabled, store() itself must
        # drain due heap records or the heap grows one record per
        # decision forever (unbounded memory under churn).
        cache = DecisionCache(ttl=1.0)
        for i in range(500):
            cache.store(self.flow(i % 100), "pass", f"c{i}", float(i))
        # Only records still inside the TTL window may remain.
        assert cache.expirable_count() <= 2
        assert len(cache) == 1  # everything older than the TTL was evicted

    def test_stats_shape(self):
        cache = DecisionCache(ttl=1.0)
        cache.store(self.flow(), "pass", "c1", 0.0, keep_state=True)
        assert cache.stats() == {"hits": 0.0, "misses": 0.0}
        assert len(cache) == 1 and cache._reverse_candidates == 1


def sweep_queued(service: LifecycleService) -> bool:
    """Whether a sweep of ``service`` is queued on its simulator."""
    return service._ticker is not None and service._ticker.scheduled


class TestLifecycleService:
    def test_manual_sweep_accumulates_reclaimed(self):
        cache = DecisionCache(ttl=1.0)
        cache.store(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2), "pass", "c", 0.0)
        service = LifecycleService()
        service.register("decisions", cache.expire, lambda: len(cache))
        assert service.sweep(0.5) == {"decisions": 0}
        assert service.sweep(2.0) == {"decisions": 1}
        assert service.reclaimed["decisions"] == 1
        assert service.total_reclaimed() == 1
        assert service.sweeps == 2

    def test_periodic_sweeping_stops_when_state_drains(self):
        sim = Simulator()
        cache = DecisionCache(ttl=1.0)
        cache.store(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2), "pass", "c", 0.0)
        service = LifecycleService(interval=0.5)
        service.register("decisions", cache.expire, lambda: len(cache))
        service.attach(sim)
        service.kick()
        # The queue must drain by itself: the service deschedules once the
        # cache is empty instead of ticking forever.
        sim.run()
        assert len(cache) == 0
        assert not sweep_queued(service)
        # Sweeps at 0.5 and 1.0; the 1.0 sweep lands exactly on the TTL
        # deadline, evicts, and the now-idle service deschedules itself.
        assert sim.now == pytest.approx(1.0)

    def test_unexpirable_state_does_not_hang_the_simulator(self):
        # ttl=0 entries can never expire; the service must not keep
        # rescheduling sweeps over them, or an unbounded run() never ends.
        sim = Simulator()
        cache = DecisionCache(ttl=0.0)
        cache.store(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2), "pass", "c", 0.0)
        service = LifecycleService(interval=0.5)
        service.register("decisions", cache.expire, cache.expirable_count)
        service.attach(sim)
        service.kick()
        sim.run()  # would never return if _tick kept returning True
        assert len(cache) == 1  # the entry legitimately stays
        assert not sweep_queued(service)

    def test_kick_rearms_after_idle(self):
        sim = Simulator()
        cache = DecisionCache(ttl=1.0)
        service = LifecycleService(interval=0.5)
        service.register("decisions", cache.expire, lambda: len(cache))
        service.attach(sim)
        service.kick()
        sim.run()
        assert not sweep_queued(service)
        cache.store(FlowSpec.tcp("1.1.1.1", "2.2.2.2", 1, 2), "pass", "c", sim.now)
        service.kick()
        assert sweep_queued(service)
        sim.run()
        assert len(cache) == 0


class TestFailClosedPuntPipeline:
    def test_policy_error_drops_audits_and_leaves_no_pending(self):
        net = build_network(policy=ERROR_POLICY)
        result = net.send_flow("client", "http", "alice", "192.168.1.1", 6666)
        controller = net.controller
        assert not result.delivered
        # Regression: the erroring flow's pending entry used to leak and
        # its buffered PacketIns were stranded at the switches forever.
        bounded = check_bounded_state(
            network_flow_state(net), {"pending": 0, "buffered": 0}
        )
        assert bounded.passed, bounded.violations
        assert controller.inflight_count() == 0
        errors = [r for r in controller.audit.records() if r.rule_origin == "error"]
        assert len(errors) == 1
        assert errors[0].action == "block"
        assert "policy evaluation failed" in errors[0].note
        assert controller.policy_errors == 1
        # The healthy rule set still works after the failure.
        ok = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert ok.delivered

    def test_error_decision_is_cached_as_block(self):
        net = build_network(policy=ERROR_POLICY)
        net.send_flow("client", "http", "alice", "192.168.1.1", 6666)
        flow = net.controller.audit.records()[-1].flow
        cached = net.controller.cache.lookup(flow, net.topology.sim.now)
        assert cached is not None and cached.action == "block"

    def test_lost_decision_hits_pending_deadline(self):
        config = ControllerConfig(pending_deadline=0.5)
        net = build_network(config=config)
        controller = net.controller
        # Simulate a lost decision: the completion callback never runs.
        controller._decide = lambda *args, **kwargs: None
        client = net.host("client")
        client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        assert controller._pending == {}
        assert controller.pending_expired == 1
        assert all(s.buffered_count() == 0 for s in net.switches.values())
        records = [r for r in controller.audit.records() if r.rule_origin == "error"]
        assert len(records) == 1 and "deadline" in records[0].note
        assert net.host("server").delivered == []

    def test_completed_decision_cancels_the_deadline(self):
        net = build_network()
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        controller = net.controller
        assert controller.inflight_count() == 0
        assert controller.pending_expired == 0


class TestSetupTimes:
    def test_flow_setup_latency_reads_fresh_and_error_decisions_only(self):
        # One network, the four ways a punt ends: a fresh decision, a
        # cache hit, a policy-error fail-close and a deadline fail-close.
        net = build_network(
            policy=ERROR_POLICY, config=ControllerConfig(pending_deadline=0.5, idle_timeout=1.0)
        )
        controller = net.controller
        setup = controller.flow_setup_latency
        assert (setup.mean, setup.samples()) == (0.0, [])
        arrivals = {}
        on_packet_in = controller.on_packet_in

        def spy(message):
            arrivals.setdefault(FlowSpec.from_packet(message.packet), controller.now)
            on_packet_in(message)

        controller.on_packet_in = spy
        client = net.host("client")
        _, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        # Its flow entries idle out; the cached decision answers the next punt.
        net.run(duration=2.0)
        client.send_on_socket(socket)
        net.run()
        net.send_flow("client", "http", "alice", "192.168.1.1", 6666)
        controller._decide = lambda *args, **kwargs: None  # decision lost
        client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        fresh, hit, error, expired = controller.audit.records()
        assert (fresh.rule_origin, hit.cached, controller.policy_errors) == (
            "00-error.control", True, 1
        )
        assert "policy evaluation failed" in error.note and "deadline" in expired.note
        timed = [fresh.time - arrivals[fresh.flow], error.time - arrivals[error.flow]]
        assert all(value > 0 for value in timed)
        assert setup.samples() == sorted(timed)
        assert setup.mean == (timed[0] + timed[1]) / 2


class TestOneDeadlinePerController:
    """The fail-closed backstop is one armed event per controller, not one per punt."""

    @staticmethod
    def lossy_network(pending_deadline):
        """A network whose decisions never complete, and its deadline-event schedule log."""
        net = build_network(config=ControllerConfig(pending_deadline=pending_deadline))
        controller = net.controller
        controller._decide = lambda *args, **kwargs: None  # decision lost
        sim = net.topology.sim
        armed = []
        schedule = sim.schedule

        def spy(delay, callback, *args, **kwargs):
            event = schedule(delay, callback, *args, **kwargs)
            if event.label.endswith(":pending-deadline"):
                armed.append(event.time)
            return event

        sim.schedule = spy
        return net, armed

    @staticmethod
    def open_wave(net, count):
        client = net.host("client")
        return [
            FlowSpec.from_packet(client.open_flow("http", "alice", "192.168.1.1", 80)[0])
            for _ in range(count)
        ]

    @staticmethod
    def failed_at(net):
        return {
            record.flow: record.time
            for record in net.controller.audit.records()
            if record.rule_origin == "error"
        }

    # 0.5 is an exact binary fraction; the others are not, so "arrival +
    # deadline" only comes out right if the event is armed at that sum and
    # not at something that rounds differently.
    @pytest.mark.parametrize("pending_deadline", [0.5, 0.3, 0.1, 1 / 3, 2.718281828])
    def test_two_waves_each_fail_closed_at_arrival_plus_deadline(self, pending_deadline):
        net, armed = self.lossy_network(pending_deadline)
        controller = net.controller
        first = self.open_wave(net, 3)
        net.run(duration=pending_deadline / 3)
        second = self.open_wave(net, 2)
        net.run(duration=pending_deadline / 3)
        arrivals = {flow: task.arrival for flow, task in controller._pending.items()}
        assert set(arrivals) == set(first + second)
        assert len({arrivals[flow] for flow in first}) == 1 != len(set(arrivals.values()))
        net.run()
        assert controller.pending_expired == 5 and controller._pending == {}
        assert self.failed_at(net) == {
            flow: arrival + pending_deadline for flow, arrival in arrivals.items()
        }
        # One event for the first wave, re-armed once for the second.
        assert armed == sorted({arrival + pending_deadline for arrival in arrivals.values()})

    def test_resolved_flows_leave_no_live_event_behind(self):
        net = build_network(config=ControllerConfig(pending_deadline=5.0))
        sim = net.topology.sim
        self.open_wave(net, 4)
        net.run(duration=0.0003)   # punts delivered, queries in flight
        assert net.controller.inflight_count() == 4
        assert net.controller._deadline_event is not None
        net.run(duration=0.1)
        assert net.controller.inflight_count() == 0 and net.controller.pending_expired == 0
        assert net.controller._deadline_event is None
        assert all(event.cancelled for _, _, event in sim._queue)
        # An unbounded run must end at the last real event, not 5 vs later.
        now = sim.now
        net.run()
        assert sim.now == now

    def test_the_inflight_count_counts_each_punt_once(self):
        net = build_network(config=ControllerConfig(pending_deadline=5.0))
        self.open_wave(net, 4)
        net.run(duration=0.0003)   # punts delivered, queries in flight
        assert net.controller.inflight_count() == 4

    def test_halted_controller_fails_nothing_and_resume_rearms_from_now(self):
        net, armed = self.lossy_network(0.3)
        controller = net.controller
        flows = self.open_wave(net, 2)
        net.run(duration=0.1)
        controller.halt()
        net.run(duration=1.0)      # the deadline comes and goes
        assert controller.pending_expired == 0
        assert list(controller._pending) == flows
        resumed = net.topology.sim.now
        controller.resume()
        net.run()
        assert self.failed_at(net) == dict.fromkeys(flows, resumed + 0.3)
        assert armed[-1] == resumed + 0.3

    def test_exported_flows_take_the_deadline_event_with_them(self):
        net, _ = self.lossy_network(0.3)
        controller = net.controller
        flows = self.open_wave(net, 2)
        net.run(duration=0.1)
        controller.halt()
        assert [flow for flow, _ in controller.export_pending()] == flows
        assert controller._deadline_event is None
        net.run()
        assert controller.pending_expired == 0
        assert net.topology.sim.now < 0.3


class TestDropEntryReevaluation:
    def test_drop_entries_carry_hard_timeout(self):
        from repro.openflow.actions import DropAction

        net = build_network()
        net.send_flow("client", "telnet", "alice", "192.168.1.1", 23)
        drops = [
            entry
            for switch in net.switches.values()
            for entry in switch.flow_table.find(
                lambda e: all(isinstance(a, DropAction) for a in e.actions)
            )
        ]
        assert drops
        assert all(e.hard_timeout == net.controller.config.decision_ttl for e in drops)

    def test_chatty_blocked_flow_reevaluated_after_ttl(self):
        # idle_timeout alone would let a chatty blocked flow refresh its
        # drop entry forever; the hard cap forces a fresh decision.
        config = ControllerConfig(decision_ttl=0.2, idle_timeout=10.0)
        net = build_network(config=config)
        client = net.host("client")
        _, socket, _ = client.open_flow("telnet", "alice", "192.168.1.1", 23)
        net.run()
        fresh_decisions = len([r for r in net.controller.audit.records() if not r.cached])
        assert fresh_decisions == 1
        net.run(duration=0.5)  # let both the drop entry and the cache TTL lapse
        client.send_on_socket(socket)
        net.run()
        fresh_decisions = len([r for r in net.controller.audit.records() if not r.cached])
        assert fresh_decisions == 2  # the flow was re-evaluated, not silently dropped


class TestLifecycleSweepsNetwork:
    def test_sweeps_reclaim_all_flow_state_under_churn(self):
        config = ControllerConfig(
            decision_ttl=0.2, idle_timeout=0.2, lifecycle_interval=0.1,
            pending_deadline=1.0,
        )
        net = build_network(config=config)
        controller = net.controller
        client = net.host("client")
        for port in (80, 81, 82, 83):
            client.open_flow("http", "alice", "192.168.1.1", port)
        # Settle just long enough for the decisions to land, well before
        # the TTLs: the caches must be populated at this point.
        net.run(duration=0.05)
        assert len(controller.cache) > 0
        # Drain: the lifecycle keeps sweeping while state remains, then
        # deschedules itself so the run can end.  The shared bounded-state
        # checker proves every flow structure was reclaimed to zero.
        net.run()
        drained = network_flow_state(net)
        bounded = check_bounded_state(drained, {name: 0 for name in drained})
        assert bounded.passed, bounded.violations
        assert controller.lifecycle.sweeps > 0
        assert controller.lifecycle.total_reclaimed() > 0
        assert controller.lifecycle.reclaimable_state() == 0
        assert not sweep_queued(controller.lifecycle)

    def test_failed_switch_does_not_keep_the_sweeper_polling(self):
        config = ControllerConfig(
            decision_ttl=0.2, idle_timeout=0.2, lifecycle_interval=0.1,
            pending_deadline=1.0,
        )
        net = build_network(config=config)
        controller = net.controller
        net.host("client").open_flow("http", "alice", "192.168.1.1", 80)
        net.run(duration=0.05)
        dead = net.switches["sw-left"]
        assert dead.flow_table.expirable_count() > 0
        dead.fail()
        # A dead switch sweeps nothing, so its timed entries must not
        # count as reclaimable: the run has to drain.  (Bounded, so the
        # regression is a failed assert rather than a hung suite.)
        run_bounded(net, 2000)
        sim = net.topology.sim
        assert sim.pending() == 0
        assert not sweep_queued(controller.lifecycle)
        assert dead.reclaimable_entries() == 0
        held = len(dead.flow_table)
        assert held > 0  # frozen as they were at failure time

        # Power back on long after the timeouts: the recovery re-arms the
        # sweep, which reclaims the overdue entries and says so.
        net.run(duration=5.0)
        expired_before = dead.flow_table.stats()["expirations"]
        notices_before = dead.channel.to_controller_messages.value
        dead.recover()
        assert sweep_queued(controller.lifecycle)
        run_bounded(net, 2000)
        assert sim.pending() == 0
        assert len(dead.flow_table) == 0
        assert dead.flow_table.stats()["expirations"] == expired_before + held
        # One FlowRemoved per reclaimed entry, and nothing else, went up
        # the channel.
        assert dead.channel.to_controller_messages.value == notices_before + held

    def test_keep_state_pass_covers_its_reverse_until_revoked(self):
        # The controller holds no separate ``keep state`` table: the
        # decision cache answers the reverse direction itself, and a
        # revocation forgets both directions with the one entry.
        net = build_network()
        controller = net.controller
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        (record,) = controller.audit.records()
        assert record.action == "pass"
        now = controller.now
        assert controller.cache.lookup(record.flow.reversed(), now) is not None
        controller.revoke_decision(record.cookie)
        assert controller.cache.lookup(record.flow, now) is None
        assert controller.cache.lookup(record.flow.reversed(), now) is None
        assert all(len(switch.flow_table) == 0 for switch in net.switches.values())

    def test_a_decided_flow_leaves_nothing_in_flight(self):
        net = build_network()
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert net.controller.inflight_count() == 0
        assert net.controller.policy_errors == 0
        assert net.controller.cache.expirations == 0


class TestInterceptorLatencyCache:
    def test_mean_is_cached_and_invalidated_by_mutation_epoch(self):
        net = build_network()
        qc = net.controller.query_client
        switch = net.switches["sw-left"]
        first = qc._interceptor_latency(switch)
        links = net.topology.links()
        expected = 2.0 * (sum(l.latency for l in links) / len(links))
        assert first == pytest.approx(expected)
        assert qc._mean_link_latency == (
            net.topology.mutation_epoch, pytest.approx(expected / 2.0)
        )
        # Growing the topology invalidates the cached mean.
        extra = net.add_switch("sw-extra")
        net.connect(extra, "sw-right", latency=10.0)
        second = qc._interceptor_latency(switch)
        links = net.topology.links()
        assert second == pytest.approx(2.0 * sum(l.latency for l in links) / len(links))
        assert second != first
