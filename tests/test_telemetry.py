"""Telemetry plane tests: statistics, pipeline, detectors, quarantine, e2e.

Four layers, tested bottom-up:

* the statistics primitive the plane samples with (RateCounter
  windows);
* the pipeline (one read per detector, updaters before reads,
  virtual-time sampling that lets the event queue drain);
* each deviation detector against synthetic series, and the alert
  router's cooldown dedup;
* the quarantine path (controller, cache, coordinator replication) and
  the end-to-end claims: a conficker outbreak is detected and
  quarantined *by telemetry alone* — exactly one alert per infected
  host — while a clean workload raises zero alerts.
"""

import random
from dataclasses import fields

import pytest

from repro.core.audit import AuditLog, AuditTrail, DecisionRecord
from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork
from repro.identpp.flowspec import FlowSpec
from repro.netsim.events import Simulator
from repro.netsim.statistics import RateCounter
from repro.telemetry import (
    AlertRouter,
    AutoQuarantineResponder,
    CollapseDetector,
    Deviation,
    GapDetector,
    GrowthDetector,
    MetricsPipeline,
    SpikeDetector,
)
from repro.workloads.enterprise import build_linear_network
from repro.workloads.invariants import (
    check_delivery,
    network_audit_records,
    network_deliveries,
    network_quarantines,
)
from repro.workloads.telemetry import conficker_detection


# ----------------------------------------------------------------------
# Statistics primitives
# ----------------------------------------------------------------------


class TestRateCounter:
    def test_rate_counts_only_the_window(self):
        rc = RateCounter("rc", 1.0)
        rc.record(0.1)
        rc.record(0.2)
        rc.record(1.5)
        # At t=2.0 only the t=1.5 event is inside the 1 s window.
        assert rc.rate(2.0) == pytest.approx(1.0)

    def test_observe_total_first_observation_seeds_silently(self):
        rc = RateCounter("seed", 1.0)
        rc.observe_total(0.0, 100.0)
        assert rc.rate(0.5) == 0.0
        rc.observe_total(0.5, 106.0)
        assert rc.rate(0.5) == pytest.approx(6.0)

    def test_rate_is_events_per_second_over_the_window(self):
        rc = RateCounter("wide", 2.0)
        rc.record(0.5, 3)
        rc.record(1.0)
        assert rc.events_in_window(1.0) == 4
        assert rc.rate(1.0) == pytest.approx(2.0)
        # Both events leave the window once it has slid past them.
        assert rc.rate(3.5) == 0.0

    def test_bad_window_and_negative_count_rejected(self):
        with pytest.raises(ValueError):
            RateCounter("zero", 0.0)
        rc = RateCounter("neg", 1.0)
        with pytest.raises(ValueError):
            rc.record(0.0, -1)
        rc.record(0.0, 0)
        assert rc.events_in_window(0.0) == 0

    def test_observe_total_clamps_negative_delta(self):
        rc = RateCounter("clamp", 1.0)
        rc.observe_total(0.0, 10.0)
        rc.observe_total(0.5, 4.0)  # counter reset upstream
        assert rc.rate(0.5) == 0.0


# ----------------------------------------------------------------------
# Pipeline
# ----------------------------------------------------------------------


class TestMetricsPipeline:
    def test_duplicate_watched_name_rejected(self):
        pipe = MetricsPipeline("t", lambda deviation: None)
        pipe.watch(GapDetector("a", max_gap=1.0), lambda now: 1.0)
        with pytest.raises(ValueError):
            pipe.watch(SpikeDetector("a"), lambda now: 2.0)

    def test_samples_on_virtual_time_and_queue_drains_after_stop(self):
        sim = Simulator()
        pipe = MetricsPipeline("t", lambda deviation: None)
        ticks = []
        detector = SpikeDetector("clock", warmup=10)
        pipe.watch(detector, lambda now: ticks.append(now) or now)
        pipe.start(sim, 0.1)
        sim.schedule(0.55, pipe.stop)
        sim.run()  # must terminate: the sampler stops renewing itself
        assert ticks == pytest.approx([0.1, 0.2, 0.3, 0.4, 0.5])
        assert pipe.samples == 5
        assert detector.baseline.samples == 5  # every read was judged

    def test_updaters_run_before_reads(self):
        deviations = []
        pipe = MetricsPipeline("t", deviations.append)
        state = {"v": 0.0}
        pipe.add_updater(lambda now: state.__setitem__("v", now * 2))
        pipe.watch(GapDetector("doubled", max_gap=1.0), lambda now: state["v"])
        pipe.sample(0.25)  # warmup: 0.5
        pipe.sample(1.0)   # 2.0 > 1.0: first of the streak
        pipe.sample(3.0)   # 6.0: the second fires
        assert [(d.time, d.value) for d in deviations] == [(3.0, 6.0)]


# ----------------------------------------------------------------------
# Detectors
# ----------------------------------------------------------------------


def feed(detector, values, start=0.0, step=1.0):
    """Feed a synthetic series; return the deviations raised."""
    out = []
    for i, v in enumerate(values):
        d = detector.observe(start + i * step, v)
        if d is not None:
            out.append(d)
    return out


class TestSpikeDetector:
    def make(self, **kw):
        kw.setdefault("warmup", 5)
        kw.setdefault("min_streak", 2)
        return SpikeDetector("s", **kw)

    def test_fires_on_sustained_spike_after_streak(self):
        det = self.make()
        baseline = [10.0, 11.0, 9.0, 10.0, 10.0, 10.0]
        devs = feed(det, baseline + [100.0, 100.0, 100.0])
        assert len(devs) >= 1
        first = devs[0]
        assert first.kind == "spike"
        assert first.value == 100.0
        # Debounce: the first spike sample alone must not fire.
        assert first.time >= 7.0

    def test_warmup_suppresses_everything(self):
        det = self.make()
        assert feed(det, [100.0, 0.0, 100.0, 0.0]) == []

    def test_single_sample_blip_is_debounced(self):
        det = self.make()
        devs = feed(det, [10.0] * 6 + [100.0] + [10.0] * 4)
        assert devs == []

    def test_baseline_frozen_while_deviating(self):
        det = self.make()
        feed(det, [10.0] * 6 + [100.0] * 20)
        # The attack must not teach the detector that 100 is normal.
        assert det.baseline.mean < 20.0

    def test_a_floor_that_is_not_positive_is_refused_by_name(self):
        # On a flat-zero baseline the floor is the whole threshold, and a
        # positive sample's severity is its value over the threshold.
        for floor in (0.0, -1.0):
            with pytest.raises(ValueError, match="'punts'.*min_value"):
                SpikeDetector("punts", min_value=floor)


class TestCollapseDetector:
    def test_fires_when_ratio_halves(self):
        det = CollapseDetector("hit", warmup=4, min_streak=2)
        devs = feed(det, [0.9, 0.9, 0.9, 0.9, 0.9, 0.1, 0.1])
        assert devs and devs[0].kind == "collapse"

    def test_silent_when_baseline_already_low(self):
        det = CollapseDetector("hit", warmup=4, min_streak=2)
        assert feed(det, [0.05] * 10 + [0.0] * 5) == []


class TestGrowthDetector:
    def test_fires_on_monotonic_growth(self):
        det = GrowthDetector("depth", warmup=4)
        devs = feed(det, [1.0, 1.0, 1.0, 1.0, 5.0, 8.0, 12.0, 17.0])
        assert devs and devs[0].kind == "growth"

    def test_plateau_does_not_fire(self):
        det = GrowthDetector("depth", warmup=4)
        assert feed(det, [1.0, 1.0, 1.0, 1.0, 8.0, 8.0, 8.0, 8.0, 8.0]) == []


class TestGapDetector:
    def test_fires_when_gap_exceeds_bound(self):
        det = GapDetector("hb", max_gap=0.2)
        devs = feed(det, [0.0, 0.0, 0.0, 0.3, 0.4], step=0.1)
        assert devs and devs[0].kind == "gap"

    def test_bounded_gaps_are_silent(self):
        det = GapDetector("hb", max_gap=0.2)
        assert feed(det, [0.0, 0.1, 0.15, 0.1, 0.0]) == []


class TestRouterCooldown:
    def test_same_kind_and_source_deduped_within_cooldown(self):
        router = AlertRouter(cooldown=1.0)
        dev = Deviation(time=0.0, kind="spike", series="s", value=9.0,
                        baseline=1.0, severity=3.0)
        router.on_deviation(dev)
        router.on_deviation(Deviation(time=0.5, kind="spike", series="s",
                                      value=9.0, baseline=1.0, severity=3.0))
        assert len(router.alerts("spike")) == 1
        router.on_deviation(Deviation(time=2.0, kind="spike", series="s",
                                      value=9.0, baseline=1.0, severity=3.0))
        assert len(router.alerts("spike")) == 2

    def test_responders_receive_matching_kind(self):
        router = AlertRouter(cooldown=0.0)
        seen = []
        router.respond("spike", lambda alert, r: seen.append(alert.kind))
        router.on_deviation(Deviation(time=0.0, kind="spike", series="s",
                                      value=9.0, baseline=1.0, severity=3.0))
        router.on_deviation(Deviation(time=0.0, kind="gap", series="g",
                                      value=9.0, baseline=1.0, severity=3.0))
        assert seen == ["spike"]


# ----------------------------------------------------------------------
# The plane's reads
# ----------------------------------------------------------------------


class TestPlaneReads:
    def test_a_fabric_plane_reads_only_its_detectors_values(self, monkeypatch):
        reads = []
        watch = MetricsPipeline.watch

        def counting_watch(pipeline, detector, read):
            def counted(now):
                reads.append(detector.series)
                return read(now)
            watch(pipeline, detector, counted)

        monkeypatch.setattr(MetricsPipeline, "watch", counting_watch)
        net = IdentPPClusterNetwork("reads", shards=4)
        net.add_spine_leaf_fabric(spines=2, leaves=4)
        plane = net.enable_telemetry(auto_quarantine=False)
        plane.pipeline.sample(0.05)
        shards = sorted(net.controllers)
        assert len(shards) == 4
        assert sorted(reads) == sorted(
            ["cluster.punt_rate", "cluster.hit_ratio"]
            + [f"{shard}.pending_depth" for shard in shards]
            + [f"{shard}.heartbeat_gap" for shard in shards]
        )

    def test_a_shard_down_before_the_first_sweep_is_reported_lost(self):
        net = _small_cluster(shards=2)
        victim, survivor = sorted(net.cluster.replicas)
        net.cluster.kill(victim)
        plane = net.enable_telemetry(interval=0.05, auto_quarantine=False)
        plane.start()
        net.run(1.0)  # 20 sweeps
        plane.stop()
        net.run()
        gaps = plane.alerts("gap")
        assert [alert.source for alert in gaps] == [f"{victim}.heartbeat_gap"] * len(gaps)
        # The clock starts at the first sweep (t=0.05); the gap passes
        # its 0.2 bound at t=0.30 and the second sweep past it fires.
        assert gaps and gaps[0].time == pytest.approx(0.35)


# ----------------------------------------------------------------------
# Quarantine mechanics
# ----------------------------------------------------------------------


def _small_cluster(shards=2, clients=3):
    net = IdentPPClusterNetwork(
        "quarantine-test",
        shards=shards,
        policy_default_action="block",
        controller_config=ControllerConfig(query_cache_ttl=5.0),
    )
    edge = net.add_switch("sw-edge")
    core = net.add_switch("sw-core")
    net.connect(edge, core)
    for i in range(clients):
        net.add_host(
            HostSpec(name=f"h{i}", ip=f"192.168.0.{10 + i}",
                     users={"alice": ("users", "staff")}),
            switch=edge,
        )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=core)
    server.run_server("httpd", "root", 80)
    net.set_policy({
        "00-test.control": "block all\npass from any to any port 80 keep state\n",
    })
    return net


def _delivery(net):
    """The delivery invariant over the network's own deliveries, audit and quarantines."""
    return check_delivery(
        network_deliveries(net), network_audit_records(net), network_quarantines(net), grace=0.0,
    )


class TestQuarantineMechanics:
    def test_controller_quarantine_blocks_host_and_is_idempotent(self):
        net = _small_cluster(shards=1)
        assert net.send_flow("h0", "http", "alice", "192.168.1.1", 80).delivered
        controller = next(iter(net.controllers.values()))
        assert controller.quarantine_host("192.168.0.10") is True
        assert controller.quarantine_host("192.168.0.10") is False  # idempotent
        assert "192.168.0.10" in controller.quarantined_hosts
        net.run(0.5)  # let the wildcard drop flow-mods land
        result = net.send_flow("h0", "http", "alice", "192.168.1.1", 80)
        assert not result.delivered
        # Contained in the datapath: the wildcard drop eats the packet
        # before it ever punts, so no new decision is audited.
        assert result.decision_action is None
        assert net.send_flow("h1", "http", "alice", "192.168.1.1", 80).delivered
        # The shared delivery invariant sees the same story: h0's
        # pre-quarantine delivery is expected, nothing lands after.
        delivery = _delivery(net)
        assert delivery.passed, delivery.violations
        assert delivery.details["deliveries"] > 0 and delivery.details["quarantined"] == 1

    def test_cookies_for_host_finds_both_directions(self):
        net = _small_cluster(shards=1)
        net.send_flow("h0", "http", "alice", "192.168.1.1", 80)
        controller = next(iter(net.controllers.values()))
        src_cookies = controller.cache.cookies_for_host("192.168.0.10")
        dst_cookies = controller.cache.cookies_for_host("192.168.1.1")
        assert src_cookies and src_cookies == dst_cookies
        assert controller.cache.cookies_for_host("10.9.9.9") == set()

    def test_coordinator_propagates_to_all_live_shards(self):
        net = _small_cluster(shards=2)
        net.send_flow("h0", "http", "alice", "192.168.1.1", 80)
        net.cluster.coordinator.quarantine_host("192.168.0.10")
        for controller in net.cluster.replicas.values():
            assert "192.168.0.10" in controller.quarantined_hosts
        # And the replicated quarantine actually contains the host.
        net.run(0.5)
        net.send_flow("h0", "http", "alice", "192.168.1.1", 80)
        delivery = _delivery(net)
        assert delivery.passed, delivery.violations

    def test_crashed_shard_learns_quarantine_on_resync(self):
        net = _small_cluster(shards=2)
        net.send_flow("h0", "http", "alice", "192.168.1.1", 80)
        victim = next(iter(net.cluster.replicas))
        net.cluster.kill(victim)
        net.cluster.coordinator.quarantine_host("192.168.0.10")
        quarantined_at = net.topology.sim.now
        assert "192.168.0.10" not in net.cluster.replicas[victim].quarantined_hosts
        net.run(0.5)
        net.cluster.restore(victim)
        assert net.cluster.replicas[victim].quarantined_hosts == {"192.168.0.10": quarantined_at + 0.5}
        # The cutoff is the earliest instant: the late resync does not move it.
        assert network_quarantines(net) == {"192.168.0.10": quarantined_at}


# ----------------------------------------------------------------------
# Newest-first audit walks (attribution, send_flow's decision lookup)
# ----------------------------------------------------------------------


class _OldRows:
    """Decisions older than any window or match, appended to a log ahead of
    the rest; counts how many of them a walk builds."""

    touched = 0
    FIELDS = dict(
        time=0.0, flow=FlowSpec.tcp("10.9.9.9", "10.9.9.8", 9, 9), action="pass",
        rule_text="pass all", rule_origin="old", cookie="old:decision-0",
    )

    @classmethod
    def append(cls, log, count):
        for _ in range(count):
            log.record(**cls.FIELDS)
        build = log._row

        def row(index):
            if index < count:
                cls.touched += 1
            return build(index)

        log._row = row


def _generated_log(seed, count, *, start=100.0):
    """Decisions at non-decreasing times (ties included) from a few
    scanners and many quiet clients, one in five served from cache."""
    rng = random.Random(seed)
    now = start
    records = []
    for index in range(count):
        now += rng.choice((0.0, 0.0, 0.001, 0.01, 0.02))
        scanner = rng.random() < 0.4
        src = f"10.0.0.{rng.randrange(1, 4) if scanner else rng.randrange(4, 40)}"
        dst = f"10.1.{rng.randrange(0, 8)}.{rng.randrange(1, 250 if scanner else 3)}"
        records.append(DecisionRecord(
            time=now, flow=FlowSpec.tcp(src, dst, 1024 + index, 80), action="pass",
            rule_text="pass all", rule_origin="generated", cookie=f"c{index}",
            cached=rng.random() < 0.2,
        ))
    return records


def _no_copy():
    raise AssertionError("the walk copied the whole log")


def _log_of(records, old=0):
    log = AuditLog()
    _OldRows.append(log, old)
    for record in records:
        log.record(**{field.name: getattr(record, field.name) for field in fields(record)})
    log.records = _no_copy
    return log


def _copying_attribution(records, now, *, window, threshold):
    """The walk ``attribute`` made when it copied (and, on a cluster,
    sorted) the whole log first."""
    fanout = {}
    for record in reversed(sorted(records, key=lambda r: r.time)):
        if record.time < now - window:
            break
        if not record.cached:
            fanout.setdefault(str(record.flow.src_ip), set()).add(str(record.flow.dst_ip))
    return sorted(src for src, dsts in fanout.items() if len(dsts) >= threshold)


class TestNewestFirstAuditWalk:
    @pytest.mark.parametrize("seed", range(6))
    def test_attribution_matches_the_copying_walk(self, seed):
        records = _generated_log(seed, 400)
        now = records[-1].time
        expected = _copying_attribution(records, now, window=0.5, threshold=4)
        single = AutoQuarantineResponder(
            _log_of(records), lambda src: None, window=0.5, fanout_threshold=4
        )
        assert single.attribute(now) == expected
        # The same decisions dealt over three shards: the merged walk is
        # the reverse of the cluster's sorted trail, tie for tie.
        rng = random.Random(seed)
        shards = [[], [], []]
        for record in records:
            rng.choice(shards).append(record)
        view = AuditTrail([_log_of(shard) for shard in shards])
        trail = sorted((r for shard in shards for r in shard), key=lambda r: r.time)
        assert list(reversed(view)) == trail[::-1]
        merged = AutoQuarantineResponder(
            view, lambda src: None, window=0.5, fanout_threshold=4
        )
        assert merged.attribute(now) == expected
        assert 0 < len(expected) < 10  # scanners, and quiet clients beside them

    def test_attribution_visits_the_window_not_the_log(self):
        window = _generated_log(1, 20, start=1000.0)
        now = window[-1].time
        _OldRows.touched = 0
        log = _log_of(window, old=50_000)
        responder = AutoQuarantineResponder(log, lambda src: None, window=10.0)
        expected = responder.attribute(now)
        assert _OldRows.touched == 1  # the record that ends the walk

        _OldRows.touched = 0
        shards = [_log_of(window[index::4], old=12_500) for index in range(4)]
        merged = AutoQuarantineResponder(
            AuditTrail(shards), lambda src: None, window=10.0
        )
        assert merged.attribute(now) == expected
        # The merge keys one old record per shard; the walk ends on the first.
        assert _OldRows.touched <= len(shards) + 1

    def test_send_flow_finds_its_decision_from_the_newest_end(self):
        net = _small_cluster(shards=1)
        controller = next(iter(net.controllers.values()))
        _OldRows.touched = 0
        _OldRows.append(controller.audit, 50_000)
        controller.audit.records = _no_copy
        results = [
            net.send_flow(f"h{i % 3}", "http", "alice", "192.168.1.1", port)
            for i, port in enumerate((80, 80, 23, 80, 23))
        ]
        assert _OldRows.touched == 0
        assert [r.decision_action for r in results] == ["pass", "pass", "block", "pass", "block"]
        # The class's own records() (the instance's copy trap aside) is
        # indexed lazily: the slice builds the new rows, none of the old.
        recent = type(controller.audit).records(controller.audit)[50_000:]
        assert _OldRows.touched == 0
        for result in results:
            recorded = [r for r in recent if r.flow == result.flow]
            assert (result.decision_action, result.decision_rule) == (
                recorded[-1].action, recorded[-1].rule_text
            )


# ----------------------------------------------------------------------
# End to end
# ----------------------------------------------------------------------


class TestEndToEnd:
    def test_conficker_outbreak_detected_by_telemetry_alone(self):
        report = conficker_detection(clients=6, settle=1.0)
        infected = set(report["infected"])
        assert set(report["quarantined"]) == infected
        # Exactly one quarantine alert per infected host, none else.
        assert set(report["quarantine_alerts"]) == infected
        assert all(n == 1 for n in report["quarantine_alerts"].values())
        assert report["detection_latency_vsec"] <= 0.5
        assert report["clean_run_alerts"] == 0
        # A quarantine in the control run is not recorded on its own: it
        # is one of the violations.
        assert not [v for v in report["violations"] if "control run" in v]
        assert report["infected_contained"] and report["clean_unaffected"]
        assert report["detected"], report["violations"]

    def test_clean_workload_raises_no_alerts(self):
        net = build_linear_network(switch_count=2)
        plane = net.enable_telemetry(interval=0.05)
        plane.start()
        sim = net.topology.sim
        state = {"ticks": 0}
        clients = ["client"]

        def tick():
            state["ticks"] += 1
            name = clients[state["ticks"] % len(clients)]
            net.host(name).open_flow("http", "alice", "192.168.1.1", 80)
            return state["ticks"] < 40

        sim.schedule_repeating(0.05, tick, label="clean-traffic")
        net.run(3.0)
        plane.stop()
        net.run()
        assert plane.alerts() == []
        assert plane.quarantined == frozenset()
        assert plane.pipeline.samples > 0
