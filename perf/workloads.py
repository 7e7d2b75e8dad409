"""The four benchmark workloads.

Load is a *virtual-time open loop*: waves are scheduled on the simulator
clock, so the generator is never late by construction, and every choice
a wave makes (which client, which destination, which flows go to the
blocked port, the access-link latencies) comes from
``random.Random(seed)``.  Host-side a repeat is batch work of a stated
size (:class:`Size`).

Each workload sends about 5% of its ops to a port its own policy
blocks, so the drop-install path and the oracle are always exercised.
The expected verdict of every op is computed here, from the workload's
own policy, and recorded in the :class:`~perf.oracle.Ledger`.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.netsim.links import DEFAULT_LATENCY
from repro.workloads.generators import FlowGenerator, FlowTemplate

from perf.oracle import Ledger

WEB_PORT = 80
#: No rule of any workload's policy passes this port.
BLOCKED_PORT = 23
BLOCKED_SHARE = 0.05
#: Fewest timed segments per repeat; three repeats pool to the >= 90
#: segments the fast-decile estimator is taken over.
MIN_SEGMENTS = 30
#: Share of the timed waves run (untimed) first, as part of set-up.
WARMUP_SHARE = 0.15
SERVER_IP = "192.168.1.1"
WEB_ONLY_POLICY = "block all\npass from any to any port 80\n"


def churn_config(**overrides) -> ControllerConfig:
    """The punt workloads' controller: async core, serial eval queue, fast ageing.

    50 vms datapath lifetimes with the sweeper on, so entries age out
    underneath the churn; a 1 vs decision TTL keeps the decision cache
    bounded too.
    """
    settings = dict(
        decision_core="async",
        serialize_decisions=True,
        nonblocking_inbox=True,
        policy_eval_delay=20e-6,
        idle_timeout=0.05,
        hard_timeout=0.05,
        lifecycle_interval=0.05,
        decision_ttl=1.0,
    )
    settings.update(overrides)
    return ControllerConfig(**settings)


@dataclass(frozen=True)
class Size:
    """How much work one repeat does.

    A workload's segment has a fixed shape (about a tenth of a host
    second on the reference box); ``--seconds`` only sets how many
    segments a repeat runs.
    """

    segments: int
    waves_per_segment: int
    ops_per_wave: int
    warmup_waves: int

    @property
    def timed_waves(self) -> int:
        return self.segments * self.waves_per_segment


class Workload:
    """One built network plus the bench-side bookkeeping of one repeat."""

    name = ""
    why = ""
    #: Virtual seconds between waves.
    wave_interval = 0.1
    waves_per_segment = 1
    #: Flows (or packets) one wave opens; ``ops_per_segment`` counts
    #: everything a segment's waves emit.
    ops_per_wave = 1
    #: Ops per host second on the 2-core reference box (fast decile);
    #: only used to translate ``--seconds`` into a segment count.
    ref_ops_per_wall_s = 1000.0
    min_warmup_waves = 1

    def __init__(self, seed: int, size: Size) -> None:
        self.size = size
        self.rng = random.Random(seed)
        self.ledger = Ledger()
        #: Evaluator counters banked before each policy reload (a
        #: rebuild starts them from zero); see ``HotIdentityReload``.
        self.policy_stats_seen = {"evaluations": 0.0, "rules_checked": 0.0}
        self.net: IdentPPNetwork = self.build()
        self.sim = self.net.topology.sim
        self._next_wave = 0

    # ------------------------------------------------------------------
    # Sizing
    # ------------------------------------------------------------------

    @classmethod
    def ops_per_segment(cls) -> float:
        return cls.waves_per_segment * cls.ops_per_wave

    @classmethod
    def size_for(cls, seconds: float, repeats: int) -> Size:
        """Return the repeat size that takes ``seconds / repeats`` on the reference box.

        The work is a function of ``seconds`` alone (never of how fast
        this machine turns out to be), so a seed's virtual-time metrics
        and counts are the same on every commit.
        """
        segments = max(
            MIN_SEGMENTS,
            round(seconds * cls.ref_ops_per_wall_s / (repeats * cls.ops_per_segment())),
        )
        warmup = max(
            cls.min_warmup_waves, math.ceil(WARMUP_SHARE * segments * cls.waves_per_segment)
        )
        return Size(segments, cls.waves_per_segment, cls.ops_per_wave, warmup)

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------

    def build(self) -> IdentPPNetwork:
        """Stand the network up and register the policy."""
        raise NotImplementedError

    def access_latency(self) -> float:
        """Return one seeded access-link latency (the default +-2%)."""
        return DEFAULT_LATENCY * self.rng.uniform(0.98, 1.02)

    def force_compile(self) -> None:
        """Parse and compile the policy now instead of at the first punt."""
        for controller in self.net.controllers.values():
            controller.policy.evaluator.compiled

    def warm_up(self) -> None:
        """Run the untimed head of the load: lazy caches, promotion, first expiries."""
        self.run_waves(self.size.warmup_waves)

    def finish(self) -> None:
        """Stop whatever keeps the event queue from draining."""

    # ------------------------------------------------------------------
    # Driving
    # ------------------------------------------------------------------

    def schedule_waves(self, count: int) -> None:
        """Queue the next ``count`` waves, each in the middle of its slot."""
        for offset in range(count):
            wave = self._next_wave + offset
            self.sim.schedule(
                (offset + 0.5) * self.wave_interval, self.inject, wave,
                label="bench:wave",
            )
            self.schedule_extras(wave, offset * self.wave_interval)
        self._next_wave += count

    def schedule_extras(self, wave: int, slot_start: float) -> None:
        """Queue the non-flow events of one wave slot (publishes, reloads, kills)."""

    def run_waves(self, count: int) -> None:
        """Queue ``count`` waves and run the simulator over exactly their slots."""
        self.schedule_waves(count)
        self.net.run(duration=count * self.wave_interval)

    def inject(self, wave: int) -> None:
        """Generate one wave of load (runs as a simulator event)."""
        raise NotImplementedError

    def open_wave(self, pick_destination=lambda: SERVER_IP) -> list[tuple]:
        """Open one wave of new flows from seeded clients; ~5% to the blocked port.

        Returns ``(host, socket, process, expect_pass)`` per session and
        queues their reap two waves later.
        """
        now = self.sim.now
        spawned = []
        for _ in range(self.size.ops_per_wave):
            host = self.hosts[self.rng.randrange(len(self.hosts))]
            port = BLOCKED_PORT if self.rng.random() < BLOCKED_SHARE else WEB_PORT
            packet, socket, process = host.open_flow("http", "alice", pick_destination(), port)
            self.ledger.sent(packet, now, port == WEB_PORT, punted=True)
            spawned.append((host, socket, process, port == WEB_PORT))
        self.sim.schedule(2 * self.wave_interval, self.reap, spawned, label="bench:reap")
        return spawned

    def reap(self, spawned: list[tuple]) -> None:
        """End the sessions of a wave: close sockets, kill processes.

        Without the reap the host socket tables grow run-long and the
        daemons' lsof-style flow lookup turns quadratic.
        """
        for host, socket, process, _ in spawned:
            host.sockets.close(socket)
            host.processes.kill(process.pid)

    # ------------------------------------------------------------------
    # Invariant inputs
    # ------------------------------------------------------------------

    def state_caps(self) -> dict[str, float]:
        """Return the bounded-state caps, as multiples of the offered load."""
        raise NotImplementedError

    def _churn_caps(self, config: ControllerConfig, *, hops: int, ops_per_wave: int) -> dict[str, float]:
        """Caps for workloads whose flow state ages out under the sweeper.

        A structure with lifetime ``T`` holds at most the ops of
        ``T / wave_interval`` waves plus the wave in flight and the one
        the sweeper has not reached yet; 2x headroom on top.
        """
        def alive(lifetime: float) -> float:
            return 2.0 * (lifetime / self.wave_interval + 2) * ops_per_wave

        return {
            "pending": 2.0 * ops_per_wave,
            "buffered": 2.0 * ops_per_wave,
            "decision_cache": alive(config.decision_ttl),
            "state_table": alive(config.state_timeout),
            # forward + reverse entry per hop, drop entries live decision_ttl
            "flow_table": 2 * hops * alive(max(config.idle_timeout, config.hard_timeout))
            + BLOCKED_SHARE * alive(config.decision_ttl),
        }


def _edge_core_net(workload: Workload, config: ControllerConfig) -> tuple[IdentPPNetwork, object]:
    """Clients -- sw-edge -- sw-core; returns the network and the core switch."""
    net = IdentPPNetwork(workload.name, controller_config=config, policy_default_action="block")
    edge = net.add_switch("sw-edge")
    core = net.add_switch("sw-core")
    net.connect(edge, core)
    workload.hosts = _add_clients(workload, net, workload.clients, [edge])
    return net, core


def _add_web_server(net: IdentPPNetwork, switch) -> None:
    server = net.add_host(HostSpec(name="server", ip=SERVER_IP), switch=switch)
    server.run_server("httpd", "root", WEB_PORT)


def _add_clients(workload: Workload, net: IdentPPNetwork, count: int, switches) -> list:
    return [
        net.add_host(
            HostSpec(
                name=f"client{index}",
                ip=f"192.168.0.{10 + index}",
                users={"alice": ("users", "staff")},
            ),
            switch=switches[index % len(switches)],
            link_latency=workload.access_latency(),
        )
        for index in range(count)
    ]


# ----------------------------------------------------------------------
# punt_unique
# ----------------------------------------------------------------------


class PuntUnique(Workload):
    name = "punt_unique"
    why = (
        "every op is a full miss-path punt (query both ends, evaluate, install, expire): "
        "controller, identity plane, hosts and flow-entry unwind do the work, the fast path none"
    )
    wave_interval = 0.1
    waves_per_segment = 2
    ops_per_wave = 110
    ref_ops_per_wall_s = 2300.0
    min_warmup_waves = 3
    clients = 8

    def build(self) -> IdentPPNetwork:
        config = churn_config(query_cache_ttl=0.0, identity_plane="pull")
        net, core = _edge_core_net(self, config)
        _add_web_server(net, core)
        net.set_policy({"00-punt.control": WEB_ONLY_POLICY})
        for daemon in net.daemons.values():
            daemon.processing_delay = 500e-6
        return net

    def inject(self, wave: int) -> None:
        self.open_wave()

    def state_caps(self) -> dict[str, float]:
        return self._churn_caps(
            self.net.controller.config, hops=2, ops_per_wave=self.size.ops_per_wave
        )


# ----------------------------------------------------------------------
# fastpath_forward
# ----------------------------------------------------------------------


class FastpathForward(Workload):
    name = "fastpath_forward"
    why = (
        "zero punts in the timed region: event dispatch, links, switch receive and "
        "flow-table lookup do all the work, so a controller change must show nothing here"
    )
    wave_interval = 1e-3
    waves_per_segment = 30
    connections = 64
    blocked_connections = 3
    ops_per_wave = connections + blocked_connections
    ref_ops_per_wall_s = 19000.0
    min_warmup_waves = 4
    clients = 8
    payload_sizes = (64, 1400)

    def build(self) -> IdentPPNetwork:
        # Nothing may expire during the run: a single punt in the timed
        # region would make this a controller workload.
        forever = 3600.0
        config = ControllerConfig(idle_timeout=forever, hard_timeout=0.0, decision_ttl=forever)
        net, core = _edge_core_net(self, config)
        _add_web_server(net, core)
        net.set_policy({"00-fastpath.control": WEB_ONLY_POLICY})
        self.conns: list[tuple] = []
        return net

    def warm_up(self) -> None:
        now = self.sim.now
        ports = [WEB_PORT] * self.connections + [BLOCKED_PORT] * self.blocked_connections
        self.rng.shuffle(ports)
        for index, port in enumerate(ports):
            host = self.hosts[self.rng.randrange(self.clients)]
            packet, socket, _ = host.open_flow(
                "http", "alice", SERVER_IP, port, payload_size=self.payload_sizes[index % 2],
            )
            self.ledger.sent(packet, now, port == WEB_PORT, punted=True)
            self.conns.append((host, socket, port == WEB_PORT))
        # Let every connection's verdict and entries land before the ticks.
        self.net.run(duration=0.05)
        super().warm_up()

    def inject(self, wave: int) -> None:
        now = self.sim.now
        sent = self.ledger.sent
        sizes = self.payload_sizes
        for index, (host, socket, expect_pass) in enumerate(self.conns):
            packet = host.send_on_socket(socket, payload_size=sizes[(wave + index) % 2])
            sent(packet, now, expect_pass, punted=False)

    def state_caps(self) -> dict[str, float]:
        flows = len(self.conns)
        return {
            "pending": 0.0,
            "buffered": 0.0,
            "decision_cache": float(flows),
            "flow_table": 2.0 * flows,
        }


# ----------------------------------------------------------------------
# hot_identity_reload
# ----------------------------------------------------------------------


def _hot_ruleset(rules: int) -> str:
    """``rules`` E10b-shaped rules plus the ``@dst[name]`` web rule."""
    lines = ["block all"]
    for index in range(rules):
        lines.append(
            f"pass from any to 10.{index % 250}.0.0/16 port {1000 + index} "
            f"with eq(@src[name], app{index})"
        )
    lines.append("pass from any to any port 80 with eq(@dst[name], httpd)")
    return "\n".join(lines) + "\n"


class HotIdentityReload(Workload):
    name = "hot_identity_reload"
    why = (
        "resident/TTL identity hits and decision-cache hits beside writes (a delta per wave, "
        "a 1000-rule reload every 4th): a read-path gain that taxes invalidation or reload shows"
    )
    #: One wave, one publish: "every 0.5 vs one hot daemon publishes".
    wave_interval = 0.5
    waves_per_segment = 1
    ops_per_wave = 200
    ref_ops_per_wall_s = 2050.0
    min_warmup_waves = 5
    clients = 32
    servers = 4
    zipf_skew = 1.1
    rules = 1000
    #: "every 2 vs net.set_policy reloads the ruleset".
    reload_every_waves = 4
    #: Every 4th session of a wave sends once more just before it is
    #: reaped; its flow entry has aged out, so the packet punts and the
    #: decision cache answers it.
    repeat_every = 4

    @classmethod
    def ops_per_segment(cls) -> float:
        return cls.ops_per_wave * (1 + 1 / cls.repeat_every)

    def build(self) -> IdentPPNetwork:
        config = churn_config(
            query_cache_ttl=30.0,
            identity_plane="push",
            # Longer than the two waves a session lives, so its repeat
            # packet finds the verdict cached.
            decision_ttl=2.0,
        )
        net, core = _edge_core_net(self, config)
        templates = []
        self.publishers = []
        for index in range(self.servers):
            ip = f"192.168.1.{1 + index}"
            server = net.add_host(HostSpec(name=f"server{index}", ip=ip), switch=core)
            process, _ = server.run_server("httpd", "root", WEB_PORT)
            self.publishers.append((net.daemon(f"server{index}"), process))
            templates.append(
                FlowTemplate(
                    src_host="", dst_host=server.name, src_ip="0.0.0.0", dst_ip=ip,
                    dst_port=WEB_PORT, app_name="http", user_name="alice",
                )
            )
        self.generator = FlowGenerator(templates, zipf_skew=self.zipf_skew, rng=self.rng)
        self.policy_files = {"00-hot.control": _hot_ruleset(self.rules)}
        net.set_policy(self.policy_files)
        return net

    def schedule_extras(self, wave: int, slot_start: float) -> None:
        self.sim.schedule(
            slot_start + 0.25 * self.wave_interval, self.publish, wave, label="bench:publish",
        )
        if wave % self.reload_every_waves == 0:
            self.sim.schedule(
                slot_start + 0.75 * self.wave_interval, self.reload, label="bench:reload",
            )

    def publish(self, wave: int) -> None:
        daemon, process = self.publishers[wave % self.servers]
        daemon.runtime.publish_for_process(process, {"patched": str(wave)})

    def reload(self) -> None:
        stats = self.net.controller.policy.stats()
        for key in self.policy_stats_seen:
            self.policy_stats_seen[key] += stats[key]
        self.net.set_policy(self.policy_files)

    def inject(self, wave: int) -> None:
        self.open_wave(lambda: self.generator.draw_template().dst_ip)

    def reap(self, spawned: list[tuple]) -> None:
        now = self.sim.now
        for host, socket, _, expect_pass in spawned[:: self.repeat_every]:
            packet = host.send_on_socket(socket)
            self.ledger.sent(packet, now, expect_pass, punted=True)
        super().reap(spawned)

    def state_caps(self) -> dict[str, float]:
        ops = self.size.ops_per_wave * (1 + 1 / self.repeat_every)
        caps = self._churn_caps(self.net.controller.config, hops=2, ops_per_wave=math.ceil(ops))
        caps["subscriptions"] = float(self.servers)
        return caps


# ----------------------------------------------------------------------
# cluster_fabric_failover
# ----------------------------------------------------------------------


class ClusterFabricFailover(Workload):
    name = "cluster_fabric_failover"
    why = (
        "4 shards on a 2-spine/4-leaf fabric with telemetry and one kill/restore: shard "
        "routing, 3-hop installs, re-punt adoption and sampling do work no other workload does"
    )
    wave_interval = 0.1
    waves_per_segment = 2
    ops_per_wave = 60
    ref_ops_per_wall_s = 1300.0
    min_warmup_waves = 3
    clients = 12
    shards = 4
    kill_at = 0.4
    restore_at = 0.7

    POLICY = "block all\npass from any to any port 80 keep state\n"

    def build(self) -> IdentPPNetwork:
        net = IdentPPClusterNetwork(
            self.name,
            shards=self.shards,
            # The deadline is far beyond failure detection (two missed
            # 50 vms heartbeats), so orphaned punts are re-homed, never
            # failed closed.
            controller_config=churn_config(pending_deadline=1.0, state_timeout=1.0),
            policy_default_action="block",
        )
        fabric = net.add_spine_leaf_fabric(spines=2, leaves=4)
        self.hosts = _add_clients(self, net, self.clients, fabric.leaves[:-1])
        _add_web_server(net, fabric.leaves[-1])
        net.set_policy({"00-fabric.control": self.POLICY})
        for daemon in net.daemons.values():
            daemon.processing_delay = 500e-6
        # Detection stays on; only auto-quarantine is disarmed so an
        # alert cannot rewrite the workload mid-measurement.
        net.enable_telemetry(auto_quarantine=False).start()
        net.start_monitoring()
        self.victim = net.cluster.shard_map.shards()[0]
        timed = self.size.timed_waves
        self.kill_wave = self.size.warmup_waves + int(self.kill_at * timed)
        self.restore_wave = self.size.warmup_waves + int(self.restore_at * timed)
        return net

    def schedule_extras(self, wave: int, slot_start: float) -> None:
        # A hair after the wave lands, so the victim holds pending punts
        # and has more in flight on its channels.
        when = slot_start + 0.5 * self.wave_interval + 1e-3
        if wave == self.kill_wave:
            self.sim.schedule(when, self.net.cluster.kill, self.victim, label="bench:kill")
        elif wave == self.restore_wave:
            self.sim.schedule(when, self.net.cluster.restore, self.victim, label="bench:restore")

    def inject(self, wave: int) -> None:
        self.open_wave()

    def finish(self) -> None:
        self.net.telemetry.stop()
        self.net.stop_monitoring()

    def state_caps(self) -> dict[str, float]:
        caps = self._churn_caps(self.net.cluster.config, hops=3, ops_per_wave=self.size.ops_per_wave)
        # During the outage the victim's arc waits for failure detection
        # (two heartbeats = one wave interval) at segment boundaries.
        caps["pending"] = caps["buffered"] = 3.0 * self.size.ops_per_wave
        return caps


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls
    for cls in (PuntUnique, FastpathForward, HotIdentityReload, ClusterFabricFailover)
}
