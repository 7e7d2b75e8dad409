"""The one-channel identity plane against the two-fan-out one it replaced.

``tests/reference_identity.py`` keeps the daemon that told an engine
about each change twice (a reason string to its invalidation listener,
then an ``IdentDelta`` to its subscription's delivery callable) and the
engine that listened on both, with the promotion tally kept beside it.
The real daemon hands every listener one delta and the real engine's
``_on_delta`` handles it for pull and push alike.  Both worlds are built
the same way and driven through the same generated steps — punts at both
roles, runtime publishes, socket opens and closes, config loads,
subscribe / unsubscribe / idle demotion, expiry sweeps, quarantine and a
failover hand-off between two engines — and after every step must have
served the same answers, with the same latency and cache flags, and hold
the same counters, resident entries and daemon-side registrations.
Daemon replacement is left out: there the behaviour changed on purpose.
"""

from hypothesis import example, given, settings, strategies as st

from repro.hosts.applications import standard_applications
from repro.hosts.endhost import EndHost
from repro.identpp.client import QueryClient
from repro.identpp.daemon import IdentPPDaemon
from repro.identpp.engine import QueryEngine
from repro.identpp.engine_push import PushPlane
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import ROLE_DESTINATION, ROLE_SOURCE
from repro.netsim.nodes import Node
from repro.netsim.topology import Topology
from tests.reference_identity import ReferenceDaemon, ReferencePushPlane, ReferenceQueryEngine

HOSTS = (("client", "192.168.0.10", "sshd", 22), ("server", "192.168.1.1", "httpd", 80))
CONFIG = "@app /usr/sbin/sshd {\nversion : 999\n}\n"


class World:
    """Two hosts with daemons behind one switch, and two engines over them."""

    def __init__(self, reference: bool, *, ttl, promote, idle, legacy_client) -> None:
        daemon_cls = ReferenceDaemon if reference else IdentPPDaemon
        engine_cls = ReferenceQueryEngine if reference else QueryEngine
        plane_cls = ReferencePushPlane if reference else PushPlane
        self.topo = Topology("identity-plane")
        self.switch = self.topo.add_node(Node("mid"))
        self.hosts, self.daemons, self.sockets = [], [], []
        for name, ip, app, port in HOSTS:
            host = EndHost(name, ip)
            host.install_all(standard_applications())
            host.add_user("alice", ("users",))
            host.add_user("root", ("root",))
            legacy = legacy_client and name == "client"
            self.daemons.append(daemon_cls(host, push_capable=not legacy))
            host.run_server(app, "root", port)
            self.topo.add_node(host)
            self.topo.add_link(host, self.switch, latency=1e-3)
            self.topo.register_ip(host.ip, host)
            self.hosts.append(host)
        self.engines = [
            engine_cls(QueryClient(self.topo), ttl=ttl, name=f"eng{index}") for index in range(2)
        ]
        for engine in self.engines:
            plane_cls(engine, idle_demote=idle, promote_punts=promote)
        self.reference = reference
        self.futures = []

    def flow(self, towards: int, sport: int) -> FlowSpec:
        """A flow from the other host to ``towards``'s listening port."""
        src, dst = self.hosts[1 - towards], self.hosts[towards]
        return FlowSpec.tcp(src.ip, dst.ip, sport, HOSTS[towards][3])

    def apply(self, step) -> None:
        kind, *args = step
        now = self.topo.sim.now
        if kind == "punt":
            index, towards, sport = args
            engine, flow = self.engines[index], self.flow(towards, sport)
            engine.push_plane.note_punt(flow.dst_ip, from_node=self.switch)
            self.futures.extend(
                engine.query_async(flow, role, from_node=self.switch)
                for role in (ROLE_SOURCE, ROLE_DESTINATION)
            )
        elif kind == "run":
            self.topo.sim.run(until=now + args[0])
        elif kind == "publish_flow":
            towards, sport = args
            self.daemons[towards].runtime.publish_for_flow(
                self.flow(towards, sport), {"tag": str(len(self.futures))}
            )
        elif kind == "publish_process":
            host = self.hosts[args[0]]
            self.daemons[args[0]].runtime.publish_for_process(
                next(iter(host.processes)), {"tag": str(len(self.futures))}
            )
        elif kind == "socket":
            host = self.hosts[args[0]]
            if args[1] and self.sockets:
                owner, socket = self.sockets.pop()
                owner.sockets.close(socket)
            else:
                peer = self.hosts[1 - args[0]]
                _, socket, _ = host.open_flow("ssh", "alice", peer.ip, 22, send=False)
                self.sockets.append((host, socket))
        elif kind == "config":
            self.daemons[args[0]].load_system_config(CONFIG)
        elif kind == "subscribe":
            self.engines[args[0]].subscribe_host(self.hosts[args[1]].ip, from_node=self.switch)
        elif kind == "unsubscribe":
            self.engines[args[0]].push_plane.unsubscribe_host(self.hosts[args[1]].ip)
        elif kind == "demote":
            self.engines[args[0]].push_plane.demote_idle(now)
        elif kind == "expire":
            self.engines[args[0]].expire(now)
        elif kind == "quarantine":
            engine, ip = self.engines[args[0]], self.hosts[args[1]].ip
            if self.reference:
                engine.quarantine(ip)
            else:
                engine.invalidate_host(ip, reason="quarantine")
        elif kind == "handoff":
            records = self.engines[args[0]].push_plane.export()
            self.engines[1 - args[0]].push_plane.adopt(records)

    def observed(self) -> dict:
        def served(future):
            if not future._done:
                return None
            outcome = future.result()
            payload = outcome.response.to_payload() if outcome.response is not None else None
            return (payload, outcome.latency, outcome.cached, outcome.coalesced, outcome.timed_out)

        return {
            "now": self.topo.sim.now,
            "served": [served(future) for future in self.futures],
            "engines": [
                (
                    engine.stats(),
                    {
                        entry.key for host in self.hosts
                        for entry in engine.store.entries(str(host.ip)) if entry.resident
                    },
                    len(engine.store),
                    sorted(engine.push_plane.subscriptions),
                )
                for engine in self.engines
            ],
            "daemons": [
                (
                    daemon.delta_serial,
                    daemon.subscriber_count(),
                    len(daemon._invalidation_listeners),
                    int(daemon.queries_answered.value),
                )
                for daemon in self.daemons
            ],
        }


ENGINE = st.integers(0, 1)
HOST = st.integers(0, 1)
SPORT = st.sampled_from((40000, 40001))
PUNT = st.tuples(st.just("punt"), ENGINE, HOST, SPORT)
RUN = st.tuples(st.just("run"), st.sampled_from((0.0005, 0.002, 0.01, 1.0, 4.0)))
OTHER = st.one_of(
    st.tuples(st.just("publish_flow"), HOST, SPORT),
    st.tuples(st.just("publish_process"), HOST),
    st.tuples(st.just("socket"), HOST, st.booleans()),
    st.tuples(st.just("config"), HOST),
    st.tuples(st.just("subscribe"), ENGINE, HOST),
    st.tuples(st.just("unsubscribe"), ENGINE, HOST),
    st.tuples(st.just("demote"), ENGINE),
    st.tuples(st.just("expire"), ENGINE),
    st.tuples(st.just("quarantine"), ENGINE, HOST),
    st.tuples(st.just("handoff"), ENGINE),
)
# Four steps in ten are punts and three are clock runs: resident hits,
# coalescing and re-primes need several of them between the changes.
STEP = st.integers(0, 9).flatmap(lambda n: PUNT if n < 4 else RUN if n < 7 else OTHER)


@settings(max_examples=80, deadline=None)
@given(
    ttl=st.sampled_from((0.0, 0.5, 30.0)),
    promote=st.integers(1, 3),
    idle=st.sampled_from((1.0, 30.0)),
    legacy_client=st.booleans(),
    steps=st.lists(STEP, min_size=8, max_size=40),
)
# A tally left over from before a direct subscription must not survive
# its close: two punts after the unsubscribe stay below the threshold.
@example(
    ttl=30.0, promote=3, idle=30.0, legacy_client=False,
    steps=[
        ("punt", 0, 1, 40000), ("subscribe", 0, 1), ("unsubscribe", 0, 1),
        ("punt", 0, 1, 40000), ("run", 1.0), ("punt", 0, 1, 40001), ("run", 1.0),
        ("punt", 0, 1, 40000),
    ],
)
def test_one_channel_serves_what_two_fan_outs_served(ttl, promote, idle, legacy_client, steps):
    config = dict(ttl=ttl, promote=promote, idle=idle, legacy_client=legacy_client)
    reference, real = World(True, **config), World(False, **config)
    for step in [*steps, ("run", 10.0)]:
        reference.apply(step)
        real.apply(step)
        assert real.observed() == reference.observed(), step
