"""Tests for the QueryEngine and the query-path silent-failure fixes.

Covers the engine's cache hit/miss/TTL-expiry behaviour, in-flight
coalescing, the negative cache for daemon-less and unreachable hosts,
every invalidation trigger (runtime publish, socket-table owner change,
spoofing, host compromise, config loads), controller and cluster
integration — plus the three query-client bugfixes: unreachable hosts
reported as timeouts (not silent successes), the interceptor-latency
cache keyed on the topology mutation epoch, and per-role interceptor
ordering in ``query_both_ends``.
"""

import pytest

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPClusterNetwork, IdentPPNetwork
from repro.hosts.applications import standard_applications
from repro.hosts.endhost import EndHost
from repro.identpp.client import DEFAULT_QUERY_TIMEOUT, QueryClient, per_role_interceptors
from repro.identpp.daemon import IdentPPDaemon
from repro.identpp.engine import QueryEngine
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import ResponseDocument
from repro.identpp.wire import IdentResponse
from repro.netsim.nodes import Node
from repro.netsim.topology import Topology


def make_host(name, ip, *, daemon=True, serve=None):
    host = EndHost(name, ip)
    host.install_all(standard_applications())
    host.add_user("alice", ("users", "staff"))
    host.add_user("root", ("root",))
    d = IdentPPDaemon(host) if daemon else None
    if serve is not None:
        app, user, port = serve
        host.run_server(app, user, port)
    return host, d


def build_world(*, server_daemon=True, serve=("httpd", "root", 80)):
    """client — mid — server, every IP registered, client daemon'd."""
    topo = Topology("engine-test")
    switch = topo.add_node(Node("mid"))
    client, _ = make_host("client", "192.168.0.10")
    server, server_d = make_host(
        "server", "192.168.1.1", daemon=server_daemon, serve=serve
    )
    topo.add_node(client)
    topo.add_node(server)
    topo.add_link(client, switch, latency=1e-3)
    topo.add_link(server, switch, latency=1e-3)
    topo.register_ip(client.ip, client)
    topo.register_ip(server.ip, server)
    return topo, switch, client, server, server_d


def flow_to_server(src_port=40000, dst_port=80):
    return FlowSpec.tcp("192.168.0.10", "192.168.1.1", src_port, dst_port)


class NamedInterceptor:
    """Interceptor that answers with its own name (ordering probe)."""

    def __init__(self, name, answer=True):
        self.name = name
        self.answer = answer

    def intercept_query(self, query):
        if not self.answer:
            return None
        doc = ResponseDocument()
        doc.add_section({"answered-by": self.name}, source=self.name)
        return IdentResponse(flow=query.flow, document=doc, responder=self.name)

    def augment_response(self, query, response):
        response.document.augment({"seen": self.name}, source=self.name)


# ----------------------------------------------------------------------
# Entry-point parity: ``query`` and ``query_async`` are one lookup
# ----------------------------------------------------------------------


def _ask_sync(engine, *args, **kwargs):
    return engine.query(*args, **kwargs)


def _ask_async(engine, *args, **kwargs):
    future = engine.query_async(*args, **kwargs)
    engine.client.topology.sim.run()  # deliver the answer event, if any
    return future.result()


def both_entry_points(test):
    """Run one cache-state test through ``query`` and through ``query_async``.

    The test issues its lookups as ``ask(engine, flow, role, ...)``, so
    the entry point is one more input to the same assertions.  Beyond
    those, the two runs must agree on every outcome field and on every
    engine counter: the async path may only choose *when* an answer is
    delivered, never what it is or what it counts as.
    """

    def run_both(self):
        runs = []
        for entry_point in (_ask_sync, _ask_async):
            outcomes, engines = [], []

            def ask(engine, *args, **kwargs):
                outcome = entry_point(engine, *args, **kwargs)
                outcomes.append((
                    outcome.response.to_payload() if outcome.response else None,
                    round(outcome.latency, 9), outcome.answered_by,
                    outcome.intercepted, outcome.timed_out, outcome.unreachable,
                    outcome.cached, outcome.coalesced, tuple(outcome.augmented_by),
                ))
                if engine not in engines:
                    engines.append(engine)
                return outcome

            test(self, ask)
            runs.append((outcomes, [engine.stats() for engine in engines]))
        assert runs[0] == runs[1]

    run_both.__name__ = test.__name__
    run_both.__doc__ = test.__doc__
    return run_both


# ----------------------------------------------------------------------
# Satellite bugfixes in the query client
# ----------------------------------------------------------------------


class TestUnreachableHost:
    def build_partitioned(self):
        """Server has a daemon but no path from the querying switch."""
        topo = Topology("partitioned")
        switch = topo.add_node(Node("sw"))
        server, daemon = make_host("server", "192.168.1.1")
        topo.add_node(server)
        topo.register_ip(server.ip, server)
        # No link between switch and server: the query cannot be delivered.
        return topo, switch, daemon

    def test_unreachable_host_is_a_timeout_not_a_silent_success(self):
        topo, switch, daemon = self.build_partitioned()
        client = QueryClient(topo)
        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)
        outcome = client.query(flow, "dst", from_node=switch)
        assert outcome.timed_out and outcome.unreachable
        assert not outcome.succeeded()
        assert outcome.latency == DEFAULT_QUERY_TIMEOUT
        assert client.queries_timed_out == 1
        # The daemon was never asked: the query could not be delivered.
        assert int(daemon.queries_answered.value) == 0

    def test_only_topology_errors_are_swallowed(self):
        topo, switch, _ = self.build_partitioned()
        client = QueryClient(topo)

        def boom(source, target):
            raise ValueError("a real bug, not an unreachable host")

        client.topology.path_latency = boom
        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)
        with pytest.raises(ValueError):
            client.query(flow, "dst", from_node=switch)


class TestPerRoleInterceptorOrdering:
    def test_helper_reverses_for_source(self):
        a, b = NamedInterceptor("a"), NamedInterceptor("b")
        toward_src, toward_dst = per_role_interceptors([a, b])
        assert toward_dst == (a, b)
        assert toward_src == (b, a)

    def test_query_both_ends_walks_reversed_toward_source(self):
        # Two on-path interceptors whose answers differ.  Ordered
        # querier -> destination they are [near, far]; the walk toward
        # the *source* must start from "far" (nearest the source).
        topo, switch, client_host, server, _ = build_world()
        near, far = NamedInterceptor("near"), NamedInterceptor("far")
        qc = QueryClient(topo)
        flow = flow_to_server()
        src_outcome, dst_outcome = qc.query_both_ends(
            flow, from_node=switch, interceptors=[near, far]
        )
        assert dst_outcome.document.latest("answered-by") == "near"
        assert src_outcome.document.latest("answered-by") == "far"


# ----------------------------------------------------------------------
# QueryEngine: cache, coalescing, negative cache
# ----------------------------------------------------------------------


class TestEngineCache:
    @both_entry_points
    def test_disabled_engine_is_pure_passthrough(self, ask):
        topo, switch, _, _, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=0.0)
        assert not engine.enabled
        for port in (40000, 40001):
            outcome = ask(engine, flow_to_server(port), "dst", from_node=switch)
            assert outcome.succeeded() and not outcome.cached
        assert int(daemon.queries_answered.value) == 2
        assert engine.stats()["lookups"] == 0

    @both_entry_points
    def test_hit_after_ready_and_miss_after_ttl(self, ask):
        topo, switch, _, _, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        first = ask(engine, flow_to_server(40000), "dst", from_node=switch, now=0.0)
        assert first.succeeded() and not first.cached
        ready = first.latency
        # A different flow to the same server:port after the answer
        # "arrived" is a hit: zero latency, no daemon contact.
        hit = ask(
            engine, flow_to_server(41000), "dst", from_node=switch, now=ready + 0.1
        )
        assert hit.cached and hit.latency == 0.0
        assert hit.document.latest("name") == "httpd"
        assert int(daemon.queries_answered.value) == 1
        # Past the TTL the entry is gone and the daemon is re-asked.
        miss = ask(
            engine, flow_to_server(42000), "dst", from_node=switch, now=ready + 11.0
        )
        assert not miss.cached
        assert int(daemon.queries_answered.value) == 2
        stats = engine.stats()
        assert stats["hits"] == 1 and stats["misses"] == 2

    @both_entry_points
    def test_source_entries_do_not_leak_across_flows(self, ask):
        # Source answers are keyed on the ephemeral source port: two
        # different flows from the same client must not share one.
        topo, switch, client_host, _, _ = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        client_daemon = client_host.identpp_daemon
        p1, _, _ = client_host.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        p2, _, _ = client_host.open_flow("skype", "alice", "192.168.1.1", 80, send=False)
        f1, f2 = FlowSpec.from_packet(p1), FlowSpec.from_packet(p2)
        o1 = ask(engine, f1, "src", from_node=switch, now=0.0)
        o2 = ask(engine, f2, "src", from_node=switch, now=1.0)
        assert o1.document.latest("name") == "http"
        assert o2.document.latest("name") == "skype"
        assert not o2.cached
        assert int(client_daemon.queries_answered.value) == 2

    @both_entry_points
    def test_intercepted_answers_are_not_cached(self, ask):
        topo, switch, _, _, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        interceptor = NamedInterceptor("edge")
        first = ask(
            engine, flow_to_server(40000), "dst", from_node=switch,
            interceptors=[interceptor], now=0.0,
        )
        assert first.intercepted
        assert len(engine.store) == 0
        # Without the interceptor the daemon is asked fresh.
        second = ask(engine, flow_to_server(40001), "dst", from_node=switch, now=0.0)
        assert not second.cached and second.answered_by == "server"

    @both_entry_points
    def test_interceptors_bypass_a_warm_cache(self, ask):
        # Interception is a per-query decision (§3.4): a warm entry must
        # not pre-empt an on-path controller's chance to answer.
        topo, switch, _, _, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=100.0)
        ask(engine, flow_to_server(40000), "dst", from_node=switch, now=0.0)
        assert len(engine.store) == 1
        outcome = ask(
            engine, flow_to_server(41000), "dst", from_node=switch,
            interceptors=[NamedInterceptor("edge")], now=1.0,
        )
        assert outcome.intercepted and not outcome.cached
        assert outcome.document.latest("answered-by") == "edge"
        # The intercepted query bypassed the cache: the first is the only lookup.
        assert engine.stats()["lookups"] == 1

    @both_entry_points
    def test_flow_specific_dst_answer_is_not_shared_across_flows(self, ask):
        # The app published pairs for one specific flow: that flow's
        # answer is flow-scoped and must not decide other flows.
        topo, switch, _, server, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=100.0)
        flow_a, flow_b = flow_to_server(40000), flow_to_server(41000)
        daemon.runtime.publish_for_flow(flow_a, {"authorized": "yes"})
        first = ask(engine, flow_a, "dst", from_node=switch, now=0.0)
        assert first.document.latest("authorized") == "yes"
        # Same-flow re-punt may reuse the flow-scoped entry...
        repunt = ask(engine, flow_a, "dst", from_node=switch, now=1.0)
        assert repunt.cached
        assert int(daemon.queries_answered.value) == 1
        # ...but a different flow queries fresh and never sees A's pair.
        other = ask(engine, flow_b, "dst", from_node=switch, now=2.0)
        assert not other.cached
        assert other.document.latest("authorized") is None
        assert int(daemon.queries_answered.value) == 2


class TestEngineCoalescing:
    @both_entry_points
    def test_concurrent_punts_share_one_outstanding_query(self, ask):
        topo, switch, _, _, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=10.0)
        first = ask(engine, flow_to_server(40000), "dst", from_node=switch, now=0.0)
        ready = first.latency
        # While the first query is "in flight", every punt coalesces:
        # same answer, charged only the remaining wait.
        later = ask(
            engine, flow_to_server(41000), "dst", from_node=switch, now=ready / 2
        )
        assert later.coalesced
        assert later.latency == pytest.approx(ready / 2)
        assert later.document.latest("name") == "httpd"
        # Exactly one daemon answer served both punts.
        assert int(daemon.queries_answered.value) == 1
        assert engine.stats()["coalesced"] == 1


class TestEngineNegativeCache:
    @both_entry_points
    def test_daemonless_host_costs_one_timeout_per_ttl(self, ask):
        topo, switch, _, _, _ = build_world(server_daemon=False, serve=None)
        qc = QueryClient(topo)
        engine = QueryEngine(qc, ttl=10.0)
        first = ask(engine, flow_to_server(40000), "dst", from_node=switch, now=0.0)
        assert first.timed_out and first.latency == DEFAULT_QUERY_TIMEOUT
        # Within the TTL every further flow pays nothing.
        hit = ask(
            engine, flow_to_server(41000), "dst", from_node=switch, now=DEFAULT_QUERY_TIMEOUT + 0.01
        )
        assert hit.timed_out and hit.cached and hit.latency == 0.0
        assert qc.queries_timed_out == 1
        assert engine.stats()["negative_hits"] == 1
        # Past the TTL the host is probed again.
        again = ask(engine, flow_to_server(42000), "dst", from_node=switch, now=20.0)
        assert again.timed_out and not again.cached
        assert qc.queries_timed_out == 2

    @both_entry_points
    def test_negative_entry_coalesces_while_in_flight(self, ask):
        topo, switch, _, _, _ = build_world(server_daemon=False, serve=None)
        qc = QueryClient(topo)
        engine = QueryEngine(qc, ttl=10.0)
        ask(engine, flow_to_server(40000), "dst", from_node=switch, now=0.0)
        shared = ask(
            engine, flow_to_server(41000), "dst", from_node=switch, now=DEFAULT_QUERY_TIMEOUT / 2
        )
        assert shared.timed_out and shared.coalesced
        assert shared.latency == pytest.approx(DEFAULT_QUERY_TIMEOUT / 2)
        assert qc.queries_timed_out == 1

    def test_daemon_appearing_mid_ttl_is_noticed_immediately(self):
        topo, switch, _, server, _ = build_world(server_daemon=False, serve=None)
        engine = QueryEngine(QueryClient(topo), ttl=100.0)
        engine.query(flow_to_server(40000), "dst", from_node=switch, now=0.0)
        assert len(engine.store) == 1
        IdentPPDaemon(server)
        revived = engine.query(flow_to_server(41000), "dst", from_node=switch, now=1.0)
        assert revived.succeeded() and not revived.cached

    def test_unreachable_entry_invalidated_by_topology_change(self):
        topo = Topology("partitioned")
        switch = topo.add_node(Node("sw"))
        server, daemon = make_host("server", "192.168.1.1", serve=("httpd", "root", 80))
        topo.add_node(server)
        topo.register_ip(server.ip, server)
        engine = QueryEngine(QueryClient(topo), ttl=100.0)
        cut_off = engine.query(flow_to_server(40000), "dst", from_node=switch, now=0.0)
        assert cut_off.timed_out and cut_off.unreachable
        # Still partitioned: the negative entry answers.
        again = engine.query(flow_to_server(41000), "dst", from_node=switch, now=1.0)
        assert again.timed_out and (again.cached or again.coalesced)
        # Repairing the network invalidates it on the next lookup.
        topo.add_link(server, switch, latency=1e-3)
        healed = engine.query(flow_to_server(42000), "dst", from_node=switch, now=2.0)
        assert healed.succeeded()
        assert int(daemon.queries_answered.value) == 1


# ----------------------------------------------------------------------
# Invalidation triggers
# ----------------------------------------------------------------------


class TestEngineInvalidation:
    def warm(self):
        topo, switch, client_host, server, daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=1000.0)
        outcome = engine.query(flow_to_server(40000), "dst", from_node=switch, now=0.0)
        assert outcome.succeeded() and len(engine.store) == 1
        return engine, switch, server, daemon

    def assert_requeries(self, engine, switch, daemon):
        assert len(engine.store) == 0
        fresh = engine.query(flow_to_server(49000), "dst", from_node=switch, now=500.0)
        assert not fresh.cached
        assert int(daemon.queries_answered.value) == 2

    def test_publish_for_flow_invalidates(self):
        engine, switch, _, daemon = self.warm()
        daemon.runtime.publish_for_flow(flow_to_server(40000), {"k": "v"})
        self.assert_requeries(engine, switch, daemon)

    def test_publish_for_process_invalidates(self):
        engine, switch, server, daemon = self.warm()
        process = next(iter(server.sockets.sockets())).process
        daemon.runtime.publish_for_process(process, {"k": "v"})
        self.assert_requeries(engine, switch, daemon)

    def test_socket_table_change_invalidates(self):
        engine, switch, server, daemon = self.warm()
        server.open_flow("http", "alice", "192.168.0.10", 8080, send=False)
        self.assert_requeries(engine, switch, daemon)

    def test_spoofing_invalidates(self):
        engine, switch, _, daemon = self.warm()
        daemon.spoof_responses({"name": "httpd"})
        self.assert_requeries(engine, switch, daemon)

    def test_host_compromise_invalidates(self):
        engine, switch, server, daemon = self.warm()
        server.mark_compromised()
        self.assert_requeries(engine, switch, daemon)

    def test_config_load_invalidates(self):
        engine, switch, _, daemon = self.warm()
        daemon.load_system_config("@app /usr/sbin/httpd {\nextra : yes\n}")
        self.assert_requeries(engine, switch, daemon)

    def test_group_membership_change_invalidates(self):
        engine, switch, server, daemon = self.warm()
        cached = engine.query(flow_to_server(40001), "dst", from_node=switch, now=400.0)
        assert cached.cached and cached.document.latest("groupID") == "root"
        server.users.add_to_group("root", "wheel")
        assert len(engine.store) == 0
        fresh = engine.query(flow_to_server(49000), "dst", from_node=switch, now=500.0)
        assert not fresh.cached
        assert int(daemon.queries_answered.value) == 2
        assert fresh.document.latest("groupID") == "root wheel"
        # Re-adding a member changes nothing and tells nobody.
        server.users.add_to_group("root", "wheel")
        assert len(engine.store) == 1

    def test_invalidation_is_per_host(self):
        topo, switch, client_host, server, server_daemon = build_world()
        engine = QueryEngine(QueryClient(topo), ttl=1000.0)
        packet, _, _ = client_host.open_flow(
            "http", "alice", "192.168.1.1", 80, send=False
        )
        flow = FlowSpec.from_packet(packet)
        engine.query(flow, "src", from_node=switch, now=0.0)
        engine.query(flow, "dst", from_node=switch, now=0.0)
        assert len(engine.store) == 2
        # The *server's* state changes; the client's cached answer stays.
        server_daemon.runtime.publish_for_flow(flow, {"k": "v"})
        assert len(engine.store) == 1
        assert engine.store.holds("192.168.0.10") and not engine.store.holds("192.168.1.1")

    def test_explicit_invalidate_and_expire(self):
        engine, switch, _, daemon = self.warm()
        assert engine.invalidate_host("192.168.1.1", "admin") == 1
        assert len(engine.store) == 0
        engine.query(flow_to_server(41000), "dst", from_node=switch, now=0.0)
        assert len(engine.store) == 1
        assert engine.store.next_deadline() is not None
        assert engine.expire(now=5000.0) == 1
        assert len(engine.store) == 0 and engine.store.next_deadline() is None


# ----------------------------------------------------------------------
# Controller + cluster integration
# ----------------------------------------------------------------------


def build_cached_net(**config_kwargs):
    net = IdentPPNetwork(
        "engine-net",
        policy_default_action="block",
        controller_config=ControllerConfig(query_cache_ttl=60.0, **config_kwargs),
    )
    sw = net.add_switch("sw1")
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
        switch=sw,
    )
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
    server.run_server("httpd", "root", 80)
    net.set_policy(
        {"00.control": "block all\npass from any to any port 80 with eq(@dst[name], httpd)\n"}
    )
    return net


class TestControllerIntegration:
    def test_repeat_flows_hit_the_endpoint_cache(self):
        net = build_cached_net()
        daemon = net.daemon("server")
        first = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        second = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert first.decision_action == "pass" and second.decision_action == "pass"
        # One daemon answer served both decisions.
        assert int(daemon.queries_answered.value) == 1
        engine = net.controller.query_engine
        assert engine.stats()["hits"] >= 1 and engine.enabled

    def test_invalidation_forces_requery_through_the_controller(self):
        net = build_cached_net()
        daemon = net.daemon("server")
        server = net.host("server")
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert int(daemon.queries_answered.value) == 1
        # Re-tenant port 80: the cached httpd answer must not admit the
        # new listener's traffic.
        for socket in list(server.sockets.sockets()):
            if socket.is_listening and socket.local_port == 80:
                server.sockets.close(socket)
        server.run_server("telnet", "root", 80)
        result = net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        assert int(daemon.queries_answered.value) == 2
        assert result.decision_action == "block"

    def test_default_config_keeps_engine_disabled(self):
        net = IdentPPNetwork("plain-net")
        sw = net.add_switch("sw1")
        net.add_host(
            HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
            switch=sw,
        )
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
        server.run_server("httpd", "root", 80)
        net.set_policy({"00.control": "pass from any to any"})
        daemon = net.daemon("server")
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        net.send_flow("client", "http", "alice", "192.168.1.1", 80)
        # Two punts, two fresh daemon interrogations: pre-engine behaviour.
        assert int(daemon.queries_answered.value) == 2
        assert not net.controller.query_engine.enabled


class TestClusterIntegration:
    def test_each_shard_runs_its_own_engine(self):
        net = IdentPPClusterNetwork(
            "engine-cluster",
            shards=2,
            policy_default_action="block",
            controller_config=ControllerConfig(query_cache_ttl=60.0),
        )
        sw = net.add_switch("sw1")
        net.add_host(
            HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users",)}),
            switch=sw,
        )
        server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
        server.run_server("httpd", "root", 80)
        net.set_policy({"00.control": "pass from any to any port 80\n"})
        engines = [c.query_engine for c in net.cluster.replicas.values()]
        assert len({id(e) for e in engines}) == 2
        client = net.host("client")
        for _ in range(20):
            client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run()
        # Both shards decided flows out of their own caches: the hot
        # daemon answered once per shard engine, not once per flow.
        deciding = [
            c for c in net.cluster.replicas.values()
            if any(not r.cached for r in c.audit.records())
        ]
        assert len(deciding) == 2
        assert int(net.daemon("server").queries_answered.value) == len(deciding)
        assert sum(engine.lookups() for engine in engines) == 40
        # Shard caches are isolated: invalidating through one engine
        # leaves the other's entries alone.
        engines[0].invalidate_host("192.168.1.1")
        assert any(len(e.store) > 0 for e in engines[1:])
