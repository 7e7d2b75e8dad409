"""Query-heavy workloads: the endpoint query cache under hot-server load.

§2 step 3 — the controller "requests additional information from both
the source and the destination end-hosts" — dominates flow-setup cost,
and §3.5's "simple userspace ident++ daemon" is a serial process: a
flash crowd of flows toward one popular server queues its queries
behind each other.  The :class:`~repro.identpp.engine.QueryEngine`
exists to take that cost off the punt path; :func:`query_cache` proves
it and gates it, run by ``make soak_queries`` and recorded in
``BENCH_results.json`` as ``query_cache_bench``:

* **Hot-server scale** — the throughput claim.  ``FLOWS_PER_SERVER``
  concurrent flows per hot server (the servers' daemons serialized) run
  once with the cache disabled and once enabled.  Uncached, every punt
  re-interrogates the server daemon and the makespan grows by one
  ``processing_delay`` per flow; cached, the first punt's query is
  shared by everyone (in-flight coalescing) and the makespan collapses
  to one round trip.  Gate: ≥ ``QUERY_SPEEDUP_FLOOR``x decided-flows
  per simulated second.

* **Legacy negative cache** — the §4 "Incremental Benefit" claim.  Two
  waves of flows toward a daemon-less host: uncached every flow burns
  the full query timeout; cached the first wave shares one timeout and
  the second wave hits the negative cache.  Gate: exactly one real
  timeout in the cached run.

* **Invalidation correctness** — the staleness claim.  A cached answer
  must die the moment the daemon publishes new runtime keys, the
  host's socket table changes owner, the host is compromised, or the
  TTL lapses — each event must force a re-query (observed on the
  daemon's ``queries_answered`` counter), and a socket-owner change
  must flip the *decision* (the old tenant's answer may not admit the
  new tenant's traffic).

* **Cluster** — each shard runs its own engine; a wave split across a
  2-shard cluster costs the hot daemon one answer per deciding shard,
  not one per flow.

* **Flash crowd (push plane)** — the PR 10 claim, :func:`flash_crowd`.
  The same crowd runs once per identity plane.  On the pull plane every
  TTL lapse costs a fresh round trip; on the push plane the hot server
  is promoted to a standing subscription, steady-state punts are
  answered from the resident store with **zero** daemon queries, and
  after an identity publish the delta-driven refresh converges faster
  than the pull plane's invalidate-then-requery round trip.

Run standalone::

    python -m repro.workloads.soak queryload     # every phase
    python -m repro.workloads.soak push          # flash-crowd gate only
"""

from __future__ import annotations

import operator

from repro.core.controller import ControllerConfig
from repro.core.network import HostSpec, IdentPPNetwork
from repro.workloads.soak import (
    Gate,
    Soak,
    decided,
    edge_core_net,
    open_web_flows,
    ratio,
    timed,
    uncached,
)

#: Web traffic must prove the server really is httpd (a dst-side
#: answer); port 8080 is the legacy carve-out that needs no dst info
#: (§4 — daemon-less hosts can still be served by coarser rules).
QUERYLOAD_POLICY = {
    "00-queryload.control": (
        "block all\n"
        "pass from any to any port 80 with eq(@dst[name], httpd)\n"
        "pass from any to any port 8080\n"
    ),
}

#: Acceptance floor for cached-vs-uncached decided-flows/vsec on the
#: hot-server workload.
QUERY_SPEEDUP_FLOOR = 5.0

CLIENTS = 10
HOT_SERVERS = 2
FLOWS_PER_SERVER = 100
#: Serial occupancy of a hot server's daemon per answer (§3.5's
#: userspace daemon is single-threaded).
DAEMON_PROCESSING = 500e-6
#: Edge→core and core→server hops: the round trip the cache saves.
CORE_LINK_LATENCY = 1e-3
CACHE_TTL = 30.0
LEGACY_FLOWS_PER_WAVE = 20
LEGACY_WAVE_GAP = 0.2
#: Short TTL used by the expiry probe.
TTL_PROBE = 0.25
CLUSTER_SHARDS = 2
#: Flash-crowd phase: flows per wave, steady waves after the warm
#: one, the gap between waves (longer than ``TTL_PROBE`` so the pull
#: plane pays a TTL lapse per wave), and how long after an identity
#: publish the convergence probe punts.
FLASH_FLOWS = 30
FLASH_WAVES = 3
FLASH_WAVE_GAP = 0.5
CONVERGENCE_PROBE_DELAY = 0.05


def _net(
    name: str, *, cache_ttl: float, identity_plane: str = "pull", shards: int = 0
) -> IdentPPNetwork:
    """Clients — sw-edge — sw-core — hot servers, one controller or ``shards``."""
    net = edge_core_net(
        name,
        clients=CLIENTS,
        shards=shards,
        servers=[f"server{index}" for index in range(HOT_SERVERS)],
        core_latency=CORE_LINK_LATENCY,
        policy=QUERYLOAD_POLICY,
        config=ControllerConfig(
            query_cache_ttl=cache_ttl,
            identity_plane=identity_plane,
            push_promote_punts=2,
        ),
    )
    for index in range(HOT_SERVERS):
        # The paper's "simple userspace daemon" answers serially:
        # this is the contended resource the cache takes off the
        # punt path.
        net.daemon(f"server{index}").serialize = True
        net.daemon(f"server{index}").processing_delay = DAEMON_PROCESSING
    return net


def _httpd_socket(server):
    """Return ``server``'s socket listening on port 80."""
    return next(
        socket for socket in server.sockets.sockets()
        if socket.is_listening and socket.local_port == 80
    )


# ----------------------------------------------------------------------
# Phases
# ----------------------------------------------------------------------


def _hot_phase() -> dict:
    """The hot-server flash crowd, cache off and cache on."""
    out: dict = {"flows": FLOWS_PER_SERVER * HOT_SERVERS}
    for label, ttl in (("uncached", 0.0), ("cached", CACHE_TTL)):
        net = _net(f"queryload-{label}", cache_ttl=ttl)
        open_web_flows(net, out["flows"], CLIENTS, servers=HOT_SERVERS)
        net.run()
        count, makespan = decided(net.controller.audit.records())
        out[label] = {
            "makespan": makespan,
            "per_vsec": ratio(count, makespan),
            "daemon_answers": int(
                sum(net.daemon(f"server{i}").queries_answered.value
                    for i in range(HOT_SERVERS))
            ),
            "engine_stats": net.controller.query_engine.stats(),
        }
    return out


def _legacy_phase() -> dict:
    """Two waves toward a daemon-less host, cache off and cache on."""
    out: dict = {"flows": 2 * LEGACY_FLOWS_PER_WAVE}
    for label, ttl in (("uncached", 0.0), ("cached", CACHE_TTL)):
        net = _net(f"queryload-legacy-{label}", cache_ttl=ttl)
        net.add_host(
            HostSpec(name="legacy", ip="192.168.2.1", run_daemon=False),
            switch="sw-core",
            link_latency=CORE_LINK_LATENCY,
        )

        def wave() -> None:
            for index in range(LEGACY_FLOWS_PER_WAVE):
                client = net.host(f"client{index % CLIENTS}")
                client.open_flow("http", "alice", "192.168.2.1", 8080)

        wave()
        net.topology.sim.schedule_at(LEGACY_WAVE_GAP, wave)
        net.run()
        engine = net.controller.query_engine
        out[label] = {
            "timeouts": int(net.controller.query_client.queries_timed_out.value),
            "negative_hits": engine.negative_hits,
            "coalesced": engine.coalesced,
        }
    return out


def _invalidation_phase() -> dict:
    """The correctness gate: every staleness event must force a re-query."""
    net = _net("queryload-invalidate", cache_ttl=CACHE_TTL)
    daemon = net.daemon("server0")
    daemon.serialize = False  # latency is irrelevant here
    server = net.host("server0")
    answered = daemon.queries_answered
    httpd_socket = _httpd_socket(server)
    result: dict = {}

    first = net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
    after_first = int(answered.value)
    second = net.send_flow("client1", "http", "alice", "192.168.1.1", 80)
    result["cache_hit_before_events"] = (
        first.decision_action == "pass"
        and second.decision_action == "pass"
        and int(answered.value) == after_first
    )

    # (a) The application publishes new runtime keys.
    daemon.runtime.publish_for_process(httpd_socket.process, {"patched": "yes"})
    net.send_flow("client2", "http", "alice", "192.168.1.1", 80)
    after_publish = int(answered.value)
    result["requery_after_publish"] = after_publish > after_first

    # (b) The socket's owner changes: httpd is replaced by telnet on
    # the same port.  The stale answer (name=httpd) would wrongly
    # admit the new tenant's traffic.
    server.sockets.close(httpd_socket)
    server.run_server("telnet", "root", 80)
    retenant = net.send_flow("client3", "http", "alice", "192.168.1.1", 80)
    after_socket = int(answered.value)
    result["requery_after_socket_change"] = after_socket > after_publish
    result["blocked_after_socket_change"] = retenant.decision_action == "block"

    # (c) Host compromise (the §5.3 attacker controls the daemon).
    server.mark_compromised()
    daemon.spoof_responses({"name": "httpd"})
    net.send_flow("client4", "http", "alice", "192.168.1.1", 80)
    result["requery_after_compromise"] = int(answered.value) > after_socket

    # (d) TTL expiry on a separate short-TTL network.  Flows are
    # driven with open_flow + run-to-idle (not send_flow, whose
    # settle window would advance the clock past the short TTL).
    ttl_net = _net("queryload-ttl", cache_ttl=TTL_PROBE)
    ttl_daemon = ttl_net.daemon("server0")
    ttl_daemon.serialize = False
    ttl_net.host("client0").open_flow("http", "alice", "192.168.1.1", 80)
    ttl_net.run()
    baseline = int(ttl_daemon.queries_answered.value)
    ttl_net.host("client1").open_flow("http", "alice", "192.168.1.1", 80)
    ttl_net.run()
    hit_within_ttl = int(ttl_daemon.queries_answered.value) == baseline
    ttl_net.run(duration=2 * TTL_PROBE)
    ttl_net.host("client2").open_flow("http", "alice", "192.168.1.1", 80)
    ttl_net.run()
    result["requery_after_ttl"] = (
        hit_within_ttl and int(ttl_daemon.queries_answered.value) > baseline
    )
    return result


def _cluster_phase() -> dict:
    """Each shard runs its own engine: one daemon answer per deciding shard."""
    net = _net("queryload-cluster", cache_ttl=CACHE_TTL, shards=CLUSTER_SHARDS)
    open_web_flows(net, FLOWS_PER_SERVER, CLIENTS)
    net.run()
    return {
        "flows": FLOWS_PER_SERVER,
        "shards_deciding": sum(
            1 for controller in net.cluster.replicas.values()
            if uncached(controller.audit.records())
        ),
        "daemon_answers": int(net.daemon("server0").queries_answered.value),
        "per_shard_lookups": {
            name: controller.query_engine.lookups()
            for name, controller in net.cluster.replicas.items()
        },
    }


@timed
def flash_crowd() -> dict:
    """Run one flash crowd on both identity planes: steady state + convergence.

    The same crowd (one warm wave, then ``FLASH_WAVES`` steady waves
    spaced beyond the TTL) runs once per plane.  Afterwards the hot
    daemon publishes new runtime keys and a single probe flow punts
    ``CONVERGENCE_PROBE_DELAY`` later: its decision latency is the
    plane's convergence cost after an identity change.
    """
    out: dict = {"flows": FLASH_FLOWS * (1 + FLASH_WAVES)}
    for plane in ("pull", "push"):
        net = _net(f"queryload-flash-{plane}", cache_ttl=TTL_PROBE, identity_plane=plane)
        sim = net.topology.sim
        daemon = net.daemon("server0")
        engine = net.controller.query_engine

        # Warm wave: promotes the hot server on the push plane.
        open_web_flows(net, FLASH_FLOWS, CLIENTS)
        net.run()
        warm_answers = int(daemon.queries_answered.value)
        for _ in range(FLASH_WAVES):
            sim.schedule_at(sim.now + FLASH_WAVE_GAP, open_web_flows,
                            net, FLASH_FLOWS, CLIENTS,
                            label="queryload.flash_wave")
            net.run()
        steady_queries = int(daemon.queries_answered.value) - warm_answers

        # Identity change: publish new runtime keys for httpd, then
        # punt one probe flow and time its verdict.
        httpd_process = _httpd_socket(net.host("server0")).process
        t_pub = sim.now + 0.05
        sim.schedule_at(t_pub, daemon.runtime.publish_for_process,
                        httpd_process, {"patched": "yes"},
                        label="queryload.flash_publish")
        probe_at = t_pub + CONVERGENCE_PROBE_DELAY
        sim.schedule_at(probe_at, net.host("client0").open_flow,
                        "http", "alice", "192.168.1.1", 80,
                        label="queryload.flash_probe")
        net.run()
        probe = next(
            record for record in uncached(net.controller.audit.records())
            if record.time >= probe_at
        )
        stats = engine.stats()
        out[plane] = {
            "steady_queries": steady_queries,
            "convergence": probe.time - probe_at,
            "subscriptions": engine.subscription_count(),
            "resident_hits": int(stats.get("resident_hits", 0)),
            "deltas_applied": int(stats.get("deltas_applied", 0)),
            "duplicate_deltas": int(stats.get("duplicate_deltas", 0)),
        }

    pull, push = out["pull"], out["push"]
    violations = out["violations"] = []
    if push["subscriptions"] < 1:
        violations.append(
            "flash crowd never promoted the hot server to a standing subscription"
        )
    if push["steady_queries"] != 0:
        violations.append(
            f"steady-state punts issued {push['steady_queries']} daemon queries "
            "on the push plane (subscribed hosts must issue zero)"
        )
    if push["deltas_applied"] < 1:
        violations.append(
            "the identity publish produced no delta on the push plane"
        )
    if push["duplicate_deltas"]:
        violations.append(
            f"{push['duplicate_deltas']} duplicate deltas applied on the push plane"
        )
    if push["convergence"] >= pull["convergence"]:
        violations.append(
            f"push convergence {push['convergence']:.6f}vs not better than the "
            f"pull TTL path's {pull['convergence']:.6f}vs"
        )
    return out


@timed
def query_cache() -> dict:
    """Run the five query-cache phases: hot server, legacy host, invalidation, cluster, flash crowd."""
    hot = _hot_phase()
    legacy = _legacy_phase()
    invalidation = _invalidation_phase()
    cluster = _cluster_phase()
    flash = flash_crowd()
    pull, push = flash["pull"], flash["push"]

    violations = []
    if legacy["cached"]["timeouts"] != 1:
        violations.append(
            f"legacy host cost {legacy['cached']['timeouts']} real timeouts "
            "with the negative cache on (want exactly 1 per TTL)"
        )
    if legacy["cached"]["negative_hits"] < legacy["flows"] // 2:
        violations.append(
            f"only {legacy['cached']['negative_hits']} negative-cache hits for "
            f"{legacy['flows'] // 2} second-wave legacy flows"
        )
    if not invalidation["cache_hit_before_events"]:
        violations.append("repeat flow re-queried the daemon despite a warm cache")
    if not invalidation["requery_after_publish"]:
        violations.append("runtime-key publish did not force a re-query")
    if not invalidation["requery_after_socket_change"]:
        violations.append("socket-table owner change did not force a re-query")
    if not invalidation["blocked_after_socket_change"]:
        violations.append(
            "stale cached answer admitted traffic after the socket owner changed"
        )
    if not invalidation["requery_after_compromise"]:
        violations.append("host compromise did not force a re-query")
    if not invalidation["requery_after_ttl"]:
        violations.append("TTL expiry did not force a re-query")
    if cluster["daemon_answers"] != cluster["shards_deciding"]:
        violations.append(
            f"cluster run cost the hot daemon {cluster['daemon_answers']} "
            f"answers for {cluster['shards_deciding']} deciding shards "
            "(want one per shard engine)"
        )
    violations.extend(flash["violations"])

    cached_per_vsec = round(hot["cached"]["per_vsec"], 1)
    return {
        "flows_hot": hot["flows"],
        "uncached_decided_per_vsec": round(hot["uncached"]["per_vsec"], 1),
        "cached_decided_per_vsec": cached_per_vsec,
        "uncached_makespan_vsec": round(hot["uncached"]["makespan"], 6),
        "cached_makespan_vsec": round(hot["cached"]["makespan"], 6),
        # Cached over uncached decided-flows per simulated second.
        "speedup": round(ratio(hot["cached"]["per_vsec"], hot["uncached"]["per_vsec"]), 2),
        "hot_daemon_answers_uncached": hot["uncached"]["daemon_answers"],
        "hot_daemon_answers_cached": hot["cached"]["daemon_answers"],
        "engine": {
            key: hot["cached"]["engine_stats"].get(key)
            for key in ("lookups", "hits", "misses", "coalesced",
                        "negative_hits", "hit_rate", "coalesce_rate")
        },
        "legacy_flows": legacy["flows"],
        "legacy_uncached_timeouts": legacy["uncached"]["timeouts"],
        "legacy_cached_timeouts": legacy["cached"]["timeouts"],
        "legacy_negative_hits": legacy["cached"]["negative_hits"],
        "legacy_coalesced": legacy["cached"]["coalesced"],
        "invalidation": invalidation,
        "cluster": cluster,
        "push_plane": {
            "flows": flash["flows"],
            "pull_steady_queries": pull["steady_queries"],
            "push_steady_queries": push["steady_queries"],
            "push_subscriptions": push["subscriptions"],
            "push_resident_hits": push["resident_hits"],
            "push_deltas_applied": push["deltas_applied"],
            "push_duplicate_deltas": push["duplicate_deltas"],
            "pull_convergence_vsec": round(pull["convergence"], 6),
            "push_convergence_vsec": round(push["convergence"], 6),
            "zero_query_ok": push["steady_queries"] == 0 and push["subscriptions"] >= 1,
            "convergence_ok": push["convergence"] < pull["convergence"],
        },
        # True when every check above held; the speedup floor is the
        # table's gate.
        "gates_ok": not violations,
        "violations": violations,
        # Headline ops/s: cached decided-flows per simulated second.
        "ops_per_sec": cached_per_vsec,
    }


SOAK = Soak(
    steps=(("query_cache_bench", query_cache),),
    gates=(
        Gate("query_cache_bench.speedup", operator.ge, QUERY_SPEEDUP_FLOOR,
             f"hot-server speedup {{value}}x below the {QUERY_SPEEDUP_FLOOR:g}x floor"),
    ),
    ok=(
        "query soak ok: caching/coalescing carries the hot-server load, "
        "invalidation keeps it honest"
    ),
)

#: ``make soak_push``: the flash-crowd phase alone.  Every check it
#: makes is a violation it lists, so the table needs no gate row.
SOAK_PUSH = Soak(
    steps=(("push_plane_flash_crowd", flash_crowd),),
    gates=(),
    ok=(
        "push soak ok: steady-state punts issue zero daemon queries and "
        "delta-driven convergence beats the TTL path"
    ),
)
