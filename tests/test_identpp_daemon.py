"""Tests for the ident++ daemon, its configuration files and the query client."""

import dataclasses
import gc
import weakref

import pytest

from repro.exceptions import DaemonConfigError, QueryError
from repro.hosts.applications import standard_applications
from repro.hosts.endhost import EndHost
from repro.identpp.client import QueryClient
from repro.identpp.daemon import IdentPPDaemon
from repro.identpp.daemon_config import DaemonConfig, parse_daemon_config
from repro.identpp.flowspec import FlowSpec
from repro.identpp.wire import IdentQuery
from repro.netsim.nodes import Node
from repro.netsim.topology import Topology

SKYPE_CONFIG = """\
@app /usr/bin/skype {
name : skype
version : 210
vendor : skype.com
type : voip
requirements : \\
pass from any port http \\
with eq(@src[name], skype) \\
pass from any port https \\
with eq(@src[name], skype)
req-sig : 21oir...w3eda
}
"""


class TestDaemonConfigParser:
    def test_figure3_parses(self):
        config = parse_daemon_config(SKYPE_CONFIG, source="system")
        app = config.app_for_path("/usr/bin/skype")
        assert app is not None
        assert app.pairs["name"] == "skype"
        assert app.pairs["version"] == "210"
        assert app.pairs["req-sig"] == "21oir...w3eda"
        # continuations collapse into one requirements value
        assert app.pairs["requirements"].startswith("pass from any port http")
        assert "pass from any port https" in app.pairs["requirements"]

    def test_global_pairs_outside_blocks(self):
        config = parse_daemon_config("os-patch : MS08-067\n" + SKYPE_CONFIG)
        assert config.global_pairs == {"os-patch": "MS08-067"}

    def test_comments_ignored(self):
        config = parse_daemon_config("# a comment\nkey : value  # trailing\n")
        assert config.global_pairs == {"key": "value"}

    @pytest.mark.parametrize("text", [
        "@app /usr/bin/x {\nname : x\n",               # unterminated block
        "@app /usr/bin/x\nname : x\n}",                # missing brace
        "@app {\nname : x\n}",                          # missing path
        "@app /usr/bin/x {\n@app /usr/bin/y {\n}\n}",  # nesting
        "}",                                            # stray close
        "@app /usr/bin/x {\njust-a-word\n}",           # key without colon
    ])
    def test_malformed_rejected(self, text):
        with pytest.raises(DaemonConfigError):
            parse_daemon_config(text)

    def test_daemon_config_collection(self):
        config = DaemonConfig()
        config.load(SKYPE_CONFIG, source="system")
        config.load("@app /usr/bin/skype {\nextra : yes\n}", source="user")
        sections = config.sections_for_path("/usr/bin/skype")
        assert len(sections) == 2
        assert sections[0].get("name") == "skype"
        assert sections[1].get("extra") == "yes"


def make_host(name="client", ip="192.168.0.10"):
    host = EndHost(name, ip)
    host.install_all(standard_applications())
    host.add_user("alice", ("users", "staff"))
    return host


class TestDaemonAnswers:
    def test_source_side_answer(self):
        host = make_host()
        daemon = IdentPPDaemon(host, host_facts={"os-name": "linux"})
        daemon.load_system_config(SKYPE_CONFIG)
        packet, _, _ = host.open_flow("skype", "alice", "192.168.1.1", 5060, send=False)
        flow = FlowSpec.from_packet(packet)
        response = daemon.answer(IdentQuery(flow=flow, target_role="src"))
        doc = response.document
        assert doc.latest("userID") == "alice"
        assert "staff" in doc.latest("groupID")
        assert doc.latest("name") == "skype"
        assert doc.latest("version") == "210"
        assert doc.latest("os-name") == "linux"
        assert doc.latest("requirements") is not None
        # OS facts and config file pairs live in different sections
        assert doc.section_count() >= 2

    def test_destination_side_answer_for_listener(self):
        host = make_host("server", "192.168.1.1")
        daemon = IdentPPDaemon(host)
        host.run_server("httpd", "root", 80)
        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)
        response = daemon.answer(IdentQuery(flow=flow, target_role="dst"))
        assert response.document.latest("name") == "httpd"
        assert response.document.latest("userID") == "root"

    def test_unknown_flow_reports_no_process(self):
        host = make_host()
        daemon = IdentPPDaemon(host)
        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 41000, 80)
        response = daemon.answer(IdentQuery(flow=flow, target_role="src"))
        assert response.document.latest("no-process") == "true"
        assert response.document.latest("userID") is None

    def test_query_for_wrong_host_rejected(self):
        host = make_host()
        daemon = IdentPPDaemon(host)
        flow = FlowSpec.tcp("10.9.9.9", "192.168.1.1", 41000, 80)
        with pytest.raises(QueryError):
            daemon.answer(IdentQuery(flow=flow, target_role="src"))

    def test_runtime_keys_from_application(self):
        host = make_host()
        daemon = IdentPPDaemon(host)
        packet, _, process = host.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        daemon.runtime.publish_for_process(process, {"patched": "no", "window": "main"})
        daemon.runtime.publish_for_flow(flow, {"click-id": "42"})
        # A later publication replaces what the process said before.
        daemon.runtime.publish_for_process(process, {"patched": "yes"})
        response = daemon.answer(IdentQuery(flow=flow, target_role="src"))
        doc = response.document
        assert doc.latest("patched") == "yes"
        assert doc.latest("click-id") == "42"
        assert doc.latest("window") == "main"

    def test_published_pairs_are_the_registry_own_copy(self):
        host = make_host()
        daemon = IdentPPDaemon(host)
        packet, _, process = host.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        pairs = {"patched": "yes"}
        daemon.runtime.publish_for_process(process, pairs)
        daemon.runtime.publish_for_flow(flow, pairs)
        pairs["patched"] = "no"
        assert daemon.runtime.pairs_for(flow, process) == {"patched": "yes"}
        response = daemon.answer(IdentQuery(flow=flow, target_role="src"))
        assert response.document.latest("patched") == "yes"

    def test_spoofed_responses_replace_everything(self):
        host = make_host()
        daemon = IdentPPDaemon(host)
        packet, _, _ = host.open_flow("telnet", "alice", "192.168.1.1", 23, send=False)
        flow = FlowSpec.from_packet(packet)
        daemon.spoof_responses({"userID": "system", "name": "http"})
        response = daemon.answer(IdentQuery(flow=flow, target_role="src"))
        assert response.document.latest("userID") == "system"
        assert response.document.latest("name") == "http"
        daemon.spoof_responses(None)
        response = daemon.answer(IdentQuery(flow=flow, target_role="src"))
        assert response.document.latest("userID") == "alice"

    def test_daemon_registers_port_783_service(self):
        host = make_host()
        IdentPPDaemon(host)
        assert getattr(host, "identpp_daemon", None) is not None


USER_OVERRIDE_CONFIG = """\
@app /usr/bin/skype {
version : 999
}
"""


def _skype_process(host):
    return next(p for p in host.processes if p.application.name == "skype")


def sources(document):
    """The provenance labels of a response document's sections, in order."""
    return [section.source for section in document.sections]


def _spoof_then_stop(host, daemon):
    daemon.spoof_responses({"userID": "system"})
    daemon.answer(IdentQuery(flow=_skype_flow(host), target_role="src"))
    daemon.spoof_responses(None)


def _skype_flow(host):
    socket = next(s for s in host.sockets.sockets() if not s.is_listening)
    return FlowSpec.tcp(host.ip, socket.remote_ip, socket.local_port, socket.remote_port)


def _trojan_in_place(host, daemon):
    _skype_process(host).application.contents = "trojaned image"


def _new_version_in_place(host, daemon):
    _skype_process(host).application.version = "211"


def _replace_application(host, daemon):
    # A trojaned binary: same name and path, different executable contents.
    process = _skype_process(host)
    process.application = dataclasses.replace(process.application, contents="trojan")


def _set_host_fact(host, daemon):
    daemon.host_facts["os-patch"] = "MS08-067"
    daemon.notify_invalidation("host-fact")


#: name -> (change applied to a host whose daemon already answered, does
#: the honest answer differ afterwards)
IDENTITY_CHANGES = {
    "config-load-system": (lambda host, daemon: daemon.load_system_config(USER_OVERRIDE_CONFIG), True),
    "config-load-user": (lambda host, daemon: daemon.load_user_config(USER_OVERRIDE_CONFIG), True),
    "host-fact": (_set_host_fact, True),
    "spoofed-on": (lambda host, daemon: daemon.spoof_responses({"userID": "system"}), True),
    "spoofed-off": (_spoof_then_stop, False),
    "runtime-publish": (
        lambda host, daemon: daemon.runtime.publish_for_process(
            _skype_process(host), {"window": "main"}
        ),
        True,
    ),
    "user-table": (lambda host, daemon: host.users.add_to_group("alice", "research"), True),
    "groups-mutated-directly": (
        lambda host, daemon: host.users.user("alice").groups.discard("staff"), True,
    ),
    "mark-compromised": (lambda host, daemon: host.mark_compromised(), False),
    "trojaned-contents": (_trojan_in_place, True),
    "trojaned-version": (_new_version_in_place, True),
    "replaced-application": (_replace_application, True),
}


class TestAnswerMemo:
    """The memoised part of an answer is never staler than a from-scratch build."""

    def answered_host(self, *, warm):
        """A host running skype; with ``warm`` its daemon has already answered."""
        host = make_host()
        daemon = IdentPPDaemon(host, host_facts={"os-name": "linux"})
        daemon.load_system_config(SKYPE_CONFIG)
        host.open_flow("skype", "alice", "192.168.1.1", 5060, send=False)
        query = IdentQuery(flow=_skype_flow(host), target_role="src")
        before = daemon.answer(query).document.to_body() if warm else None
        return host, daemon, query, before

    @pytest.mark.parametrize("name", sorted(IDENTITY_CHANGES))
    def test_answer_after_a_change_equals_a_from_scratch_build(self, name):
        change, answer_differs = IDENTITY_CHANGES[name]
        host, daemon, query, before = self.answered_host(warm=True)
        change(host, daemon)
        after = daemon.answer(query).document
        # The same history on a daemon that never answered before the change.
        cold_host, cold_daemon, cold_query, _ = self.answered_host(warm=False)
        change(cold_host, cold_daemon)
        from_scratch = cold_daemon.answer(cold_query).document
        assert after.to_body() == from_scratch.to_body()
        assert sources(after) == sources(from_scratch)
        assert (after.to_body() != before) == answer_differs

    def test_trojaned_binary_changes_exe_hash_in_the_very_next_answer(self):
        host, daemon, query, _ = self.answered_host(warm=True)
        honest = daemon.answer(query).document.latest("exe-hash")
        _trojan_in_place(host, daemon)
        trojaned = daemon.answer(query).document.latest("exe-hash")
        _replace_application(host, daemon)
        replaced = daemon.answer(query).document.latest("exe-hash")
        assert len({honest, trojaned, replaced}) == 3
        assert replaced == _skype_process(host).application.exe_hash

    def test_two_processes_of_one_user_and_application_report_their_own_pid(self):
        host = make_host()
        daemon = IdentPPDaemon(host)
        answers = []
        for _ in range(2):
            packet, _, process = host.open_flow("skype", "alice", "192.168.1.1", 5060, send=False)
            document = daemon.answer(
                IdentQuery(flow=FlowSpec.from_packet(packet), target_role="src")
            ).document
            answers.append((document.latest("pid"), str(process.pid), document))
        assert answers[0][0] == answers[0][1] != answers[1][1] == answers[1][0]
        first, second = (answer[2].as_flat_dict() for answer in answers)
        assert {key for key in first if first[key] != second[key]} == {"pid"}

    def test_mutating_a_returned_answer_leaves_the_next_one_unchanged(self):
        host, daemon, query, before = self.answered_host(warm=True)
        document = daemon.answer(query).document
        document.augment({"userID": "forged"}, source="interceptor")
        for section in document.sections:
            section.add("name", "forged")
            section.pairs[0] = ("responder", "forged")
            section.source = "forged"
        again = daemon.answer(query).document
        assert again.to_body() == before
        assert "forged" not in sources(again)

    def test_memo_holds_no_process(self):
        host = make_host()
        host.add_user("bob", ("users",))
        daemon = IdentPPDaemon(host)
        reaped = []
        for cycle in range(10_000):
            user, app = (("alice", "skype"), ("bob", "http"), ("alice", "http"))[cycle % 3]
            packet, socket, process = host.open_flow(app, user, "192.168.1.1", 80, send=False)
            document = daemon.answer(
                IdentQuery(flow=FlowSpec.from_packet(packet), target_role="src")
            ).document
            assert document.latest("pid") == str(process.pid)
            assert document.latest("userID") == user
            host.sockets.close(socket)
            host.processes.kill(process.pid)
            reaped.append(weakref.ref(process))
            del packet, socket, process, document
        assert len(daemon._base_memo) == 3
        gc.collect()
        assert not any(ref() is not None for ref in reaped)


class TestQueryClient:
    def build_topology(self, *, with_daemon=True):
        topo = Topology("query-test")
        switch = topo.add_node(Node("mid"))
        client = EndHost("client", "192.168.0.10")
        client.install_all(standard_applications())
        client.add_user("alice", ("users",))
        server = EndHost("server", "192.168.1.1")
        topo.add_node(client)
        topo.add_node(server)
        topo.add_link(client, switch, latency=1e-3)
        topo.add_link(server, switch, latency=1e-3)
        topo.register_ip(client.ip, client)
        topo.register_ip(server.ip, server)
        if with_daemon:
            IdentPPDaemon(client)
        return topo, switch, client, server

    def test_query_returns_daemon_answer_and_latency(self):
        topo, switch, client, server = self.build_topology()
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        outcome = QueryClient(topo).query(flow, "src", from_node=switch)
        assert outcome.succeeded()
        assert outcome.document.latest("userID") == "alice"
        # round trip over a 1 ms link plus daemon processing
        assert outcome.latency >= 2e-3

    def test_query_times_out_without_daemon(self):
        topo, switch, client, server = self.build_topology(with_daemon=False)
        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)
        outcome = QueryClient(topo).query(flow, "src", from_node=switch)
        assert outcome.timed_out and not outcome.succeeded()
        assert outcome.document.as_flat_dict() == {}

    def test_interceptor_can_answer(self):
        topo, switch, client, server = self.build_topology(with_daemon=False)

        class Interceptor:
            name = "edge-controller"

            def intercept_query(self, query):
                from repro.identpp.keyvalue import ResponseDocument
                from repro.identpp.wire import IdentResponse
                doc = ResponseDocument()
                doc.add_section({"userID": "registered"}, source="edge")
                return IdentResponse(flow=query.flow, document=doc, responder="edge")

            def augment_response(self, query, response):
                raise AssertionError("must not be called when the query was answered")

        flow = FlowSpec.tcp("192.168.0.10", "192.168.1.1", 40000, 80)
        outcome = QueryClient(topo).query(flow, "src", from_node=switch,
                                          interceptors=[Interceptor()])
        assert outcome.intercepted
        assert outcome.document.latest("userID") == "registered"

    def test_interceptor_augments_real_response(self):
        topo, switch, client, server = self.build_topology()

        class Augmenter:
            name = "branch-b"

            def intercept_query(self, query):
                return None

            def augment_response(self, query, response):
                response.document.augment({"remote-accept": "no"}, source="branch-b")

        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        outcome = QueryClient(topo).query(flow, "src", from_node=switch,
                                          interceptors=[Augmenter()])
        assert not outcome.intercepted
        assert outcome.document.latest("remote-accept") == "no"
        assert outcome.document.latest("userID") == "alice"
        assert outcome.augmented_by == ["branch-b"]

    def test_query_both_ends_combined_latency(self):
        topo, switch, client, server = self.build_topology()
        IdentPPDaemon(server)
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        flow = FlowSpec.from_packet(packet)
        client_query = QueryClient(topo)
        outcomes = client_query.query_both_ends(flow, from_node=switch)
        assert len(outcomes) == 2
        assert QueryClient.combined_latency(outcomes) == max(o.latency for o in outcomes)
