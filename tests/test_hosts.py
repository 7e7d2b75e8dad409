"""Tests for the end-host substrate: users, applications, processes, sockets, EndHost."""

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, initialize, invariant, precondition, rule

from repro.exceptions import HostError, ProcessError, SocketError, UserError
from repro.hosts.applications import Application, ApplicationRegistry, standard_applications
from repro.hosts.endhost import EndHost
from repro.hosts.processes import ProcessTable
from repro.hosts.sockets import EPHEMERAL_PORT_BASE, Socket, SocketTable
from repro.hosts.users import UserDatabase
from repro.netsim.addresses import IPv4Address
from repro.netsim.events import Simulator
from repro.netsim.links import Link
from repro.netsim.packet import Packet
from tests.reference_identity import ReferenceSocketTable


class TestUsers:
    def test_builtin_accounts(self):
        db = UserDatabase()
        assert db.user("root").is_superuser
        assert db.user("system").can_bind_privileged_ports
        assert not db.user("system").is_superuser

    def test_add_user_creates_groups(self):
        db = UserDatabase()
        user = db.add_user("alice", groups=["staff", "users"])
        assert "staff" in user.groups
        assert "staff" in db._groups

    def test_duplicate_user_rejected(self):
        db = UserDatabase()
        db.add_user("alice")
        with pytest.raises(UserError):
            db.add_user("alice")

    def test_unknown_user_and_group(self):
        db = UserDatabase()
        with pytest.raises(UserError):
            db.user("ghost")

    def test_add_to_group_and_members(self):
        db = UserDatabase()
        db.add_user("alice")
        db.add_to_group("alice", "research")
        assert "research" in db.user("alice").groups

    def test_uids_are_allocated_from_1000_and_explicit_uids_kept(self):
        db = UserDatabase()
        assert db.add_user("alice").uid == 1000
        assert db.add_user("carol", uid=4242).uid == 4242
        assert db.add_user("bob").uid == 1001

    def test_users_are_counted_and_looked_up(self):
        db = UserDatabase()
        db.add_user("zed", groups=["zulu"])
        db.add_user("amy", groups=["alpha"])
        assert len(db) == 4
        assert db.has_user("amy") and not db.has_user("ghost")

    def test_a_membership_change_notifies_each_listener_once(self):
        db = UserDatabase()
        db.add_user("alice")
        fired = []

        def listener():
            fired.append("changed")

        db.add_change_listener(listener)
        db.add_change_listener(listener)
        db.add_to_group("alice", "research")
        assert fired == ["changed"]
        # Re-adding an existing membership is no change.
        db.add_to_group("alice", "research")
        assert fired == ["changed"]

    def test_a_privileged_account_binds_low_ports_without_being_root(self):
        db = UserDatabase()
        service = db.add_user("svc", privileged=True)
        plain = db.add_user("plain")
        assert service.can_bind_privileged_ports and not service.is_superuser
        assert not plain.can_bind_privileged_ports


class TestApplications:
    def test_identity_keys_include_required_fields(self):
        app = Application(name="skype", path="/usr/bin/skype", version="210", vendor="skype.com", app_type="voip")
        keys = app.identity_keys()
        assert keys["name"] == "skype"
        assert keys["app-name"] == "skype"
        assert keys["version"] == "210"
        assert keys["vendor"] == "skype.com"
        assert keys["type"] == "voip"
        assert len(keys["exe-hash"]) == 64

    def test_extra_keys_override(self):
        app = Application(name="skype-old", path="/opt/skype", version="150",
                          extra_keys={"name": "skype"})
        assert app.identity_keys()["name"] == "skype"

    def test_registry_lookup(self):
        registry = ApplicationRegistry()
        app = Application(name="skype", path="/usr/bin/skype")
        registry.install(app)
        assert registry.require("/usr/bin/skype") is app
        assert registry.require("skype") is app
        assert "skype" in registry

    def test_require_missing_raises(self):
        with pytest.raises(HostError):
            ApplicationRegistry().require("ghost")

    def test_exe_hash_follows_the_contents_not_the_name(self):
        app = Application(name="skype", path="/usr/bin/skype", version="210")
        trojan = dataclasses.replace(app, contents="trojan")
        assert trojan.identity_keys()["name"] == app.identity_keys()["name"]
        assert trojan.exe_hash != app.exe_hash
        assert dataclasses.replace(app).exe_hash == app.exe_hash

    def test_reinstalling_a_path_replaces_the_binary(self):
        registry = ApplicationRegistry()
        app = registry.install(Application(name="skype", path="/usr/bin/skype"))
        upgrade = registry.install(dataclasses.replace(app, version="211"))
        assert registry.require("/usr/bin/skype") is upgrade
        assert registry.require("skype") is upgrade
        assert len(registry) == 1

    def test_registry_iterates_by_path(self):
        registry = ApplicationRegistry()
        registry.install(Application(name="zsh", path="/usr/bin/zsh"))
        registry.install(Application(name="bash", path="/bin/bash"))
        assert [app.path for app in registry] == ["/bin/bash", "/usr/bin/zsh"]
        assert "/bin/bash" in registry and "ghost" not in registry

    def test_standard_catalogue_covers_paper_apps(self):
        names = {app.name for app in standard_applications()}
        assert {"skype", "pine", "thunderbird", "research-app", "Server", "conficker"} <= names


class TestProcesses:
    def setup_method(self):
        self.db = UserDatabase()
        self.alice = self.db.add_user("alice")
        self.bob = self.db.add_user("bob")
        self.app = Application(name="skype", path="/usr/bin/skype")
        self.table = ProcessTable()

    def test_spawn_and_lookup(self):
        process = self.table.spawn(self.alice, self.app)
        assert process.pid in self.table and list(self.table) == [process]
        assert process.application.path == "/usr/bin/skype"

    def test_kill(self):
        process = self.table.spawn(self.alice, self.app)
        self.table.kill(process.pid)
        assert process.pid not in self.table
        with pytest.raises(ProcessError):
            self.table.kill(process.pid)

    def test_pids_are_unique_and_iterate_in_order(self):
        first = self.table.spawn(self.alice, self.app)
        second = self.table.spawn(self.bob, self.app)
        assert first.pid < second.pid
        assert [p.pid for p in self.table] == [first.pid, second.pid]
        assert len(self.table) == 2
        self.table.kill(first.pid)
        assert self.table.spawn(self.alice, self.app).pid > second.pid


class TestSockets:
    def setup_method(self):
        self.db = UserDatabase()
        self.alice = self.db.add_user("alice")
        self.root = self.db.user("root")
        self.app = Application(name="httpd", path="/usr/sbin/httpd")
        self.processes = ProcessTable()
        self.table = SocketTable("192.168.0.10")

    def test_listen_and_find(self):
        process = self.processes.spawn(self.root, self.app)
        socket = self.table.listen(process, 80)
        assert socket.is_listening
        assert self.table.find_listener(80) is socket

    def test_privileged_port_requires_privilege(self):
        process = self.processes.spawn(self.alice, self.app)
        with pytest.raises(SocketError):
            self.table.listen(process, 80)
        # unprivileged ports are fine
        assert self.table.listen(process, 8080).local_port == 8080

    def test_duplicate_listener_rejected(self):
        process = self.processes.spawn(self.root, self.app)
        self.table.listen(process, 80)
        with pytest.raises(SocketError):
            self.table.listen(process, 80)

    def test_invalid_port_rejected(self):
        process = self.processes.spawn(self.root, self.app)
        with pytest.raises(SocketError):
            self.table.listen(process, 0)

    def test_connect_allocates_ephemeral_ports(self):
        process = self.processes.spawn(self.alice, self.app)
        first = self.table.connect(process, "192.168.1.1", 80)
        second = self.table.connect(process, "192.168.1.1", 80)
        assert first.local_port != second.local_port
        assert not first.is_listening

    def test_lookup_flow_as_source(self):
        process = self.processes.spawn(self.alice, self.app)
        socket = self.table.connect(process, "192.168.1.1", 80)
        found = self.table.process_for_flow(
            "192.168.0.10", "192.168.1.1", "tcp", socket.local_port, 80
        )
        assert found is process

    def test_lookup_flow_as_destination_listener(self):
        process = self.processes.spawn(self.root, self.app)
        self.table.listen(process, 80)
        found = self.table.process_for_flow(
            "192.168.1.1", "192.168.0.10", "tcp", 5555, 80, as_destination=True
        )
        assert found is process

    def test_lookup_prefers_connected_socket(self):
        listener_process = self.processes.spawn(self.root, self.app)
        self.table.listen(listener_process, 8080)
        worker_process = self.processes.spawn(self.alice, self.app)
        # the worker socket of an accepted connection shares the listener's port
        self.table._next_ephemeral = 8080  # the port an accepted connection shares
        self.table.connect(worker_process, "192.168.1.1", 5555)
        found = self.table.lookup_flow(
            "192.168.1.1", "192.168.0.10", "tcp", 5555, 8080, as_destination=True
        )
        assert found.process is worker_process

    def test_lookup_unknown_flow_returns_none(self):
        assert self.table.process_for_flow("1.1.1.1", "2.2.2.2", "tcp", 1, 2) is None

    def test_close(self):
        process = self.processes.spawn(self.alice, self.app)
        socket = self.table.connect(process, "192.168.1.1", 80)
        self.table.close(socket)
        with pytest.raises(SocketError):
            self.table.close(socket)


def _describe_socket(socket):
    if socket is None:
        return None
    return (
        socket.proto, str(socket.local_ip), socket.local_port,
        str(socket.remote_ip), socket.remote_port, socket.process.pid,
    )


_HOST_IP = "192.168.0.10"
_IPS = st.sampled_from([_HOST_IP, "192.168.1.1", "192.168.1.2", "10.9.9.9"])
_PROTOS = st.sampled_from(["tcp", "udp", 6, 17])
# Few enough ports that listeners, explicit local ports (accepted
# connections) and wrapped-around ephemeral ports keep colliding.
_PORTS = st.sampled_from([22, 80, 8080, EPHEMERAL_PORT_BASE, EPHEMERAL_PORT_BASE + 1, 0xFFFF])
_PROCESSES = st.integers(min_value=0, max_value=3)


class SocketTableDifferential(RuleBasedStateMachine):
    """Drive the indexed socket table and the linear oracle with the same calls."""

    @initialize(near_wrap=st.booleans())
    def build(self, near_wrap):
        db = UserDatabase()
        alice = db.add_user("alice")
        app = Application(name="httpd", path="/usr/sbin/httpd")
        processes = ProcessTable()
        self.processes = [
            processes.spawn(user, app) for user in (db.user("root"), alice, alice, db.user("system"))
        ]
        self.tables = (SocketTable(_HOST_IP), ReferenceSocketTable(_HOST_IP))
        if near_wrap:
            for table in self.tables:
                table._next_ephemeral = 0xFFFE

    def both(self, call):
        """Apply ``call`` to each table; a refusal counts as a result."""
        results = []
        for table in self.tables:
            try:
                results.append(call(table))
            except SocketError as exc:
                results.append(("raised", str(exc)))
        assert results[0] == results[1]
        return results[0]

    @rule(process=_PROCESSES, port=st.one_of(_PORTS, st.sampled_from([0, 70000])))
    def listen(self, process, port):
        self.both(lambda table: _describe_socket(table.listen(self.processes[process], port)))

    @rule(process=_PROCESSES, remote_ip=_IPS, remote_port=_PORTS)
    def connect(self, process, remote_ip, remote_port):
        self.both(lambda table: _describe_socket(table.connect(
            self.processes[process], remote_ip, remote_port
        )))

    @precondition(lambda self: len(self.tables[1]) > 0)
    @rule(pick=st.integers(min_value=0), by_equal_copy=st.booleans())
    def close(self, pick, by_equal_copy):
        def close_nth(table):
            sockets = list(table.sockets())
            socket = sockets[pick % len(sockets)]
            if by_equal_copy:
                # close() removes the first socket *equal* to its argument.
                socket = Socket(
                    socket.proto, socket.local_ip, socket.local_port, socket.process,
                    socket.remote_ip, socket.remote_port,
                )
            table.close(socket)
        self.both(close_nth)

    @rule(process=_PROCESSES, port=_PORTS)
    def close_stranger(self, process, port):
        stranger = Socket(6, IPv4Address(_HOST_IP), port, self.processes[process])
        present = stranger in self.tables[1].sockets()
        outcome = self.both(lambda table: table.close(stranger))
        assert present or outcome[0] == "raised"

    @rule(
        ip_src=_IPS, ip_dst=_IPS, proto=_PROTOS, tp_src=_PORTS, tp_dst=_PORTS,
        as_destination=st.booleans(),
    )
    def lookup(self, ip_src, ip_dst, proto, tp_src, tp_dst, as_destination):
        self.both(lambda table: _describe_socket(table.lookup_flow(
            ip_src, ip_dst, proto, tp_src, tp_dst, as_destination=as_destination
        )))

    @precondition(lambda self: len(self.tables[1]) > 0)
    @rule(pick=st.integers(min_value=0), as_destination=st.booleans())
    def lookup_resident(self, pick, as_destination):
        # A flow some socket really is an endpoint of (or, for a
        # listener, would accept from 10.9.9.9:22).
        sockets = self.tables[1].sockets()
        socket = sockets[pick % len(sockets)]
        remote = (socket.remote_ip or IPv4Address("10.9.9.9"), socket.remote_port or 22)
        local = (socket.local_ip, socket.local_port)
        (ip_src, tp_src), (ip_dst, tp_dst) = (remote, local) if as_destination else (local, remote)
        found = self.both(lambda table: _describe_socket(table.lookup_flow(
            ip_src, ip_dst, socket.proto, tp_src, tp_dst, as_destination=as_destination
        )))
        assert found is not None

    @invariant()
    def same_observable_state(self):
        self.both(len)
        self.both(lambda table: [_describe_socket(socket) for socket in table.sockets()])
        for port in (22, 80, 8080, EPHEMERAL_PORT_BASE, 0xFFFF):
            self.both(lambda table: _describe_socket(table.find_listener(port)))


SocketTableDifferential.TestCase.settings = settings(
    max_examples=60, stateful_step_count=40, deadline=None
)
TestSocketTableDifferential = SocketTableDifferential.TestCase


class TestEndHost:
    def make_host(self):
        host = EndHost("client", "192.168.0.10")
        host.install_all(standard_applications())
        host.add_user("alice", ("users", "staff"))
        return host

    def test_the_mac_is_the_same_in_every_interpreter(self):
        # str hashes are salted per process; a MAC derived from one would
        # differ between two runs of the same scenario.
        src = str(Path(__file__).resolve().parent.parent / "src")
        code = "from repro.hosts.endhost import EndHost; print(EndHost('client0', '10.0.0.1').mac)"
        macs = {
            subprocess.run(
                [sys.executable, "-c", code],
                env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
                capture_output=True, text=True, check=True,
            ).stdout
            for seed in ("1", "2")
        }
        assert len(macs) == 1 and macs != {""}

    def test_open_flow_builds_packet_and_socket(self):
        host = self.make_host()
        packet, socket, process = host.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        assert str(packet.ip_src) == "192.168.0.10"
        assert packet.tp_dst == 80
        assert socket.remote_port == 80
        assert process.user.name == "alice"
        assert host.process_for_flow(packet.ip_src, packet.ip_dst, packet.ip_proto,
                                     packet.tp_src, packet.tp_dst) is process

    def test_wrapped_ephemeral_port_skips_a_connection_still_open(self):
        # The ephemeral range wraps.  Reissuing a port that is still open
        # to the same server gives two sockets one 5-tuple, and the lsof
        # lookup then answers with the *first* owner: mallory's ssh would
        # be attributed to alice's http, pid and all.
        host = self.make_host()
        host.add_user("mallory")
        _, long_lived, alice_http = host.open_flow("http", "alice", "192.168.1.1", 22, send=False)
        assert long_lived.local_port == EPHEMERAL_PORT_BASE
        host.sockets._next_ephemeral = 0xFFFF
        _, last, _ = host.open_flow("http", "alice", "192.168.1.1", 22, send=False)
        assert last.local_port == 0xFFFF
        packet, socket, mallory_ssh = host.open_flow("ssh", "mallory", "192.168.1.1", 22, send=False)
        assert socket.local_port == EPHEMERAL_PORT_BASE + 1
        owner = host.process_for_flow(
            packet.ip_src, packet.ip_dst, packet.ip_proto, packet.tp_src, packet.tp_dst
        )
        assert owner is mallory_ssh and owner is not alice_http
        # Only that remote endpoint is taken: another server, or the same
        # one once the connection closed, gets the port.
        host.sockets._next_ephemeral = EPHEMERAL_PORT_BASE
        _, elsewhere, _ = host.open_flow("ssh", "mallory", "192.168.1.2", 22, send=False)
        assert elsewhere.local_port == EPHEMERAL_PORT_BASE
        host.sockets.close(long_lived)
        host.sockets._next_ephemeral = EPHEMERAL_PORT_BASE
        _, reissued, _ = host.open_flow("ssh", "mallory", "192.168.1.1", 22, send=False)
        assert reissued.local_port == EPHEMERAL_PORT_BASE

    def test_exhausted_ephemeral_range_is_refused(self, monkeypatch):
        monkeypatch.setattr("repro.hosts.sockets.EPHEMERAL_PORT_BASE", 0xFFFE)
        host = self.make_host()
        host.sockets._next_ephemeral = 0xFFFE
        held = [host.open_flow("http", "alice", "192.168.1.1", 80, send=False)[1] for _ in range(2)]
        assert [socket.local_port for socket in held] == [0xFFFE, 0xFFFF]
        with pytest.raises(SocketError):
            host.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        host.sockets.close(held[1])
        _, socket, _ = host.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        assert socket.local_port == 0xFFFF

    def test_run_server_default_port(self):
        host = self.make_host()
        process, socket = host.run_server("httpd", "root")
        assert socket.local_port == 80
        assert process.application.name == "httpd"

    def test_run_server_without_port_fails_for_clients(self):
        host = self.make_host()
        with pytest.raises(HostError):
            host.run_server("http", "alice")

    def test_receive_records_delivery(self):
        host = self.make_host()
        packet = Packet.tcp("192.168.1.1", "192.168.0.10", 80, 5555)
        host.attach(Simulator())
        host.receive(packet, host.add_port())
        assert host.delivered == [packet]

    def test_a_packet_to_port_783_is_delivered_like_any_other(self):
        # The ident++ port has no in-host service: the controller reaches
        # the daemon directly, so a datapath packet to 783 is plain traffic.
        host = self.make_host()
        host.attach(Simulator())
        packet = Packet.tcp("192.168.1.1", "192.168.0.10", 783, 783)
        host.receive(packet, host.add_port())
        assert host.delivered == [packet]

    def test_receive_ignores_foreign_destination(self):
        host = self.make_host()
        packet = Packet.tcp("192.168.1.1", "192.168.0.99", 80, 5555)
        host.receive(packet, host.add_port())
        assert host.delivered == []

    def test_transmit_uses_wired_port(self):
        sim = Simulator()
        client = self.make_host()
        server = EndHost("server", "192.168.1.1")
        client.attach(sim)
        server.attach(sim)
        Link(client.add_port(), server.add_port())
        packet, _, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        sim.run()
        assert server.delivered and server.delivered[0].five_tuple() == packet.five_tuple()

    def test_send_on_socket(self):
        host = self.make_host()
        _, socket, _ = host.open_flow("http", "alice", "192.168.1.1", 80, send=False)
        packet = host.send_on_socket(socket, payload_size=100)
        assert packet.tp_src == socket.local_port

    def test_send_on_listening_socket_rejected(self):
        host = self.make_host()
        _, socket = host.run_server("httpd", "root")
        with pytest.raises(HostError):
            host.send_on_socket(socket)

    def test_mark_compromised(self):
        host = self.make_host()
        host.mark_compromised(superuser=True)
        assert host.compromised and host.compromised_as_superuser
