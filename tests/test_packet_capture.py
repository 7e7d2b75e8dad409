"""The packet capture: off unless started, a bounded ring when on.

* a default network records nothing and keeps no forwarded packet alive
  (the tripwire for the leak this replaced: every switch hop used to
  append two records pinning the packet for the life of the network);
* a capture someone starts shows a flow hop by hop across a fabric —
  the capture's consumer — and holds exactly the records the always-on
  trace held (count and digest pinned from the commit before the
  capture became opt-in);
* the ring evicts oldest-first, counts what it dropped, and can be
  capped by ``check_bounded_state``.
"""

import gc
import hashlib
import weakref
from collections import deque

from repro.netsim.packet import Packet
from repro.netsim.trace import TRACE_CAPACITY, PacketTrace
from repro.workloads import determinism
from repro.workloads.invariants import check_bounded_state, network_flow_state
from tests.test_fabric_pathwide import fabric_network

PATH = ["fabric-leaf0", "fabric-spine0", "fabric-leaf3"]


def steps_of(trace, packet):
    return [(record.where, record.event) for record in trace if record.packet is packet]


class TestNothingLeftBehind:
    def test_default_network_records_nothing_and_retains_no_packet(self):
        net, _fabric = fabric_network()
        client, server = net.host("client0"), net.host("server")
        _first, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run(duration=1.0)
        packets = []
        for _ in range(2000):
            packets.append(weakref.ref(client.send_on_socket(socket, payload_size=64)))
        net.run(duration=1.0)
        assert len(server.delivered) == 2001  # all forwarded, three hops each
        server.delivered.clear()
        server.delivered_times.clear()
        gc.collect()
        assert len(net.topology.trace) == 0
        assert network_flow_state(net)["packet_trace"] == 0
        assert sum(ref() is not None for ref in packets) == 0


class TestFabricCapture:
    def test_capture_follows_flows_hop_by_hop(self):
        net, _fabric = fabric_network()
        trace = net.topology.trace
        trace.enabled = True
        client = net.host("client0")

        first, socket, _ = client.open_flow("http", "alice", "192.168.1.1", 80)
        net.run(duration=1.0)
        steps = steps_of(trace, first)
        assert steps[0] == ("fabric-leaf0", "punt")
        assert [where for where, event in steps if event == "forward"] == PATH
        assert {where for where, _ in steps} == set(PATH)

        second = client.send_on_socket(socket)
        net.run(duration=1.0)
        assert steps_of(trace, second) == [
            (hop, event) for hop in PATH for event in ("hit", "forward")
        ]

        denied, _, _ = client.open_flow("telnet", "alice", "192.168.1.1", 23)
        net.run(duration=1.0)
        assert steps_of(trace, denied) == [("fabric-leaf0", "punt"), ("fabric-leaf0", "drop")]

        assert trace.dropped == 0
        assert len(trace) == network_flow_state(net)["packet_trace"] == (
            len(steps) + 2 * len(PATH) + 2
        )

    def test_started_capture_holds_the_records_the_always_on_trace_held(self, monkeypatch):
        nets = []
        build = determinism.edge_core_net

        def capturing(*args, **kwargs):
            net = build(*args, **kwargs)
            net.topology.trace.enabled = True
            nets.append(net)
            return net

        monkeypatch.setattr(determinism, "edge_core_net", capturing)
        determinism.decision_core_scenario(7, flows=20)
        trace = nets[0].topology.trace
        digest = hashlib.sha256()
        for record in trace:
            digest.update(repr((record.time, record.where, record.event, record.note)).encode())
        assert trace.summary() == {"punt": 20, "forward": 40, "hit": 20}
        assert (len(trace), trace.dropped) == (80, 0)
        assert digest.hexdigest() == (
            "76de8fcd353b1bdb60e8e72debf1a8b754eb0195725f426e2a9643c1d1e05552"
        )


class TestRing:
    def test_overflow_evicts_oldest_first_and_counts_it(self):
        assert PacketTrace().records.maxlen == TRACE_CAPACITY
        trace = PacketTrace(records=deque(maxlen=4))
        packets = [Packet.tcp("1.1.1.1", "2.2.2.2", port, 80) for port in range(1, 7)]
        for index, packet in enumerate(packets):
            trace.record(float(index), f"sw{index % 2}", "drop" if index == 5 else "forward", packet)
        assert (len(trace), trace.dropped) == (4, 2)
        assert [record.time for record in trace] == [2.0, 3.0, 4.0, 5.0]
        assert [record.time for record in trace.filter(where="sw1")] == [3.0, 5.0]
        assert trace.filter(event="forward", predicate=lambda r: r.time > 3)[0].time == 4.0
        assert trace.flows_seen() == {packet.five_tuple() for packet in packets[2:]}
        assert trace.bytes_observed(event="forward") == sum(p.wire_size() for p in packets[2:5])
        assert trace.summary() == {"forward": 3, "drop": 1}
        trace.clear()
        assert (len(trace), trace.dropped, trace.summary()) == (0, 0, {})
        trace.record(9.0, "sw0", "forward", packets[0])
        assert (len(trace), trace.dropped) == (1, 0)

    def test_a_capture_above_its_cap_is_a_bounded_state_violation(self):
        net, _fabric = fabric_network()
        net.topology.trace.enabled = True
        net.send_flow("client0", "http", "alice", "192.168.1.1", 80)
        observed = network_flow_state(net)
        assert observed["packet_trace"] == len(net.topology.trace) > 2
        assert check_bounded_state(observed, {"packet_trace": TRACE_CAPACITY}).passed
        result = check_bounded_state(observed, {"packet_trace": 2})
        assert not result.passed and "packet_trace" in result.violations[0]
