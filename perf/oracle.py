"""Bench-side output oracle: what each generated op must have produced.

The workloads record every packet they emit together with the verdict
their own policy demands.  After each segment the harness hands the
network back to the ledger, which matches the destination hosts'
``delivered`` / ``delivered_times`` lists and the controllers' audit logs
against those expectations and then clears the delivery lists, so the
hosts hold the program's state and not the benchmark's log.
"""

from __future__ import annotations

import hashlib
import math

#: At most this many offending ops are kept verbatim for the report.
MAX_FAILURE_DETAILS = 10


class _Op:
    """One emitted packet and what must happen to it."""

    __slots__ = ("sent_at", "expect_pass", "flow", "timed")

    def __init__(self, sent_at: float, expect_pass: bool, flow, timed: bool) -> None:
        self.sent_at = sent_at
        self.expect_pass = expect_pass
        self.flow = flow
        self.timed = timed


class _Flow:
    """One 5-tuple the control plane must decide (and audit) per punt."""

    __slots__ = ("expect_pass", "punts", "records")

    def __init__(self, expect_pass: bool) -> None:
        self.expect_pass = expect_pass
        self.punts = 0
        self.records = 0


class Ledger:
    """Expected versus observed outcome of every op of one repeat."""

    def __init__(self) -> None:
        self.timed = False
        self.attempted = 0
        self.timed_ops = 0
        #: Virtual seconds from transmit to delivery, timed passed ops only.
        self.latencies: list[float] = []
        #: Keys (5-tuple, or packet id for unpunted packets) of failed ops:
        #: one op that is both misjudged and dropped fails once.
        self._failed: set = set()
        self.failures: list[str] = []
        self._open: dict[int, _Op] = {}
        self._flows: dict[tuple, _Flow] = {}
        self._audit_seen: dict[str, int] = {}

    # ------------------------------------------------------------------
    # Recording (called by the workloads as they generate load)
    # ------------------------------------------------------------------

    def sent(self, packet, now: float, expect_pass: bool, *, punted: bool) -> None:
        """Record one emitted packet.

        ``punted`` marks packets that must reach the controller (a
        flow's first packet, or a repeat after its flow entry expired):
        each owes one audit record with the expected action.
        """
        flow = None
        if punted:
            flow = packet.five_tuple()
            entry = self._flows.get(flow)
            if entry is None:
                entry = self._flows[flow] = _Flow(expect_pass)
            entry.punts += 1
        self._open[packet.packet_id] = _Op(now, expect_pass, flow, self.timed)
        self.attempted += 1
        if self.timed:
            self.timed_ops += 1

    def punted_flows(self) -> list[tuple]:
        """Return every 5-tuple that was punted, in first-punt order."""
        return list(self._flows)

    def input_digest(self) -> str:
        """Digest of the generated inputs: each punted flow and its expected verdict."""
        digest = hashlib.sha256()
        for key, flow in self._flows.items():
            digest.update(f"{key}|{flow.expect_pass}|{flow.punts}\n".encode())
        digest.update(str(self.attempted).encode())
        return digest.hexdigest()

    # ------------------------------------------------------------------
    # Matching (called by the harness between segments)
    # ------------------------------------------------------------------

    @property
    def failed(self) -> int:
        """Return how many ops had an outcome the oracle did not expect."""
        return len(self._failed)

    def _fail(self, kind: str, key, detail: str) -> None:
        self._failed.add(key)
        if len(self.failures) < MAX_FAILURE_DETAILS:
            self.failures.append(f"{kind}: {detail}")

    def harvest(self, net) -> None:
        """Match new deliveries and audit records, then clear the delivery lists."""
        for host in net.hosts.values():
            if not host.delivered:
                continue
            for packet, when in zip(host.delivered, host.delivered_times):
                op = self._open.pop(packet.packet_id, None)
                if op is None:
                    self._fail("unexpected delivery", packet.packet_id, str(packet))
                elif not op.expect_pass:
                    self._fail("wrongly delivered", op.flow or packet.packet_id, str(packet))
                elif op.timed:
                    self.latencies.append(when - op.sent_at)
            host.delivered.clear()
            host.delivered_times.clear()
        for name, controller in net.controllers.items():
            seen = self._audit_seen.get(name, 0)
            if len(controller.audit) == seen:
                continue
            records = controller.audit.records()
            self._audit_seen[name] = len(records)
            for record in records[seen:]:
                key = record.flow.as_tuple()
                flow = self._flows.get(key)
                if flow is None:
                    self._fail("unexpected decision", key, str(record.flow))
                    continue
                flow.records += 1
                expected = "pass" if flow.expect_pass else "block"
                if record.action != expected or record.rule_origin == "error":
                    self._fail(
                        "wrong verdict", key,
                        f"{record.flow} got {record.action} ({record.rule_origin}), "
                        f"policy says {expected}",
                    )

    def close(self) -> None:
        """Classify whatever is still open after the drain."""
        for packet_id, op in self._open.items():
            if op.expect_pass:
                self._fail(
                    "wrongly dropped", op.flow or packet_id,
                    f"packet {packet_id} sent at t={op.sent_at:.6f} ({op.flow})",
                )
        self._open.clear()
        for key, flow in self._flows.items():
            if flow.records < flow.punts:
                kind = "undecided" if flow.records == 0 else "unaudited"
                self._fail(kind, key, f"{key}: {flow.punts} punts, {flow.records} audit records")


def percentile(sorted_values: list[float], pct: float) -> float:
    """Nearest-rank percentile of an already sorted list (0.0 when empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(pct / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]
