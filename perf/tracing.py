"""Per-layer spans recorded from outside the program.

The traced repeat wraps each layer's public entry points with timing
shims — class-level wrappers installed by :meth:`Tracer.installed` and
restored on exit; no file under ``src/`` changes.  Every event callback
handed to ``Simulator.schedule`` is wrapped too, so each fired event is
a span named by :func:`repro.netsim.sanitizer.callback_name` whose layer
is the module that defined the callback.

A span is ``(name, layer, start_ns, end_ns, parent, flow id)``.  A
layer's *self time* is its spans' duration minus the part covered by
child spans, so layer self times add up to the traced wall time and
nothing is counted twice.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import sys
import time
from typing import Callable, Iterator, Optional

from repro.netsim.sanitizer import callback_name

#: Layer -> entry points, ``module:Class.attr`` or ``module:function``.
#: A name that no longer resolves is skipped (and listed in the report):
#: later PRs may move an entry point but may not edit this directory, so
#: the benchmark must keep running with that layer's spans missing.
ENTRY_POINTS: dict[str, tuple[str, ...]] = {
    "workloads.generators": (
        "repro.workloads.generators:FlowGenerator.draw_template",
        "repro.workloads.generators:FlowGenerator.draw_flow",
        "repro.workloads.generators:FlowGenerator.draw_batch",
    ),
    "hosts": (
        "repro.hosts.endhost:EndHost.open_flow",
        "repro.hosts.endhost:EndHost.send_on_socket",
        "repro.hosts.endhost:EndHost.receive",
        "repro.hosts.endhost:EndHost.process_for_flow",
        "repro.hosts.sockets:SocketTable.process_for_flow",
        "repro.hosts.sockets:SocketTable.lookup_flow",
        "repro.hosts.sockets:SocketTable.close",
        "repro.hosts.processes:ProcessTable.kill",
    ),
    "netsim.events": (
        "repro.netsim.events:Simulator.run",
        "repro.netsim.events:Simulator.step",
        "repro.netsim.events:Simulator.schedule",
    ),
    "netsim.links": ("repro.netsim.links:Link.transmit",),
    "netsim.packet": (
        "repro.netsim.packet:Packet.__init__",
        "repro.netsim.packet:Packet.wire_size",
    ),
    "openflow.switch": (
        "repro.openflow.switch:OpenFlowSwitch.receive",
        "repro.openflow.switch:OpenFlowSwitch.handle_message",
        "repro.openflow.switch:OpenFlowSwitch.sweep_expired",
    ),
    "openflow.flow_table": (
        "repro.openflow.flow_table:FlowTable.lookup",
        "repro.openflow.flow_table:FlowTable.install",
        "repro.openflow.flow_table:FlowTable.remove",
        "repro.openflow.flow_table:FlowTable.remove_by_cookie",
        "repro.openflow.flow_table:FlowTable.expire",
    ),
    "openflow.channel": (
        "repro.openflow.channel:ControllerChannel.send_to_controller",
        "repro.openflow.channel:ControllerChannel.send_to_switch",
    ),
    "core.controller": (
        "repro.core.controller:IdentPPController.on_packet_in",
        "repro.core.controller:IdentPPController.on_flow_removed",
        # Continuations that run as Future callbacks, not as events of
        # their own; the event-scheduled ones are spans by construction.
        "repro.core.controller:IdentPPController._answers_ready",
    ),
    "core.cache": (
        "repro.core.cache:DecisionCache.lookup",
        "repro.core.cache:DecisionCache.store",
        "repro.core.cache:DecisionCache.invalidate_cookie",
        "repro.core.cache:DecisionCache.expire",
    ),
    "core.lifecycle": ("repro.core.lifecycle:LifecycleService.sweep",),
    "core.policy_engine": (
        "repro.core.policy_engine:PolicyEngine.decide",
        "repro.core.policy_engine:PolicyEngine.decide_batch",
        "repro.core.policy_engine:PolicyEngine.rebuild",
    ),
    "pf.evaluator": (
        "repro.pf.evaluator:PolicyEvaluator.evaluate",
        "repro.pf.evaluator:PolicyEvaluator.evaluate_batch",
    ),
    "pf.compiler": ("repro.pf.compiler:CompiledPolicy.__init__",),
    "identpp.engine": (
        "repro.identpp.engine:QueryEngine.query",
        "repro.identpp.engine:QueryEngine.query_both_ends",
        "repro.identpp.engine:QueryEngine.query_async",
        "repro.identpp.engine:QueryEngine.query_both_ends_async",
        "repro.identpp.engine:QueryEngine.subscribe_host",
        "repro.identpp.engine:QueryEngine.invalidate_host",
        "repro.identpp.engine:QueryEngine.expire",
        "repro.identpp.engine:QueryEngine._on_delta",
    ),
    "identpp.client": (
        "repro.identpp.client:QueryClient.query",
        "repro.identpp.client:QueryClient.query_async",
        "repro.identpp.client:QueryClient.query_both_ends",
    ),
    "identpp.daemon": (
        "repro.identpp.daemon:IdentPPDaemon.answer",
        "repro.identpp.daemon:IdentPPDaemon.notify_invalidation",
    ),
    "identpp.wire": (
        "repro.identpp.wire:IdentQuery.to_payload",
        "repro.identpp.wire:IdentResponse.to_payload",
        "repro.identpp.wire:IdentSubscribe.to_payload",
        "repro.identpp.wire:IdentSubscribeAck.to_payload",
        "repro.identpp.wire:IdentDelta.to_payload",
        "repro.identpp.wire:IdentUnsubscribe.to_payload",
        "repro.identpp.wire:parse_push_payload",
        "repro.identpp.wire:parse_query_payload",
        "repro.identpp.wire:parse_query_packet",
        "repro.identpp.wire:parse_response_payload",
    ),
    "cluster": (
        "repro.cluster.cluster:ControllerCluster.route",
        "repro.cluster.cluster:ControllerCluster.kill",
        "repro.cluster.cluster:ControllerCluster.restore",
        "repro.cluster.cluster:ControllerCluster.fail_over",
        "repro.cluster.coordinator:ClusterCoordinator.set_policy",
        "repro.cluster.coordinator:ClusterCoordinator.resync",
        "repro.cluster.coordinator:ClusterCoordinator.rehome_subscriptions",
    ),
    "telemetry": ("repro.telemetry.pipeline:MetricsPipeline.sample",),
}

LAYERS = tuple(ENTRY_POINTS)
UNATTRIBUTED = "unattributed"

#: Module prefix -> layer of an event callback defined there (first match).
_MODULE_LAYERS = (
    ("perf.", "workloads.generators"),
    ("repro.workloads", "workloads.generators"),
    ("repro.hosts", "hosts"),
    ("repro.netsim.events", "netsim.events"),
    ("repro.netsim.packet", "netsim.packet"),
    ("repro.netsim", "netsim.links"),
    ("repro.openflow.switch", "openflow.switch"),
    ("repro.openflow.flow_table", "openflow.flow_table"),
    ("repro.openflow.match", "openflow.flow_table"),
    ("repro.openflow.channel", "openflow.channel"),
    ("repro.openflow", "core.controller"),
    ("repro.core.cache", "core.cache"),
    ("repro.core.lifecycle", "core.lifecycle"),
    ("repro.core.policy_engine", "core.policy_engine"),
    ("repro.core", "core.controller"),
    ("repro.pf.compiler", "pf.compiler"),
    ("repro.pf", "pf.evaluator"),
    ("repro.identpp.engine", "identpp.engine"),
    ("repro.identpp.client", "identpp.client"),
    ("repro.identpp.daemon", "identpp.daemon"),
    ("repro.identpp", "identpp.wire"),
    ("repro.cluster", "cluster"),
    ("repro.telemetry", "telemetry"),
)


def _layer_of_module(module: str) -> str:
    for prefix, layer in _MODULE_LAYERS:
        if module.startswith(prefix):
            return layer
    return UNATTRIBUTED


def _flow_id(args: tuple) -> Optional[str]:
    """Return the 5-tuple of the first Packet/FlowSpec/PacketIn argument."""
    for arg in args:
        packet = getattr(arg, "packet", arg)
        five_tuple = getattr(packet, "five_tuple", None) or getattr(packet, "as_tuple", None)
        if five_tuple is not None:
            return "|".join(str(part) for part in five_tuple())
    return None


class Tracer:
    """Installs the shims, keeps the spans, and attributes self time."""

    def __init__(self, *, keep_spans: bool = False) -> None:
        self._clock = time.perf_counter_ns
        #: Open spans, innermost last: ``[start_ns, child_ns, span index]``.
        self._stack: list[list[int]] = []
        #: Span name -> ``[layer, calls, self_ns, total_ns]``.
        self._names: dict[str, list] = {}
        self._callback_names: dict[object, list] = {}
        #: ``[name, layer, start_ns, end_ns, parent index, flow id]`` per
        #: span, kept only when they will be written out.
        self.spans: Optional[list[list]] = [] if keep_spans else None
        self._installed: list[tuple[object, str, object]] = []
        self.missing: list[str] = []
        self.scheduled = 0
        self.heap_peak = 0
        self.inflight_peak = 0
        self.table_entries_peak = 0
        self._timed_start: Optional[dict[str, list]] = None
        self._timed: Optional[dict[str, list]] = None

    # ------------------------------------------------------------------
    # Span recording
    # ------------------------------------------------------------------

    def _aggregate(self, layer: str, name: str) -> list:
        aggregate = self._names.get(name)
        if aggregate is None:
            aggregate = self._names[name] = [layer, 0, 0, 0]
        return aggregate

    def wrap(self, fn: Callable, layer: str, name: str, after: Optional[Callable] = None) -> Callable:
        """Return ``fn`` wrapped in a span; ``after(self_arg)`` runs outside it."""
        aggregate = self._aggregate(layer, name)
        stack, clock, spans = self._stack, self._clock, self.spans

        def traced(*args, **kwargs):
            index = -1
            if spans is not None:
                index = len(spans)
                parent = stack[-1][2] if stack else -1
                spans.append([name, layer, 0, 0, parent, _flow_id(args)])
            frame = [0, 0, index]
            stack.append(frame)
            frame[0] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                total = end - frame[0]
                aggregate[1] += 1
                aggregate[2] += total - frame[1]
                aggregate[3] += total
                if stack:
                    stack[-1][1] += total
                if spans is not None:
                    spans[index][2] = frame[0]
                    spans[index][3] = end
                if after is not None:
                    after(args[0])

        # callback_name() and the module -> layer rule must read a shim
        # exactly as they read the function it stands in for.
        for attr in ("__module__", "__name__", "__qualname__", "__doc__"):
            if hasattr(fn, attr):
                setattr(traced, attr, getattr(fn, attr))
        traced.is_span = True
        return traced

    def traced_callback(self, callback: Callable) -> Callable:
        """Wrap an event callback; its span is named by ``callback_name``.

        The wrapper carries the original's ``__self__`` (``wrap`` already
        copied its ``__qualname__``), so ``callback_name`` and with it the
        sanitizer's trace hash read exactly as they would untraced.  A
        callback that is itself a shimmed entry point is a span already.
        """
        function = getattr(callback, "__func__", callback)
        if getattr(function, "is_span", False):
            return callback
        key = getattr(function, "__code__", None) or type(callback)
        label = self._callback_names.get(key)
        if label is None:
            module = getattr(function, "__module__", None) or type(callback).__module__
            qualname = getattr(function, "__qualname__", type(callback).__qualname__)
            label = self._callback_names[key] = [_layer_of_module(module), f"event:{qualname}"]
        layer, name = label
        if self.spans is not None:
            # The dump names each event span fully (owner included); the
            # aggregates stay keyed by qualname so they stay small.
            name = f"event:{callback_name(callback)}"
        traced = self.wrap(callback, layer, name)
        owner = getattr(callback, "__self__", None)
        if owner is not None:
            traced.__self__ = owner
        return traced

    # ------------------------------------------------------------------
    # Shims
    # ------------------------------------------------------------------

    def _resolve(self, target: str):
        module_name, _, path = target.partition(":")
        try:
            module = importlib.import_module(module_name)
        except ImportError:
            return None
        owner_name, _, attr = path.rpartition(".")
        owner = getattr(module, owner_name, None) if owner_name else module
        if owner is None or attr not in vars(owner):
            return None
        return owner, attr, vars(owner)[attr]

    def _patch(self, owner: object, attr: str, original: object, replacement: object) -> None:
        self._installed.append((owner, attr, original))
        setattr(owner, attr, replacement)

    def _shim(self, layer: str, target: str, original: Callable) -> Callable:
        name = target.partition(":")[2]
        if name == "Simulator.schedule":
            return self._schedule_shim(self.wrap(original, layer, name))
        if name == "IdentPPController.on_packet_in":
            return self.wrap(original, layer, name, after=self._note_inflight)
        if name == "FlowTable.install":
            return self.wrap(original, layer, name, after=self._note_table_size)
        return self.wrap(original, layer, name)

    def _schedule_shim(self, inner: Callable) -> Callable:
        def schedule(sim, delay, callback, *args, label="", **kwargs):
            event = inner(sim, delay, self.traced_callback(callback), *args, label=label, **kwargs)
            self.scheduled += 1
            depth = sim.pending()
            if depth > self.heap_peak:
                self.heap_peak = depth
            return event

        return schedule

    def _note_inflight(self, controller) -> None:
        depth = controller.inflight_count()
        if depth > self.inflight_peak:
            self.inflight_peak = depth

    def _note_table_size(self, table) -> None:
        if len(table) > self.table_entries_peak:
            self.table_entries_peak = len(table)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Install every shim; restore the original objects on exit."""
        try:
            for layer, targets in ENTRY_POINTS.items():
                for target in targets:
                    resolved = self._resolve(target)
                    if resolved is None or not callable(resolved[2]):
                        self.missing.append(target)
                        continue
                    owner, attr, original = resolved
                    shim = self._shim(layer, target, original)
                    self._patch(owner, attr, original, shim)
                    if not isinstance(owner, type):
                        # A module-level function: modules that imported
                        # it by name hold their own reference.
                        for module in list(sys.modules.values()):
                            if (
                                module is not owner
                                and getattr(module, "__name__", "").startswith("repro.")
                                and vars(module).get(attr) is original
                            ):
                                self._patch(module, attr, original, shim)
            yield self
        finally:
            for owner, attr, original in reversed(self._installed):
                setattr(owner, attr, original)

    def restored(self) -> bool:
        """Return whether every patched attribute is the original object again."""
        return all(vars(owner)[attr] is original for owner, attr, original in self._installed)

    # ------------------------------------------------------------------
    # Timed region
    # ------------------------------------------------------------------

    def _snapshot(self) -> dict[str, list]:
        return {name: list(aggregate) for name, aggregate in self._names.items()}

    def begin_timed(self) -> None:
        self._timed_start = self._snapshot()

    def end_timed(self) -> None:
        start = self._timed_start or {}
        self._timed = {}
        for name, (layer, calls, self_ns, total_ns) in self._snapshot().items():
            _, calls0, self0, total0 = start.get(name, (layer, 0, 0, 0))
            if calls - calls0:
                self._timed[name] = [layer, calls - calls0, self_ns - self0, total_ns - total0]

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    @staticmethod
    def _by_layer(names: dict[str, list]) -> dict[str, dict[str, float]]:
        layers: dict[str, dict[str, float]] = {}
        for layer, calls, self_ns, _ in names.values():
            entry = layers.setdefault(layer, {"calls": 0, "self_ns": 0})
            entry["calls"] += calls
            entry["self_ns"] += self_ns
        return layers

    def report(self) -> dict:
        """Return the per-layer and per-name aggregates, JSON-ready."""
        whole = self._names
        compiles = whole.get("CompiledPolicy.__init__", [None, 0, 0, 0])
        failovers = whole.get("ControllerCluster.fail_over", [None, 0, 0, 0])
        return {
            "timed_layers": self._by_layer(self._timed or {}),
            "timed_names": {
                name: {"layer": layer, "calls": calls, "self_ns": self_ns, "total_ns": total_ns}
                for name, (layer, calls, self_ns, total_ns) in sorted((self._timed or {}).items())
            },
            "compiles": compiles[1],
            "compile_ns": compiles[3],
            "failover_ns": failovers[3],
            "scheduled": self.scheduled,
            "heap_peak": self.heap_peak,
            "inflight_peak": self.inflight_peak,
            "table_entries_peak": self.table_entries_peak,
            "missing_entry_points": list(self.missing),
        }

    def write_spans(self, path: str) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        keys = ("name", "layer", "start_ns", "end_ns", "parent", "flow")
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans or ():
                handle.write(json.dumps(dict(zip(keys, span))) + "\n")
        return len(self.spans or ())
