"""Convenience builder for ident++-protected OpenFlow networks.

Assembling a scenario by hand means creating a topology, switches, end
hosts, daemons, a policy engine and a controller and wiring them all
together.  :class:`IdentPPNetwork` does that in a few lines::

    net = IdentPPNetwork("demo")
    sw = net.add_switch("sw1")
    client = net.add_host(HostSpec(name="client", ip="192.168.0.10"), switch=sw)
    server = net.add_host(HostSpec(name="server", ip="192.168.1.1"), switch=sw)
    net.set_policy({"00-policy.control": "block all\\npass from any to any keep state"})
    result = net.send_flow("client", "http", "alice", server.ip, 80)

It supports multiple controllers (multi-domain topologies for the
network-collaboration experiment), hosts without daemons (legacy hosts
for the incremental-deployment experiment) and per-host daemon
configuration files.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional

from repro.cluster.cluster import ControllerCluster
from repro.core.controller import ControllerConfig, IdentPPController
from repro.core.policy_engine import PolicyEngine
from repro.exceptions import TopologyError
from repro.hosts.applications import Application, standard_applications
from repro.hosts.endhost import EndHost
from repro.identpp.daemon import IdentPPDaemon
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Address
from repro.netsim.fabrics import (
    FatTreeFabric,
    SpineLeafFabric,
    build_fat_tree,
    build_spine_leaf,
)
from repro.netsim.links import DEFAULT_BANDWIDTH, DEFAULT_LATENCY
from repro.netsim.topology import Topology
from repro.openflow.switch import OpenFlowSwitch


@dataclass
class HostSpec:
    """Everything needed to stand up one end-host.

    Attributes:
        name: Node name.
        ip: The host's IPv4 address.
        users: Mapping of user name → group names to create.
        applications: Applications to install; ``None`` installs the
            standard catalogue used by the paper's examples.
        run_daemon: Whether the host runs an ident++ daemon (legacy hosts
            set this to ``False``).
        host_facts: Host-level facts the daemon reports (``os-patch`` ...).
        daemon_system_configs: ``@app`` configuration texts loaded into the
            daemon's system (administrator-owned) configuration.
        daemon_user_configs: ``@app`` configuration texts loaded into the
            daemon's user-owned configuration.
    """

    name: str
    ip: str
    users: dict[str, tuple[str, ...]] = field(default_factory=dict)
    applications: Optional[list[Application]] = None
    run_daemon: bool = True
    host_facts: dict[str, str] = field(default_factory=dict)
    daemon_system_configs: list[str] = field(default_factory=list)
    daemon_user_configs: list[str] = field(default_factory=list)


@dataclass
class FlowResult:
    """The observable outcome of sending one flow through the network."""

    flow: FlowSpec
    delivered: bool
    setup_latency: Optional[float]
    decision_action: Optional[str]
    decision_rule: str = ""


class IdentPPNetwork:
    """A complete ident++-protected OpenFlow network."""

    def __init__(
        self,
        name: str = "identpp-net",
        *,
        link_latency: float = DEFAULT_LATENCY,
        link_bandwidth: Optional[float] = DEFAULT_BANDWIDTH,
        controller_config: Optional[ControllerConfig] = None,
        policy_default_action: str = "pass",
        create_default_controller: bool = True,
    ) -> None:
        self.name = name
        self.link_latency = link_latency
        self.link_bandwidth = link_bandwidth
        self.topology = Topology(name=f"{name}.topology")
        self.controllers: dict[str, IdentPPController] = {}
        self.hosts: dict[str, EndHost] = {}
        self.switches: dict[str, OpenFlowSwitch] = {}
        self.daemons: dict[str, IdentPPDaemon] = {}
        self.cluster: Optional[ControllerCluster] = None
        self.controller: Optional[IdentPPController] = None
        # The telemetry plane, once enable_telemetry() assembles one.
        self.telemetry = None
        # Networks fronted by a cluster (or an explicit controller list)
        # pass False so summaries don't carry a dead unsharded controller.
        if create_default_controller:
            self.controller = self.add_controller(
                f"{name}.controller",
                config=controller_config,
                policy_default_action=policy_default_action,
            )

    # ------------------------------------------------------------------
    # Building blocks
    # ------------------------------------------------------------------

    def add_controller(
        self,
        name: str,
        *,
        config: Optional[ControllerConfig] = None,
        policy_default_action: str = "pass",
    ) -> IdentPPController:
        """Create an additional controller (multi-domain scenarios)."""
        engine = PolicyEngine(default_action=policy_default_action, name=f"{name}.policy")
        controller = IdentPPController(name, self.topology, engine, config=config)
        self.controllers[name] = controller
        return controller

    def add_cluster(
        self,
        name: Optional[str] = None,
        *,
        shards: int = 2,
        config: Optional[ControllerConfig] = None,
        policy_default_action: str = "pass",
        **cluster_kwargs,
    ) -> ControllerCluster:
        """Front the network with a sharded controller cluster.

        Must run before any switch is added: switches are registered
        with their controllers at creation time.  Subsequent
        :meth:`add_switch` calls (without an explicit ``controller``)
        register with every shard, and :meth:`set_policy` propagates
        through the cluster coordinator.
        """
        if self.cluster is not None:
            raise TopologyError(f"network {self.name} already has a cluster")
        if self.controller is not None:
            # Mixing a cluster with the eagerly-created default controller
            # would leave a dead unsharded controller in summaries and a
            # net.controller that silently handles nothing.
            raise TopologyError(
                f"network {self.name} already has a default controller; "
                "build with create_default_controller=False (or use "
                "IdentPPClusterNetwork)"
            )
        if self.switches:
            raise TopologyError(
                "add_cluster must be called before switches are added "
                f"(network {self.name} already has {len(self.switches)})"
            )
        cluster = ControllerCluster(
            name if name is not None else f"{self.name}.cluster",
            self.topology,
            shards=shards,
            config=config,
            policy_default_action=policy_default_action,
            **cluster_kwargs,
        )
        self.cluster = cluster
        self.controllers.update(cluster.replicas)
        return cluster

    def add_switch(
        self,
        name: str,
        *,
        controller: Optional[IdentPPController] = None,
        table_capacity: Optional[int] = None,
    ) -> OpenFlowSwitch:
        """Create a switch, add it to the topology and register it with a controller."""
        switch = OpenFlowSwitch(name, table_capacity=table_capacity, trace=self.topology.trace)
        self.topology.add_node(switch)
        self._register_switch(switch, controller)
        return switch

    def _register_switch(
        self, switch: OpenFlowSwitch, controller: Optional[IdentPPController]
    ) -> None:
        """Register an already-placed switch with the control plane."""
        if controller is not None:
            controller.register_switch(switch)
        elif self.cluster is not None:
            self.cluster.register_switch(switch)
        else:
            self._default_controller().register_switch(switch)
        self.switches[switch.name] = switch

    def add_spine_leaf_fabric(
        self,
        *,
        spines: int = 2,
        leaves: int = 4,
        prefix: str = "fabric",
        controller: Optional[IdentPPController] = None,
        table_capacity: Optional[int] = None,
    ) -> SpineLeafFabric:
        """Grow a spine-leaf enforcement fabric inside this network.

        Every switch is an :class:`OpenFlowSwitch` registered with the
        control plane (the explicit ``controller``, the cluster, or the
        default controller), so punts, path-wide installs and
        ``FlowRemoved``-driven unwinding work across every hop.  Attach
        hosts to ``fabric.leaves`` entries with :meth:`add_host`.
        """
        fabric = build_spine_leaf(
            self._fabric_switch_factory(table_capacity),
            spines=spines,
            leaves=leaves,
            topology=self.topology,
            prefix=prefix,
            latency=self.link_latency,
            bandwidth=self.link_bandwidth,
        )
        for switch in fabric.switches():
            self._register_switch(switch, controller)
        return fabric

    def add_fat_tree_fabric(
        self,
        *,
        k: int = 4,
        prefix: str = "ft",
        controller: Optional[IdentPPController] = None,
        table_capacity: Optional[int] = None,
    ) -> FatTreeFabric:
        """Grow a k-ary fat-tree enforcement fabric inside this network.

        Same registration semantics as :meth:`add_spine_leaf_fabric`;
        attach hosts to the edge switches (``fabric.pod_edges(pod)``).
        """
        fabric = build_fat_tree(
            self._fabric_switch_factory(table_capacity),
            k=k,
            topology=self.topology,
            prefix=prefix,
            latency=self.link_latency,
            bandwidth=self.link_bandwidth,
        )
        for switch in fabric.switches():
            self._register_switch(switch, controller)
        return fabric

    def _fabric_switch_factory(self, table_capacity: Optional[int]):
        """Return the switch factory the netsim fabric builders call."""
        def factory(name: str) -> OpenFlowSwitch:
            return OpenFlowSwitch(
                name, table_capacity=table_capacity, trace=self.topology.trace
            )
        return factory

    def add_host(
        self,
        spec: HostSpec,
        *,
        switch: Optional[OpenFlowSwitch | str] = None,
        link_latency: Optional[float] = None,
    ) -> EndHost:
        """Create an end-host (optionally with a daemon) and attach it to a switch."""
        host = EndHost(spec.name, spec.ip)
        self.topology.add_node(host)
        self.topology.register_ip(spec.ip, host)
        host.install_all(spec.applications if spec.applications is not None else standard_applications())
        for user_name, groups in spec.users.items():
            host.add_user(user_name, groups)
        if spec.run_daemon:
            daemon = IdentPPDaemon(host, host_facts=spec.host_facts)
            for text in spec.daemon_system_configs:
                daemon.load_system_config(text)
            for text in spec.daemon_user_configs:
                daemon.load_user_config(text)
            self.daemons[spec.name] = daemon
        self.hosts[spec.name] = host
        if switch is not None:
            self.connect(host, switch, latency=link_latency)
        return host

    def connect(
        self,
        node_a: EndHost | OpenFlowSwitch | str,
        node_b: EndHost | OpenFlowSwitch | str,
        *,
        latency: Optional[float] = None,
        bandwidth: Optional[float] = None,
    ):
        """Link two nodes (hosts or switches) together."""
        return self.topology.add_link(
            self._resolve(node_a),
            self._resolve(node_b),
            latency=latency if latency is not None else self.link_latency,
            bandwidth=bandwidth if bandwidth is not None else self.link_bandwidth,
        )

    def _resolve(self, node):
        if isinstance(node, str):
            if node in self.hosts:
                return self.hosts[node]
            if node in self.switches:
                return self.switches[node]
            return self.topology.node(node)
        return node

    # ------------------------------------------------------------------
    # Policy
    # ------------------------------------------------------------------

    def set_policy(
        self,
        files: dict[str, str],
        *,
        controller: Optional[IdentPPController] = None,
        provenance: str = "administrator",
    ) -> None:
        """Register ``.control`` files on a controller (default: the primary
        one, or every cluster shard via the coordinator)."""
        if controller is not None:
            controller.policy.add_control_files(files, provenance=provenance)
        elif self.cluster is not None:
            self.cluster.set_policy(files, provenance=provenance)
        else:
            self._default_controller().policy.add_control_files(
                files, provenance=provenance
            )

    def _default_controller(self) -> IdentPPController:
        """Return the default controller, or fail with a useful message."""
        if self.controller is None:
            raise TopologyError(
                f"network {self.name} has no default controller; pass one "
                "explicitly or use the cluster"
            )
        return self.controller

    # ------------------------------------------------------------------
    # Driving traffic
    # ------------------------------------------------------------------

    def host(self, name: str) -> EndHost:
        """Return a host by name."""
        try:
            return self.hosts[name]
        except KeyError as exc:
            raise TopologyError(f"unknown host: {name}") from exc

    def daemon(self, host_name: str) -> IdentPPDaemon:
        """Return the daemon of a host."""
        try:
            return self.daemons[host_name]
        except KeyError as exc:
            raise TopologyError(f"host {host_name} does not run an ident++ daemon") from exc

    def enable_telemetry(self, **plane_kwargs):
        """Assemble (and return) a telemetry plane over this network.

        Call after the topology is built — probes are wired against the
        controllers and switches that exist now.  Start sampling with
        ``net.telemetry.start()`` (and stop with ``.stop()`` so the
        event queue can drain).  Keyword arguments are forwarded to
        :class:`~repro.telemetry.plane.TelemetryPlane`.
        """
        # Local import: the telemetry package is duck-typed over this
        # network object and must stay importable without repro.core.
        from repro.telemetry.plane import TelemetryPlane

        if self.telemetry is not None:
            raise TopologyError(f"network {self.name} already has a telemetry plane")
        self.telemetry = TelemetryPlane(self, **plane_kwargs)
        return self.telemetry

    def run(self, duration: Optional[float] = None, max_events: Optional[int] = None) -> int:
        """Run the simulator until idle (or for ``duration`` seconds)."""
        return self.topology.run(until=None if duration is None else self.topology.sim.now + duration,
                                 max_events=max_events)

    def send_flow(
        self,
        src_host: str,
        app_name: str,
        user_name: str,
        dst_ip: IPv4Address | str,
        dst_port: int,
        *,
        proto: str | int = "tcp",
        payload_size: int = 512,
        runtime_keys: Optional[dict[str, str]] = None,
        settle: float = 1.0,
    ) -> FlowResult:
        """Open a flow from a host and report whether its first packet was delivered.

        Runs the simulator until the network is idle (bounded by
        ``settle`` seconds of simulated time), then inspects the
        destination host and the controller audit log.
        """
        source = self.host(src_host)
        packet, _socket, _process = source.open_flow(
            app_name, user_name, dst_ip, dst_port,
            proto=proto, payload_size=payload_size, runtime_keys=runtime_keys,
        )
        flow = FlowSpec.from_packet(packet)
        self.topology.run(until=self.topology.sim.now + settle)
        destination = self.topology.node_for_ip(dst_ip)
        delivered = False
        if isinstance(destination, EndHost):
            delivered = flow.as_tuple() in {
                FlowSpec.from_packet(p).as_tuple() for p in destination.delivered
            }
        record = self._last_decision_for(flow)
        return FlowResult(
            flow=flow,
            delivered=delivered,
            setup_latency=record.query_latency if record else None,
            decision_action=record.action if record else None,
            decision_rule=record.rule_text if record else "",
        )

    def _last_decision_for(self, flow: FlowSpec):
        for controller in self.controllers.values():
            for record in reversed(controller.audit):
                if record.flow == flow:
                    return record
        return None

    # ------------------------------------------------------------------
    # Reporting
    # ------------------------------------------------------------------

    def summary(self) -> dict[str, object]:
        """Return a combined summary across controllers and switches."""
        summary: dict[str, object] = {
            "topology": self.topology.describe(),
            "controllers": {name: c.summary() for name, c in self.controllers.items()},
            "switch_flow_tables": {
                name: switch.flow_table.stats() for name, switch in self.switches.items()
            },
        }
        if self.cluster is not None:
            cluster_summary = self.cluster.summary()
            cluster_summary.pop("per_shard", None)  # already under "controllers"
            summary["cluster"] = cluster_summary
        if self.telemetry is not None:
            summary["telemetry"] = self.telemetry.stats()
        return summary

    def hosts_with_daemons(self) -> Iterable[str]:
        """Return the names of hosts running an ident++ daemon."""
        return sorted(self.daemons)


class IdentPPClusterNetwork(IdentPPNetwork):
    """An ident++ network fronted by a sharded controller cluster.

    Same builder API as :class:`IdentPPNetwork`, but instead of one
    default controller the control plane is a
    :class:`~repro.cluster.cluster.ControllerCluster` of ``shards``
    replicas: switches punt each flow to its consistent-hash owner,
    policy is set cluster-wide, and the failover monitor (started with
    :meth:`start_monitoring`) re-homes flows around a killed replica::

        net = IdentPPClusterNetwork("demo", shards=4)
        sw = net.add_switch("sw1")
        ...
        net.set_policy({...})            # propagates to every shard
        net.start_monitoring()
        net.cluster.kill(net.cluster.shard_map.shards()[0])
        net.run(1.0)                     # monitor re-punts orphans
        net.stop_monitoring()
    """

    def __init__(
        self,
        name: str = "identpp-cluster-net",
        *,
        shards: int = 2,
        link_latency: float = DEFAULT_LATENCY,
        link_bandwidth: Optional[float] = DEFAULT_BANDWIDTH,
        controller_config: Optional[ControllerConfig] = None,
        policy_default_action: str = "pass",
        **cluster_kwargs,
    ) -> None:
        super().__init__(
            name,
            link_latency=link_latency,
            link_bandwidth=link_bandwidth,
            policy_default_action=policy_default_action,
            create_default_controller=False,
        )
        self.add_cluster(
            shards=shards,
            config=controller_config,
            policy_default_action=policy_default_action,
            **cluster_kwargs,
        )

    def start_monitoring(self) -> None:
        """Arm the failover monitor (heartbeat polling begins)."""
        self.cluster.monitor.start()

    def stop_monitoring(self) -> None:
        """Disarm the failover monitor so the event queue can drain."""
        self.cluster.monitor.stop()
