"""Reusable network builders.

Two topology shapes:

* a **linear** client–switch(es)–server chain (Figure 1 / flow-setup
  latency),
* the **two-branch** network of the collaboration experiment: two
  enterprise sites joined by a single bottleneck link, each with its own
  controller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.core.controller import ControllerConfig, IdentPPController
from repro.core.network import HostSpec, IdentPPNetwork
from repro.netsim.links import DEFAULT_LATENCY


def build_linear_network(
    switch_count: int = 1,
    *,
    link_latency: float = DEFAULT_LATENCY,
    controller_config: Optional[ControllerConfig] = None,
    client_daemon: bool = True,
    server_daemon: bool = True,
) -> IdentPPNetwork:
    """Build ``client — sw1 — ... — swN — server`` (the Figure 1 shape)."""
    net = IdentPPNetwork("linear", link_latency=link_latency, controller_config=controller_config)
    switches = [net.add_switch(f"sw{i + 1}") for i in range(max(1, switch_count))]
    for left, right in zip(switches, switches[1:]):
        net.connect(left, right)
    net.add_host(
        HostSpec(name="client", ip="192.168.0.10", users={"alice": ("users", "staff")},
                 run_daemon=client_daemon),
        switch=switches[0],
    )
    server = net.add_host(
        HostSpec(name="server", ip="192.168.1.1", users={"www": ("service",)},
                 run_daemon=server_daemon),
        switch=switches[-1],
    )
    server.run_server("httpd", "root", 80)
    return net


@dataclass
class BranchNetwork:
    """The two-branch collaboration topology."""

    net: IdentPPNetwork
    controller_a: IdentPPController
    controller_b: IdentPPController
    branch_a_hosts: list[str]
    branch_b_hosts: list[str]
    bottleneck_link_name: str


def build_branch_network(
    *,
    hosts_per_branch: int = 3,
    bottleneck_latency: float = 5e-3,
    bottleneck_bandwidth: float = 10e6,
    controller_config: Optional[ControllerConfig] = None,
) -> BranchNetwork:
    """Build two branches of one enterprise joined by a bottleneck WAN link.

    Branch A keeps the network's primary controller; branch B gets its
    own controller, which is the one that augments ident++ responses in
    the collaboration experiment.
    """
    net = IdentPPNetwork("branches", controller_config=controller_config)
    controller_a = net.controller
    controller_b = net.add_controller("branch-b.controller", config=controller_config)

    switch_a = net.add_switch("sw-branch-a", controller=controller_a)
    switch_b = net.add_switch("sw-branch-b", controller=controller_b)
    bottleneck = net.connect(
        switch_a, switch_b, latency=bottleneck_latency, bandwidth=bottleneck_bandwidth
    )

    branch_a_hosts = []
    for index in range(hosts_per_branch):
        name = f"a-host{index + 1}"
        net.add_host(
            HostSpec(name=name, ip=f"10.1.0.{10 + index}", users={"alice": ("users", "staff")}),
            switch=switch_a,
        )
        branch_a_hosts.append(name)

    branch_b_hosts = []
    for index in range(hosts_per_branch):
        name = f"b-host{index + 1}"
        host = net.add_host(
            HostSpec(name=name, ip=f"10.2.0.{10 + index}", users={"bob": ("users", "staff")}),
            switch=switch_b,
        )
        host.run_server("httpd", "root", 80)
        branch_b_hosts.append(name)

    return BranchNetwork(
        net=net,
        controller_a=controller_a,
        controller_b=controller_b,
        branch_a_hosts=branch_a_hosts,
        branch_b_hosts=branch_b_hosts,
        bottleneck_link_name=bottleneck.name,
    )
