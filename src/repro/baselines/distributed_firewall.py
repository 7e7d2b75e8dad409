"""Distributed firewalls [9].

"Distributed firewalls centralize the policy, and distribute enforcement
to firewalls implemented on the end-host. ... Unfortunately, [they]
suffer from a number of problems.  First, if enforcement is done only at
the receiving end-host ..., the end-host can become vulnerable to denial
of service attacks.  Second, a compromised end-host effectively has no
protection.  The central administrator's policies are completely
bypassed." (§6)

The model here captures exactly those properties: the same rule language
as the vanilla firewall, but the *enforcement point* is the destination
host, so

* a flow always traverses the network and consumes bandwidth before
  being dropped (``enforced_at_destination``), and
* when the destination host is compromised, :meth:`decide` passes
  everything regardless of policy.
"""

from __future__ import annotations

from typing import Iterable

from repro.baselines.base import ACTION_PASS
from repro.baselines.vanilla_firewall import FirewallRule, VanillaFirewall
from repro.identpp.flowspec import FlowSpec
from repro.netsim.addresses import IPv4Address


class DistributedFirewall(VanillaFirewall):
    """End-host-enforced firewall with centrally distributed policy."""

    enforced_at_destination = True

    def __init__(
        self,
        rules: Iterable[FirewallRule] = (),
        *,
        name: str = "distributed-firewall",
    ) -> None:
        super().__init__(rules, name=name)
        self.compromised_hosts: set[IPv4Address] = set()

    def decide(self, flow: FlowSpec) -> str:
        """Apply the policy at the destination host.

        A compromised destination enforces nothing (§6), and because the
        packet already crossed the network, inbound denial-of-service
        traffic still consumed bandwidth — callers measuring link load
        should count the flow as having traversed the path either way.
        """
        if flow.dst_ip in self.compromised_hosts:
            self.decisions += 1
            return ACTION_PASS
        return super().decide(flow)
