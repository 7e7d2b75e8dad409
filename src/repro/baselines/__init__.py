"""Baseline security architectures the paper compares against.

§5 and §6 position ident++ against:

* a **vanilla firewall** — port/address rules, no user or application
  information (:mod:`repro.baselines.vanilla_firewall`),
* **distributed firewalls** [Ioannidis et al.] — the same policy but
  enforced on the receiving end-host, so a compromised end-host has no
  protection at all (:mod:`repro.baselines.distributed_firewall`),
* **Ethane** [Casado et al.] — centralized flow admission with user
  bindings but "no application-level information"
  (:mod:`repro.baselines.ethane`), and
* **VLAN/VPN partitioning** — ahead-of-time assignment of machines to
  segments (:mod:`repro.baselines.vlan`).

Each baseline implements the same small :class:`BaselinePolicy`
interface, ``decide(flow)``, so the security matrix (experiment E9) and
the latency comparison (E10) can drive them uniformly.  A baseline is
given the flow and nothing else; what its architecture knows beyond it
(Ethane's user bindings, a VLAN's segment map) it holds itself.  Each
can be mounted on the OpenFlow substrate via :class:`BaselineController`
where a datapath is needed.
"""

from repro.baselines.base import BaselineController, BaselinePolicy
from repro.baselines.distributed_firewall import DistributedFirewall
from repro.baselines.ethane import EthanePolicy, HostBinding
from repro.baselines.vanilla_firewall import FirewallRule, VanillaFirewall
from repro.baselines.vlan import VLANSegmentation

__all__ = [
    "BaselineController",
    "BaselinePolicy",
    "DistributedFirewall",
    "EthanePolicy",
    "HostBinding",
    "FirewallRule",
    "VanillaFirewall",
    "VLANSegmentation",
]
