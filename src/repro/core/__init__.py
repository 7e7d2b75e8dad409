"""The paper's primary contribution: the ident++ controller and its machinery.

This package ties the substrates together into the system of §3:

* :mod:`repro.core.policy_engine` — loads the ``.control`` files, builds
  the ``@src``/``@dst`` dictionaries from ident++ responses and runs the
  PF+=2 evaluator;
* :mod:`repro.core.controller` — the OpenFlow controller that, on a
  table miss, queries both ends of the flow and decides (Figure 1);
* :mod:`repro.core.installer` — installs the verdict's flow entries
  along the path, releases the buffered packet and unwinds the path
  when one hop's entry goes;
* :mod:`repro.core.interception` — answering and augmenting ident++
  queries/responses on behalf of hosts (§3.4, §4 "Network Collaboration"
  and "Incremental Benefit");
* :mod:`repro.core.delegation` — grant / audit / revoke records for the
  controlled-delegation story of §2;
* :mod:`repro.core.cache` — the controller-side decision cache;
* :mod:`repro.core.lifecycle` — the flow-state lifecycle service that
  keeps the decision cache and switch flow tables bounded under churn;
* :mod:`repro.core.audit` — the audit log every decision lands in;
* :mod:`repro.core.network` — a convenience builder that assembles an
  ident++-protected OpenFlow network (topology + switches + hosts +
  daemons + controller) in a few lines.
"""

from repro.core.audit import AuditLog, DecisionRecord
from repro.core.cache import CachedDecision, DecisionCache
from repro.core.controller import ControllerConfig, IdentPPController
from repro.core.delegation import DelegationGrant, DelegationManager
from repro.core.interception import AugmentationRule, InterceptionPolicy, StaticAnswer
from repro.core.lifecycle import LifecycleService
from repro.core.network import HostSpec, IdentPPNetwork
from repro.core.policy_engine import PolicyDecision, PolicyEngine
from repro.netsim.events import ExpiryHeap

__all__ = [
    "AuditLog",
    "DecisionRecord",
    "CachedDecision",
    "DecisionCache",
    "ControllerConfig",
    "IdentPPController",
    "DelegationGrant",
    "DelegationManager",
    "AugmentationRule",
    "InterceptionPolicy",
    "StaticAnswer",
    "ExpiryHeap",
    "LifecycleService",
    "HostSpec",
    "IdentPPNetwork",
    "PolicyDecision",
    "PolicyEngine",
]
