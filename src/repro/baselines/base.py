"""Common interface for baseline security architectures.

A baseline is anything that can answer "may this flow proceed?" given
only the information that architecture actually has.  ident++'s whole
point is that it has *more* information (user, application, patch
level); the baselines deliberately ignore the fields they would not see
in reality — that asymmetry is what the comparison experiments measure.

Where a datapath is needed, a baseline is mounted as the decider of an
:class:`~repro.core.controller.IdentPPController` through
:class:`BaselineDecider`: the one controller punts, decides, installs
along the path, unwinds and audits for every architecture alike.
"""

from __future__ import annotations

from typing import Protocol

from repro.core.policy_engine import PolicyDecision
from repro.identpp.flowspec import FlowSpec
from repro.pf.ast_nodes import Rule
from repro.pf.evaluator import Verdict

ACTION_PASS = "pass"
ACTION_BLOCK = "block"


class BaselinePolicy(Protocol):
    """What every baseline implements."""

    name: str

    def decide(self, flow: FlowSpec) -> str:
        """Return ``"pass"`` or ``"block"`` for the flow.

        The flow is all a baseline is given: whatever else its
        architecture sees (Ethane's user bindings, a VLAN's segment map)
        it holds itself, and none of them sees applications.
        """


class BaselineDecider:
    """A :class:`BaselinePolicy` in an ``IdentPPController``'s ``policy`` slot.

    It reads no end-host, so the controller asks nobody about a punted
    flow and decides it from the flow alone.  A verdict is written as
    the PF rule it amounts to (``pass all`` / ``block all``) with the
    baseline's name as its origin, so the audit names the architecture.
    """

    reads_end_hosts = False

    def __init__(self, baseline: BaselinePolicy) -> None:
        self.baseline = baseline
        self._verdicts = {
            action: Verdict(action, Rule(action, origin=baseline.name))
            for action in (ACTION_PASS, ACTION_BLOCK)
        }

    def decide(self, flow: FlowSpec) -> PolicyDecision:
        """Return the baseline's verdict on ``flow``, the one thing it is given."""
        return PolicyDecision(flow, self._verdicts[self.baseline.decide(flow)])
