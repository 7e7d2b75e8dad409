"""Gluing ident++ responses to PF+=2 evaluation.

The policy engine owns the ``.control`` files (loaded through a
:class:`~repro.pf.ruleset.RulesetLoader`, i.e. concatenated in
alphabetical order), the PF+=2 evaluator built from them, the function
registry and the delegation manager whose public keys back
``@pubkeys[...]`` lookups.  Given a flow and the two ident++ response
documents it produces a :class:`PolicyDecision` that also says *whether*
the decision honoured delegated rules and on behalf of which principals
— which feeds the audit log and the delegation manager's per-grant
accounting.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Optional, Sequence

from repro.core.delegation import DelegationManager
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import EMPTY_KEYS, KeyView, ResponseDocument
from repro.pf.ast_nodes import ACTION_PASS
from repro.pf.evaluator import PolicyEvaluator, Verdict
from repro.pf.functions import default_registry
from repro.pf.ruleset import ControlFile, RulesetLoader

@dataclass(init=False)
class PolicyDecision:
    """The outcome of running the policy over one flow.

    Two decisions are equal when their flow, verdict and identity views
    are; the rest is the verdict's :class:`~repro.pf.compiler.VerdictShape`,
    copied out so a reader pays one attribute read.
    """

    flow: Optional[FlowSpec]
    verdict: Verdict
    src_keys: KeyView
    dst_keys: KeyView
    #: ``"pass"`` or ``"block"``.
    action: str = field(compare=False)
    is_pass: bool = field(compare=False)
    #: Whether the deciding rule asked for ``keep state``.
    keep_state: bool = field(compare=False)
    #: The deciding rule as text ('' when the PF default applied).
    rule_text: str = field(compare=False)
    #: The configuration file the deciding rule came from.
    rule_origin: str = field(compare=False)
    delegated: bool = field(compare=False)
    delegation_functions: tuple[str, ...] = field(compare=False)
    principals: tuple[str, ...] = field(compare=False)

    def __init__(
        self,
        flow: Optional[FlowSpec],
        verdict: Verdict,
        src_keys: KeyView = EMPTY_KEYS,
        dst_keys: KeyView = EMPTY_KEYS,
    ) -> None:
        shape = verdict.shape
        self.flow = flow
        self.verdict = verdict
        self.src_keys = src_keys
        self.dst_keys = dst_keys
        self.action = shape.action
        self.is_pass = shape.is_pass
        self.keep_state = shape.keep_state
        self.rule_text = shape.rule_text
        self.rule_origin = shape.rule_origin
        self.delegated = shape.delegated
        self.delegation_functions = shape.delegation_functions
        self.principals = shape.principals


class PolicyEngine:
    """The controller's policy: ``.control`` files + PF+=2 evaluator + delegation keys."""

    #: PF+=2 reads ``@src`` and ``@dst``, so the controller asks both ends
    #: of every punted flow (§3.4); an address-only decider says ``False``.
    reads_end_hosts = True

    def __init__(
        self,
        *,
        default_action: str = ACTION_PASS,
        name: str = "policy-engine",
    ) -> None:
        self.name = name
        self.loader = RulesetLoader()
        self.registry = default_registry()
        self.default_action = default_action
        self.delegations = DelegationManager()
        self._evaluator: Optional[PolicyEvaluator] = None
        # (ruleset epoch, delegation epoch) the cached @pubkeys dict was
        # built for; either moving invalidates it.
        self._ruleset_epoch = 0
        self._pubkeys_state: Optional[tuple[int, int]] = None
        # The last view of each (role, endpoint address): the next
        # decision's view of that end reuses it, or holds only the value
        # that moved, when the answer is the same host's again.
        self._last_views: dict[tuple[str, object], KeyView] = {}

    # ------------------------------------------------------------------
    # Configuration management
    # ------------------------------------------------------------------

    def add_control_file(self, name: str, text: str, *, provenance: str = "administrator") -> None:
        """Register (or replace) a ``.control`` file and rebuild the policy."""
        self.loader.add_file(name, text, provenance=provenance)
        self._evaluator = None

    def add_control_files(self, files: dict[str, str]) -> None:
        """Register several ``.control`` files at once."""
        for name, text in files.items():
            self.loader.add_file(name, text)
        self._evaluator = None

    def register_control_files(self, control_files: Iterable[ControlFile]) -> None:
        """Register already built files.

        A cluster reload hands every shard the same objects, so a
        changed file is parsed and compiled once for the cluster, not
        once per shard.
        """
        for control_file in control_files:
            self.loader.register(control_file)
        self._evaluator = None

    def rebuild(self) -> PolicyEvaluator:
        """(Re)build the evaluator from the registered files.

        Always a fresh evaluator — zeroed counters, a fresh compiled
        policy and index, a new ruleset epoch.  What lives on a registered
        file is reused: its parse while its text has not moved, and its
        compiled rules while the merged macros and tables have not either.
        """
        ruleset = self.loader.build()
        self._evaluator = PolicyEvaluator(
            ruleset,
            registry=self.registry,
            default_action=self.default_action,
            name=self.name,
        )
        self._ruleset_epoch += 1
        return self._evaluator

    @property
    def evaluator(self) -> PolicyEvaluator:
        """Return the current evaluator, building it if needed."""
        if self._evaluator is None:
            self.rebuild()
        return self._evaluator

    @property
    def ruleset_epoch(self) -> int:
        """Return how many times the evaluator has been (re)built.

        Cluster coordinators compare this across replicas to verify a
        policy reload propagated everywhere.
        """
        return self._ruleset_epoch

    # ------------------------------------------------------------------
    # Decisions
    # ------------------------------------------------------------------

    def decide(
        self,
        flow: Optional[FlowSpec],
        src_doc: Optional[ResponseDocument] = None,
        dst_doc: Optional[ResponseDocument] = None,
    ) -> PolicyDecision:
        """Evaluate the policy for one flow."""
        evaluator = self._evaluator
        if evaluator is None:
            evaluator = self.rebuild()
        if self._pubkeys_state != (self._ruleset_epoch, self.delegations.epoch):
            self._refresh_pubkeys(evaluator)
        verdict = evaluator.evaluate(flow, src_doc, dst_doc)
        src_keys = dst_keys = EMPTY_KEYS
        views = self._last_views
        if src_doc is not None:
            key = ("src", flow and flow.src_ip)
            src_keys = views[key] = KeyView.of(src_doc, views.get(key, EMPTY_KEYS))
        if dst_doc is not None:
            key = ("dst", flow and flow.dst_ip)
            dst_keys = views[key] = KeyView.of(dst_doc, views.get(key, EMPTY_KEYS))
        return PolicyDecision(flow, verdict, src_keys, dst_keys)

    def decide_batch(self, items: Sequence[tuple]) -> list[PolicyDecision]:
        """Decide each ``(flow, src_doc, dst_doc)`` of ``items`` in turn.

        Kept because ``perf/tracing.py`` resolves the name, and ``perf/``
        is frozen: the benchmark runs it as committed.
        """
        return [self.decide(*item) for item in items]

    def _refresh_pubkeys(self, evaluator: PolicyEvaluator) -> None:
        """Rebuild the evaluator's ``@pubkeys`` dict (:meth:`decide` calls it when stale).

        Delegation grants back @pubkeys lookups; configuration-defined
        dict entries win over grants of the same name so an administrator
        can always pin a key explicitly.  The merged dict is invalidated
        by a new delegation epoch (grant/revoke) or an evaluator rebuild
        (ruleset change) rather than rebuilt on every decision.
        """
        state = (self._ruleset_epoch, self.delegations.epoch)
        pubkeys = dict(self.delegations.pubkeys_dict())
        defined = evaluator.ruleset.dicts().get("pubkeys")
        if defined is not None:
            pubkeys.update(defined.entries)
        evaluator.dicts["pubkeys"] = pubkeys
        self._pubkeys_state = state

    def stats(self) -> dict[str, float]:
        """Return the evaluator's counts, compile/index ones included."""
        return self.evaluator.stats()

