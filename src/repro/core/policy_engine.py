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

from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from repro.core.delegation import DelegationManager
from repro.identpp.flowspec import FlowSpec
from repro.identpp.keyvalue import EMPTY_KEYS, KeyView, ResponseDocument
from repro.pf.ast_nodes import ACTION_PASS, DictAccess, Rule
from repro.pf.evaluator import PolicyEvaluator, Verdict
from repro.pf.functions import FunctionRegistry, default_registry
from repro.pf.ruleset import ControlFile, RulesetLoader

#: Function names whose presence in the deciding rule marks the decision
#: as relying on delegated (externally supplied) rules.
DELEGATION_FUNCTIONS = ("allowed", "verify")


@dataclass
class PolicyDecision:
    """The outcome of running the policy over one flow."""

    flow: Optional[FlowSpec]
    verdict: Verdict
    delegated: bool = False
    delegation_functions: tuple[str, ...] = ()
    principals: tuple[str, ...] = ()
    src_keys: KeyView = EMPTY_KEYS
    dst_keys: KeyView = EMPTY_KEYS

    @property
    def action(self) -> str:
        """Return ``"pass"`` or ``"block"``."""
        return self.verdict.action

    @property
    def is_pass(self) -> bool:
        """Return ``True`` when the flow is allowed."""
        return self.verdict.is_pass

    @property
    def keep_state(self) -> bool:
        """Return ``True`` when the deciding rule asked for ``keep state``."""
        return self.verdict.keep_state

    @property
    def rule_text(self) -> str:
        """Return the deciding rule as text ('' when the PF default applied)."""
        return str(self.verdict.rule) if self.verdict.rule is not None else ""

    @property
    def rule_origin(self) -> str:
        """Return the configuration file the deciding rule came from."""
        return self.verdict.rule.origin if self.verdict.rule is not None else ""


class PolicyEngine:
    """The controller's policy: ``.control`` files + PF+=2 evaluator + delegation keys."""

    def __init__(
        self,
        *,
        registry: Optional[FunctionRegistry] = None,
        default_action: str = ACTION_PASS,
        delegations: Optional[DelegationManager] = None,
        name: str = "policy-engine",
    ) -> None:
        self.name = name
        self.loader = RulesetLoader()
        self.registry = registry if registry is not None else default_registry()
        self.default_action = default_action
        self.delegations = delegations if delegations is not None else DelegationManager()
        self._evaluator: Optional[PolicyEvaluator] = None
        self.decisions_made = 0
        self.pubkeys_refreshes = 0
        # (ruleset epoch, delegation epoch) the cached @pubkeys dict was
        # built for; either moving invalidates it.
        self._ruleset_epoch = 0
        self._pubkeys_state: Optional[tuple[int, int]] = None
        # The last view of each end: the next decision's view reuses it
        # (or its keys tuple) when the answer has not moved.
        self._last_src = EMPTY_KEYS
        self._last_dst = EMPTY_KEYS

    # ------------------------------------------------------------------
    # Configuration management
    # ------------------------------------------------------------------

    def add_control_file(self, name: str, text: str, *, provenance: str = "administrator") -> None:
        """Register (or replace) a ``.control`` file and rebuild the policy."""
        self.loader.add_file(name, text, provenance=provenance)
        self._evaluator = None

    def add_control_files(self, files: dict[str, str], *, provenance: str = "administrator") -> None:
        """Register several ``.control`` files at once."""
        for name, text in files.items():
            self.loader.add_file(name, text, provenance=provenance)
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

    def remove_control_file(self, name: str) -> bool:
        """Unregister a ``.control`` file (e.g. dropping a vendor's rules)."""
        removed = self.loader.remove_file(name)
        if removed:
            self._evaluator = None
        return removed

    def load_directory(self, path: str) -> int:
        """Load ``*.control`` files from a directory on disk."""
        count = self.loader.load_directory(path)
        self._evaluator = None
        return count

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

    def rule_count(self) -> int:
        """Return the number of rules in the concatenated policy."""
        return len(self.evaluator.ruleset.rules())

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
        evaluator = self.evaluator
        self._refresh_pubkeys(evaluator)
        verdict = evaluator.evaluate(flow, src_doc, dst_doc)
        self.decisions_made += 1
        return self._decision_from_verdict(flow, verdict, src_doc, dst_doc)

    def decide_batch(self, items: Sequence[tuple]) -> list[PolicyDecision]:
        """Decide each ``(flow, src_doc, dst_doc)`` of ``items`` in turn.

        Kept only because ``perf/tracing.py`` resolves the name; delete
        when ``perf/`` thaws (ROADMAP item 2).
        """
        return [self.decide(*item) for item in items]

    def _refresh_pubkeys(self, evaluator: PolicyEvaluator) -> None:
        """Rebuild the evaluator's ``@pubkeys`` dict only when stale.

        Delegation grants back @pubkeys lookups; configuration-defined
        dict entries win over grants of the same name so an administrator
        can always pin a key explicitly.  The merged dict is invalidated
        by a new delegation epoch (grant/revoke) or an evaluator rebuild
        (ruleset change) rather than rebuilt on every decision.
        """
        state = (self._ruleset_epoch, self.delegations.epoch)
        if self._pubkeys_state == state:
            return
        pubkeys = dict(self.delegations.pubkeys_dict())
        defined = evaluator.ruleset.dicts().get("pubkeys")
        if defined is not None:
            pubkeys.update(defined.entries)
        evaluator.dicts["pubkeys"] = pubkeys
        self._pubkeys_state = state
        self.pubkeys_refreshes += 1

    def _decision_from_verdict(
        self,
        flow: Optional[FlowSpec],
        verdict: Verdict,
        src_doc: Optional[ResponseDocument],
        dst_doc: Optional[ResponseDocument],
    ) -> PolicyDecision:
        delegated_functions = _delegation_functions_used(verdict.rule)
        principals = _principals_used(verdict.rule)
        src_keys = dst_keys = EMPTY_KEYS
        if src_doc is not None:
            src_keys = self._last_src = KeyView.of(src_doc, self._last_src)
        if dst_doc is not None:
            dst_keys = self._last_dst = KeyView.of(dst_doc, self._last_dst)
        return PolicyDecision(
            flow=flow,
            verdict=verdict,
            delegated=bool(delegated_functions),
            delegation_functions=delegated_functions,
            principals=principals,
            src_keys=src_keys,
            dst_keys=dst_keys,
        )

    def stats(self) -> dict[str, float]:
        """Return counters for reports, including compile/index stats."""
        evaluator_stats = self.evaluator.stats()
        evaluator_stats["decisions_made"] = float(self.decisions_made)
        evaluator_stats["control_files"] = float(len(self.loader))
        evaluator_stats["pubkeys_refreshes"] = float(self.pubkeys_refreshes)
        return evaluator_stats


def _delegation_functions_used(rule: Optional[Rule]) -> tuple[str, ...]:
    """Return which delegation functions appear in the deciding rule's conditions."""
    if rule is None:
        return ()
    used = []
    for condition in rule.conditions:
        if condition.name.lower() in DELEGATION_FUNCTIONS and condition.name.lower() not in used:
            used.append(condition.name.lower())
    return tuple(used)


def _principals_used(rule: Optional[Rule]) -> tuple[str, ...]:
    """Return the ``@pubkeys[...]`` principals referenced by the deciding rule."""
    if rule is None:
        return ()
    principals: list[str] = []
    for condition in rule.conditions:
        for argument in condition.args:
            if isinstance(argument, DictAccess) and argument.dict_name == "pubkeys":
                if argument.key not in principals:
                    principals.append(argument.key)
    return tuple(principals)
