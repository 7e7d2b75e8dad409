"""Cluster-wide propagation of policy and delegation changes.

Each shard owns its own :class:`~repro.core.policy_engine.PolicyEngine`
and :class:`~repro.core.delegation.DelegationManager`, so without a
coordinator a ruleset reload or a ``revoke_delegation`` on one replica
would leave the others enforcing stale policy — exactly the revocation
hole the paper's centralised design closes ("override, audit, and
revoke the delegation when necessary", §7).

The :class:`ClusterCoordinator` applies every change to every **live**
replica inside one call, bumps a cluster epoch, and keeps an audit
trail whose entries name the **originating shard** and the replicas the
change reached.  Crashed (halted) replicas cannot observe changes — the
coordinator records how far each replica has applied and replays the
missed changes when :meth:`resync` runs on restore, so a revived shard
never enforces a revoked grant or stale rules.  A revocation's teardown
does not wait for them: any replica can undo any replica's decision,
so the live ones remove a crashed decider's flow entries too.

Policy reloads are validated before any replica is touched: the merged
ruleset is parsed and compiled against a scratch evaluator, and a rule
that raises whenever it is reached (an undefined ``$macro``, an
endpoint table no definition resolves) is refused.  A broken ruleset
fails atomically at reload time instead of diverging the cluster or
failing closed every flow that reaches the rule.  Every shard then
registers the validated files, which carry their parse and compile, so
a changed file is parsed and compiled once for the whole cluster.
``verify_converged()`` cross-checks the live replicas' ruleset and
delegation epochs so tests and soaks can assert propagation actually
happened.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Optional

from repro.cluster.shard_map import identity_key
from repro.core.controller import IdentPPController
from repro.exceptions import DelegationError, PolicyError
from repro.pf.evaluator import PolicyEvaluator
from repro.pf.ruleset import ControlFile, RulesetLoader

if TYPE_CHECKING:  # pragma: no cover
    from repro.cluster.cluster import ControllerCluster


@dataclass(frozen=True)
class ClusterChangeRecord:
    """One cluster-wide configuration change, as audited."""

    epoch: int
    time: float
    kind: str  # "policy_reload" | "grant" | "revocation" | "quarantine" | "subscription_rehome"
    origin_shard: str
    detail: str
    applied_to: tuple[str, ...]
    removed_entries: int = 0


class ClusterCoordinator:
    """Fans configuration changes out to every replica of a cluster."""

    def __init__(self, cluster: "ControllerCluster") -> None:
        self.cluster = cluster
        #: Bumped once per cluster-wide change (reload, grant, revoke).
        self.epoch = 0
        # The change log (epoch → apply function) and how far each
        # replica has applied it; a restored replica replays the gap.
        self._changes: list[tuple[int, Callable[[IdentPPController], int]]] = []
        self._applied: dict[str, int] = {name: 0 for name in cluster.replicas}
        self.resyncs = 0

    # ------------------------------------------------------------------
    # Policy propagation
    # ------------------------------------------------------------------

    def set_policy(self, files: dict[str, str]) -> ClusterChangeRecord:
        """Load ``.control`` files on every live replica, atomically.

        The merged ruleset is parsed and compiled against a scratch
        evaluator first; a broken file raises here, before any replica
        is touched, so the cluster never half-applies a reload.  Every
        replica then registers the very files validation parsed and
        compiled, so a changed file is compiled once for the whole cluster.
        """
        control_files = self._validate_reload(files)

        def apply(controller: IdentPPController) -> int:
            controller.policy.register_control_files(control_files)
            controller.policy.rebuild()
            return 0

        return self._propagate("policy_reload", None, f"files={sorted(files)}", apply)

    def _validate_reload(self, files: dict[str, str]) -> list[ControlFile]:
        """Dry-run a reload: parse + compile the would-be merged ruleset.

        Uses a scratch loader seeded from a **live** replica's current
        files (every live replica holds the same set — all changes flow
        through here, and crashed ones resync), so validation sees
        exactly what the replicas would build.  A halted replica's file
        set may be stale and would validate the wrong merge.  A rule
        that raises whenever it is reached is a
        :class:`~repro.exceptions.PolicyError` naming its file and line:
        on a replica it could only ever fail flows closed as errors.
        Returns the validated files of ``files``, parsed and compiled,
        for the replicas to register.
        """
        reference = next(
            (c for c in self.cluster.replicas.values() if not c.halted),
            next(iter(self.cluster.replicas.values())),
        )
        scratch = RulesetLoader()
        for control_file in reference.policy.loader.files():
            scratch.register(control_file)
        control_files = [scratch.add_file(name, text) for name, text in files.items()]
        compiled = PolicyEvaluator(
            scratch.build(),
            registry=reference.policy.registry,
            default_action=reference.policy.default_action,
            name="cluster-reload-validation",
        ).compiled
        for compiled_rule in compiled.rules:
            if compiled_rule.defect is not None:
                rule = compiled_rule.rule
                raise PolicyError(
                    f"{rule.origin}, line {rule.line}: rule '{rule}' raises whenever "
                    f"it is reached: {compiled_rule.defect}"
                )
        return control_files

    # ------------------------------------------------------------------
    # Delegation propagation
    # ------------------------------------------------------------------

    def grant_delegation(self, principal: str, key) -> ClusterChangeRecord:
        """Grant a principal on every live replica (same key everywhere)."""

        def apply(controller: IdentPPController) -> int:
            if not controller.delegations.is_active(principal):
                controller.delegations.grant(principal, key, now=controller.now)
            return 0

        return self._propagate("grant", None, f"principal={principal}", apply)

    def revoke_delegation(
        self, principal: str, *, origin_shard: Optional[str] = None
    ) -> ClusterChangeRecord:
        """Revoke a grant cluster-wide, tearing down reliant state everywhere.

        The decisions that relied on the grant are every replica's, a
        crashed decider's included: each live replica revokes its grant
        and runs :meth:`~repro.core.controller.IdentPPController.revoke_decision`
        on all of them, so the first removes their flow entries on every
        switch and each drops its own cache lines.  A crashed replica
        replays the same apply at :meth:`resync` — the revocation is
        recorded even during a total outage, so no shard can be revived
        still enforcing it.  Raises :class:`~repro.exceptions.DelegationError`
        only when no replica, live or crashed, knows the principal.
        """
        replicas = self.cluster.replicas.values()
        if not any(c.delegations.is_active(principal) for c in replicas):
            raise DelegationError(
                f"no replica holds an active grant for principal {principal!r}"
            )
        cookies = [cookie for c in replicas for cookie in c.delegations.decisions_for(principal)]

        def apply(controller: IdentPPController) -> int:
            if controller.delegations.is_active(principal):
                controller.delegations.revoke(principal, now=controller.now)
            return sum(controller.revoke_decision(cookie) for cookie in cookies)

        return self._propagate(
            "revocation", origin_shard, f"principal={principal}", apply
        )

    # ------------------------------------------------------------------
    # Quarantine propagation
    # ------------------------------------------------------------------

    def quarantine_host(self, host_ip) -> ClusterChangeRecord:
        """Quarantine a host on every live replica.

        Each replica runs its own
        :meth:`~repro.core.controller.IdentPPController.quarantine_host`
        (quick-block policy, cached-decision revocation, query-engine
        invalidation, datapath drop entries); the change rides the
        replay log like any other, so a crashed shard picks the
        quarantine up at :meth:`resync` and can never be revived still
        trusting the host.  The telemetry plane's auto-quarantine
        responder is the main caller.
        """
        ip = str(host_ip)

        def apply(controller: IdentPPController) -> int:
            controller.quarantine_host(ip)
            return 0

        return self._propagate("quarantine", None, f"host={ip}", apply)

    # ------------------------------------------------------------------
    # Push-subscription re-homing (failover)
    # ------------------------------------------------------------------

    def rehome_subscriptions(
        self, host_ips, *, origin_shard: Optional[str] = None
    ) -> ClusterChangeRecord:
        """Commit a failover's subscription re-home to the replay log.

        :meth:`ControllerCluster.fail_over` already handed the dead
        shard's exported push state to each host's live successor; this
        records the re-home as a cluster change so (a) the audit trail
        names which hosts moved and why, and (b) a shard revived later
        *replays* it at :meth:`resync` — re-registering standing
        interest in the hosts it now owns instead of rebuilding
        residency from cold punt history.  The apply closure re-resolves
        ownership at apply time, so replays always subscribe the
        current owner, never a snapshot of the ring at failover time.
        """
        hosts = tuple(sorted({str(ip) for ip in host_ips}))

        def apply(controller: IdentPPController) -> int:
            opened = 0
            for ip in hosts:
                owner = self.cluster.shard_map.owner_of_key(identity_key(ip))
                if owner == controller.name and controller.query_engine.subscribe_host(ip):
                    opened += 1
            return opened

        return self._propagate(
            "subscription_rehome", origin_shard, f"hosts={list(hosts)}", apply
        )

    # ------------------------------------------------------------------
    # Propagation + crash recovery
    # ------------------------------------------------------------------

    def _propagate(
        self,
        kind: str,
        origin_shard: Optional[str],
        detail: str,
        apply: Callable[[IdentPPController], int],
    ) -> ClusterChangeRecord:
        """Apply a change to every live replica, then commit it to the log.

        Application runs before the epoch bump and the replay-log
        append: a change that raises (e.g. a key the keystore rejects —
        which fails deterministically on the *first* replica, before any
        state moves) leaves no epoch, no audit entry and, crucially, no
        poisoned closure for :meth:`resync` to re-raise on every future
        restore.
        """
        next_epoch = self.epoch + 1
        applied = []
        removed = 0
        for name, controller in self.cluster.replicas.items():
            if controller.halted:
                # A crashed process observes nothing; resync() replays.
                continue
            removed += apply(controller)
            applied.append(name)
        self.epoch = next_epoch
        self._changes.append((next_epoch, apply))
        for name in applied:
            self._applied[name] = next_epoch
        record = ClusterChangeRecord(
            epoch=next_epoch,
            time=self.cluster.now,
            kind=kind,
            origin_shard=origin_shard if origin_shard is not None else "administrator",
            detail=detail,
            applied_to=tuple(applied),
            removed_entries=removed,
        )
        self._prune_changes()
        return record

    def resync(self, shard: str) -> int:
        """Replay the changes a restored replica missed while crashed.

        Returns how many changes were replayed.  Called by
        :meth:`ControllerCluster.restore` so a revived shard converges
        before taking traffic.
        """
        controller = self.cluster.replicas[shard]
        last = self._applied.get(shard, 0)
        replayed = 0
        for epoch, apply in self._changes:
            if epoch > last:
                apply(controller)
                replayed += 1
        self._applied[shard] = self.epoch
        if replayed:
            self.resyncs += 1
        self._prune_changes()
        return replayed

    def _prune_changes(self) -> None:
        """Drop replay-log entries every replica has already applied.

        The closures capture whole rulesets; without pruning the log
        would grow for the cluster's lifetime — unbounded state, in a
        system whose churn story is that nothing is.  With all replicas
        caught up the log is empty.
        """
        floor = min(self._applied.values())
        self._changes = [
            (epoch, apply) for epoch, apply in self._changes if epoch > floor
        ]

    # ------------------------------------------------------------------
    # Convergence checks + audit
    # ------------------------------------------------------------------

    def epochs(self) -> dict[str, dict[str, int]]:
        """Return each replica's (ruleset, delegation, applied) epochs."""
        return {
            name: {
                "ruleset": controller.policy.ruleset_epoch,
                "delegation": controller.delegations.epoch,
                "applied": self._applied.get(name, 0),
            }
            for name, controller in self.cluster.replicas.items()
        }

    def verify_converged(self) -> bool:
        """Return whether every live replica sits at the same epochs.

        Crashed replicas are excluded — they converge at resync; a
        restored replica counts again immediately.
        """
        live = {
            name: epochs
            for name, epochs in self.epochs().items()
            if not self.cluster.replicas[name].halted
        }
        return len({tuple(sorted(e.items())) for e in live.values()}) <= 1
