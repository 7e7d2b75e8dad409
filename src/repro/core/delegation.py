"""Delegation grants, auditing and revocation.

"Delegation in ident++ is two-fold: it involves the end-hosts and users
in classifying traffic and it allows them to specify rules to be
enforced in the network" (§1).  The administrator grants a principal (a
user, a department, or a third party such as the "Secur" security
company of Figure 7) the right to supply rules; technically the grant is
the principal's public key appearing in a ``dict <pubkeys>`` block plus
the policy rules that call ``allowed()``/``verify()`` against it.

:class:`DelegationManager` tracks those grants so they can be

* **audited** — which decisions were made because of which grant, and
* **revoked** — removing the grant invalidates the key, drops cached
  decisions and uninstalls the flow entries that relied on it ("the
  ability to delegate control and to override, audit, and revoke the
  delegation when necessary", §7).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.exceptions import DelegationError
from repro.crypto.keystore import KeyStore
from repro.crypto.signatures import Signer
from repro.crypto.rsa import RSAPublicKey


@dataclass
class DelegationGrant:
    """One delegation: a named principal trusted to supply signed rules."""

    principal: str
    public_key_hex: str
    scope: str = ""
    granted_at: float = 0.0
    revoked: bool = False
    revoked_at: Optional[float] = None
    decisions: list[str] = field(default_factory=list)

    def record_use(self, cookie: str) -> None:
        """Record that a decision (identified by its cookie) relied on this grant."""
        self.decisions.append(cookie)

    def __str__(self) -> str:
        state = "revoked" if self.revoked else "active"
        return f"DelegationGrant({self.principal}, scope={self.scope or 'any'}, {state})"


class DelegationManager:
    """All delegation grants known to one controller."""

    def __init__(self, keystore: Optional[KeyStore] = None) -> None:
        self.keystore = keystore if keystore is not None else KeyStore()
        self._grants: dict[str, DelegationGrant] = {}
        #: Bumped whenever the active grant set changes, so the policy
        #: engine can cache its ``@pubkeys`` dictionary between decisions.
        self.epoch = 0

    # ------------------------------------------------------------------
    # Granting
    # ------------------------------------------------------------------

    def grant(
        self,
        principal: str,
        key: RSAPublicKey | Signer | str,
        *,
        scope: str = "",
        now: float = 0.0,
    ) -> DelegationGrant:
        """Grant ``principal`` the right to supply signed rules.

        Registers the principal's public key in the key store (making it
        available to ``@pubkeys[...]`` lookups) and records the grant.
        """
        if principal in self._grants and not self._grants[principal].revoked:
            raise DelegationError(f"principal {principal!r} already holds an active grant")
        self.keystore.add(principal, key)
        grant = DelegationGrant(
            principal=principal,
            public_key_hex=self.keystore.get(principal),
            scope=scope,
            granted_at=now,
        )
        self._grants[principal] = grant
        self.epoch += 1
        return grant

    def revoke(self, principal: str, *, now: float = 0.0) -> DelegationGrant:
        """Revoke a grant: the key disappears from the key store immediately.

        Returns the (now revoked) grant so the controller can also tear
        down the flow entries and cache lines its decisions created.
        """
        grant = self._grants.get(principal)
        if grant is None or grant.revoked:
            raise DelegationError(f"no active grant for principal {principal!r}")
        grant.revoked = True
        grant.revoked_at = now
        if principal in self.keystore:
            self.keystore.remove(principal)
        self.epoch += 1
        return grant

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------

    def get(self, principal: str) -> Optional[DelegationGrant]:
        """Return the grant for ``principal``, if any (revoked or not)."""
        return self._grants.get(principal)

    def is_active(self, principal: str) -> bool:
        """Return ``True`` when ``principal`` holds an unrevoked grant."""
        grant = self._grants.get(principal)
        return grant is not None and not grant.revoked

    def record_use(self, principal: str, cookie: str) -> None:
        """Attribute a decision to a grant (used by the controller's audit path)."""
        grant = self._grants.get(principal)
        if grant is not None:
            grant.record_use(cookie)

    def decisions_for(self, principal: str) -> list[str]:
        """Return the decision cookies attributed to ``principal``."""
        grant = self._grants.get(principal)
        return list(grant.decisions) if grant is not None else []

    def pubkeys_dict(self) -> dict[str, str]:
        """Return the active grants as a ``@pubkeys`` dictionary."""
        return {
            grant.principal: grant.public_key_hex
            for grant in self._grants.values()
            if not grant.revoked
        }

    def __iter__(self) -> Iterator[DelegationGrant]:
        return iter(list(self._grants.values()))

    def __len__(self) -> int:
        return len(self._grants)
