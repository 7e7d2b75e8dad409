"""R7 — queries go through the engine facade, not the raw client.

The :class:`~repro.identpp.engine.QueryEngine` is the single front door
for ident++ queries: it caches, coalesces, serves resident answers on
the push plane, and listens to the answering daemon's deltas so cached
identity can never go stale silently.  A call straight into
``QueryClient.query*`` bypasses all of it — the answer is uncached,
uncoalesced, and (worst) deaf to the daemon's deltas, so the caller can
hold a stale identity forever.

The engine itself is the one legitimate raw caller and is allowlisted
by exact path (as is the comparative NAT-identification experiment,
whose *point* is a raw server-side query with no controller state).
Everything else must go through ``controller.query_engine``.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: The QueryClient query surface (``QueryEngine`` mirrors every name).
QUERY_METHODS = {"query", "query_async", "query_both_ends", "query_both_ends_async"}

#: Receiver names that identify a raw :class:`QueryClient` in this repo
#: (``self.client`` inside the engine, ``controller.query_client``, or a
#: local ``client = QueryClient(...)``).
CLIENT_RECEIVERS = {"client", "query_client"}

#: Exact repo-relative paths allowed to call the raw client.
ENGINE_FACADE_ALLOWLIST = (
    # The facade itself: the engine's misses are the real round-trips.
    "src/repro/identpp/engine.py",
    # Server-side NAT identification measures what a *raw* query learns.
    "src/repro/workloads/comparative.py",
)


class EngineFacadeRule:
    """Flag direct ``QueryClient.query*`` calls that bypass the engine."""

    rule_id = "R7"
    title = "ident++ queries must go through the QueryEngine facade"

    def check(self, module: ParsedModule) -> list[Violation]:
        if module.rel_path.startswith(ENGINE_FACADE_ALLOWLIST):
            return []
        violations: list[Violation] = []
        for node in module.nodes:
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute) or func.attr not in QUERY_METHODS:
                continue
            receiver = func.value
            # client.query(...), self.client.query_async(...),
            # controller.query_client.query_both_ends(...)
            if isinstance(receiver, ast.Name):
                receiver_name = receiver.id
            elif isinstance(receiver, ast.Attribute):
                receiver_name = receiver.attr
            else:
                continue
            if receiver_name not in CLIENT_RECEIVERS:
                continue
            violations.append(
                module.violation(
                    self.rule_id,
                    node,
                    f"direct `{receiver_name}.{func.attr}()` bypasses the "
                    f"QueryEngine facade — the answer skips the cache, the "
                    f"resident store, coalescing and invalidation hooks; "
                    f"call `query_engine.{func.attr}()` instead",
                )
            )
        return violations
