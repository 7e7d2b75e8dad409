"""R8 — identity lookups answer from their index, not from a scan.

One ident++ answer costs the same however many sockets the host holds
and however long the response is, because two structures keep an index
beside their list: :class:`~repro.hosts.sockets.SocketTable` (endpoint
key -> sockets) and :class:`~repro.identpp.keyvalue.KeyValueSection`
(key -> last value).  Code elsewhere that reaches for the raw list —
``table._sockets``, or a loop over ``section.pairs`` looking for a key —
brings the per-query scan back and, worse, reads a structure whose
owner no longer promises it a shape.

Each owner is allowlisted by exact path.  Everything else goes through
``lookup_flow`` / ``find_listener`` / ``sockets()`` and ``get`` /
``latest`` / ``as_flat_dict``.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: Private socket store -> the one module that may touch it.
SOCKET_STORE = "_sockets"
SOCKET_STORE_OWNER = "src/repro/hosts/sockets.py"

#: Public pair list -> the one module that may iterate it.
PAIR_LIST = "pairs"
PAIR_LIST_OWNER = "src/repro/identpp/keyvalue.py"

#: Wrappers that still walk their argument pair by pair.
ITERATION_WRAPPERS = {"reversed", "enumerate", "iter", "list", "tuple", "sorted"}


def _iterated_attribute(node: ast.expr) -> ast.expr:
    """Strip ``reversed(x)`` / ``enumerate(x)`` ... down to ``x``."""
    while (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ITERATION_WRAPPERS
        and node.args
    ):
        node = node.args[0]
    return node


class IdentityIndexRule:
    """Flag raw-store access that bypasses the socket and key indexes."""

    rule_id = "R8"
    title = "identity lookups must use the socket and key indexes"

    def check(self, module: ParsedModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in module.nodes:
            if (
                isinstance(node, ast.Attribute)
                and node.attr == SOCKET_STORE
                and module.rel_path != SOCKET_STORE_OWNER
            ):
                violations.append(
                    module.violation(
                        self.rule_id,
                        node,
                        f"`.{SOCKET_STORE}` is SocketTable's private store — use "
                        f"`lookup_flow()` / `find_listener()` (indexed) or "
                        f"`sockets()` (a copy, insertion order)",
                    )
                )
            if module.rel_path == PAIR_LIST_OWNER:
                continue
            if isinstance(node, (ast.For, ast.AsyncFor)):
                iterables = [node.iter]
            elif isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
                iterables = [generator.iter for generator in node.generators]
            else:
                continue
            for iterable in iterables:
                target = _iterated_attribute(iterable)
                if isinstance(target, ast.Attribute) and target.attr == PAIR_LIST:
                    violations.append(
                        module.violation(
                            self.rule_id,
                            iterable,
                            f"scanning `.{PAIR_LIST}` re-implements a key lookup — use "
                            f"`section.get()` / `document.latest()` / "
                            f"`as_flat_dict()`, which read the key index",
                        )
                    )
        return violations
