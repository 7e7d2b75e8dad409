"""R2 — all randomness flows through an injected, seeded ``random.Random``.

A call on the module-global ``random`` (``random.choice(...)``) draws
from interpreter-global state that any import or library call can
perturb, and an unseeded ``random.Random()`` (or ``SystemRandom``)
draws OS entropy — either way two runs of the same scenario diverge.
The repo's contract is that every component takes a seed (or a
``random.Random`` instance) from its caller, so the scenario's one seed
reaches every draw and gets recorded next to the results.

Flagged:

* any call through the module object except seeded construction —
  ``random.random()``, ``random.choice()``, ``random.seed()``, ...;
* ``random.Random()`` with no arguments (OS-entropy seeding);
* ``random.SystemRandom(...)`` (never reproducible);
* ``from random import choice`` and friends (a module-global call with
  the module name laundered away) — importing ``Random`` itself is fine.
"""

from __future__ import annotations

import ast

from tools.analysis.core import ParsedModule, Violation

#: Names importable from ``random`` that are allowed: the class itself
#: (callers must seed it) — everything else is global-RNG surface.
ALLOWED_RANDOM_IMPORTS = {"Random"}


class UnseededRandomRule:
    """Flag module-global and unseeded randomness."""

    rule_id = "R2"
    title = "randomness must come from a seeded random.Random"

    def check(self, module: ParsedModule) -> list[Violation]:
        violations: list[Violation] = []
        for node in module.nodes:
            if isinstance(node, ast.ImportFrom) and node.module == "random":
                for alias in node.names:
                    if alias.name not in ALLOWED_RANDOM_IMPORTS:
                        violations.append(
                            module.violation(
                                self.rule_id,
                                node,
                                f"`from random import {alias.name}` exposes the "
                                f"module-global RNG — import `random.Random` and "
                                f"seed an instance instead",
                            )
                        )
                continue
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)):
                continue
            if func.value.id != "random":
                continue
            if func.attr == "Random":
                if not node.args and not node.keywords:
                    violations.append(
                        module.violation(
                            self.rule_id,
                            node,
                            "`random.Random()` without a seed draws OS entropy — "
                            "pass a seed so the run is reproducible",
                        )
                    )
                continue
            if func.attr == "SystemRandom":
                violations.append(
                    module.violation(
                        self.rule_id,
                        node,
                        "`random.SystemRandom` is never reproducible — "
                        "use a seeded `random.Random`",
                    )
                )
                continue
            violations.append(
                module.violation(
                    self.rule_id,
                    node,
                    f"module-global `random.{func.attr}()` — draw from an "
                    f"injected, seeded `random.Random` instance instead",
                )
            )
        return violations
