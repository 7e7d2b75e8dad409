"""R15 — every control message is constructed outside the tests.

A type a switch or controller dispatches on is a branch every message
passes: each ``ControlMessage`` subclass of ``src/repro`` must be built
by a call in a reader.  Dispatching on it, or naming it, builds none.
"""

from __future__ import annotations

import ast

from tools.analysis.core import Findings, Program, base_names, callee

ROOT_MESSAGE = "ControlMessage"


class MessagesSentRule:
    """Flag each control message nothing outside the tests constructs."""

    rule_id = "R15"
    title = "every control message is constructed outside the tests"

    def check_program(self, program: Program) -> Findings:
        nodes = [node for module in program.modules.values() for node in module.nodes]
        classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
        messages = {ROOT_MESSAGE}
        grew = True
        while grew:
            grew = False
            for node in classes:
                if node.name not in messages and base_names(node) & messages:
                    messages.add(node.name)
                    grew = True
        built = {callee(node) for node in nodes if isinstance(node, ast.Call)}
        declared = [
            (module, node)
            for module in program.judged for node in module.nodes
            if isinstance(node, ast.ClassDef) and node.name in messages - {ROOT_MESSAGE}
        ]
        findings = [
            module.violation(
                self.rule_id, node,
                f"{node.name} is a control message nothing outside the tests constructs: "
                "delete it with its handler, or send it",
                node.name,
            )
            for module, node in declared if node.name not in built
        ]
        return Findings(findings, {node.name for _, node in declared})
