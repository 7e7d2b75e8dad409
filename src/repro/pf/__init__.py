"""PF+=2 — the paper's policy language (§3.3).

PF+=2 extends OpenBSD PF with:

* the ``dict`` keyword (named dictionaries such as ``<pubkeys>``),
* the ``with`` keyword introducing boolean function-call predicates over
  the ``@src`` / ``@dst`` dictionaries filled from ident++ responses,
* ``*@src[key]`` concatenation across response sections, and
* user-definable functions, with ``eq, gt, lt, gte, lte, member,
  allowed, verify`` predefined (plus ``includes``, used by Figure 8).

The package contains a from-scratch lexer
(:mod:`repro.pf.lexer`), recursive-descent parser
(:mod:`repro.pf.parser`), AST (:mod:`repro.pf.ast_nodes`), address
tables (:mod:`repro.pf.tables`), the predicate function registry
(:mod:`repro.pf.functions`), the last-match-wins / ``quick`` evaluator
(:mod:`repro.pf.evaluator`), the ``keep state`` state table
(:mod:`repro.pf.state`) and the ``*.control`` configuration loader that
concatenates files in alphabetical order (:mod:`repro.pf.ruleset`).

Performance note: the evaluator does **not** interpret the AST per
flow — :mod:`repro.pf.compiler` compiles every rule into a closure over
pre-parsed addresses and indexes the ruleset by destination port and
prefix, so a decision only touches candidate rules, and that is the only
evaluation path (top-level, flowless and nested under ``allowed()``).  See
``compiler.py`` for the compilation model and the "Performance
architecture" section of the repository README for how the pieces fit.

Every rule listed in Figures 2, 4, 5, 6, 7 and 8 of the paper parses and
evaluates with this package; the figure benchmarks assert exactly that.
"""

from repro.pf.ast_nodes import (
    ACTION_BLOCK,
    ACTION_PASS,
    DictDef,
    EndpointSpec,
    FuncCall,
    MacroDef,
    Rule,
    Ruleset,
    TableDef,
)
from repro.pf.compiler import CompiledPolicy, CompiledRule, RuleIndex
from repro.pf.evaluator import EvalContext, PolicyEvaluator, Verdict
from repro.pf.functions import FunctionRegistry, default_registry
from repro.pf.lexer import Token, tokenize
from repro.pf.parser import parse_ruleset, parse_rules_text
from repro.pf.ruleset import ControlFile, RulesetLoader
from repro.pf.state import StateEntry, StateTable
from repro.pf.tables import AddressTable, TableSet

__all__ = [
    "ACTION_BLOCK",
    "ACTION_PASS",
    "DictDef",
    "EndpointSpec",
    "FuncCall",
    "MacroDef",
    "Rule",
    "Ruleset",
    "TableDef",
    "CompiledPolicy",
    "CompiledRule",
    "RuleIndex",
    "EvalContext",
    "PolicyEvaluator",
    "Verdict",
    "FunctionRegistry",
    "default_registry",
    "Token",
    "tokenize",
    "parse_ruleset",
    "parse_rules_text",
    "ControlFile",
    "RulesetLoader",
    "StateEntry",
    "StateTable",
    "AddressTable",
    "TableSet",
]
