"""Every control-plane option has a caller outside the tests.

An option that only a test sets keeps a branch alive that no workload
runs.  This tripwire reads the call sites in ``src/``, ``perf/``,
``benchmarks/`` and ``examples/`` (by AST, nothing is imported from
them) and requires every ``ControllerConfig`` field and every keyword
parameter of ``TelemetryPlane`` and ``ControllerCluster`` to be passed
by name at one of them.

Only calls that reach the class count: the class itself, or a function
that forwards its keywords to it.  A keyword whose name merely matches
(``capacity=`` on a ``FlowTable``, ``registry=`` on a
``PolicyEvaluator``) does not.
"""

import ast
import dataclasses
import functools
import inspect
from pathlib import Path

import pytest

from repro.cluster.cluster import ControllerCluster
from repro.core.controller import ControllerConfig
from repro.telemetry.plane import TelemetryPlane

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "perf", "benchmarks", "examples")

#: Class -> the names of the calls whose keywords reach it: the class and
#: the functions that forward their keywords to it.
CALLEES = {
    "ControllerConfig": ("ControllerConfig", "churn_config"),
    "TelemetryPlane": ("TelemetryPlane", "enable_telemetry"),
    "ControllerCluster": ("ControllerCluster", "add_cluster", "IdentPPClusterNetwork"),
}


def settable(cls) -> list[str]:
    """The values a caller can set by name: dataclass fields or keyword-only parameters."""
    if dataclasses.is_dataclass(cls):
        return [field.name for field in dataclasses.fields(cls)]
    return [
        name for name, parameter in inspect.signature(cls).parameters.items()
        if parameter.kind is inspect.Parameter.KEYWORD_ONLY
    ]


def callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def is_config_replace(call: ast.Call) -> bool:
    """``replace(config, ...)`` / ``dataclasses.replace(self.config, ...)``."""
    func = call.func
    named = (isinstance(func, ast.Name) and func.id == "replace") or (
        isinstance(func, ast.Attribute) and func.attr == "replace"
        and isinstance(func.value, ast.Name) and func.value.id == "dataclasses"
    )
    return named and bool(call.args) and ast.unparse(call.args[0]).endswith("config")


def keywords_in(trees) -> dict[str, set[str]]:
    """Class name -> every keyword passed by name, in ``trees``, to a call that reaches it."""
    passed = {name: set() for name in CALLEES}
    reaching = {call: cls for cls, calls in CALLEES.items() for call in calls}

    def note(cls: str, call: ast.Call) -> None:
        passed[cls].update(k.arg for k in call.keywords if k.arg is not None)

    for tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                if callee(node) in reaching:
                    note(reaching[callee(node)], node)
                elif is_config_replace(node):
                    note("ControllerConfig", node)
            elif isinstance(node, ast.FunctionDef) and node.name in reaching:
                # A forwarder may gather its settings in a dict(...)
                # before it calls the class (perf's churn_config).
                for inner in ast.walk(node):
                    if isinstance(inner, ast.Call) and callee(inner) == "dict":
                        note(reaching[node.name], inner)
    return passed


@functools.cache
def keywords_by_class() -> dict[str, set[str]]:
    """:func:`keywords_in` over every ``.py`` file of the scanned directories."""
    return keywords_in(
        ast.parse(path.read_text(), filename=str(path))
        for directory in SCANNED
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    )


def orphans(cls, passed: set[str]) -> list[str]:
    """The settable values of ``cls`` that no keyword in ``passed`` names."""
    return [name for name in settable(cls) if name not in passed]


def keywords_of(source: str) -> dict[str, set[str]]:
    return keywords_in([ast.parse(source)])


@pytest.mark.parametrize(
    "cls", (ControllerConfig, TelemetryPlane, ControllerCluster), ids=lambda c: c.__name__
)
def test_every_option_has_a_caller_outside_the_tests(cls):
    missing = orphans(cls, keywords_by_class()[cls.__name__])
    assert not missing, (
        f"{cls.__name__} options that no call in {'/, '.join(SCANNED)}/ passes by "
        f"name: {', '.join(missing)}.  Make each option a constant, or add its "
        "second caller."
    )


def test_a_matching_name_on_another_call_does_not_count():
    passed = keywords_of(
        "table = FlowTable(capacity=64)\n"
        "evaluator = PolicyEvaluator(registry=registry)\n"
        "ring = ShardMap(shards)\n"
    )
    assert passed == {name: set() for name in CALLEES}


def test_forwarders_and_config_replace_count():
    passed = keywords_of(
        "def churn_config(**overrides):\n"
        "    settings = dict(pending_deadline=1.0, idle_timeout=5.0)\n"
        "    return ControllerConfig(**settings)\n"
        "config = dataclasses.replace(self.config, hard_timeout=9.0)\n"
        "config = replace(config, decision_ttl=2.0)\n"
        "net.enable_telemetry(interval=0.1)\n"
        "net.add_cluster(shards=3)\n"
        "IdentPPClusterNetwork('n', shards=2, policy_default_action='block')\n"
    )
    assert passed["ControllerConfig"] == {
        "pending_deadline", "idle_timeout", "hard_timeout", "decision_ttl"
    }
    assert passed["TelemetryPlane"] == {"interval"}
    assert passed["ControllerCluster"] == {"shards", "policy_default_action"}


def test_an_option_only_the_tests_set_is_named():
    # A field that nothing outside the tests passes, the way
    # install_along_path was, is what the tripwire reports.
    planted = dataclasses.make_dataclass(
        "ControllerConfig",
        [("install_along_path", bool, dataclasses.field(default=True))],
        bases=(ControllerConfig,),
    )
    assert orphans(planted, keywords_by_class()["ControllerConfig"]) == ["install_along_path"]
