"""``tools/reach.py`` on a planted module, and the committed reach list.

The full run (every example, soak and ``perf/`` workload under the
profiler) is ``make reach``, a CI job of its own; these tests check
what it judges and how, in well under a second.
"""

import ast
import functools
import importlib
import importlib.util

import pytest

from perf.tracing import ENTRY_POINTS
from perf.workloads import WORKLOADS
from repro.workloads.soak import SOAKS
from tools.reach import (
    REPO_ROOT,
    DEFINED_IN,
    definitions_in,
    definitions_under,
    entered,
    is_stub,
    pinned_by_tracer,
    product_entry_points,
    report,
    shape_problems,
    stale_entries,
    unreached,
)
from tools.reach_accepted import ACCEPTED

PLANTED = '''import functools


def called():
    def nested():
        return 1

    return nested()


def uncalled():
    return 2


def declared():
    """Only a declaration."""
    raise NotImplementedError


class Box:
    @property
    def size(self):
        return 3

    @functools.cache
    def shape(self):
        return "square"


def main():
    box = Box()
    return called() + box.size, box.shape()
'''


@functools.cache
def repo_definitions():
    return definitions_under(REPO_ROOT, DEFINED_IN)


@pytest.fixture
def planted(tmp_path):
    """``(root, definitions, seen)`` for the planted module after its ``main()`` ran."""
    source = tmp_path / "planted.py"
    source.write_text(PLANTED)
    spec = importlib.util.spec_from_file_location("reach_planted", source)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    seen = entered([("planted", module.main)])
    return tmp_path, definitions_in(ast.parse(PLANTED), "planted.py"), seen


def test_only_the_uncalled_function_is_reported(planted):
    root, definitions, seen = planted
    findings = unreached(definitions, seen, root)
    assert [str(finding) for finding in findings] == ["uncalled (planted.py:11)"]
    assert report(findings, {}, definitions, root) == ["uncalled (planted.py:11)"]


def test_a_decorated_function_is_keyed_by_its_first_decorator_line(planted):
    root, definitions, seen = planted
    by_name = {definition.qualname: definition for definition in definitions}
    # ``co_firstlineno`` of a decorated function is its decorator's line:
    # keyed by the ``def`` line, the called property would be reported.
    assert (by_name["Box.size"].first, by_name["Box.shape"].first) == (21, 25)
    assert by_name["Box.size"] not in unreached(definitions, seen, root)


def test_classes_and_declaration_stubs_are_not_judged(planted):
    root, definitions, _ = planted
    kinds = {definition.qualname: definition.kind for definition in definitions}
    assert kinds == {
        "called": "function", "called.nested": "function", "uncalled": "function",
        "declared": "stub", "Box": "class", "Box.size": "function", "Box.shape": "function",
        "main": "function",
    }
    assert [finding.qualname for finding in unreached(definitions, set(), root)] == [
        "called", "called.nested", "uncalled", "Box.size", "Box.shape", "main",
    ]


@pytest.mark.parametrize("body, stub", [
    ('"""Only a docstring."""', True),
    ("...", True),
    ("pass", True),
    ("raise NotImplementedError", True),
    ('"""Declared."""\n    raise NotImplementedError("subclasses decide")', True),
    ("return None", False),
    ('raise ValueError("not a declaration")', False),
])
def test_a_declaration_stub_is_only_a_docstring_ellipsis_pass_or_not_implemented(body, stub):
    (function,) = ast.parse(f"def declared():\n    {body}\n").body
    assert is_stub(function) is stub


def test_every_shipped_entry_point_is_run():
    # Named only: the generator imports the product on its first step and
    # runs nothing until an entry point is called.
    names = [name for name, _ in product_entry_points()]
    examples = sorted(path.name for path in (REPO_ROOT / "examples").glob("*.py"))
    assert names == [
        *(f"example {name}" for name in examples),
        *(f"soak {name}" for name in SOAKS),
        "micro-benches",
        *(f"perf {name}{traced}" for name in WORKLOADS for traced in ("", " traced")),
        *(f"audit dump {name}" for name in WORKLOADS),
        "docs check",
        "sanitizer smoke",
    ]


def test_every_pin_names_a_definition():
    # The pins are exempt by (path, qualname): a pin mapped to the wrong
    # file or name would exempt nothing.  Dunders are not judged anyway.
    defined = {(d.path, d.qualname) for d in repo_definitions()}
    judged = {pin for pin in pinned_by_tracer() if not pin[1].rpartition(".")[2].startswith("__")}
    assert judged and judged <= defined


def planted_test_file(root):
    (root / "tests").mkdir()
    (root / "tests/test_planted.py").write_text(
        "class TestPlanted:\n    def test_uncalled(self):\n        pass\n"
    )
    return "tests/test_planted.py::TestPlanted::test_uncalled"


def test_a_listed_finding_passes(planted):
    root, definitions, seen = planted
    accepted = {"uncalled": ("fault", planted_test_file(root), "driven by its test")}
    assert report(unreached(definitions, seen, root), accepted, definitions, root) == []


def test_a_list_entry_that_is_entered_is_stale(planted):
    root, definitions, seen = planted
    test = planted_test_file(root)
    accepted = {"uncalled": ("fault", test, "kept"), "Box.size": ("reading", test, "kept")}
    assert stale_entries(accepted, definitions, unreached(definitions, seen, root), root) == [
        "Box.size (entered now)"
    ]


def test_a_list_entry_naming_no_definition_is_stale(planted):
    root, definitions, seen = planted
    test = planted_test_file(root)
    accepted = {"uncalled": ("fault", test, "kept"), "Gone.method": ("fault", test, "deleted")}
    assert stale_entries(accepted, definitions, unreached(definitions, seen, root), root) == [
        "Gone.method (no such definition)"
    ]


@pytest.mark.parametrize("test", [
    "tests/test_planted.py::TestPlanted::test_gone",
    "tests/test_planted.py::TestGone::test_uncalled",
    "tests/test_gone.py::test_uncalled",
    "tests/test_planted.py",
])
def test_a_list_entry_naming_no_test_is_stale(planted, test):
    root, definitions, seen = planted
    planted_test_file(root)
    accepted = {"uncalled": ("fault", test, "kept")}
    assert stale_entries(accepted, definitions, unreached(definitions, seen, root), root) == [
        f"uncalled (no such test: {test})"
    ]


def test_the_list_rules():
    accepted = {
        f"f{index}": ("reading" if index < 7 else "surface", "t", "why") for index in range(61)
    }
    accepted["f60"] = ("later", "t", " ")
    assert shape_problems(accepted) == [
        "61 entries, more than 60",
        "7 reading entries, more than 6",
        "f60: category 'later' is not one of ('fault', 'surface', 'reading')",
        "f60: no reason",
    ]


def test_the_committed_list_keeps_its_rules_and_names_what_exists():
    # ``make reach`` also fails on an entry the product enters now; that
    # needs the full run, the rest is checked here.
    definitions = repo_definitions()
    functions = [definition for definition in definitions if definition.kind == "function"]
    assert shape_problems(ACCEPTED) == []
    assert stale_entries(ACCEPTED, definitions, functions, REPO_ROOT) == []


@pytest.mark.parametrize("layer", sorted(ENTRY_POINTS))
def test_every_traced_layer_keeps_a_name_that_resolves(layer):
    """A traced layer whose every pinned name is gone would go blind: no spans."""

    def resolves(pin):
        module_name, _, attrs = pin.partition(":")
        try:
            target = importlib.import_module(module_name)
        except ImportError:
            return False
        for attr in attrs.split("."):
            target = getattr(target, attr, None)
            if target is None:
                return False
        return True

    assert any(resolves(pin) for pin in ENTRY_POINTS[layer]), (
        f"no entry point of {layer} resolves: {', '.join(ENTRY_POINTS[layer])}"
    )
