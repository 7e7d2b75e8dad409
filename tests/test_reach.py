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
from tools.analysis.accepted import ACCEPTED, Row, stale_rows
from tools.analysis.core import definitions_in, is_stub, load_program
from tools.reach import (
    REPO_ROOT,
    ROWS_READ,
    entered,
    pinned_by_tracer,
    product_entry_points,
    report,
    unreached,
)

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
    return load_program(REPO_ROOT, {}).definitions


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
    assert report(findings, (), definitions, root) == ["uncalled (planted.py:11)"]


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


def test_a_row_keeps_its_finding_and_a_row_entered_now_is_stale(planted):
    # The rest of the table's one staleness check is tested with the lint.
    root, definitions, seen = planted
    test = planted_test_file(root)
    findings = unreached(definitions, seen, root)
    rows = (
        Row("reach", "uncalled", "fault", "kept", test),
        Row("R16", "Box.size", "reading", "kept", test),
    )
    assert report(findings, rows, definitions, root) == [
        "stale: R16 row Box.size: its finding is gone"
    ]


def test_the_committed_rows_name_what_exists():
    # ``make reach`` also fails on a row the product enters now, and
    # ``make lint`` on the table's shape; the rest is checked here.
    definitions = repo_definitions()
    functions = {definition.qualname for definition in definitions if definition.kind == "function"}
    rows = [row for row in ACCEPTED if row.rule in ROWS_READ]
    judged = {definition.qualname for definition in definitions}
    assert stale_rows(rows, judged, functions, REPO_ROOT) == []


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
