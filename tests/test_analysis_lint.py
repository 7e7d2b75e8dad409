"""Fixture-locked tests for the repo-invariant lint (``tools/analysis``).

Every rule is pinned to its good/bad fixture pair under
``tools/analysis/fixtures/``, the suppression machinery and the accepted
table are exercised directly, and the live ``src/`` + ``tools/`` trees
are asserted clean — the same invocation ``make lint`` runs in CI.
"""

import ast
import functools
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import analyze_source
from tools.analysis import run_lint
from tools.analysis.accepted import Row, shape_problems
from tools.analysis.core import ParsedModule, Program, analyze_program, is_program_rule, load_program
from tools.analysis.rules import ALL_RULES, rules_by_id

FIXTURES = REPO_ROOT / "tools" / "analysis" / "fixtures"
#: Where a program rule's fixture is planted: a module of ``src/repro``
#: whose row of R10's layer table may import what the fixtures import.
PLANTED = "src/repro/netsim/"
RULE_IDS = [rule.rule_id for rule in ALL_RULES]
PROGRAM_RULE_IDS = [rule.rule_id for rule in ALL_RULES if is_program_rule(rule)]


def lint_fixture(name: str):
    """Lint one fixture file under the full rule set.

    A program rule's fixture stands in for a module of ``src/repro``,
    the only tree those rules judge, and is its own only reader.
    """
    path = FIXTURES / name
    program_rule = name.partition("_")[0].upper() in PROGRAM_RULE_IDS
    rel_path = PLANTED + name if program_rule else path.relative_to(REPO_ROOT).as_posix()
    return analyze_source(path.read_text(), ALL_RULES, rel_path=rel_path)


def module(source: str, rel_path: str) -> ParsedModule:
    return ParsedModule(Path(rel_path), rel_path, ast.parse(source), source.splitlines())


def head(violation) -> str:
    """What a program rule's finding names: ``knob(mode='a')``, ``Table.hits``, ..."""
    return re.match(r"(.+?) (gets|has|is) ", violation.message)[1]


@functools.cache
def planted_heads(rule_id: str) -> list[str]:
    return [head(violation) for violation in lint_fixture(f"{rule_id.lower()}_bad.py")]


@functools.cache
def planted_judged(rule_id: str) -> set[str]:
    """Every name the rule judged in its bad fixture, read as ``src/repro``."""
    rel_path = f"{PLANTED}{rule_id.lower()}_bad.py"
    source = (FIXTURES / f"{rule_id.lower()}_bad.py").read_text()
    program = Program({rel_path: module(source, rel_path)})
    return rules_by_id()[rule_id].check_program(program).judged


#: What R14 names in its bad fixture, by the planted case that puts it there.
UNREAD = {
    "a count read only inside its report": "Table.probes",
    "a count read only in __repr__": "Table.sweeps",
    "an obj.x += 1 through another object": "Entry.uses",
    "an unread int count on a link": "Link.hops",
    "two packet-path classes give a count one name": "Link.tx_bytes (named like Port.tx_bytes)",
    "a report key nothing reads": "Table.stats()['spare']",
    "a Counter( outside the pins": "Table.drops = Counter(...)",
}


class TestFixtureCorpus:
    """Each rule flags its bad fixture and passes its good fixture."""

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_bad_fixture_is_flagged(self, rule_id):
        violations = lint_fixture(f"{rule_id.lower()}_bad.py")
        assert violations, f"{rule_id} bad fixture produced no violations"
        assert {v.rule_id for v in violations} == {rule_id}

    @pytest.mark.parametrize("rule_id", RULE_IDS)
    def test_good_fixture_is_clean(self, rule_id):
        assert lint_fixture(f"{rule_id.lower()}_good.py") == []

    def test_every_rule_has_both_fixtures(self):
        for rule_id in RULE_IDS:
            for kind in ("bad", "good"):
                assert (FIXTURES / f"{rule_id.lower()}_{kind}.py").is_file()

    def test_violations_carry_location_and_render(self):
        violation = lint_fixture("r1_bad.py")[0]
        assert violation.path == "tools/analysis/fixtures/r1_bad.py"
        assert violation.line > 0
        assert str(violation).startswith(f"{violation.path}:{violation.line}: R1 ")


class TestRuleSemantics:
    """Targeted behaviours beyond the plain fixture pass/fail."""

    def test_r1_workload_allowlist(self):
        source = "import time\n\ndef t():\n    return time.perf_counter()\n"
        rules = [rules_by_id()["R1"]]
        assert analyze_source(source, rules, rel_path="src/repro/netsim/x.py")
        assert analyze_source(source, rules, rel_path="benchmarks/x.py") == []
        assert (
            analyze_source(source, rules, rel_path="src/repro/workloads/x.py") == []
        )

    def test_r2_seeded_instance_is_clean(self):
        rules = [rules_by_id()["R2"]]
        assert analyze_source("import random\nrng = random.Random(7)\n", rules) == []
        assert analyze_source("import random\nrng = random.Random()\n", rules)

    def test_r3_tag_requires_a_reason(self):
        rules = [rules_by_id()["R3"]]
        tagged = (
            "try:\n    x()\n"
            "except Exception:  # fail-open-ok: advisory metrics only\n    pass\n"
        )
        bare_tag = "try:\n    x()\nexcept Exception:  # fail-open-ok:\n    pass\n"
        assert analyze_source(tagged, rules) == []
        assert analyze_source(bare_tag, rules)

    def test_r3_reraise_and_audit_paths_are_fail_closed(self):
        rules = [rules_by_id()["R3"]]
        reraise = "try:\n    x()\nexcept Exception:\n    cleanup()\n    raise\n"
        audited = "try:\n    x()\nexcept Exception:\n    audit.record_fail_closed('x')\n"
        assert analyze_source(reraise, rules) == []
        assert analyze_source(audited, rules) == []

    def test_r4_flags_lambda_and_method_callbacks(self):
        violations = lint_fixture("r4_bad.py")
        flagged_lines = {v.line for v in violations}
        assert len(flagged_lines) >= 3  # nested def, lambda, method body

    def test_r5_named_counter_is_clean(self):
        rules = [rules_by_id()["R5"]]
        assert analyze_source("c = Counter(name='served')\n", rules) == []
        assert analyze_source("c = Counter()\n", rules)
        assert analyze_source("r = RateCounter('punt_rate', 0.25)\n", rules) == []
        assert analyze_source("r = statistics.RateCounter(window=0.25)\n", rules)

    def test_r8_only_the_owner_touches_the_raw_store(self):
        rules = [rules_by_id()["R8"]]
        peek = "def n(table):\n    return len(table._sockets)\n"
        scan = "def f(s, k):\n    return [v for key, v in reversed(s.pairs) if key == k]\n"
        assert analyze_source(peek, rules, rel_path="src/repro/identpp/daemon.py")
        assert analyze_source(peek, rules, rel_path="src/repro/hosts/sockets.py") == []
        assert analyze_source(scan, rules, rel_path="src/repro/pf/evaluator.py")
        assert analyze_source(scan, rules, rel_path="src/repro/identpp/keyvalue.py") == []
        # Passing the list on, appending to it or indexing it scans nothing.
        handed_on = "def g(s):\n    s.pairs.append(('k', 'v'))\n    return dict(s.pairs), s.pairs[0]\n"
        assert analyze_source(handed_on, rules, rel_path="src/repro/core/interception.py") == []

    def test_r9_one_way_onto_the_event_queue(self):
        rules = [rules_by_id()["R9"]]
        peek = "def n(self):\n    return len(self.sim._queue)\n"
        assert analyze_source(peek, rules, rel_path="src/repro/netsim/links.py")
        assert analyze_source(peek.replace("self.sim", "sim"), rules, rel_path="perf/x.py")
        # The owner, and a class's own `_queue` (the serial decision queue).
        own = "def n(self):\n    return len(self._queue)\n"
        assert analyze_source(own, rules, rel_path="src/repro/netsim/events.py") == []
        assert analyze_source(own, rules, rel_path="src/repro/core/controller.py") == []
        per_event = "def s(self):\n    self.sim.schedule(0.0, self.f, label=f'{self.name}:x')\n"
        assert analyze_source(per_event, rules, rel_path="src/repro/core/controller.py")
        for built_once in ("self._label", "'fixed'", "LABELS[role]"):
            source = per_event.replace("f'{self.name}:x'", built_once)
            assert analyze_source(source, rules, rel_path="src/repro/core/controller.py") == []
        # A delivery that may ride an earlier event is a scheduling call too.
        delivered = per_event.replace("schedule(0.0, self.f,", "deliver(0.0, self, self.f, m,")
        assert analyze_source(delivered, rules, rel_path="src/repro/openflow/channel.py")
        # An f-string label on anything but a scheduling call is not an event label.
        probe = "def p(i):\n    return Probe(label=f'{i.src}->{i.dst}')\n"
        assert analyze_source(probe, rules, rel_path="src/repro/workloads/experiment.py") == []

    def test_r10_judges_every_import_against_the_layer_table(self):
        rules = [rules_by_id()["R10"]]
        controller, links = "src/repro/core/controller.py", "src/repro/netsim/links.py"
        # A third-party package is in no row: what `Topology` did until it
        # kept its own adjacency.
        assert analyze_source("import networkx as nx\n", rules, rel_path="src/repro/netsim/topology.py")
        assert analyze_source("from numpy.linalg import norm\n", rules, rel_path=controller)
        assert len(analyze_source("import os, yaml, attr\n", rules, rel_path="tools/x.py")) == 2
        guarded = "try:\n    import yaml\nexcept ImportError:\n    yaml = None\n"
        assert analyze_source(guarded, rules, rel_path=controller)
        # An upward import names the module, the line and the row.
        upward = analyze_source("\nimport repro.openflow.switch\n", rules, rel_path=links)
        assert [str(v) for v in upward] == [
            "src/repro/netsim/links.py:2: R10 `repro.netsim.links` imports "
            "`repro.openflow.switch`: row `repro.netsim` of LAYERS does not list `repro.openflow`"
        ]
        # A local, type-checking or relative import is an edge like any other.
        for hidden in (
            "def f():\n    import repro.openflow.switch\n",
            "if TYPE_CHECKING:\n    from repro.openflow.switch import OpenFlowSwitch\n",
            "from ..openflow import switch\n",
        ):
            assert analyze_source(hidden, rules, rel_path=links), hidden
        # The benchmark harness is no layer of the product.
        harness = analyze_source("from perf.harness import run_repeat\n", rules, rel_path=controller)
        assert [str(v) for v in harness] == [
            "src/repro/core/controller.py:1: R10 `repro.core.controller` imports `perf.harness`: "
            "row `repro.core` of LAYERS does not list `perf`"
        ]
        # The controller imports no cluster, end host or telemetry module;
        # the builder, the row above them, does.
        for name in ("repro.cluster.cluster", "repro.hosts.endhost", "repro.telemetry.plane"):
            assert analyze_source(f"import {name}\n", rules, rel_path=controller), name
            assert analyze_source(f"import {name}\n", rules, rel_path="src/repro/core/network.py") == []
        # `from a import b` is `a.b` when that is another row.
        assert analyze_source("from repro.core import network\n", rules, rel_path="src/repro/cluster/x.py")
        # A module in no row may import only the standard library.
        assert analyze_source("import repro.netsim.events\n", rules, rel_path="tests/x.py")
        for clean in (
            "import os.path\n", "from collections import deque\n", "from repro.pf import ruleset\n",
            "from repro.netsim.addresses import IPv4Address\n", "from . import controller_base\n",
            "from .audit import AuditLog\n", "from __future__ import annotations\n",
        ):
            assert analyze_source(clean, rules, rel_path=controller) == [], clean
        assert analyze_source("from . import links\n", rules, rel_path="src/repro/netsim/__init__.py") == []

    def test_r11_python_floor(self):
        rules = [rules_by_id()["R11"]]
        # What nearly went into `Packet` once.
        assert analyze_source("@dataclass(slots=True, weakref_slot=True)\nclass P:\n    pass\n", rules)
        assert analyze_source("import tomllib\n", rules)
        assert analyze_source("from tomllib import loads\n", rules)
        assert analyze_source("import datetime as dt\nZ = dt.UTC\n", rules)
        assert analyze_source("import re\nW = re.compile('(?>a|b)c')\n", rules)
        assert analyze_source("import re as regex\nregex.match(r'\\d++', s)\n", rules)
        for clean in (
            # `datetime` the class, not the module; patterns only in `re` calls.
            "from datetime import datetime\nZ = datetime.UTC\n",
            "NOTE = 'a++ or (?>x)'\n",
            "import re\nW = re.compile(r'[*+]+|\\++|a+?|[]+]')\n",
            "import re\nW = re.compile(PATTERN)\n",
        ):
            assert analyze_source(clean, rules) == [], clean

    def test_r12_unused_imports(self):
        rules = [rules_by_id()["R12"]]
        assert analyze_source("import os\n", rules)
        assert analyze_source("import os.path\n", rules)
        assert analyze_source("try:\n    import os\nexcept ImportError:\n    import sys\n", rules)
        # One finding per unread name, on the line that imports it.
        split = "from typing import (\n    Callable,\n    Optional,\n)\nx: Optional[int]\n"
        assert [v.line for v in analyze_source(split, rules)] == [2]
        # A function's own import is not a top-level one.
        assert analyze_source("def f():\n    import os\n", rules) == []
        for clean in (
            "import os.path\nos.path.join('a')\n",
            "from __future__ import annotations\n",
            "from repro.netsim.links import Link\n__all__ = ['Link']\n",
            "if TYPE_CHECKING:\n    from repro.netsim.links import Link\nL = list['Link']\n",
            "import os  # lint: disable=R12\n",
        ):
            assert analyze_source(clean, rules) == [], clean
        # A package's __init__ re-exports nothing, so it gets no pass.
        assert analyze_source("import os\n", rules, rel_path="src/repro/x/__init__.py")

    @pytest.mark.parametrize("rule_id, named", [
        ("R13", [
            "Record(shade='dark')", "Base(width=0)", "Config(capacity=None)", "Rule(proto=None)",
            "knob(mode='a')", "knob(only_tests=0)", "relay(depth=0)", "chained(depth=0)",
        ]),
        ("R14", [*UNREAD.values(), "Table.stats()['probes']"]),
        ("R15", ["StatsRequest"]),
        ("R16", ["orphan"]),
    ])
    def test_program_rules_name_each_planted_finding(self, rule_id, named):
        # The bad fixtures hold what the scans' planted cases named, and
        # only that: what each counting rule vouches for is not named.
        assert sorted(planted_heads(rule_id)) == sorted(named)

    @pytest.mark.parametrize("rule, settable", [
        ("a keyword", "knob(flag)"), ("a positional argument", "knob(value)"),
        ("a replace()", "Record(size)"), ("a **dict(...) forwarder", "Record(label)"),
        ("a **kwargs forwarder", "Rule(port)"), ("an attribute store", "Record(color)"),
        ("super().__init__", "Base(depth)"), ("a forwarded parameter that passes", "knob(level)"),
    ])
    def test_each_counting_rule_gives_a_second_value(self, rule, settable):
        named = {head.partition("=")[0] + ")" for head in planted_heads("R13")}
        assert settable not in named and settable.partition("(")[0] in planted_judged("R13"), rule

    @pytest.mark.parametrize("rule, finding", UNREAD.items())
    def test_each_unread_count_is_named(self, rule, finding):
        assert finding in planted_heads("R14"), rule

    @pytest.mark.parametrize("rule, count", [
        ("a report key read by subscript", "resets"), ("an attribute read as itself", "lookups"),
        ("a key read through an iterated literal tuple", "flushes"),
        ("a Counter read through .value", "drops"),
    ])
    def test_each_read_keeps_its_count(self, rule, count):
        heads = planted_heads("R14")
        assert f"Table.{count}" not in heads, rule
        assert not [head for head in heads if head.endswith(f"[{count!r}]")], rule
        assert f"Table.{count}" in planted_judged("R14"), rule

    @pytest.mark.parametrize("rule_id, source, use, named", [
        ("R13", "def serve(port=80):\n    return port\n", "serve(port=8080)\n", "serve(port=80)"),
        ("R14", "class Table:\n    def __init__(self):\n        self.hits = 0\n\n"
         "    def hit(self):\n        self.hits += 1\n", "print(table.hits)\n", "Table.hits"),
        ("R15", "class ControlMessage:\n    pass\n\n\nclass Hello(ControlMessage):\n    pass\n",
         "channel.send(Hello())\n", "Hello"),
        ("R16", "def orphan():\n    pass\n", "orphan()\n", "orphan"),
    ], ids=["R13", "R14", "R15", "R16"])
    def test_what_only_the_tests_use_is_named(self, tmp_path, rule_id, source, use, named):
        # The same use counts from examples/ and not from tests/: the
        # tests are no reader of the tree the program rules load.
        def heads_with_use_in(reader):
            for rel_path, text in {"src/repro/planted.py": source, reader: use}.items():
                (tmp_path / rel_path).parent.mkdir(parents=True, exist_ok=True)
                (tmp_path / rel_path).write_text(text)
            program = load_program(tmp_path, {})
            (tmp_path / reader).unlink()
            return [head(v) for v in rules_by_id()[rule_id].check_program(program).findings]

        assert heads_with_use_in("tests/test_planted.py") == [named]
        assert heads_with_use_in("examples/demo.py") == []

    def test_r14_a_pin_perf_reads_must_be_built(self):
        program = Program(
            {"src/repro/x.py": module("x = 0\n", "src/repro/x.py"),
             "perf/harness.py": module("", "perf/harness.py")},
            root=REPO_ROOT,
        )
        found = rules_by_id()["R14"].check_program(program).findings
        assert {v.path for v in found} == {"tools/analysis/rules/r14_readers.py"}
        assert sorted(v.message.partition(" ")[0] for v in found) == [
            "ControllerChannel.to_controller_messages", "ControllerChannel.to_switch_messages",
            "IdentPPDaemon.queries_answered", "OpenFlowSwitch.punts",
        ]

    def test_r16_an_import_is_no_use_and_a_word_in_a_text_reader_is(self):
        rules = [rules_by_id()["R16"]]
        imported = "from .elsewhere import orphan\n\ndef orphan():\n    pass\n"
        found = analyze_source(imported, rules, rel_path="src/repro/x.py")
        assert [v.qualname for v in found] == ["orphan"]
        source = "def shadow_replay():\n    pass\n"
        program = Program(
            {"src/repro/x.py": module(source, "src/repro/x.py")},
            texts={"ci.yml": "run:\n  python -c 'from m import shadow_replay'\n"},
        )
        assert analyze_program(program, rules) == []

    def test_program_rules_judge_only_src_repro(self):
        source = (FIXTURES / "r16_bad.py").read_text()
        assert analyze_source(source, ALL_RULES, rel_path="tools/x.py") == []
        assert analyze_source(source, ALL_RULES, rel_path="perf/x.py") == []

    @pytest.mark.skipif(sys.version_info < (3, 11), reason="`except*` does not parse before 3.11")
    def test_r11_except_star(self):
        source = "try:\n    run()\nexcept* ValueError:\n    pass\n"
        assert analyze_source(source, [rules_by_id()["R11"]])


#: Imports every ``repro.*`` module in a fresh interpreter and reports what
#: else came with it.  Names already loaded when the script starts
#: (``__main__``, site hooks such as ``_distutils_hack``) are the bare
#: interpreter's, not the product's.  The peak is read from ``VmHWM``, which
#: starts from nothing at exec; ``ru_maxrss`` starts from the size of the
#: process that forked, here a pytest run many times the product's size.
IMPORT_PROBE = """
import sys
bare = {name.partition(".")[0] for name in sys.modules}
import importlib, json, pkgutil
import repro
modules = [found.name for found in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)
loaded = {name.partition(".")[0] for name in sys.modules} - bare - {"repro"}
try:
    with open("/proc/self/status") as status:
        peak_mb = next(int(line.split()[1]) for line in status if line.startswith("VmHWM")) / 1024
except OSError:
    peak_mb = None
print(json.dumps({
    "modules": len(modules),
    "foreign": sorted(loaded - set(sys.stdlib_module_names)),
    "peak_mb": peak_mb,
}))
"""


class TestStdlibOnlyAtRuntime:
    """R10's runtime twin: what importing the whole product actually loads."""

    def test_importing_every_module_loads_nothing_third_party(self):
        probe = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        )
        assert probe.returncode == 0, probe.stderr
        report = json.loads(probe.stdout)
        assert report["modules"] > 90  # soak, experiment, cluster, telemetry: all of it
        assert report["foreign"] == []
        # A tripwire, not a measurement: ~24 MB here, over 40 MB when
        # `Topology` imported networkx to hold an adjacency dict.
        assert report["peak_mb"] is None or report["peak_mb"] < 30


class TestAcceptedTable:
    """The one allowlist of the program rules and ``make reach``."""

    def planted(self, tmp_path, *rows):
        (tmp_path / "tests").mkdir(exist_ok=True)
        (tmp_path / "tests/test_planted.py").write_text(
            "class TestPlanted:\n    def test_it(self):\n        pass\n"
        )
        source = "def orphan():\n    pass\n\ndef used():\n    pass\n\nused()\n"
        program = Program(
            {"src/repro/p.py": module(source, "src/repro/p.py")}, accepted=rows, root=tmp_path,
        )
        return [v.message for v in analyze_program(program, [rules_by_id()["R16"]])]

    def test_a_row_keeps_the_finding_it_names(self, tmp_path):
        test = "tests/test_planted.py::TestPlanted::test_it"
        assert self.planted(tmp_path) == [
            "orphan is named nowhere outside the tests: delete it, or give it its caller"
        ]
        assert self.planted(tmp_path, Row("R16", "orphan", "reading", "kept", test)) == []

    def test_a_stale_row_fails(self, tmp_path):
        test = "tests/test_planted.py::TestPlanted::test_it"
        assert self.planted(
            tmp_path,
            Row("R16", "orphan", "reading", "kept", test.replace("test_it", "test_gone")),
            Row("R16", "used", "reading", "has a caller", test),
            Row("R16", "Gone.method", "reading", "deleted", test),
        ) == [
            "accepted table: R16 row orphan: no such test: "
            "tests/test_planted.py::TestPlanted::test_gone",
            "accepted table: R16 row used: its finding is gone",
            "accepted table: R16 row Gone.method: names nothing the rule judges",
        ]

    @pytest.mark.parametrize("test", [
        "tests/test_planted.py::TestGone::test_it",
        "tests/test_gone.py::test_it",
        "tests/test_planted.py",
    ])
    def test_a_row_whose_file_class_or_test_is_gone_fails(self, tmp_path, test):
        assert self.planted(tmp_path, Row("R16", "orphan", "reading", "kept", test)) == [
            f"accepted table: R16 row orphan: no such test: {test}"
        ]

    def test_the_table_keeps_its_categories_reasons_and_limits(self):
        rows = [
            Row("reach", f"f{i}", "surface", "why", "t") if i < 57
            else Row("R16", f"f{i}", "reading", "why", "t")
            for i in range(64)
        ]
        rows += [Row("R13", "f", "reading", " ", "t"), Row("R15", "g", "fault", "why", "t")]
        assert [why for _, why in shape_problems(rows)] == [
            "R13 takes no 'reading' row", "no reason", "R15 takes no 'fault' row",
            "64 reach/R16 rows, more than 60", "7 R16 rows, more than 6",
        ]


class TestSuppression:
    def test_inline_disable_suppresses_only_named_rule(self):
        flagged = "import time\nnow = time.time()\n"
        suppressed = "import time\nnow = time.time()  # lint: disable=R1\n"
        wrong_rule = "import time\nnow = time.time()  # lint: disable=R2\n"
        assert analyze_source(flagged, ALL_RULES)
        assert analyze_source(suppressed, ALL_RULES) == []
        assert analyze_source(wrong_rule, ALL_RULES)

    def test_inline_disable_accepts_a_list(self):
        source = (
            "import time\nimport random\n"
            "x = time.time() + random.random()  # lint: disable=R1,R2\n"
        )
        assert analyze_source(source, ALL_RULES) == []

    @pytest.mark.parametrize("rule_id", PROGRAM_RULE_IDS)
    def test_inline_disable_cannot_silence_a_program_rule(self, rule_id):
        # The accepted table, with its limits, is their one allowlist.
        source = (FIXTURES / f"{rule_id.lower()}_bad.py").read_text().splitlines()
        found = lint_fixture(f"{rule_id.lower()}_bad.py")
        for line in {v.line for v in found}:
            source[line - 1] += f"  # lint: disable={rule_id}"
        planted = "\n".join(source) + "\n"
        rel_path = f"{PLANTED}{rule_id.lower()}_bad.py"
        assert analyze_source(planted, ALL_RULES, rel_path=rel_path) == found


class TestRunLint:
    """The ``make lint`` entry point's exit-code contract."""

    def test_live_tree_is_clean(self):
        assert run_lint.main([]) == 0

    def test_seeded_violations_fail_the_run(self, monkeypatch):
        # The fixture corpus *is* a tree seeded with violations; with the
        # exclusion lifted the run must exit non-zero.
        monkeypatch.setattr(run_lint, "EXCLUDED_PREFIXES", ())
        assert run_lint.main([str(FIXTURES)]) == 1

    def test_missing_path_is_an_error(self):
        assert run_lint.main(["no/such/dir"]) == 2

    def test_list_rules(self, capsys):
        assert run_lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out
