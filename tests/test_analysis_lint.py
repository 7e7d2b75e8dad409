"""Fixture-locked tests for the repo-invariant lint (``tools/analysis``).

Every rule is pinned to its good/bad fixture pair under
``tools/analysis/fixtures/``, the suppression machinery is exercised
directly, and the live ``src/`` + ``tools/`` trees are asserted clean —
the same invocation ``make lint`` runs in CI.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent
if str(REPO_ROOT) not in sys.path:
    sys.path.insert(0, str(REPO_ROOT))

from tools.analysis import analyze_paths, analyze_source
from tools.analysis import run_lint
from tools.analysis.rules import ALL_RULES, rules_by_id

FIXTURES = REPO_ROOT / "tools" / "analysis" / "fixtures"
RULE_IDS = [rule.rule_id for rule in ALL_RULES]


def lint_fixture(name: str):
    """Lint one fixture file under the full rule set."""
    return analyze_paths([FIXTURES / name], ALL_RULES, root=REPO_ROOT)


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

    def test_r10_standard_library_and_first_party_only(self):
        rules = [rules_by_id()["R10"]]
        # What `Topology` did until it kept its own adjacency.
        assert analyze_source("import networkx as nx\n", rules, rel_path="src/repro/netsim/topology.py")
        assert analyze_source("from numpy.linalg import norm\n", rules, rel_path="src/repro/x.py")
        assert len(analyze_source("import os, yaml, attr\n", rules, rel_path="tools/x.py")) == 2
        guarded = "try:\n    import yaml\nexcept ImportError:\n    yaml = None\n"
        assert analyze_source(guarded, rules, rel_path="src/repro/x.py")
        for clean in (
            "import os.path\n", "from collections import deque\n", "from repro.pf import ruleset\n",
            "from tools.analysis.core import Violation\n", "from perf.harness import run_repeat\n",
            "from . import events\n",
            "from .events import Simulator\n", "from __future__ import annotations\n",
        ):
            assert analyze_source(clean, rules, rel_path="src/repro/x.py") == []

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


class TestRunLint:
    """The ``make lint`` entry point's exit-code contract."""

    def test_live_tree_is_clean(self):
        assert run_lint.main([]) == 0

    def test_seeded_violations_fail_the_run(self, monkeypatch):
        # The fixture corpus *is* a tree seeded with violations; with the
        # exclusion lifted the run must exit non-zero.
        monkeypatch.setattr(run_lint, "EXCLUDED_PREFIXES", ())
        assert run_lint.main([str(FIXTURES)]) == 1

    def test_disable_switches_a_rule_off(self, monkeypatch):
        monkeypatch.setattr(run_lint, "EXCLUDED_PREFIXES", ())
        bad = str(FIXTURES / "r1_bad.py")
        assert run_lint.main([bad]) == 1
        assert run_lint.main([bad, "--disable", "R1"]) == 0

    def test_unknown_rule_id_is_an_error(self):
        assert run_lint.main(["--disable", "R99"]) == 2

    def test_missing_path_is_an_error(self):
        assert run_lint.main(["no/such/dir"]) == 2

    def test_list_rules(self, capsys):
        assert run_lint.main(["--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in RULE_IDS:
            assert rule_id in out
