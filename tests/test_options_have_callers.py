"""Every control-plane option has a caller, every per-packet counter a reader.

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

A counter is the same kind of cost on the packet path: a ``Counter``
or a plain ``int`` held by a node, port, link, host, switch or control
channel is incremented per packet or message whether anyone looks or
not.  Each one must be read in the same directories: a ``Counter``
through ``.value``, an ``int`` as itself (an ``x.name += n`` is no
read).  Reads are matched by attribute name, so two of those classes may
not give a counter the same name (a read of ``Port.tx_bytes`` would
vouch for a ``Link.tx_bytes`` nobody reads).

A control message is the same kind of cost on the control path: a type a
switch or controller dispatches on is a branch every message passes.
Each ``ControlMessage`` subclass must be constructed at one of those
call sites too.

A definition is the general case: every function, method and class in
``src/repro`` (dunders aside) must be named outside the tests, or it is
code only the tests run.  A name counts where it is used as a name or
an attribute, or as a word of a string literal that is not a docstring
(``perf/tracing.py`` wraps methods it names in strings), in the same
directories plus ``tools/`` (not its lint fixtures), the Makefile and the
CI workflows; a use inside the definition itself does not count, and
neither does an import, an ``__all__`` entry or a docstring.  Matching
is by name, so it is coarse: a definition stays alive while anything
else shares its name; ``tools/reach.py`` (``make reach``) is the
execution-based gate.  ``ALLOWLIST`` is the ``reading`` rows of that
tool's list, ``tools/reach_accepted.py``: the few test-only readings
that no public name replaces, each with its reason.
"""

import ast
import dataclasses
import functools
import inspect
import re
from pathlib import Path

import pytest

from repro.cluster.cluster import ControllerCluster
from repro.core.controller import ControllerConfig
from repro.hosts.endhost import EndHost
from repro.netsim.links import Link
from repro.netsim.nodes import Node
from repro.netsim.statistics import Counter
from repro.openflow.channel import ControllerChannel
from repro.openflow.controller_base import Controller
from repro.openflow.switch import OpenFlowSwitch
from repro.telemetry.plane import TelemetryPlane
from tools.reach import Definition, definitions_in
from tools.reach_accepted import ACCEPTED, READING_LIMIT

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
def parsed(path: Path) -> ast.AST:
    return ast.parse(path.read_text(), filename=str(path))


@functools.cache
def scanned_trees() -> tuple[ast.AST, ...]:
    """Every ``.py`` file of the scanned directories, parsed."""
    return tuple(
        parsed(path)
        for directory in SCANNED
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
    )


@functools.cache
def keywords_by_class() -> dict[str, set[str]]:
    """:func:`keywords_in` over every ``.py`` file of the scanned directories."""
    return keywords_in(scanned_trees())


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


# ----------------------------------------------------------------------
# Counters on the packet path
# ----------------------------------------------------------------------


def counter_owners(link_cls: type = Link) -> dict[str, dict[str, str]]:
    """Class name -> ``{attribute: "Counter" or "int"}``, each a counter it adds to its base.

    An ``int`` counter is an attribute whose value is exactly an ``int``:
    not a ``bool`` flag, and not an address (an ``int`` subclass).  A
    port's ``number`` is taken for one too, and passes, being read.
    """
    node, host, switch = Node("node"), EndHost("host", "10.0.0.1"), OpenFlowSwitch("switch")
    link = link_cls(host.add_port(), switch.add_port())
    channel = ControllerChannel(switch, Controller("controller"))
    instances = {
        "Node": (node, None), "Port": (host.port(1), None), "Link": (link, None),
        "EndHost": (host, node), "OpenFlowSwitch": (switch, node),
        "ControllerChannel": (channel, None),
    }

    def counters(obj) -> dict[str, str]:
        kinds = {}
        for name, value in vars(obj).items():
            if isinstance(value, Counter):
                kinds[name] = "Counter"
            elif value.__class__ is int:
                kinds[name] = "int"
        return kinds

    return {
        cls: {
            name: kind for name, kind in counters(obj).items()
            if base is None or name not in counters(base)
        }
        for cls, (obj, base) in instances.items()
    }


def names_read_by_value(trees) -> set[str]:
    """Every ``name`` in an ``<expr>.name.value`` read in ``trees``."""
    return {
        node.value.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and node.attr == "value"
        and isinstance(node.value, ast.Attribute)
    }


def names_loaded(trees) -> set[str]:
    """Every ``name`` in an ``<expr>.name`` whose value is read as itself.

    Not a store (``x.name += n``), and not the receiver of a further
    attribute (``x.name.increment()``, ``x.name.value``).
    """
    receivers = {
        id(node.value)
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
    }
    return {
        node.attr
        for tree in trees
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
        and id(node) not in receivers
    }


def counter_reads(trees) -> dict[str, set[str]]:
    """Counter kind -> the attribute names read in ``trees`` the way that kind is read."""
    return {"Counter": names_read_by_value(trees), "int": names_loaded(trees)}


def unread_counters(owners: dict[str, dict[str, str]], read: dict[str, set[str]]) -> list[str]:
    """``Class.name`` of each counter nothing reads, or named like another class's."""
    classes_by_name: dict[str, list[str]] = {}
    for cls, names in owners.items():
        for name in names:
            classes_by_name.setdefault(name, []).append(cls)
    offenders = []
    for cls, names in owners.items():
        for name, kind in names.items():
            if name not in read[kind]:
                offenders.append(f"{cls}.{name}")
            elif classes_by_name[name][0] != cls:
                offenders.append(f"{cls}.{name} (named like {classes_by_name[name][0]}.{name})")
    return offenders


@functools.cache
def scanned_counter_reads() -> dict[str, set[str]]:
    return counter_reads(scanned_trees())


def test_every_packet_path_counter_is_read_outside_the_tests():
    offenders = unread_counters(counter_owners(), scanned_counter_reads())
    assert not offenders, (
        f"counters incremented on the packet path that no read in "
        f"{'/, '.join(SCANNED)}/ reads: {', '.join(offenders)}.  Delete each, or read it."
    )


def test_the_plain_int_byte_count_of_a_link_is_a_counter():
    assert counter_owners()["Link"] == {"carried_bytes": "int"}


def test_an_unread_int_counter_on_a_link_is_named():
    class PlantedLink(Link):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.hops = 0

        def transmit(self, packet, from_port):
            self.hops += 1
            super().transmit(packet, from_port)

    offenders = unread_counters(counter_owners(PlantedLink), scanned_counter_reads())
    assert offenders == ["Link.hops"]


def test_an_unread_or_shadowed_counter_is_named():
    owners = {
        "Port": {"tx_bytes": "Counter", "rx_bytes": "Counter"},
        "Link": {"tx_bytes": "Counter", "hops": "Counter", "carried": "int", "sent": "int"},
    }
    read = counter_reads([ast.parse(
        "stats = port.tx_bytes.value + port.rx_bytes.value\n"
        "link.sent += 1\n"
        "link.hops.increment()\n"
        "total = link.carried + link.hops\n"
    )])
    assert read["Counter"] == {"tx_bytes", "rx_bytes"}
    assert {"carried", "hops"} <= read["int"] and not {"sent", "tx_bytes"} & read["int"]
    assert unread_counters(owners, read) == [
        "Link.tx_bytes (named like Port.tx_bytes)", "Link.hops", "Link.sent"
    ]


# ----------------------------------------------------------------------
# Control messages
# ----------------------------------------------------------------------


def base_names(node: ast.ClassDef) -> set[str]:
    return {
        base.id if isinstance(base, ast.Name) else base.attr
        for base in node.bases if isinstance(base, (ast.Name, ast.Attribute))
    }


def unsent_messages(trees) -> list[str]:
    """The ``ControlMessage`` subclasses declared in ``trees`` that no call there builds."""
    nodes = [node for tree in trees for node in ast.walk(tree)]
    classes = [node for node in nodes if isinstance(node, ast.ClassDef)]
    messages = {"ControlMessage"}
    grew = True
    while grew:  # subclasses of subclasses, in any declaration order
        grew = False
        for node in classes:
            if node.name not in messages and base_names(node) & messages:
                messages.add(node.name)
                grew = True
    built = {callee(node) for node in nodes if isinstance(node, ast.Call)}
    return sorted(messages - built - {"ControlMessage"})


def test_every_control_message_is_sent_outside_the_tests():
    unsent = unsent_messages(scanned_trees())
    assert not unsent, (
        f"control messages that no call in {'/, '.join(SCANNED)}/ constructs: "
        f"{', '.join(unsent)}.  Delete each with its handler, or send it."
    )


def test_a_message_only_the_tests_send_is_named():
    # Dispatching on a type, or naming it, does not build one.
    source = (
        "class ControlMessage: pass\n"
        "class PortStatsReply(messages.StatsRequest): pass\n"
        "class StatsRequest(ControlMessage): pass\n"
        "class PacketIn(ControlMessage): pass\n"
        "class Packet: pass\n"
        "channel.send_to_controller(PacketIn(switch=self, packet=Packet()))\n"
        "if isinstance(message, StatsRequest): reply = PortStatsReply(switch=self)\n"
    )
    assert unsent_messages([ast.parse(source)]) == ["StatsRequest"]


# ----------------------------------------------------------------------
# Definitions
# ----------------------------------------------------------------------

DEFINED_IN = "src/repro"
#: Besides ``SCANNED``: the repo's tools, minus the lint's test data and
#: the reach list, which names what nothing calls.
TOOLS, TOOL_FIXTURES, REACH_LIST = "tools", "tools/analysis/fixtures", "tools/reach_accepted.py"

#: The ``reading`` rows of the reach list: test-only readings no public
#: name replaces, each with its reason.  One list serves both gates.
ALLOWLIST = {
    qualname: reason for qualname, (category, _, reason) in ACCEPTED.items()
    if category == "reading"
}

WORD = re.compile(r"[A-Za-z_]\w*")


def uses_in(tree: ast.AST, path: str):
    """``(name, path, line)`` of every use of a name in ``tree``.

    A use is an ``ast.Name``, an ``ast.Attribute``'s attribute, or a
    word of a string literal that is neither a docstring nor part of an
    ``__all__`` assignment.  An import binds a name and uses none.
    """
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
            body = node.body
            if (body and isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant)
                    and isinstance(body[0].value.value, str)):
                skipped.add(id(body[0].value))
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(target, ast.Name) and target.id == "__all__" for target in targets):
                skipped.update(id(inner) for inner in ast.walk(node.value))
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, path, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, path, node.end_lineno
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
                and id(node) not in skipped):
            for word in WORD.findall(node.value):
                yield word, path, node.lineno


def text_uses(text: str, path: str):
    """``(word, path, line)`` of every word of a file read as plain text."""
    for line_number, line in enumerate(text.splitlines(), 1):
        for word in WORD.findall(line):
            yield word, path, line_number


def uses_by_name(uses) -> dict[str, list[tuple[str, int]]]:
    by_name: dict[str, list[tuple[str, int]]] = {}
    for name, path, line in uses:
        by_name.setdefault(name, []).append((path, line))
    return by_name


def uncalled(defined: list[Definition], used: dict[str, list[tuple[str, int]]]) -> list[Definition]:
    """The definitions no use names, a use inside the definition itself aside."""
    return [
        definition for definition in defined
        if all(
            path == definition.path and definition.first <= line <= definition.last
            for path, line in used.get(definition.name, ())
        )
    ]


def stale_entries(allowlist, defined: list[Definition], uncalled_now: list[Definition]) -> list[str]:
    """Allowlist entries that name no definition, or one that has a caller now."""
    qualnames = {definition.qualname for definition in defined}
    orphaned = {definition.qualname for definition in uncalled_now}
    stale = []
    for qualname in allowlist:
        if qualname not in qualnames:
            stale.append(f"{qualname} (no such definition)")
        elif qualname not in orphaned:
            stale.append(f"{qualname} (has a caller now)")
    return stale


def relative(path: Path) -> str:
    return path.relative_to(REPO_ROOT).as_posix()


@functools.cache
def repo_definitions() -> list[Definition]:
    return [
        definition
        for path in sorted((REPO_ROOT / DEFINED_IN).rglob("*.py"))
        for definition in definitions_in(parsed(path), relative(path))
    ]


@functools.cache
def repo_uses() -> dict[str, list[tuple[str, int]]]:
    sources = [
        path
        for directory in (*SCANNED, TOOLS)
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
        if not relative(path).startswith(TOOL_FIXTURES + "/") and relative(path) != REACH_LIST
    ]
    # Read as plain text: the CI lint job's heredoc calls ``shadow_replay``.
    texts = [REPO_ROOT / "Makefile", *sorted((REPO_ROOT / ".github/workflows").glob("*.yml"))]

    def every_use():
        for path in sources:
            yield from uses_in(parsed(path), relative(path))
        for path in texts:
            yield from text_uses(path.read_text(), relative(path))

    return uses_by_name(every_use())


def uncalled_report(offenders: list[Definition]) -> str:
    return "\n".join(f"  {offender}" for offender in offenders)


def test_every_definition_has_a_caller_outside_the_tests():
    offenders = [
        definition for definition in uncalled(repo_definitions(), repo_uses())
        if definition.qualname not in ALLOWLIST
    ]
    assert not offenders, (
        f"{len(offenders)} definitions in {DEFINED_IN}/ that nothing outside the tests "
        f"names:\n{uncalled_report(offenders)}\nDelete each, or give it its caller."
    )


def test_the_allowlist_is_short_and_current():
    assert len(ALLOWLIST) <= READING_LIMIT
    assert all(reason.strip() for reason in ALLOWLIST.values())
    stale = stale_entries(ALLOWLIST, repo_definitions(), uncalled(repo_definitions(), repo_uses()))
    assert not stale, f"allowlist entries to drop: {', '.join(stale)}"


PLANTED = '''"""A module that mentions orphan() in its docstring."""
from elsewhere import imported

__all__ = ["Planted", "orphan"]


def orphan():
    """Calls itself: a use inside the definition does not count."""
    return orphan()


class Planted:
    def method(self):
        return self.helper()

    def helper(self):
        return "calls named_by_string()"

    def __len__(self):
        return 0


def named_by_string():
    pass


Planted().method()
'''


def planted_offenders(source: str, allowlist=()) -> list[Definition]:
    tree = ast.parse(source)
    offenders = uncalled(definitions_in(tree, "planted.py"), uses_by_name(uses_in(tree, "planted.py")))
    return [offender for offender in offenders if offender.qualname not in allowlist]


def test_a_planted_definition_with_no_caller_is_named_with_its_place():
    offenders = planted_offenders(PLANTED)
    assert [offender.qualname for offender in offenders] == ["orphan"]
    assert uncalled_report(offenders) == "  orphan (planted.py:7)"


def test_an_import_an_all_entry_and_a_docstring_are_no_callers():
    tree = ast.parse(PLANTED)
    used = uses_by_name(uses_in(tree, "planted.py"))
    assert "imported" not in used
    assert [line for _, line in used["orphan"]] == [9]  # its own body only
    assert "named_by_string" in used and "helper" in used


def test_a_stale_allowlist_entry_is_named():
    tree = ast.parse(PLANTED)
    defined = definitions_in(tree, "planted.py")
    orphaned = uncalled(defined, uses_by_name(uses_in(tree, "planted.py")))
    allowlist = {"orphan": "kept", "Planted.method": "has a caller", "Gone.method": "deleted"}
    assert stale_entries(allowlist, defined, orphaned) == [
        "Planted.method (has a caller now)", "Gone.method (no such definition)",
    ]
    assert planted_offenders(PLANTED, allowlist) == []


def test_a_word_in_a_text_caller_counts():
    used = uses_by_name(text_uses("run:\n  python -c 'from m import shadow_replay'\n", "ci.yml"))
    assert used["shadow_replay"] == [("ci.yml", 2)]
