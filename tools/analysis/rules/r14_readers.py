"""R14 — every count and report key has a reader; a ``Counter`` only where perf/ reads it.

A count is incremented on the hot paths whether anyone looks or not.  A
count is an attribute ``src/repro`` adds to; a report key a string key
of the dict a ``stats()`` / ``summary()`` builds.  Each must be read
outside the reports, matched by name; the full rules, and why two
packet-path classes may not share a count's name, are in
``docs/ANALYSIS.md``.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import NamedTuple, Optional

from tools.analysis.core import PRODUCT, Findings, ParsedModule, Program, Violation, callee

#: A report shows counts: a load in one of these bodies is no read, and a
#: key of the dict a ``stats()`` / ``summary()`` builds is read where its
#: literal is.
REPORTS = ("stats", "summary")
SHOWN_IN = (*REPORTS, "__repr__", "__str__")
#: The ``Counter``s ``perf/harness.py`` reads through ``.value``.
COUNTER_PINS = frozenset({
    "OpenFlowSwitch.punts", "ControllerChannel.to_controller_messages",
    "ControllerChannel.to_switch_messages", "IdentPPDaemon.queries_answered",
})
PIN_READER = "perf/harness.py"
#: The classes that count per packet or message: two may not give a count
#: one name (a read of ``Port.tx_bytes`` would vouch for ``Link.tx_bytes``).
PACKET_PATH = frozenset({"Node", "Port", "Link", "EndHost", "OpenFlowSwitch", "ControllerChannel"})
#: Calls that read an attribute named by a string.
NAMED_READS = ("getattr", "attrgetter")
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)
UNREAD = "has no reader outside the tests: delete it with its increments, or read it"


class Count(NamedTuple):
    """An attribute ``src/repro`` adds to."""

    owner: str  # the class that declares it, else the one whose code adds to it
    name: str
    path: str
    line: int

    @property
    def qualname(self) -> str:
        return f"{self.owner}.{self.name}"


class ReportKey(NamedTuple):
    """A string key of the dict a ``stats()`` / ``summary()`` builds."""

    report: str  # the report's qualname
    name: str
    path: str
    line: int

    @property
    def qualname(self) -> str:
        return f"{self.report}()[{self.name!r}]"


def added_to(node: ast.AST) -> Optional[ast.Attribute]:
    """The ``x.name`` an increment adds to, or None."""
    if isinstance(node, ast.AugAssign) and isinstance(node.op, ast.Add):
        target = node.target
        if isinstance(target, ast.Attribute) and target.attr == "value" and isinstance(
                target.value, ast.Attribute):
            return target.value
        return target if isinstance(target, ast.Attribute) else None
    if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "increment" and isinstance(node.func.value, ast.Attribute)):
        return node.func.value
    return None


def scoped(tree: ast.AST) -> list[tuple]:
    """``(node, class, shown)`` of every node under ``tree``: the enclosing
    class's qualname, and the :data:`SHOWN_IN` function whose body holds
    it, or None."""
    found, stack = [], [(child, "", None) for child in ast.iter_child_nodes(tree)]
    while stack:
        node, cls, shown = stack.pop()
        found.append((node, cls, shown))
        if isinstance(node, ast.ClassDef):
            cls = f"{cls}.{node.name}" if cls else node.name
        elif isinstance(node, FUNCTIONS) and shown is None and node.name in SHOWN_IN:
            shown = node
        stack.extend((child, cls, shown) for child in ast.iter_child_nodes(node))
    return found


def string(node) -> Optional[str]:
    return node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else None


def key_read(node: ast.AST) -> Optional[ast.expr]:
    """The key ``x[key]`` or ``x.get(key)`` reads, or None."""
    if isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Load):
        return node.slice
    if isinstance(node, ast.Call) and callee(node) == "get" and isinstance(
            node.func, ast.Attribute) and node.args:
        return node.args[0]
    return None


def strings_of(expr, literals: dict) -> set[str]:
    """The strings of a literal tuple, list, set or dict's keys, through the
    literals a name or attribute is bound to."""
    if isinstance(expr, ast.Call) and callee(expr) in ("items", "keys") and isinstance(
            expr.func, ast.Attribute):
        expr = expr.func.value
    if isinstance(expr, (ast.Name, ast.Attribute)):
        name = expr.id if isinstance(expr, ast.Name) else expr.attr
        return {s for literal in literals.get(name, ()) for s in strings_of(literal, {})}
    elements = expr.keys if isinstance(expr, ast.Dict) else getattr(expr, "elts", ())
    return {string(e) for e in elements if string(e) is not None} if isinstance(
        expr, (ast.Tuple, ast.List, ast.Set, ast.Dict)) else set()


def iterated_keys(nodes: list[ast.AST]) -> set[str]:
    """The keys a subscript or ``.get()`` reads through a loop variable: the
    strings of the literal the loop iterates in the same module."""
    looked_up = {key.id for key in map(key_read, nodes) if isinstance(key, ast.Name)}
    literals: dict[str, list] = {}
    for node in nodes:
        if isinstance(node, ast.Assign) and isinstance(
                node.value, (ast.Tuple, ast.List, ast.Set, ast.Dict)):
            for target in node.targets:
                if isinstance(target, (ast.Name, ast.Attribute)):
                    name = target.id if isinstance(target, ast.Name) else target.attr
                    literals.setdefault(name, []).append(node.value)
    return {
        key
        for node in nodes if isinstance(node, (ast.For, ast.comprehension))
        if looked_up & {n.id for n in ast.walk(node.target) if isinstance(n, ast.Name)}
        for key in strings_of(node.iter, literals)
    }


def imports_counter(nodes: list[ast.AST]) -> bool:
    """Whether ``Counter`` names the statistics module's, not ``collections``'."""
    return any(
        isinstance(node, ast.ImportFrom) and node.module != "collections"
        and any(alias.name == "Counter" for alias in node.names)
        for node in nodes
    )


class Tally:
    """Every count and report key of some modules, and every read of one, by AST.

    The counts and keys of ``src/repro`` are the ones judged.
    """

    def __init__(self, modules: list[ParsedModule]):
        self.counts: list[Count] = []
        self.keys: list[ReportKey] = []
        self.counters: list[tuple] = []  # (name, path, line) of each Counter() outside the pins
        self.pinned: set[str] = set()  # the pins a Counter() is built for
        self.read: set[str] = set()  # attribute names loaded outside the reports
        self.read_keys: set[str] = set()  # keys read outside the reports
        self.bare: set[str] = set()  # names loaded as themselves
        self.forwarded: set[str] = set()  # ``name=x.name``: read where ``name`` is
        self.depends: dict[str, tuple[set, set]] = {}  # key -> (attributes, keys) its value reads
        declared: dict[str, list[str]] = {}  # attribute -> the classes that assign or declare it
        walks = [(module, scoped(module.tree)) for module in modules]
        for module, nodes in walks:
            if module.rel_path.startswith(PRODUCT):
                self._declarations(nodes, declared)
        for module, nodes in walks:
            self._scan(module, nodes, module.rel_path.startswith(PRODUCT), declared)

    def _declarations(self, nodes, declared) -> None:
        for node, cls, _ in nodes:
            if isinstance(node, ast.ClassDef):
                owner = f"{cls}.{node.name}" if cls else node.name
                for item in node.body:
                    if isinstance(item, ast.AnnAssign) and isinstance(item.target, ast.Name):
                        declared.setdefault(item.target.id, []).append(owner)
            elif isinstance(node, ast.Assign) and cls:
                for target in node.targets:
                    if (isinstance(target, ast.Attribute) and isinstance(target.value, ast.Name)
                            and target.value.id == "self"):
                        declared.setdefault(target.attr, []).append(cls)

    def _scan(self, module: ParsedModule, nodes, judged: bool, declared) -> None:
        path = module.rel_path
        receivers, forwards = set(), set()
        for node, cls, _ in nodes:
            target = added_to(node)
            if target is None:
                if isinstance(node, ast.Call):
                    forwards.update(
                        id(k.value) for k in node.keywords
                        if isinstance(k.value, ast.Attribute) and k.value.attr == k.arg
                    )
                continue
            receivers.add(id(target))
            if judged:
                owners = declared.get(target.attr, ())
                on_self = isinstance(target.value, ast.Name) and target.value.id == "self"
                owner = cls if on_self and cls in owners else next(iter(owners), cls or path)
                self.counts.append(Count(owner, target.attr, path, node.lineno))
        counter = judged and imports_counter(module.nodes)
        for node, cls, shown in nodes:
            kind = type(node)
            if shown is not None:
                continue
            if kind is ast.Attribute:
                if isinstance(node.ctx, ast.Load):
                    if id(node) in forwards:
                        self.forwarded.add(node.attr)
                    elif id(node) not in receivers:
                        self.read.add(node.attr)
            elif kind is ast.Name:
                if isinstance(node.ctx, ast.Load):
                    self.bare.add(node.id)
            elif kind is ast.Call or kind is ast.Subscript:
                if kind is ast.Call and callee(node) in NAMED_READS:
                    self.read.update(filter(None, map(string, node.args)))
                key = string(key_read(node))
                if key is not None:
                    self.read_keys.add(key)
            elif kind in FUNCTIONS:
                if judged and node.name in REPORTS:
                    self._report(node, f"{cls}.{node.name}" if cls else node.name, path)
            elif counter and kind is ast.Assign and isinstance(node.value, ast.Call) and (
                    callee(node.value) == "Counter"):
                for target in node.targets:
                    name = f"{cls}.{getattr(target, 'attr', ast.unparse(target))}"
                    if name in COUNTER_PINS:
                        self.pinned.add(name)
                    else:
                        self.counters.append((name, path, node.lineno))
        self.read_keys |= iterated_keys(module.nodes)

    def _report(self, function, qualname: str, path: str) -> None:
        """The keys the report builds, each with what its value reads."""
        local: dict[str, list[ast.expr]] = {}
        keyed = []
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name):
                        local.setdefault(target.id, []).append(node.value)
                    elif isinstance(target, ast.Subscript) and string(target.slice) is not None:
                        keyed.append((target.slice, node.value))
            elif isinstance(node, ast.Dict):
                keyed += [(k, v) for k, v in zip(node.keys, node.values) if string(k) is not None]
        for key, value in keyed:
            self.keys.append(ReportKey(qualname, key.value, path, key.lineno))
            attributes, keys = self.depends.setdefault(key.value, (set(), set()))
            for node in self._value_nodes(value, local):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                    attributes.add(node.attr)
                if string(key_read(node)) is not None:
                    keys.add(key_read(node).value)

    @staticmethod
    def _value_nodes(value, local):
        """The nodes a key's value reads: through the report's local names,
        not into a nested dict, whose keys are keys of their own."""
        stack, seen = [value], set()
        while stack:
            node = stack.pop()
            yield node
            if isinstance(node, ast.Name) and node.id not in seen:
                seen.add(node.id)
                stack += local.get(node.id, ())
            stack += [child for child in ast.iter_child_nodes(node) if not isinstance(child, ast.Dict)]

    def readers(self) -> tuple[set[str], set[str]]:
        """The count names and the keys read, through the keys read (to a fixpoint)."""
        read = self.read | (self.forwarded & self.bare)
        keys, frontier = set(self.read_keys), list(self.read_keys)
        while frontier:
            attributes, more = self.depends.get(frontier.pop(), (set(), set()))
            read |= attributes
            frontier += more - keys
            keys |= more
        return read, keys

    def unread(self) -> list[tuple]:
        """``(finding, why)`` of each count and key nothing reads, and of each
        shadowed packet-path count."""
        read, keys = self.readers()
        found, named, first = [], set(), {}
        for count in sorted(self.counts, key=lambda c: (c.path, c.line)):
            if count.qualname in named:
                continue
            named.add(count.qualname)
            if count.name not in read:
                found.append((count, UNREAD))
            elif count.owner in PACKET_PATH:
                other = first.setdefault(count.name, count.owner)
                if other != count.owner:
                    shadow = f"{count.name} (named like {other}.{count.name})"
                    found.append((
                        Count(count.owner, shadow, count.path, count.line),
                        "is no count of its own: a read of either vouches for both, so rename one",
                    ))
        found += [(key, UNREAD) for key in dict.fromkeys(self.keys) if key.name not in keys]
        return sorted(found, key=lambda f: (f[0].path, f[0].line))


class ReadersRule:
    """Flag each count and key only the tests read, and each ``Counter`` perf/ does not pin."""

    rule_id = "R14"
    title = "every count and report key has a reader; a Counter only where perf/ reads .value"

    def check_program(self, program: Program) -> Findings:
        tally = Tally(list(program.modules.values()))
        findings = [
            Violation(
                self.rule_id, finding.path, finding.line, f"{finding.qualname} {why}",
                finding.qualname,
            )
            for finding, why in tally.unread()
        ]
        findings += [
            Violation(
                self.rule_id, path, line,
                f"{name} = Counter(...) is not one perf/ reads through .value: make it a plain int",
            )
            for name, path, line in sorted(tally.counters)
        ]
        if PIN_READER in program.modules:
            findings += self._unbuilt_pins(program, COUNTER_PINS - tally.pinned)
        judged = {count.qualname for count in tally.counts} | {key.qualname for key in tally.keys}
        return Findings(findings, judged)

    def _unbuilt_pins(self, program: Program, pins) -> list[Violation]:
        """A pin no ``Counter(...)`` is built for, on its line of this module."""
        here = Path(__file__).resolve()
        rel_path = here.relative_to(program.root.resolve()).as_posix()
        lines = here.read_text(encoding="utf-8").splitlines()
        return [
            Violation(
                self.rule_id, rel_path,
                next((n for n, text in enumerate(lines, 1) if f'"{pin}"' in text), 1),
                f"{pin} is pinned and no Counter is built for it: drop the pin",
            )
            for pin in sorted(pins)
        ]
