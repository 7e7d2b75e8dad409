"""Every keyword has a second value, every count and report key a reader.

A setting that only a test sets keeps a branch alive that no workload
runs.  This tripwire reads the sources in ``src/``, ``perf/``,
``benchmarks/``, ``examples/`` and ``tools/`` (not its lint fixtures;
by AST, nothing is imported from them) and requires every defaulted
parameter and every ``__init__`` field with a default in ``src/repro``
to get a value other than its default at one of them, outside its own
body.

A value counts where a call that reaches the definition passes it: by
keyword or by position, through ``replace(...)``, through a
``**dict(...)`` or a ``**kwargs`` forwarder, or as an attribute store
``obj.name = value``.  A call reaches a definition by name: a class by
its own name and those of the subclasses its constructor builds,
``super().__init__`` the base class, and a call of a parameter the
callables passed as that parameter.  A keyword whose name merely
matches one on another callable does not count, and neither does a
value equal to the default.  A bare parameter of the enclosing function
with the same default counts only if that parameter gets a second value
itself (resolved to a fixpoint).  Matching is by name, so the scan is
approximate.  A nested function's ``_name=value`` binds a value where
it is defined and is not judged.  ``KEPT`` lists the few settables that
stay, keyed by callable: a test seam, a fault model or a protocol
surface, each with its reason.

A count is the same kind of cost on the hot paths: it is incremented
whether anyone looks or not.  A count is an attribute ``src/repro`` adds
to (``x.name += n``, ``x.name.value += n`` or ``x.name.increment(n)``,
through ``self`` or another object), and each must be loaded somewhere
in the same directories.  A load in a ``stats()`` / ``summary()`` /
``__repr__`` / ``__str__`` body is no read, nor is an increment's, nor
one passed on under its own name (``name=x.name``) unless a bare
``name`` is loaded somewhere.  A report key, a string key of the dict a
``stats()`` / ``summary()`` builds, is read where its literal is a
subscript or a ``.get()`` argument, or an element of a literal tuple,
list or dict that such a subscript iterates in the same module; a read
key makes what its value loads read.  Matching is by name, so a
collision can keep a count or key but never delete one; two node, port,
link, host, switch or channel classes may not give a count one name (a
read of ``Port.tx_bytes`` would vouch for a ``Link.tx_bytes`` nobody
reads).  A ``Counter`` is built only for the attributes ``perf/``
reads through ``.value``; every other count is a plain ``int``.

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
import functools
import re
from pathlib import Path
from typing import NamedTuple, Optional

import pytest

from tools.reach import Definition, definitions_in
from tools.reach_accepted import ACCEPTED, READING_LIMIT

REPO_ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "perf", "benchmarks", "examples")

def callee(call: ast.Call) -> str:
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


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


# ----------------------------------------------------------------------
# Settable values
# ----------------------------------------------------------------------

#: Where a second value counts: the scanned directories and the repo's
#: tools, the lint's test data aside.  Settables are judged in ``src/repro``.
VALUE_SOURCES, SETTABLES_IN = (*SCANNED, "tools"), "src/repro/"


class Settable(NamedTuple):
    """A defaulted parameter, or an ``__init__`` field with a default."""

    owner: str  # the function's qualname; a constructor's is its class's
    param: str
    default: ast.expr
    path: str
    line: int

    def __str__(self) -> str:
        return f"{self.owner}({self.param}={ast.unparse(self.default)}) ({self.path}:{self.line})"


class Signature(NamedTuple):
    """A callable as its callers reach it: by any of its names."""

    names: frozenset
    positional: tuple  # the parameters a caller fills by position, in order
    params: dict  # parameter -> its Settable, or None where it has no default
    constructor: Optional[str]  # the class an ``__init__`` or a record builds
    path: str
    first: int  # its own body: a call there does not count
    last: int
    judged: bool


class Scope(NamedTuple):
    """Where a value is written: file, enclosing functions (outermost first), class."""

    path: str
    functions: tuple
    cls: Optional[ast.ClassDef]


class Call(NamedTuple):
    names: frozenset  # REPLACE for ``replace()`` / ``._replace()``: fields by name
    args: tuple
    keywords: tuple
    scope: Scope
    line: int


class Store(NamedTuple):
    """``x.attr = value``; ``value`` is None where it is unknown (``+=``, unpacking)."""

    attr: str
    value: Optional[ast.expr]
    scope: Scope
    on_self: bool


REPLACE_NAME = "<replace>"
REPLACE = frozenset({REPLACE_NAME})
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def definitions_under(statements):
    """The functions and classes among ``statements``, in compound statements too,
    not in each other."""
    for node in statements:
        if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
            yield node
        else:
            for body in ("body", "orelse", "finalbody", "handlers", "cases"):
                yield from definitions_under(getattr(node, body, ()))


def decorator_names(node) -> set[str]:
    targets = (d.func if isinstance(d, ast.Call) else d for d in node.decorator_list)
    return {t.id if isinstance(t, ast.Name) else getattr(t, "attr", "") for t in targets}


def is_record(node: ast.ClassDef) -> bool:
    """A dataclass or a ``NamedTuple``: its annotated fields are its parameters."""
    return "dataclass" in decorator_names(node) or "NamedTuple" in base_names(node)


def is_kw_only(node: ast.ClassDef) -> bool:
    return any(
        k.arg == "kw_only" and isinstance(k.value, ast.Constant) and k.value.value
        for d in node.decorator_list if isinstance(d, ast.Call) for k in d.keywords
    )


def own_fields(node: ast.ClassDef):
    """``(name, default or None, line)`` of each ``__init__`` field a record declares."""
    for statement in node.body:
        if not (isinstance(statement, ast.AnnAssign) and isinstance(statement.target, ast.Name)):
            continue
        if "ClassVar" in ast.unparse(statement.annotation):
            continue
        default = statement.value
        if isinstance(default, ast.Call) and callee(default).endswith("field"):
            options = {k.arg: k.value for k in default.keywords}
            init = options.get("init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = options.get("default", default if "default_factory" in options else None)
        yield statement.target.id, default, statement.lineno


def all_args(function) -> list[ast.arg]:
    args = function.args
    return [
        arg for arg in (*args.posonlyargs, *args.args, args.vararg, *args.kwonlyargs, args.kwarg)
        if arg is not None
    ]


def defaults_of(function) -> dict[str, Optional[ast.expr]]:
    """Every named parameter's default, or None."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    defaults = dict.fromkeys((arg.arg for arg in positional), None)
    for arg, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        defaults[arg.arg] = default
    for arg, default in zip(args.kwonlyargs, args.kw_defaults):
        defaults[arg.arg] = default
    return defaults


def same_value(a: ast.expr, b: ast.expr) -> bool:
    """Whether two expressions are the same value: equal literals, or the same name."""
    try:
        x, y = ast.literal_eval(a), ast.literal_eval(b)
    except (ValueError, TypeError, SyntaxError):
        pass
    else:
        numbers = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
        return x == y and (numbers or type(x) is type(y))
    if all(isinstance(n, (ast.Name, ast.Attribute)) for n in (a, b)):
        # ``DEFAULT`` and ``module.DEFAULT`` name one constant.
        last = [n.id if isinstance(n, ast.Name) else n.attr for n in (a, b)]
        return last[0] == last[1]
    return ast.unparse(a) == ast.unparse(b)


class Program:
    """Every callable, call and attribute store of some sources, read by AST.

    ``trees`` maps a repo-relative path to its parsed module; the
    callables of the paths under ``judged`` are the ones judged.
    """

    def __init__(self, trees: dict[str, ast.AST], judged: str = SETTABLES_IN):
        self.classes: dict[str, list[ast.ClassDef]] = {}
        self.places: dict[int, tuple[str, str]] = {}  # id(ClassDef) -> (qualname, path)
        for path, tree in trees.items():
            self._classes(tree.body, path, "")
        self.signatures: list[Signature] = []
        self.by_function: dict[int, Signature] = {}
        self.by_arg: dict[int, Optional[Settable]] = {}
        self.calls: list[Call] = []
        self.stores: list[Store] = []
        self._fields: dict[int, dict] = {}
        self._through: list[tuple] = []  # calls of a parameter: (function, name, Call)
        for path, tree in trees.items():
            self._visit(tree.body, path, "", (), None, path.startswith(judged))
        self.reaching: dict[str, list[Call]] = {}
        self._index(self.calls)
        passed_in = [self._passed_in(*through) for through in self._through]
        self.calls += passed_in
        self._index(passed_in)

    def _index(self, calls) -> None:
        for call in calls:
            for name in call.names:
                self.reaching.setdefault(name, []).append(call)

    def _passed_in(self, function, param: str, call: Call) -> Call:
        """A call of a parameter reaches the callables its callers pass as it."""
        signature = self.by_function[id(function)]
        names = {
            value.id if isinstance(value, ast.Name) else value.attr
            for outer in self.calls_of(signature)
            for name, value in self.arguments(outer, signature)
            if name == param and isinstance(value, (ast.Name, ast.Attribute))
        }
        return call._replace(names=frozenset(names))

    # -- classes, by name ---------------------------------------------------

    def _classes(self, body, path, prefix):
        for node in definitions_under(body):
            if isinstance(node, ast.ClassDef):
                self.classes.setdefault(node.name, []).append(node)
                self.places[id(node)] = (prefix + node.name, path)
                self._classes(node.body, path, prefix + node.name + ".")
            elif isinstance(node, FUNCTIONS):
                self._classes(node.body, path, prefix + node.name + ".")

    def builds_itself(self, node: ast.ClassDef) -> bool:
        return is_record(node) or any(
            isinstance(item, FUNCTIONS) and item.name == "__init__" for item in node.body
        )

    def constructor_names(self, node: ast.ClassDef) -> frozenset:
        """The class, and each subclass that is built by the class's constructor."""
        names, frontier = {node.name}, [node.name]
        while frontier:
            base = frontier.pop()
            for nodes in self.classes.values():
                for sub in nodes:
                    if base in base_names(sub) and sub.name not in names and not self.builds_itself(sub):
                        names.add(sub.name)
                        frontier.append(sub.name)
        return frozenset(names)

    def ancestors(self, name: str) -> set[str]:
        seen, frontier = {name}, [name]
        while frontier:
            for node in self.classes.get(frontier.pop(), ()):
                for base in base_names(node) - seen:
                    seen.add(base)
                    frontier.append(base)
        return seen

    def fields(self, node: ast.ClassDef) -> dict:
        """A record's ``__init__`` fields, inherited ones first: name -> Settable or None."""
        if id(node) not in self._fields:
            self._fields[id(node)] = {}  # a cycle of names ends here
            found = {}
            for base in base_names(node):
                for parent in self.classes.get(base, ()):
                    if is_record(parent):
                        found.update(self.fields(parent))
            qualname, path = self.places[id(node)]
            for name, default, line in own_fields(node):
                found[name] = default and Settable(qualname, name, default, path, line)
            self._fields[id(node)] = found
        return self._fields[id(node)]

    # -- the walk ---------------------------------------------------------

    def _visit(self, body, path, prefix, functions, cls, judged, in_class=None):
        """``cls`` is the enclosing class; ``in_class`` the one whose body this is."""
        for node in body:
            if isinstance(node, ast.ClassDef):
                if is_record(node):
                    fields = self.fields(node)
                    self.signatures.append(Signature(
                        self.constructor_names(node),
                        () if is_kw_only(node) else tuple(fields), fields, node.name,
                        path, node.lineno, node.lineno, judged,
                    ))
                self._note(node.decorator_list, Scope(path, functions, cls))
                self._visit(node.body, path, prefix + node.name + ".", functions, node, judged, node)
            elif isinstance(node, FUNCTIONS):
                self._function(node, path, prefix, functions, cls, judged, in_class)
                self._visit(node.body, path, prefix + node.name + ".", functions + (node,), cls, judged)
            else:
                self._note([node], Scope(path, functions, cls))
                nested = list(definitions_under([node]))
                self._visit(nested, path, prefix, functions, cls, judged, in_class)

    def _function(self, node, path, prefix, functions, cls, judged, in_class):
        constructor = in_class is not None and node.name == "__init__"
        owner = prefix[:-1] if constructor else prefix + node.name
        lines = {arg.arg: arg.lineno for arg in all_args(node)}
        params = {
            name: default and Settable(owner, name, default, path, lines[name])
            for name, default in defaults_of(node).items()
            # A nested function's ``_name=value`` binds a value when it is
            # defined (the loop-closure idiom): no caller is meant to pass it.
            if not (functions and name.startswith("_"))
        }
        for arg in all_args(node):
            self.by_arg[id(arg)] = params.get(arg.arg)
        bound = in_class is not None and "staticmethod" not in decorator_names(node)
        positional = [arg.arg for arg in (*node.args.posonlyargs, *node.args.args)]
        dunder = node.name.startswith("__") and node.name.endswith("__")
        signature = Signature(
            self.constructor_names(in_class) if constructor else frozenset({node.name}),
            tuple(positional[1:] if bound else positional), params,
            in_class.name if constructor else None, path, node.lineno, node.end_lineno,
            judged and (constructor or not dunder),
        )
        self.signatures.append(signature)
        self.by_function[id(node)] = signature
        outer = Scope(path, functions, cls)
        self._note([*node.decorator_list, *node.args.defaults, *node.args.kw_defaults], outer)

    def _note(self, roots, scope: Scope) -> None:
        """Record the calls and attribute stores under ``roots``, nested definitions aside."""
        stack = [root for root in roots if root is not None]
        while stack:
            node = stack.pop()
            if isinstance(node, (*FUNCTIONS, ast.ClassDef)):
                continue
            if isinstance(node, ast.Call):
                self._call(node, scope)
            elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                value = None if isinstance(node, ast.AugAssign) else node.value
                for target in targets:
                    unpacked = isinstance(target, (ast.Tuple, ast.List))
                    for item in target.elts if unpacked else [target]:
                        if isinstance(item, ast.Attribute):
                            self.stores.append(Store(
                                item.attr, None if unpacked else value, scope,
                                isinstance(item.value, ast.Name) and item.value.id == "self",
                            ))
            stack.extend(ast.iter_child_nodes(node))

    def _call(self, node: ast.Call, scope: Scope) -> None:
        func, args = node.func, tuple(node.args)
        receiver = getattr(func, "value", None)
        name = callee(node)
        if name in ("setattr", "__setattr__") and len(args) == 3:
            target, attr, value = args
            if isinstance(attr, ast.Constant) and isinstance(attr.value, str):
                on_self = isinstance(target, ast.Name) and target.id == "self"
                self.stores.append(Store(attr.value, value, scope, on_self))
            return
        if name == "_replace" or (name == "replace" and (
                isinstance(func, ast.Name)
                or isinstance(receiver, ast.Name) and receiver.id == "dataclasses")):
            names, args = REPLACE, args if name == "_replace" else args[1:]
        elif name == "__init__" and isinstance(receiver, ast.Call) and callee(receiver) == "super":
            names = frozenset(base_names(scope.cls)) if scope.cls is not None else frozenset()
        elif name == "__init__" and isinstance(receiver, ast.Name):
            names, args = frozenset({receiver.id}), args[1:]
        elif scope.cls is not None and (
                name == "cls" and isinstance(func, ast.Name)
                or isinstance(func, ast.Call) and callee(func) == "type"):
            names = frozenset({scope.cls.name})
        elif isinstance(func, ast.Name) and scope.functions and any(
                arg.arg == name for arg in all_args(scope.functions[-1])):
            call = Call(frozenset(), args, tuple(node.keywords), scope, node.lineno)
            self._through.append((scope.functions[-1], name, call))
            return
        elif name:
            names = frozenset({name})
        else:
            return
        self.calls.append(Call(names, args, tuple(node.keywords), scope, node.lineno))

    # -- keywords, through forwarders --------------------------------------

    def keywords(self, keywords, scope: Scope, seen=frozenset()) -> list:
        """``(name, value or None, scope)`` of every keyword passed, ``**`` spread."""
        found = []
        for keyword in keywords:
            if keyword.arg is not None:
                found.append((keyword.arg, keyword.value, scope))
            else:
                found += self.spread(keyword.value, scope, seen)
        return found

    def spread(self, expr, scope: Scope, seen) -> list:
        """The keywords a ``**expr`` passes."""
        if isinstance(expr, ast.Dict):
            found = []
            for key, value in zip(expr.keys, expr.values):
                if key is None:
                    found += self.spread(value, scope, seen)
                elif isinstance(key, ast.Constant) and isinstance(key.value, str):
                    found.append((key.value, value, scope))
            return found
        if isinstance(expr, ast.Call) and callee(expr) == "dict":
            found = self.spread(expr.args[0], scope, seen) if expr.args else []
            return found + self.keywords(expr.keywords, scope, seen)
        function = scope.functions[-1] if scope.functions else None
        if function is None:
            return []
        if isinstance(expr, ast.Name):
            if function.args.kwarg is not None and expr.id == function.args.kwarg.arg:
                return self.forwarded(function, seen)
            local = self.local_dict(function, expr.id, scope, seen)
            if local is not None:
                return local
        return self.keys_passed_in(expr, function, seen)

    def local_dict(self, function, name: str, scope: Scope, seen) -> Optional[list]:
        """The keywords a local dict gathers: assigned, ``update``-d and subscripted."""
        found, bound = [], False
        for node in ast.walk(function):
            if isinstance(node, ast.Assign):
                for target in node.targets:
                    if isinstance(target, ast.Name) and target.id == name:
                        bound = True
                        found += self.spread(node.value, scope, seen)
                    elif (isinstance(target, ast.Subscript) and isinstance(target.value, ast.Name)
                            and target.value.id == name and isinstance(target.slice, ast.Constant)):
                        found.append((target.slice.value, node.value, scope))
            elif (isinstance(node, ast.Call) and callee(node) == "update"
                    and isinstance(node.func.value, ast.Name) and node.func.value.id == name):
                for arg in node.args:
                    found += self.spread(arg, scope, seen)
                found += self.keywords(node.keywords, scope, seen)
        return found if bound else None

    def forwarded(self, function, seen) -> list:
        """The keywords the calls of ``function`` pass beyond its named parameters."""
        if id(function) in seen:
            return []
        signature = self.by_function[id(function)]
        return [
            (name, value, scope)
            for call in self.calls_of(signature)
            for name, value, scope in self.keywords(call.keywords, call.scope, seen | {id(function)})
            if name not in signature.params
        ]

    def keys_passed_in(self, expr, function, seen) -> list:
        """``**dict(zip(names, values))``: the keys of the dicts the parameters behind it get.

        Their values are unknown, so each counts.
        """
        if id(function) in seen:
            return []
        read = {node.id for node in ast.walk(expr) if isinstance(node, ast.Name)}
        grew = True
        while grew:  # through the local assignments the expression reads
            grew = False
            for node in ast.walk(function):
                if isinstance(node, ast.Assign) and any(
                    isinstance(t, ast.Name) and t.id in read for t in node.targets
                ):
                    more = {n.id for n in ast.walk(node.value) if isinstance(n, ast.Name)} - read
                    read |= more
                    grew = grew or bool(more)
        signature = self.by_function[id(function)]
        seen = seen | {id(function)}
        return [
            (key, None, call.scope)
            for call in self.calls_of(signature)
            for param, value in self.arguments(call, signature, seen)
            if param in read and value is not None
            for key, _, _ in self.spread(value, call.scope, seen)
        ]

    # -- values ---------------------------------------------------------------

    def calls_of(self, signature: Signature) -> list[Call]:
        """The calls that reach ``signature``, those in its own body aside."""
        return [
            call
            for name in signature.names
            for call in self.reaching.get(name, ())
            if not (call.scope.path == signature.path and signature.first <= call.line <= signature.last)
        ]

    def arguments(self, call: Call, signature: Signature, seen=frozenset()):
        """``(parameter, value or None)`` of each argument ``call`` gives ``signature``."""
        for index, arg in enumerate(call.args):
            if isinstance(arg, ast.Starred):
                for name in signature.positional[index:]:
                    yield name, None
                break
            if index < len(signature.positional):
                yield signature.positional[index], arg
        for name, value, _ in self.keywords(call.keywords, call.scope, seen):
            if name in signature.params:
                yield name, value

    def judged(self) -> list[Settable]:
        """Every settable value the tripwire judges, in file order."""
        found = {
            settable: None
            for signature in self.signatures if signature.judged
            for settable in signature.params.values() if settable is not None
        }
        return sorted(found, key=lambda s: (s.path, s.line, s.param))

    def judge(self, settable: Settable, value, scope: Scope):
        """True when ``value`` is a second value, False when it is not, or the
        settable it is forwarded from: a bare parameter with the same default."""
        if value is None:
            return True
        if same_value(value, settable.default):
            return False
        if isinstance(value, ast.Name):
            for function in reversed(scope.functions):
                for arg in all_args(function):
                    if arg.arg == value.id:
                        source = self.by_arg.get(id(arg))
                        if source is not None and same_value(source.default, settable.default):
                            return source
                        return True
        return True

    def second_values(self) -> set[Settable]:
        """Every settable some call or store outside the tests gives a second value."""
        passing: set[Settable] = set()
        forwards: dict[Settable, set[Settable]] = {}

        def note(settable, value, scope):
            verdict = self.judge(settable, value, scope)
            if verdict is True:
                passing.add(settable)
            elif verdict is not False:
                forwards.setdefault(verdict, set()).add(settable)

        by_field: dict[str, list[Settable]] = {}
        for signature in self.signatures:
            if signature.constructor is not None:
                for name, settable in signature.params.items():
                    if settable is not None:
                        by_field.setdefault(name, []).append(settable)
        for call in self.reaching.get(REPLACE_NAME, ()):
            for name, value, scope in self.keywords(call.keywords, call.scope):
                for settable in by_field.get(name, ()):
                    note(settable, value, scope)
        for signature in self.signatures:
            for call in self.calls_of(signature):
                for name, value in self.arguments(call, signature):
                    if signature.params.get(name) is not None:
                        note(signature.params[name], value, call.scope)
        for store in self.stores:
            for settable in by_field.get(store.attr, ()):
                if store.on_self:
                    cls = store.scope.cls
                    built = settable.owner.rpartition(".")[2]
                    if cls is None or built not in self.ancestors(cls.name):
                        continue
                    function = store.scope.functions[-1] if store.scope.functions else None
                    if cls.name == built and function is not None and function.name in (
                            "__init__", "__post_init__"):
                        continue
                note(settable, store.value, store.scope)
        frontier = list(passing)
        while frontier:
            for settable in forwards.get(frontier.pop(), ()):
                if settable not in passing:
                    passing.add(settable)
                    frontier.append(settable)
        return passing

    def findings(self) -> list[Settable]:
        """The judged settables nothing outside the tests gives a second value."""
        passing = self.second_values()
        return [settable for settable in self.judged() if settable not in passing]


@functools.cache
def repo_sources() -> tuple[Path, ...]:
    """Every ``.py`` file of the value sources, the lint's test data aside."""
    return tuple(
        path
        for directory in VALUE_SOURCES
        for path in sorted((REPO_ROOT / directory).rglob("*.py"))
        if not relative(path).startswith(TOOL_FIXTURES + "/")
    )


@functools.cache
def repo_program() -> Program:
    return Program({relative(path): parsed(path) for path in repo_sources()})


#: The settables that keep their default, keyed by callable, and the
#: counts only the tests read, keyed ``Class.count``: at most
#: :data:`KEPT_LIMIT`, each ``(category, reason)``; a count's reason
#: names the test that reads it.  ``seam``: a test substitute (a clock,
#: a size tier-1 shrinks); ``fault``: a fault model ROADMAP items 2 and
#: 19 name; ``surface``: a field of a protocol or record the system
#: models.  An entry whose callable has a second value now, or whose
#: count a reader, fails, so the list can only shrink.
KEPT: dict[str, tuple[str, str]] = {
    "QueryEngine.query_both_ends": (
        "seam",
        "the engine's synchronous pair query: the tests' explicit now= clock, and the "
        "from_node / interceptors QueryClient.query takes; perf/tracing.py pins it",
    ),
    "QueryEngine.query_both_ends_async": (
        "seam", "an explicit now= clock for the engine tests; the controller asks at sim.now",
    ),
    "QueryEngine.adopt_push_state": (
        "seam", "an explicit now= clock for the failover tests; a cluster adopts at sim.now",
    ),
    "QueryClient.query_both_ends": (
        "seam",
        "the client's pair query the engine tests compare the engine with; "
        "perf/tracing.py pins it",
    ),
    "churn_soak": ("seam", "the churn soak's sizes, which tier-1 shrinks"),
    "conficker_detection": ("seam", "the telemetry soak's sizes, which tier-1 shrinks"),
    "ScenarioSpec": (
        "seam",
        "a matrix cell's sizes (servers, duration) tier-1 shrinks, and sanitize, "
        "which its sanitized end-to-end run turns on",
    ),
    "Link": ("fault", "loss_filter: a lossy link (ROADMAP item 2)"),
    "OpenFlowSwitch": (
        "fault", "table_capacity: a full table (item 2); fail_mode: a switch cut off from "
        "its controller failing open",
    ),
    "IdentPPDaemon": ("fault", "push_capable: a daemon too old to push (item 2)"),
    "FlowTable": ("fault", "capacity: a full table and its LRU eviction (item 2)"),
    "FlowTable.evictions": (
        "fault", "what the capacity= seam evicted; "
        "tests/test_openflow_match_table.py::test_lru_eviction_at_capacity reads it",
    ),
    "Simulator.enable_sanitizer": (
        "fault", "perturb_ties: same-instant events served in another legal order (item 19)",
    ),
    "EndHost.mark_compromised": ("fault", "superuser: a host compromised as root (§5)"),
    "Application": (
        "fault", "contents: a trojaned binary, same name and path, another exe-hash (§5)",
    ),
    "Match": ("surface", "OpenFlow 1.0 match fields no installed path constrains"),
    "Packet": ("surface", "Ethernet and VLAN headers, payload and the capture's metadata"),
    "PacketTrace.dropped": (
        "surface", "a capture's drop count, as pcap reports one: records the ring evicted; "
        "tests/test_packet_capture.py::test_overflow_evicts_oldest_first_and_counts_it reads it",
    ),
    "Packet.tcp": ("surface", "a TCP packet's payload, as Packet takes it"),
    "PacketOut": ("surface", "OpenFlow packet-out data: a packet that is not buffered"),
    "ResponseDocument": ("surface", "an ident++ response body read back in sections"),
    "parse_response_payload": (
        "surface", "the flow a parsed ident++ response answers, when the wire omits it",
    ),
}
KEPT_CATEGORIES = ("seam", "fault", "surface")
KEPT_LIMIT = 25


def unkept(findings: list[Settable], kept) -> list[Settable]:
    return [finding for finding in findings if finding.owner not in kept]


def stale_kept(kept, findings: list[Settable], judged: list[Settable], tally=None) -> list[str]:
    """Kept callables that judge nothing or whose every settable has a second
    value now, and kept counts that are gone or have a reader now."""
    owners = {settable.owner for settable in judged}
    counts = tally.count_qualnames() if tally is not None else set()
    named = {finding.owner for finding in findings} | {
        finding.qualname for finding in (tally.findings() if tally is not None else ())
        if isinstance(finding, Count)
    }
    stale = []
    for entry in kept:
        if entry in owners and entry not in named:
            stale.append(f"{entry} (has a second value now)")
        elif entry in counts and entry not in named:
            stale.append(f"{entry} (has a reader now)")
        elif entry not in owners | counts:
            stale.append(f"{entry} (no such settable or count)")
    return stale


def settable_report(findings: list[Settable], judged: list[Settable], kept) -> str:
    """One line per finding not kept, then the count."""
    lines = [str(finding) for finding in unkept(findings, kept)]
    lines.append(f"{len(judged)} settable values, {len(findings)} without a second value")
    return "\n".join(lines)


def test_every_settable_value_has_a_second_value_outside_the_tests():
    program = repo_program()
    findings, judged = program.findings(), program.judged()
    report = settable_report(findings, judged, KEPT)
    print(report)
    assert not unkept(findings, KEPT), (
        f"settable values in {SETTABLES_IN} that nothing in {', '.join(VALUE_SOURCES)}/ "
        f"gives a second value:\n{report}\nMake each a constant and delete what only the "
        "other values reached, or give it its caller."
    )


def test_the_kept_list_is_short_and_current():
    assert len(KEPT) <= KEPT_LIMIT
    assert all(
        category in KEPT_CATEGORIES and reason.strip() for category, reason in KEPT.values()
    )
    program, tally = repo_program(), repo_tally()
    stale = stale_kept(KEPT, program.findings(), program.judged(), tally)
    assert not stale, f"kept entries to drop: {', '.join(stale)}"
    for count in tally.count_qualnames() & set(KEPT):
        test = re.search(r"tests/\S+\.py", KEPT[count][1])
        name = count.rpartition(".")[2]
        assert test and f".{name}" in (REPO_ROOT / test.group()).read_text(), (
            f"{count}: the reason names no test that reads it"
        )


PLANTED_SETTINGS = {
    "src/repro/planted.py": '''
from dataclasses import dataclass, field


@dataclass
class Record:
    size: int = 1
    label: str = ""
    color: str = "red"
    shade: str = "dark"
    tags: list = field(default_factory=list, init=False)


class Base:
    def __init__(self, depth=0, width=0):
        self.depth, self.width = depth, width


class Child(Base):
    def __init__(self):
        super().__init__(depth=3)


class Table:
    def __init__(self, capacity=None):
        self.capacity = capacity


class Config:
    def __init__(self, capacity=None):
        self.capacity = capacity


class Rule:
    def __init__(self, action, port=None, proto=None):
        self.action, self.port, self.proto = action, port, proto


def rule(action, **options):
    return Rule(action, **options)


def knob(value=1, flag=False, mode="a", *, level=0, only_tests=0):
    return knob(value, flag, mode, level=level + 1, only_tests=only_tests)


def forward(level=0):
    return knob(level=level)


def relay(depth=0):
    return chained(depth=depth)


def chained(depth=0):
    return depth
''',
    "tools/use.py": '''
from dataclasses import replace

knob(5, flag=True, mode="a")
forward(level=2)
relay()
record = replace(Record(), size=4)


def labelled(**overrides):
    settings = dict(label="x")
    settings.update(overrides)
    return Record(**settings)


labelled()
record.color = "blue"
Child()
Table(capacity=64)
rule("pass", port=80)
''',
}


@functools.cache
def planted_program() -> Program:
    return Program({path: ast.parse(source) for path, source in PLANTED_SETTINGS.items()})


def planted_findings() -> set[str]:
    return {f"{s.owner}({s.param})" for s in planted_program().findings()}


@pytest.mark.parametrize("rule, settable", [
    ("a keyword", "knob(flag)"),
    ("a positional argument", "knob(value)"),
    ("a replace()", "Record(size)"),
    ("a **dict(...) forwarder", "Record(label)"),
    ("a **kwargs forwarder", "Rule(port)"),
    ("an attribute store", "Record(color)"),
    ("super().__init__", "Base(depth)"),
    ("a forwarded parameter that passes", "knob(level)"),
])
def test_each_counting_rule_gives_a_second_value(rule, settable):
    assert settable not in planted_findings(), rule


def test_what_gives_no_second_value_is_named():
    assert planted_findings() == {
        "Record(shade)",  # nothing sets it
        "Base(width)",  # nothing sets it
        "Config(capacity)",  # only a Table(capacity=) call passes a capacity
        "Rule(proto)",  # the forwarder's callers pass no proto
        "knob(mode)",  # a value equal to the default does not count
        "knob(only_tests)",  # its own body passes it on, no caller does
        "relay(depth)",  # nothing passes it...
        "chained(depth)",  # ...so neither does the bare parameter relay forwards
    }


def test_a_knob_only_a_test_sets_is_named():
    # The tests are not among the sources: what only they pass is no value.
    program = Program({
        "src/repro/planted.py": ast.parse("def serve(port=80):\n    return port\n"),
        "examples/demo.py": ast.parse("serve()\n"),
    })
    assert [str(finding) for finding in program.findings()] == [
        "serve(port=80) (src/repro/planted.py:1)"
    ]
    assert settable_report(program.findings(), program.judged(), {}) == (
        "serve(port=80) (src/repro/planted.py:1)\n1 settable values, 1 without a second value"
    )


def test_a_stale_kept_entry_is_named():
    program = planted_program()
    kept = {"Record": ("surface", "a field"), "Child": ("seam", "x"), "Gone": ("fault", "y")}
    assert stale_kept(kept, program.findings(), program.judged()) == [
        "Child (no such settable or count)", "Gone (no such settable or count)",
    ]
    assert stale_kept({"Table": ("fault", "z")}, program.findings(), program.judged()) == [
        "Table (has a second value now)"
    ]
    assert "Record(shade" not in settable_report(program.findings(), program.judged(), kept)


# ----------------------------------------------------------------------
# Counts and report keys
# ----------------------------------------------------------------------

#: A report shows counts: a load in one of these bodies is no read, and a
#: key of the dict a ``stats()`` / ``summary()`` builds is read where its
#: literal is.
REPORTS = ("stats", "summary")
SHOWN_IN = (*REPORTS, "__repr__", "__str__")
#: The ``Counter``s ``perf/harness.py`` reads through ``.value``; every
#: other count is a plain ``int``.
COUNTER_PINS = frozenset({
    "OpenFlowSwitch.punts", "ControllerChannel.to_controller_messages",
    "ControllerChannel.to_switch_messages", "IdentPPDaemon.queries_answered",
})
#: The classes that count per packet or message: two may not give a count
#: one name (a read of ``Port.tx_bytes`` would vouch for ``Link.tx_bytes``).
PACKET_PATH = frozenset({"Node", "Port", "Link", "EndHost", "OpenFlowSwitch", "ControllerChannel"})
#: Calls that read an attribute named by a string.
NAMED_READS = ("getattr", "attrgetter")


class Count(NamedTuple):
    """An attribute ``src/repro`` adds to: ``x.name += n``, ``x.name.value += n``
    or ``x.name.increment(n)``."""

    owner: str  # the class that declares it, else the one whose code adds to it
    name: str
    path: str
    line: int

    @property
    def qualname(self) -> str:
        return f"{self.owner}.{self.name}"

    def __str__(self) -> str:
        return f"{self.qualname} ({self.path}:{self.line})"


class ReportKey(NamedTuple):
    """A string key of the dict a ``stats()`` / ``summary()`` builds."""

    report: str  # the report's qualname
    name: str
    path: str
    line: int

    @property
    def qualname(self) -> str:
        return f"{self.report}()[{self.name!r}]"

    def __str__(self) -> str:
        return f"{self.qualname} ({self.path}:{self.line})"


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


def scoped(tree: ast.AST):
    """``(node, class, shown)`` of every node under ``tree``: the enclosing
    class's qualname, and the :data:`SHOWN_IN` function whose body holds
    it, or None."""
    stack = [(child, "", None) for child in ast.iter_child_nodes(tree)]
    while stack:
        node, cls, shown = stack.pop()
        yield node, cls, shown
        if isinstance(node, ast.ClassDef):
            cls = f"{cls}.{node.name}" if cls else node.name
        elif isinstance(node, FUNCTIONS) and shown is None and node.name in SHOWN_IN:
            shown = node
        stack.extend((child, cls, shown) for child in ast.iter_child_nodes(node))


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


def iterated_keys(tree: ast.AST) -> set[str]:
    """The keys a subscript or ``.get()`` reads through a loop variable: the
    strings of the literal the loop iterates in the same module."""
    nodes = list(ast.walk(tree))
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


def imports_counter(tree: ast.AST) -> bool:
    """Whether ``Counter`` names the statistics module's, not ``collections``'."""
    return any(
        isinstance(node, ast.ImportFrom) and node.module != "collections"
        and any(alias.name == "Counter" for alias in node.names)
        for node in ast.walk(tree)
    )


class Tally:
    """Every count and report key of some sources, and every read of one, by AST.

    ``trees`` maps a repo-relative path to its parsed module; the counts
    and keys of the paths under ``judged`` are the ones judged.
    """

    def __init__(self, trees: dict[str, ast.AST], judged: str = SETTABLES_IN):
        self.counts: list[Count] = []
        self.keys: list[ReportKey] = []
        self.counters: list[str] = []  # each Counter() built outside the pins
        self.pinned: set[str] = set()  # the pins a Counter() is built for
        self.read: set[str] = set()  # attribute names loaded outside the reports
        self.read_keys: set[str] = set()  # keys read outside the reports
        self.bare: set[str] = set()  # names loaded as themselves
        self.forwarded: set[str] = set()  # ``name=x.name``: read where ``name`` is
        self.depends: dict[str, tuple[set, set]] = {}  # key -> (attributes, keys) its value reads
        declared: dict[str, list[str]] = {}  # attribute -> the classes that assign or declare it
        for path, tree in trees.items():
            if path.startswith(judged):
                self._declarations(tree, declared)
        for path, tree in trees.items():
            self._scan(path, tree, path.startswith(judged), declared)

    def _declarations(self, tree, declared) -> None:
        for node, cls, _ in scoped(tree):
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

    def _scan(self, path, tree, judged, declared) -> None:
        nodes = list(scoped(tree))
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
        counter = judged and imports_counter(tree)
        for node, cls, shown in nodes:
            if shown is not None:
                continue
            if judged and isinstance(node, FUNCTIONS) and node.name in REPORTS:
                self._report(node, f"{cls}.{node.name}" if cls else node.name, path)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                if id(node) in forwards:
                    self.forwarded.add(node.attr)
                elif id(node) not in receivers:
                    self.read.add(node.attr)
            elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                self.bare.add(node.id)
            if isinstance(node, ast.Call) and callee(node) in NAMED_READS:
                self.read.update(filter(None, map(string, node.args)))
            key = string(key_read(node))
            if key is not None:
                self.read_keys.add(key)
            if counter and isinstance(node, ast.Assign) and isinstance(node.value, ast.Call) and (
                    callee(node.value) == "Counter"):
                for target in node.targets:
                    name = f"{cls}.{getattr(target, 'attr', ast.unparse(target))}"
                    if name in COUNTER_PINS:
                        self.pinned.add(name)
                    else:
                        self.counters.append(f"{name} = Counter(...) ({path}:{node.lineno})")
        self.read_keys |= iterated_keys(tree)

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

    def findings(self) -> list:
        """Each count and key nothing reads, each shadowed packet-path count,
        then each ``Counter`` outside the pins."""
        read, keys = self.readers()
        found, named, first = [], set(), {}
        for count in sorted(self.counts, key=lambda c: (c.path, c.line)):
            if count.qualname in named:
                continue
            named.add(count.qualname)
            if count.name not in read:
                found.append(count)
            elif count.owner in PACKET_PATH:
                other = first.setdefault(count.name, count.owner)
                if other != count.owner:
                    found.append(count._replace(name=f"{count.name} (named like {other}.{count.name})"))
        found += [key for key in dict.fromkeys(self.keys) if key.name not in keys]
        return sorted(found, key=lambda f: (f.path, f.line)) + sorted(self.counters)

    def count_qualnames(self) -> set[str]:
        return {count.qualname for count in self.counts}


@functools.cache
def repo_tally() -> Tally:
    return Tally({relative(path): parsed(path) for path in repo_sources()})


def unkept_findings(findings: list, kept) -> list:
    return [finding for finding in findings if getattr(finding, "qualname", None) not in kept]


def tally_report(findings: list, tally: Tally, kept) -> str:
    """One line per finding not kept, then the counts."""
    lines = [str(finding) for finding in unkept_findings(findings, kept)]
    counts = len(tally.count_qualnames())
    keys = len({key.qualname for key in tally.keys})
    lines.append(
        f"{counts} counts and {keys} report keys, {len(findings) - len(tally.counters)} "
        f"without a reader; {len(tally.counters)} Counters outside the pins"
    )
    return "\n".join(lines)


def test_every_count_and_report_key_has_a_reader_outside_the_tests():
    tally = repo_tally()
    findings = tally.findings()
    report = tally_report(findings, tally, KEPT)
    print(report)
    assert not unkept_findings(findings, KEPT), (
        f"counts and report keys in {SETTABLES_IN} that nothing in {', '.join(VALUE_SOURCES)}/ "
        f"reads:\n{report}\nDelete each with its increments, or read it."
    )


def test_the_counters_are_the_ones_perf_reads_through_value():
    assert repo_tally().pinned == COUNTER_PINS


def test_the_byte_count_of_a_link_is_a_count():
    assert "Link.carried_bytes" in repo_tally().count_qualnames()


PLANTED_COUNTS = {
    "src/repro/planted.py": '''
from repro.netsim.statistics import Counter


class Port:
    def __init__(self):
        self.tx_bytes = 0
        self.rx_bytes = 0

    def send(self, size):
        self.tx_bytes += size
        self.rx_bytes += size


class Link:
    def __init__(self):
        self.tx_bytes = 0
        self.hops = 0
        self.carried_bytes = 0

    def transmit(self, size):
        self.tx_bytes += size
        self.hops += 1
        self.carried_bytes += size


class Entry:
    def __init__(self):
        self.uses = 0


class Table:
    def __init__(self):
        self.lookups = 0
        self.probes = 0
        self.sweeps = 0
        self.flushes = 0
        self.resets = 0
        self.drops = Counter("table.drops")

    def lookup(self, entry):
        self.lookups += 1
        self.probes += 1
        entry.uses += 1
        self.drops.value += 1

    def sweep(self):
        self.sweeps += 1
        self.flushes += 1
        self.resets += 1

    def stats(self):
        flushed = self.flushes
        return {"probes": self.probes, "flushes": flushed, "resets": self.resets, "spare": 0}

    def __repr__(self):
        return f"Table({self.sweeps})"
''',
    "tools/use.py": '''
print(table.lookups, port.tx_bytes, port.rx_bytes, link.tx_bytes, link.carried_bytes)
print(table.drops.value)
stats = table.stats()
print(stats["resets"])
for key in ("flushes",):
    print(stats.get(key))
''',
}


@functools.cache
def planted_tally() -> Tally:
    return Tally({path: ast.parse(source) for path, source in PLANTED_COUNTS.items()})


def planted_count_findings() -> list[str]:
    """Each finding's name: ``Class.count``, a key, or a ``Counter(...)`` construction."""
    return [
        finding.rpartition(" (")[0] if isinstance(finding, str) else finding.qualname
        for finding in planted_tally().findings()
    ]


@pytest.mark.parametrize("rule, finding", [
    ("a count read only inside its report", "Table.probes"),
    ("a count read only in __repr__", "Table.sweeps"),
    ("an obj.x += 1 through another object", "Entry.uses"),
    ("an unread int count on a link", "Link.hops"),
    ("two packet-path classes give a count one name", "Link.tx_bytes (named like Port.tx_bytes)"),
    ("a report key nothing reads", "Table.stats()['spare']"),
    ("a Counter( outside the pins", "Table.drops = Counter(...)"),
])
def test_each_unread_count_is_named(rule, finding):
    assert finding in planted_count_findings(), rule


@pytest.mark.parametrize("rule, count", [
    ("a report key read by subscript", "resets"),
    ("a key read through an iterated literal tuple", "flushes"),
    ("an attribute read as itself", "lookups"),
    ("a Counter read through .value", "drops"),
])
def test_each_read_keeps_its_count(rule, count):
    assert f"Table.{count}" not in planted_count_findings(), rule
    assert not [f for f in planted_count_findings() if f.endswith(f"[{count!r}]")], rule


def test_what_has_no_reader_is_named_with_its_place():
    tally = planted_tally()
    assert tally_report(tally.findings(), tally, {"Table.sweeps": ("seam", "x")}) == (
        "Link.tx_bytes (named like Port.tx_bytes) (src/repro/planted.py:22)\n"
        "Link.hops (src/repro/planted.py:23)\n"
        "Table.probes (src/repro/planted.py:43)\n"
        "Entry.uses (src/repro/planted.py:44)\n"
        "Table.stats()['probes'] (src/repro/planted.py:54)\n"
        "Table.stats()['spare'] (src/repro/planted.py:54)\n"
        "Table.drops = Counter(...) (src/repro/planted.py:39)\n"
        "12 counts and 4 report keys, 7 without a reader; 1 Counters outside the pins"
    )


def test_a_stale_kept_count_is_named():
    kept = {"Table.sweeps": ("seam", "x"), "Table.lookups": ("seam", "y"), "Gone.count": ("fault", "z")}
    assert stale_kept(kept, [], [], planted_tally()) == [
        "Table.lookups (has a reader now)", "Gone.count (no such settable or count)",
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
