"""R13 — every keyword and field has a second value outside the tests.

A setting only a test sets keeps a branch alive that no workload runs.
A value counts where a call that reaches the definition passes one
other than the default, by name, through a forwarder or an attribute
store; the full matching rules are in ``docs/ANALYSIS.md``.  A finding
is keyed by its callable, a constructor's by its class.
"""

from __future__ import annotations

import ast
from typing import NamedTuple, Optional

from tools.analysis.core import (
    PRODUCT, Findings, ParsedModule, Program, Violation, base_names, callee,
)


class Settable(NamedTuple):
    """A defaulted parameter, or an ``__init__`` field with a default."""

    owner: str  # the function's qualname; a constructor's is its class's
    param: str
    default: ast.expr
    path: str
    line: int

    def __str__(self) -> str:
        return f"{self.owner}({self.param}={ast.unparse(self.default)})"


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


class Calls:
    """Every callable, call and attribute store of some modules, read by AST.

    The callables of ``src/repro`` are the ones judged.
    """

    def __init__(self, modules: list[ParsedModule]):
        self.classes: dict[str, list[ast.ClassDef]] = {}
        self.places: dict[int, tuple[str, str]] = {}  # id(ClassDef) -> (qualname, path)
        for module in modules:
            self._classes(module.tree.body, module.rel_path, "")
        self.signatures: list[Signature] = []
        self.by_function: dict[int, Signature] = {}
        self.by_arg: dict[int, Optional[Settable]] = {}
        self.calls: list[Call] = []
        self.stores: list[Store] = []
        self._fields: dict[int, dict] = {}
        self._through: list[tuple] = []  # calls of a parameter: (function, name, Call)
        for module in modules:
            self._visit(module.tree.body, module.rel_path, "", (), None,
                        module.rel_path.startswith(PRODUCT))
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
        return Call(frozenset(names), *call[1:])

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
        """Every settable value judged, in file order."""
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
        """Every settable some call or store gives a second value."""
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


class SecondValuesRule:
    """Flag each defaulted parameter or field of ``src/repro`` that keeps its default."""

    rule_id = "R13"
    title = "every keyword and field has a second value outside the tests"

    def check_program(self, program: Program) -> Findings:
        calls = Calls(list(program.modules.values()))
        judged = calls.judged()
        passing = calls.second_values()
        findings = [
            Violation(
                self.rule_id, settable.path, settable.line,
                f"{settable} gets no second value outside the tests: make it a constant "
                "and delete what only the other values reached, or give it its caller",
                settable.owner,
            )
            for settable in judged if settable not in passing
        ]
        return Findings(findings, {settable.owner for settable in judged})
