"""Every option of the library has a setter somewhere in the repository.

A defaulted parameter of a public entry point is an option: a value a
caller may choose.  One that no call in the repository passes has never
run in any workload, benchmark or test, so it is a constant in
disguise, and each one doubles the configurations nobody covers.  This
check parses every ``.py`` file under ``src/``, ``benchmarks/``,
``examples/``, ``perfbench/`` and ``tests/`` and requires each
defaulted parameter of the public functions, the public methods and the
``__init__`` of the public classes in the library packages below to be
passed, by keyword or by position, at some call that names the
callable.  These call forms resolve:

* ``f(...)`` and ``mod.f(...)`` (and ``obj.method(...)``) by the last
  name;
* ``Class(...)`` to ``Class.__init__``, or to the ``__init__`` it
  inherits;
* ``cls(...)`` inside a class body to that class's ``__init__``;
* ``super().__init__(...)`` to the ``__init__`` of the named bases.

What a call spreads with ``*args`` or ``**kwargs`` is invisible to the
scan; only the positions before the first ``*args`` and the named
keywords count.  A call that passes the default itself sets nothing: an
argument that is the default's own expression (the same literal, or the
same constant name) or a literal equal to the module-level constant the
default names, such as ``channel=0`` for ``channel=UP_CHANNEL``, does not
count.  A parameter the scan cannot see set, such as one passed through
a variable or a forwarded ``**kwargs``, goes in ``ALLOWED`` with the
reason.
"""

import ast
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SCANNED = ("src", "benchmarks", "examples", "perfbench", "tests")
LIBRARY = (
    "core",
    "radio",
    "workloads",
    "service",
    "baselines",
    "vector",
    "analysis",
    "queueing",
    "graphs",
    "scenario",
)

#: (callable, parameter) pairs the scan cannot see set, with the reason.
ALLOWED = {
    ("repro.vector.backend.resolve_backend", "_requested"): (
        "its one caller, perfbench/run.py, passes the default \"auto\"; "
        "perfbench changes only with the benchmark it defines"
    ),
}


def _sources():
    for top in SCANNED:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _is_library(path):
    rel = path.relative_to(ROOT).parts
    return rel[:2] == ("src", "repro") and len(rel) > 3 and rel[2] in LIBRARY


def _base_names(cls):
    names = []
    for base in cls.bases:
        if isinstance(base, ast.Name):
            names.append(base.id)
        elif isinstance(base, ast.Attribute):
            names.append(base.attr)
    return names


def _defaulted(fn, bound):
    """Defaulted parameters of *fn* as ``(name, position or None, default)``.

    *bound* drops the leading ``self``/``cls`` from the positions.
    """
    positional = [a.arg for a in fn.args.posonlyargs + fn.args.args]
    if bound:
        positional = positional[1:]
    first = len(positional) - len(fn.args.defaults)
    out = [
        (name, i, fn.args.defaults[i - first])
        for i, name in enumerate(positional)
        if i >= first
    ]
    out += [
        (a.arg, None, d)
        for a, d in zip(fn.args.kwonlyargs, fn.args.kw_defaults)
        if d is not None
    ]
    return out


def _constants(trees):
    """``{name: value}`` for each library module-level ``NAME = literal``
    whose every such assignment binds the same value."""
    values = defaultdict(set)
    for path, tree in trees:
        if not _is_library(path):
            continue
        for node in tree.body:
            if (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and isinstance(node.value, ast.Constant)
            ):
                value = node.value.value
                values[node.targets[0].id].add((type(value), value))
    return {name: next(iter(v)) for name, v in values.items() if len(v) == 1}


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _passes_default(arg, default, constants):
    """Whether the argument *arg* is the parameter's own *default*."""
    if ast.dump(arg) == ast.dump(default):
        return True
    name = _name(default)
    if name is not None and name == _name(arg):
        return True

    def literal(node):
        if isinstance(node, ast.Constant):
            return (type(node.value), node.value)
        return constants.get(_name(node))

    value = literal(default)
    return value is not None and value == literal(arg)


def _is_static(fn):
    return any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in fn.decorator_list
    )


def _definitions(trees):
    """``{key: [(label, [(param, position)])]}`` for the library's options.

    A function or method is keyed by its name, an ``__init__`` by its
    class's name.
    """
    defs = defaultdict(list)
    for path, tree in trees:
        if not _is_library(path):
            continue
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    params = _defaulted(node, bound=False)
                    if params:
                        defs[node.name].append((f"{module}.{node.name}", params))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if not isinstance(item, ast.FunctionDef):
                        continue
                    if item.name == "__init__":
                        key = node.name
                    elif item.name.startswith("_"):
                        continue
                    else:
                        key = item.name
                    params = _defaulted(item, bound=not _is_static(item))
                    if params:
                        label = f"{module}.{node.name}.{item.name}"
                        defs[key].append((label, params))
    return defs


class _Calls(ast.NodeVisitor):
    """Records ``key -> [(positional args, {keyword: arg})]`` for every
    call; the positional args stop at the first ``*args``."""

    def __init__(self, bases):
        self.bases = bases
        self.calls = defaultdict(list)
        self._classes = []

    def visit_ClassDef(self, node):
        self._classes.append(node)
        self.generic_visit(node)
        self._classes.pop()

    def visit_Call(self, node):
        self.generic_visit(node)
        positional = []
        for arg in node.args:
            if isinstance(arg, ast.Starred):
                break
            positional.append(arg)
        shape = (
            positional,
            {k.arg: k.value for k in node.keywords if k.arg is not None},
        )
        func = node.func
        if isinstance(func, ast.Name):
            if func.id == "cls" and self._classes:
                self._record(self._classes[-1].name, shape)
            else:
                self._record(func.id, shape)
        elif isinstance(func, ast.Attribute):
            target = func.value
            if (
                func.attr == "__init__"
                and isinstance(target, ast.Call)
                and isinstance(target.func, ast.Name)
                and target.func.id == "super"
                and self._classes
            ):
                for base in _base_names(self._classes[-1]):
                    self._record(base, shape)
            else:
                self._record(func.attr, shape)

    def _record(self, name, shape):
        # A class without its own ``__init__`` is built by its bases'.
        seen = set()
        todo = [name]
        while todo:
            key = todo.pop()
            if key in seen:
                continue
            seen.add(key)
            self.calls[key].append(shape)
            todo.extend(self.bases.get(key, ()))


def _class_bases(trees):
    """``{class: bases}`` for every class with no ``__init__`` of its own."""
    bases = {}
    for _, tree in trees:
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef) and not any(
                isinstance(item, ast.FunctionDef) and item.name == "__init__"
                for item in node.body
            ):
                bases[node.name] = _base_names(node)
    return bases


def option_surface():
    """``(options, unset)``: every in-scope defaulted parameter as
    ``(label, param)``, and those no call sets."""
    trees = list(_sources())
    calls = _Calls(_class_bases(trees))
    for _, tree in trees:
        calls.visit(tree)
    constants = _constants(trees)
    options, unset = [], []
    for key, entries in _definitions(trees).items():
        shapes = calls.calls.get(key, [])
        for label, params in entries:
            for name, position, default in params:
                options.append((label, name))
                passed = [keywords.get(name) for _, keywords in shapes]
                if position is not None:
                    passed += [
                        args[position] for args, _ in shapes
                        if position < len(args)
                    ]
                set_somewhere = any(
                    arg is not None
                    and not _passes_default(arg, default, constants)
                    for arg in passed
                )
                if not set_somewhere:
                    unset.append((label, name))
    return sorted(options), sorted(unset)


def test_every_option_has_a_setter():
    options, unset = option_surface()
    missing = [pair for pair in unset if pair not in ALLOWED]
    assert not missing, (
        "defaulted parameters that no call in the repository passes "
        "(make each a constant or a derived value, or add its caller):\n"
        + "\n".join(f"  {label}({name})" for label, name in missing)
    )
    for pair, reason in ALLOWED.items():
        assert pair in options, f"{pair} is no longer an option"
        assert pair in unset, f"{pair} now has a setter the scan sees"
        assert reason.strip(), f"{pair} needs a reason"
