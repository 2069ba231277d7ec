"""Every option of the program has a setter outside the tests.

A defaulted parameter of a public entry point is an option: a value a
caller may choose.  So is a defaulted field of a frozen config
dataclass, which its generated ``__init__`` takes.  One that no
workload, benchmark, example or other library code passes has never
run outside a test, so it is a constant in disguise, and each one
doubles the configurations nobody covers.  A test is not a setter: a
value only a test chooses belongs in the code as a constant or a value
derived from the inputs.

This check parses every module under ``src/repro/`` except
``__main__`` for its options: the defaulted parameters of the public
functions, the public methods and the ``__init__`` of the public
classes, and the defaulted fields of the public frozen dataclasses
(the message classes of ``repro.core.messages`` are data, not
configuration, and are left out).  It then requires each
option to be passed, by keyword or by position, at some call in a
``.py`` file under ``src/``, ``benchmarks/``, ``examples/`` or
``perfbench/`` that names the callable.  These call forms resolve:

* ``f(...)`` and ``mod.f(...)`` (and ``obj.method(...)``) by the last
  name;
* ``Class(...)`` to ``Class.__init__``, or to the ``__init__`` it
  inherits, or to the fields of a frozen dataclass;
* ``cls(...)`` inside a class body to that class's ``__init__``;
* ``super().__init__(...)`` to the ``__init__`` of the named bases;
* ``dataclasses.replace(x, field=...)`` (or a bare ``replace``) to the
  field of that name of every frozen dataclass in scope.

What a call spreads with ``*args`` or ``**kwargs`` is invisible to the
scan; only the positions before the first ``*args`` and the named
keywords count.  A call that passes the default itself sets nothing: an
argument that is the default's own expression (the same literal, or the
same constant name) or a literal equal to the module-level constant the
default names, such as ``channel=0`` for ``channel=UP_CHANNEL``, does not
count.

Two tables name the exceptions, each entry with its reason:

* ``TEST_SEAMS`` (at most 16): an option that only tests set, because
  it substitutes a fake, mutant or observer, reproduces a §8-remark
  input no workload runs, points at a path, or scripts a fault where
  no constant serves.  Each entry must still be an option, have no
  setter outside ``tests/`` and at least one inside it.
* ``ALLOWED``: an option the scan cannot see set, or code that is
  retired whole rather than trimmed.  Each entry must still be an
  option and have no setter the scan sees.
"""

import ast
import functools
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: Where a call sets an option.
SETTERS = ("src", "benchmarks", "examples", "perfbench")
#: Where a call sets a test seam.
TESTS = ("tests",)
#: Frozen dataclasses that carry data, not configuration.
DATA_CLASSES = ("repro.core.messages.",)

_NETWORK = "repro.radio.network.RadioNetwork.__init__"
_REMARK_3 = (
    "§8 remark (3)'s capture model, under which the paper says its "
    "deterministic acks fail; only the tests that show that failure run it"
)

#: (callable, parameter) pairs that only tests set, with the reason.
TEST_SEAMS = {
    # A fake, mutant or observer that a test substitutes.
    (_NETWORK, "trace"): (
        "an event recorder the oracle and engine tests attach; every "
        "workload reads the always-on counters instead"
    ),
    ("repro.vector.check.run_equivalence", "decay_factory"): (
        "the deliberately broken Decay the harness must catch"
    ),
    ("repro.runner.executor.run_tasks", "version"): (
        "a fixed package version, so cache keys in tests do not change "
        "with each release"
    ),
    # A §8-remark input that only tier-1 reproduces.
    (_NETWORK, "capture_effect"): _REMARK_3,
    (_NETWORK, "capture_seed"): _REMARK_3,
    ("repro.core.collection.build_collection_network", "strict"): (
        "non-strict lanes count the duplicates that §8 remark (3)'s "
        "capture model produces instead of raising on the first"
    ),
    ("repro.core.bfs.run_setup_unknown_n", "n_bound"): (
        "§8 remark (1)'s bound N on n; the tests run N > n, which no "
        "experiment does"
    ),
    # A path.
    ("repro.scenario.discovery.unknown_experiment_message", "root"): (
        "the directory searched for scenario files; tests point it at a "
        "scratch directory"
    ),
    # A fault-model input that a test scripts, where no constant serves.
    ("repro.radio.failures.PermanentCrashes.__init__", "from_slot"): (
        "a crash partway through a run, at a slot the test chooses"
    ),
    ("repro.radio.faults.churn.MarkovChurn.__init__", "start_down"): (
        "stations that begin down, to script a revival"
    ),
    ("repro.radio.faults.churn.MarkovChurn.churn_events", "node"): (
        "one station's realized up/down history, read back by the test "
        "that checks it flapped"
    ),
    ("repro.radio.faults.jammer.AdversarialJammer.__init__", "offset"): (
        "the jammer's phase within its period, aligned by the test with "
        "a level class's slots"
    ),
}

_COORDINATOR = (
    "the TCP coordinator backend is deleted whole once a benchmark "
    "change retires runner.noop_us.coord, not trimmed option by option"
)

#: (callable, parameter) pairs the scan cannot see set, or code that is
#: retired whole, with the reason.
ALLOWED = {
    ("repro.vector.backend.resolve_backend", "_requested"): (
        "its one caller, perfbench/run.py, passes the default \"auto\"; "
        "perfbench changes only with the benchmark it defines"
    ),
    ("repro.runner.chaos.run_coord_chaos", "drain_timeout"): _COORDINATOR,
    ("repro.runner.chaos.run_coord_chaos", "partition_seconds"): _COORDINATOR,
    ("repro.runner.chaos.run_coord_chaos", "throttle"): _COORDINATOR,
    ("repro.runner.chaos.run_coord_chaos", "ttl"): _COORDINATOR,
    ("repro.runner.client.CoordClient.request", "timeout"): _COORDINATOR,
    ("repro.runner.coord.coord_status", "timeout"): _COORDINATOR,
    ("repro.runner.wire.FrameDecoder.__init__", "max_frame"): _COORDINATOR,
    ("repro.runner.wire.encode_frame", "max_frame"): _COORDINATOR,
}


def _sources(tops):
    for top in tops:
        for path in sorted((ROOT / top).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def _is_library(path):
    rel = path.relative_to(ROOT).parts
    return rel[:2] == ("src", "repro") and rel[-1] != "__main__.py"


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


def _name(node):
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    return None


def _keyword(call, name):
    for k in call.keywords:
        if k.arg == name:
            return k.value
    return None


def _is_frozen_dataclass(cls):
    return any(
        isinstance(d, ast.Call)
        and _name(d.func) == "dataclass"
        and isinstance(_keyword(d, "frozen"), ast.Constant)
        and _keyword(d, "frozen").value is True
        for d in cls.decorator_list
    )


def _fields(cls):
    """Defaulted ``__init__`` fields of the dataclass *cls*, shaped as
    :func:`_defaulted`'s output."""
    out, position = [], 0
    for item in cls.body:
        if not isinstance(item, ast.AnnAssign) or not isinstance(
            item.target, ast.Name
        ):
            continue
        if "ClassVar" in ast.dump(item.annotation):
            continue
        default = item.value
        if isinstance(default, ast.Call) and _name(default.func) == "field":
            init = _keyword(default, "init")
            if isinstance(init, ast.Constant) and init.value is False:
                continue
            default = _keyword(default, "default") or _keyword(
                default, "default_factory"
            )
        if default is not None:
            out.append((item.target.id, position, default))
        position += 1
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
    """``{key: [(label, [(param, position, default)], is_field)]}`` for
    the library's options.

    A function or method is keyed by its name, an ``__init__`` or a
    frozen dataclass by its class's name.
    """
    defs = defaultdict(list)
    for path, tree in trees:
        if not _is_library(path):
            continue
        module = ".".join(path.relative_to(ROOT / "src").with_suffix("").parts)
        if module.endswith(".__init__"):
            module = module[: -len(".__init__")]
        for node in tree.body:
            if isinstance(node, ast.FunctionDef):
                if not node.name.startswith("_"):
                    params = _defaulted(node, bound=False)
                    if params:
                        label = f"{module}.{node.name}"
                        defs[node.name].append((label, params, False))
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                label = f"{module}.{node.name}.__init__"
                if _is_frozen_dataclass(node) and not label.startswith(
                    DATA_CLASSES
                ):
                    params = _fields(node)
                    if params:
                        defs[node.name].append((label, params, True))
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
                        defs[key].append((label, params, False))
    return defs


#: The call key under which ``dataclasses.replace`` calls are recorded.
_REPLACE = "dataclasses.replace"


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
            elif func.id == "replace":
                self.calls[_REPLACE].append(shape)
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
            elif func.attr == "replace" and _name(target) == "dataclasses":
                self.calls[_REPLACE].append(shape)
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


def _set_by(trees, bases, defs, constants):
    """The ``(label, param)`` options some call in *trees* sets."""
    calls = _Calls(bases)
    for _, tree in trees:
        calls.visit(tree)
    out = set()
    for key, entries in defs.items():
        shapes = calls.calls.get(key, [])
        for label, params, is_field in entries:
            replaced = calls.calls[_REPLACE] if is_field else []
            for name, position, default in params:
                passed = [kw.get(name) for _, kw in shapes + replaced]
                if position is not None:
                    passed += [
                        args[position] for args, _ in shapes
                        if position < len(args)
                    ]
                if any(
                    arg is not None
                    and not _passes_default(arg, default, constants)
                    for arg in passed
                ):
                    out.add((label, name))
    return out


@functools.lru_cache(maxsize=None)
def option_surface():
    """``(options, unset, test_set)``: every in-scope option as
    ``(label, param)``, those no call outside the tests sets, and those
    some call in the tests sets.  Computed once per session."""
    program = list(_sources(SETTERS))
    tests = list(_sources(TESTS))
    program_bases = _class_bases(program)
    defs = _definitions(program)
    constants = _constants(program)
    options = sorted(
        (label, name)
        for entries in defs.values()
        for label, params, _ in entries
        for name, _, _ in params
    )
    set_outside = _set_by(program, program_bases, defs, constants)
    test_set = _set_by(
        tests, {**program_bases, **_class_bases(tests)}, defs, constants
    )
    unset = [pair for pair in options if pair not in set_outside]
    return options, unset, test_set


def test_every_option_has_a_setter():
    options, unset, _ = option_surface()
    missing = [
        pair for pair in unset
        if pair not in ALLOWED and pair not in TEST_SEAMS
    ]
    assert not missing, (
        "options that no call outside tests/ passes (make each a constant "
        "or a derived value, delete it, or add its caller):\n"
        + "\n".join(f"  {label}({name})" for label, name in missing)
    )


def test_allowed_entries_hold():
    options, unset, _ = option_surface()
    for pair, reason in ALLOWED.items():
        assert pair in options, f"{pair} is no longer an option"
        assert pair in unset, f"{pair} now has a setter the scan sees"
        assert reason.strip(), f"{pair} needs a reason"


def test_test_seams_hold():
    options, unset, test_set = option_surface()
    assert len(TEST_SEAMS) <= 16, "at most 16 test seams"
    for pair, reason in TEST_SEAMS.items():
        assert pair in options, f"{pair} is no longer an option"
        assert pair in unset, f"{pair} has a setter outside tests/"
        assert pair in test_set, f"no test sets {pair}"
        assert reason.strip(), f"{pair} needs a reason"
