"""Every import is used by the module that makes it.

An import nothing reads still runs on every load, hides the module's
real dependencies and survives every refactor that removed its last use.
This check parses every module under ``src/repro`` except the package
``__init__`` files, whose imports are the packages' public surface, and
every ``.py`` file under ``tests/``, ``benchmarks/`` and ``examples/``.
It requires each name an import binds to be read somewhere in that
module or listed in the module's ``__all__`` (a deliberate re-export).
A name read only inside a quoted annotation counts as read.  Exempt are
``from __future__`` imports, which bind no name, and an import whose
line carries ``# noqa: F401``, the linters' mark for an import made for
its side effect.  ``perfbench/`` is not scanned: it changes only with
the benchmark it defines.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
SCRIPTS = ("tests", "benchmarks", "examples")


def _imports(tree):
    """``(name, line)`` for every name an import in *tree* binds."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                yield alias.asname or alias.name, node.lineno


def _annotations(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef):
            args = node.args
            for arg in (
                args.posonlyargs + args.args + args.kwonlyargs
                + [args.vararg, args.kwarg]
            ):
                if arg is not None and arg.annotation is not None:
                    yield arg.annotation
            if node.returns is not None:
                yield node.returns
        elif isinstance(node, ast.AnnAssign):
            yield node.annotation


def _read_names(tree):
    """Every name *tree* reads, quoted annotations included."""
    names = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for annotation in _annotations(tree):
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                quoted = ast.parse(node.value, mode="eval")
                names |= {
                    n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)
                }
    return names


def _exported(tree):
    """The names listed in the module's ``__all__``."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            names |= {
                n.value for n in ast.walk(node.value)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)
            }
    return names


def _scanned():
    for path in sorted(PACKAGE.rglob("*.py")):
        if path.name != "__init__.py":
            yield path
    for top in SCRIPTS:
        yield from sorted((ROOT / top).rglob("*.py"))


def unused_imports():
    """``(path, line, name)`` of every import nothing reads."""
    unused = []
    for path in _scanned():
        source = path.read_text()
        lines = source.splitlines()
        tree = ast.parse(source, filename=str(path))
        kept = _read_names(tree) | _exported(tree)
        for name, line in _imports(tree):
            if name not in kept and "noqa: F401" not in lines[line - 1]:
                rel = path.relative_to(ROOT).as_posix()
                unused.append((rel, line, name))
    return unused


def test_every_import_is_used():
    unused = unused_imports()
    assert not unused, (
        "imports that no code in their module reads (delete each, or "
        "list a deliberate re-export in the module's __all__):\n"
        + "\n".join(f"  {rel}:{line}: {name}" for rel, line, name in unused)
    )
