"""Each package loads a submodule only when a caller names one of its exports.

Every package ``__init__`` states its public surface as one table,
``{submodule: (name, ...)}``, read by :func:`repro._exports.exports`.
The first half of this file pins that surface: every name in every
package's ``__all__`` resolves, through each public import form, to the
object its submodule defines.  The second half pins what the tables are
for: in a fresh interpreter, an entry point loads only the modules it
runs, and running it loads nothing its imports did not.
"""

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.baselines",
    "repro.core",
    "repro.graphs",
    "repro.kpi",
    "repro.queueing",
    "repro.radio",
    "repro.radio.faults",
    "repro.runner",
    "repro.scenario",
    "repro.service",
    "repro.vector",
    "repro.workloads",
)


def _table(package):
    """The export table the package's ``__init__`` hands to ``exports``."""
    path = SRC.joinpath(*package.split("."), "__init__.py")
    tree = ast.parse(path.read_text())
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "exports"
        ):
            return ast.literal_eval(node.args[1])
    raise AssertionError(f"{path} calls no exports(...)")


def test_every_package_init_is_listed():
    found = {
        ".".join(path.relative_to(SRC).parent.parts)
        for path in SRC.rglob("__init__.py")
    }
    assert found == set(PACKAGES)


@pytest.mark.parametrize("package", PACKAGES)
def test_every_export_is_its_submodules_object(package):
    module = importlib.import_module(package)
    table = _table(package)
    listed = [name for names in table.values() for name in names]
    assert sorted(set(module.__all__) - {"__version__"}) == sorted(listed)
    assert len(listed) == len(set(listed))
    for key, names in table.items():
        source = importlib.import_module(f".{key}", package)
        for name in names:
            expected = source if name == key else getattr(source, name)
            assert getattr(module, name) is expected, (package, name)
            assert vars(module)[name] is expected, (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_star_import_binds_every_export(package):
    namespace = {}
    exec(f"from {package} import *", namespace)
    module = importlib.import_module(package)
    for name in module.__all__:
        assert namespace[name] is getattr(module, name), (package, name)


@pytest.mark.parametrize("package", PACKAGES)
def test_unknown_name_raises_attribute_error(package):
    module = importlib.import_module(package)
    with pytest.raises(AttributeError, match=repr(package)):
        getattr(module, "no_such_export")
    with pytest.raises(ImportError):
        exec(f"from {package} import no_such_export", {})


# ----------------------------------------------------------------------
# Import closures, each in a fresh interpreter


#: Every package below the root.
SUBPACKAGES = PACKAGES[1:]

FIELD_IMPORTS = """
import random
from repro.graphs import random_geometric, reference_bfs_tree
"""

#: A 200-station field: below the array path's size threshold, so
#: building it never imports NumPy.
FIELD = """
graph = random_geometric(200, 0.16, random.Random(4))
tree = reference_bfs_tree(graph, 0)
"""

#: ``{case: (imports, run, absent)}``: after *imports* and then *run*,
#: no module in *absent* (nor below it) is loaded, and *run* loaded no
#: ``repro`` module its imports did not.
CLOSURES = {
    "import-repro": ("import repro", "", SUBPACKAGES),
    # dir() lists every export before any is loaded, and loads none.
    "dir": (
        "import " + ", ".join(PACKAGES),
        "\n".join(
            f"assert set({package}.__all__) <= set(dir({package}))"
            for package in PACKAGES
        ),
        ("numpy",),
    ),
    "main-help": (
        """
import runpy, sys
sys.argv = ["repro", "--help"]
try:
    runpy.run_module("repro", run_name="__main__")
except SystemExit:
    pass
""",
        "",
        SUBPACKAGES,
    ),
    "service": (
        """
from repro.core import SlotStructure, decay_budget
from repro.service import run_service
from repro.workloads import BernoulliArrivals
""" + FIELD_IMPORTS,
        FIELD + """
length = SlotStructure(decay_budget(graph.max_degree())).phase_length
arrivals = BernoulliArrivals([5, 50], 0.1, length, seed=3)
assert run_service(graph, tree, arrivals, 3, 40 * length).submitted
""",
        ("numpy", "repro.queueing", "repro.runner"),
    ),
    # The service command, a cell and then a sweep, as CI's
    # service-smoke job runs it on a Python without NumPy.
    "service-cli": (
        """
import runpy, sys
for argv in (
    "service --topology path-8 --phases 300",
    "service --sweep --topology band-4x3 --source-mode bottom --points 3"
    " --phases 220",
):
    sys.argv = ["repro", *argv.split()]
    try:
        runpy.run_module("repro", run_name="__main__")
    except SystemExit as exit:
        assert not exit.code, exit.code
""",
        "",
        ("numpy", "repro.vector"),
    ),
    "vector": (
        "from repro.vector import run_collection_batch" + FIELD_IMPORTS,
        FIELD + """
result = run_collection_batch(graph, tree, {5: [1], 50: [2]}, [1, 2])
assert (result.completion_slots > 0).all()
""",
        ("repro.radio",),
    ),
    "scalar-collection": (
        "from repro.core import run_collection" + FIELD_IMPORTS,
        FIELD + "run_collection(graph, tree, {v: [v] for v in (5, 50)}, seed=4)",
        (
            "numpy",
            "repro.core.bfs",
            "repro.core.leader",
            "repro.core.broadcast",
            "repro.core.ranking",
            "repro.core.repair",
            "repro.core.pipeline",
            "repro.radio.faults",
        ),
    ),
}


def _closure(imports, run):
    """``(loaded, added)``: every module loaded at the end of a fresh
    interpreter that ran *imports* then *run*, and the ``repro`` modules
    *run* added."""
    script = "\n".join([
        imports,
        "import json as _json, sys as _sys",
        "_before = set(_sys.modules)",
        run,
        "_added = sorted(m for m in set(_sys.modules) - _before"
        " if m.split('.')[0] == 'repro')",
        "print(_json.dumps([sorted(_sys.modules), _added]))",
    ])
    result = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert result.returncode == 0, result.stderr
    loaded, added = json.loads(result.stdout.splitlines()[-1])
    return set(loaded), added


@pytest.mark.parametrize("case", sorted(CLOSURES))
def test_closure(case):
    imports, run, absent = CLOSURES[case]
    loaded, added = _closure(imports, run)
    unwanted = sorted(
        name for name in loaded
        if any(name == top or name.startswith(top + ".") for top in absent)
    )
    assert not unwanted, f"{case} loaded {unwanted}"
    assert not added, f"{case}'s run loaded {added} after its imports"
