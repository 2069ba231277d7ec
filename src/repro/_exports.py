"""One export table per package, resolved on first use.

A package ``__init__`` states its public surface once, as a table
``{submodule: (name, ...)}``, and hands it to :func:`exports`::

    __all__, __getattr__, __dir__ = exports(__name__, {
        "collection": ("CollectionResult", "run_collection"),
        "slots": ("SlotStructure", "decay_budget"),
    })

Loading the package imports none of its submodules.  A name is imported
from its submodule the first time a caller reads it, through the module
``__getattr__`` of PEP 562, and then kept in the package's globals, so
every later read is a plain attribute lookup.  ``from repro.core import
X``, ``repro.core.X`` and ``from repro.core import *`` all resolve this
way and return the object the submodule defines.

A key names a module relative to the package, as a relative import does
after its first dot: ``"loop"`` in ``repro.service`` is
``repro.service.loop``, and ``".analysis.sketches"`` is
``repro.analysis.sketches``.  A name that is its key
(``{"core": ("core",)}``) resolves to that module itself.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def exports(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package *package*."""
    home = {name: module for module, names in table.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = home[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        loaded = import_module(f".{module}", package)
        value = loaded if name == module else getattr(loaded, name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | home.keys())

    return list(home), __getattr__, __dir__
