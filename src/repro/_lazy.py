"""Package attributes that import their submodule on first use.

Importing any submodule runs its package's ``__init__``, so an
``__init__`` that imported every sibling would make a run pay for all of
them (``repro.centralized.config`` would load the whole centralized
simulator). A package lists its public names by submodule instead, and
:func:`lazy_exports` resolves a name (PEP 562) the first time it is
read: ``from repro.cluster import Cluster`` loads
``repro.cluster.cluster`` and nothing else.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[List[str], Callable[[str], object]]:
    """``(__all__, __getattr__)`` for ``package``, whose ``exports`` maps
    each submodule to the public names it defines. A resolved name is
    stored on the package, so ``__getattr__`` runs once per name."""
    home = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        module = home.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        # import_module, never ``from package import name``: that reads
        # the package attribute and would re-enter here forever.
        value = getattr(import_module(f"{package}.{module}"), name)
        setattr(sys.modules[package], name, value)
        return value

    return list(home), __getattr__
