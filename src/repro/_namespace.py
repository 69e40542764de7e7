"""Package namespaces that load their submodules on first use (PEP 562).

Every package ``__init__`` in :mod:`repro` is a docstring plus one
export table mapping each submodule to the public names it defines::

    __getattr__, __dir__, __all__ = lazy_exports(globals(), {
        "network": ("Link", "Network", "Path"),
        "routing": ("RoutingMatrix", "routing_matrix"),
    })

Importing the package imports none of its submodules. The first
access to an exported name, as ``pkg.name`` or ``from pkg import
name``, imports the one submodule that defines it and stores the value
in the package's globals, so later lookups are plain dictionary hits
that never reach ``__getattr__``. A table key also resolves to its
submodule (``repro.core`` after ``import repro``). An entry point thus
pays only for the modules it runs (DESIGN.md S25).

A package's own functions could not see its lazy names, since a
global lookup does not go through ``__getattr__``: an ``__init__``
defines no functions or classes.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Sequence, Tuple


def lazy_exports(
    namespace: Dict[str, Any],
    table: Mapping[str, Sequence[str]],
) -> Tuple[Callable[[str], Any], Callable[[], List[str]], List[str]]:
    """Return ``(__getattr__, __dir__, __all__)`` for a package.

    ``namespace`` is the package's ``globals()``; ``table`` maps each
    submodule (relative to the package) to the names it exports.
    """
    package = namespace["__name__"]
    exported = [name for names in table.values() for name in names]
    owner = {name: module for module, names in table.items()
             for name in names}

    def __getattr__(name: str) -> Any:
        module = owner.get(name)
        if module is None:
            if name in table:
                return importlib.import_module(f"{package}.{name}")
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        value = getattr(importlib.import_module(f"{package}.{module}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | owner.keys())

    return __getattr__, __dir__, exported
