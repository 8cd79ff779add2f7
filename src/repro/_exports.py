"""Package exports resolved on first use (PEP 562).

A package ``__init__`` states its public surface once, as a
``submodule -> names`` table, and binds what :func:`export` returns::

    __getattr__, __dir__, __all__ = export(__name__, {
        "config": ("AppConfig", "parse_args"),
        "kernels": ("Kernel",),
    })

Importing the package then executes none of its submodules; the first
read of ``package.Kernel`` (or ``from package import Kernel``) imports
``package.kernels`` and caches the object in the package namespace, so
every later read is a plain attribute.  Code inside ``src/repro`` imports
from the defining submodule instead — a process loads what it uses.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, List, Mapping, Sequence, Tuple


def export(
    package: str, table: Mapping[str, Sequence[str]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]], List[str]]:
    """``(__getattr__, __dir__, __all__)`` for the package named
    ``package`` exporting ``table``'s names from its submodules."""
    where = {name: sub for sub, names in table.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        try:
            submodule = where[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(import_module(f"{package}.{submodule}"), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted({*namespace, *where})

    # An export that shares its name with a submodule (``repro.metg.metg``)
    # cannot wait: importing that submodule binds the module over the name.
    for name in where.keys() & table.keys():
        __getattr__(name)
    return __getattr__, __dir__, sorted(where)
