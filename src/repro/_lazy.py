"""PEP 562 lazy exports for package roots.

A package root that re-exports names from its submodules would import
every one of them the moment anything under it is imported: a gateway
that needs ``repro.service.server`` would pay for TAP/TAPS, the
baselines and scipy first.  :func:`lazy_exports` defers each name to its
first use instead::

    __all__, __getattr__, __dir__ = lazy_exports(__name__, {
        "repro.core.config": ("ExtensionStrategy", "MechanismConfig"),
        ...
    })

Every name in ``__all__`` resolves through :func:`getattr` (and so
through ``from package import name`` and ``from package import *``),
is listed by :func:`dir`, and is cached on the package after its first
lookup.  An unknown name raises :class:`AttributeError`.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping, Sequence


def lazy_exports(
    package: str, exports: Mapping[str, Sequence[str]]
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps a submodule's absolute name to the names the package
    re-exports from it, in ``__all__`` order.
    """
    origin = {name: module for module, names in exports.items() for name in names}

    def __getattr__(name: str) -> object:
        try:
            module = origin[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            ) from None
        value = getattr(importlib.import_module(module), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return list(origin), __getattr__, __dir__
