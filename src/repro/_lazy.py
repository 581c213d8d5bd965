"""Lazy package exports: a package ``__init__`` names, it does not import.

Every ``repro`` package re-exports the public names of its submodules,
but importing them all eagerly made a one-line ``repro list-models`` pay
for numpy, the training framework and the study runner.  Instead each
package ``__init__`` holds a ``{name: defining module}`` map and hands it
to :func:`lazy_exports`; a name's module is imported on first access::

    _EXPORTS = {"Session": "repro.api.session"}
    __getattr__, __dir__ = lazy_exports(__name__, _EXPORTS)
    __all__ = list(_EXPORTS)
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, List, Mapping, Tuple


def lazy_exports(
    package: str, exports: Mapping[str, str]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """Module ``__getattr__`` and ``__dir__`` serving ``exports`` on demand.

    A resolved name is stored in the package namespace, so each export
    costs one import and later lookups never reach ``__getattr__``.
    """

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(exports[name]), name)
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(exports))

    return __getattr__, __dir__
