"""PEP 562 lazy exports: a package's public names load on first access.

A package init that imports its submodules eagerly makes every importer
pay for all of them.  Instead, a package lists each public name with
the module that defines it and installs the two hooks this module
builds::

    _EXPORTS = {"make_server": "repro.service.server", ...}
    __all__ = list(_EXPORTS)
    __getattr__, __dir__ = lazy_exports(globals(), _EXPORTS)

``from repro.service import make_server`` then imports
``repro.service.server`` and nothing else.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, List, Mapping, Tuple


def lazy_exports(
    namespace: Dict[str, Any], exports: Mapping[str, str]
) -> Tuple[Callable[[str], Any], Callable[[], List[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a package with lazy exports.

    ``namespace`` is the package's ``globals()``; ``exports`` maps each
    lazily exported name to the module that defines it.  The first
    access imports that module and caches the value in ``namespace``,
    so later reads are plain attribute lookups.  Any other name raises
    :class:`AttributeError`, which also lets ``from package import
    submodule`` fall through to the import system.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {namespace['__name__']!r} has no attribute {name!r}")
        value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
