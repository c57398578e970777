"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that imported everything it re-exports would
load every subsystem for a caller that needs one: importing the
cluster simulator would pull in the Monte-Carlo engines, the process
pool and the RPC layer. :func:`lazy_getattr` builds the module-level
``__getattr__`` that imports a re-exported name's module only when the
name is first looked up, so ``from repro import Game`` and
``from repro.distributed import ClusterSimulator`` keep working while
``import repro.distributed.cluster`` stays lean.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Dict, MutableMapping, Sequence


def lazy_getattr(
    namespace: MutableMapping[str, Any], exports: Dict[str, Sequence[str]]
) -> Callable[[str], Any]:
    """Return a module ``__getattr__`` for ``exports``.

    ``exports`` maps a module path to the names the package re-exports
    from it; ``namespace`` is the package's ``globals()``. A resolved
    name is stored there, so the hook runs once per name. Any other
    name raises ``AttributeError``, which lets ``from package import
    submodule`` fall through to the import system.
    """
    module_of = {
        name: module for module, names in exports.items() for name in names
    }

    def __getattr__(name: str) -> Any:
        module = module_of.get(name)
        if module is None:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}"
            )
        value = namespace[name] = getattr(importlib.import_module(module), name)
        return value

    return __getattr__
