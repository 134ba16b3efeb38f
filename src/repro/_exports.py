"""Lazy package exports: a package names its public API without importing it.

Every ``repro`` package re-exports the main names of its submodules, so that
``from repro.system import run_simulation`` works.  Importing all of them
eagerly would make ``import repro.anything`` load the whole program — the
selector, the experiment registry, every commit protocol — even for a run
that uses a fraction of it, and each short simulation run pays for that
import in a fresh interpreter.  A package instead hands its table of
exports to :func:`lazy_exports` and installs the returned pair as its module
``__getattr__`` / ``__dir__`` (PEP 562): a name's submodule is imported the
first time the name is looked up, and the value is then bound on the
package, so later lookups are plain attribute reads.
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Callable, Dict, List, Tuple


def lazy_exports(
    package: str, exports: Dict[str, Tuple[str, ...]]
) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """``(__getattr__, __dir__)`` for ``package``, resolving ``exports`` on first use.

    ``exports`` maps each submodule's dotted name to the names the package
    re-exports from it.  An unknown name raises :class:`AttributeError`, as
    it would on any module.
    """
    source = {name: module for module, names in exports.items() for name in names}
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        try:
            module = source[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute {name!r}") from None
        value = getattr(import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(namespace.keys() | source.keys())

    return __getattr__, __dir__
