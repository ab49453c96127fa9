"""Load sympeq source trees side by side in one process.

The comparison scripts (``stress_compare.py``, ``apps_outcomes.py`` and
``decompose_timing.py``) import each tree's ``sympeq`` package under a
private name, so both trees live in one process (``decompose_timing.py``
runs two such processes, one per load order). A tree must import its own modules by relative name: the loader
fails if loading a tree adds any module named ``sympeq`` or ``sympeq.*``,
since an absolute ``import sympeq`` would silently mix the trees.
"""

from __future__ import annotations

import contextlib
import importlib.util
import sys
from pathlib import Path
from types import ModuleType


def _sympeq_modules() -> set[str]:
    return {name for name in sys.modules if name == "sympeq" or name.startswith("sympeq.")}


def src(tree: str) -> Path:
    """The directory holding the ``sympeq`` package of a source tree (its
    ``src`` directory) or of that ``src`` directory itself."""
    path = Path(tree).resolve()
    for cand in (path / "src", path):
        if (cand / "sympeq" / "__init__.py").is_file():
            return cand
    raise SystemExit(f"no sympeq package under {tree}")


def load(tree: str, name: str) -> ModuleType:
    """Import the ``sympeq`` package of ``tree``, and its ``cli``, as the
    package ``name``."""
    package = src(tree) / "sympeq"
    before = _sympeq_modules()
    spec = importlib.util.spec_from_file_location(
        name, package / "__init__.py", submodule_search_locations=[str(package)]
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    importlib.import_module(f"{name}.cli")
    added = sorted(_sympeq_modules() - before)
    if added:
        raise SystemExit(
            f"loading {package} imported {', '.join(added)} by absolute name; "
            "a tree must import its own modules by relative name"
        )
    return module


@contextlib.contextmanager
def as_sympeq(module: ModuleType):
    """Map a loaded package and its submodules to ``sympeq`` in
    ``sys.modules`` for the length of the block, for code that imports
    ``sympeq`` by absolute name."""
    if _sympeq_modules():
        raise RuntimeError("a module named sympeq is already imported")
    prefix = module.__name__
    sys.modules.update({
        "sympeq" + name[len(prefix):]: mod
        for name, mod in list(sys.modules.items())
        if name == prefix or name.startswith(prefix + ".")
    })
    try:
        yield module
    finally:
        for name in _sympeq_modules():
            del sys.modules[name]
