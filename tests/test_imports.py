"""Every name a package module imports is used in that module, and the
package exports exactly the names its ``__init__`` imports. Neither
pyflakes nor ruff is a dependency, so the checks walk each module's syntax
tree with ``ast``."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "nfvplace"
# __init__.py imports names to re-export them, not to use them
MODULES = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names bound by the imports of ``source`` that nothing in it reads, in
    import order; a ``__future__`` import binds no name."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            # ``import a.b`` binds ``a``
            imported += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    # a quoted annotation reads the names inside its string
    for node in ast.walk(tree):
        for annotation in _annotations(node):
            if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
                quoted = ast.parse(annotation.value, mode="eval")
                used |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


def _annotations(node) -> list:
    if isinstance(node, (ast.arg, ast.AnnAssign)):
        return [node.annotation]
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        return [node.returns]
    return []


def test_detector_flags_unused_names():
    source = (
        "from __future__ import annotations\n"
        "import os, numpy.linalg\n"
        "from math import pi, tau as turn\n"
        "def f(x: 'Sequence') -> pi: return turn\n"
        "from typing import Sequence\n"
    )
    assert unused_imports(source) == ["os", "numpy"]


@pytest.mark.parametrize("module", MODULES)
def test_no_unused_import(module):
    assert unused_imports((PACKAGE / module).read_text(encoding="utf-8")) == []


def test_all_lists_exactly_the_imported_names():
    # __init__.py names each export twice: in its imports and in __all__
    tree = ast.parse((PACKAGE / "__init__.py").read_text(encoding="utf-8"))
    imported = [
        alias.asname or alias.name for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__" for alias in node.names
    ]
    (exported,) = [
        ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]
    assert len(set(exported)) == len(exported) and len(set(imported)) == len(imported)
    assert set(exported) == set(imported)


def fresh_interpreter(script: str) -> str:
    """The standard output of ``script`` run in a new interpreter that
    finds the package under ``src``."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, check=True, timeout=120
    )
    return out.stdout


def test_import_loads_only_the_standard_library_and_numpy():
    # the benchmark's set-up time includes this import, so a heavy
    # dependency added to it would show there
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import nfvplace\n"
        "print(' '.join(sorted({m.partition('.')[0] for m in set(sys.modules) - before})))\n"
    )
    loaded = set(fresh_interpreter(script).split())
    assert {"nfvplace", "numpy"} <= loaded
    assert sorted(loaded - sys.stdlib_module_names - {"nfvplace", "numpy"}) == []


@pytest.mark.parametrize("module", ["nfvplace.trellis", "nfvplace.baselines"])
def test_placer_module_imports_first(module):
    # the trellis imports the baselines' tables and read-out; either module
    # imported first in a new interpreter loads without an import cycle
    assert fresh_interpreter(f"import {module}; print({module}.__name__)").split() == [module]


def test_baselines_import_no_trellis_policy_or_sim():
    # the shared tables and read-out sit below the placers that use them
    tree = ast.parse((PACKAGE / "baselines.py").read_text(encoding="utf-8"))
    modules = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {alias.name for alias in node.names}
        elif isinstance(node, ast.ImportFrom):
            base = "." * node.level + (node.module or "")
            # ``from . import sim`` names the module among the imported names
            modules |= {base} if node.module else {base + alias.name for alias in node.names}
    package = {m.removeprefix("nfvplace.").lstrip(".") for m in modules
               if m.startswith((".", "nfvplace"))}
    # the walk found the model import, so it reads relative imports
    assert "model" in package
    assert not package & {"trellis", "policy", "sim"}
