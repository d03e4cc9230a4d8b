"""The exhaustive oracle stays independent of the trellis search."""

import ast
from pathlib import Path

import nfvplace as nv

PACKAGE = Path(nv.__file__).parent


def _package_imports(module: str) -> set[str]:
    """Modules of the package that ``module`` imports, at any depth of its
    source (function-level imports included). ``__init__`` stands for the
    package itself, which imports every module."""
    tree = ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                head, _, rest = alias.name.partition(".")
                if head == "nfvplace":
                    found.add(rest.split(".")[0] if rest else "__init__")
        elif isinstance(node, ast.ImportFrom):
            name = node.module or ""
            if node.level == 0:
                head, _, name = name.partition(".")
                if head != "nfvplace":
                    continue
            if name:
                found.add(name.split(".")[0])
            else:
                # from . import x: x is a module or a name re-exported by the package
                for alias in node.names:
                    found.add(alias.name if (PACKAGE / f"{alias.name}.py").exists() else "__init__")
    return found


def test_oracle_shares_no_trellis_machinery():
    # the oracle is ground truth for the trellis only while no import,
    # direct or through another package module, reaches trellis.py
    reached, frontier = set(), ["oracle"]
    while frontier:
        module = frontier.pop()
        for dep in _package_imports(module) - reached:
            reached.add(dep)
            frontier.append(dep)
    assert "trellis" not in reached, sorted(reached)
    assert "__init__" not in reached, sorted(reached)
