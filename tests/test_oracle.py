"""The exhaustive oracle stays independent of the trellis search, and its
search is pinned node for node."""

import ast
import re
from pathlib import Path

import numpy as np
import pytest

import nfvplace as nv
from nfvplace.oracle import best_placement

from helpers import random_tiny_instance, reduced_setup, tiny_two_inps, two_resource_setup

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


# (instance, objective) -> (nodes, objective bits, plan as (main, backup)
# pairs per service, failure probability bits), recorded while every search
# node still rebuilt its option list and priced each option from the model
# arrays
ORACLE_REFERENCE = {
    ("tiny14-0", "penalized"): (151, "0x1.f437ae98a9f7bp+15", (((0, 1), (0, None)), ((0, 1), (1, None))), ("0x1.ff729c19af55cp-3", "0x1.ff729c19af55cp-3")),
    ("tiny14-0", "reliable"): (40, "inf", None, ()),
    ("tiny14-1", "penalized"): (395, "0x1.a0911110fd3d3p+12", (((1, None), (0, None), (0, None)), ((0, 1), (1, None), (1, None))), ("0x1.538d0fe722220p-4", "0x1.d17bd99d7d540p-5")),
    ("tiny14-1", "reliable"): (298, "inf", None, ()),
    ("tiny14-2", "penalized"): (4720, "0x1.1ecb723aa362cp+6", (((0, None), (0, 1), (2, None)), ((1, None), (2, None), (2, None))), ("0x1.1d3a45ae85450p-2", "0x1.274c3bc6d7392p-2")),
    ("tiny14-2", "reliable"): (4529, "0x1.1ecb723aa362cp+6", (((0, None), (0, 1), (2, None)), ((1, None), (2, None), (2, None))), ("0x1.1d3a45ae85450p-2", "0x1.274c3bc6d7392p-2")),
    ("tiny14-3", "penalized"): (30257, "0x1.3f1f2340118c2p+5", (((0, 2), (0, 2), (0, 2)), ((0, 2), (0, 2), (0, 1))), ("0x1.4a6ff4e639fd0p-3", "0x1.4210ed3363dc4p-3")),
    ("tiny14-3", "reliable"): (20587, "0x1.3f1f2340118c2p+5", (((0, 2), (0, 2), (0, 2)), ((0, 2), (0, 2), (0, 1))), ("0x1.4a6ff4e639fd0p-3", "0x1.4210ed3363dc4p-3")),
    ("two_resource", "penalized"): (6353, "0x1.0b83218d5c9cap+5", (((0, 1), (0, 1)),), ("0x1.474538ef34d00p-8",)),
    ("two_resource", "reliable"): (5884, "0x1.0b83218d5c9cap+5", (((0, 1), (0, 1)),), ("0x1.474538ef34d00p-8",)),
    ("reduced", "penalized"): (62582, "0x1.c2f5ba1f4c7f4p+4", (((4, None),), ((4, None), (4, None), (4, None))), ("0x1.47ae147ae1480p-7", "0x1.e69f05ea24ce0p-6")),
    ("reduced", "reliable"): (42556, "0x1.c2f5ba1f4c7f4p+4", (((4, None),), ((4, None), (4, None), (4, None))), ("0x1.47ae147ae1480p-7", "0x1.e69f05ea24ce0p-6")),
}


def _oracle_instances():
    """The first four random tiny instances of seed 14, the two-resource
    setup with its two-VNF type and the reduced setup with one service of
    each type: one or two resources, free and priced links."""
    rng = np.random.default_rng(14)
    out = {}
    for k in range(4):
        infra, catalog, type_indices = random_tiny_instance(rng)
        out[f"tiny14-{k}"] = (infra, catalog, type_indices)
    out["two_resource"] = (*two_resource_setup(), [0])
    out["reduced"] = (*reduced_setup(), [0, 1])
    return out


def test_search_pinned_node_for_node():
    instances = _oracle_instances()
    for (name, objective), (nodes, bits, plan, failures) in ORACLE_REFERENCE.items():
        infra, catalog, type_indices = instances[name]
        result = best_placement(type_indices, catalog, infra, infra.capacity.copy(), objective=objective)
        got_plan = None if result.plan is None else tuple(
            tuple((vp.main, vp.backup) for vp in svc.vnfs) for svc in result.plan.services
        )
        assert (result.nodes, float(result.objective).hex(), got_plan) == (nodes, bits, plan), (
            name, objective)
        assert tuple(f.hex() for f in result.failure_probs) == failures
        assert result.valid == (plan is not None)


@pytest.mark.parametrize("entry", [1, -1, 1.0, True, "0", None])
def test_type_index_outside_catalog_rejected(entry):
    # the setup has one type: -1 must not place as the last type, nor True
    # or 1.0 as type 1, as run_baseline rejects them too
    infra, catalog = tiny_two_inps()
    with pytest.raises(ValueError, match=re.escape(f"type index {entry!r} is not an integer in range(1)")):
        best_placement([entry], catalog, infra, infra.capacity.copy())


def test_numpy_type_indices_accepted():
    infra, catalog = tiny_two_inps()
    plain = best_placement([0], catalog, infra, infra.capacity.copy())
    numpy = best_placement(np.array([0]), catalog, infra, infra.capacity.copy())
    assert numpy == plain and type(numpy.plan.services[0].type_index) is int
