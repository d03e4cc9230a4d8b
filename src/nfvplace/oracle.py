"""Reference batch placement by exhaustive enumeration.

Deliberately naive: the search tries every feasible assignment with
branch and bound, so it only handles small instances, but its answers do
not depend on any of the pipeline's algorithmic machinery.  The test
suite uses it as ground truth; the command line exposes it for spot
checks.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .model import (
    PROB_TOL,
    Catalog,
    Infrastructure,
    PlacementPlan,
    ServicePlacement,
    VnfPlacement,
    check_type_indices,
)

OBJECTIVES = ("penalized", "reliable")
DEFAULT_NODE_CAP = 2_000_000


class OracleError(Exception):
    """The instance is too large for exhaustive search."""


@dataclass(frozen=True)
class OracleResult:
    valid: bool
    objective: float
    plan: PlacementPlan | None
    failure_probs: tuple[float, ...]
    nodes: int


def _per_vnf_options(infra: Infrastructure):
    """All (main, backup) pairs; backup None allowed.  Feasibility against
    the live remaining array is checked at expansion time, not here."""
    servers = range(infra.num_servers)
    out = []
    for m in servers:
        out.append((m, None))
        for b in servers:
            if b != m:
                out.append((m, b))
    return out


def best_placement(
    type_indices: Sequence[int],
    catalog: Catalog,
    infra: Infrastructure,
    snapshot: np.ndarray,
    *,
    objective: str = "penalized",
    node_cap: int = DEFAULT_NODE_CAP,
) -> OracleResult:
    """Exhaustive minimizer over every capacity-feasible placement of the
    given batch.

    objective "penalized": minimize total cost plus, per service, the
    type's penalty weight times the failure excess over its cap.  Every
    feasible placement competes, reliable or not.

    objective "reliable": minimize total cost over placements where every
    service meets its failure cap; reports invalid when none exists.
    """
    if objective not in OBJECTIVES:
        raise ValueError(f"unknown objective {objective!r}")
    type_indices = check_type_indices(type_indices, catalog)
    snapshot = np.asarray(snapshot)
    if snapshot.shape != (infra.num_servers, infra.num_resources):
        raise ValueError("snapshot shape does not match the infrastructure")

    demands = []
    caps = []
    penalties = []
    bandwidths = []
    parts = []
    for t in type_indices:
        stype = catalog[t]
        demands.append([np.asarray(v.demands) for v in stype.vnfs])
        caps.append(stype.failure_cap)
        penalties.append(stype.penalty)
        bandwidths.append(stype.bandwidth)
        # per server: what hosting the VNF there costs, charge plus deployment
        parts.append([
            [
                float(d @ infra.unit_cost[i]) + infra.deployment_cost[i, v.vnf_type]
                for i in infra.server_inp.tolist()
            ]
            for d, v in zip(demands[-1], stype.vnfs)
        ])

    v_of = [infra.server_failure(s) for s in range(infra.num_servers)]
    link = infra.link_cost.tolist()
    pairs = _per_vnf_options(infra)

    def assign_cost(svc: int, u: int, m: int, b, prev) -> float:
        part = parts[svc][u]
        cost = part[m]
        if b is not None:
            cost += part[b]
        if prev is not None:
            pm, pb = prev
            ends = [m] + ([b] if b is not None else [])
            starts = [pm] + ([pb] if pb is not None else [])
            for a_ in starts:
                for c_ in ends:
                    cost += bandwidths[svc] * link[a_][c_]
        return cost

    best = {
        "objective": np.inf,
        "assign": None,
        "failures": None,
        "nodes": 0,
    }
    remaining = snapshot.copy()

    def closing_penalty(svc: int, tau: float) -> float:
        excess = max(0.0, (1.0 - tau) - caps[svc])
        return penalties[svc] * excess

    def search(svc: int, u: int, acc: float, tau: float, prev, chosen: list):
        if best["nodes"] > node_cap:
            raise OracleError(f"search exceeded {node_cap} nodes")
        if svc == len(type_indices):
            failures = tuple(1.0 - t for t in chosen_taus)
            if acc < best["objective"]:
                best["objective"] = acc
                best["assign"] = [list(s) for s in chosen]
                best["failures"] = failures
            return
        stype = catalog[type_indices[svc]]
        if u == stype.num_vnfs:
            add = 0.0
            e = 1.0 - tau
            if objective == "penalized":
                add = closing_penalty(svc, tau)
            elif e > caps[svc] + PROB_TOL:
                return
            chosen_taus.append(tau)
            chosen.append(tuple(per_service))
            per_service.clear()
            search(svc + 1, 0, acc + add, 1.0, None, chosen)
            per_service.extend(chosen.pop())
            chosen_taus.pop()
            return

        d = demands[svc][u]
        short = (remaining < d).any(axis=1).tolist()
        options = []
        for m, b in pairs:
            if short[m] or (b is not None and short[b]):
                continue
            step = assign_cost(svc, u, m, b, prev)
            options.append((step, m, b))
        options.sort(key=lambda o: (o[0], o[1], -1 if o[2] is None else o[2]))

        for step, m, b in options:
            best["nodes"] += 1
            if b is None:
                f_u = v_of[m]
            else:
                f_u = v_of[m] * v_of[b]
            tau2 = tau * (1.0 - f_u)
            bound = acc + step
            if objective == "penalized":
                bound += closing_penalty(svc, tau2)
            else:
                if (1.0 - tau2) > caps[svc] + PROB_TOL:
                    continue
            if bound >= best["objective"]:
                continue
            remaining[m] -= d
            if b is not None:
                remaining[b] -= d
            per_service.append((m, b))
            search(svc, u + 1, acc + step, tau2, (m, b), chosen)
            per_service.pop()
            remaining[m] += d
            if b is not None:
                remaining[b] += d

    per_service: list = []
    chosen_taus: list = []
    search(0, 0, 0.0, 1.0, None, [])

    if best["assign"] is None:
        return OracleResult(False, np.inf, None, (), best["nodes"])

    services = []
    for svc, pairs in enumerate(best["assign"]):
        vnfs = tuple(VnfPlacement(main=m, backup=b) for m, b in pairs)
        services.append(ServicePlacement(type_index=type_indices[svc], vnfs=vnfs))
    plan = PlacementPlan(tuple(services))
    return OracleResult(
        True, best["objective"], plan, tuple(best["failures"]), best["nodes"]
    )
