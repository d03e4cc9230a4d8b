"""Static comparison strategies: a shared cheapest-feasible main-server
pass plus four backup-allocation disciplines. All tie-breaks prefer the
lowest index. The per-slot trellis strategy shares the strategy ids but
places through :func:`nfvplace.trellis.place_batch`."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Sequence

import numpy as np

from .model import (
    Catalog,
    Infrastructure,
    ResourceLedger,
    ServicePlacement,
    VnfPlacement,
    service_cost,
    service_failure_probability,
    service_usage,
)


class BaselineId(str, Enum):
    MIN_RESOURCE = "min_resource"
    MIN_RELIABILITY = "min_reliability"
    CERA = "cera"
    REDUNDANT_VNF = "redundant_vnf"
    TRELLIS_GREEDY = "trellis"


@dataclass
class ServiceBuild:
    """Mutable assignment of one service while a strategy works on it."""

    type_index: int
    mains: list[int]
    backups: list[int | None] = field(default_factory=list)

    def __post_init__(self) -> None:
        if not self.backups:
            self.backups = [None] * len(self.mains)

    def placement(self) -> ServicePlacement:
        return ServicePlacement(
            self.type_index,
            tuple(VnfPlacement(m, b) for m, b in zip(self.mains, self.backups)),
        )


@dataclass
class MainAssignment:
    """Result of a placement pass: per-service builds (None = rejected) and
    the idle stock left over."""

    services: list[ServiceBuild | None]
    idle: np.ndarray


@dataclass
class BaselineOutcome:
    """Final verdict for one requested service."""

    type_index: int
    placement: ServicePlacement | None
    cost: float | None
    failure_prob: float | None
    usage: np.ndarray | None

    @property
    def placed(self) -> bool:
        return self.placement is not None


def _demand(catalog: Catalog, l: int, u: int) -> np.ndarray:
    return np.asarray(catalog[l].vnfs[u].demands, dtype=np.int64)


def _main_cost(infra: Infrastructure, catalog: Catalog, l: int, u: int, srv: int, prev: int | None) -> float:
    stype = catalog[l]
    spec = stype.vnfs[u]
    inp = int(infra.server_inp[srv])
    cost = float(np.asarray(spec.demands, dtype=float) @ infra.unit_cost[inp])
    cost += float(infra.deployment_cost[inp, spec.vnf_type])
    if prev is not None:
        cost += stype.bandwidth * float(infra.link_cost[prev, srv])
    return cost


def _place_mains_one(
    l: int, idle: np.ndarray, infra: Infrastructure, catalog: Catalog
) -> ServiceBuild | None:
    """Cheapest-feasible main for each VNF in chain order; None on failure,
    with any partial usage rolled back."""
    mains: list[int] = []
    prev: int | None = None
    for u in range(catalog[l].num_vnfs):
        r = _demand(catalog, l, u)
        best = None
        best_cost = np.inf
        for srv in range(infra.num_servers):
            if np.all(idle[srv] >= r):
                cost = _main_cost(infra, catalog, l, u, srv, prev)
                if cost < best_cost:
                    best_cost = cost
                    best = srv
        if best is None:
            for placed_u, srv in enumerate(mains):
                idle[srv] += _demand(catalog, l, placed_u)
            return None
        idle[best] -= r
        mains.append(best)
        prev = best
    return ServiceBuild(l, mains)


def greedy_main_placement(
    type_indices: Sequence[int],
    ledger: ResourceLedger,
    infra: Infrastructure,
    catalog: Catalog,
) -> MainAssignment:
    """Place main servers for each requested service in order. A service
    whose chain cannot be completed is rejected whole."""
    idle = ledger.server_idle.copy()
    builds = [_place_mains_one(int(l), idle, infra, catalog) for l in type_indices]
    return MainAssignment(builds, idle)


def _failure_with_backup(
    build: ServiceBuild, u: int, srv: int | None, infra: Infrastructure
) -> float:
    saved = build.backups[u]
    build.backups[u] = srv
    try:
        return service_failure_probability(build.placement().vnfs, infra)
    finally:
        build.backups[u] = saved


def _backup_increment_cost(
    build: ServiceBuild, u: int, srv: int, infra: Infrastructure, catalog: Catalog
) -> float:
    """Placement cost added by giving VNF u a backup on srv."""
    stype = catalog[build.type_index]
    spec = stype.vnfs[u]
    inp = int(infra.server_inp[srv])
    cost = float(np.asarray(spec.demands, dtype=float) @ infra.unit_cost[inp])
    cost += float(infra.deployment_cost[inp, spec.vnf_type])
    for v in (u - 1, u + 1):
        if 0 <= v < len(build.mains):
            for neighbor in (build.mains[v], build.backups[v]):
                if neighbor is not None:
                    cost += stype.bandwidth * float(infra.link_cost[neighbor, srv])
    return cost


def _choose_backup(
    build: ServiceBuild, u: int, idle: np.ndarray, infra: Infrastructure, catalog: Catalog
) -> int | None:
    """Cheapest backup that meets the service target, else the most
    reliable feasible server, else None."""
    stype = catalog[build.type_index]
    r = _demand(catalog, build.type_index, u)
    feasible = [
        srv
        for srv in range(infra.num_servers)
        if srv != build.mains[u] and np.all(idle[srv] >= r)
    ]
    if not feasible:
        return None
    sufficient = [
        srv
        for srv in feasible
        if _failure_with_backup(build, u, srv, infra) <= stype.failure_cap
    ]
    if sufficient:
        return min(
            sufficient,
            key=lambda srv: (_backup_increment_cost(build, u, srv, infra, catalog), srv),
        )
    return min(feasible, key=lambda srv: (infra.server_failure(srv), srv))


def _backup_pass(
    assignment: MainAssignment,
    infra: Infrastructure,
    catalog: Catalog,
    pick_vnf,
) -> MainAssignment:
    """Shared loop: repeatedly pick a backup-less VNF and protect it until
    the service meets its target or no VNF can be protected."""
    idle = assignment.idle
    for build in assignment.services:
        if build is None:
            continue
        stype = catalog[build.type_index]
        blocked: set[int] = set()
        while True:
            e = service_failure_probability(build.placement().vnfs, infra)
            if e <= stype.failure_cap:
                break
            candidates = [
                u for u in range(len(build.mains))
                if build.backups[u] is None and u not in blocked
            ]
            if not candidates:
                break
            u = pick_vnf(build, candidates, infra, catalog)
            srv = _choose_backup(build, u, idle, infra, catalog)
            if srv is None:
                blocked.add(u)
                continue
            build.backups[u] = srv
            idle[srv] -= _demand(catalog, build.type_index, u)
    return assignment


def min_resource_backup(
    assignment: MainAssignment, infra: Infrastructure, catalog: Catalog
) -> MainAssignment:
    """Protect the VNF with the smallest total demand first."""

    def pick(build, candidates, infra_, catalog_):
        return min(
            candidates,
            key=lambda u: (int(_demand(catalog_, build.type_index, u).sum()), u),
        )

    return _backup_pass(assignment, infra, catalog, pick)


def min_reliability_backup(
    assignment: MainAssignment, infra: Infrastructure, catalog: Catalog
) -> MainAssignment:
    """Protect the VNF most likely to fail first."""

    def pick(build, candidates, infra_, catalog_):
        return min(
            candidates,
            key=lambda u: (-infra_.server_failure(build.mains[u]), u),
        )

    return _backup_pass(assignment, infra, catalog, pick)


def cera_backup(
    assignment: MainAssignment, infra: Infrastructure, catalog: Catalog
) -> MainAssignment:
    """Cost-efficiency driven protection: commit the (VNF, server) pair with
    the best reliability gain per unit of added cost; zero-cost gains rank
    as infinite and go first."""
    idle = assignment.idle
    for build in assignment.services:
        if build is None:
            continue
        stype = catalog[build.type_index]
        while True:
            e = service_failure_probability(build.placement().vnfs, infra)
            if e <= stype.failure_cap:
                break
            best = None  # (cim, u, srv)
            for u in range(len(build.mains)):
                if build.backups[u] is not None:
                    continue
                r = _demand(catalog, build.type_index, u)
                for srv in range(infra.num_servers):
                    if srv == build.mains[u] or not np.all(idle[srv] >= r):
                        continue
                    gain = e - _failure_with_backup(build, u, srv, infra)
                    cost = _backup_increment_cost(build, u, srv, infra, catalog)
                    if cost <= 0.0:
                        cim = np.inf if gain > 0 else 0.0
                    else:
                        cim = gain / cost
                    if best is None or cim > best[0]:
                        best = (cim, u, srv)
            if best is None:
                break
            _, u, srv = best
            build.backups[u] = srv
            idle[srv] -= _demand(catalog, build.type_index, u)
    return assignment


def redundant_vnf_place(
    type_indices: Sequence[int],
    ledger: ResourceLedger,
    infra: Infrastructure,
    catalog: Catalog,
) -> MainAssignment:
    """Joint main-and-backup placement per service: mains go in greedily,
    then the least reliable VNF is protected until the target holds. A
    service that cannot reach its target is abandoned and fully rolled
    back, freeing the capacity for later, typically shorter, chains."""
    idle = ledger.server_idle.copy()
    builds: list[ServiceBuild | None] = []
    for l in type_indices:
        l = int(l)
        build = _place_mains_one(l, idle, infra, catalog)
        if build is None:
            builds.append(None)
            continue
        stype = catalog[l]
        abandoned = False
        while True:
            e = service_failure_probability(build.placement().vnfs, infra)
            if e <= stype.failure_cap:
                break
            candidates = [u for u in range(len(build.mains)) if build.backups[u] is None]
            if not candidates:
                abandoned = True
                break
            u = min(candidates, key=lambda u: (-infra.server_failure(build.mains[u]), u))
            srv = _choose_backup(build, u, idle, infra, catalog)
            if srv is None:
                abandoned = True
                break
            build.backups[u] = srv
            idle[srv] -= _demand(catalog, l, u)
        if abandoned:
            for u, srv in enumerate(build.mains):
                idle[srv] += _demand(catalog, l, u)
            for u, srv in enumerate(build.backups):
                if srv is not None:
                    idle[srv] += _demand(catalog, l, u)
            builds.append(None)
        else:
            builds.append(build)
    return MainAssignment(builds, idle)


def finalize(
    assignment: MainAssignment, infra: Infrastructure, catalog: Catalog,
    type_indices: Sequence[int],
) -> list[BaselineOutcome]:
    outcomes: list[BaselineOutcome] = []
    for l, build in zip(type_indices, assignment.services):
        if build is None:
            outcomes.append(BaselineOutcome(int(l), None, None, None, None))
            continue
        placement = build.placement()
        outcomes.append(
            BaselineOutcome(
                type_index=build.type_index,
                placement=placement,
                cost=service_cost(placement, infra, catalog).total,
                failure_prob=service_failure_probability(placement.vnfs, infra),
                usage=service_usage(placement, infra, catalog),
            )
        )
    return outcomes


def run_baseline(
    baseline: BaselineId | str,
    type_indices: Sequence[int],
    ledger: ResourceLedger,
    infra: Infrastructure,
    catalog: Catalog,
) -> list[BaselineOutcome]:
    """Run one backup strategy over the requested services against a ledger
    snapshot. The ledger itself is never mutated."""
    baseline = BaselineId(baseline)
    if baseline is BaselineId.TRELLIS_GREEDY:
        raise ValueError("the trellis strategy places whole batches; call place_batch")
    if baseline is BaselineId.REDUNDANT_VNF:
        assignment = redundant_vnf_place(type_indices, ledger, infra, catalog)
        return finalize(assignment, infra, catalog, type_indices)

    assignment = greedy_main_placement(type_indices, ledger, infra, catalog)
    if baseline is BaselineId.MIN_RESOURCE:
        assignment = min_resource_backup(assignment, infra, catalog)
    elif baseline is BaselineId.MIN_RELIABILITY:
        assignment = min_reliability_backup(assignment, infra, catalog)
    elif baseline is BaselineId.CERA:
        assignment = cera_backup(assignment, infra, catalog)
    return finalize(assignment, infra, catalog, type_indices)
