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
    VnfSpec,
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
    mains: list[int] = field(default_factory=list)
    backups: list[int | None] = field(default_factory=list)

    def placement(self) -> ServicePlacement:
        return ServicePlacement(
            self.type_index,
            tuple(VnfPlacement(m, b) for m, b in zip(self.mains, self.backups)),
        )


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


def _server_charge(infra: Infrastructure, spec: VnfSpec, srv: int) -> float:
    """Server and deployment charge of hosting one VNF on ``srv``."""
    inp = int(infra.server_inp[srv])
    cost = float(np.asarray(spec.demands, dtype=float) @ infra.unit_cost[inp])
    return cost + float(infra.deployment_cost[inp, spec.vnf_type])


def _backup_cost(
    build: ServiceBuild, u: int, srv: int, infra: Infrastructure, catalog: Catalog
) -> float:
    """Placement cost added by giving VNF u a backup on srv."""
    stype = catalog[build.type_index]
    cost = _server_charge(infra, stype.vnfs[u], srv)
    for v in (u - 1, u + 1):
        if 0 <= v < len(build.mains):
            for neighbor in (build.mains[v], build.backups[v]):
                if neighbor is not None:
                    cost += stype.bandwidth * float(infra.link_cost[neighbor, srv])
    return cost


def _release(build: ServiceBuild, idle: np.ndarray, catalog: Catalog) -> None:
    """Return every server the build holds to the idle stock."""
    for u, (main, backup) in enumerate(zip(build.mains, build.backups)):
        for srv in (main, backup):
            if srv is not None:
                idle[srv] += _demand(catalog, build.type_index, u)


def _place_mains(
    l: int, idle: np.ndarray, infra: Infrastructure, catalog: Catalog
) -> ServiceBuild | None:
    """Cheapest-feasible main for each VNF in chain order; None on failure,
    with any partial usage rolled back."""
    stype = catalog[l]
    build = ServiceBuild(l)
    for u, spec in enumerate(stype.vnfs):
        r = _demand(catalog, l, u)
        best = None
        best_cost = np.inf
        for srv in range(infra.num_servers):
            if np.all(idle[srv] >= r):
                cost = _server_charge(infra, spec, srv)
                if build.mains:
                    cost += stype.bandwidth * float(infra.link_cost[build.mains[-1], srv])
                if cost < best_cost:
                    best_cost = cost
                    best = srv
        if best is None:
            _release(build, idle, catalog)
            return None
        idle[best] -= r
        build.mains.append(best)
        build.backups.append(None)
    return build


def _failure_with_backup(
    build: ServiceBuild, u: int, srv: int | None, infra: Infrastructure
) -> float:
    saved = build.backups[u]
    build.backups[u] = srv
    try:
        return service_failure_probability(build.placement().vnfs, infra)
    finally:
        build.backups[u] = saved


def _backup_hosts(
    build: ServiceBuild, u: int, idle: np.ndarray, infra: Infrastructure, catalog: Catalog
) -> list[int]:
    """Servers other than VNF u's main with room for its demand."""
    r = _demand(catalog, build.type_index, u)
    return [
        srv
        for srv in range(infra.num_servers)
        if srv != build.mains[u] and np.all(idle[srv] >= r)
    ]


def _choose_backup(
    build: ServiceBuild, u: int, idle: np.ndarray, infra: Infrastructure, catalog: Catalog
) -> int | None:
    """Cheapest backup that meets the service target, else the most
    reliable feasible server, else None."""
    stype = catalog[build.type_index]
    feasible = _backup_hosts(build, u, idle, infra, catalog)
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
            key=lambda srv: (_backup_cost(build, u, srv, infra, catalog), srv),
        )
    return min(feasible, key=lambda srv: (infra.server_failure(srv), srv))


def _smallest_demand_first(build: ServiceBuild, u: int, infra: Infrastructure, catalog: Catalog) -> int:
    """min_resource: protect the VNF with the smallest total demand first."""
    return int(_demand(catalog, build.type_index, u).sum())


def _least_reliable_first(build: ServiceBuild, u: int, infra: Infrastructure, catalog: Catalog) -> float:
    """min_reliability and redundant_vnf: protect the VNF most likely to fail first."""
    return -infra.server_failure(build.mains[u])


def _protect_ranked(
    build: ServiceBuild,
    idle: np.ndarray,
    infra: Infrastructure,
    catalog: Catalog,
    rank,
    abandon: bool = False,
) -> bool:
    """Back up the backup-less VNF that ``rank`` orders first, ties to the
    lowest index, until the service meets its target. A VNF with no backup
    host is skipped, or with ``abandon`` ends the attempt. Returns whether
    the target was met."""
    stype = catalog[build.type_index]
    blocked: set[int] = set()
    while service_failure_probability(build.placement().vnfs, infra) > stype.failure_cap:
        candidates = [
            u for u in range(len(build.mains))
            if build.backups[u] is None and u not in blocked
        ]
        if not candidates:
            return False
        u = min(candidates, key=lambda u: (rank(build, u, infra, catalog), u))
        srv = _choose_backup(build, u, idle, infra, catalog)
        if srv is None:
            if abandon:
                return False
            blocked.add(u)
            continue
        build.backups[u] = srv
        idle[srv] -= _demand(catalog, build.type_index, u)
    return True


def _protect_cera(
    build: ServiceBuild, idle: np.ndarray, infra: Infrastructure, catalog: Catalog
) -> None:
    """Cost-efficiency driven protection: commit the (VNF, server) pair with
    the best reliability gain per unit of added cost; zero-cost gains rank
    as infinite and go first."""
    stype = catalog[build.type_index]
    while (e := service_failure_probability(build.placement().vnfs, infra)) > stype.failure_cap:
        best = None  # (cim, u, srv)
        for u in range(len(build.mains)):
            if build.backups[u] is not None:
                continue
            for srv in _backup_hosts(build, u, idle, infra, catalog):
                gain = e - _failure_with_backup(build, u, srv, infra)
                cost = _backup_cost(build, u, srv, infra, catalog)
                if cost <= 0.0:
                    cim = np.inf if gain > 0 else 0.0
                else:
                    cim = gain / cost
                if best is None or cim > best[0]:
                    best = (cim, u, srv)
        if best is None:
            return
        _, u, srv = best
        build.backups[u] = srv
        idle[srv] -= _demand(catalog, build.type_index, u)


def _outcome(
    l: int, build: ServiceBuild | None, infra: Infrastructure, catalog: Catalog
) -> BaselineOutcome:
    if build is None:
        return BaselineOutcome(int(l), None, None, None, None)
    placement = build.placement()
    return BaselineOutcome(
        type_index=build.type_index,
        placement=placement,
        cost=service_cost(placement, infra, catalog).total,
        failure_prob=service_failure_probability(placement.vnfs, infra),
        usage=service_usage(placement, infra, catalog),
    )


def run_baseline(
    baseline: BaselineId | str,
    type_indices: Sequence[int],
    ledger: ResourceLedger,
    infra: Infrastructure,
    catalog: Catalog,
) -> list[BaselineOutcome]:
    """Run one backup strategy over the requested services against a ledger
    snapshot. The ledger itself is never mutated.

    A service whose chain of mains cannot be completed is rejected whole.
    ``redundant_vnf`` places and protects each service before the next
    one's mains go in, and abandons a service that cannot reach its
    target; the other strategies place every service's mains first and
    then protect the placed services in request order."""
    baseline = BaselineId(baseline)
    if baseline is BaselineId.TRELLIS_GREEDY:
        raise ValueError("the trellis strategy places whole batches; call place_batch")
    idle = ledger.server_idle.copy()
    if baseline is BaselineId.REDUNDANT_VNF:
        builds = []
        for l in type_indices:
            build = _place_mains(int(l), idle, infra, catalog)
            if build is not None and not _protect_ranked(
                build, idle, infra, catalog, _least_reliable_first, abandon=True
            ):
                # abandoned whole, freeing its capacity for later, typically shorter, chains
                _release(build, idle, catalog)
                build = None
            builds.append(build)
    else:
        builds = [_place_mains(int(l), idle, infra, catalog) for l in type_indices]
        for build in builds:
            if build is None:
                continue
            if baseline is BaselineId.CERA:
                _protect_cera(build, idle, infra, catalog)
            elif baseline is BaselineId.MIN_RESOURCE:
                _protect_ranked(build, idle, infra, catalog, _smallest_demand_first)
            else:
                _protect_ranked(build, idle, infra, catalog, _least_reliable_first)
    return [_outcome(l, build, infra, catalog) for l, build in zip(type_indices, builds)]
