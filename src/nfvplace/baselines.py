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


class BaselineTables:
    """Per-setup lookups the baselines read on every scan, built once from
    ``(infra, catalog)``: the int64 demand row and the per-server charge
    list of each (type, VNF), the per-server failure list and the link
    table as lists.

    A charge is ``d @ unit_cost[inp] + deployment_cost[inp, vnf_type]``
    with ``d`` the float demand row, a dot product per provider. The
    trellis forms the same charge as ``unit_cost @ d``; with more than one
    resource the two can differ in the last bits, so the tables are not
    shared with it."""

    def __init__(self, infra: Infrastructure, catalog: Catalog) -> None:
        self.infra = infra
        self.catalog = catalog
        inps = infra.server_inp.tolist()
        self.demands: list[list[np.ndarray]] = []
        self.charges: list[list[list[float]]] = []
        for stype in catalog:
            self.demands.append([np.asarray(spec.demands, dtype=np.int64) for spec in stype.vnfs])
            rows = []
            for spec in stype.vnfs:
                d = np.asarray(spec.demands, dtype=float)
                per_inp = [
                    float(d @ infra.unit_cost[i]) + float(infra.deployment_cost[i, spec.vnf_type])
                    for i in range(infra.num_inps)
                ]
                rows.append([per_inp[i] for i in inps])
            self.charges.append(rows)
        self.failure = [infra.server_failure(srv) for srv in range(infra.num_servers)]
        self.link = infra.link_cost.tolist()


def _backup_cost(build: ServiceBuild, u: int, srv: int, tables: BaselineTables) -> float:
    """Placement cost added by giving VNF u a backup on srv."""
    bandwidth = tables.catalog[build.type_index].bandwidth
    cost = tables.charges[build.type_index][u][srv]
    for v in (u - 1, u + 1):
        if 0 <= v < len(build.mains):
            for neighbor in (build.mains[v], build.backups[v]):
                if neighbor is not None:
                    cost += bandwidth * tables.link[neighbor][srv]
    return cost


def _release(build: ServiceBuild, idle: np.ndarray, tables: BaselineTables) -> None:
    """Return every server the build holds to the idle stock."""
    demands = tables.demands[build.type_index]
    for u, (main, backup) in enumerate(zip(build.mains, build.backups)):
        for srv in (main, backup):
            if srv is not None:
                idle[srv] += demands[u]


def _place_mains(l: int, idle: np.ndarray, tables: BaselineTables) -> ServiceBuild | None:
    """Cheapest-feasible main for each VNF in chain order; None on failure,
    with any partial usage rolled back."""
    bandwidth = tables.catalog[l].bandwidth
    build = ServiceBuild(l)
    for r, charge in zip(tables.demands[l], tables.charges[l]):
        link = tables.link[build.mains[-1]] if build.mains else None
        best = None
        best_cost = np.inf
        for srv, fits in enumerate((idle >= r).all(axis=1).tolist()):
            if fits:
                cost = charge[srv]
                if link is not None:
                    cost += bandwidth * link[srv]
                if cost < best_cost:
                    best_cost = cost
                    best = srv
        if best is None:
            _release(build, idle, tables)
            return None
        idle[best] -= r
        build.mains.append(best)
        build.backups.append(None)
    return build


def _failure(build: ServiceBuild, failure: list[float]) -> float:
    """:func:`service_failure_probability` of the build, read from the
    failure list in the same float order."""
    up = 1.0
    for main, backup in zip(build.mains, build.backups):
        f = failure[main]
        if backup is not None:
            if backup == main:
                raise ValueError("backup server must differ from the main server")
            f *= failure[backup]
        up *= 1.0 - f
    return 1.0 - up


def _backup_probe(build: ServiceBuild, failure: list[float]):
    """``probe(u, srv)``: the failure probability of the build with VNF u,
    which has no backup yet, backed up on ``srv``, in :func:`_failure`'s
    float order. The chain's per-VNF survival factors and their
    left-to-right prefix products are formed once per protect step, so a
    probe multiplies only from VNF u on."""
    factors = []
    prefix = [1.0]
    for main, backup in zip(build.mains, build.backups):
        f = failure[main]
        if backup is not None:
            f *= failure[backup]
        factors.append(1.0 - f)
        prefix.append(prefix[-1] * factors[-1])

    def probe(u: int, srv: int) -> float:
        up = prefix[u] * (1.0 - failure[build.mains[u]] * failure[srv])
        for factor in factors[u + 1:]:
            up *= factor
        return 1.0 - up

    return probe


def _backup_hosts(
    build: ServiceBuild, u: int, idle: np.ndarray, tables: BaselineTables
) -> list[int]:
    """Servers other than VNF u's main with room for its demand."""
    r = tables.demands[build.type_index][u]
    main = build.mains[u]
    return [
        srv
        for srv, fits in enumerate((idle >= r).all(axis=1).tolist())
        if fits and srv != main
    ]


def _choose_backup(
    build: ServiceBuild, u: int, idle: np.ndarray, tables: BaselineTables
) -> int | None:
    """Cheapest backup that meets the service target, else the most
    reliable feasible server, else None."""
    failure_cap = tables.catalog[build.type_index].failure_cap
    feasible = _backup_hosts(build, u, idle, tables)
    if not feasible:
        return None
    probe = _backup_probe(build, tables.failure)
    sufficient = [srv for srv in feasible if probe(u, srv) <= failure_cap]
    if sufficient:
        return min(sufficient, key=lambda srv: (_backup_cost(build, u, srv, tables), srv))
    return min(feasible, key=lambda srv: (tables.failure[srv], srv))


def _smallest_demand_first(build: ServiceBuild, u: int, tables: BaselineTables) -> int:
    """min_resource: protect the VNF with the smallest total demand first."""
    return int(tables.demands[build.type_index][u].sum())


def _least_reliable_first(build: ServiceBuild, u: int, tables: BaselineTables) -> float:
    """min_reliability and redundant_vnf: protect the VNF most likely to fail first."""
    return -tables.failure[build.mains[u]]


def _protect_ranked(
    build: ServiceBuild,
    idle: np.ndarray,
    tables: BaselineTables,
    rank,
    abandon: bool = False,
) -> bool:
    """Back up the backup-less VNF that ``rank`` orders first, ties to the
    lowest index, until the service meets its target. A VNF with no backup
    host is skipped, or with ``abandon`` ends the attempt. Returns whether
    the target was met."""
    failure_cap = tables.catalog[build.type_index].failure_cap
    blocked: set[int] = set()
    while _failure(build, tables.failure) > failure_cap:
        candidates = [
            u for u in range(len(build.mains))
            if build.backups[u] is None and u not in blocked
        ]
        if not candidates:
            return False
        u = min(candidates, key=lambda u: (rank(build, u, tables), u))
        srv = _choose_backup(build, u, idle, tables)
        if srv is None:
            if abandon:
                return False
            blocked.add(u)
            continue
        build.backups[u] = srv
        idle[srv] -= tables.demands[build.type_index][u]
    return True


def _protect_cera(build: ServiceBuild, idle: np.ndarray, tables: BaselineTables) -> None:
    """Cost-efficiency driven protection: commit the (VNF, server) pair with
    the best reliability gain per unit of added cost; zero-cost gains rank
    as infinite and go first."""
    failure_cap = tables.catalog[build.type_index].failure_cap
    while (e := _failure(build, tables.failure)) > failure_cap:
        best = None  # (cim, u, srv)
        probe = _backup_probe(build, tables.failure)
        for u in range(len(build.mains)):
            if build.backups[u] is not None:
                continue
            for srv in _backup_hosts(build, u, idle, tables):
                gain = e - probe(u, srv)
                cost = _backup_cost(build, u, srv, tables)
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
        idle[srv] -= tables.demands[build.type_index][u]


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
    *,
    tables: BaselineTables | None = None,
) -> list[BaselineOutcome]:
    """Run one backup strategy over the requested services against a ledger
    snapshot. The ledger itself is never mutated.

    ``tables`` are the setup's :class:`BaselineTables`; a caller that runs
    many requests on one setup builds them once and passes them in, and
    without them they are built for this call.

    A service whose chain of mains cannot be completed is rejected whole.
    ``redundant_vnf`` places and protects each service before the next
    one's mains go in, and abandons a service that cannot reach its
    target; the other strategies place every service's mains first and
    then protect the placed services in request order."""
    baseline = BaselineId(baseline)
    if baseline is BaselineId.TRELLIS_GREEDY:
        raise ValueError("the trellis strategy places whole batches; call place_batch")
    if tables is None:
        tables = BaselineTables(infra, catalog)
    elif tables.infra is not infra or tables.catalog is not catalog:
        raise ValueError("baseline tables were built for another infrastructure or catalog")
    idle = ledger.server_idle.copy()
    if baseline is BaselineId.REDUNDANT_VNF:
        builds = []
        for l in type_indices:
            build = _place_mains(int(l), idle, tables)
            if build is not None and not _protect_ranked(
                build, idle, tables, _least_reliable_first, abandon=True
            ):
                # abandoned whole, freeing its capacity for later, typically shorter, chains
                _release(build, idle, tables)
                build = None
            builds.append(build)
    else:
        builds = [_place_mains(int(l), idle, tables) for l in type_indices]
        for build in builds:
            if build is None:
                continue
            if baseline is BaselineId.CERA:
                _protect_cera(build, idle, tables)
            elif baseline is BaselineId.MIN_RESOURCE:
                _protect_ranked(build, idle, tables, _smallest_demand_first)
            else:
                _protect_ranked(build, idle, tables, _least_reliable_first)
    return [_outcome(l, build, infra, catalog) for l, build in zip(type_indices, builds)]
