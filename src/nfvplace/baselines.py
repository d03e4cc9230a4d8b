"""Static comparison strategies: a shared cheapest-feasible main-server
pass plus four backup-allocation disciplines. All tie-breaks prefer the
lowest index. The per-slot trellis strategy shares the strategy ids but
places through :func:`nfvplace.trellis.place_batch`."""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from enum import Enum
from itertools import accumulate
from typing import Sequence

import numpy as np

from .model import (
    Catalog,
    Infrastructure,
    ResourceLedger,
    ServicePlacement,
    VnfPlacement,
    service_failure_probability,
)


# an idle stock as the baselines work on it: one list per resource, one int
# per server, so every check and update is plain integer arithmetic
Stock = list[list[int]]


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
    ``(infra, catalog)``: one int64 table of every (type, VNF) demand row,
    in catalog order, and the row of each type's first VNF; per type the
    demand totals; per (type, VNF) per-server lists of the server term ``d
    @ unit_cost[inp]`` (``d`` the float demand row), the deployment term and
    their sum, the charge, each formed as :func:`service_cost` forms it;
    the per-server failure and provider lists and the link table as lists.
    The trellis forms the server term as ``unit_cost @ d``; with more than
    one resource the two can differ in the last bits, so it has its own."""

    def __init__(self, infra: Infrastructure, catalog: Catalog) -> None:
        self.infra = infra
        self.catalog = catalog
        inps = infra.server_inp.tolist()
        self.demand_rows = np.array([v.demands for t in catalog for v in t.vnfs], dtype=np.int64)
        self.first_row = list(accumulate((t.num_vnfs for t in catalog[:-1]), initial=0))
        self.demand_sums = [[sum(v.demands) for v in t.vnfs] for t in catalog]
        self.server_terms = [
            [[float(np.asarray(v.demands, dtype=float) @ infra.unit_cost[i]) for i in inps] for v in t.vnfs]
            for t in catalog
        ]
        self.deploy_terms = [
            [[float(infra.deployment_cost[i, v.vnf_type]) for i in inps] for v in t.vnfs] for t in catalog
        ]
        self.charges = [
            [[a + b for a, b in zip(*rows)] for rows in zip(*terms)]
            for terms in zip(self.server_terms, self.deploy_terms)
        ]
        self.failure = [infra.server_failure(srv) for srv in range(infra.num_servers)]
        self.inps, self.inp_failure = inps, infra.v.tolist()
        self.link = infra.link_cost.tolist()
        self._main_orders = [[[None] * infra.num_servers for _ in t.vnfs] for t in catalog]

    def main_order(self, l: int, u: int, prev: int) -> array:
        """Servers by the cost of VNF u of type l as a main, after a main on
        ``prev`` when u > 0, ties to the lowest index, without the infinite
        or NaN costs a strict-``<`` scan never picks. Built on first use
        and kept compact: a run's tables live as long as the run."""
        orders = self._main_orders[l][u]
        if orders[prev] is None:
            costs = self.charges[l][u]
            if u:
                bandwidth = self.catalog[l].bandwidth
                costs = [c + bandwidth * x for c, x in zip(costs, self.link[prev])]
            hosts = (srv for srv, c in enumerate(costs) if c < math.inf)
            orders[prev] = array("I", sorted(hosts, key=costs.__getitem__))
        return orders[prev]


def _fits(idle: Stock, srv: int, demand: tuple[int, ...]) -> bool:
    """Whether server ``srv``'s idle stock covers ``demand``."""
    for column, d in zip(idle, demand):
        if column[srv] < d:
            return False
    return True


def _take(idle: Stock, srv: int, demand: tuple[int, ...]) -> None:
    """Draw ``demand`` from server ``srv``'s idle stock."""
    for column, d in zip(idle, demand):
        column[srv] -= d


def _release(build: ServiceBuild, idle: Stock, tables: BaselineTables) -> None:
    """Return every server the build holds to the idle stock."""
    vnfs = tables.catalog[build.type_index].vnfs
    for spec, main, backup in zip(vnfs, build.mains, build.backups):
        for srv in (main, backup):
            if srv is not None:
                for column, d in zip(idle, spec.demands):
                    column[srv] += d


def _place_mains(l: int, idle: Stock, tables: BaselineTables) -> ServiceBuild | None:
    """Cheapest-feasible main for each VNF in chain order: the first server
    in its cost order with room. None on failure, with any partial usage
    rolled back."""
    build = ServiceBuild(l)
    for u, spec in enumerate(tables.catalog[l].vnfs):
        for best in tables.main_order(l, u, build.mains[-1] if build.mains else 0):
            if _fits(idle, best, spec.demands):
                break
        else:
            _release(build, idle, tables)
            return None
        _take(idle, best, spec.demands)
        build.mains.append(best)
        build.backups.append(None)
    return build


def _survival(build: ServiceBuild, failure: list[float]) -> tuple[float, list[float]]:
    """The build's failure probability and each VNF's survival factor,
    ``1 - f`` with ``f`` its main's failure probability times its backup's,
    in :func:`service_failure_probability`'s float order."""
    factors = [1.0 - (failure[m] if b is None else failure[m] * failure[b])
               for m, b in zip(build.mains, build.backups)]
    return 1.0 - math.prod(factors), factors


def _backup_scan(
    build: ServiceBuild, u: int, factors: list[float], idle: Stock, tables: BaselineTables
) -> tuple[list[int], list[float]]:
    """Servers other than VNF u's main with room for its demand, and the
    build's failure probability with VNF u, which has no backup yet, backed
    up on each, from the build's survival ``factors`` in their order."""
    main = build.mains[u]
    head = math.prod(factors[:u])
    # a host's figure depends on it only through its provider's failure
    # probability, so it is formed once per provider
    ups = [head * (1.0 - tables.failure[main] * v) for v in tables.inp_failure]
    for factor in factors[u + 1:]:
        ups = [up * factor for up in ups]
    demand = tables.catalog[build.type_index].vnfs[u].demands
    hosts = [srv for srv, x in enumerate(idle[0]) if x >= demand[0] and srv != main]
    for column, d in zip(idle[1:], demand[1:]):
        hosts = [srv for srv in hosts if column[srv] >= d]
    return hosts, [1.0 - ups[tables.inps[srv]] for srv in hosts]


def _backup_prices(
    build: ServiceBuild, u: int, hosts: list[int], tables: BaselineTables
) -> list[float]:
    """Placement cost added by giving VNF u a backup on each of ``hosts``:
    its charge plus the links to VNF u - 1's and u + 1's servers, in order."""
    bandwidth = tables.catalog[build.type_index].bandwidth
    charge = tables.charges[build.type_index][u]
    rows = [tables.link[srv] for v in (u - 1, u + 1) if 0 <= v < len(build.mains)
            for srv in (build.mains[v], build.backups[v]) if srv is not None]
    prices = [charge[srv] for srv in hosts]
    for row in rows:
        prices = [cost + bandwidth * row[srv] for cost, srv in zip(prices, hosts)]
    return prices


def _choose_backup(
    build: ServiceBuild, u: int, factors: list[float], idle: Stock, tables: BaselineTables
) -> int | None:
    """Cheapest backup that meets the service target, else the most
    reliable feasible server, else None."""
    failure_cap = tables.catalog[build.type_index].failure_cap
    hosts, failures = _backup_scan(build, u, factors, idle, tables)
    if not hosts:
        return None
    sufficient = [srv for srv, e in zip(hosts, failures) if e <= failure_cap]
    if sufficient:
        return min(zip(_backup_prices(build, u, sufficient, tables), sufficient))[1]
    return min((tables.failure[srv], srv) for srv in hosts)[1]


def _smallest_demand_first(build: ServiceBuild, u: int, tables: BaselineTables) -> int:
    """min_resource: protect the VNF with the smallest total demand first."""
    return tables.demand_sums[build.type_index][u]


def _least_reliable_first(build: ServiceBuild, u: int, tables: BaselineTables) -> float:
    """min_reliability and redundant_vnf: protect the VNF most likely to fail first."""
    return -tables.failure[build.mains[u]]


def _protect_ranked(
    build: ServiceBuild,
    idle: Stock,
    tables: BaselineTables,
    rank,
    abandon: bool = False,
) -> bool:
    """Back up the VNFs of a build that has no backups yet in ``rank``
    order, ties to the lowest index, until the service meets its target. A
    VNF with no backup host is skipped, or with ``abandon`` ends the
    attempt. Returns whether the target was met. A rank reads only mains
    and demands, which backups leave as they are, so one order serves
    every step."""
    failure_cap = tables.catalog[build.type_index].failure_cap
    for u in sorted(range(len(build.mains)), key=lambda u: (rank(build, u, tables), u)):
        e, factors = _survival(build, tables.failure)
        if e <= failure_cap:
            return True
        srv = _choose_backup(build, u, factors, idle, tables)
        if srv is None:
            if abandon:
                return False
            continue
        build.backups[u] = srv
        _take(idle, srv, tables.catalog[build.type_index].vnfs[u].demands)
    return _survival(build, tables.failure)[0] <= failure_cap


def _protect_cera(build: ServiceBuild, idle: Stock, tables: BaselineTables) -> None:
    """Cost-efficiency driven protection: commit the (VNF, server) pair with
    the best reliability gain per unit of added cost; zero-cost gains rank
    as infinite and go first."""
    failure_cap = tables.catalog[build.type_index].failure_cap
    while (survival := _survival(build, tables.failure))[0] > failure_cap:
        e, factors = survival
        best = None  # (cim, u, srv)
        for u in range(len(build.mains)):
            if build.backups[u] is not None:
                continue
            hosts, failures = _backup_scan(build, u, factors, idle, tables)
            for srv, f, cost in zip(hosts, failures, _backup_prices(build, u, hosts, tables)):
                gain = e - f
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
        _take(idle, srv, tables.catalog[build.type_index].vnfs[u].demands)


def _outcomes(
    type_indices: list[int], builds: list[ServiceBuild | None], tables: BaselineTables
) -> list[BaselineOutcome]:
    """Each build's figures: its cost summed from the table terms in
    :func:`service_cost`'s accumulators and order, and its usage, row k of
    one int64 (placed, S, R) table that one scatter-add fills for the k-th
    placed build."""
    infra = tables.infra
    width = infra.num_servers
    outcomes, placed, index, rows = [], [], [], []
    for l, build in zip(type_indices, builds):
        if build is None:
            outcomes.append(BaselineOutcome(l, None, None, None, None))
            continue
        bandwidth = tables.catalog[l].bandwidth
        offset, first = len(placed) * width, tables.first_row[l]
        server = forward = deploy = 0.0
        prev: tuple[int, ...] = ()
        for u, (main, backup) in enumerate(zip(build.mains, build.backups)):
            hosts = (main,) if backup is None else (main, backup)
            for srv in hosts:
                server += tables.server_terms[l][u][srv]
                deploy += tables.deploy_terms[l][u][srv]
                index.append(offset + srv)
                rows.append(first + u)
            for a in prev:
                for b in hosts:
                    forward += bandwidth * tables.link[a][b]
            prev = hosts
        placement = ServicePlacement(l, tuple(map(VnfPlacement, build.mains, build.backups)))
        outcome = BaselineOutcome(
            l, placement, server + forward + deploy,
            service_failure_probability(placement.vnfs, infra), None,
        )
        outcomes.append(outcome)
        placed.append(outcome)
    if placed:
        usage = np.zeros((len(placed), width, infra.num_resources), dtype=np.int64)
        np.add.at(usage.reshape(-1, usage.shape[2]), index, tables.demand_rows.take(rows, axis=0))
        for k, outcome in enumerate(placed):
            outcome.usage = usage[k]
    return outcomes


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
    for l in type_indices:
        if isinstance(l, bool) or not isinstance(l, (int, np.integer)) or not 0 <= l < len(catalog):
            raise ValueError(f"type index {l!r} is not an integer in range({len(catalog)})")
    type_indices = [int(l) for l in type_indices]
    idle: Stock = ledger.server_idle.T.tolist()
    if baseline is BaselineId.REDUNDANT_VNF:
        builds = []
        for l in type_indices:
            build = _place_mains(l, idle, tables)
            if build is not None and not _protect_ranked(
                build, idle, tables, _least_reliable_first, abandon=True
            ):
                # abandoned whole, freeing its capacity for later, typically shorter, chains
                _release(build, idle, tables)
                build = None
            builds.append(build)
    else:
        builds = [_place_mains(l, idle, tables) for l in type_indices]
        for build in builds:
            if build is None:
                continue
            if baseline is BaselineId.CERA:
                _protect_cera(build, idle, tables)
            elif baseline is BaselineId.MIN_RESOURCE:
                _protect_ranked(build, idle, tables, _smallest_demand_first)
            else:
                _protect_ranked(build, idle, tables, _least_reliable_first)
    return _outcomes(type_indices, builds, tables)
