"""Static comparison strategies: a shared cheapest-feasible main-server
pass plus four backup-allocation disciplines. All tie-breaks prefer the
lowest index. The per-slot trellis strategy shares the strategy ids but
places through :func:`nfvplace.trellis.place_batch`."""

from __future__ import annotations

import math
from array import array
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
    check_type_indices,
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
    ``(infra, catalog)``: per type the demand totals; per (type, VNF)
    per-server lists of the server term ``d @ unit_cost[inp]`` (``d`` the
    float demand row), the deployment term and their sum, the charge, each
    formed as :func:`service_cost` forms it; the per-server failure and
    provider lists, the servers by ``(failure, index)`` and the link table
    as lists. The trellis forms the server term as ``unit_cost @ d``; with
    more than one resource the two can differ in the last bits, so it has
    its own."""

    def __init__(self, infra: Infrastructure, catalog: Catalog) -> None:
        self.infra = infra
        self.catalog = catalog
        inps = infra.server_inp.tolist()
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
        # a stable sort: ties keep the lower index first
        self.reliability_order = array("I", sorted(range(infra.num_servers), key=self.failure.__getitem__))
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


def _first_fit(
    order: Sequence[int], idle: Stock, demand: tuple[int, ...], skip: int = -1
) -> int | None:
    """The first server in ``order``, other than ``skip``, whose idle stock
    covers ``demand``; None when there is none."""
    column, *columns = idle
    need, *needs = demand
    for srv in order:
        if column[srv] >= need and srv != skip:
            for rest, d in zip(columns, needs):
                if rest[srv] < d:
                    break
            else:
                return srv
    return None


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
        order = tables.main_order(l, u, build.mains[-1] if build.mains else 0)
        best = _first_fit(order, idle, spec.demands)
        if best is None:
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


def _provider_failures(
    build: ServiceBuild, u: int, factors: list[float], tables: BaselineTables
) -> list[float]:
    """Per provider, the build's failure probability with VNF u, which has
    no backup yet, backed up on one of its servers, from the build's
    survival ``factors`` in their order. A host's figure depends on it only
    through its provider's failure probability ``v``, and every rounding
    step of ``1 - head * (1 - f_main * v) * tail`` is monotone with every
    operand in [0, 1], so the figure never falls as ``v`` rises."""
    head, tail = math.prod(factors[:u]), factors[u + 1:]
    f_main = tables.failure[build.mains[u]]
    # math.prod multiplies floats left to right, as a factor-by-factor pass would
    return [1.0 - math.prod(tail, start=head * (1.0 - f_main * v)) for v in tables.inp_failure]


def _backup_hosts(build: ServiceBuild, u: int, idle: Stock, tables: BaselineTables) -> list[int]:
    """Servers other than VNF u's main with room for its demand."""
    main = build.mains[u]
    demand = tables.catalog[build.type_index].vnfs[u].demands
    hosts = [srv for srv, x in enumerate(idle[0]) if x >= demand[0] and srv != main]
    for column, d in zip(idle[1:], demand[1:]):
        hosts = [srv for srv in hosts if column[srv] >= d]
    return hosts


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
    reliable feasible server, ties to the lowest index, else None. No host
    has a lower figure than the most reliable one (see
    :func:`_provider_failures`), so when it misses the target every host
    does, and hosts are listed and priced only when it meets the target."""
    stype = tables.catalog[build.type_index]
    first = _first_fit(tables.reliability_order, idle, stype.vnfs[u].demands, build.mains[u])
    if first is None:
        return None
    failure_cap, inps = stype.failure_cap, tables.inps
    failures = _provider_failures(build, u, factors, tables)
    if failures[inps[first]] > failure_cap:
        return first
    sufficient = [srv for srv in _backup_hosts(build, u, idle, tables)
                  if failures[inps[srv]] <= failure_cap]
    return min(zip(_backup_prices(build, u, sufficient, tables), sufficient))[1]


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
    every step. A backup forms only its VNF's survival factor and their
    product again, as :func:`_survival` forms them."""
    failure_cap, failure = tables.catalog[build.type_index].failure_cap, tables.failure
    e, factors = _survival(build, failure)
    for u in sorted(range(len(build.mains)), key=lambda u: (rank(build, u, tables), u)):
        if e <= failure_cap:
            return True
        srv = _choose_backup(build, u, factors, idle, tables)
        if srv is None:
            if abandon:
                return False
            continue
        build.backups[u] = srv
        _take(idle, srv, tables.catalog[build.type_index].vnfs[u].demands)
        factors[u] = 1.0 - failure[build.mains[u]] * failure[srv]
        e = 1.0 - math.prod(factors)
    return e <= failure_cap


def _protect_cera(build: ServiceBuild, idle: Stock, tables: BaselineTables) -> None:
    """Cost-efficiency driven protection: commit the (VNF, server) pair with
    the best reliability gain per unit of added cost, the first such pair in
    (VNF, host) order; zero-cost gains rank as infinite and go first.
    Survival is kept as in :func:`_protect_ranked`. Each open VNF's hosts
    and prices are listed once per build. Idle stock only falls here, so a
    commit can drop only its own server from another VNF's hosts, and it
    moves only its two neighbours' prices, which are formed again: a price
    sums its link rows in an order a new row cannot be patched into."""
    stype = tables.catalog[build.type_index]
    failure_cap, failure, inps = stype.failure_cap, tables.failure, tables.inps
    e, factors = _survival(build, failure)
    if e <= failure_cap:
        return
    # per open VNF with a host, in VNF order: its hosts and their prices
    options = {}
    for u, backup in enumerate(build.backups):
        if backup is None and (hosts := _backup_hosts(build, u, idle, tables)):
            options[u] = (hosts, _backup_prices(build, u, hosts, tables))
    while e > failure_cap and options:
        best_u = best_srv = None
        best_cim = 0.0
        for u, (hosts, prices) in options.items():
            failures = _provider_failures(build, u, factors, tables)
            for srv, cost in zip(hosts, prices):
                gain = e - failures[inps[srv]]
                if cost <= 0.0:
                    cim = math.inf if gain > 0 else 0.0
                else:
                    cim = gain / cost
                if best_u is None or cim > best_cim:
                    best_cim, best_u, best_srv = cim, u, srv
        u, srv = best_u, best_srv
        build.backups[u] = srv
        _take(idle, srv, stype.vnfs[u].demands)
        factors[u] = 1.0 - failure[build.mains[u]] * failure[srv]
        e = 1.0 - math.prod(factors)
        del options[u]
        for v, (hosts, prices) in list(options.items()):
            demand = stype.vnfs[v].demands
            if srv in hosts and any(column[srv] < d for column, d in zip(idle, demand)):
                k = hosts.index(srv)
                del hosts[k], prices[k]
                if not hosts:
                    del options[v]
                    continue
            if v == u - 1 or v == u + 1:
                options[v] = (hosts, _backup_prices(build, v, hosts, tables))


def _outcomes(
    type_indices: list[int], builds: list[ServiceBuild | None], tables: BaselineTables
) -> list[BaselineOutcome]:
    """Each build's figures: its cost summed from the table terms in
    :func:`service_cost`'s accumulators and order, and its usage, row k of
    one int64 (placed, S, R) table for the k-th placed build. The table is
    one flat list of Python ints, each VNF's demand tuple added at its
    main's and its backup's servers, made one array at the end."""
    infra, link = tables.infra, tables.link
    n, r = infra.num_servers, infra.num_resources
    usage: list[int] = []
    outcomes, placed = [], []
    for l, build in zip(type_indices, builds):
        if build is None:
            outcomes.append(BaselineOutcome(l, None, None, None, None))
            continue
        bandwidth = tables.catalog[l].bandwidth
        offset = len(usage)
        usage += [0] * (n * r)
        server = forward = deploy = 0.0
        prev: tuple[int, ...] = ()
        vnfs = tables.catalog[l].vnfs
        for main, backup, spec, server_terms, deploy_terms in zip(
            build.mains, build.backups, vnfs, tables.server_terms[l], tables.deploy_terms[l]
        ):
            hosts = (main,) if backup is None else (main, backup)
            for srv in hosts:
                server += server_terms[srv]
                deploy += deploy_terms[srv]
                for at, d in enumerate(spec.demands, offset + srv * r):
                    usage[at] += d
            for a in prev:
                for b in hosts:
                    forward += bandwidth * link[a][b]
            prev = hosts
        placement = ServicePlacement(l, tuple(map(VnfPlacement, build.mains, build.backups)))
        outcome = BaselineOutcome(
            l, placement, server + forward + deploy,
            service_failure_probability(placement.vnfs, infra), None,
        )
        outcomes.append(outcome)
        placed.append(outcome)
    if placed:
        rows = np.array(usage, dtype=np.int64).reshape(len(placed), n, r)
        for k, outcome in enumerate(placed):
            outcome.usage = rows[k]
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
    type_indices = check_type_indices(type_indices, catalog)
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
