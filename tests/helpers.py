"""Shared builders for the test suite.

Small fixed infrastructures with hand-checkable costs, plus random
instance generators used by the oracle-equivalence and self-consistency
suites. Everything here is deterministic given the caller's rng.
"""

import math
from collections import deque
from dataclasses import dataclass
from itertools import product

import numpy as np

import nfvplace as nv
from nfvplace.baselines import _backup_hosts, _backup_prices, _provider_failures, _survival, _take
from nfvplace.trellis import _traceback


def tiny_two_inps():
    """Two single-server InPs with unit costs 2 and 1.

    beta is calibrated so the v=0.1 provider costs exactly twice the
    v=0.2 provider per unit (exp(beta * 0.1) = 2). One 1-VNF service of
    demand 5 fits either server; the cheapest reliable placement is main
    on the cost-1 server with a backup on the other (failure 0.02).
    """
    beta = math.log(2.0) / 0.1
    infra = nv.Infrastructure(
        [nv.InP(0.1, ((10,),)), nv.InP(0.2, ((10,),))],
        alpha=[1.0],
        beta=beta,
        v_base=0.2,
        deployment_cost=[[0.0], [0.0]],
    )
    svc = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.5,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (5,)),),
        arrival_pmf=(0.5, 0.5),
        admission_reward=100.0,
        sigma_max=2,
        name="tiny",
    )
    return infra, (svc,)


def reduced_setup():
    """Scarce six-server setup with a short and a long service type.

    Three providers at failure rates 0.2 / 0.1 / 0.01; the reliable one
    holds most of the capacity. With beta=1.0 the cost curve is almost
    flat, so single-server placements on the reliable provider are the
    efficient choice. The long type departs slowly (0.05) and hogs three
    servers per admission, which makes selective admission pay off.
    """
    infra = nv.Infrastructure(
        [
            nv.InP(0.2, ((10,), (10,))),
            nv.InP(0.1, ((10,), (10,))),
            nv.InP(0.01, ((20,), (20,))),
        ],
        alpha=[1.0],
        beta=1.0,
        v_base=0.2,
        deployment_cost=[[1.0], [1.0], [1.0]],
        link_cost=np.array(
            [
                [0.0, 0.1, 0.5, 0.5, 0.5, 0.5],
                [0.1, 0.0, 0.5, 0.5, 0.5, 0.5],
                [0.5, 0.5, 0.0, 0.1, 0.5, 0.5],
                [0.5, 0.5, 0.1, 0.0, 0.5, 0.5],
                [0.5, 0.5, 0.5, 0.5, 0.0, 0.1],
                [0.5, 0.5, 0.5, 0.5, 0.1, 0.0],
            ]
        ),
    )
    short = nv.ServiceType(
        failure_cap=0.021,
        departure_prob=0.5,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (5,)),),
        arrival_pmf=(0.3, 0.7),
        admission_reward=1000.0,
        sigma_max=5,
        name="short",
    )
    long = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.05,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,))),
        arrival_pmf=(0.7, 0.3),
        admission_reward=1000.0,
        sigma_max=2,
        name="long",
    )
    return infra, (short, long)


def two_resource_setup():
    """Nine servers over three providers with two resource types, links of
    mixed cost, and three service types of one to three VNFs whose demands
    differ by resource, so a server can fit a VNF on one resource and not
    on the other."""
    servers = np.arange(9)
    link_cost = 0.1 * (np.abs(servers[:, None] - servers[None, :]) % 4)
    infra = nv.Infrastructure(
        [
            nv.InP(0.05, ((12, 20), (12, 20), (12, 20))),
            nv.InP(0.02, ((16, 12), (16, 12), (8, 30))),
            nv.InP(0.01, ((20, 20), (20, 20), (20, 20))),
        ],
        alpha=[0.6, 0.4],
        beta=10.0,
        v_base=0.1,
        deployment_cost=[[1.0, 2.0], [1.5, 1.0], [2.0, 2.5]],
        link_cost=link_cost,
    )
    specs = [
        (0.01, 2.0, ((0, (3, 5)), (1, (6, 2)))),
        (0.03, 1.0, ((1, (2, 2)),)),
        (0.005, 0.5, ((0, (4, 4)), (1, (1, 6)), (0, (5, 1)))),
    ]
    catalog = tuple(
        nv.ServiceType(
            failure_cap=cap,
            departure_prob=0.5,
            bandwidth=bandwidth,
            vnfs=tuple(nv.VnfSpec(t, d) for t, d in vnfs),
            arrival_pmf=(0.5, 0.5),
            admission_reward=100.0,
            sigma_max=2,
            name=f"r{k}",
        )
        for k, (cap, bandwidth, vnfs) in enumerate(specs)
    )
    return infra, catalog


def analytic_setup():
    """Single free server, point-mass arrivals, certain departure.

    All cost weights are zero and one unit-reward service arrives every
    slot, departing after exactly one slot. The admit-always policy then
    earns reward 1 per slot from the arrival state, so its discounted
    value is 1 / (1 - gamma) and can be checked in closed form.
    """
    infra = nv.Infrastructure(
        [nv.InP(0.01, ((10,),))],
        alpha=[0.0],
        beta=1.0,
        v_base=0.01,
        deployment_cost=[[0.0]],
    )
    svc = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=1.0,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (1,)),),
        arrival_pmf=(0.0, 1.0),
        admission_reward=1.0,
        sigma_max=1,
        name="unit",
    )
    return infra, (svc,)


def contraction_setup():
    """Two types, sigma_max 3 and lambda_max 1, with nonzero costs.

    Small enough that value iteration with a tight epsilon runs for a
    long tail of sweeps after the resource estimates have frozen, which
    is the regime where the discounted-update contraction is visible.
    """
    infra = nv.Infrastructure(
        [nv.InP(0.1, ((8,), (8,))), nv.InP(0.02, ((12,), (12,)))],
        alpha=[1.0],
        beta=2.0,
        v_base=0.1,
        deployment_cost=[[1.0], [1.0]],
    )
    a = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.3,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (3,)),),
        arrival_pmf=(0.4, 0.6),
        admission_reward=50.0,
        sigma_max=3,
        name="a",
    )
    b = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.5,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (2,)), nv.VnfSpec(0, (3,))),
        arrival_pmf=(0.5, 0.5),
        admission_reward=50.0,
        sigma_max=3,
        name="b",
    )
    return infra, (a, b)


def random_service_placement(rng, infra, catalog, max_servers=8):
    """Random placement of one random type, no server reuse inside it.

    Each VNF gets a distinct main and, with probability 1/2, a distinct
    backup; the whole service draws from one shuffled server pool so no
    server is assigned twice. Capacity is ignored on purpose: these feed
    pure reliability and cost arithmetic, not feasibility checks.
    """
    l = int(rng.integers(len(catalog)))
    svc = catalog[l]
    pool = rng.permutation(infra.num_servers)
    vnfs = []
    cursor = 0
    for _ in range(svc.num_vnfs):
        main = int(pool[cursor])
        cursor += 1
        backup = None
        if cursor < max_servers and rng.random() < 0.5:
            backup = int(pool[cursor])
            cursor += 1
        vnfs.append(nv.VnfPlacement(main, backup))
        if cursor >= max_servers:
            break
    return nv.ServicePlacement(l, tuple(vnfs))


def random_tiny_instance(rng):
    """Random instance with <= 4 servers, <= 2 services, <= 3 VNFs each.

    Small enough for exhaustive search. Reliability targets are drawn
    wide so some instances are infeasible and some trivially reliable.
    """
    num_inps = int(rng.integers(1, 3))
    inps = []
    for _ in range(num_inps):
        servers = tuple((int(rng.integers(4, 13)),) for _ in range(int(rng.integers(1, 3))))
        inps.append(nv.InP(float(rng.uniform(0.01, 0.3)), servers))
    infra = nv.Infrastructure(
        inps,
        alpha=[1.0],
        beta=float(rng.uniform(0.5, 8.0)),
        v_base=0.3,
        deployment_cost=[[float(rng.uniform(0.0, 2.0))] for _ in range(num_inps)],
    )
    types = []
    for _ in range(int(rng.integers(1, 3))):
        num_vnfs = int(rng.integers(1, 4))
        vnfs = tuple(nv.VnfSpec(0, (int(rng.integers(1, 5)),)) for _ in range(num_vnfs))
        types.append(
            nv.ServiceType(
                failure_cap=float(rng.uniform(0.01, 0.3)),
                departure_prob=0.5,
                bandwidth=1.0,
                vnfs=vnfs,
                arrival_pmf=(0.5, 0.5),
                admission_reward=100.0,
                sigma_max=2,
                name=f"t{len(types)}",
            )
        )
    catalog = tuple(types)
    count = int(rng.integers(1, 3))
    type_indices = [int(rng.integers(len(catalog))) for _ in range(count)]
    return infra, catalog, type_indices


def random_batch_inputs(rng, infra, catalog, max_per_type=2):
    """Random (action, arrangement, snapshot) triple for batch placement.

    The snapshot is drawn between empty and full so depleted servers and
    infeasible batches both occur.
    """
    while True:
        action = tuple(int(rng.integers(0, max_per_type + 1)) for _ in catalog)
        if sum(action) > 0:
            break
    expanded = [l for l, a in enumerate(action) for _ in range(a)]
    arrangement = tuple(int(x) for x in rng.permutation(expanded))
    frac = rng.uniform(0.2, 1.0)
    snapshot = np.floor(infra.capacity * frac).astype(np.int64)
    return action, arrangement, snapshot


@dataclass
class PathState:
    """Survivor record of one trellis state."""

    cost: float
    reliability: float
    remaining: np.ndarray
    path: tuple[int, ...]


def reachable(root, skip=()):
    """Every object reachable from ``root`` through list, tuple and dict
    entries, object attributes and the base of each array view, as a dict
    from id to object; the objects in ``skip`` are not entered."""
    todo, seen, skipped = [root], {}, {id(obj) for obj in skip}
    while todo:
        obj = todo.pop()
        if id(obj) in seen or id(obj) in skipped:
            continue
        seen[id(obj)] = obj
        if isinstance(obj, np.ndarray):
            todo.append(obj.base)  # a view keeps its whole base alive
        elif isinstance(obj, (list, tuple)):
            todo.extend(obj)
        elif isinstance(obj, dict):
            todo.extend(obj.values())
        elif hasattr(obj, "__dict__"):
            todo.append(vars(obj))
    return seen


def context_bytes(context):
    """Bytes of the arrays a :class:`nfvplace.PlacementContext` holds itself
    (its catalog and infrastructure left out, also where its baseline
    tables refer to them), each buffer counted once however many views of
    it the context keeps."""
    return sum(
        obj.nbytes for obj in reachable(context, skip=(context.catalog, context.infra)).values()
        if isinstance(obj, np.ndarray) and obj.base is None
    )


def stage_term(context, l, u):
    """The charge row of VNF u of type l that ``context``'s stage tables
    hold, state 0 first; its main and backup stages share it."""
    return context.stage_tables[l][2 * u][4]


def stage_info(tp):
    """Each stage of ``tp``'s batch as (type, vnf index, backup stage?),
    main before backup."""
    return [
        (l, u, backup) for l in tp.arrangement
        for u, backup, *_ in tp.context.stage_tables[l]
    ]


def best_move(tp, m, preds, x2):
    """Reference add-compare-select for state ``x2`` at stage ``m`` of
    ``tp``, one pair at a time: score the move from each ``(x1, survivor)``
    predecessor and return the best ``(theta, x1, route, tau, hinge)``, ties
    to the first predecessor. ``route`` charges the links ``x2`` creates,
    ``tau`` is the service's chain reliability after the move, ``hinge`` its
    shortfall penalty. The stage kernel forms each float in this order."""
    l, u, backup = stage_info(tp)[m - 1]
    stype = tp.catalog[l]
    link = tp.context.link
    # each state's failure probability; state 0, "no server", always fails
    fail = [1.0] + tp.infra.v[tp.infra.server_inp].tolist()
    bandwidth = stype.bandwidth
    penalty = stype.penalty
    base = stage_term(tp.context, l, u).item(x2)
    v2 = fail[x2]
    target = 1.0 if x2 == 0 else 1.0 - stype.failure_cap
    best = None
    best_theta = np.inf
    for x1, st1 in preds:
        if u == 0:
            route = 0.0
        else:
            # links from the previous vnf's main and backup: the last two
            # choices at a main stage, the two before this vnf's main at a
            # backup stage
            path = st1.path
            route = bandwidth * (
                link.item(path[m - 3], x2) + link.item(path[m - 4] if backup else path[m - 2], x2)
            )
        if not backup:
            tau = (1.0 - v2) if u == 0 else st1.reliability * (1.0 - v2)
        else:
            vm = fail[x1]
            if u == 0:
                tau = 1.0 - vm * v2
            else:
                # swap the trailing main-only factor for the protected one
                tau = st1.reliability * (1.0 - vm * v2) / (1.0 - vm)
        short = target - tau
        hinge = penalty * short if short > 0 else 0.0
        theta = base + route + hinge + st1.cost
        if theta < best_theta:
            best_theta = theta
            best = (theta, x1, route, tau, hinge)
    return best


def survivors(tp, m):
    """Stage ``m`` of a run trellis as a dict from state id to
    :class:`PathState`, for the states of finite cost in ascending order,
    each path traced back through the stage records; ``remaining`` views
    the state's stock row as (servers, resources)."""
    cost, reliability, stock, _ = tp.stages[m]
    shape = (tp.infra.num_servers, tp.infra.num_resources)
    return {
        x: PathState(
            float(cost[x]), float(reliability[x]), stock[x, 1:].reshape(shape),
            _traceback(tp.stages, m, x) if m else (),
        )
        for x in np.flatnonzero(cost < np.inf).tolist()
    }


def replay(tp, m, x1, x2):
    """The reference score ``(theta, x1, route, tau, hinge)`` of the move
    from survivor ``x1`` of stage ``m - 1`` to state ``x2`` at stage ``m``
    of a run trellis."""
    return best_move(tp, m, [(x1, survivors(tp, m - 1)[x1])], x2)


def search_pairs(tp, snapshot):
    """Reference trellis search for the batch of ``tp`` on ``snapshot``,
    one (predecessor, state) pair at a time through :func:`best_move`.

    Returns ``(valid, stages, path, evaluations)``: the stages built, each
    a dict from state id to :class:`PathState` with its full path, the
    winner's path (empty when nothing is placed) and the pairs scored.
    ``tp`` itself is left as it was.
    """
    ctx = tp.context
    snap = np.array(snapshot, copy=True)
    demands = [[np.array(spec.demands) for spec in t.vnfs] for t in tp.catalog]
    stages = [{0: PathState(0.0, 1.0, snap, ())}]
    evaluations = 0
    for m, (l, u, backup) in enumerate(stage_info(tp), start=1):
        r = demands[l][u]
        term = stage_term(ctx, l, u)
        prev = stages[-1]
        feas = {x1: (st.remaining >= r).all(axis=1).tolist() for x1, st in prev.items()}
        cur = {}
        # servers are 1..S, and a backup stage adds state 0, "no backup"
        for x2 in range(0 if backup else 1, tp.infra.num_servers + 1):
            if x2 == 0:
                preds = list(prev.items())
            else:
                preds = [
                    (x1, st) for x1, st in prev.items()
                    if feas[x1][x2 - 1] and not (backup and x1 == x2)
                ]
            if not preds:
                continue  # state removed at this stage
            evaluations += len(preds)
            _, x1, route, tau, _ = best_move(tp, m, preds, x2)
            chosen = prev[x1]
            remaining = chosen.remaining.copy()
            if x2 != 0:
                remaining[x2 - 1] -= r
            cost = chosen.cost + term.item(x2) + route  # hinge kept out of path cost
            cur[x2] = PathState(cost, tau, remaining, chosen.path + (x2,))
        if not cur:
            # only main stages can empty out: even stages always keep state 0
            return False, stages, (), evaluations
        stages.append(cur)

    path = ()
    if tp.num_stages:
        # the terminal state with the last service's hinge added back,
        # ties to the lowest state id
        last = tp.catalog[tp.arrangement[-1]]
        best_val = np.inf
        for x, st in stages[-1].items():
            target = 1.0 if x == 0 else 1.0 - last.failure_cap
            short = target - st.reliability
            val = st.cost + (last.penalty * short if short > 0 else 0.0)
            if val < best_val:
                best_val, path = val, st.path
    return True, stages, path, evaluations


def backup_probe(build, failure):
    """Reference for the baselines' backup scan: ``probe(u, srv)``, the
    failure probability of ``build`` with VNF u, which has no backup yet,
    backed up on ``srv``, one server per call. The chain's per-VNF survival
    factors and their left-to-right prefix products are formed once, so a
    probe multiplies only from VNF u on."""
    factors = []
    prefix = [1.0]
    for main, backup in zip(build.mains, build.backups):
        f = failure[main]
        if backup is not None:
            f *= failure[backup]
        factors.append(1.0 - f)
        prefix.append(prefix[-1] * factors[-1])

    def probe(u, srv):
        up = prefix[u] * (1.0 - failure[build.mains[u]] * failure[srv])
        for factor in factors[u + 1:]:
            up *= factor
        return 1.0 - up

    return probe


def backup_cost(build, u, srv, tables):
    """Reference for the baselines' backup pricing: the placement cost added
    by giving VNF u a backup on ``srv``, one server per call."""
    bandwidth = tables.catalog[build.type_index].bandwidth
    cost = tables.charges[build.type_index][u][srv]
    for v in (u - 1, u + 1):
        if 0 <= v < len(build.mains):
            for neighbor in (build.mains[v], build.backups[v]):
                if neighbor is not None:
                    cost += bandwidth * tables.link[neighbor][srv]
    return cost


def backup_scan(build, u, factors, idle, tables):
    """The baselines' backup hosts for VNF u of ``build``, and the build's
    failure probability with VNF u backed up on each, as ``_protect_cera``
    forms them."""
    failures = _provider_failures(build, u, factors, tables)
    hosts = _backup_hosts(build, u, idle, tables)
    return hosts, [failures[tables.inps[srv]] for srv in hosts]


def choose_backup_reference(build, u, factors, idle, tables):
    """Reference for the baselines' backup choice, by a full scan: every
    host priced when one meets the service target, the cheapest of those
    chosen, else the most reliable host, ties to the lowest index, else
    None. ``idle`` is a stock as the baselines keep it."""
    failure_cap = tables.catalog[build.type_index].failure_cap
    hosts, failures = backup_scan(build, u, factors, idle, tables)
    if not hosts:
        return None
    sufficient = [srv for srv, e in zip(hosts, failures) if e <= failure_cap]
    if sufficient:
        return min(zip(_backup_prices(build, u, sufficient, tables), sufficient))[1]
    return min((tables.failure[srv], srv) for srv in hosts)[1]


def protect_cera_rescan(build, idle, tables, events=None):
    """Reference for ``_protect_cera``: every round lists and prices the
    backup hosts of every unprotected VNF again. With a ``Counter`` as
    ``events`` it counts the commits that take their server out of another
    open VNF's hosts (``dropped``), the open neighbours with hosts whose
    prices a commit moves (``repriced``), and the builds left short of the
    target because no VNF has a host (``exhausted``)."""
    failure_cap, failure = tables.catalog[build.type_index].failure_cap, tables.failure
    e, factors = _survival(build, failure)
    while e > failure_cap:
        best = None  # (cim, u, srv)
        for u in range(len(build.mains)):
            if build.backups[u] is not None:
                continue
            failures = _provider_failures(build, u, factors, tables)
            hosts = _backup_hosts(build, u, idle, tables)
            for srv, cost in zip(hosts, _backup_prices(build, u, hosts, tables)):
                gain = e - failures[tables.inps[srv]]
                if cost <= 0.0:
                    cim = np.inf if gain > 0 else 0.0
                else:
                    cim = gain / cost
                if best is None or cim > best[0]:
                    best = (cim, u, srv)
        if best is None:
            if events is not None:
                events["exhausted"] += 1
            return
        _, u, srv = best
        build.backups[u] = srv
        if events is not None:
            others = [v for v, b in enumerate(build.backups) if b is None]
            before = [_backup_hosts(build, v, idle, tables) for v in others]
        _take(idle, srv, tables.catalog[build.type_index].vnfs[u].demands)
        if events is not None:
            after = [_backup_hosts(build, v, idle, tables) for v in others]
            events["dropped"] += any(srv in a and srv not in b for a, b in zip(before, after))
            events["repriced"] += sum(abs(v - u) == 1 for v, b in zip(others, after) if b)
        factors[u] = 1.0 - failure[build.mains[u]] * failure[srv]
        e = 1.0 - math.prod(factors)


def numpy_blend(row, a, source, usage, capacity):
    """Reference for ``ResourceEstimator.update``: one estimate (an (S, R)
    float64 array) blended in place toward ``source - usage`` with step
    ``a`` and clipped to ``[0, capacity]``, by numpy whole-array ops."""
    row *= 1.0 - a
    row += a * (source - usage)
    np.minimum(np.maximum(row, 0.0, out=row), capacity, out=row)


def permutation_arrangements(action, count, rng):
    """Reference for ``generate_arrangements``: each order drawn by
    ``rng.permutation`` of the type indices as a ``np.repeat`` array,
    deduplicated in draw order."""
    stv = np.repeat(np.arange(len(action)), action)
    if stv.size == 0:
        return [()]
    pool = []
    for _ in range(count):
        perm = tuple(rng.permutation(stv).tolist())
        if perm not in pool:
            pool.append(perm)
    return pool


class DequeLedger:
    """Reference for the solver's arrangement ledger: the drawn orders in a
    deque, popped once each, then the best-scoring order so far, or the
    first drawn while nothing has scored."""

    def __init__(self, drawn):
        self.queue = deque(drawn)
        self.first = drawn[0]
        self.best_reward = 0.0
        self.best = None

    def next_arrangement(self):
        if self.queue:
            return self.queue.popleft()
        return self.best if self.best is not None else self.first

    def record(self, reward, arrangement):
        if self.best_reward <= reward:
            self.best_reward = reward
            self.best = arrangement


# config entries that each loaded coerced (true as 1.0, "3" as 3.0, 5 as
# "5", null as "None", "1" as (1.0,)), each with the message prefix its
# rejection must carry; the edits fit any config with one service type
COERCED_ENTRIES = {
    "pmf-bools": (lambda cfg: cfg["service_types"][0].update(arrival_pmf=[True, False, False]),
                  "service_types[0].arrival_pmf[0]: expected a number, got bool"),
    "pmf-string": (lambda cfg: cfg["service_types"][0].update(arrival_pmf="1"),
                   "service_types[0].arrival_pmf: expected a list, got str"),
    "name-int": (lambda cfg: cfg["service_types"][0].update(name=5),
                 "service_types[0].name: expected a string, got int"),
    "name-null": (lambda cfg: cfg["service_types"][0].update(name=None),
                  "service_types[0].name: expected a string, got NoneType"),
    "alpha-bool": (lambda cfg: cfg["infrastructure"].update(alpha=[True]),
                   "infrastructure.alpha[0]: expected a number, got bool"),
    "alpha-string": (lambda cfg: cfg["infrastructure"].update(alpha=["0.5"]),
                     "infrastructure.alpha[0]: expected a number, got str"),
    "deployment-bool": (lambda cfg: cfg["infrastructure"]["deployment_cost"][0].__setitem__(0, True),
                        "infrastructure.deployment_cost[0][0]: expected a number, got bool"),
    "deployment-string": (lambda cfg: cfg["infrastructure"]["deployment_cost"][0].__setitem__(0, "3"),
                          "infrastructure.deployment_cost[0][0]: expected a number, got str"),
    "matrix-strings": (lambda cfg: cfg["infrastructure"].update(
                           link_cost={"matrix": [["0"] * num_servers(cfg)] * num_servers(cfg)}),
                       "infrastructure.link_cost.matrix: expected a numeric table"),
}


def num_servers(cfg):
    """Server count of a config dict."""
    return sum(len(p["servers"]) for p in cfg["infrastructure"]["inps"])


def wrong_json_values(default, current):
    """JSON values of a wrong type for a field whose JSON form is ``current``:
    a number for text and text for anything else, a list holding ``true``
    for a list, and ``null`` unless the default is ``None``. Each must fail
    with the field's path, the list with its first entry's."""
    wrong = [1 if isinstance(current, str) else "1"]
    if isinstance(current, list):
        wrong.append([True])
    if default is not None:
        wrong.append(None)
    return wrong


def penalized_objective(plan, catalog, infra):
    """Cost plus failure-excess penalties of a concrete plan, the same
    objective ``oracle.best_placement`` minimizes."""
    total = 0.0
    for svc in plan.services:
        stype = catalog[svc.type_index]
        total += nv.service_cost(svc, infra, catalog).total
        e = nv.service_failure_probability(svc.vnfs, infra)
        total += stype.penalty * max(0.0, e - stype.failure_cap)
    return total


def transition_prob(model, state, realized_action, next_state):
    """P(next | state, realized admissions) under the transition model
    ``model``: independent arrivals times the departure law applied to
    sigma + realized_action."""
    _, sigma = state
    lam_next, sigma_next = next_state
    source = tuple(s + a for s, a in zip(sigma, realized_action))
    for j, m in zip(source, model.space.sigma_max):
        if j > m:
            raise ValueError("realized action overflows the active-count register")
    row = model.departure_row(source)
    return float(
        arrival_prob(lam_next, model.catalog)
        * row[model.space.active_index(sigma_next) - 1]
    )


def server_id(infra, inp, server):
    """Flat index of provider ``inp``'s local server ``server``."""
    if not 0 <= inp < infra.num_inps:
        raise IndexError(f"provider {inp} out of range")
    if not 0 <= server < infra.servers_per_inp[inp]:
        raise IndexError(f"server {server} out of range for provider {inp}")
    return sum(infra.servers_per_inp[:inp]) + server


def server_location(infra, sid):
    """Inverse of :func:`server_id`: the (provider, local server) pair of
    flat server ``sid``."""
    if not 0 <= sid < infra.num_servers:
        raise IndexError(f"server {sid} out of range")
    inp = int(infra.server_inp[sid])
    return inp, sid - sum(infra.servers_per_inp[:inp])


def failure_by_enumeration(placement, infra):
    """Reference for ``service_failure_probability``: the service failure
    probability by summing over every up/down pattern of the servers the
    placement touches.  Exponential in the number of distinct servers; keep
    those below about a dozen."""
    servers = sorted(
        {vp.main for vp in placement.vnfs}
        | {vp.backup for vp in placement.vnfs if vp.backup is not None}
    )
    if len(servers) > 20:
        raise nv.OracleError(f"{len(servers)} distinct servers is too many to enumerate")
    fail_prob = 0.0
    for pattern in product((False, True), repeat=len(servers)):
        up = dict(zip(servers, pattern))
        weight = 1.0
        for srv, is_up in up.items():
            v = infra.server_failure(srv)
            weight *= (1.0 - v) if is_up else v
        works = True
        for vp in placement.vnfs:
            alive = up[vp.main] or (vp.backup is not None and up[vp.backup])
            if not alive:
                works = False
                break
        if not works:
            fail_prob += weight
    return fail_prob


def arrival_prob(lam, catalog):
    """Reference for ``TransitionModel.arrival_probs``: the joint
    probability of a per-type arrival vector (types independent)."""
    if len(lam) != len(catalog):
        raise ValueError("vector length must match the catalog")
    p = 1.0
    for a, stype in zip(lam, catalog):
        if not 0 <= a <= stype.lambda_max:
            return 0.0
        p *= stype.arrival_pmf[a]
    return p


def arrival_index(space, lam):
    """Reference for the arrival half of ``StateSpace.state_id``: the
    1-based ordinal of an arrival vector, with its bound check."""
    space._check(lam, space.lambda_max, "arrival count")
    return 1 + sum(a * d for a, d in zip(lam, space.arrival_strides))


def snapshot(est, infra, eta):
    """Reference for ``ResourceEstimator.key``: a copy of the estimate for
    active ordinal ``eta`` (1-based) as a (servers, resources) array."""
    return np.array(est.rows[eta - 1]).reshape(infra.capacity.shape)
