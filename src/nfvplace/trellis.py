"""Viterbi-style trellis search that places main and backup servers for a
batch of service chains against a snapshot of idle server resources.

Each VNF occupies two consecutive stages: an odd stage picks the main
server and the following even stage picks the backup, where state 0 means
"no backup". Every surviving state keeps exactly one path: its accumulated
cost, the reliability of the service being placed, the per-server resources
still idle along that path, and the server choices themselves.

Transition scoring combines server, deployment and routing charges with a
hinge penalty for falling short of the service's reliability target. The
penalty steers which predecessor survives but is subtracted again before
the path cost is stored, so stored costs stay pure placement cost; the
final state selection re-applies the hinge for the last service in the
batch.

Every batch is searched one whole stage at a time, as in Forney's Viterbi
decoder: each stage scores every (predecessor, state) pair as one matrix
and keeps one slot per state, as the decoder keeps one survivor register
per state, with a state that nothing feasible reaches dead at cost inf.
Each state keeps a back-pointer to its predecessor instead of its path,
which is traced back only when it is read. Tables that depend only
on the setup live in a :class:`PlacementContext`, built once and shared
by every batch, each at the shape of the stage matrix it meets, as the
decoder runs the same add-compare-select at every stage. A stage's
feasibility is one compare with its need table, which also keeps a
backup off its main's server.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Catalog,
    Infrastructure,
    PlacedService,
    ServicePlacement,
    VnfPlacement,
    check_type_indices,
    is_integer,
)


def _traceback(records: list[tuple], m: int, x: int) -> tuple[int, ...]:
    """Server choices of state ``x`` at stage ``m`` >= 1, read back through
    the back-pointers of stages ``m`` down to 2: every stage-1 state's
    points to the origin, so stage 1's are never read."""
    path = [x]
    for _, _, _, pick in records[m:1:-1]:
        x = pick.item(x)
        path.append(x)
    path.reverse()
    return tuple(path)


@dataclass
class TrellisResult:
    """Outcome of one batch placement. ``valid`` is False when some main
    stage had no feasible server, in which case nothing is placed."""

    valid: bool
    services: list[PlacedService]
    path: tuple[int, ...]


class PlacementContext:
    """Trellis tables that depend only on ``(catalog, infra)``, built once
    per setup and shared by every batch placed on it. Demands are integers,
    so the int64 demand tables of each (type, VNF) compare with and
    subtract from an integer or a float stock exactly: one table set
    serves every snapshot dtype.

    Each table the stage kernel combines with a stage's (predecessor,
    state) matrix has that matrix's shape, as numpy runs a call on
    same-shape operands at about half the cost of a broadcast one, and is
    shared by every stage that reads the same values: one need and one
    draw table per demand row, one charge table per (type, VNF).

    State id 0 is "no server": zero charge, no links and a failure
    probability of 1, so it never improves reliability.

    Every array is read-only: stage-1 records hold the context's own
    reliability row and back-pointers, shared by every batch.
    """

    def __init__(self, catalog: Catalog, infra: Infrastructure) -> None:
        self.catalog = catalog
        self.infra = infra
        n = infra.num_servers
        full = (n + 1, n + 1)
        link = np.zeros(full)
        link[1:, 1:] = infra.link_cost
        self.link = link
        failure = [infra.server_failure(s) for s in range(n)]
        v = np.array([1.0] + failure)
        # stage 1's reliability row and back-pointers: the origin is its
        # only live predecessor
        up = self.up = 1.0 - v
        self.first_pick = np.zeros(n + 1, dtype=np.intp)
        # the matrices of a stage: row x1 is the predecessor, column x2 the state
        self.up_rows = np.tile(up, (n + 1, 1))
        self.backup_up = 1.0 - v[:, None] * v  # [main, backup]
        # the main's factor that a backup stage divides out, per main state;
        # state 0 is never a live main, and 1.0 keeps its dead row finite
        self.main_up = np.tile(np.concatenate(([1.0], up[1:]))[:, None], (1, n + 1))
        states = self.states = np.arange(n + 1)
        self.targets = [np.where(states == 0, 1.0, 1.0 - t.failure_cap) for t in catalog]
        # the stock of the kernel's state-0 row: it fits every demand
        self.pad = max((max(spec.demands) for t in catalog for spec in t.vnfs), default=0)
        # a need above every stock a stage can hold, the pad row's included
        never = max(self.pad, int(infra.capacity.max())) + 1
        # stage 0: state 0 at cost 0 and reliability 1, every other state
        # dead at cost inf; every stage's stock is (S + 1, S + 1, R), or
        # (S + 1, S + 1) when R = 1
        self.origin_cost = np.full(n + 1, np.inf)
        self.origin_cost[0] = 0.0
        self.origin_reliability = np.ones(n + 1)
        # the kernel's 0-d operands, which a ufunc takes with less work than
        # a Python scalar
        self.width, self.zero, self.inf = np.array(n + 1), np.array(0.0), np.array(np.inf)
        # per (main, backup) state pair: one shared placement record and its
        # survival factor ``1.0 - f``, f formed as service_failure_probability
        # forms it; the pairs no stage reaches (state 0 as a main, or a
        # backup on its main's server) hold None
        self.vnf_placements: list[list] = [[None] * (n + 1) for _ in states]
        self.survival: list[list] = [[None] * (n + 1) for _ in states]
        for x in range(1, n + 1):
            for y in range(n + 1):
                if y != x:
                    f = failure[x - 1] * failure[y - 1] if y else failure[x - 1]
                    self.vnf_placements[x][y] = VnfPlacement(x - 1, y - 1 if y else None)
                    self.survival[x][y] = 1.0 - f
        r = infra.num_resources
        self.stock_shape = full + ((r,) if r > 1 else ())
        # per (type, vnf): the charge of hosting it on each state, the row
        # its stage tables hold
        self.terms: list[list[np.ndarray]] = []
        # per type, in search order, one tuple per stage: the vnf index and
        # whether it is a backup stage; the need table, the stock each
        # (predecessor, state) pair needs, of the stock's shape: a main
        # stage's state-0 column, and a backup stage's diagonal (a backup
        # never shares its main's server), ask for ``never``; the draw
        # table, with the demand at row x, column x (state 0 draws
        # nothing); the charge row and its full table; the reliability
        # target, one value at a main stage and a full table at a backup
        # stage; for a chain's first VNF, the score ``term + 0.0 + hinge``
        # before the path cost is added, else None; the type's bandwidth and
        # its penalty. Each scalar is a 0-d array, which a ufunc takes with
        # less work than a Python float
        self.stage_tables: list[list[tuple]] = []
        servers = states[1:]
        # (main need, backup need, draw) per demand row
        demand_tables: dict[tuple[int, ...], tuple] = {}
        for l, stype in enumerate(catalog):
            terms, tables = [], []
            target_rows = np.tile(self.targets[l], (n + 1, 1))
            main_target = np.array(1.0 - stype.failure_cap)
            bandwidth, penalty = np.array(stype.bandwidth), np.array(stype.penalty)
            for u, spec in enumerate(stype.vnfs):
                demand = np.array(spec.demands, dtype=np.int64)
                if spec.demands not in demand_tables:
                    main_need = np.empty(full + demand.shape, dtype=np.int64)
                    main_need[...] = demand
                    backup_need = main_need.copy()
                    main_need[:, 0] = never
                    backup_need[states, states] = never
                    draw = np.zeros(full + demand.shape, dtype=np.int64)
                    draw[servers, servers] = demand
                    demand_tables[spec.demands] = tuple(
                        table.reshape(self.stock_shape) for table in (main_need, backup_need, draw)
                    )
                main_need, backup_need, draw = demand_tables[spec.demands]
                per_inp = infra.unit_cost @ demand.astype(float)
                per_inp = per_inp + infra.deployment_cost[:, spec.vnf_type]
                term = np.concatenate(([0.0], per_inp[infra.server_inp]))
                charge = np.tile(term, (n + 1, 1))
                for backup in (False, True):
                    target = target_rows if backup else main_target
                    base = None
                    if u == 0:
                        up = self.backup_up if backup else self.up_rows
                        base = charge + 0.0 + np.maximum(target - up, 0.0) * stype.penalty
                    tables.append((
                        u, backup, backup_need if backup else main_need, draw, term, charge,
                        target, base, bandwidth, penalty,
                    ))
                terms.append(term)
            self.terms.append(terms)
            self.stage_tables.append(tables)
        # every array read-only, with the base that each view keeps; stages
        # share tables, and each is visited once, as setflags is not free
        stage_arrays = (t for tables in self.stage_tables for stage in tables for t in stage[2:])
        arrays = {id(t): t for t in (*vars(self).values(), *self.targets, *stage_arrays)}
        for table in arrays.values():
            while isinstance(table, np.ndarray):
                table.setflags(write=False)
                table = table.base


class TrellisPlacement:
    """One batch placement problem over a fixed arrangement of services.

    ``action[l]`` counts requested services per type and ``arrangement``
    lists the order they are threaded through the trellis; it must contain
    exactly ``action[l]`` occurrences of each type ``l``. ``snapshot`` is
    the idle server stock the batch may consume (integer or float).
    ``context`` holds the per-setup tables and must come from these same
    ``catalog`` and ``infra`` objects; one is built when none is given.
    """

    def __init__(
        self,
        action: tuple[int, ...],
        arrangement: tuple[int, ...],
        snapshot: np.ndarray,
        catalog: Catalog,
        infra: Infrastructure,
        context: PlacementContext | None = None,
    ) -> None:
        if context is not None and (context.catalog is not catalog or context.infra is not infra):
            raise ValueError("placement context was built for another catalog or infrastructure")
        if len(action) != len(catalog):
            raise ValueError("action length must match the catalog")
        for a in action:
            if type(a) is not int and not is_integer(a):
                raise ValueError(f"action count {a!r} is not an integer")
        if min(action, default=0) < 0:
            raise ValueError("action counts must be non-negative")
        arrangement = tuple(arrangement)
        # equal lengths and equal counts of every type leave no room for an
        # entry that names no type, only for a bool or a float equal to one
        if len(arrangement) != sum(action) or any(
            arrangement.count(l) != a for l, a in enumerate(action)
        ):
            raise ValueError("arrangement must contain action[l] services of each type l")
        arrangement = check_type_indices(arrangement, catalog)
        snap = np.asarray(snapshot)
        if snap.shape != (infra.num_servers, infra.num_resources):
            raise ValueError("snapshot shape must be (servers, resources)")
        # written so that NaN fails too
        if not (
            np.minimum.reduce(snap, axis=None) >= 0
            and np.logical_and.reduce(snap <= infra.capacity, axis=None)
        ):
            raise ValueError("snapshot must lie within [0, capacity]")

        self.arrangement = tuple(arrangement)
        self.catalog = catalog
        self.infra = infra
        self.context = context if context is not None else PlacementContext(catalog, infra)
        # stage 0's stock: the snapshot behind the state-0 row, in a signed
        # dtype (an unsigned stock cannot take an int64 subtraction), one
        # row that every state views at stride 0, as np.broadcast_to would
        # at a tenth of the cost; never written, as each stage takes a copy
        stock_dtype = np.promote_types(snap.dtype, np.int8)
        row = np.empty((snap.shape[0] + 1, snap.shape[1]), dtype=stock_dtype)
        row[0] = self.context.pad
        row[1:] = snap
        shape = self.context.stock_shape
        self._stock = np.ndarray(shape, stock_dtype, row, 0, (0,) + row.strides[: len(shape) - 1])

        # the batch's stage tables, in search order
        tables = self._tables = []
        for l in self.arrangement:
            tables += self.context.stage_tables[l]
        self.num_stages = len(tables)
        # one record per stage, stage 0 first, as run() leaves them, each
        # indexed by state id: every state's cost, inf for a dead state, its
        # reliability, its stock behind a state-0 row, and its predecessor
        # ``pick``
        self.stages: list[tuple] | None = None

    @property
    def evaluations(self) -> int:
        """The (predecessor, state) pairs that run() scored: those that fit
        from a live predecessor, counted from the stage records."""
        if not self.stages:
            return 0
        count = 0
        # a failed main stage left no record; no pair fit from a live state there
        for (cost, _, stock, _), (_, _, need, *_) in zip(self.stages, self._tables):
            short = stock < need
            if short.ndim == 3:
                short = np.logical_or.reduce(short, axis=2)
            count += np.count_nonzero(~short[cost < np.inf])
        return int(count)

    # -- search ---------------------------------------------------------

    def run(self) -> TrellisResult:
        """Search the trellis and read out the best batch placement."""
        ctx = self.context
        records = self.stages = [(ctx.origin_cost, ctx.origin_reliability, self._stock, None)]
        if not self.num_stages:
            return TrellisResult(True, [], ())
        if not self._search(records):
            return TrellisResult(False, [], ())
        return self._read_out(records)

    def _search(self, records: list[tuple]) -> bool:
        """Append one record per stage to ``records``, one whole stage at a
        time: score every (predecessor, state) pair as one matrix, mask the
        infeasible ones and keep the first minimum over predecessors, as
        the pair-by-pair reference in the test suite
        (``tests/helpers.py::best_move``) does, forming each float in the
        same order. False when a main stage has no feasible server.

        Every record has one slot per state, as in Forney's decoder: a state
        that no feasible pair reaches is dead, at cost inf, so its row
        scores inf and no live state ever picks it. Every stage scores the
        same S + 1 columns: the stock carries a state-0 row that fits every
        demand, so "no backup" needs no special column. Feasibility is one
        compare of the stock with the stage's need table, whose state-0
        column at a main stage and diagonal at a backup stage no stock
        meets. Every other operand is a table of the stage's own shape, or
        a 0-d scalar, so the path vectors (``cost[:, None]`` and
        ``reliability[:, None]``) are the only operands broadcast. A main
        stage routes from the previous VNF's main (``back1``) and backup
        (the row); the backup stage after it links to the same two servers,
        so it takes the main stage's route rows along the back-pointers
        instead of forming them again.

        Stage 1, the first main stage, is formed in closed form: the origin
        is its only live predecessor, so every state picks row 0 and each
        matrix is its row 0.
        """
        ctx = self.context
        width, zero, inf = ctx.width, ctx.zero, ctx.inf
        tables = iter(self._tables)
        _, _, need, draw, term, *_ = next(tables)
        short = self._stock[0] < need[0]
        if short.ndim == 2:
            short = np.logical_or.reduce(short, axis=1)
        if np.count_nonzero(short) == width:
            return False
        # the origin's cost 0.0 plus the charge, as a later stage adds them
        cost = term + zero
        np.putmask(cost, short, inf)
        # each state's stock: the snapshot row less its draw, in the row's dtype
        stock = np.subtract(self._stock, draw, out=np.empty(ctx.stock_shape, self._stock.dtype))
        records.append((cost, ctx.up, stock, ctx.first_pick))

        up_rows, backup_up, main_up = ctx.up_rows, ctx.backup_up, ctx.main_up
        link, states = ctx.link, ctx.states
        for u, backup, need, draw, term, charge, target, base, bandwidth, penalty in tables:
            short = stock < need
            if short.ndim == 3:
                short = np.logical_or.reduce(short, axis=2)
            if u == 0:
                tau = backup_up if backup else up_rows
                theta = base + cost[:, None]
            else:
                if backup:
                    # swap the trailing main-only factor for the protected one
                    tau = reliability[:, None] * backup_up
                    tau /= main_up
                else:
                    route = link.take(back1, axis=0)
                    route += link
                    route *= bandwidth
                    tau = reliability[:, None] * up_rows
                hinge = target - tau
                np.maximum(hinge, zero, out=hinge)
                hinge *= penalty
                theta = charge + route
                theta += hinge
                theta += cost[:, None]
            # argmin keeps the first minimum: ties go to the lowest x1;
            # a column whose minimum is inf is dead
            np.putmask(theta, short, inf)
            pick = theta.argmin(axis=0)
            at = pick * width  # each state's (predecessor, state) entry, flattened
            at += states
            if not backup:
                dead = np.isinf(theta.take(at))  # no cost is ever -inf
                if np.count_nonzero(dead) == width:
                    return False

            stock = stock.take(pick, axis=0)
            stock -= draw
            # hinge kept out of path cost; the pair-by-pair "+ 0.0" route of
            # a first VNF is left out, as no cost is ever -0.0
            cost = cost.take(pick) + term
            reliability = tau.take(at)
            if u:
                cost += route.take(at)
                if not backup:
                    # the backup stage's route rows
                    route = route.take(pick, axis=0)
            if backup:
                # no mask: a dead column picks row 0, and state 0 of the
                # main stage before is dead, as no main fits there, so
                # the column's cost comes out inf
                back1 = pick
            else:
                np.putmask(cost, dead, inf)
            records.append((cost, reliability, stock, pick))
        return True

    def _read_out(self, records: list[tuple]) -> TrellisResult:
        """Pick the terminal state and unwind its path into per-service records.

        The pick reads only the final stage's costs and reliabilities, with
        the last service's hinge added back, and traces the winner's path
        through the back-pointers. Every state keeps one survivor, so that
        path fixes each stage's routing charge, recomputed from it in the
        float order of the reference ``best_move``. Each VNF's placement
        record and survival factor are the context's, shared by every batch,
        and its failure probability is their product taken in chain order,
        as service_failure_probability takes it. The usage of the batch is
        one flat list of Python ints, each VNF's demand tuple added at its
        main's and its backup's servers, made one int64 array at the end;
        each service's usage is an (S, R) row of that array.
        """
        ctx = self.context
        final_cost, reliability, _, _ = records[-1]
        last = self.arrangement[-1]
        hinge = ctx.targets[last] - reliability
        np.maximum(hinge, 0.0, out=hinge)
        hinge *= self.catalog[last].penalty
        # argmin keeps the first minimum, as a strict "<" scan in state order
        path = _traceback(records, self.num_stages, int((final_cost + hinge).argmin()))

        link, pairs, survival = ctx.link, ctx.vnf_placements, ctx.survival
        n, r = self.infra.num_servers, self.infra.num_resources
        # entry k * S * R + (x - 1) * R + j: service k's usage of resource j
        # on state x
        usage = [0] * (len(self.arrangement) * n * r)
        placements = []
        end = 0
        for l in self.arrangement:
            terms, specs, bandwidth = ctx.terms[l], self.catalog[l].vnfs, self.catalog[l].bandwidth
            # the service's stages, main then backup per VNF
            first, end = end, end + 2 * len(terms)
            seg = path[first:end]
            # where state 0 of this service would start
            offset = (len(placements) * n - 1) * r
            cost = 0.0
            up = 1.0
            vnfs = []
            for u, (x, y, term, spec) in enumerate(zip(seg[::2], seg[1::2], terms, specs)):
                if u:
                    # main x and backup y each link to the previous vnf's two
                    # servers; a first VNF routes nothing, and its "+ 0.0" is
                    # left out, as no cost is ever -0.0
                    cost = cost + term.item(x) + bandwidth * (link.item(main, x) + link.item(backup, x))
                    cost = cost + term.item(y) + bandwidth * (link.item(backup, y) + link.item(main, y))
                else:
                    cost = cost + term.item(x) + term.item(y)
                main, backup = x, y
                vnfs.append(pairs[x][y])
                up *= survival[x][y]
                for at, d in enumerate(spec.demands, offset + x * r):
                    usage[at] += d
                if y:
                    for at, d in enumerate(spec.demands, offset + y * r):
                        usage[at] += d
            placements.append((l, tuple(vnfs), cost, 1.0 - up))

        usage = np.array(usage, dtype=np.int64).reshape(len(placements), n, r)
        services = [
            PlacedService(l, ServicePlacement(l, vnfs), cost, failure, usage[k])
            for k, (l, vnfs, cost, failure) in enumerate(placements)
        ]
        return TrellisResult(True, services, path)


def place_batch(
    action: tuple[int, ...],
    arrangement: tuple[int, ...],
    snapshot: np.ndarray,
    catalog: Catalog,
    infra: Infrastructure,
    context: PlacementContext | None = None,
) -> TrellisResult:
    """Build and run one trellis placement; ``context`` as for
    :class:`TrellisPlacement`."""
    return TrellisPlacement(action, arrangement, snapshot, catalog, infra, context).run()
