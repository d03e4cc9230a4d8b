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

Wide infrastructures are searched one whole stage at a time, narrow ones
one (predecessor, state) pair at a time (``WHOLE_STAGE_MIN_SERVERS``);
both keep bit-equal survivors. The whole-stage search keeps a back-pointer
per survivor instead of its path and traces a path back only when it is
read. Tables that depend only on the setup live in a
:class:`PlacementContext`, built once and shared by every batch.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .model import (
    Catalog,
    Infrastructure,
    PlacedService,
    ServicePlacement,
    VnfPlacement,
    service_failure_probability,
    service_usage,
)

# Batches on at least this many servers are searched one whole stage at a
# time (``_search_stages``); narrower ones score each (predecessor, state)
# pair in Python (``_search_pairs``), where numpy's fixed cost per call
# outweighs the matrix. Pair-loop time over stage-kernel time per batch
# (construct, search and read-out, one shared PlacementContext; 150 random
# batches of the bundled service types on k 80-unit servers over ceil(k/3)
# providers, median of 6 alternating rounds; the batches of one seed-1
# reduced-policy episode and of one seed-1 reduced solve, median of 10;
# 2-vCPU Xeon):
#   servers  2     3     4     5     6     7     8     10    12    21
#   ratio    0.65  0.87  1.05  1.32  1.35  1.54  1.89  2.42  2.83  5.25
#   reduced (6 servers): simulator batches 1.45, solve batches 0.95
# A threshold of 5 would put the six-server reduced setup on the stage
# kernel: reduced-policy then ran 1.24x the slots, but the reduced solve,
# where the pair loop wins, read 3% slower (median of 10 alternating pairs
# of 20 s benchmark runs), so the threshold stays above the reduced setup.
WHOLE_STAGE_MIN_SERVERS = 8


def stage_count(arrangement: tuple[int, ...], catalog: Catalog) -> int:
    """Number of trellis stages: two per VNF over the whole batch."""
    return sum(2 * catalog[l].num_vnfs for l in arrangement)


def stage_states(m: int, infra: Infrastructure) -> list[int]:
    """Candidate states of stage ``m`` (1-based): servers are 1..S, and even
    stages add state 0 for "no backup"."""
    if m < 1:
        raise ValueError("stage index is 1-based")
    servers = list(range(1, infra.num_servers + 1))
    return servers if m % 2 == 1 else [0] + servers


@dataclass
class PathState:
    """Survivor record of one trellis state."""

    cost: float
    reliability: float
    remaining: np.ndarray
    path: tuple[int, ...]


def _traceback(records: list[tuple], m: int, i: int) -> tuple[int, ...]:
    """Server choices of survivor ``i`` at stage ``m``, read back through
    each stage's back-pointers."""
    path = []
    for k in range(m, 0, -1):
        ids, _, _, _, pick = records[k]
        path.append(ids.item(i))
        i = pick.item(i)
    return tuple(reversed(path))


class StageSurvivors(Mapping):
    """One stage's survivors held as arrays, in ascending state order:
    state ids ``(P,)``, cost and reliability ``(P,)``, the remaining stock
    ``(P, S, R)`` and each survivor's predecessor index ``pick`` in the
    stage before. Read as a mapping from state id to :class:`PathState`,
    built only when a state is looked up; its path is traced back through
    the ``pick`` arrays."""

    def __init__(self, records: list[tuple], m: int) -> None:
        self.ids, self.cost, self.reliability, remaining, self.pick = records[m]
        self.remaining = remaining[:, 1:]  # drop the state-0 padding
        self.remaining.flags.writeable = False  # lookups hand out views
        self._records = records
        self._m = m

    def __getitem__(self, x: int) -> PathState:
        i = int(self.ids.searchsorted(x))
        if i == len(self.ids) or self.ids[i] != x:
            raise KeyError(x)
        return PathState(
            float(self.cost[i]), float(self.reliability[i]),
            self.remaining[i], _traceback(self._records, self._m, i),
        )

    def __iter__(self):
        return iter(self.ids.tolist())

    def __len__(self) -> int:
        return len(self.ids)


class StageSequence(Sequence):
    """The stage kernel's survivors: one ``(ids, cost, reliability,
    remaining, pick)`` record per stage, stage 0 first. ``remaining`` is
    ``(P, S + 1, R)`` with a state-0 row that fits every demand. Indexing
    wraps a record in a :class:`StageSurvivors` view."""

    def __init__(self, records: list[tuple]) -> None:
        self.records = records

    def __getitem__(self, m: int) -> StageSurvivors:
        return StageSurvivors(self.records, range(len(self.records))[m])

    def __len__(self) -> int:
        return len(self.records)


@dataclass
class TrellisResult:
    """Outcome of one batch placement. ``valid`` is False when some main
    stage had no feasible server, in which case nothing is placed."""

    valid: bool
    services: list[PlacedService]
    path: tuple[int, ...]

    def plan(self):
        from .model import PlacementPlan

        return PlacementPlan(tuple(s.placement for s in self.services))


class PlacementContext:
    """Trellis tables that depend only on ``(catalog, infra)``, built once
    per setup and shared by every batch placed on it.

    State id 0 is "no server": zero charge, no links and a failure
    probability of 1, so it never improves reliability.
    """

    def __init__(self, catalog: Catalog, infra: Infrastructure) -> None:
        self.catalog = catalog
        self.infra = infra
        n = infra.num_servers
        self.v_state = [1.0] + [infra.server_failure(s) for s in range(n)]
        self.link = [[0.0] * (n + 1)] + [[0.0] + row for row in infra.link_cost.tolist()]
        # per (type, vnf): the charge of hosting it on each state
        self.terms: list[list[list[float]]] = []
        for stype in catalog:
            rows = []
            for spec in stype.vnfs:
                per_inp = infra.unit_cost @ np.asarray(spec.demands, dtype=float)
                per_inp = per_inp + infra.deployment_cost[:, spec.vnf_type]
                rows.append([0.0] + per_inp[infra.server_inp].tolist())
            self.terms.append(rows)
        self._demands: dict[np.dtype, list[list[np.ndarray]]] = {}

        # Stage-kernel tables. A stage's columns are its candidate states:
        # 1..S at a main stage, 0..S at a backup stage.
        self.term_arrays = [[np.array(row) for row in rows] for rows in self.terms]
        states = np.arange(n + 1)
        self.targets = [np.where(states == 0, 1.0, 1.0 - t.failure_cap) for t in catalog]
        v = np.array(self.v_state)
        self.up = 1.0 - v
        self.backup_up = 1.0 - v[:, None] * v  # [main, backup]
        link = np.zeros((n + 1, n + 1))
        link[1:, 1:] = infra.link_cost
        self.stage_links = {False: np.ascontiguousarray(link[:, 1:]), True: link}
        self._stock_tables: dict[np.dtype, tuple[np.generic, list[list[np.ndarray]]]] = {}
        self._stage_tables: dict[tuple[int, int, bool], tuple] = {}

    def demands(self, dtype: np.dtype) -> list[list[np.ndarray]]:
        """Per (type, vnf) demand rows in the snapshot's dtype."""
        rows = self._demands.get(dtype)
        if rows is None:
            rows = [[np.asarray(spec.demands, dtype=dtype) for spec in t.vnfs] for t in self.catalog]
            self._demands[dtype] = rows
        return rows

    def stock_tables(self, dtype: np.dtype) -> tuple[np.generic, list[list[np.ndarray]]]:
        """The stage kernel's stock tables in the snapshot's dtype: a stock
        entry that fits every demand (the kernel's state-0 row), and per
        (type, vnf) the ``(S + 1, S + 1, R)`` stock each state draws, whose
        row ``x`` holds the demand at state ``x`` and zeros elsewhere
        (state 0 draws nothing)."""
        tables = self._stock_tables.get(dtype)
        if tables is None:
            rows = self.demands(dtype)
            pad = max((row.max() for t in rows for row in t), default=0)
            n = self.infra.num_servers
            servers = np.arange(1, n + 1)
            draws = []
            for t in rows:
                draws.append([])
                for row in t:
                    draw = np.zeros((n + 1, n + 1, len(row)), dtype=dtype)
                    draw[servers, servers] = row
                    draws[-1].append(draw)
            tables = self._stock_tables[dtype] = (pad, draws)
        return tables

    def stage_table(self, l: int, u: int, backup: bool) -> tuple:
        """Stage-kernel constants of VNF ``u`` of type ``l`` at its main or
        backup stage: the charge row over all states and over the stage's
        columns, the reliability targets over the columns and, for a
        chain's first VNF, the score ``term + 0.0 + hinge`` before the path
        cost is added (over the columns, and per main state at a backup
        stage), else None."""
        key = (l, u, backup)
        table = self._stage_tables.get(key)
        if table is None:
            stype = self.catalog[l]
            term = self.term_arrays[l][u]
            cols = slice(0 if backup else 1, None)
            target = self.targets[l][cols]
            base = None
            if u == 0:
                up = self.backup_up if backup else self.up[cols]
                hinge = np.maximum(target - up, 0.0) * stype.penalty
                base = term[cols] + 0.0 + hinge
            table = self._stage_tables[key] = (term, term[cols], target, base)
        return table


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
        if any(a < 0 for a in action):
            raise ValueError("action counts must be non-negative")
        expected = Counter({l: a for l, a in enumerate(action) if a > 0})
        if Counter(arrangement) != expected:
            raise ValueError("arrangement must contain action[l] services of each type l")
        snap = np.array(snapshot, copy=True)
        if snap.shape != (infra.num_servers, infra.num_resources):
            raise ValueError("snapshot shape must be (servers, resources)")
        # written so that NaN fails too
        if not np.all((snap >= 0) & (snap <= infra.capacity)):
            raise ValueError("snapshot must lie within [0, capacity]")

        self.action = tuple(int(a) for a in action)
        self.arrangement = tuple(int(l) for l in arrangement)
        self.catalog = catalog
        self.infra = infra
        self.context = context if context is not None else PlacementContext(catalog, infra)
        self._snapshot = snap
        self.evaluations = 0  # (predecessor, state) pairs scored by run()

        # Stage table: (type, vnf index, backup stage?), main before backup.
        self._stage_info: list[tuple[int, int, bool]] = [
            (l, u, backup) for l in self.arrangement
            for u in range(catalog[l].num_vnfs) for backup in (False, True)
        ]
        self.num_stages = len(self._stage_info)
        demands = self.context.demands(snap.dtype)
        terms = self.context.terms
        self._stage_demand = [demands[l][u] for l, u, _ in self._stage_info]
        self._stage_term = [terms[l][u] for l, u, _ in self._stage_info]

        self.stages: list[Mapping[int, PathState]] | None = None

    # -- scoring --------------------------------------------------------

    def _best_move(
        self, m: int, preds: list[tuple[int, PathState]], x2: int
    ) -> tuple[float, int, float, float, float]:
        """Add-compare-select for state ``x2`` at stage ``m``: score the move
        from each ``(x1, survivor)`` predecessor and return the best
        ``(theta, x1, route, tau, hinge)``, ties to the first predecessor.
        ``route`` charges the links ``x2`` creates, ``tau`` is the service's
        chain reliability after the move, ``hinge`` its shortfall penalty."""
        l, u, backup = self._stage_info[m - 1]
        stype = self.catalog[l]
        link = self.context.link
        v_state = self.context.v_state
        bandwidth = stype.bandwidth
        penalty = stype.penalty
        base = self._stage_term[m - 1][x2]
        v2 = v_state[x2]
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
                    link[path[m - 3]][x2] + link[path[m - 4] if backup else path[m - 2]][x2]
                )
            if not backup:
                tau = (1.0 - v2) if u == 0 else st1.reliability * (1.0 - v2)
            else:
                vm = v_state[x1]
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

    # Public scoring views over a built trellis, used by diagnostics and
    # replay tests: the move from ``x1`` to ``x2`` at stage ``m``.

    def _replay(self, m: int, x1: int, x2: int) -> tuple[float, int, float, float, float]:
        if self.stages is None:
            raise RuntimeError("run() must build the trellis first")
        if not 1 <= m <= len(self.stages):
            raise IndexError(f"stage {m - 1} not built")
        return self._best_move(m, [(x1, self.stages[m - 1][x1])], x2)

    def transition_cost(self, m: int, x1: int, x2: int) -> float:
        """Full decision metric of moving from ``x1`` to ``x2`` at stage ``m``."""
        return self._replay(m, x1, x2)[0]

    def transition_reliability(self, m: int, x1: int, x2: int) -> float:
        return self._replay(m, x1, x2)[3]

    def reliability_penalty(self, m: int, x1: int, x2: int) -> float:
        return self._replay(m, x1, x2)[4]

    # -- search ---------------------------------------------------------

    def run(self) -> TrellisResult:
        """Search the trellis and read out the best batch placement."""
        if self.infra.num_servers >= WHOLE_STAGE_MIN_SERVERS:
            valid = self._search_stages()
        else:
            valid = self._search_pairs()
        if not valid:
            return TrellisResult(False, [], ())
        if self.num_stages == 0:
            return TrellisResult(True, [], ())
        return self._read_out(self.stages)

    def _search_pairs(self) -> bool:
        """Build ``self.stages`` state by state with :meth:`_best_move`;
        False when a main stage has no feasible server."""
        stages: list[Mapping[int, PathState]] = [
            {0: PathState(0.0, 1.0, self._snapshot.copy(), ())}
        ]
        self.stages = stages
        for m in range(1, self.num_stages + 1):
            backup = self._stage_info[m - 1][2]
            r = self._stage_demand[m - 1]
            term = self._stage_term[m - 1]
            prev = stages[m - 1]
            feas = {x1: (st.remaining >= r).all(axis=1).tolist() for x1, st in prev.items()}
            cur: dict[int, PathState] = {}

            for x2 in stage_states(m, self.infra):
                if x2 == 0:
                    preds = list(prev.items())
                else:
                    preds = [
                        (x1, st) for x1, st in prev.items()
                        if feas[x1][x2 - 1] and not (backup and x1 == x2)
                    ]
                if not preds:
                    continue  # state removed at this stage
                self.evaluations += len(preds)
                _, x1, route, tau, _ = self._best_move(m, preds, x2)
                chosen = prev[x1]
                remaining = chosen.remaining.copy()
                if x2 != 0:
                    remaining[x2 - 1] -= r
                cost = chosen.cost + term[x2] + route  # hinge kept out of path cost
                cur[x2] = PathState(cost, tau, remaining, chosen.path + (x2,))

            if not cur:
                # only main stages can empty out: even stages always keep state 0
                return False
            stages.append(cur)
        return True

    def _search_stages(self) -> bool:
        """Build ``self.stages`` one whole stage at a time: score every
        (predecessor, state) pair as one matrix, mask the infeasible ones
        and keep the first minimum over predecessors, as :meth:`_best_move`
        does pair by pair. Each float is formed in the same order, so the
        survivors are bit-equal to the pair loop's.

        A stage keeps only its survivors' arrays and a back-pointer to each
        one's predecessor; the states of the last three stages along each
        survivor's path (``ids``, ``back1``, ``back2``) feed the routing
        charge. The stock carries a state-0 row that fits every demand, so
        "no backup" needs no special column.
        """
        ctx = self.context
        n = self.infra.num_servers
        rows = np.arange(n + 1)
        snap = self._snapshot
        pad, draws = ctx.stock_tables(snap.dtype)
        one_resource = snap.shape[1] == 1
        stock = np.empty((1, n + 1, snap.shape[1]), dtype=snap.dtype)
        stock[0, 0] = pad
        stock[0, 1:] = snap
        ids = back1 = back2 = rows[:1]
        cost = np.zeros(1)
        reliability = np.ones(1)
        records = [(ids, cost, reliability, stock, None)]
        self.stages = StageSequence(records)
        for m, (l, u, backup) in enumerate(self._stage_info, start=1):
            term, term_cols, target, base = ctx.stage_table(l, u, backup)
            r = self._stage_demand[m - 1]
            fits = stock >= r
            fits = fits[:, :, 0] if one_resource else fits.all(axis=2)
            if backup:
                # a backup never shares its main's server
                mask = fits
                mask[rows[:len(ids)], ids] = False
            else:
                mask = fits[:, 1:]
            live = mask.any(axis=0).nonzero()[0]
            if not live.size:
                return False
            self.evaluations += int(np.count_nonzero(mask))

            if u == 0:
                if backup:
                    tau = ctx.backup_up.take(ids, axis=0)
                    theta = base.take(ids, axis=0) + cost[:, None]
                else:
                    tau = ctx.up[1:]
                    theta = base + cost[:, None]
            else:
                stype = self.catalog[l]
                # links from the previous vnf's main and backup: the last
                # two states at a main stage, the two before at a backup stage
                link = ctx.stage_links[backup]
                route = link.take(back1, axis=0)
                route += link.take(back2 if backup else ids, axis=0)
                route *= stype.bandwidth
                if backup:
                    # swap the trailing main-only factor for the protected one
                    tau = reliability[:, None] * ctx.backup_up.take(ids, axis=0)
                    tau /= ctx.up[ids][:, None]
                else:
                    tau = reliability[:, None] * ctx.up[1:]
                hinge = target - tau
                np.maximum(hinge, 0.0, out=hinge)
                hinge *= stype.penalty
                theta = term_cols + route
                theta += hinge
                theta += cost[:, None]
            # argmin keeps the first minimum: ties go to the lowest x1
            pick = np.where(mask, theta, np.inf).argmin(axis=0)[live]

            x2 = live if backup else live + 1
            stock = stock.take(pick, axis=0)
            stock -= draws[l][u].take(x2, axis=0)
            # hinge kept out of path cost; the pair loop's "+ 0.0" route of
            # a first VNF is left out, as no cost is ever -0.0
            cost = cost[pick] + term[x2]
            if u:
                cost += route[pick, live]
            reliability = tau[pick, live] if tau.ndim == 2 else tau[live]
            ids, back1, back2 = x2, ids[pick], back1[pick]
            records.append((ids, cost, reliability, stock, pick))
        return True

    def _read_out(self, stages: list[Mapping[int, PathState]]) -> TrellisResult:
        """Pick the terminal state and unwind its path into per-service records.

        The pick reads only the final stage's costs and reliabilities. Every
        state keeps one survivor, so the winner's path fixes each stage's
        routing charge, recomputed from it in :meth:`_best_move`'s float
        order.
        """
        last_type = self.catalog[self.arrangement[-1]]
        final = stages[-1]
        if isinstance(final, StageSurvivors):
            terminals = zip(final.ids.tolist(), final.cost.tolist(), final.reliability.tolist())
        else:
            terminals = ((x, st.cost, st.reliability) for x, st in final.items())
        best_x = -1
        best_val = np.inf
        for x, cost, reliability in terminals:
            target = 1.0 if x == 0 else 1.0 - last_type.failure_cap
            short = target - reliability
            val = cost + (last_type.penalty * short if short > 0 else 0.0)
            if val < best_val:
                best_val = val
                best_x = x
        path = final[best_x].path

        link = self.context.link
        services: list[PlacedService] = []
        for m, (l, u, backup) in enumerate(self._stage_info, start=1):
            x = path[m - 1]
            if u == 0:
                route = 0.0
                if not backup:
                    first, cost = m - 1, 0.0
            else:
                route = self.catalog[l].bandwidth * (
                    link[path[m - 3]][x] + link[path[m - 4] if backup else path[m - 2]][x]
                )
            cost = cost + self._stage_term[m - 1][x] + route
            if backup and u == self.catalog[l].num_vnfs - 1:
                vnfs = tuple(
                    VnfPlacement(path[i] - 1, path[i + 1] - 1 if path[i + 1] else None)
                    for i in range(first, m, 2)
                )
                placement = ServicePlacement(l, vnfs)
                services.append(PlacedService(
                    l, placement, cost,
                    service_failure_probability(vnfs, self.infra),
                    service_usage(placement, self.infra, self.catalog),
                ))

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
