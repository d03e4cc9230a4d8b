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
"""

from __future__ import annotations

from collections import Counter
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


class TrellisPlacement:
    """One batch placement problem over a fixed arrangement of services.

    ``action[l]`` counts requested services per type and ``arrangement``
    lists the order they are threaded through the trellis; it must contain
    exactly ``action[l]`` occurrences of each type ``l``. ``snapshot`` is
    the idle server stock the batch may consume (integer or float).
    """

    def __init__(
        self,
        action: tuple[int, ...],
        arrangement: tuple[int, ...],
        snapshot: np.ndarray,
        catalog: Catalog,
        infra: Infrastructure,
    ) -> None:
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
        if np.any(snap < 0) or np.any(snap > infra.capacity):
            raise ValueError("snapshot must lie within [0, capacity]")

        self.action = tuple(int(a) for a in action)
        self.arrangement = tuple(int(l) for l in arrangement)
        self.catalog = catalog
        self.infra = infra
        self._snapshot = snap
        self.evaluations = 0  # (predecessor, state) pairs scored by run()

        # Stage table: (type, vnf index, backup stage?), main before backup.
        self._stage_info: list[tuple[int, int, bool]] = [
            (l, u, backup) for l in self.arrangement
            for u in range(catalog[l].num_vnfs) for backup in (False, True)
        ]
        self.num_stages = len(self._stage_info)

        # Fast lookup tables: state id 0 is "no server" with zero cost, no
        # links and a failure probability of 1 so it never improves reliability.
        self._v_state = [1.0] + [infra.server_failure(s) for s in range(infra.num_servers)]
        self._link = [[0.0] * (infra.num_servers + 1)]
        self._link += [[0.0] + row for row in infra.link_cost.tolist()]

        self._stage_demand: list[np.ndarray] = []
        self._stage_term: list[list[float]] = []
        for l, u, _backup in self._stage_info:
            spec = catalog[l].vnfs[u]
            r = np.asarray(spec.demands, dtype=snap.dtype)
            per_inp = infra.unit_cost @ np.asarray(spec.demands, dtype=float)
            per_inp = per_inp + infra.deployment_cost[:, spec.vnf_type]
            self._stage_term.append([0.0] + per_inp[infra.server_inp].tolist())
            self._stage_demand.append(r)

        self.stages: list[dict[int, PathState]] | None = None

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
        link = self._link
        bandwidth = stype.bandwidth
        penalty = stype.penalty
        base = self._stage_term[m - 1][x2]
        v2 = self._v_state[x2]
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
                vm = self._v_state[x1]
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
        stages: list[dict[int, PathState]] = [
            {0: PathState(0.0, 1.0, self._snapshot.copy(), ())}
        ]
        self.stages = stages
        if self.num_stages == 0:
            return TrellisResult(True, [], ())

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
                return TrellisResult(False, [], ())
            stages.append(cur)

        return self._read_out(stages)

    def _read_out(self, stages: list[dict[int, PathState]]) -> TrellisResult:
        """Pick the terminal state and unwind its path into per-service records.

        Every state keeps one survivor, so the winner's prefix up to stage
        ``m - 1`` is that stage's survivor at ``path[m - 2]``; replaying the
        move from it gives the routing charge each stage added.
        """
        last_type = self.catalog[self.arrangement[-1]]
        final = stages[-1]
        best_x = -1
        best_val = np.inf
        for x, st in final.items():
            target = 1.0 if x == 0 else 1.0 - last_type.failure_cap
            short = target - st.reliability
            val = st.cost + (last_type.penalty * short if short > 0 else 0.0)
            if val < best_val:
                best_val = val
                best_x = x
        path = final[best_x].path

        services: list[PlacedService] = []
        for m in range(1, self.num_stages + 1):
            l, u, backup = self._stage_info[m - 1]
            x1 = path[m - 2] if m > 1 else 0
            x = path[m - 1]
            if u == 0 and not backup:
                first, cost = m - 1, 0.0
            cost = cost + self._stage_term[m - 1][x] + self._replay(m, x1, x)[2]
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
) -> TrellisResult:
    """Build and run one trellis placement."""
    return TrellisPlacement(action, arrangement, snapshot, catalog, infra).run()
