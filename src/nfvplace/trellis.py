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
        self.evaluations = 0  # predecessor scorings, for complexity checks

        # Stage table: (service position, type, vnf index, backup stage?).
        self._stage_info: list[tuple[int, int, int, bool]] = []
        for k, l in enumerate(self.arrangement):
            for u in range(catalog[l].num_vnfs):
                self._stage_info.append((k, l, u, False))
                self._stage_info.append((k, l, u, True))
        self.num_stages = len(self._stage_info)

        # Fast lookup tables: state id 0 is "no server" with zero cost and
        # a failure probability of 1 so it never improves reliability.
        self._v_state = [1.0] + [infra.server_failure(s) for s in range(infra.num_servers)]
        self._link = infra.link_cost.tolist()

        self._stage_demand: list[np.ndarray] = []
        self._stage_term: list[list[float]] = []
        for _, l, u, _backup in self._stage_info:
            spec = catalog[l].vnfs[u]
            r = np.asarray(spec.demands, dtype=snap.dtype)
            per_inp = infra.unit_cost @ np.asarray(spec.demands, dtype=float)
            per_inp = per_inp + infra.deployment_cost[:, spec.vnf_type]
            self._stage_term.append([0.0] + per_inp[infra.server_inp].tolist())
            self._stage_demand.append(r)

        self.stages: list[dict[int, PathState]] | None = None

    # -- scoring --------------------------------------------------------

    def _link_between(self, a: int, b: int) -> float:
        if a == 0 or b == 0:
            return 0.0
        return self._link[a - 1][b - 1]

    def _routing_charge(self, m: int, path: tuple[int, ...], x2: int) -> float:
        """Bandwidth cost of the links a new stage choice creates."""
        _, l, u, backup = self._stage_info[m - 1]
        if u == 0 or x2 == 0:
            return 0.0
        b = self.catalog[l].bandwidth
        if not backup:
            # main of vnf u: links from the previous vnf's main and backup
            return b * (self._link_between(path[m - 3], x2) + self._link_between(path[m - 2], x2))
        # backup of vnf u: links from the previous vnf's backup and main
        return b * (self._link_between(path[m - 3], x2) + self._link_between(path[m - 4], x2))

    def _reliability_after(self, m: int, x1: int, tau1: float, x2: int) -> float:
        """Chain reliability of the current service once ``x2`` is chosen."""
        _, _, u, backup = self._stage_info[m - 1]
        v2 = self._v_state[x2]
        if not backup:
            fresh = 1.0 - v2
            return fresh if u == 0 else tau1 * fresh
        vm = self._v_state[x1]
        if u == 0:
            return 1.0 - vm * v2
        # swap the trailing main-only factor for the protected one
        return tau1 * (1.0 - vm * v2) / (1.0 - vm)

    def _shortfall_penalty(self, m: int, tau_after: float, x2: int) -> float:
        _, l, _, _ = self._stage_info[m - 1]
        stype = self.catalog[l]
        target = 1.0 if x2 == 0 else 1.0 - stype.failure_cap
        short = target - tau_after
        return stype.penalty * short if short > 0 else 0.0

    # Public scoring views over a built trellis, used by diagnostics and
    # replay tests; ``run`` inlines the same arithmetic.

    def transition_reliability(self, m: int, x1: int, x2: int) -> float:
        prev = self._require_stage(m - 1)
        return self._reliability_after(m, x1, prev[x1].reliability, x2)

    def reliability_penalty(self, m: int, x1: int, x2: int) -> float:
        return self._shortfall_penalty(m, self.transition_reliability(m, x1, x2), x2)

    def transition_cost(self, m: int, x1: int, x2: int) -> float:
        """Full decision metric of moving from ``x1`` to ``x2`` at stage ``m``."""
        prev = self._require_stage(m - 1)
        st1 = prev[x1]
        theta = self._stage_term[m - 1][x2]
        theta += self._routing_charge(m, st1.path, x2)
        theta += self._shortfall_penalty(
            m, self._reliability_after(m, x1, st1.reliability, x2), x2
        )
        return theta + st1.cost

    def _require_stage(self, m: int) -> dict[int, PathState]:
        if self.stages is None:
            raise RuntimeError("run() must build the trellis first")
        if not 0 <= m < len(self.stages):
            raise IndexError(f"stage {m} not built")
        return self.stages[m]

    # -- search ---------------------------------------------------------

    def run(self) -> TrellisResult:
        """Search the trellis and read out the best batch placement."""
        infra = self.infra
        num_servers = infra.num_servers
        stages: list[dict[int, PathState]] = [
            {0: PathState(0.0, 1.0, self._snapshot.copy(), ())}
        ]
        if self.num_stages == 0:
            self.stages = stages
            return TrellisResult(True, [], ())

        for m in range(1, self.num_stages + 1):
            _, l, u, backup = self._stage_info[m - 1]
            stype = self.catalog[l]
            r = self._stage_demand[m - 1]
            term = self._stage_term[m - 1]
            bandwidth = stype.bandwidth
            target_rel = 1.0 - stype.failure_cap
            penalty = stype.penalty
            prev = stages[m - 1]
            feas = {x1: np.all(st.remaining >= r, axis=1) for x1, st in prev.items()}
            cur: dict[int, PathState] = {}

            for x2 in ([0] if backup else []) + list(range(1, num_servers + 1)):
                if x2 == 0:
                    candidates = list(prev)
                else:
                    srv = x2 - 1
                    candidates = [
                        x1 for x1 in prev
                        if feas[x1][srv] and not (backup and x1 == x2)
                    ]
                if not candidates:
                    continue  # state removed at this stage

                base = term[x2]
                v2 = self._v_state[x2]
                target = 1.0 if x2 == 0 else target_rel
                best_theta = np.inf
                best_x1 = -1
                best_route = 0.0
                best_tau = 0.0
                for x1 in candidates:
                    st1 = prev[x1]
                    if u == 0 or x2 == 0:
                        route = 0.0
                    else:
                        path = st1.path
                        if not backup:
                            route = bandwidth * (
                                self._link_between(path[m - 3], x2)
                                + self._link_between(path[m - 2], x2)
                            )
                        else:
                            route = bandwidth * (
                                self._link_between(path[m - 3], x2)
                                + self._link_between(path[m - 4], x2)
                            )
                    if not backup:
                        tau = (1.0 - v2) if u == 0 else st1.reliability * (1.0 - v2)
                    else:
                        vm = self._v_state[x1]
                        if u == 0:
                            tau = 1.0 - vm * v2
                        else:
                            tau = st1.reliability * (1.0 - vm * v2) / (1.0 - vm)
                    short = target - tau
                    hinge = penalty * short if short > 0 else 0.0
                    theta = base + route + hinge + st1.cost
                    self.evaluations += 1
                    if theta < best_theta:
                        best_theta = theta
                        best_x1 = x1
                        best_route = route
                        best_tau = tau

                chosen = prev[best_x1]
                remaining = chosen.remaining.copy()
                if x2 != 0:
                    remaining[x2 - 1] -= r
                cur[x2] = PathState(
                    cost=chosen.cost + base + best_route,  # hinge kept out of path cost
                    reliability=best_tau,
                    remaining=remaining,
                    path=chosen.path + (x2,),
                )

            if not cur:
                # only main stages can empty out: even stages always keep state 0
                self.stages = stages
                return TrellisResult(False, [], ())
            stages.append(cur)

        self.stages = stages
        return self._read_out(stages)

    def _read_out(self, stages: list[dict[int, PathState]]) -> TrellisResult:
        """Pick the terminal state and unwind its path into per-service records."""
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

        infra = self.infra
        services: list[PlacedService] = []
        cost = 0.0
        up = 1.0
        usage: np.ndarray | None = None
        mains: list[int] = []
        backups: list[int | None] = []

        for m in range(1, self.num_stages + 1):
            _, l, u, backup = self._stage_info[m - 1]
            stype = self.catalog[l]
            x = path[m - 1]
            if u == 0 and not backup:
                cost = 0.0
                up = 1.0
                usage = np.zeros((infra.num_servers, infra.num_resources), dtype=np.int64)
                mains = []
                backups = []
            if x != 0:
                usage[x - 1] += np.asarray(stype.vnfs[u].demands, dtype=np.int64)
                cost += self._stage_term[m - 1][x]
            cost += self._routing_charge(m, path, x)
            if not backup:
                mains.append(x - 1)
            else:
                v_main = self._v_state[path[m - 2]]
                v_back = self._v_state[x]
                up *= 1.0 - v_main * v_back
                backups.append(x - 1 if x != 0 else None)
                if u == stype.num_vnfs - 1:
                    placement = ServicePlacement(
                        l,
                        tuple(VnfPlacement(mn, bk) for mn, bk in zip(mains, backups)),
                    )
                    services.append(PlacedService(l, placement, cost, 1.0 - up, usage))

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
