"""Slotted environment: sample arrivals, place them with the configured
strategy, sample departures, and keep the ground-truth resource ledger.

Placement algorithms only ever see copies of the ledger; admissions are the
sole writes, and a conservation check runs every slot so any bookkeeping
drift aborts the run instead of skewing metrics. Only services that meet
their reliability target are admitted and counted."""

from __future__ import annotations

import csv
import json
from array import array
from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .baselines import BaselineId, BaselineTables, run_baseline
from .model import Catalog, Infrastructure, PlacedService, ResourceLedger, meets_target
from .jsonio import check_setting_types
from .policy import Policy
from .trellis import PlacementContext, place_batch

MDP_STRATEGY = "mdp"
STRATEGY_IDS = (MDP_STRATEGY,) + tuple(b.value for b in BaselineId)
# strategies that place through place_batch; the others call run_baseline
BATCH_STRATEGIES = (MDP_STRATEGY, BaselineId.TRELLIS_GREEDY.value)


class SimulationError(RuntimeError):
    """Ground-truth bookkeeping was violated."""


@dataclass(frozen=True)
class SimParams:
    """The simulator's settings, each with its default and its range; a
    value of the wrong type, or then out of range, raises
    ``ValueError("<field>: <rule>")``."""

    slots: int = 1000
    seed: int = 0

    # a run holds five per-slot metric columns, so its slot count bounds
    # their size: 10**7 slots take about 500 MB at four service types
    MAX_SLOTS = 10**7

    def __post_init__(self) -> None:
        check_setting_types(self)
        if self.slots < 1:
            raise ValueError("slots: must be positive")
        if self.slots > self.MAX_SLOTS:
            raise ValueError(f"slots: must be at most {self.MAX_SLOTS}")
        if self.seed < 0:
            raise ValueError("seed: must be non-negative")


def sample_arrivals(rng: np.random.Generator, catalog: Catalog) -> tuple[int, ...]:
    """Independent per-type arrival counts for one slot: one uniform draw
    per type, inverted through the type's ``arrival_cdf`` by right bisection.
    That is ``rng.choice(len(pmf), p=pmf)``'s own algorithm, so the counts
    and the generator's stream position match it draw for draw."""
    draws = rng.random(len(catalog)).tolist()
    return tuple(bisect_right(t.arrival_cdf, u) for t, u in zip(catalog, draws))


def sample_departures(rng: np.random.Generator, actives, catalog: Catalog) -> list[int]:
    """Indices of active services that depart at the end of the slot."""
    if not actives:
        return []
    draws = rng.random(len(actives)).tolist()
    return [
        i
        for i, (svc, u) in enumerate(zip(actives, draws))
        if u < catalog[svc.type_index].departure_prob
    ]


@dataclass
class MetricsReport:
    """Per-slot counters plus derived aggregates for one run."""

    num_types: int
    chain_lengths: tuple[int, ...]
    arrivals: np.ndarray
    admissions: np.ndarray
    placement_cost: np.ndarray
    backups: np.ndarray
    vnfs: np.ndarray

    @property
    def slots(self) -> int:
        return int(self.arrivals.shape[0])

    @property
    def admission_ratio(self) -> float:
        arrived = int(self.arrivals.sum())
        return float(self.admissions.sum()) / arrived if arrived else 0.0

    def cumulative_ratio_series(self) -> np.ndarray:
        arrived = np.cumsum(self.arrivals.sum(axis=1))
        admitted = np.cumsum(self.admissions.sum(axis=1))
        return np.divide(
            admitted, arrived, out=np.zeros(len(arrived)), where=arrived > 0
        )

    @property
    def mean_placement_cost(self) -> float:
        admitted = int(self.admissions.sum())
        return float(self.placement_cost.sum()) / admitted if admitted else 0.0

    @property
    def backups_per_vnf(self) -> float:
        vnfs = int(self.vnfs.sum())
        return float(self.backups.sum()) / vnfs if vnfs else 0.0

    @property
    def mean_admitted_chain_length(self) -> float:
        admitted = int(self.admissions.sum())
        if not admitted:
            return 0.0
        per_type = self.admissions.sum(axis=0)
        total = sum(int(c) * u for c, u in zip(per_type, self.chain_lengths))
        return total / admitted

    def admission_ratio_by_type(self) -> list[float]:
        arrived = self.arrivals.sum(axis=0)
        admitted = self.admissions.sum(axis=0)
        return [
            float(a) / int(n) if n else 0.0 for a, n in zip(admitted, arrived)
        ]

    def admission_ratio_by_length(self) -> dict[int, float]:
        arrived: dict[int, int] = {}
        admitted: dict[int, int] = {}
        for l, u in enumerate(self.chain_lengths):
            arrived[u] = arrived.get(u, 0) + int(self.arrivals[:, l].sum())
            admitted[u] = admitted.get(u, 0) + int(self.admissions[:, l].sum())
        return {
            u: (admitted[u] / arrived[u] if arrived[u] else 0.0)
            for u in sorted(arrived)
        }

    def summary(self) -> dict:
        return {
            "slots": self.slots,
            "arrivals": [int(x) for x in self.arrivals.sum(axis=0)],
            "admissions": [int(x) for x in self.admissions.sum(axis=0)],
            "admission_ratio": self.admission_ratio,
            "admission_ratio_by_type": self.admission_ratio_by_type(),
            "admission_ratio_by_length": {
                str(u): r for u, r in self.admission_ratio_by_length().items()
            },
            "mean_placement_cost": self.mean_placement_cost,
            "backups_per_vnf": self.backups_per_vnf,
            "mean_admitted_chain_length": self.mean_admitted_chain_length,
        }

    def to_csv(self, path) -> None:
        ratios = self.cumulative_ratio_series()
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            header = (
                ["slot"]
                + [f"arrivals_t{l}" for l in range(self.num_types)]
                + [f"admissions_t{l}" for l in range(self.num_types)]
                + ["placement_cost", "backups", "cumulative_admission_ratio"]
            )
            writer.writerow(header)
            for n in range(self.slots):
                writer.writerow(
                    [n]
                    + [int(x) for x in self.arrivals[n]]
                    + [int(x) for x in self.admissions[n]]
                    + [repr(float(self.placement_cost[n])), int(self.backups[n]), repr(float(ratios[n]))]
                )

    def to_json(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.summary(), fh, sort_keys=True, indent=2)
            fh.write("\n")


class Simulation:
    """One seeded run of the slotted system under a fixed strategy."""

    def __init__(
        self,
        infra: Infrastructure,
        catalog: Catalog,
        strategy: str,
        policy: Policy | None = None,
        seed: int = SimParams.seed,
    ) -> None:
        if strategy not in STRATEGY_IDS:
            raise ValueError(f"unknown strategy {strategy!r}; choose from {STRATEGY_IDS}")
        if strategy == MDP_STRATEGY:
            if policy is None:
                raise ValueError("the mdp strategy needs a solved policy")
            if policy.sigma_max != tuple(t.sigma_max for t in catalog) or (
                policy.lambda_max != tuple(t.lambda_max for t in catalog)
            ):
                raise ValueError("policy bounds do not match the catalog")
        self.infra = infra
        self.catalog = catalog
        self.strategy = strategy
        self.policy = policy
        # built once per run: the strategy reads them on every slot
        self.context = PlacementContext(catalog, infra) if strategy in BATCH_STRATEGIES else None
        self.tables = BaselineTables(infra, catalog) if self.context is None else self.context.tables
        # the seed obeys the same rule as a config's or the CLI's
        self.rng = np.random.default_rng(SimParams(seed=seed).seed)
        self.ledger = ResourceLedger.full(infra)
        self.actives: list[PlacedService] = []
        # per type, how many services ``actives`` holds, kept as they come and go
        self.active_counts = [0] * len(catalog)
        self.slot = 0

    def run_slot(self) -> dict:
        """Advance one slot; returns the per-slot metric row."""
        catalog = self.catalog
        lam = sample_arrivals(self.rng, catalog)

        if self.strategy == MDP_STRATEGY:
            action, arrangement = self.policy.lookup(lam, self.active_counts)
        else:
            # static strategies take every arrival, in type order
            action, arrangement = lam, tuple(l for l, n in enumerate(lam) for _ in range(n))
        if not arrangement:
            placed = []
        elif self.strategy in BATCH_STRATEGIES:
            placed = place_batch(
                action, arrangement, self.ledger.server_idle, catalog, self.infra, self.context
            ).services
        else:
            outcomes = run_baseline(
                self.strategy, arrangement, self.ledger, self.infra, catalog, tables=self.tables
            )
            placed = [
                PlacedService(o.type_index, o.placement, o.cost, o.failure_prob, o.usage)
                for o in outcomes
                if o.placed
            ]
        admitted = [s for s in placed if meets_target(s, catalog)]

        admissions = [0] * len(catalog)
        backups = 0
        vnfs = 0
        cost = 0.0
        for svc in admitted:
            self.ledger.allocate(svc.usage)
            self.actives.append(svc)
            self.active_counts[svc.type_index] += 1
            admissions[svc.type_index] += 1
            cost += svc.cost
            vnfs += len(svc.placement.vnfs)
            backups += sum(1 for vp in svc.placement.vnfs if vp.backup is not None)

        # departures include services admitted this very slot; the indices
        # come out ascending, so the last goes first and none shifts
        for i in reversed(sample_departures(self.rng, self.actives, catalog)):
            svc = self.actives[i]
            self.ledger.release(svc.usage)
            del self.actives[i]
            self.active_counts[svc.type_index] -= 1

        # the idle stock plus every active service's usage, one int64 sum
        total = np.add.reduce([self.ledger.server_idle] + [svc.usage for svc in self.actives])
        if not np.logical_and.reduce(total == self.ledger.server_capacity, axis=None):
            raise SimulationError(f"resource conservation broken at slot {self.slot}")

        self.slot += 1
        return {
            "arrivals": lam,
            "admissions": tuple(admissions),
            "placement_cost": cost,
            "backups": backups,
            "vnfs": vnfs,
        }

    def run(self, slots: int) -> MetricsReport:
        slots = SimParams(slots=slots).slots
        L = len(self.catalog)
        # each slot's figures go to typed buffers, copied into the report's
        # numpy columns once at the end, each at its exact size
        arrivals, admissions = array("i"), array("i")
        cost, backups, vnfs = array("d"), array("i"), array("i")
        for _ in range(slots):
            row = self.run_slot()
            arrivals.extend(row["arrivals"])
            admissions.extend(row["admissions"])
            cost.append(row["placement_cost"])
            backups.append(row["backups"])
            vnfs.append(row["vnfs"])
        return MetricsReport(
            num_types=L,
            chain_lengths=tuple(t.num_vnfs for t in self.catalog),
            arrivals=np.array(arrivals, np.int32).reshape(slots, L),
            admissions=np.array(admissions, np.int32).reshape(slots, L),
            placement_cost=np.array(cost),
            backups=np.array(backups, np.int32),
            vnfs=np.array(vnfs, np.int32),
        )


def run_experiment(
    infra: Infrastructure,
    catalog: Catalog,
    strategy: str,
    slots: int,
    seed: int,
    policy: Policy | None = None,
) -> MetricsReport:
    """Convenience wrapper: one seeded simulation, one report."""
    return Simulation(infra, catalog, strategy, policy=policy, seed=seed).run(slots)
