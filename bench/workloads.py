"""Workloads of the nfvplace benchmark: set-up, the MDP solve, simulated
episodes, the correctness pass and the outputs digest.

Everything here goes through the public ``nfvplace`` API. The caller puts
the repository's ``src`` directory on ``sys.path`` before importing this
module.
"""

from __future__ import annotations

import hashlib
import json
import statistics
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import nfvplace as nv

REDUCED_CONFIG = Path(__file__).with_name("reduced.json")

HEURISTICS = ("min_resource", "min_reliability", "cera", "redundant_vnf")

# The episode of each workload: (strategy, slots) pairs run back to back,
# each from a fresh Simulation seeded with the workload seed. Every episode
# has at least 1000 slots, so the per-slot p99 has ten samples above it.
EPISODES = {
    "seven-trellis": (("trellis", 1000),),
    "seven-heuristics": tuple((name, 250) for name in HEURISTICS),
    "reduced-policy": (("mdp", 4000),),
}

# Relative tolerance between a reported service cost and its recomputation.
COST_RTOL = 1e-9

# Slots between two runs of the correctness pass.
CHECK_EVERY = 50

# Typical wall time of reference_kernel() on the host the benchmark was
# defined on (2 vCPUs of an Intel Xeon at 2.1 GHz, Python 3.11.7, numpy
# 2.4.6). It only sets the unit: a reference second is a wall second of
# that host at this speed.
REFERENCE_SECONDS = 0.0042

# Timed seconds between two samples of the reference kernel in an episode,
# and the samples taken on each side of a solve. Samples close in time to
# what they scale track the host best.
REFERENCE_EVERY_S = 0.1
REFERENCE_AROUND_SOLVE = 5


def reference_kernel() -> float:
    """Wall time of a fixed mix of small numpy calls, dict building and
    scalar float loops (the kinds of work the workloads do) that does not
    use nfvplace, so it runs the same on every commit."""
    t0 = time.perf_counter()
    a = np.arange(64).reshape(16, 4)
    costs = [0.1 * k for k in range(21)]
    s = 0.0
    for i in range(250):
        b = a.copy()
        b[i % 16] -= 1
        if np.all(b >= 0):
            s += float(b.sum())
        d = {(i, j): j for j in range(5)}
        s += sum(d.values())
        best = float("inf")
        for k, c in enumerate(costs):
            theta = c + 0.5 * (k % 3) + (1.0 - 0.01 * k) * 2.0
            if theta < best:
                best = theta
        s += best
    return time.perf_counter() - t0


def host_scale(samples: list) -> float:
    """Factor that turns a wall time measured next to these reference
    kernel samples into reference seconds."""
    return REFERENCE_SECONDS / statistics.median(samples)


@dataclass
class Setup:
    """Inputs of one workload: the simulated config and the reduced MDP."""

    infra: nv.Infrastructure
    catalog: tuple
    reduced_infra: nv.Infrastructure
    reduced_catalog: tuple
    space: nv.StateSpace
    timings: dict = field(default_factory=dict)


def build(workload: str) -> Setup:
    """Load the workload's configs and build the reduced state space.

    Every workload solves the reduced MDP (see README.md), so every set-up
    builds its state space. ``timings`` splits the set-up by step.
    """
    if workload not in EPISODES:
        raise ValueError(f"unknown workload {workload!r}; choose from {sorted(EPISODES)}")
    t0 = time.perf_counter()
    reduced = nv.load_config(REDUCED_CONFIG)
    simulated = reduced if workload == "reduced-policy" else nv.seven_providers()
    t1 = time.perf_counter()
    space = nv.build_state_space(reduced.service_types)
    t2 = time.perf_counter()
    return Setup(
        infra=simulated.infrastructure,
        catalog=simulated.service_types,
        reduced_infra=reduced.infrastructure,
        reduced_catalog=reduced.service_types,
        space=space,
        timings={"config.load_s": t1 - t0, "mdp.space_build_s": t2 - t1},
    )


def solve(setup: Setup, seed: int) -> tuple[nv.Policy, float, list]:
    """Solve the reduced MDP; returns the policy, its wall time and the
    times of reference kernels run just before and after it.

    The transition model is built inside the timed region: its departure
    rows are filled lazily during the sweeps, so a model reused across
    solves would hide that work from every solve after the first.
    """
    reference = [reference_kernel() for _ in range(REFERENCE_AROUND_SOLVE)]
    t0 = time.perf_counter()
    model = nv.TransitionModel(setup.space, setup.reduced_catalog)
    policy = nv.value_iteration(
        setup.space, model, setup.reduced_catalog, setup.reduced_infra, seed=seed
    )
    elapsed = time.perf_counter() - t0
    reference += [reference_kernel() for _ in range(REFERENCE_AROUND_SOLVE)]
    return policy, elapsed, reference


@dataclass
class Episode:
    """One pass over a workload's (strategy, slots) list. ``seconds`` and
    ``slot_ns`` are wall times; ``reference`` holds the reference kernel
    samples taken between slots."""

    reports: list
    slot_ns: list
    seconds: float
    problems: list
    reference: list

    @property
    def scale(self) -> float:
        return host_scale(self.reference)


def run_episode(setup: Setup, workload: str, seed: int, policy, wrap_slot=None) -> Episode:
    """Closed loop with one caller: each slot starts when the previous one
    returns. ``wrap_slot``, if given, wraps every ``run_slot`` call (the
    traced run uses it to open the slot span).

    Between slots, and outside every timing, the correctness pass runs
    every CHECK_EVERY slots and after the last one, so services that depart
    before the end are checked too; the reference kernel runs at the start
    and every REFERENCE_EVERY_S timed seconds.
    """
    reports, slot_ns, problems = [], [], []
    reference = [reference_kernel()]
    since_reference = [0]
    seconds = 0.0
    for strategy, slots in EPISODES[workload]:
        sim = nv.Simulation(
            setup.infra,
            setup.catalog,
            strategy,
            policy=policy if strategy == "mdp" else None,
            seed=seed,
        )
        step = sim.run_slot if wrap_slot is None else wrap_slot(sim.run_slot)
        untimed = [0]

        def timed_slot(sim=sim, step=step, slots=slots, untimed=untimed):
            t0 = time.perf_counter_ns()
            row = step()
            t1 = time.perf_counter_ns()
            slot_ns.append(t1 - t0)
            since_reference[0] += t1 - t0
            if sim.slot % CHECK_EVERY == 0 or sim.slot == slots:
                problems.extend(check_simulation(sim))
            if since_reference[0] >= REFERENCE_EVERY_S * 1e9:
                reference.append(reference_kernel())
                since_reference[0] = 0
            untimed[0] += time.perf_counter_ns() - t1
            return row

        sim.run_slot = timed_slot
        t0 = time.perf_counter()
        reports.append(sim.run(slots))
        seconds += time.perf_counter() - t0 - untimed[0] / 1e9
    return Episode(reports, slot_ns, seconds, problems, reference)


def check_simulation(sim: nv.Simulation) -> list[str]:
    """Correctness pass over the services active now; returns one line per
    violation."""
    infra, catalog = sim.infra, sim.catalog
    problems = []
    for k, svc in enumerate(sim.actives):
        cap = catalog[svc.type_index].failure_cap
        failure = nv.service_failure_probability(svc.placement.vnfs, infra)
        if failure > cap:
            problems.append(f"{sim.strategy} slot {sim.slot}: active {k} fails with {failure!r} > cap {cap!r}")
        cost = nv.service_cost(svc.placement, infra, catalog).total
        if abs(cost - svc.cost) > COST_RTOL * abs(cost):
            problems.append(f"{sim.strategy} slot {sim.slot}: active {k} reported cost {svc.cost!r} != {cost!r}")
    if np.any(sim.ledger.server_idle < 0):
        problems.append(f"{sim.strategy} slot {sim.slot}: negative idle stock")
    plan = nv.PlacementPlan(tuple(svc.placement for svc in sim.actives))
    for v in nv.validate_plan(plan, nv.ResourceLedger.full(infra), infra, catalog):
        problems.append(f"{sim.strategy} slot {sim.slot}: {v.constraint}: {v.detail}")
    return problems


def policy_digest(policy: nv.Policy) -> str:
    """SHA-256 of the policy's per-state actions and arrangements."""
    blob = json.dumps([policy.actions, policy.arrangements], separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def episode_digest(episode: Episode) -> str:
    """SHA-256 of every ``MetricsReport.summary()`` of an episode."""
    blob = json.dumps([r.summary() for r in episode.reports], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def quality(episode: Episode) -> tuple[float, float]:
    """Admission ratio and mean placement cost pooled over the episode."""
    arrived = sum(int(r.arrivals.sum()) for r in episode.reports)
    admitted = sum(int(r.admissions.sum()) for r in episode.reports)
    cost = sum(float(r.placement_cost.sum()) for r in episode.reports)
    return admitted / arrived, cost / admitted
