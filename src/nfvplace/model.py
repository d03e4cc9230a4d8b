"""Core domain model: provider infrastructure, service chain catalog,
placement plans, and their closed-form cost and reliability arithmetic.

Servers are addressed by a flat index that runs provider by provider;
placement plans reference those flat indices. Numeric tables are numpy
arrays treated as read-only after construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

COST_TOL = 1e-9
PROB_TOL = 1e-12
DEFAULT_PENALTY = 1.0e6


class LedgerError(RuntimeError):
    """A ledger operation would leave idle resources out of bounds."""


# the largest server capacity or demand: one unit more, which the trellis
# asks of a stock that must never fit, is still an int64
MAX_AMOUNT = 2**63 - 2


def _whole(value, what: str) -> int:
    """``value`` as an int; a fractional value is an error, not truncated."""
    n = int(value)
    if n != value:
        raise ValueError(f"{what} must be integers, got {value!r}")
    if n > MAX_AMOUNT:
        raise ValueError(f"{what} must be at most {MAX_AMOUNT}, got {n}")
    return n


@dataclass(frozen=True)
class InP:
    """One infrastructure provider; all its servers share one failure probability."""

    failure_prob: float
    servers: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "servers",
            tuple(tuple(_whole(c, "server capacities") for c in row) for row in self.servers),
        )
        if not 0.0 <= self.failure_prob < 1.0:
            raise ValueError(f"failure_prob must be in [0, 1), got {self.failure_prob}")
        if not self.servers:
            raise ValueError("a provider must own at least one server")
        if len({len(row) for row in self.servers}) != 1:
            raise ValueError("every server must list the same resource types")
        if any(c < 0 for row in self.servers for c in row):
            raise ValueError("server capacities must be non-negative")


# a numeric table: JSON holds it as rows of numbers
Table = np.ndarray


# eq=False keeps equality and hashing by identity: setups built from one
# infrastructure check it with ``is``
@dataclass(eq=False)
class Infrastructure:
    """Read-only aggregate of all providers.

    Carries flat-indexed server capacities and the link cost table plus the
    per-resource unit cost of each provider, which grows exponentially as
    the provider's failure probability drops below the highest acceptable
    level ``v_base``. Servers are the only capacity; links have a cost only.
    """

    inps: tuple[InP, ...]
    alpha: np.ndarray
    beta: float
    v_base: float
    deployment_cost: Table
    link_cost: Table | None = None

    def __post_init__(self) -> None:
        self.inps = tuple(self.inps)
        if not self.inps:
            raise ValueError("need at least one provider")
        self.alpha = np.asarray(self.alpha, dtype=float)
        if self.alpha.ndim != 1 or self.alpha.size == 0:
            raise ValueError("alpha must be a non-empty vector")
        if not np.all((self.alpha >= 0) & (self.alpha <= 1)):
            raise ValueError("resource weights must lie in [0, 1]")
        self.beta = float(self.beta)
        if not (math.isfinite(self.beta) and self.beta > 0):
            raise ValueError("beta must be finite and positive")
        self.v_base = float(self.v_base)
        if not 0.0 < self.v_base < 1.0:
            raise ValueError("v_base must lie in (0, 1)")

        self.num_inps = len(self.inps)
        self.num_resources = int(self.alpha.size)
        self.v = np.array([p.failure_prob for p in self.inps], dtype=float)
        if np.any(self.v > self.v_base):
            raise ValueError("provider failure probability exceeds the acceptable baseline")

        for p in self.inps:
            if len(p.servers[0]) != self.num_resources:
                raise ValueError("server capacity width does not match alpha")
        self.servers_per_inp = tuple(len(p.servers) for p in self.inps)
        self.num_servers = sum(self.servers_per_inp)
        self.server_inp = np.array(
            [i for i, p in enumerate(self.inps) for _ in p.servers], dtype=np.int64
        )
        self.capacity = np.array(
            [row for p in self.inps for row in p.servers], dtype=np.int64
        )
        # cheap providers are the failure-prone ones: cost rises as v_i falls
        self.unit_cost = self.alpha[None, :] * np.exp(self.beta * (self.v_base - self.v))[:, None]

        dep = np.asarray(self.deployment_cost, dtype=float)
        if dep.ndim != 2 or dep.shape[0] != self.num_inps:
            raise ValueError("deployment_cost must be a (providers x vnf types) table")
        if not np.all(np.isfinite(dep) & (dep >= 0)):
            raise ValueError("deployment costs must be finite and non-negative")
        self.deployment_cost = dep
        self.num_vnf_types = int(dep.shape[1])

        s = self.num_servers
        lc = np.zeros((s, s)) if self.link_cost is None else np.asarray(self.link_cost, dtype=float)
        if lc.shape != (s, s):
            raise ValueError("link_cost must be a square servers x servers table")
        if not np.all(np.isfinite(lc)):
            raise ValueError("link costs must be finite")
        if not np.allclose(lc, lc.T, atol=COST_TOL):
            raise ValueError("link_cost must be symmetric")
        if np.any(np.abs(np.diag(lc)) > 0):
            raise ValueError("link cost from a server to itself must be zero")
        if np.any(lc < 0):
            raise ValueError("link costs must be non-negative")
        self.link_cost = lc

        for arr in (self.v, self.unit_cost, self.capacity, self.server_inp,
                    self.deployment_cost, self.link_cost, self.alpha):
            arr.setflags(write=False)
        # each server's failure probability as a float, read by server_failure
        self._server_failure = self.v[self.server_inp].tolist()

    def server_failure(self, sid: int) -> float:
        """Failure probability of the provider owning the given server."""
        if not 0 <= sid < self.num_servers:
            raise IndexError(f"server {sid} out of range")
        return self._server_failure[sid]


@dataclass(frozen=True)
class VnfSpec:
    """One function in a chain: its type id and per-resource demand."""

    vnf_type: int
    demands: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "demands", tuple(_whole(d, "demands") for d in self.demands))
        if self.vnf_type < 0:
            raise ValueError("vnf_type must be non-negative")
        if not self.demands or any(d < 0 for d in self.demands):
            raise ValueError("demands must be non-negative and non-empty")


@dataclass(frozen=True)
class ServiceType:
    """A service class: its chain, reliability target, traffic and arrival law."""

    failure_cap: float
    departure_prob: float
    bandwidth: float
    vnfs: tuple[VnfSpec, ...]
    arrival_pmf: tuple[float, ...]
    admission_reward: float
    sigma_max: int
    penalty: float = DEFAULT_PENALTY
    name: str = ""

    def __post_init__(self) -> None:
        object.__setattr__(self, "vnfs", tuple(self.vnfs))
        object.__setattr__(self, "arrival_pmf", tuple(float(p) for p in self.arrival_pmf))
        if not 0.0 < self.failure_cap < 1.0:
            raise ValueError("failure_cap must lie in (0, 1)")
        if not 0.0 < self.departure_prob <= 1.0:
            raise ValueError("departure_prob must lie in (0, 1]")
        if not (math.isfinite(self.bandwidth) and self.bandwidth >= 0):
            raise ValueError("bandwidth must be finite and non-negative")
        if not self.vnfs:
            raise ValueError("a service needs at least one VNF")
        if len({len(v.demands) for v in self.vnfs}) != 1:
            raise ValueError("all VNFs of a service must share the resource width")
        if not self.arrival_pmf or not all(math.isfinite(p) and p >= 0 for p in self.arrival_pmf):
            raise ValueError("arrival_pmf entries must be finite and non-negative")
        if abs(sum(self.arrival_pmf) - 1.0) > PROB_TOL:
            raise ValueError("arrival_pmf must sum to one")
        if not (math.isfinite(self.admission_reward) and self.admission_reward >= 0):
            raise ValueError("admission_reward must be finite and non-negative")
        if self.sigma_max < 0:
            raise ValueError("sigma_max must be non-negative")
        if not (math.isfinite(self.penalty) and self.penalty > 0):
            raise ValueError("penalty must be finite and positive")

    @property
    def num_vnfs(self) -> int:
        return len(self.vnfs)

    @property
    def lambda_max(self) -> int:
        return len(self.arrival_pmf) - 1

    @cached_property
    def arrival_cdf(self) -> list[float]:
        """Cumulative arrival probabilities formed as ``Generator.choice``
        forms them: the pmf's cumulative sum divided by its last entry."""
        cdf = np.cumsum(self.arrival_pmf)
        return (cdf / cdf[-1]).tolist()


Catalog = Sequence[ServiceType]


def is_integer(x) -> bool:
    """Whether ``x`` may stand for a count or an index: an int or a numpy
    integer, but not a bool. A hot path tests ``type(x) is int`` first."""
    return type(x) is int or (type(x) is not bool and isinstance(x, (int, np.integer)))


def check_type_indices(type_indices: Sequence[int], catalog: Catalog) -> list[int]:
    """``type_indices`` as a list of ints; an entry that is not an integer
    in ``range(len(catalog))``, a bool included, raises ``ValueError``."""
    n = len(catalog)
    for l in type_indices:
        if (type(l) is not int and not is_integer(l)) or not 0 <= l < n:
            raise ValueError(f"type index {l!r} is not an integer in range({n})")
    return [int(l) for l in type_indices]


@dataclass(frozen=True)
class VnfPlacement:
    """Servers hosting one VNF: a main and an optional distinct backup."""

    main: int
    backup: int | None = None


@dataclass(frozen=True)
class ServicePlacement:
    type_index: int
    vnfs: tuple[VnfPlacement, ...]


def _check_servers(
    vnfs: Sequence[VnfPlacement], infra: Infrastructure, where: str = "", distinct: bool = True
) -> None:
    """Raise ``ValueError``, naming ``where`` and the VNF, when a VNF's
    main or backup is not an integer in ``range(infra.num_servers)``, a
    bool included, or, with ``distinct``, when its backup is its main."""
    n = infra.num_servers
    for u, vp in enumerate(vnfs):
        main, backup = vp.main, vp.backup
        if not ((type(main) is int or is_integer(main)) and 0 <= main < n):
            raise ValueError(f"{where}vnf {u}: main server {main!r} is not an integer in range({n})")
        if backup is not None and not ((type(backup) is int or is_integer(backup)) and 0 <= backup < n):
            raise ValueError(f"{where}vnf {u}: backup server {backup!r} is not an integer in range({n})")
        if distinct and backup == main:
            raise ValueError(f"{where}vnf {u}: backup server must differ from the main server")


def _check_placement(
    placement: ServicePlacement,
    infra: Infrastructure,
    catalog: Catalog,
    service: int | None = None,
    distinct: bool = True,
) -> ServiceType:
    """The service type of ``placement``, once its type index is an
    integer in ``range(len(catalog))`` and each VNF's main and backup name
    servers of ``infra``, distinct ones with ``distinct``; otherwise
    ``ValueError`` naming ``service``, its place in a plan, and the VNF."""
    where = "" if service is None else f"service {service}: "
    l = placement.type_index
    if not ((type(l) is int or is_integer(l)) and 0 <= l < len(catalog)):
        raise ValueError(f"{where}type index {l!r} is not an integer in range({len(catalog)})")
    _check_servers(placement.vnfs, infra, where, distinct)
    return catalog[l]


@dataclass(frozen=True)
class PlacementPlan:
    services: tuple[ServicePlacement, ...]


@dataclass
class PlacedService:
    """One placed service as every strategy reports it and the simulator
    holds it while active: where it runs, its placement cost, its failure
    probability and its per-server resource usage."""

    type_index: int
    placement: ServicePlacement
    cost: float
    failure_prob: float
    usage: np.ndarray


def meets_target(svc: PlacedService, catalog: Catalog) -> bool:
    """The admission rule: a placed service counts only when its failure
    probability is within its type's cap."""
    return svc.failure_prob <= catalog[svc.type_index].failure_cap


@dataclass(frozen=True)
class CostBreakdown:
    """Placement cost split into its three charged components."""

    server: float
    forwarding: float
    deployment: float

    @property
    def total(self) -> float:
        return self.server + self.forwarding + self.deployment


def service_cost(placement: ServicePlacement, infra: Infrastructure, catalog: Catalog) -> CostBreakdown:
    """Cost of one placed service.

    Charges every assigned server (main and backup) for the VNF's demands
    and its deployment, and charges the chain bandwidth on every link
    between servers hosting consecutive VNFs. A missing backup contributes
    nothing; co-located servers route internally at zero cost.
    """
    stype = _check_placement(placement, infra, catalog)
    if len(placement.vnfs) != stype.num_vnfs:
        raise ValueError("placement does not cover the service chain")
    server = 0.0
    deploy = 0.0
    forward = 0.0
    prev: VnfPlacement | None = None
    for spec, vp in zip(stype.vnfs, placement.vnfs):
        demands = np.asarray(spec.demands, dtype=float)
        for sid in (vp.main, vp.backup):
            if sid is None:
                continue
            inp = int(infra.server_inp[sid])
            server += float(demands @ infra.unit_cost[inp])
            deploy += float(infra.deployment_cost[inp, spec.vnf_type])
        if prev is not None:
            for a in (prev.main, prev.backup):
                for b in (vp.main, vp.backup):
                    if a is None or b is None:
                        continue
                    forward += stype.bandwidth * float(infra.link_cost[a, b])
        prev = vp
    return CostBreakdown(server, forward, deploy)


def service_failure_probability(vnfs: Sequence[VnfPlacement], infra: Infrastructure) -> float:
    """Probability that at least one VNF loses all its servers.

    A VNF fails only when its main and (if present) backup fail together;
    VNF failures are treated as independent across the chain.
    """
    _check_servers(vnfs, infra)
    up = 1.0
    for vp in vnfs:
        f = infra.server_failure(vp.main)
        if vp.backup is not None:
            f *= infra.server_failure(vp.backup)
        up *= 1.0 - f
    return 1.0 - up


def service_usage(placement: ServicePlacement, infra: Infrastructure, catalog: Catalog) -> np.ndarray:
    """Per-server resource demand of one placed service, mains plus backups."""
    stype = _check_placement(placement, infra, catalog)
    usage = np.zeros((infra.num_servers, infra.num_resources), dtype=np.int64)
    for spec, vp in zip(stype.vnfs, placement.vnfs):
        demands = np.asarray(spec.demands, dtype=np.int64)
        usage[vp.main] += demands
        if vp.backup is not None:
            usage[vp.backup] += demands
    return usage


def _whole_table(values, name: str) -> np.ndarray:
    """``values`` as a new int64 table; a fractional entry is an error, not truncated."""
    table = np.asarray(values)
    if table.dtype.kind not in "biu":
        whole = np.isfinite(table) & (table == np.trunc(table))
        if not whole.all():
            raise LedgerError(f"{name} must hold integers, got {table[~whole][0].item()!r}")
    return table.astype(np.int64)


class ResourceLedger:
    """Mutable idle-resource account for the servers, the only capacity the
    model has; links carry a routing cost but no capacity.

    Written by a single owner; concurrent readers must hold a copy.
    """

    def __init__(self, server_capacity, server_idle=None) -> None:
        self.server_capacity = _whole_table(server_capacity, "server capacity")
        self.server_idle = (
            self.server_capacity.copy() if server_idle is None
            else _whole_table(server_idle, "server idle table")
        )
        if self.server_idle.shape != self.server_capacity.shape:
            raise LedgerError("server idle table shape does not match capacity")
        if np.any(self.server_idle < 0) or np.any(self.server_idle > self.server_capacity):
            raise LedgerError("server idle resources out of [0, capacity]")

    @classmethod
    def full(cls, infra: Infrastructure) -> "ResourceLedger":
        return cls(infra.capacity)

    def allocate(self, usage: np.ndarray) -> None:
        """Consume server resources; rejects requests exceeding idle stock."""
        if usage.dtype.kind != "i":
            usage = _whole_table(usage, "usage")
        if np.minimum.reduce(usage, axis=None, initial=0) < 0:
            raise LedgerError("usage must be non-negative")
        left = self.server_idle - usage
        if np.minimum.reduce(left, axis=None, initial=0) < 0:
            raise LedgerError("allocation exceeds idle resources")
        self.server_idle = left

    def release(self, usage: np.ndarray) -> None:
        """Return server resources; rejects releases exceeding capacity."""
        if usage.dtype.kind != "i":
            usage = _whole_table(usage, "usage")
        if np.minimum.reduce(usage, axis=None, initial=0) < 0:
            raise LedgerError("usage must be non-negative")
        freed = self.server_idle + usage
        if np.logical_or.reduce(freed > self.server_capacity, axis=None):
            raise LedgerError("release exceeds capacity")
        self.server_idle = freed


@dataclass(frozen=True)
class Violation:
    """One violated placement constraint."""

    constraint: str
    service: int | None
    detail: str


def validate_plan(
    plan: PlacementPlan,
    ledger: ResourceLedger,
    infra: Infrastructure,
    catalog: Catalog,
) -> list[Violation]:
    """Check a plan against the ledger and report every violated constraint.

    Covered: chain coverage, distinct main/backup pairing, server capacity
    and per-service reliability targets. Servers are the only capacity, so
    no link is checked. An empty report means the plan is admissible.
    """
    violations: list[Violation] = []
    # only services that pass coverage and distinctness are summed and rated
    usage = np.zeros((infra.num_servers, infra.num_resources), dtype=np.int64)
    reliability: list[Violation] = []
    for si, placement in enumerate(plan.services):
        stype = _check_placement(placement, infra, catalog, si, distinct=False)
        if len(placement.vnfs) != stype.num_vnfs:
            violations.append(Violation("chain-coverage", si, "placement does not cover every VNF"))
            continue
        shared = [u for u, vp in enumerate(placement.vnfs) if vp.backup == vp.main]
        for u in shared:
            violations.append(
                Violation("distinct-servers", si, f"vnf {u} backs up onto its own main server")
            )
        if shared:
            continue
        usage += service_usage(placement, infra, catalog)
        e = service_failure_probability(placement.vnfs, infra)
        if e > stype.failure_cap:
            reliability.append(
                Violation(
                    "reliability",
                    si,
                    f"failure probability {e:.6g} exceeds cap {stype.failure_cap:.6g}",
                )
            )

    over = usage > ledger.server_idle
    for sid, j in zip(*np.nonzero(over)):
        violations.append(
            Violation(
                "server-capacity",
                None,
                f"server {int(sid)} resource {int(j)}: demand {int(usage[sid, j])} "
                f"exceeds idle {int(ledger.server_idle[sid, j])}",
            )
        )
    return violations + reliability
