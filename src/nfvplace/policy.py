"""Value-iteration solver that couples the trellis placement search with
learned per-state estimates of idle server resources.

The solver never sees the ground-truth ledger: every admission attempt is
scored against an estimate of how much capacity is idle when the system
holds a given mix of active services. Estimates start optimistic only for
the empty system and are refined with an exponentially decaying step from
the outcomes of simulated placements.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import MISSING, dataclass, field, fields
from typing import NamedTuple, Sequence

import numpy as np

from .mdp import DEFAULT_STATE_CAP, StateSpace, TransitionModel, action_reward
from .model import Catalog, Infrastructure, meets_target
from .trellis import PlacementContext, TrellisPlacement, TrellisResult

# a memo entry of None is a scored invalid batch, so a miss needs its own mark
_UNSCORED = object()

POLICY_FORMAT = "nfvplace-policy"
POLICY_VERSION = 1


@dataclass(frozen=True)
class MdpParams:
    """The solver's settings, each with its default and its range; a value
    out of range raises ``ValueError("<field>: <rule>")``. ``epsilon=None``
    asks for one thousandth of the largest admission reward."""

    gamma: float = 0.9
    epsilon: float | None = None
    num_arrangements: int = 10
    alpha_init: float = 1.0
    estimate_discount: float = 0.5
    max_iterations: int = 500
    state_space_cap: int = DEFAULT_STATE_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        for name, ok, rule in (
            ("gamma", 0.0 < self.gamma < 1.0, "must lie in (0, 1)"),
            ("epsilon", self.epsilon is None or self.epsilon > 0.0, "must be positive"),
            ("num_arrangements", self.num_arrangements >= 1, "must be at least 1"),
            ("alpha_init", 0.0 < self.alpha_init <= 1.0, "must lie in (0, 1]"),
            ("estimate_discount", 0.0 < self.estimate_discount < 1.0, "must lie in (0, 1)"),
            ("max_iterations", self.max_iterations >= 2, "must allow at least two sweeps"),
            ("seed", self.seed >= 0, "must be non-negative"),
        ):
            if not ok:
                raise ValueError(f"{name}: {rule}")


class ResourceEstimator:
    """Per-active-state estimates of idle server resources.

    Estimates are indexed by the active-count ordinal. The empty system is
    pinned to full capacity; every other state starts at zero and is pulled
    toward observed (source minus consumed) samples with a step that
    halves on every update by default.

    Each estimate is held as one flat row of floats in (server, resource)
    row-major order, with its float64 bytes kept as the state's memo key;
    the key is formed again only after an update has touched the row.
    """

    def __init__(
        self,
        space: StateSpace,
        infra: Infrastructure,
        alpha_init: float = MdpParams.alpha_init,
        discount: float = MdpParams.estimate_discount,
    ) -> None:
        MdpParams(alpha_init=alpha_init, estimate_discount=discount)  # range check
        self.space = space
        self.shape = (infra.num_servers, infra.num_resources)
        self.capacity = infra.capacity.astype(float).ravel().tolist()
        self._pack = struct.Struct(f"{len(self.capacity)}d").pack
        # untouched rows share one row and one key; an update replaces both
        zeros = [0.0] * len(self.capacity)
        self.rows = [zeros] * space.num_active
        self.keys: list[bytes | None] = [self._pack(*zeros)] * space.num_active
        self.idle_id = space.active_index((0,) * space.num_types) - 1
        self.rows[self.idle_id] = list(self.capacity)
        self.keys[self.idle_id] = None
        self.alpha = [float(alpha_init)] * space.num_active
        self.discount = float(discount)

    def snapshot(self, eta: int) -> np.ndarray:
        """Copy of the estimate for active ordinal ``eta`` (1-based)."""
        return np.array(self.rows[eta - 1]).reshape(self.shape)

    def key(self, eta: int) -> bytes:
        """``snapshot(eta).tobytes()``, formed once per change of the row."""
        idx = eta - 1
        key = self.keys[idx]
        if key is None:
            key = self.keys[idx] = self._pack(*self.rows[idx])
        return key

    def update(self, eta_next: int, sample: Sequence[float]) -> None:
        """Blend an observed sample into the destination state's estimate.

        ``sample`` is the idle snapshot the placement consumed from minus
        what the reliable admissions actually took, flattened in row-major
        order: a fresh sample of idle stock at the destination.
        """
        idx = eta_next - 1
        a = self.alpha[idx]
        b = 1.0 - a
        # convex combination, clipped to [0, capacity] only to trim float
        # drift at the edges; the same operations in the same order as
        # numpy's ``minimum(maximum(r * (1 - a) + a * o, 0.0), capacity)``,
        # which also turns -0.0 into 0.0
        self.rows[idx] = [
            c if (v := r * b + a * o) > c else (v if v > 0.0 else 0.0)
            for r, o, c in zip(self.rows[idx], sample, self.capacity)
        ]
        self.keys[idx] = None
        self.alpha[idx] = a * self.discount

    def unestimated(self) -> int:
        """Non-empty active states whose estimate still holds no idle stock,
        so every admission scored from them is invalid. Their step counts
        say nothing: the empty admission is a valid scoring that blends a
        state's own snapshot back into it."""
        return sum(1 for j, row in enumerate(self.rows) if j != self.idle_id and not any(row))


def realized_action(
    action: Sequence[int], outcome: TrellisResult, catalog: Catalog, shape: tuple[int, int]
) -> tuple[tuple[int, ...], np.ndarray]:
    """Per-type counts of the placed services that meet their reliability
    target, and the server resources those admissions consume in total."""
    counts = [0] * len(catalog)
    usage = np.zeros(shape)
    for svc in outcome.services:
        if meets_target(svc, catalog):
            counts[svc.type_index] += 1
            usage += svc.usage
    for c, a in zip(counts, action):
        if c > a:
            raise RuntimeError("outcome admits more services than requested")
    return tuple(counts), usage


def generate_arrangements(
    action: Sequence[int], count: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """Draw ``count`` random service orders for an admission vector and
    deduplicate them, preserving draw order."""
    stv = np.repeat(np.arange(len(action)), action)
    if stv.size == 0:
        return [()]
    pool: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(count):
        perm = tuple(rng.permutation(stv).tolist())
        if perm not in seen:
            seen.add(perm)
            pool.append(perm)
    return pool


@dataclass(slots=True)
class _ArrangementLedger:
    """The drawn orders of one (state, action), each handed out once from a
    cursor; then the best-scoring order so far (the first until one scores)."""

    pool: list[tuple[int, ...]]
    cursor: int = 0
    best_reward: float = 0.0
    best: tuple[int, ...] = field(init=False)

    def __post_init__(self) -> None:
        self.best = self.pool[0]

    def next_arrangement(self) -> tuple[int, ...]:
        if self.cursor < len(self.pool):
            self.cursor += 1
            return self.pool[self.cursor - 1]
        return self.best

    def record(self, reward: float, arrangement: tuple[int, ...]) -> None:
        if self.best_reward <= reward:
            self.best_reward = reward
            self.best = arrangement


# the Python type each JSON type reads as; a bool is not a number
_JSON_TYPES = {
    "an integer": int, "a number": (int, float), "a bool": bool, "a string": str, "a list": list,
}


def _json(value, expected: str, name: str):
    """``value`` once it holds the JSON type ``expected``, else a
    ``ValueError`` that starts with ``name``."""
    kind = _JSON_TYPES[expected]
    if not isinstance(value, kind) or (isinstance(value, bool) and kind is not bool):
        raise ValueError(f"{name}: expected {expected}, got {type(value).__name__}")
    return value


def _json_list(values, expected: str, name: str) -> list:
    """A JSON list whose entries each hold the type ``expected``."""
    return [_json(v, expected, f"{name}[{k}]") for k, v in enumerate(_json(values, "a list", name))]


class SweepCounts(NamedTuple):
    """Deterministic work counts of one value-iteration sweep."""

    trellis_searches: int
    memo_hits: int
    continuations: int


@dataclass
class Policy:
    """Solved admission policy plus everything needed to audit the run."""

    sigma_max: tuple[int, ...]
    lambda_max: tuple[int, ...]
    actions: list[tuple[int, ...]]
    arrangements: list[tuple[int, ...]]
    values: np.ndarray
    gamma: float
    epsilon: float
    seed: int
    num_arrangements: int
    iterations: int
    converged: bool
    mean_value_trace: list[float]
    sup_diff_trace: list[float]
    fingerprint: str | None = None
    # per-sweep work of the solve that produced this policy, and its count
    # of non-empty active states whose idle estimate stayed at zero; not
    # saved, so a loaded policy has neither
    sweep_counts: tuple[SweepCounts, ...] = field(default=(), compare=False)
    unestimated_actives: int | None = field(default=None, compare=False)
    _space: StateSpace = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        space = self._space = StateSpace(self.sigma_max, self.lambda_max)
        for key in ("actions", "arrangements", "values"):
            count = len(getattr(self, key))
            if count != space.size:
                raise ValueError(f"{key}: {count} entries, expected one per state ({space.size})")
        # the simulator places whatever the lookup returns, so every stored
        # action must be one the solver could have chosen at its state
        for sid, (action, arrangement) in enumerate(zip(self.actions, self.arrangements)):
            lam, sigma = space.state_of(sid)
            if tuple(action) not in space.feasible_actions(lam, sigma):
                raise ValueError(
                    f"actions[{sid}]: {list(action)} is not feasible with arrivals "
                    f"{list(lam)} and active counts {list(sigma)}"
                )
            if len(arrangement) != sum(action) or any(
                arrangement.count(l) != a for l, a in enumerate(action)
            ):
                raise ValueError(
                    f"arrangements[{sid}]: {list(arrangement)} is not an ordering "
                    f"of action {list(action)}"
                )

    def lookup(self, lam: Sequence[int], sigma: Sequence[int]) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Admission vector and service order for one observed state."""
        sid = self._space.state_id(lam, sigma)
        return self.actions[sid], self.arrangements[sid]

    def value(self, lam: Sequence[int], sigma: Sequence[int]) -> float:
        return float(self.values[self._space.state_id(lam, sigma)])

    def save(self, path) -> None:
        payload = {
            "format": POLICY_FORMAT,
            "version": POLICY_VERSION,
            "fingerprint": self.fingerprint,
            "sigma_max": list(self.sigma_max),
            "lambda_max": list(self.lambda_max),
            "gamma": self.gamma,
            "epsilon": self.epsilon,
            "seed": self.seed,
            "num_arrangements": self.num_arrangements,
            "iterations": self.iterations,
            "converged": self.converged,
            "mean_value_trace": self.mean_value_trace,
            "sup_diff_trace": self.sup_diff_trace,
            "actions": [list(a) for a in self.actions],
            "arrangements": [list(r) for r in self.arrangements],
            "values": [float(v) for v in self.values],
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")

    @classmethod
    def load(cls, path) -> "Policy":
        """Read an artifact written by :meth:`save`; every malformed field
        raises ``ValueError`` naming it."""
        with open(path, "r", encoding="utf-8") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict) or payload.get("format") != POLICY_FORMAT:
            raise ValueError("not a policy artifact")
        if payload.get("version") != POLICY_VERSION:
            raise ValueError(f"unsupported policy version {payload.get('version')}")
        # artifacts from older releases record the departure law they were solved under
        mode = payload.get("departure_mode", "binomial")
        if mode != "binomial":
            raise ValueError(f"departure_mode: {mode!r} is not the binomial departure law")
        for f in fields(cls):
            if f.init and f.default is MISSING and f.name not in payload:
                raise ValueError(f"{f.name}: missing from policy artifact {path}")

        def read(name: str, expected: str):
            return _json(payload[name], expected, name)

        def read_list(name: str, expected: str) -> list:
            return _json_list(payload[name], expected, name)

        def read_rows(name: str) -> list[tuple[int, ...]]:
            return [
                tuple(_json_list(row, "an integer", f"{name}[{k}]"))
                for k, row in enumerate(read_list(name, "a list"))
            ]

        fingerprint = payload.get("fingerprint")
        try:
            # the stored solver settings obey the same rules as a config's
            params = MdpParams(
                gamma=float(read("gamma", "a number")),
                epsilon=float(read("epsilon", "a number")),
                num_arrangements=read("num_arrangements", "an integer"),
                seed=read("seed", "an integer"),
            )
            return cls(
                sigma_max=tuple(read_list("sigma_max", "an integer")),
                lambda_max=tuple(read_list("lambda_max", "an integer")),
                actions=read_rows("actions"),
                arrangements=read_rows("arrangements"),
                values=np.array(read_list("values", "a number"), dtype=float),
                gamma=params.gamma,
                epsilon=params.epsilon,
                seed=params.seed,
                num_arrangements=params.num_arrangements,
                iterations=read("iterations", "an integer"),
                converged=read("converged", "a bool"),
                mean_value_trace=[float(v) for v in read_list("mean_value_trace", "a number")],
                sup_diff_trace=[float(v) for v in read_list("sup_diff_trace", "a number")],
                fingerprint=None if fingerprint is None else read("fingerprint", "a string"),
            )
        except (TypeError, ValueError) as exc:
            raise ValueError(f"{exc} (policy artifact {path})") from exc


def catalog_fingerprint(infra_section: dict, types_section: list) -> str:
    """Stable hash binding a policy to the setup it was solved for."""
    blob = json.dumps(
        {"infrastructure": infra_section, "service_types": types_section},
        sort_keys=True,
        separators=(",", ":"),
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def value_iteration(
    space: StateSpace,
    model: TransitionModel,
    catalog: Catalog,
    infra: Infrastructure,
    *,
    gamma: float = MdpParams.gamma,
    epsilon: float | None = MdpParams.epsilon,
    num_arrangements: int = MdpParams.num_arrangements,
    seed: int = MdpParams.seed,
    max_iterations: int = MdpParams.max_iterations,
    alpha_init: float = MdpParams.alpha_init,
    estimate_discount: float = MdpParams.estimate_discount,
    fingerprint: str | None = None,
) -> Policy:
    """Solve the admission problem by synchronous value iteration.

    Each sweep scores every feasible admission vector of every state by
    running the trellis search against the current idle-resource estimate,
    converting the outcome into a reward and realized admissions, and
    backing up the previous sweep's values through the factored transition
    kernel. Arrangement candidates are drawn from a per-(state, action)
    pool; once a pool is spent, the incumbent best order is reused, which
    keeps later sweeps stationary. Stops when the sup-norm change of the
    value table falls below ``epsilon`` (at least two sweeps run).

    The trellis search runs once per distinct (action, arrangement,
    snapshot) input of the call; a repeated input reuses that outcome,
    but still updates the estimator and the arrangement ledger, so the
    result is the same as scoring every input afresh. Within a sweep, the
    expected previous-sweep value after each distinct post-admission active
    vector is computed once; ``Policy.sweep_counts`` records both savings.
    """
    if epsilon is None:
        epsilon = 1e-3 * max(t.admission_reward for t in catalog)
    # range checks; ResourceEstimator checks the estimator's two settings
    MdpParams(
        gamma=gamma, epsilon=epsilon, num_arrangements=num_arrangements,
        max_iterations=max_iterations, seed=seed,
    )

    rng = np.random.default_rng(seed)
    estimator = ResourceEstimator(space, infra, alpha_init, estimate_discount)
    context = PlacementContext(catalog, infra)
    usage_shape = (infra.num_servers, infra.num_resources)
    strides = space.active_strides

    arrival_vecs = [space.arrival_vector(i + 1) for i in range(space.num_arrival)]
    active_vecs = [space.active_vector(j + 1) for j in range(space.num_active)]
    # per state, built on its first visit: (action, arrangement ledger) per
    # feasible action, in feasible_actions order
    plans: list[list[tuple[tuple[int, ...], _ArrangementLedger]] | None] = [None] * space.size
    # trellis outcome per exact (action, arrangement, snapshot bytes) input:
    # (reward, admitted counts' active-ordinal offset, observed idle sample
    # as update takes it), or None for an invalid batch
    scores: dict[tuple[tuple[int, ...], tuple[int, ...], bytes], tuple | None] = {}

    values = np.zeros(space.size)
    best_actions: list[tuple[int, ...]] = [(0,) * space.num_types] * space.size
    best_arrangements: list[tuple[int, ...]] = [()] * space.size
    mean_trace: list[float] = []
    diff_trace: list[float] = []
    sweep_counts: list[SweepCounts] = []
    converged = False
    iterations = 0

    for sweep in range(1, max_iterations + 1):
        prev_matrix = values.reshape(space.num_arrival, space.num_active)
        expected_prev = model.arrival_probs @ prev_matrix  # over destination actives
        new_values = np.empty_like(values)
        # expected previous-sweep value per post-admission active ordinal
        continuation: dict[int, float] = {}
        searches = memo_hits = 0

        for i, lam in enumerate(arrival_vecs):
            base_sid = i * space.num_active
            for j, sigma in enumerate(active_vecs):
                sid = base_sid + j
                plan = plans[sid]
                if plan is None:
                    plan = plans[sid] = []
                    for action in space.feasible_actions(lam, sigma):
                        drawn = generate_arrangements(action, num_arrangements, rng)
                        plan.append((action, _ArrangementLedger(drawn)))
                eta = j + 1
                omega_bytes = estimator.key(eta)

                best_q = -np.inf
                best_action, best_ledger = plan[0]
                for action, ledger in plan:
                    rho = ledger.next_arrangement()
                    key = (action, rho, omega_bytes)
                    scored = scores.get(key, _UNSCORED)
                    if scored is not _UNSCORED:
                        memo_hits += 1
                    else:
                        searches += 1
                        # the estimate as this state's visit began: an
                        # update from an earlier action may have moved it
                        omega = np.frombuffer(omega_bytes).reshape(usage_shape)
                        outcome = TrellisPlacement(action, rho, omega, catalog, infra, context).run()
                        if outcome.valid:
                            admitted, used = realized_action(action, outcome, catalog, usage_shape)
                            offset = sum(a * d for a, d in zip(admitted, strides))
                            sample = (omega - used).ravel().tolist()
                            scored = (action_reward(action, outcome, catalog), offset, sample)
                        else:
                            scored = None
                        scores[key] = scored
                    if scored is not None:
                        reward, offset, sample = scored
                        # states with different sigma share snapshot bytes,
                        # so the memo keeps an offset from eta, not a state;
                        # feasible actions keep sigma + admitted in bounds
                        dest = eta + offset
                        estimator.update(dest, sample)
                        ledger.record(reward, rho)
                    else:
                        reward = 0.0
                        dest = eta
                    c = continuation.get(dest)
                    if c is None:
                        c = continuation[dest] = float(
                            model.departure_row(active_vecs[dest - 1]) @ expected_prev
                        )
                    q = reward + gamma * c
                    if q > best_q:
                        best_q = q
                        best_action, best_ledger = action, ledger
                new_values[sid] = best_q
                best_actions[sid] = best_action
                best_arrangements[sid] = best_ledger.best

        diff = float(np.max(np.abs(new_values - values)))
        values = new_values
        iterations = sweep
        mean_trace.append(float(np.mean(values)))
        diff_trace.append(diff)
        sweep_counts.append(SweepCounts(searches, memo_hits, len(continuation)))
        if sweep >= 2 and diff < epsilon:
            converged = True
            break

    return Policy(
        sigma_max=space.sigma_max,
        lambda_max=space.lambda_max,
        actions=best_actions,
        arrangements=best_arrangements,
        values=values,
        gamma=gamma,
        epsilon=float(epsilon),
        seed=seed,
        num_arrangements=num_arrangements,
        iterations=iterations,
        converged=converged,
        mean_value_trace=mean_trace,
        sup_diff_trace=diff_trace,
        fingerprint=fingerprint,
        sweep_counts=tuple(sweep_counts),
        unestimated_actives=estimator.unestimated(),
    )
