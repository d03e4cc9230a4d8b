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
from array import array
from dataclasses import dataclass, field, fields, replace
from typing import NamedTuple, Sequence

import numpy as np

from .jsonio import check_setting_types, read_fields, to_json
from .mdp import DEFAULT_STATE_CAP, StateSpace, TransitionModel
from .model import Catalog, Infrastructure, meets_target
from .trellis import PlacementContext, TrellisPlacement, TrellisResult

# a memo entry of None is a scored invalid batch, so a miss needs its own mark
_UNSCORED = object()

POLICY_FORMAT = "nfvplace-policy"
POLICY_VERSION = 1


@dataclass(frozen=True)
class MdpParams:
    """The solver's settings, each with its default and its range; a value
    of the wrong type, or then out of range, raises ``ValueError("<field>:
    <rule>")``. ``epsilon=None`` asks for one thousandth of the largest
    admission reward."""

    gamma: float = 0.9
    epsilon: float | None = None
    num_arrangements: int = 10
    alpha_init: float = 1.0
    estimate_discount: float = 0.5
    max_iterations: int = 500
    state_space_cap: int = DEFAULT_STATE_CAP
    seed: int = 0

    def __post_init__(self) -> None:
        check_setting_types(self)
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
    the key is formed again only after an update has moved the row.

    A row also keeps the tuple samples it came back settled for (see
    :meth:`update`), by identity, until it moves: a tuple cannot change,
    so passing one of them again skips the blend and only steps down.
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
        self.settled_by: list[dict[int, tuple] | None] = [None] * space.num_active

    def key(self, eta: int) -> bytes:
        """The float64 bytes of the estimate for active ordinal ``eta``
        (1-based), formed once per change of the row."""
        idx = eta - 1
        key = self.keys[idx]
        if key is None:
            key = self.keys[idx] = self._pack(*self.rows[idx])
        return key

    def update(self, eta_next: int, sample: Sequence[float]) -> bool:
        """Blend an observed sample into the destination state's estimate.

        ``sample`` is the idle snapshot the placement consumed from minus
        what the reliable admissions actually took, flattened in row-major
        order: a fresh sample of idle stock at the destination.

        Returns whether the row is settled for this sample: it came back
        bit-equal at a step ``a`` with ``1.0 - a == 1.0``, or ``a`` is 0.0.
        The same sample at any later step, which is never larger, leaves it
        bit-equal too: where ``1.0 - a == 1.0`` the blend is the clipped,
        rounded ``r + a * o``, which rounding keeps monotone in ``a`` and
        which is ``r`` at 0.0 and at this step, so at every step between.
        Where ``1.0 - a < 1.0`` no such rule holds: ``r * (1 - a)`` and
        ``a * o`` may round to cancel at one step and not at a smaller one.
        """
        idx = eta_next - 1
        a = self.alpha[idx]
        if a == 0.0:
            # the step has underflowed: ``r * 1.0 + 0.0 * o`` is ``r`` for a
            # finite ``o``, and no row holds -0.0, so the row, its key and
            # its step all stay as they are
            return True
        settled = self.settled_by[idx]
        if settled is not None and settled.get(id(sample)) is sample:
            self.alpha[idx] = a * self.discount
            return True
        b = 1.0 - a
        row = self.rows[idx]
        # convex combination, clipped to [0, capacity] only to trim float
        # drift at the edges; the same operations in the same order as
        # numpy's ``minimum(maximum(r * (1 - a) + a * o, 0.0), capacity)``,
        # which also turns -0.0 into 0.0
        blended = [
            c if (v := r * b + a * o) > c else (v if v > 0.0 else 0.0)
            for r, o, c in zip(row, sample, self.capacity)
        ]
        self.alpha[idx] = a * self.discount
        # the clip leaves no -0.0 and no NaN in a row, so == is bit equality;
        # an unchanged row keeps its key
        if blended != row:
            self.rows[idx] = blended
            self.keys[idx] = None
            self.settled_by[idx] = None
            return False
        if b != 1.0:
            return False
        if type(sample) is tuple:
            if settled is None:
                settled = self.settled_by[idx] = {}
            settled[id(sample)] = sample
        return True

    def unestimated(self) -> int:
        """Non-empty active states whose estimate still holds no idle stock,
        so every admission scored from them is invalid. Their step counts
        say nothing: the empty admission is a valid scoring that blends a
        state's own snapshot back into it."""
        return sum(1 for j, row in enumerate(self.rows) if j != self.idle_id and not any(row))


def score_outcome(
    action: Sequence[int], outcome: TrellisResult, catalog: Catalog, shape: tuple[int, int]
) -> tuple[float, tuple[int, ...], np.ndarray]:
    """An admission attempt's net slot reward, and the per-type counts and
    summed server usage of the placed services that meet their reliability
    target. Every placed service pays its cost, and only those earn their
    type's reward; a failed batch places nothing and scores zero."""
    reward = 0.0
    counts = [0] * len(catalog)
    usage = np.zeros(shape)
    for svc in outcome.services:
        reward -= svc.cost
        if meets_target(svc, catalog):
            reward += catalog[svc.type_index].admission_reward
            counts[svc.type_index] += 1
            usage += svc.usage
    if any(c > a for c, a in zip(counts, action)):
        raise RuntimeError("outcome admits more services than requested")
    return reward, tuple(counts), usage


def generate_arrangements(
    action: Sequence[int], count: int, rng: np.random.Generator
) -> list[tuple[int, ...]]:
    """Draw ``count`` random service orders for an admission vector and
    deduplicate them, preserving draw order. Each order is
    ``rng.permutation``'s Fisher-Yates draws, made on a list."""
    stv = [l for l, a in enumerate(action) for _ in range(a)]
    if not stv:
        return [()]
    pool: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for _ in range(count):
        order = stv.copy()
        rng.shuffle(order)
        perm = tuple(order)
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
    # of non-empty active states whose idle estimate stayed at zero; left
    # out of comparisons, so not saved, and a loaded policy has neither
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

    def save(self, path) -> None:
        payload = {"format": POLICY_FORMAT, "version": POLICY_VERSION, **to_json(self)}
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
        try:
            # every key besides these three must name a saved field
            header = ("format", "version", "departure_mode")
            values = read_fields(cls, {k: v for k, v in payload.items() if k not in header})
            # the stored solver settings obey the same rules as a config's
            MdpParams(**{f.name: values[f.name] for f in fields(MdpParams) if f.name in values})
            return cls(**values)
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
    fingerprint: str | None = None,
    **settings,
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

    ``settings`` are :class:`MdpParams` fields by name, defaulted and range
    checked as declared there; an unknown name raises ``TypeError``.

    The trellis search runs once per distinct (action, arrangement,
    snapshot) input of the call; a repeated input reuses that outcome,
    but still updates the estimator and the arrangement ledger, so the
    result is the same as scoring every input afresh. A sweep first scores
    every (state, action) pair in state order into flat reward and
    destination buffers, then backs them up in numpy: the expected
    previous-sweep value after each distinct post-admission active vector
    is computed once, and each state's new value is the maximum over its
    pairs. ``Policy.sweep_counts`` records both savings. Only after the
    last sweep does each state take its first best pair, as a scan in
    feasible-action order would, for the returned action and order.

    The scoring table settles for good after a sweep that ran with every
    arrangement pool spent (``sweep > num_arrangements``) and whose every
    estimator update reported its row settled (see
    :meth:`ResourceEstimator.update`). No estimate moved in that sweep, so
    the next sweep reads the same snapshots and orders, finds every input
    in the memo and makes the same updates at smaller steps, which leave
    every row as it is again. Each later sweep therefore only replays that
    sweep's updates, listed once, so the estimator's steps and call count
    stay as if scored, and backs up the same table through the same
    distinct destinations.
    """
    params = MdpParams(**settings)
    if params.epsilon is None:
        params = replace(params, epsilon=1e-3 * max(t.admission_reward for t in catalog))
    gamma, epsilon, num_arrangements = params.gamma, params.epsilon, params.num_arrangements

    rng = np.random.default_rng(params.seed)
    estimator = ResourceEstimator(space, infra, params.alpha_init, params.estimate_discount)
    context = PlacementContext(catalog, infra)
    usage_shape = (infra.num_servers, infra.num_resources)
    strides = space.active_strides
    active_vecs = [space.active_vector(j + 1) for j in range(space.num_active)]

    # every (state, action) pair, by state and then in feasible_actions
    # order, with its arrangement ledger; state sid owns pairs
    # bounds[sid]:bounds[sid + 1]. Equal actions share one tuple, so the
    # pairs hold one per distinct action rather than one each.
    actions: list[tuple[int, ...]] = []
    ledgers: list[_ArrangementLedger] = []
    bounds = [0]
    shared: dict[tuple[int, ...], tuple[int, ...]] = {}
    for i in range(space.num_arrival):
        lam = space.arrival_vector(i + 1)
        for sigma in active_vecs:
            for action in space.feasible_actions(lam, sigma):
                actions.append(shared.setdefault(action, action))
                ledgers.append(_ArrangementLedger(generate_arrangements(action, num_arrangements, rng)))
            bounds.append(len(actions))
    num_pairs = len(actions)
    starts = np.array(bounds[:-1], dtype=np.int64)
    pair_counts = np.diff(bounds)
    # per pair, from the last scoring pass: reward, destination active
    # ordinal and the sample its update blended in (None for no update)
    rewards = array("d", bytes(8 * num_pairs))
    dests = array("q", bytes(8 * num_pairs))
    samples: list[tuple | None] = [None] * num_pairs
    reward_view = np.frombuffer(rewards)
    dest_view = np.frombuffer(dests, dtype=np.int64)
    # trellis outcome per exact (action, arrangement, snapshot bytes) input:
    # (reward, admitted counts' active-ordinal offset, observed idle sample
    # as update takes it), or None for an invalid batch
    scores: dict[tuple[tuple[int, ...], tuple[int, ...], bytes], tuple | None] = {}

    values = np.zeros(space.size)
    mean_trace: list[float] = []
    diff_trace: list[float] = []
    sweep_counts: list[SweepCounts] = []
    converged = False
    settled = False
    iterations = 0

    for sweep in range(1, params.max_iterations + 1):
        searches = 0
        if settled:
            # the settled sweep's updates, in order: each leaves its row
            # bit-equal and only steps it down
            update = estimator.update
            for dest, sample in replay:
                update(dest, sample)
        else:
            settled = sweep > num_arrangements
            for sid in range(space.size):
                eta = sid % space.num_active + 1
                omega_bytes = estimator.key(eta)
                for p in range(bounds[sid], bounds[sid + 1]):
                    action, ledger = actions[p], ledgers[p]
                    rho = ledger.next_arrangement()
                    key = (action, rho, omega_bytes)
                    scored = scores.get(key, _UNSCORED)
                    if scored is _UNSCORED:
                        searches += 1
                        # the estimate as this state's visit began: an
                        # update from an earlier action may have moved it
                        omega = np.frombuffer(omega_bytes).reshape(usage_shape)
                        outcome = TrellisPlacement(action, rho, omega, catalog, infra, context).run()
                        if outcome.valid:
                            reward, admitted, used = score_outcome(action, outcome, catalog, usage_shape)
                            offset = sum(a * d for a, d in zip(admitted, strides))
                            scored = (reward, offset, tuple((omega - used).ravel().tolist()))
                        else:
                            scored = None
                        scores[key] = scored
                    if scored is not None:
                        reward, offset, sample = scored
                        # states with different sigma share snapshot bytes,
                        # so the memo keeps an offset from eta, not a state;
                        # feasible actions keep sigma + admitted in bounds
                        dest = eta + offset
                        if not estimator.update(dest, sample):
                            settled = False
                        ledger.record(reward, rho)
                    else:
                        reward, dest, sample = 0.0, eta, None
                    rewards[p] = reward
                    dests[p] = dest
                    samples[p] = sample

            # a replayed sweep keeps this sweep's destinations and updates
            distinct = np.flatnonzero(np.bincount(dest_view)).tolist()
            sources = [active_vecs[dest - 1] for dest in distinct]
            if settled:
                replay = [(d, x) for d, x in zip(dests, samples) if x is not None]

        # Bellman backup of the pair table against the previous sweep
        expected_prev = model.arrival_probs @ values.reshape(space.num_arrival, space.num_active)
        continuation = np.zeros(space.num_active + 1)
        for dest, source in zip(distinct, sources):
            continuation[dest] = model.departure_row(source).dot(expected_prev)
        q = reward_view + gamma * continuation[dest_view]
        # no q is -0.0: no reward is (each starts at 0.0 and only adds and
        # subtracts), and a sum is -0.0 only when both terms are. So each
        # maximum has the bits of q at its state's first best pair
        new_values = np.maximum.reduceat(q, starts)

        diff = float(abs(new_values - values).max())
        values = new_values
        iterations = sweep
        mean_trace.append(float(values.mean()))
        diff_trace.append(diff)
        sweep_counts.append(SweepCounts(searches, num_pairs - searches, len(distinct)))
        if sweep >= 2 and diff < epsilon:
            converged = True
            break

    # each state's first best pair, as a scan in feasible-action order
    # would pick it: every state holds one of the ties
    ties = np.flatnonzero(q == np.repeat(values, pair_counts))
    picked = ties[np.searchsorted(ties, starts)].tolist()
    return Policy(
        sigma_max=space.sigma_max,
        lambda_max=space.lambda_max,
        actions=[actions[p] for p in picked],
        arrangements=[ledgers[p].best for p in picked],
        values=values,
        gamma=gamma,
        epsilon=float(epsilon),
        seed=params.seed,
        num_arrangements=num_arrangements,
        iterations=iterations,
        converged=converged,
        mean_value_trace=mean_trace,
        sup_diff_trace=diff_trace,
        fingerprint=fingerprint,
        sweep_counts=tuple(sweep_counts),
        unestimated_actives=estimator.unestimated(),
    )
