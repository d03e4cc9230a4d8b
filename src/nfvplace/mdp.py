"""State indexing, feasible actions and transition structure for the
slotted arrival/departure decision process.

A state pairs the per-type arrival counts seen this slot with the per-type
counts of services still active. Both vectors are packed into 1-based
ordinals by mixed-radix strides, type 0 varying fastest.
"""

from __future__ import annotations

import itertools
import math
from functools import reduce
from typing import Sequence

import numpy as np

from .model import Catalog, is_integer

DEFAULT_STATE_CAP = 2_000_000


class StateSpace:
    """Index arithmetic over arrival and active-count vectors, bounded per
    service type by ``sigma_max`` active services and ``lambda_max``
    arrivals. A bound, or a count passed to a method, that is a bool or
    not an integer raises ``ValueError``; numpy integers are accepted."""

    def __init__(self, sigma_max: Sequence[int], lambda_max: Sequence[int]) -> None:
        for m in (*sigma_max, *lambda_max):
            if not is_integer(m):
                raise ValueError(f"state-space bound {m!r} is not an integer")
        self.sigma_max = tuple(int(m) for m in sigma_max)
        self.lambda_max = tuple(int(m) for m in lambda_max)
        if not self.sigma_max or len(self.sigma_max) != len(self.lambda_max):
            raise ValueError("need one active and one arrival bound per service type")
        if min(self.sigma_max + self.lambda_max) < 0:
            raise ValueError("state-space bounds must be non-negative")
        self.active_sizes = tuple(m + 1 for m in self.sigma_max)
        self.arrival_sizes = tuple(m + 1 for m in self.lambda_max)
        self.active_strides = _strides(self.active_sizes)
        self.arrival_strides = _strides(self.arrival_sizes)
        self.num_active = math.prod(self.active_sizes)
        self.num_arrival = math.prod(self.arrival_sizes)
        self.size = self.num_active * self.num_arrival
        # per type: both bounds and both strides into the flat state id
        self._id_terms = tuple(zip(
            self.lambda_max, self.sigma_max,
            (d * self.num_active for d in self.arrival_strides), self.active_strides,
        ))

    @property
    def num_types(self) -> int:
        return len(self.sigma_max)

    def active_index(self, sigma: Sequence[int]) -> int:
        """1-based ordinal of an active-count vector."""
        self._check(sigma, self.sigma_max, "active count")
        return 1 + sum(s * d for s, d in zip(sigma, self.active_strides))

    def active_vector(self, index: int) -> tuple[int, ...]:
        if not 1 <= index <= self.num_active:
            raise IndexError(f"active index {index} out of range")
        return _unpack(index - 1, self.active_sizes)

    def arrival_vector(self, index: int) -> tuple[int, ...]:
        if not 1 <= index <= self.num_arrival:
            raise IndexError(f"arrival index {index} out of range")
        return _unpack(index - 1, self.arrival_sizes)

    def state_id(self, lam: Sequence[int], sigma: Sequence[int]) -> int:
        """0-based flat state index, arrival ordinal major: both 1-based
        ordinals formed in one pass, with the arrival vector checked, and
        its error raised, before the active one's."""
        terms = self._id_terms
        if len(lam) == len(sigma) == len(terms):
            sid = 0
            for a, s, (a_max, s_max, a_stride, s_stride) in zip(lam, sigma, terms):
                # one compare for a Python int
                counts = (type(a) is int or is_integer(a)) and (type(s) is int or is_integer(s))
                if not (counts and 0 <= a <= a_max and 0 <= s <= s_max):
                    break
                sid += a * a_stride + s * s_stride
            else:
                return sid
        # one of these raises: the arrival vector's error comes first
        self._check(lam, self.lambda_max, "arrival count")
        self._check(sigma, self.sigma_max, "active count")
        raise AssertionError("unreachable")

    def state_of(self, sid: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
        if not 0 <= sid < self.size:
            raise IndexError(f"state id {sid} out of range")
        i, j = divmod(sid, self.num_active)
        return self.arrival_vector(i + 1), self.active_vector(j + 1)

    def feasible_actions(self, lam: Sequence[int], sigma: Sequence[int]) -> list[tuple[int, ...]]:
        """All admission vectors bounded by arrivals and remaining capacity
        of the active-count register; the zero action comes first."""
        self._check(lam, self.lambda_max, "arrival count")
        self._check(sigma, self.sigma_max, "active count")
        ranges = [
            range(min(a, m - s) + 1)
            for a, s, m in zip(lam, sigma, self.sigma_max)
        ]
        return list(itertools.product(*ranges))

    @staticmethod
    def _check(vec: Sequence[int], bounds: tuple[int, ...], label: str) -> None:
        if len(vec) != len(bounds):
            raise ValueError(f"{label} vector has wrong length")
        for x, m in zip(vec, bounds):
            if type(x) is not int and not is_integer(x):
                raise ValueError(f"{label} {x!r} in {tuple(vec)} is not an integer")
            if not 0 <= x <= m:
                raise ValueError(f"{label} {tuple(vec)} out of bounds {bounds}")


def _strides(sizes: tuple[int, ...]) -> tuple[int, ...]:
    strides = []
    acc = 1
    for n in sizes:
        strides.append(acc)
        acc *= n
    return tuple(strides)


def _unpack(flat: int, sizes: tuple[int, ...]) -> tuple[int, ...]:
    out = []
    for n in sizes:
        flat, rem = divmod(flat, n)
        out.append(rem)
    return tuple(out)


def build_state_space(catalog: Catalog, cap: int = DEFAULT_STATE_CAP) -> StateSpace:
    """Index space spanned by a catalog's bounds; refuses more than ``cap`` states."""
    space = StateSpace([t.sigma_max for t in catalog], [t.lambda_max for t in catalog])
    if space.size > cap:
        raise ValueError(f"state space has {space.size} states, above the cap of {cap}")
    return space


class TransitionModel:
    """Factored transition kernel over the state space.

    Rows over destination active vectors are materialized lazily per source
    vector and cached; arrival probabilities separate out as a fixed vector
    over arrival ordinals.
    """

    def __init__(self, space: StateSpace, catalog: Catalog) -> None:
        self.space = space
        self.catalog = catalog
        pmfs = [np.asarray(t.arrival_pmf, dtype=float) for t in catalog]
        self.arrival_probs = reduce(np.kron, reversed(pmfs))
        self.arrival_probs.setflags(write=False)
        self._rows: dict[tuple[int, ...], np.ndarray] = {}

    def departure_row(self, source: Sequence[int]) -> np.ndarray:
        """Distribution over destination active ordinals given the post-
        admission active counts ``source``; a count that is a bool or not
        an integer raises ``ValueError``."""
        for x in source:
            if type(x) is not int and not is_integer(x):
                raise ValueError(f"source count {x!r} is not an integer")
        key = tuple(map(int, source))
        row = self._rows.get(key)
        if row is None:
            per_type = []
            for j, stype, size in zip(key, self.catalog, self.space.active_sizes):
                if not 0 <= j < size:
                    raise ValueError(f"source count {j} out of range")
                # exactly k of the j services survive, each departing
                # independently with the type's probability d
                d = stype.departure_prob
                vec = np.zeros(size)
                for k in range(j + 1):
                    vec[k] = math.comb(j, k) * d ** (j - k) * (1.0 - d) ** k
                per_type.append(vec)
            row = reduce(np.kron, reversed(per_type))
            row.setflags(write=False)
            self._rows[key] = row
        return row

