"""State indexing, transition kernel, and slot rewards."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfvplace as nv
from nfvplace.model import PlacedService
from nfvplace.policy import score_outcome
from nfvplace.trellis import TrellisResult

from helpers import arrival_index, arrival_prob, transition_prob


def uniform_type(pmf, d=0.5, sigma_max=5, q=10.0, name="u"):
    return nv.ServiceType(
        failure_cap=0.05,
        departure_prob=d,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (1,)),),
        arrival_pmf=tuple(pmf),
        admission_reward=q,
        sigma_max=sigma_max,
        name=name,
    )


class TestStateSpace:
    def test_active_ordinals_are_one_based_mixed_radix(self):
        space = nv.StateSpace((5, 5), (2, 2))
        assert space.active_index((0, 0)) == 1
        assert space.active_index((2, 3)) == 21
        assert space.active_vector(21) == (2, 3)

    def test_state_id_round_trip(self, reduced):
        _, catalog = reduced
        space = nv.build_state_space(catalog)
        for sid in range(space.size):
            lam, sigma = space.state_of(sid)
            assert space.state_id(lam, sigma) == sid

    def test_state_id_keeps_the_index_errors(self):
        # one pass forms both ordinals; a bad vector still raises the error
        # arrival_index or active_index raises, the arrival vector's first
        space = nv.StateSpace((5, 2), (1, 3))
        lam, sigma = (1, 2), (4, 0)
        cases = [
            ((1,), sigma, "arrival count vector has wrong length"),
            ((1, 2, 0), sigma, "arrival count vector has wrong length"),
            ((2, 2), sigma, "arrival count (2, 2) out of bounds (1, 3)"),
            ((0, -1), sigma, "arrival count (0, -1) out of bounds (1, 3)"),
            (lam, (4,), "active count vector has wrong length"),
            (lam, (6, 0), "active count (6, 0) out of bounds (5, 2)"),
            (lam, (0, -1), "active count (0, -1) out of bounds (5, 2)"),
            ((2, 2), (6,), "arrival count (2, 2) out of bounds (1, 3)"),
            ((1,), (6, 0), "arrival count vector has wrong length"),
        ]
        for lam_bad, sigma_bad, message in cases:
            with pytest.raises(ValueError) as indexed:
                arrival_index(space, lam_bad)
                space.active_index(sigma_bad)
            assert str(indexed.value) == message
            with pytest.raises(ValueError) as formed:
                space.state_id(lam_bad, sigma_bad)
            assert str(formed.value) == message
        assert space.state_id(lam, sigma) == (
            (arrival_index(space, lam) - 1) * space.num_active + space.active_index(sigma) - 1
        )

    def test_counts_must_be_integers(self):
        # a float or a bool count indexed a state, or a float one, before
        space = nv.StateSpace((5, 2), (1, 3))
        for bad in ((0.5, 0), (1.0, 0), (True, 0), (0, np.float64(1.0))):
            with pytest.raises(ValueError, match="is not an integer"):
                space.state_id(bad, (0, 0))
            with pytest.raises(ValueError, match="is not an integer"):
                space.state_id((0, 0), bad)
            with pytest.raises(ValueError, match="is not an integer"):
                space.active_index(bad)
        # numpy integers index as Python ints do
        assert space.state_id((np.int64(1), 0), (0, np.uint8(2))) == space.state_id((1, 0), (0, 2))
        assert space.active_index((np.int32(3), 1)) == space.active_index((3, 1))

    def test_bounds_must_be_integers(self):
        for sigma_max, lambda_max in (((1.5, 2), (1, 1)), ((1, 2), (True, 1)), ((1, 2), (1, 1.0))):
            with pytest.raises(ValueError, match="^state-space bound .* is not an integer$"):
                nv.StateSpace(sigma_max, lambda_max)
        assert nv.StateSpace((np.int64(1), 2), (1, np.uint8(1))).sigma_max == (1, 2)

    def test_bundled_catalog_size(self, bundled):
        _, catalog = bundled
        space = nv.build_state_space(catalog)
        assert space.size == 104976
        assert space.num_active == 6 ** 4
        assert space.num_arrival == 3 ** 4

    def test_cap_enforced(self, bundled):
        _, catalog = bundled
        with pytest.raises(ValueError):
            nv.build_state_space(catalog, cap=104975)

    def test_feasible_actions_enumeration(self):
        space = nv.StateSpace((5, 5), (2, 2))
        acts = space.feasible_actions((2, 1), (4, 0))
        assert acts == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_no_arrivals_only_zero_action(self):
        space = nv.StateSpace((5, 5), (2, 2))
        assert space.feasible_actions((0, 0), (3, 3)) == [(0, 0)]

    def test_full_registers_only_zero_action(self):
        space = nv.StateSpace((5, 5), (2, 2))
        assert space.feasible_actions((2, 2), (5, 5)) == [(0, 0)]

    def test_actions_never_overflow(self):
        space = nv.StateSpace((3, 2), (2, 1))
        for sid in range(space.size):
            lam, sigma = space.state_of(sid)
            for act in space.feasible_actions(lam, sigma):
                assert all(a <= l for a, l in zip(act, lam))
                assert all(s + a <= m for s, a, m in zip(sigma, act, space.sigma_max))


class TestArrivals:
    def test_uniform_thirds(self):
        t = uniform_type((1 / 3, 1 / 3, 1 / 3))
        assert arrival_prob((1, 2), (t, t)) == pytest.approx(1 / 9)

    def test_out_of_support_is_zero(self):
        t = uniform_type((0.5, 0.5))
        assert arrival_prob((2,), (t,)) == 0.0

    def test_marginalizes_to_one(self):
        a = uniform_type((0.2, 0.5, 0.3))
        b = uniform_type((0.7, 0.3))
        total = sum(
            arrival_prob((i, j), (a, b)) for i in range(3) for j in range(2)
        )
        assert total == pytest.approx(1.0, abs=1e-12)


class TestDepartures:
    @staticmethod
    def _row(source):
        """``departure_row(source)`` of one type with departure probability
        0.5: entry k is the chance that k of the services survive."""
        t = (uniform_type((0.5, 0.5), d=0.5),)
        return nv.TransitionModel(nv.build_state_space(t), t).departure_row(source)

    def test_binomial_point(self):
        assert self._row((3,))[1] == pytest.approx(0.375)

    def test_all_survive(self):
        assert self._row((3,))[3] == pytest.approx((1 - 0.5) ** 3)

    def test_more_survivors_than_sources_impossible(self):
        assert self._row((1,))[2] == 0.0

    @given(
        j=st.integers(min_value=0, max_value=5),
        d=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=40, deadline=None)
    def test_binomial_rows_sum_to_one(self, j, d):
        t = (uniform_type((0.5, 0.5), d=d),)
        space = nv.build_state_space(t)
        model = nv.TransitionModel(space, t)
        assert model.departure_row((j,)).sum() == pytest.approx(1.0, abs=1e-12)

    def test_source_counts_must_be_integers(self):
        # a float count was truncated to the row of its integer part
        t = (uniform_type((0.5, 0.5), d=0.5),)
        model = nv.TransitionModel(nv.build_state_space(t), t)
        for bad in ((1.5,), (2.0,), (True,)):
            with pytest.raises(ValueError, match="^source count .* is not an integer$"):
                model.departure_row(bad)
        assert model.departure_row((np.int64(3),)) is model.departure_row((3,))

    def test_support_shrinks_with_smaller_source(self):
        # dropping one admitted service can only remove destinations
        t = (
            uniform_type((0.5, 0.5), d=0.3, sigma_max=4),
            uniform_type((0.5, 0.5), d=0.7, sigma_max=3),
        )
        space = nv.build_state_space(t)
        model = nv.TransitionModel(space, t)
        rng = np.random.default_rng(5)
        for _ in range(50):
            source = tuple(int(rng.integers(1, m + 1)) for m in space.sigma_max)
            big = model.departure_row(source).nonzero()[0]
            for l in range(len(t)):
                smaller = list(source)
                smaller[l] -= 1
                small = model.departure_row(tuple(smaller)).nonzero()[0]
                assert set(small) <= set(big)


class TestTransitionModel:
    def test_factorization(self, reduced):
        _, catalog = reduced
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        state = ((1, 0), (2, 1))
        realized = (1, 0)
        nxt = ((0, 1), (1, 1))
        p = transition_prob(model, state, realized, nxt)
        source = (3, 1)
        row = model.departure_row(source)
        expected = arrival_prob((0, 1), catalog) * row[space.active_index((1, 1)) - 1]
        assert p == pytest.approx(expected, abs=1e-15)

    def test_realized_action_overflow_rejected(self, reduced):
        _, catalog = reduced
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        with pytest.raises(ValueError):
            transition_prob(model, ((1, 0), (5, 0)), (1, 0), ((0, 0), (5, 0)))

    def test_full_row_sums_to_one(self, reduced):
        _, catalog = reduced
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        row_sum = model.departure_row((2, 1)).sum() * model.arrival_probs.sum()
        assert row_sum == pytest.approx(1.0, abs=1e-12)


class TestReward:
    def _outcome(self, cost, failure):
        placed = PlacedService(
            0, nv.ServicePlacement(0, (nv.VnfPlacement(0),)), cost, failure, np.zeros((1, 1))
        )
        return TrellisResult(True, [placed], (1, 0))

    def test_reliable_service_earns_reward_minus_cost(self):
        t = (uniform_type((0.5, 0.5), q=4000.0),)
        assert score_outcome((1,), self._outcome(350.0, 0.01), t, (1, 1))[0] == pytest.approx(3650.0)
        # a service exactly at the cap meets its target
        assert score_outcome((1,), self._outcome(350.0, 0.05), t, (1, 1))[0] == pytest.approx(3650.0)

    def test_unreliable_service_pays_cost_only(self):
        t = (uniform_type((0.5, 0.5), q=4000.0),)
        assert score_outcome((1,), self._outcome(350.0, 0.2), t, (1, 1))[0] == pytest.approx(-350.0)
        just_over = float(np.nextafter(0.05, 1))
        assert score_outcome((1,), self._outcome(350.0, just_over), t, (1, 1))[0] == pytest.approx(-350.0)

    def test_failed_batch_is_zero(self):
        t = (uniform_type((0.5, 0.5), q=4000.0),)
        assert score_outcome((1,), TrellisResult(False, [], ()), t, (1, 1))[0] == 0.0
