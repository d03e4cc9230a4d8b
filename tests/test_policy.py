"""Resource estimation, arrangement sampling, and value iteration."""

import hashlib
import json
import math
import re
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfvplace as nv
import nfvplace.policy as policy_module
from nfvplace.model import PlacedService
from nfvplace.trellis import TrellisResult
from nfvplace.policy import MdpParams, score_outcome

from helpers import (
    DequeLedger,
    analytic_setup,
    numpy_blend,
    permutation_arrangements,
    reduced_setup,
    snapshot,
    tiny_two_inps,
    two_resource_setup,
    wrong_json_values,
)


def big_server_setup():
    infra = nv.Infrastructure(
        [nv.InP(0.1, ((1000,),))],
        alpha=[1.0],
        beta=1.0,
        v_base=0.1,
        deployment_cost=[[0.0]],
    )
    svc = nv.ServiceType(0.5, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 2, name="s")
    return infra, (svc,)


class TestResourceEstimator:
    def test_blend_with_halving_step(self):
        infra, catalog = big_server_setup()
        space = nv.build_state_space(catalog)
        est = nv.ResourceEstimator(space, infra)
        est.update(1, [100.0 - 40.0])
        assert snapshot(est, infra, 1)[0, 0] == pytest.approx(60.0)
        est.update(1, [80.0 - 30.0])
        assert snapshot(est, infra, 1)[0, 0] == pytest.approx(55.0)

    def test_empty_state_pinned_to_capacity(self):
        infra, catalog = big_server_setup()
        space = nv.build_state_space(catalog)
        est = nv.ResourceEstimator(space, infra)
        idle = space.active_index((0,))
        assert np.array_equal(snapshot(est, infra, idle), infra.capacity)

    def test_other_states_start_empty(self):
        infra, catalog = big_server_setup()
        space = nv.build_state_space(catalog)
        est = nv.ResourceEstimator(space, infra)
        assert np.all(snapshot(est, infra, space.active_index((1,))) == 0.0)

    def test_estimates_clipped_to_capacity(self):
        infra, catalog = big_server_setup()
        space = nv.build_state_space(catalog)
        est = nv.ResourceEstimator(space, infra)
        est.update(2, [5000.0 - 0.0])
        assert snapshot(est, infra, 2)[0, 0] <= infra.capacity[0, 0]

    def test_step_bounds_checked(self):
        infra, catalog = big_server_setup()
        space = nv.build_state_space(catalog)
        with pytest.raises(ValueError):
            nv.ResourceEstimator(space, infra, alpha_init=0.0)
        with pytest.raises(ValueError):
            nv.ResourceEstimator(space, infra, discount=1.0)

    def test_update_at_step_zero_leaves_the_row(self):
        # the step halves on every update until it underflows to 0.0; an
        # update then keeps the row, its key and its step as they were
        infra, catalog = big_server_setup()
        est = nv.ResourceEstimator(nv.build_state_space(catalog), infra)
        updates = 0
        while est.alpha[1] != 0.0:
            est.update(2, [30.0 + updates % 7])
            updates += 1
        assert updates > 1000
        row, key = est.rows[1], est.key(2)
        est.update(2, [70.0])
        assert est.rows[1] is row and est.keys[1] is key and est.alpha[1] == 0.0

    @pytest.mark.parametrize("infra", [
        reduced_setup()[0], nv.seven_providers().infrastructure, two_resource_setup()[0],
    ], ids=["6x1", "21x1", "9x2"])
    def test_blend_bit_equal_to_numpy(self, infra):
        # five active ordinals; the estimator reads only their count
        svc = nv.ServiceType(0.5, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 4, name="s")
        space = nv.build_state_space((svc,))
        est = nv.ResourceEstimator(space, infra)
        capacity = infra.capacity.astype(float)
        ref = np.zeros((space.num_active,) + capacity.shape)
        ref[space.active_index((0,)) - 1] = capacity
        alpha = [1.0] * space.num_active
        rng = np.random.default_rng(capacity.size)
        below = above = 0
        sources = [
            lambda: capacity,  # at capacity
            lambda: capacity + rng.integers(1, 50, capacity.shape),  # above it
            lambda: rng.uniform(0.0, 1.0, capacity.shape) * capacity,
            lambda: ref[rng.integers(space.num_active)].copy(),  # another estimate
        ]
        for step in range(80):
            eta = int(rng.integers(1, space.num_active + 1))
            source = sources[step % len(sources)]()
            # usage above the source drives entries to the 0 clip
            usage = np.floor(rng.uniform(0.0, 1.5, capacity.shape) * capacity) * (step % 3 != 0)
            # the first update of each row steps with a = 1.0
            raw = ref[eta - 1] * (1.0 - alpha[eta - 1]) + alpha[eta - 1] * (source - usage)
            below += int((raw < 0.0).sum())
            above += int((raw > capacity).sum())
            numpy_blend(ref[eta - 1], alpha[eta - 1], source, usage, capacity)
            alpha[eta - 1] *= 0.5
            est.update(eta, (source - usage).ravel().tolist())
            for k in range(1, space.num_active + 1):
                assert snapshot(est, infra, k).tobytes() == ref[k - 1].tobytes(), (step, k)
                assert est.key(k) == snapshot(est, infra, k).tobytes()
        assert est.alpha == alpha
        # both clips fired
        assert below > 0 and above > 0

    def test_update_reports_a_settled_row(self):
        # the row holds 41.63...; a step of 2**-48 leaves it bit-equal,
        # but 1.0 - a < 1.0 there and 2**-49 moves it, so only a step with
        # 1.0 - a == 1.0 (or 0.0) may report it settled
        infra, catalog = big_server_setup()
        assert infra.capacity[0, 0] >= 100
        space = nv.build_state_space(catalog)
        r, o = 41.63330424763298, 42.260007261958926

        def update_at(a, sample=(o,)):
            est = nv.ResourceEstimator(space, infra)
            est.rows[1], est.alpha[1] = [r], a
            return est.update(2, sample), est.rows[1]

        assert 1.0 - 2.0**-48 < 1.0
        assert update_at(2.0**-48) == (False, [r])
        settled, row = update_at(2.0**-49)
        assert not settled and row != [r]
        for a in (2.0**-54, 2.0**-60, 2.0**-1074, 0.0):
            assert update_at(a) == (True, [r]), a
            assert update_at(a, [o]) == (True, [r]), a
        # a row that moved is not settled, also at a step with 1.0 - a == 1.0
        for a in (0.5, 2.0**-54):
            settled, row = update_at(a, (1e9,))
            assert settled is False and row != [r], a

    def test_settled_tuple_sample_skips_the_blend_until_the_row_moves(self):
        infra, catalog = big_server_setup()
        est = nv.ResourceEstimator(nv.build_state_space(catalog), infra)
        r, o = 41.63330424763298, 42.260007261958926
        est.rows[1], est.alpha[1] = [r], 2.0**-60
        sample = (o,)
        assert est.update(2, sample) and est.settled_by[1] == {id(sample): sample}
        row, key = est.rows[1], est.key(2)
        # the blend is skipped: the step still goes down
        assert est.update(2, sample) and est.alpha[1] == 2.0**-62
        assert est.rows[1] is row and est.keys[1] is key
        # a list may change after the call, so it is not kept
        assert est.update(2, [o]) and est.settled_by[1] == {id(sample): sample}
        # a moved row forgets every sample it was settled for
        assert not est.update(2, (1e6,)) and est.settled_by[1] is None
        assert est.rows[1] != [r] and est.keys[1] is None

    @pytest.mark.parametrize("infra", [
        reduced_setup()[0], nv.seven_providers().infrastructure, two_resource_setup()[0],
    ], ids=["6x1", "21x1", "9x2"])
    def test_repeated_tuple_samples_bit_equal_to_numpy(self, infra):
        # a few tuple samples passed again and again, so that every row's
        # step falls far below 2**-53 and the settled skip fires
        svc = nv.ServiceType(0.5, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 4, name="s")
        space = nv.build_state_space((svc,))
        est = nv.ResourceEstimator(space, infra)
        capacity = infra.capacity.astype(float)
        ref = np.zeros((space.num_active,) + capacity.shape)
        ref[space.active_index((0,)) - 1] = capacity
        alpha = [1.0] * space.num_active
        rng = np.random.default_rng(capacity.size)
        pool = [
            rng.uniform(-0.2, 1.2, capacity.shape) * capacity for _ in range(3)
        ] + [capacity.copy()]
        samples = [tuple(x.ravel().tolist()) for x in pool]
        skipped = 0
        for step in range(600):
            eta = int(rng.integers(1, space.num_active + 1))
            k = int(rng.integers(len(pool)))
            numpy_blend(ref[eta - 1], alpha[eta - 1], pool[k], 0.0, capacity)
            alpha[eta - 1] *= 0.5
            kept = est.settled_by[eta - 1]
            skipped += kept is not None and id(samples[k]) in kept
            est.update(eta, samples[k])
            assert snapshot(est, infra, eta).tobytes() == ref[eta - 1].tobytes(), step
            assert est.key(eta) == snapshot(est, infra, eta).tobytes()
        assert est.alpha == alpha
        assert skipped > 100

    @settings(max_examples=60, deadline=None)
    @given(st.lists(
        st.tuples(
            st.integers(1, 5),
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=6, max_size=6),
        ),
        max_size=40,
    ))
    def test_rows_stay_finite_within_capacity(self, updates):
        # the solver hands rows to the trellis unchecked and takes one as
        # the empty admission's sample, so no finite sample, negative or
        # above capacity, may leave a row out of [0, capacity], non-finite
        # or at -0.0
        infra = reduced_setup()[0]
        svc = nv.ServiceType(0.5, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 4, name="s")
        est = nv.ResourceEstimator(nv.build_state_space((svc,)), infra)
        capacity = infra.capacity.astype(float).ravel().tolist()
        for eta, sample in updates:
            est.update(eta, tuple(sample))
            for row in est.rows:
                for x, c in zip(row, capacity):
                    assert math.isfinite(x) and 0.0 <= x <= c and math.copysign(1.0, x) == 1.0


class TestEmptyAdmission:
    @pytest.mark.parametrize("setup", ["reduced", "two_resource", "bundled"])
    def test_closed_form_equals_the_trellis_score(self, setup, request):
        infra, catalog = request.getfixturevalue(setup)
        shape = infra.capacity.shape
        capacity = infra.capacity.astype(float)
        rng = np.random.default_rng(4)
        fraction = rng.uniform(size=shape) * capacity
        fraction[0] = 0.0
        empty = (0,) * len(catalog)
        for omega in (np.zeros(shape), capacity, fraction):
            outcome = nv.TrellisPlacement(empty, (), omega, catalog, infra).run()
            reward, admitted, used = score_outcome(empty, outcome, catalog, shape)
            assert outcome.valid and admitted == empty
            reward_cf, offset, sample = policy_module._empty_admission(omega.ravel())
            assert (reward_cf.hex(), offset) == (reward.hex(), 0)
            assert [x.hex() for x in sample] == [x.hex() for x in (omega - used).ravel().tolist()]


class TestArrangements:
    def test_all_orderings_reachable(self):
        rng = np.random.default_rng(3)
        arrs = nv.generate_arrangements((1, 2, 0, 1), 200, rng)
        distinct = set(arrs)
        # multiset permutations of {1, 2, 2, 4th}: 4!/2! = 12
        assert len(distinct) == 12
        for a in distinct:
            assert sorted(a) == [0, 1, 1, 3]

    def test_single_type_has_one_ordering(self):
        rng = np.random.default_rng(3)
        assert set(nv.generate_arrangements((2, 0), 10, rng)) == {(0, 0)}

    def test_count_bounds_output_and_dedupes(self):
        rng = np.random.default_rng(3)
        arrs = nv.generate_arrangements((1, 1, 1), 4, rng)
        assert 1 <= len(arrs) <= 4
        assert len(set(arrs)) == len(arrs)
        for a in arrs:
            assert sorted(a) == [0, 1, 2]

    def test_empty_action_yields_empty_arrangement(self):
        rng = np.random.default_rng(3)
        assert nv.generate_arrangements((0, 0), 5, rng) == [()]


class TestArrangementDraws:
    @given(
        draws=st.lists(
            st.tuples(st.lists(st.integers(0, 4), min_size=1, max_size=4), st.integers(1, 12)),
            min_size=1, max_size=3,
        ),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=150, deadline=None)
    def test_pools_are_the_permutation_draws(self, draws, seed):
        # pools drawn one after another from one generator, as the solver
        # draws them, leave it where the array permutations leave theirs
        rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
        for action, count in draws:
            pool = nv.generate_arrangements(tuple(action), count, rng)
            assert pool == permutation_arrangements(tuple(action), count, ref)
            assert rng.bit_generator.state == ref.bit_generator.state

    def test_segment_maxima_are_the_first_best_pairs(self):
        gamma = 0.9

        def reward(*terms):
            # as score_outcome forms it: from 0.0, costs subtracted and
            # rewards added in service order
            total = 0.0
            for t in terms:
                total += t
            return total

        segments = [
            # a tie between the second and third pairs
            [(reward(-2.0, 5.0), 1.0), (reward(-1.0, 5.0), 0.0), (reward(-1.0, 5.0), 0.0)],
            # exact zeros: an empty pair, a cost its reward cancels, and a
            # continuation of -0.0
            [(0.0, 0.0), (reward(-2.5, 2.5), 0.0), (0.0, -0.0)],
            # only negative rewards, the best one last
            [(reward(-3.0), -1.0), (reward(-4.0, 1.5), -1.0), (reward(-0.5), -2.0)],
            # a single pair
            [(reward(-7.25, 3.0), -0.0)],
        ]
        q, starts, firsts = [], [], []
        for pairs in segments:
            starts.append(len(q))
            values = [r + gamma * c for r, c in pairs]
            first = max(range(len(values)), key=lambda k: (values[k], -k))
            firsts.append(len(q) + first)
            q += values
        q = np.array(q)
        assert not np.any((q == 0.0) & np.signbit(q))
        assert firsts == [1, 3, 8, 9]
        maxima = np.maximum.reduceat(q, np.array(starts))
        assert maxima.tobytes() == q[firsts].tobytes()


class TestArrangementLedger:
    def test_matches_deque_reference(self):
        rng = np.random.default_rng(11)
        for _ in range(300):
            action = tuple(int(x) for x in rng.integers(0, 3, 3))
            drawn = nv.generate_arrangements(action, int(rng.integers(1, 6)), rng)
            ledger = policy_module._ArrangementLedger(list(drawn))
            ref = DequeLedger(drawn)
            for _ in range(int(rng.integers(1, 25))):
                if rng.random() < 0.5:
                    assert ledger.next_arrangement() == ref.next_arrangement()
                else:
                    # ties at 0.0 and below it exercise the <= rule
                    reward = float(rng.choice([-1.0, 0.0, 0.0, rng.uniform(0.0, 5.0)]))
                    arrangement = drawn[int(rng.integers(len(drawn)))]
                    ledger.record(reward, arrangement)
                    ref.record(reward, arrangement)
                # the solver reads the incumbent order from ``best``
                assert ledger.best == (ref.best if ref.best is not None else ref.first)
                assert ledger.best_reward == ref.best_reward


class TestRealizedAction:
    def _result(self, entries):
        services = [
            PlacedService(l, nv.ServicePlacement(l, (nv.VnfPlacement(0),)), 1.0, e, np.full((1, 1), 2.0))
            for l, e in entries
        ]
        return TrellisResult(True, services, ())

    def test_unreliable_services_dropped(self):
        svc = nv.ServiceType(0.05, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 5, name="s")
        catalog = (svc, svc)
        out = self._result([(0, 0.01), (0, 0.2), (1, 0.04)])
        assert score_outcome((2, 1), out, catalog, (1, 1))[1] == (1, 1)
        # the cap itself is admitted; the next float above it is not
        out = self._result([(0, 0.05), (1, float(np.nextafter(0.05, 1)))])
        assert score_outcome((1, 1), out, catalog, (1, 1))[1] == (1, 0)

    def test_usage_counts_reliable_only(self):
        svc = nv.ServiceType(0.05, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 5, name="s")
        catalog = (svc, svc)
        out = self._result([(0, 0.01), (0, 0.2), (1, 0.04)])
        _, _, usage = score_outcome((2, 1), out, catalog, (1, 1))
        assert usage[0, 0] == pytest.approx(4.0)

    def test_invalid_batch_realizes_nothing(self):
        svc = nv.ServiceType(0.05, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 5, name="s")
        out = TrellisResult(False, [], ())
        _, counts, usage = score_outcome((1,), out, (svc,), (1, 1))
        assert counts == (0,)
        assert np.all(usage == 0.0)

    def test_admitting_more_than_requested_raises(self):
        svc = nv.ServiceType(0.05, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 10.0, 5, name="s")
        out = self._result([(0, 0.01), (0, 0.02)])
        with pytest.raises(RuntimeError, match="admits more services than requested"):
            score_outcome((1,), out, (svc,), (1, 1))
        # the services that miss their target do not count against the request
        assert score_outcome((1,), self._result([(0, 0.01), (0, 0.2)]), (svc,), (1, 1))[1] == (1,)


class TestValueIteration:
    def test_analytic_fixed_point(self):
        # free capacity, certain arrival, certain departure: the recurrence
        # V = 1 + gamma V has the closed form 1/(1 - gamma)
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        policy = nv.value_iteration(
            space, model, catalog, infra, gamma=0.9, epsilon=1e-10, seed=0
        )
        assert policy.converged
        assert policy.values[space.state_id((1,), (0,))] == pytest.approx(10.0, abs=1e-9)
        assert policy.values[space.state_id((0,), (0,))] == pytest.approx(9.0, abs=1e-9)
        assert policy.lookup((1,), (0,))[0] == (1,)

    def test_trace_lengths_match_iterations(self):
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        policy = nv.value_iteration(space, model, catalog, infra, epsilon=1e-6, seed=0)
        assert len(policy.sup_diff_trace) == policy.iterations
        assert len(policy.mean_value_trace) == policy.iterations

    def test_iteration_budget_respected(self):
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        policy = nv.value_iteration(
            space, model, catalog, infra, epsilon=1e-300, max_iterations=7, seed=0
        )
        assert not policy.converged
        assert policy.iterations == 7

    def test_takes_every_solver_setting_by_name(self):
        # each MdpParams field is a setting; the state space cap was not
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        settings = {f.name: f.default for f in fields(MdpParams)}
        settings.update(epsilon=1e-10, max_iterations=40, seed=4)
        policy = nv.value_iteration(space, model, catalog, infra, **settings)
        assert (policy.epsilon, policy.seed, policy.iterations) == (1e-10, 4, 40)
        with pytest.raises(TypeError):
            nv.value_iteration(space, model, catalog, infra, sweeps=3)
        with pytest.raises(ValueError, match=r"^gamma: must lie in \(0, 1\)$"):
            nv.value_iteration(space, model, catalog, infra, gamma=1.0)

    def test_integer_settings_reject_a_float(self):
        # a field-path error, not numpy's or range's TypeError
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        for name in ("num_arrangements", "seed"):
            with pytest.raises(ValueError, match=f"^{name}: must be an integer$"):
                nv.value_iteration(space, model, catalog, infra, **{name: 1.5})

    def test_one_placement_context_per_call(self, monkeypatch):
        infra, catalog = reduced_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        built = []
        init = nv.PlacementContext.__init__

        def counting(self, *args):
            built.append(args)
            init(self, *args)

        monkeypatch.setattr(nv.PlacementContext, "__init__", counting)
        for calls in (1, 2):
            nv.value_iteration(space, model, catalog, infra, max_iterations=3, seed=1)
            assert len(built) == calls

    def test_unestimated_actives_are_the_states_no_idle_sample_reached(self, monkeypatch):
        # an estimate leaves its zero start only through a sample that holds
        # idle stock; the empty admission blends each state's own estimate
        # back into it, so it reaches every state
        reached = set()
        update = nv.ResourceEstimator.update

        def recording_update(self, eta, sample):
            if any(o > 0.0 for o in sample):
                reached.add(eta)
            return update(self, eta, sample)

        monkeypatch.setattr(nv.ResourceEstimator, "update", recording_update)
        policy = _rung_solve(2)
        space = nv.build_state_space(nv.seven_providers().service_types[:2])
        occupied = set(range(1, space.num_active + 1)) - {space.active_index((0, 0))}
        assert policy.unestimated_actives == len(occupied - reached) == 24


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _reduced_solve(seed: int = 1) -> nv.Policy:
    infra, catalog = reduced_setup()
    space = nv.build_state_space(catalog)
    return nv.value_iteration(space, nv.TransitionModel(space, catalog), catalog, infra, seed=seed)


# SHA-256 of the reduced solve's values, mean-value trace and sup-diff
# trace per seed, recorded by scoring every (state, action) pair with a fresh
# trellis search. Seeds 1 and 7 give the same solve; seed 3 gives other
# values, so a change that mishandles the seed shows here.
REDUCED_SOLVE_BITS = {
    1: (
        "33d8c87263a750b846c69efc7fbc04e7b3a3716bc41fdf50e61a331add964849",
        "fbcac0d37017dd36e617be0e9c4f06af9c2d04a1da2b2cfb22d146c54e2b515f",
        "ab8cb72a55b496bc39f294a70b51940640ca9e6864d51b5b0d4cd68ed85fdec7",
    ),
    3: (
        "bf4b0ccdffe0de277a41c8debc9afc368d1d4edd362a003d8c16e5ffed8ab1ea",
        "6cd566f752acb71365804fe23a793a112972f55c3c61d4168453ecf9be9e57d3",
        "930fc863d8ea291b7fe2f8a064ec00cdaefb109d50e3b198901c0173e6b19480",
    ),
}


class TestReducedSolveReference:
    """The reduced solve, pinned bit for bit to the result of scoring every
    (state, action) pair with a fresh trellis search. Any fast path in the
    solve must reproduce it exactly."""

    def test_solve_matches_reference_bits(self):
        for seed, bits in REDUCED_SOLVE_BITS.items():
            policy = _reduced_solve(seed=seed)
            plan = json.dumps(
                [[list(a) for a in policy.actions], [list(r) for r in policy.arrangements]]
            ).encode()
            assert policy.iterations == 63
            assert _sha256(plan) == "11c622b5ca739c5304282f6d5c12bfdee4d5529a82e67f81eaae930ed1146246"
            assert (
                _sha256(policy.values.tobytes()),
                _sha256(np.asarray(policy.mean_value_trace, dtype=float).tobytes()),
                _sha256(np.asarray(policy.sup_diff_trace, dtype=float).tobytes()),
            ) == bits, f"seed {seed}"

    def test_each_distinct_input_is_searched_once(self, monkeypatch):
        inputs = []
        updates = []

        class CountingPlacement(nv.TrellisPlacement):
            def __init__(self, action, arrangement, snapshot, *args, **kwargs):
                inputs.append((tuple(action), tuple(arrangement), np.asarray(snapshot).tobytes()))
                super().__init__(action, arrangement, snapshot, *args, **kwargs)

        update = nv.ResourceEstimator.update

        def counting_update(self, *args):
            updates.append(args[0])
            return update(self, *args)

        monkeypatch.setattr(policy_module, "TrellisPlacement", CountingPlacement)
        monkeypatch.setattr(nv.ResourceEstimator, "update", counting_update)
        policy = _reduced_solve(seed=1)
        # 363 distinct inputs among the 8,568 scorings of this solve; the 108
        # empty admissions among them are scored without a trellis. The
        # estimator learns from every valid scoring of the 15 scored sweeps,
        # repeats included
        assert sum(c.trellis_searches for c in policy.sweep_counts) == 363
        assert len(inputs) == len(set(inputs)) == 255
        assert all(arrangement for _, arrangement, _ in inputs)
        assert len(updates) == 1289

    def test_checked_entry_gives_the_same_solve(self, monkeypatch):
        # every trellis the solver builds, built through the checked entry
        built = []

        class CheckedPlacement(nv.TrellisPlacement):
            def __init__(self, *args, _checked=True):
                built.append(_checked)
                super().__init__(*args)

        monkeypatch.setattr(policy_module, "TrellisPlacement", CheckedPlacement)
        checked = _reduced_solve(seed=1)
        monkeypatch.undo()
        assert built and not any(built)
        ref = _reduced_solve(seed=1)
        assert (checked.actions, checked.arrangements) == (ref.actions, ref.arrangements)
        assert checked.values.tobytes() == ref.values.tobytes()
        assert (checked.mean_value_trace, checked.sup_diff_trace) == (
            ref.mean_value_trace, ref.sup_diff_trace
        )
        assert checked.sweep_counts == ref.sweep_counts
        assert _sha256(checked.values.tobytes()) == REDUCED_SOLVE_BITS[1][0]

    def test_each_continuation_value_is_computed_once_per_sweep(self, monkeypatch):
        rows = []
        constructions = []
        updates = []
        departure_row = nv.TransitionModel.departure_row
        init = nv.TrellisPlacement.__init__
        update = nv.ResourceEstimator.update

        def counting_row(self, source):
            rows.append(tuple(source))
            return departure_row(self, source)

        def counting_init(self, *args, **kwargs):
            constructions.append(args[0])
            init(self, *args, **kwargs)

        def counting_update(self, *args):
            updates.append(args[0])
            return update(self, *args)

        monkeypatch.setattr(nv.TransitionModel, "departure_row", counting_row)
        monkeypatch.setattr(nv.TrellisPlacement, "__init__", counting_init)
        monkeypatch.setattr(nv.ResourceEstimator, "update", counting_update)
        policy = _reduced_solve(seed=1)
        counts = policy.sweep_counts
        assert len(counts) == policy.iterations == 63
        # one continuation per distinct post-admission source per sweep,
        # against one per scoring (8,568) before; the departure rows are
        # formed in the 15 scored sweeps and kept for the settled ones
        assert sum(c.continuations for c in counts) == 1134
        assert len(rows) == sum(c.continuations for c in counts[:15]) == 270
        assert max(c.continuations for c in counts) <= 18
        # every sweep scores each (state, action) pair once
        infra, catalog = reduced_setup()
        space = nv.build_state_space(catalog)
        pairs = sum(len(space.feasible_actions(*space.state_of(sid))) for sid in range(space.size))
        assert all(c.trellis_searches + c.memo_hits == pairs for c in counts)
        # every distinct input but the 108 empty admissions builds a trellis
        assert sum(c.trellis_searches for c in counts) == 363
        assert len(constructions) == 255
        assert len(updates) == 1289


class TestSeedThreeSolveCounts:
    """Seed 3 draws other arrangement pools than seeds 1 and 7, so a change
    to the pool draws shows first in its plan and work counts. Recorded
    with pools drawn by ``rng.permutation`` and each sweep's first best
    pairs searched in full."""

    def test_plan_and_work_counts(self, monkeypatch):
        rows, constructions, updates = [], [], []
        departure_row = nv.TransitionModel.departure_row
        init = nv.TrellisPlacement.__init__
        update = nv.ResourceEstimator.update

        def counting_row(self, source):
            rows.append(tuple(source))
            return departure_row(self, source)

        def counting_init(self, *args, **kwargs):
            constructions.append(args[0])
            init(self, *args, **kwargs)

        def counting_update(self, *args):
            updates.append(args[0])
            return update(self, *args)

        monkeypatch.setattr(nv.TransitionModel, "departure_row", counting_row)
        monkeypatch.setattr(nv.TrellisPlacement, "__init__", counting_init)
        monkeypatch.setattr(nv.ResourceEstimator, "update", counting_update)
        policy = _reduced_solve(seed=3)
        plan = json.dumps(
            [[list(a) for a in policy.actions], [list(r) for r in policy.arrangements]]
        ).encode()
        assert _sha256(plan) == "11c622b5ca739c5304282f6d5c12bfdee4d5529a82e67f81eaae930ed1146246"
        # the empty admissions are scored without a trellis, and the
        # settled sweeps neither update the estimator nor form departure rows
        assert (len(constructions), len(updates), len(rows), policy.iterations) == (
            250, 1289, 270, 63
        )
        assert sum(c.trellis_searches for c in policy.sweep_counts) == 355
        assert sum(c.continuations for c in policy.sweep_counts) == 1134


# SHA-256 of the plan, values, mean-value trace and sup-diff trace of the
# reduced solve at seed 1 with alpha_init 0.7 and estimate_discount 0.9,
# recorded with a numpy (S, R) estimate per state and one snapshot copy per
# state visit. With these steps, blending a state's own estimate back into
# it (the empty admission, scored first) moves its last bits.
SLOW_STEP_SOLVE_BITS = (64, (
    "c771009453d00c76602418394b2503f623b384cfd4b0044ffb60200d709b4437",
    "0b1c8b438ea1347a48e7a352f04acf57ab199663efddb681ed2503a371ddfd42",
    "49be977f78acc983b184dda951a0da1e7e196ffffe2b99a74543609cda44374e",
    "bc56db5b8c4d7a673e8f1d9393350bf2f607f1b2892ad48cf88040fd56cf7a61",
))


class TestSlowStepSolveReference:
    def test_searches_score_the_estimate_as_the_visit_began(self):
        # a search that read the estimate after an earlier action of the
        # same visit had updated it would file its outcome under the wrong
        # memo key; this solve then takes 65 sweeps instead of 64
        infra, catalog = reduced_setup()
        space = nv.build_state_space(catalog)
        policy = nv.value_iteration(
            space, nv.TransitionModel(space, catalog), catalog, infra,
            seed=1, alpha_init=0.7, estimate_discount=0.9,
        )
        plan = json.dumps(
            [[list(a) for a in policy.actions], [list(r) for r in policy.arrangements]]
        ).encode()
        sweeps, bits = SLOW_STEP_SOLVE_BITS
        assert policy.iterations == sweeps
        assert (
            _sha256(plan),
            _sha256(policy.values.tobytes()),
            _sha256(np.asarray(policy.mean_value_trace, dtype=float).tobytes()),
            _sha256(np.asarray(policy.sup_diff_trace, dtype=float).tobytes()),
        ) == bits


class TestSettledSweeps:
    """Once a sweep with every arrangement pool spent leaves every estimate
    bit-equal at steps with ``1.0 - a == 1.0``, later sweeps replay its
    updates and back up the same table; each scored sweep asks every
    ledger for one order, a replayed sweep none."""

    @pytest.fixture()
    def asked(self, monkeypatch):
        asked = []
        next_arrangement = policy_module._ArrangementLedger.next_arrangement

        def counting(self):
            asked.append(1)
            return next_arrangement(self)

        monkeypatch.setattr(policy_module._ArrangementLedger, "next_arrangement", counting)
        return asked

    @staticmethod
    def _scored_sweeps(asked, **settings):
        asked.clear()
        infra, catalog = reduced_setup()
        space = nv.build_state_space(catalog)
        pairs = sum(len(space.feasible_actions(*space.state_of(sid))) for sid in range(space.size))
        policy = nv.value_iteration(space, nv.TransitionModel(space, catalog), catalog, infra, **settings)
        scored, rest = divmod(len(asked), pairs)
        assert rest == 0
        return policy, scored, pairs

    def test_reduced_solves_score_15_sweeps_and_replay_48(self, asked):
        for seed in REDUCED_SOLVE_BITS:
            policy, scored, pairs = self._scored_sweeps(asked, seed=seed)
            assert (scored, policy.iterations - scored) == (15, 48), seed
            for counts in policy.sweep_counts[scored:]:
                assert counts.trellis_searches == 0 and counts.memo_hits == pairs
            assert _sha256(policy.values.tobytes()) == REDUCED_SOLVE_BITS[seed][0]

    def test_slow_steps_score_every_sweep(self, asked):
        policy, scored, _ = self._scored_sweeps(
            asked, seed=1, alpha_init=0.7, estimate_discount=0.9
        )
        assert scored == policy.iterations == SLOW_STEP_SOLVE_BITS[0]

    def test_update_without_a_report_scores_every_sweep_to_the_same_bits(
        self, asked, monkeypatch
    ):
        update = nv.ResourceEstimator.update

        def silent_update(self, *args):
            update(self, *args)

        monkeypatch.setattr(nv.ResourceEstimator, "update", silent_update)
        policy, scored, _ = self._scored_sweeps(asked, seed=1)
        assert scored == policy.iterations == 63
        monkeypatch.undo()
        ref = _reduced_solve(seed=1)
        assert (policy.actions, policy.arrangements) == (ref.actions, ref.arrangements)
        assert policy.values.tobytes() == ref.values.tobytes()
        assert (policy.mean_value_trace, policy.sup_diff_trace) == (
            ref.mean_value_trace, ref.sup_diff_trace
        )
        assert policy.sweep_counts == ref.sweep_counts
        assert _sha256(policy.values.tobytes()) == REDUCED_SOLVE_BITS[1][0]


def _rung_solve(num_types: int, seed: int = 1) -> nv.Policy:
    """Solve the bundled setup restricted to its first ``num_types``
    service types, with the default solver settings."""
    cfg = nv.seven_providers()
    catalog = cfg.service_types[:num_types]
    space = nv.build_state_space(catalog)
    return nv.value_iteration(
        space, nv.TransitionModel(space, catalog), catalog, cfg.infrastructure, seed=seed
    )


# SHA-256 of the plan (actions, arrangements), the values, the mean-value
# trace and the sup-diff trace of the bundled setup restricted to its first
# 2 and 3 service types (324 and 5,832 states), seed 1, recorded with a
# departure row and an arrangement-pool lookup per scoring; with the
# sweep count of each solve.
RUNG_SOLVE_BITS = {
    2: (66, (
        "8bc055bdabe4274146438b9885a3f92dd8a17195850b7474c1ae6ea1bc47b14a",
        "8fcf9aa44284c4074ec74cfa97d99ca90570d5897966c2a1ab9fff33a997c81e",
        "d2720672263ea8e637d7dce73eeb07a13e2281482d40fb2f60530d667b3b0329",
        "9b55ea17fa6448a10d206089b50e119cfd5edb7203cefb4973ba1cc0fd04f60e",
    )),
    3: (67, (
        "59941184ab6a61bdecce366890fd21841f5e466566e6568eeafeecd2edcd145c",
        "ca6f70c613a6f55641e01f2ccf01e8f15ccb4570c4b7e642b1dbd9a552ddf4f9",
        "9fd04c04c10b2f48af72deaa66472ffbe9d7ed8bc0a4e59b46fe24b39b51ae52",
        "d13f8fa004d39b404ae1c2693109f333ee65c4e3a5df11cabc3c0e3c644c884a",
    )),
}


class TestBundledRungReference:
    """Rungs of the bundled setup's solve ladder, pinned bit for bit."""

    @staticmethod
    def _check(num_types: int) -> None:
        sweeps, bits = RUNG_SOLVE_BITS[num_types]
        policy = _rung_solve(num_types)
        plan = json.dumps(
            [[list(a) for a in policy.actions], [list(r) for r in policy.arrangements]]
        ).encode()
        assert policy.converged
        assert policy.iterations == sweeps
        assert (
            _sha256(plan),
            _sha256(policy.values.tobytes()),
            _sha256(np.asarray(policy.mean_value_trace, dtype=float).tobytes()),
            _sha256(np.asarray(policy.sup_diff_trace, dtype=float).tobytes()),
        ) == bits

    def test_two_types(self):
        self._check(2)

    def test_three_types(self):
        self._check(3)


class TestSettingTypes:
    @pytest.mark.parametrize("name, value, rule", [
        ("gamma", True, "must be a number"),
        ("epsilon", True, "must be a number"),
        ("num_arrangements", 2.5, "must be an integer"),
        ("alpha_init", True, "must be a number"),
        ("estimate_discount", "0.5", "must be a number"),
        ("max_iterations", True, "must be an integer"),
        ("state_space_cap", 1e6, "must be an integer"),
        ("seed", 1.5, "must be an integer"),
    ])
    def test_each_field_rejects_a_wrong_type(self, name, value, rule):
        with pytest.raises(ValueError, match=f"^{name}: {rule}$"):
            MdpParams(**{name: value})

    def test_numpy_scalars_and_ints_accepted(self):
        params = MdpParams(
            gamma=np.float64(0.5), epsilon=1, num_arrangements=np.int64(3),
            alpha_init=np.float32(1.0), estimate_discount=np.float64(0.25), seed=np.uint8(2),
        )
        assert (params.gamma, params.num_arrangements, params.seed) == (0.5, 3, 2)


class TestPolicyArtifact:
    def test_save_load_round_trip(self, tmp_path):
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        policy = nv.value_iteration(
            space, model, catalog, infra, epsilon=1e-8, seed=3, fingerprint="abc123"
        )
        path = tmp_path / "policy.json"
        policy.save(path)
        loaded = nv.Policy.load(path)
        assert loaded.fingerprint == "abc123"
        # the per-sweep work counts and the estimate coverage describe the
        # run, not the policy
        assert policy.sweep_counts and loaded.sweep_counts == ()
        assert policy.unestimated_actives == 0 and loaded.unestimated_actives is None
        assert not {"sweep_counts", "unestimated_actives"} & json.loads(path.read_text()).keys()
        assert loaded.gamma == policy.gamma
        assert np.array_equal(loaded.values, policy.values)
        for lam in ((0,), (1,)):
            for sigma in ((0,), (1,)):
                assert loaded.lookup(lam, sigma) == policy.lookup(lam, sigma)

    # the artifact holds the declared fields that take part in comparisons,
    # and a field declared without a reader fails here
    def test_each_saved_field_rejects_a_wrong_json_type(self, tmp_path):
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        policy = nv.value_iteration(
            space, nv.TransitionModel(space, catalog), catalog, infra, seed=0, fingerprint="abc"
        )
        path = tmp_path / "policy.json"
        policy.save(path)
        saved = json.loads(path.read_text())
        declared = [f for f in fields(nv.Policy) if f.compare]
        assert {f.name for f in declared} == saved.keys() - {"format", "version"}
        for f in declared:
            for wrong in wrong_json_values(f.default, saved[f.name]):
                path.write_text(json.dumps({**saved, f.name: wrong}))
                with pytest.raises(ValueError) as err:
                    nv.Policy.load(path)
                where = f"{f.name}[0]" if isinstance(wrong, list) else f.name
                assert str(err.value).startswith(f"{where}: expected "), (f.name, wrong)

    def test_non_finite_numbers_rejected(self, tmp_path):
        # json reads NaN and Infinity; an artifact holding them must not load
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        policy = nv.value_iteration(space, nv.TransitionModel(space, catalog), catalog, infra, seed=0)
        path = tmp_path / "policy.json"
        policy.save(path)
        saved = json.loads(path.read_text())
        for edit, where in (
            ({"values": [math.nan] * len(saved["values"]),
              "mean_value_trace": [math.inf] + saved["mean_value_trace"][1:]}, "values[0]"),
            ({"mean_value_trace": saved["mean_value_trace"] + [math.inf]},
             f"mean_value_trace[{len(saved['mean_value_trace'])}]"),
            ({"sup_diff_trace": [-math.inf] + saved["sup_diff_trace"][1:]}, "sup_diff_trace[0]"),
            ({"epsilon": math.nan}, "epsilon"),
            # an integer beyond a float's range used to raise OverflowError
            ({"values": [10**400] + saved["values"][1:]}, "values[0]"),
            ({"gamma": 10**400}, "gamma"),
        ):
            path.write_text(json.dumps({**saved, **edit}))
            with pytest.raises(ValueError, match=rf"^{re.escape(where)}: expected a finite number"):
                nv.Policy.load(path)

    def test_binomial_artifact_from_older_release_loads(self, tmp_path):
        # artifacts written before the departure law was fixed name it
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        policy = nv.value_iteration(space, nv.TransitionModel(space, catalog), catalog, infra, seed=0)
        path = tmp_path / "policy.json"
        policy.save(path)
        payload = json.loads(path.read_text())
        payload["departure_mode"] = "binomial"
        path.write_text(json.dumps(payload))
        loaded = nv.Policy.load(path)
        assert loaded.actions == policy.actions
        assert np.array_equal(loaded.values, policy.values)

    def test_lookup_validates_bounds(self):
        infra, catalog = analytic_setup()
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        policy = nv.value_iteration(space, model, catalog, infra, epsilon=1e-6, seed=0)
        with pytest.raises((ValueError, IndexError)):
            policy.lookup((5,), (0,))

    def test_lookup_rejects_non_integer_counts(self):
        infra, catalog = reduced_setup()
        space = nv.build_state_space(catalog)
        policy = nv.value_iteration(
            space, nv.TransitionModel(space, catalog), catalog, infra, max_iterations=2, seed=0
        )
        for lam, sigma in (((1, 0), (0.0, 0)), ((0.5, 0), (0, 0)), ((1, True), (0, 0))):
            with pytest.raises(ValueError, match="is not an integer"):
                policy.lookup(lam, sigma)
        assert policy.lookup((np.int64(1), 0), (0, np.int64(1))) == policy.lookup((1, 0), (0, 1))

    def test_infeasible_in_memory_policy_rejected(self):
        # admitting two services in every state, including those where
        # nothing arrived, must fail before any simulator can place them
        _, catalog = tiny_two_inps()
        space = nv.build_state_space(catalog)
        with pytest.raises(ValueError, match=r"^actions\[0\]: "):
            nv.Policy(
                sigma_max=space.sigma_max,
                lambda_max=space.lambda_max,
                actions=[(2,)] * space.size,
                arrangements=[(0, 0)] * space.size,
                values=np.zeros(space.size),
                gamma=0.9,
                epsilon=1e-3,
                seed=5,
                num_arrangements=1,
                iterations=1,
                converged=True,
                mean_value_trace=[0.0],
                sup_diff_trace=[0.0],
            )


class TestFingerprint:
    def test_stable_for_identical_content(self, bundled_cfg):
        src = bundled_cfg.source
        a = nv.catalog_fingerprint(src["infrastructure"], src["service_types"])
        b = nv.catalog_fingerprint(src["infrastructure"], src["service_types"])
        assert a == b == bundled_cfg.fingerprint

    def test_sensitive_to_content(self, bundled_cfg):
        import copy

        src = copy.deepcopy(bundled_cfg.source)
        src["infrastructure"]["beta"] = 16.0
        changed = nv.catalog_fingerprint(src["infrastructure"], src["service_types"])
        assert changed != bundled_cfg.fingerprint
