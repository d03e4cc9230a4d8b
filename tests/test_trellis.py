"""Layered-graph batch placement: staging, scoring, search, read-out."""

import collections
import dataclasses
import hashlib

import numpy as np
import pytest

import nfvplace as nv
from nfvplace.model import MAX_AMOUNT

from helpers import (
    context_bytes, random_batch_inputs, reachable, reduced_setup, replay, search_pairs,
    stage_info, survivors,
)


def full_snapshot(infra):
    return np.array(infra.capacity, copy=True)


def random_batches(infra, catalog, seed, cases=40):
    """Random batches of up to three services per type, so some do not fit;
    every other one on a float snapshot."""
    rng = np.random.default_rng(seed)
    for i in range(cases):
        action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog, max_per_type=3)
        if i % 2:
            snapshot = infra.capacity * rng.uniform(size=infra.capacity.shape)
        yield action, arrangement, snapshot


def outcome_record(tp, res):
    """One batch outcome as comparable values, floats as their bits."""
    services = [
        (s.type_index, s.placement, s.cost.hex(), s.failure_prob.hex(),
         s.usage.dtype.str, s.usage.tobytes())
        for s in res.services
    ]
    return res.valid, res.path, tp.evaluations, services


class TestStaging:
    def test_stage_count_empty(self, tiny2):
        infra, catalog = tiny2
        assert nv.TrellisPlacement((0,), (), full_snapshot(infra), catalog, infra).num_stages == 0

    def test_stage_count_two_services(self, tiny2):
        infra, _ = tiny2

        def chain(n):
            return nv.ServiceType(0.05, 0.5, 1.0, tuple(nv.VnfSpec(0, (1,)) for _ in range(n)),
                                  (0.5, 0.5), 10.0, 2, name=f"u{n}")

        def stages(action, arrangement, catalog):
            return nv.TrellisPlacement(
                action, arrangement, full_snapshot(infra), catalog, infra
            ).num_stages

        assert stages((1, 1), (0, 1), (chain(3), chain(5))) == 16
        assert stages((1,), (0,), (chain(4),)) == 8

    def test_stage_states_parity(self, bundled):
        # at full capacity every candidate state survives: servers 1..S at
        # a main stage, plus state 0 ("no backup") at a backup stage
        infra, catalog = bundled
        tp = nv.TrellisPlacement((1, 0, 0, 0), (0,), full_snapshot(infra), catalog, infra)
        tp.run()
        odd = list(survivors(tp, 1))
        even = list(survivors(tp, 2))
        assert len(odd) == infra.num_servers == 21
        assert len(even) == 22
        assert 0 not in odd and 0 in even


class TestTinyInstance:
    """One 1-VNF service, two single-server providers with unit costs 2 and 1."""

    def test_placement(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        res = trellis.run()
        assert res.valid and len(res.services) == 1
        svc = res.services[0]
        # main on the cheap high-failure server, backup on the other
        assert svc.placement.vnfs[0].main == 1
        assert svc.placement.vnfs[0].backup == 0
        assert svc.cost == pytest.approx(15.0, abs=1e-9)
        assert svc.failure_prob == pytest.approx(0.02, rel=1e-9)
        assert svc.usage.tolist() == [[5], [5]]

    def test_replay_scores(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        trellis.run()
        # odd stage: placing the main on the v=0.1 server yields 0.9
        assert replay(trellis, 1, 0, 1)[3] == pytest.approx(0.9)
        # even stage: skipping the backup keeps the prior chain reliability
        assert replay(trellis, 2, 1, 0)[3] == pytest.approx(0.9)
        # even stage: v=0.2 main protected by the v=0.1 backup
        assert replay(trellis, 2, 2, 1)[3] == pytest.approx(0.98)

    def test_shortfall_hinge(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        trellis.run()
        # assigned-server target is 1 - cap = 0.95; at 0.90 the hinge is
        # penalty * 0.05 = 5e4
        assert replay(trellis, 1, 0, 1)[4] == pytest.approx(5.0e4, rel=1e-9)
        # skipping a backup is held to a target of 1.0
        assert replay(trellis, 2, 1, 0)[4] == pytest.approx(1.0e5, rel=1e-9)
        assert replay(trellis, 2, 2, 1)[4] == 0.0

    def test_transition_cost_accumulates(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        trellis.run()
        # v=0.1 main: 5 units at cost 2 plus hinge 5e4; v=0.2 main: 5 units
        # at cost 1 plus hinge 1.5e5 -- the hinge dominates the saved units
        assert replay(trellis, 1, 0, 1)[0] == pytest.approx(50010.0, rel=1e-9)
        assert replay(trellis, 1, 0, 2)[0] == pytest.approx(150005.0, rel=1e-9)
        assert replay(trellis, 1, 0, 1)[0] < replay(trellis, 1, 0, 2)[0]

    def test_evaluation_counter(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        assert trellis.evaluations == 0
        trellis.run()
        assert trellis.evaluations > 0
        # main stage: one predecessor for each of the two servers; backup
        # stage: both mains for "no backup", the other main for each server
        assert trellis.evaluations == 2 + (2 + 1 + 1)


class TestRoutingReplay:
    """A 2-VNF chain of bandwidth 2 over three equal servers whose links
    cost 1 (servers 1-2), 3 (1-3) and 5 (2-3); every server charge is 1."""

    def _trellis(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,), (10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
            link_cost=np.array([[0.0, 1.0, 3.0], [1.0, 0.0, 5.0], [3.0, 5.0, 0.0]]),
        )
        svc = nv.ServiceType(0.05, 0.5, 2.0, (nv.VnfSpec(0, (1,)), nv.VnfSpec(0, (1,))),
                             (0.5, 0.5), 10.0, 2, name="chain")
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), (svc,), infra)
        trellis.run()
        return trellis

    @staticmethod
    def _route(trellis, m, x1, x2):
        prev = survivors(trellis, m - 1)[x1]
        term = 1.0
        theta, _, _, _, hinge = replay(trellis, m, x1, x2)
        return theta - hinge - prev.cost - term

    def test_main_stage_links_to_previous_main_and_backup(self):
        trellis = self._trellis()
        # VNF 0 main on server 1, backup on server 2; VNF 1 main on server 3
        assert survivors(trellis, 2)[2].path == (1, 2)
        assert self._route(trellis, 3, 2, 3) == pytest.approx(2.0 * (3.0 + 5.0), rel=1e-12)

    def test_backup_stage_links_to_previous_main_and_backup(self):
        trellis = self._trellis()
        # VNF 0 main on server 1, backup on server 3; VNF 1 main on server 3
        # and its backup on server 2, linked to servers 3 and 1
        assert survivors(trellis, 3)[3].path == (1, 3, 3)
        assert self._route(trellis, 4, 3, 2) == pytest.approx(2.0 * (5.0 + 1.0), rel=1e-12)


class TestSearchBehavior:
    def test_symmetric_servers_resolve_deterministically(self):
        # two interchangeable servers: the search must still commit to one
        # main/backup split and repeat it run after run
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.05, 0.5, 1.0, (nv.VnfSpec(0, (5,)),), (0.5, 0.5), 10.0, 2, name="t")
        results = [
            nv.place_batch((1,), (0,), full_snapshot(infra), (svc,), infra)
            for _ in range(3)
        ]
        first = results[0]
        assert first.valid
        vp = first.services[0].placement.vnfs[0]
        assert {vp.main, vp.backup} == {0, 1}
        assert all(r.path == first.path for r in results)

    def test_infeasible_batch_places_nothing(self, tiny2):
        # nothing fits the first stage, so the search stops at the origin
        infra, catalog = tiny2
        tp = nv.TrellisPlacement((1,), (0,), np.zeros_like(full_snapshot(infra)), catalog, infra)
        res = tp.run()
        assert not res.valid
        assert res.services == []
        assert len(tp.stages) == 1 and tp.evaluations == 0
        cost, reliability, _, pick = tp.stages[0]
        assert cost is tp.context.origin_cost and pick is None

    def test_whole_batch_fails_on_one_unplaceable_service(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((5,),))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.5, 0.5, 1.0, (nv.VnfSpec(0, (5,)),), (0.5, 0.5), 10.0, 3, name="t")
        one = nv.place_batch((1,), (0,), full_snapshot(infra), (svc,), infra)
        assert one.valid and len(one.services) == 1
        two = nv.place_batch((2,), (0, 0), full_snapshot(infra), (svc,), infra)
        assert not two.valid and two.services == []

    def test_determinism(self, bundled, rng):
        infra, catalog = bundled
        action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog)
        a = nv.place_batch(action, arrangement, snapshot, catalog, infra)
        b = nv.place_batch(action, arrangement, snapshot, catalog, infra)
        assert a.valid == b.valid and a.path == b.path
        for x, y in zip(a.services, b.services):
            assert x.placement == y.placement and x.cost == y.cost

    def test_snapshot_is_not_mutated(self, tiny2):
        infra, catalog = tiny2
        snap = full_snapshot(infra)
        before = snap.copy()
        nv.place_batch((1,), (0,), snap, catalog, infra)
        assert np.array_equal(snap, before)

    def test_backups_dropped_under_pressure(self):
        # one server per provider and a loose target: when capacity only
        # admits mains, the search still returns a valid main-only chain
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((5,),))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.5, 0.5, 1.0, (nv.VnfSpec(0, (5,)),), (0.5, 0.5), 10.0, 2, name="t")
        res = nv.place_batch((1,), (0,), full_snapshot(infra), (svc,), infra)
        assert res.valid
        assert res.services[0].placement.vnfs[0].backup is None
        assert res.services[0].failure_prob == pytest.approx(0.1)


class TestInputValidation:
    def test_arrangement_multiset_checked(self, tiny2):
        infra, catalog = tiny2
        with pytest.raises(ValueError):
            nv.TrellisPlacement((2,), (0,), full_snapshot(infra), catalog, infra)

    @pytest.mark.parametrize("setup, action, entry, error", [
        ("tiny2", (1,), 1, "arrangement"),
        ("tiny2", (1,), -1, "arrangement"),
        # a bool or a float equal to type 1 passes the count of type 1
        ("reduced", (0, 1), True, r"type index True is not an integer in range\(2\)"),
        ("reduced", (0, 1), 1.0, r"type index 1\.0 is not an integer in range\(2\)"),
    ], ids=["1", "-1", "True", "1.0"])
    def test_arrangement_entry_outside_catalog_rejected(self, setup, action, entry, error, request):
        # the length and the count of type 0 cannot both match with an
        # entry that names no type; -1 would index the catalog from the end
        infra, catalog = request.getfixturevalue(setup)
        with pytest.raises(ValueError, match=error):
            nv.TrellisPlacement(action, (entry,), full_snapshot(infra), catalog, infra)
        with pytest.raises(ValueError, match="arrangement"):
            nv.TrellisPlacement(action, (0, entry), full_snapshot(infra), catalog, infra)

    @pytest.mark.parametrize("count", [True, 1.0])
    def test_action_count_not_an_integer_rejected(self, reduced, count):
        infra, catalog = reduced
        with pytest.raises(ValueError, match=f"action count {count!r} is not an integer"):
            nv.TrellisPlacement((count, 0), (0,), full_snapshot(infra), catalog, infra)

    def test_numpy_integer_counts_and_entries_accepted(self, reduced):
        infra, catalog = reduced
        snapshot = full_snapshot(infra)
        plain = nv.place_batch((1, 1), (0, 1), snapshot, catalog, infra)
        numpy = nv.place_batch(tuple(np.array([1, 1])), tuple(np.array([0, 1])), snapshot, catalog, infra)
        assert [s.placement for s in numpy.services] == [s.placement for s in plain.services]
        assert numpy.valid and len(numpy.services) == 2

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "tiny2"])
    def test_zero_action_is_valid_and_places_nothing(self, setup, request):
        infra, catalog = request.getfixturevalue(setup)
        snapshot = full_snapshot(infra)
        tp = nv.TrellisPlacement((0,) * len(catalog), (), snapshot, catalog, infra)
        res = tp.run()
        assert (res.valid, res.services, res.path, tp.evaluations) == (True, [], (), 0)
        # the trellis is its origin stage alone: state 0 holding the snapshot
        assert len(tp.stages) == 1 and list(survivors(tp, 0)) == [0]
        origin = survivors(tp, 0)[0]
        assert (origin.cost, origin.reliability, origin.path) == (0.0, 1.0, ())
        assert np.array_equal(origin.remaining, snapshot)

    def test_negative_action_rejected(self, tiny2):
        infra, catalog = tiny2
        with pytest.raises(ValueError):
            nv.TrellisPlacement((-1,), (), full_snapshot(infra), catalog, infra)

    def test_snapshot_shape_checked(self, tiny2):
        infra, catalog = tiny2
        with pytest.raises(ValueError):
            nv.TrellisPlacement((1,), (0,), np.zeros((1, 1)), catalog, infra)

    @pytest.mark.parametrize("entries", ["one", "all"])
    def test_nan_snapshot_rejected(self, bundled, entries):
        infra, catalog = bundled
        snap = infra.capacity.astype(float)
        if entries == "one":
            snap[0, 0] = np.nan
        else:
            snap[:] = np.nan
        with pytest.raises(ValueError, match="within"):
            nv.TrellisPlacement((1, 0, 0, 0), (0,), snap, catalog, infra)

    @pytest.mark.parametrize("dtype", [bool, complex, object, "m8[s]", str])
    def test_snapshot_of_another_dtype_rejected(self, reduced, dtype):
        # a bool snapshot would read as 0/1 units, a str one fail inside numpy
        infra, catalog = reduced
        snap = full_snapshot(infra).astype(dtype)
        for place in (nv.TrellisPlacement, nv.place_batch):
            with pytest.raises(ValueError, match="^snapshot must hold integers or floats$"):
                place((1, 0), (0,), snap, catalog, infra)

    @pytest.mark.parametrize("dtype", ["int8", "uint8", "int16", "float32", "float64"])
    def test_integer_and_float_snapshots_accepted(self, reduced, dtype):
        infra, catalog = reduced
        context = nv.PlacementContext(catalog, infra)
        for action, arrangement, snapshot in random_batches(infra, catalog, seed=5, cases=20):
            snapshot = snapshot.astype(np.int64)
            wide = nv.TrellisPlacement(action, arrangement, snapshot, catalog, infra, context)
            narrow = nv.TrellisPlacement(
                action, arrangement, snapshot.astype(dtype), catalog, infra, context
            )
            assert outcome_record(narrow, narrow.run()) == outcome_record(wide, wide.run())


class TestUncheckedEntry:
    @pytest.mark.parametrize("setup", ["reduced", "bundled", "two_resource"])
    def test_same_outcomes_as_the_checked_entry(self, setup, request):
        # the solver's inputs: tuples of Python ints, and an integer or
        # float snapshot within [0, capacity]
        infra, catalog = request.getfixturevalue(setup)
        context = nv.PlacementContext(catalog, infra)
        valid = set()
        for batch in random_batches(infra, catalog, seed=23):
            checked = nv.TrellisPlacement(*batch, catalog, infra, context)
            unchecked = nv.TrellisPlacement(*batch, catalog, infra, context, _checked=False)
            record = outcome_record(checked, checked.run())
            assert outcome_record(unchecked, unchecked.run()) == record
            valid.add(record[0])
        assert valid == {True, False}


class TestSelfConsistency:
    def test_reported_figures_match_model(self, request, rng):
        for setup in ("bundled", "reduced", "two_resource"):
            infra, catalog = request.getfixturevalue(setup)
            checked = 0
            for _ in range(25):
                action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog)
                res = nv.place_batch(action, arrangement, snapshot, catalog, infra)
                if not res.valid:
                    continue
                for svc in res.services:
                    # the read-out sums in service_cost's accumulators and order
                    assert svc.cost.hex() == nv.service_cost(svc.placement, infra, catalog).total.hex()
                    # the need tables alone keep a backup off its main's
                    # server, the case service_failure_probability refuses
                    assert all(vp.backup != vp.main for vp in svc.placement.vnfs)
                    # the read-out multiplies the same factors in the same order
                    e = nv.service_failure_probability(svc.placement.vnfs, infra)
                    assert svc.failure_prob == e
                    usage = nv.service_usage(svc.placement, infra, catalog)
                    assert np.array_equal(svc.usage, usage)
                    checked += 1
            assert checked > 0, setup

    def test_reported_figures_are_python_floats(self, bundled, rng):
        # the charge rows are numpy arrays; the read-out's sums must not be
        infra, catalog = bundled
        placed = 0
        for _ in range(10):
            batch = random_batch_inputs(rng, infra, catalog)
            for svc in nv.place_batch(*batch, catalog, infra).services:
                assert type(svc.cost) is float and type(svc.failure_prob) is float
                placed += 1
        assert placed > 0

    def test_batch_respects_snapshot(self, bundled, rng):
        infra, catalog = bundled
        for _ in range(25):
            action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog)
            res = nv.place_batch(action, arrangement, snapshot, catalog, infra)
            if not res.valid:
                continue
            total = sum((s.usage for s in res.services), start=np.zeros_like(snapshot))
            assert np.all(total <= snapshot)


class TestStageKernel:
    """``run``'s stage kernel against the pair-by-pair reference search
    (``helpers.search_pairs``): survivors, the winner's path, validity and
    scored pairs, bit for bit. Services are read out of the winner's path
    alone, and ``TestReferenceOutcomes`` pins them."""

    @staticmethod
    def _survivors(stages):
        return [
            [(x, st.cost, st.reliability, st.remaining.dtype.str, st.remaining.tobytes(), st.path)
             for x, st in stage.items()]
            for stage in stages
        ]

    @staticmethod
    def _kernel_stages(tp):
        return [survivors(tp, m) for m in range(len(tp.stages))]

    @pytest.mark.parametrize("setup, dtype", [
        pytest.param(setup, dtype, id=setup if dtype is None else f"{setup}-{dtype}")
        for dtype in (None, "int32", "float32")
        for setup in ("bundled", "reduced", "tiny2", "two_resource")
    ])
    def test_bit_equal_to_pair_loop(self, setup, dtype, request):
        # dtype: every snapshot cast to it; the stage kernel's stock keeps
        # the snapshot's dtype, and its int64 demand rows serve every dtype
        infra, catalog = request.getfixturevalue(setup)
        rng = np.random.default_rng(7)
        outcomes = set()
        invalid_scored = 0
        for i in range(40):
            # up to three services per type, so some batches do not fit
            action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog, max_per_type=3)
            if i % 2:
                snapshot = infra.capacity * rng.uniform(size=infra.capacity.shape)
            if dtype is not None:
                snapshot = snapshot.astype(dtype)
            tp = nv.TrellisPlacement(action, arrangement, snapshot, catalog, infra)
            result = tp.run()
            valid, stages, path, evaluations = search_pairs(tp, snapshot)
            assert (result.valid, result.path, tp.evaluations) == (valid, path, evaluations)
            assert self._survivors(self._kernel_stages(tp)) == self._survivors(stages)
            outcomes.add(valid)
            if not valid:
                invalid_scored = max(invalid_scored, evaluations)
        assert outcomes == {True, False}
        # some invalid batch failed past stage 1, so a nonzero count was compared
        assert invalid_scored > 0

    @pytest.mark.parametrize("setup", ["reduced", "two_resource"])
    @pytest.mark.parametrize("dtype", ["uint8", "int64", "float32", "float64"])
    def test_first_stage_in_closed_form(self, setup, dtype, request):
        # the origin is stage 1's only live predecessor: every state picks
        # it, takes the context's reliability row and holds its stock in the
        # snapshot's signed dtype; every stage still equals the pair loop
        infra, catalog = request.getfixturevalue(setup)
        context = nv.PlacementContext(catalog, infra)
        rng = np.random.default_rng(9)
        first_stages = 0
        for _ in range(20):
            action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog, max_per_type=3)
            if dtype.startswith("float"):
                snapshot = infra.capacity * rng.uniform(size=infra.capacity.shape)
            snapshot = snapshot.astype(dtype)
            tp = nv.TrellisPlacement(action, arrangement, snapshot, catalog, infra, context)
            result = tp.run()
            # the reference holds its stock in the snapshot's dtype
            signed = snapshot.astype(np.promote_types(dtype, np.int8))
            valid, stages, path, evaluations = search_pairs(tp, signed)
            assert (result.valid, result.path, tp.evaluations) == (valid, path, evaluations)
            assert self._survivors(self._kernel_stages(tp)) == self._survivors(stages)
            if len(tp.stages) > 1:
                _, reliability, stock, pick = tp.stages[1]
                assert stock.dtype == np.promote_types(dtype, np.int8)
                assert reliability is context.up and pick is context.first_pick
                assert not pick.any()
                first_stages += 1
        assert first_stages >= 10

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "two_resource"])
    def test_read_out_skips_the_first_pick(self, setup, request):
        # every stage-1 state comes from the origin, so the trace back
        # stops at stage 2: with nothing in stage 1's pick, every batch
        # still reads out the same path and services
        infra, catalog = request.getfixturevalue(setup)
        rng = np.random.default_rng(12)
        read = 0
        for _ in range(40):
            batch = random_batch_inputs(rng, infra, catalog, max_per_type=1)
            tp = nv.TrellisPlacement(*batch, catalog, infra)
            res = tp.run()
            if not res.valid:
                continue
            tp.stages[1] = (*tp.stages[1][:3], None)
            assert outcome_record(tp, tp._read_out(tp.stages)) == outcome_record(tp, res)
            read += 1
        assert read >= 10

    def test_run_leaves_stage_survivors(self, bundled, reduced, tiny2, two_resource):
        # one kernel at every width: no server count keeps the pair loop
        for infra, catalog in (bundled, reduced, tiny2, two_resource):
            rng = np.random.default_rng(1)
            width = infra.num_servers + 1
            outcomes = set()
            for _ in range(20):
                batch = random_batch_inputs(rng, infra, catalog, max_per_type=3)
                tp = nv.TrellisPlacement(*batch, catalog, infra)
                outcomes.add(tp.run().valid)
                # the origin, then one record per stage searched: (cost,
                # reliability, stock, pick), one slot per state in each
                assert 1 <= len(tp.stages) <= tp.num_stages + 1
                for cost, reliability, stock, pick in tp.stages[1:]:
                    assert len(cost) == len(reliability) == len(stock) == len(pick) == width
                    assert stock.shape[1] == width
                cost, reliability, stock, _ = tp.stages[0]
                assert len(cost) == len(reliability) == len(stock) == width
            assert outcomes == {True, False}

    @pytest.mark.parametrize("setup", ["bundled", "two_resource"])
    def test_traced_paths_hold_no_dead_state(self, setup, request):
        # a state at cost inf is dead: no live state's back-pointers reach it
        infra, catalog = request.getfixturevalue(setup)
        rng = np.random.default_rng(2)
        dead_seen = 0
        for _ in range(20):
            tp = nv.TrellisPlacement(*random_batch_inputs(rng, infra, catalog), catalog, infra)
            tp.run()
            for m in range(1, len(tp.stages)):
                cost = tp.stages[m][0]
                dead_seen += np.count_nonzero(cost == np.inf)
                for x in np.flatnonzero(cost < np.inf).tolist():
                    path = survivors(tp, m)[x].path
                    for k, state in enumerate(path, start=1):
                        assert tp.stages[k][0][state] < np.inf
        assert dead_seen > 0

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "two_resource"])
    def test_main_stages_leave_state_zero_dead(self, setup, request):
        # so a backup stage's dead column, which picks row 0, is at cost
        # inf without a mask of its own
        infra, catalog = request.getfixturevalue(setup)
        rng = np.random.default_rng(4)
        mains = 0
        for _ in range(20):
            batch = random_batch_inputs(rng, infra, catalog, max_per_type=3)
            tp = nv.TrellisPlacement(*batch, catalog, infra)
            tp.run()
            for (cost, *_), (_, _, backup) in zip(tp.stages[1:], stage_info(tp)):
                if not backup:
                    assert cost[0] == np.inf
                    mains += 1
        assert mains > 50

    def test_middle_stage_lookup_after_run(self, bundled):
        # run() leaves only back-pointers behind; survivors looked up at a
        # middle stage afterwards must trace back to the pair loop's paths
        infra, catalog = bundled
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(10):
            batch = random_batch_inputs(rng, infra, catalog)
            kernel = nv.TrellisPlacement(*batch, catalog, infra)
            if not kernel.run().valid or kernel.num_stages < 4:
                continue
            _, pairs, _, _ = search_pairs(kernel, batch[2])
            m = kernel.num_stages // 2
            stage = survivors(kernel, m)
            assert list(stage) == list(pairs[m])
            for x, st in pairs[m].items():
                looked_up = stage[x]
                assert len(looked_up.path) == m
                assert looked_up.path == st.path
                assert (looked_up.cost, looked_up.reliability) == (st.cost, st.reliability)
                assert np.array_equal(looked_up.remaining, st.remaining)
            checked += 1
        assert checked >= 5

    def test_survivor_lookup(self, bundled):
        infra, catalog = bundled
        tp = nv.TrellisPlacement((1, 0, 0, 0), (0,), full_snapshot(infra), catalog, infra)
        tp.run()
        stage = survivors(tp, 2)
        assert list(stage) == list(range(infra.num_servers + 1))
        assert stage[3].path[1] == 3 and len(stage[3].path) == 2
        with pytest.raises(KeyError):
            survivors(tp, 1)[0]  # main stages have no "no server" state


class TestReferenceOutcomes:
    """Every trellis outcome, bit for bit, against digests recorded before
    the per-setup context and the path-only read-out. The bundled, reduced
    and two_resource digests were recorded again when the read-out and the
    stage charges came to be shared with the baselines: costs are summed in
    ``service_cost``'s order, and with two resources a charge is formed as
    ``d @ unit_cost[inp]``, which moves some tie-breaks."""

    DIGESTS = {
        "bundled": "56cd472839d56981ca43ed070f056582efe4b5299283e3a4c0f9c6096c714e6d",
        "reduced": "d9afe311846e35fc8e9af7a46458e68d68e495b4d003fce9d8358dc083923a7b",
        "tiny2": "7543fd81266f60ce3dd9ddda0093cda64ca705a05edaaa5e5b90606f4623300a",
        # the only setup here whose demand rows span two resources
        "two_resource": "7e1264ceeb8bdf13eaa5d3c603af5483845177780f20e9d9a504845ea569f959",
    }

    @pytest.mark.parametrize("setup", list(DIGESTS))
    def test_digest(self, setup, request):
        infra, catalog = request.getfixturevalue(setup)
        h = hashlib.sha256()
        valid = set()
        for batch in random_batches(infra, catalog, seed=11):
            tp = nv.TrellisPlacement(*batch, catalog, infra)
            record = outcome_record(tp, tp.run())
            h.update(repr(record).encode())
            valid.add(record[0])
        assert valid == {True, False}
        assert h.hexdigest() == self.DIGESTS[setup]


class TestPlacementContext:
    @pytest.mark.parametrize("setup", ["bundled", "reduced", "tiny2"])
    def test_shared_context_matches_own(self, setup, request):
        infra, catalog = request.getfixturevalue(setup)
        # one context serves integer and float snapshots of either width alike
        context = nv.PlacementContext(catalog, infra)
        for action, arrangement, snapshot in random_batches(infra, catalog, seed=5, cases=20):
            for dtype in (np.int64, np.int32, np.float32, np.float64):
                batch = (action, arrangement, snapshot.astype(dtype))
                own = nv.TrellisPlacement(*batch, catalog, infra)
                shared = nv.TrellisPlacement(*batch, catalog, infra, context)
                assert outcome_record(shared, shared.run()) == outcome_record(own, own.run())

    @pytest.mark.parametrize("dtype", ["uint8", "uint32", "uint64"])
    def test_unsigned_snapshot_matches_int64(self, reduced, dtype):
        # the stock of an unsigned snapshot is held signed, so the int64
        # demand rows subtract from it; outcomes equal the int64 snapshot's
        infra, catalog = reduced
        context = nv.PlacementContext(catalog, infra)
        for action, arrangement, snapshot in random_batches(infra, catalog, seed=5, cases=20):
            snapshot = snapshot.astype(np.int64)
            signed = nv.TrellisPlacement(action, arrangement, snapshot, catalog, infra, context)
            unsigned = nv.TrellisPlacement(
                action, arrangement, snapshot.astype(dtype), catalog, infra, context
            )
            assert outcome_record(unsigned, unsigned.run()) == outcome_record(signed, signed.run())

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "two_resource"])
    def test_no_table_above_one_stage_of_stock(self, setup, request):
        # every setup table fits in one stage's (S + 1, S + 1, R) stock: a
        # per-setup table of O(S^3) entries would be held once per context
        infra, catalog = request.getfixturevalue(setup)
        bound = (infra.num_servers + 1) ** 2 * infra.num_resources
        context = nv.PlacementContext(catalog, infra)
        seen = reachable(context)
        # the walk reached into the nested per-type tables
        assert all(id(stage[4]) in seen for tables in context.stage_tables for stage in tables)
        assert max(a.size for a in seen.values() if isinstance(a, np.ndarray)) <= bound

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "two_resource"])
    def test_every_table_read_only(self, setup, request):
        # stage-1 records hold the context's reliability row and
        # back-pointers, shared by every batch, so no batch may write to any
        # array the context reaches
        infra, catalog = request.getfixturevalue(setup)
        context = nv.PlacementContext(catalog, infra)
        arrays = [a for a in reachable(context).values() if isinstance(a, np.ndarray)]
        # the walk reached the per-stage tables and every view's base
        need = context.stage_tables[0][0][2]
        assert need.base is not None and any(a is need.base for a in arrays)
        assert [a for a in arrays if a.flags.writeable] == []
        tp = nv.TrellisPlacement((1,) + (0,) * (len(catalog) - 1), (0,), full_snapshot(infra),
                                 catalog, infra, context)
        tp.run()
        _, reliability, _, pick = tp.stages[1]
        for shared in (reliability, pick):
            with pytest.raises(ValueError, match="read-only"):
                shared[1] = 0

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "tiny2", "two_resource"])
    def test_folded_needs_exceed_every_stock(self, setup, request):
        # a backup stage's diagonal (its main's own server, and state 0 of
        # the main stage, which is dead) and a main stage's state-0 column
        # ask for more than any stock the kernel holds: a server's capacity,
        # or the pad of the state-0 row; every other entry is the demand
        infra, catalog = request.getfixturevalue(setup)
        context = nv.PlacementContext(catalog, infra)
        most = max(context.pad, int(infra.capacity.max()))
        width = infra.num_servers + 1
        states = np.arange(width)
        folded = np.zeros((width, width), dtype=bool)
        for stype, tables in zip(catalog, context.stage_tables):
            for u, backup, need, *_ in tables:
                need = need.reshape(width, width, infra.num_resources)
                folded[:] = False
                if backup:
                    folded[states, states] = True
                else:
                    folded[:, 0] = True
                assert need[folded].min() > most
                assert (need[~folded] == stype.vnfs[u].demands).all()

    def test_amounts_at_the_limit_place(self):
        # a need table asks one unit more than the largest amount, which
        # must still be an int64
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((MAX_AMOUNT,), (MAX_AMOUNT,)))], alpha=[1.0], beta=1.0, v_base=0.1,
            deployment_cost=[[0.0]],
        )
        for demand, servers in ((5, {0, 1}), (MAX_AMOUNT, {0, None})):
            # a backup takes the other server, never its main's; at the
            # largest demand its charge outweighs the reliability penalty
            svc = nv.ServiceType(
                0.05, 0.5, 1.0, (nv.VnfSpec(0, (demand,)),), (0.5, 0.5), 10.0, 2, name="t"
            )
            res = nv.place_batch((1,), (0,), full_snapshot(infra), (svc,), infra)
            vp = res.services[0].placement.vnfs[0]
            assert res.valid and {vp.main, vp.backup} == servers

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "two_resource"])
    def test_shared_vnf_placements(self, setup, request):
        # one frozen record per (main, backup) pair, held in the setup's
        # tables, and handed out itself by both placers
        infra, catalog = request.getfixturevalue(setup)
        context = nv.PlacementContext(catalog, infra)
        pairs = context.tables.vnf_placements
        n = infra.num_servers
        assert len(pairs) == n
        for main, records in enumerate(pairs):
            assert list(records) == [None] + [b for b in range(n) if b != main]
            for backup, record in records.items():
                assert record == nv.VnfPlacement(main, backup)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    record.main = 0
        shared = {id(r) for records in pairs for r in records.values()}
        rng = np.random.default_rng(3)
        placed = collections.Counter()
        for _ in range(20):
            action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog)
            services = nv.place_batch(action, arrangement, snapshot, catalog, infra, context).services
            ledger = nv.ResourceLedger(infra.capacity, snapshot)
            for baseline in ("min_resource", "cera"):
                outcomes = nv.run_baseline(baseline, arrangement, ledger, infra, catalog,
                                           tables=context.tables)
                services += [o for o in outcomes if o.placed]
            for svc in services:
                assert all(id(vp) in shared for vp in svc.placement.vnfs)
                placed[type(svc).__name__] += 1
        assert min(placed.values()) > 0 and len(placed) == 2, placed

    def test_bundled_context_stays_small(self, bundled):
        # one context lives per Simulation; the same-shape stage tables are
        # shared between stages, which held 104 KiB before them
        infra, catalog = bundled
        assert context_bytes(nv.PlacementContext(catalog, infra)) <= 256 * 1024

    def test_context_of_another_setup_rejected(self, reduced):
        infra, catalog = reduced
        other_infra, other_catalog = reduced_setup()
        batch = ((1, 0), (0,), full_snapshot(infra))
        # equal content is not enough: the context must come from these objects
        for context in (
            nv.PlacementContext(catalog, other_infra),
            nv.PlacementContext(other_catalog, infra),
        ):
            with pytest.raises(ValueError, match="context"):
                nv.TrellisPlacement(*batch, catalog, infra, context)
            with pytest.raises(ValueError, match="context"):
                nv.place_batch(*batch, catalog, infra, context)
