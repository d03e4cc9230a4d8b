"""Layered-graph batch placement: staging, scoring, search, read-out."""

import hashlib

import numpy as np
import pytest

import nfvplace as nv
from nfvplace.trellis import WHOLE_STAGE_MIN_SERVERS, StageSurvivors, stage_count, stage_states

from helpers import random_batch_inputs, reduced_setup


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
        _, catalog = tiny2
        assert stage_count((), catalog) == 0

    def test_stage_count_two_services(self):
        t3 = nv.ServiceType(0.05, 0.5, 1.0, tuple(nv.VnfSpec(0, (1,)) for _ in range(3)),
                            (0.5, 0.5), 10.0, 2, name="u3")
        t5 = nv.ServiceType(0.05, 0.5, 1.0, tuple(nv.VnfSpec(0, (1,)) for _ in range(5)),
                            (0.5, 0.5), 10.0, 2, name="u5")
        assert stage_count((0, 1), (t3, t5)) == 16
        t4 = nv.ServiceType(0.05, 0.5, 1.0, tuple(nv.VnfSpec(0, (1,)) for _ in range(4)),
                            (0.5, 0.5), 10.0, 2, name="u4")
        assert stage_count((0,), (t4,)) == 8

    def test_stage_states_parity(self, bundled):
        infra, _ = bundled
        odd = stage_states(1, infra)
        even = stage_states(2, infra)
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
        assert trellis.transition_reliability(1, 0, 1) == pytest.approx(0.9)
        # even stage: skipping the backup keeps the prior chain reliability
        assert trellis.transition_reliability(2, 1, 0) == pytest.approx(0.9)
        # even stage: v=0.2 main protected by the v=0.1 backup
        assert trellis.transition_reliability(2, 2, 1) == pytest.approx(0.98)

    def test_shortfall_hinge(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        trellis.run()
        # assigned-server target is 1 - cap = 0.95; at 0.90 the hinge is
        # penalty * 0.05 = 5e4
        assert trellis.reliability_penalty(1, 0, 1) == pytest.approx(5.0e4, rel=1e-9)
        # skipping a backup is held to a target of 1.0
        assert trellis.reliability_penalty(2, 1, 0) == pytest.approx(1.0e5, rel=1e-9)
        assert trellis.reliability_penalty(2, 2, 1) == 0.0

    def test_transition_cost_accumulates(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        trellis.run()
        # v=0.1 main: 5 units at cost 2 plus hinge 5e4; v=0.2 main: 5 units
        # at cost 1 plus hinge 1.5e5 -- the hinge dominates the saved units
        assert trellis.transition_cost(1, 0, 1) == pytest.approx(50010.0, rel=1e-9)
        assert trellis.transition_cost(1, 0, 2) == pytest.approx(150005.0, rel=1e-9)
        assert trellis.transition_cost(1, 0, 1) < trellis.transition_cost(1, 0, 2)

    def test_evaluation_counter(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        assert trellis.evaluations == 0
        trellis.run()
        assert trellis.evaluations > 0
        # main stage: one predecessor for each of the two servers; backup
        # stage: both mains for "no backup", the other main for each server
        assert trellis.evaluations == 2 + (2 + 1 + 1)
        # replaying a move scores it again without counting it
        trellis.transition_cost(2, 2, 1)
        trellis.transition_reliability(2, 2, 1)
        trellis.reliability_penalty(2, 2, 1)
        assert trellis.evaluations == 6


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
        prev = trellis.stages[m - 1][x1]
        term = 1.0
        return (trellis.transition_cost(m, x1, x2) - trellis.reliability_penalty(m, x1, x2)
                - prev.cost - term)

    def test_main_stage_links_to_previous_main_and_backup(self):
        trellis = self._trellis()
        # VNF 0 main on server 1, backup on server 2; VNF 1 main on server 3
        assert trellis.stages[2][2].path == (1, 2)
        assert self._route(trellis, 3, 2, 3) == pytest.approx(2.0 * (3.0 + 5.0), rel=1e-12)

    def test_backup_stage_links_to_previous_main_and_backup(self):
        trellis = self._trellis()
        # VNF 0 main on server 1, backup on server 3; VNF 1 main on server 3
        # and its backup on server 2, linked to servers 3 and 1
        assert trellis.stages[3][3].path == (1, 3, 3)
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
        infra, catalog = tiny2
        res = nv.place_batch((1,), (0,), np.zeros_like(full_snapshot(infra)), catalog, infra)
        assert not res.valid
        assert res.services == []

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

    def test_replay_requires_run(self, tiny2):
        infra, catalog = tiny2
        trellis = nv.TrellisPlacement((1,), (0,), full_snapshot(infra), catalog, infra)
        with pytest.raises(RuntimeError):
            trellis.transition_reliability(1, 0, 1)


class TestSelfConsistency:
    def test_reported_figures_match_model(self, bundled, rng):
        infra, catalog = bundled
        checked = 0
        for _ in range(25):
            action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog)
            res = nv.place_batch(action, arrangement, snapshot, catalog, infra)
            if not res.valid:
                continue
            for svc in res.services:
                bd = nv.service_cost(svc.placement, infra, catalog)
                assert svc.cost == pytest.approx(bd.total, abs=1e-9)
                e = nv.service_failure_probability(svc.placement.vnfs, infra)
                assert svc.failure_prob == pytest.approx(e, abs=1e-12)
                usage = nv.service_usage(svc.placement, infra, catalog)
                assert np.array_equal(svc.usage, usage)
                checked += 1
        assert checked > 0

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
    """The whole-stage kernel against the pair loop it replaces on wide
    infrastructures: both are called directly, so narrow setups that
    ``run`` keeps on the pair loop are compared too."""

    @staticmethod
    def _search(kernel, batch, catalog, infra):
        """Everything one search leaves behind, as comparable values."""
        tp = nv.TrellisPlacement(*batch, catalog, infra)
        valid = getattr(tp, kernel)()
        result = tp._read_out(tp.stages) if valid and tp.num_stages else None
        services = result and [
            (s.type_index, s.placement, s.cost, s.failure_prob, s.usage.dtype.str, s.usage.tobytes())
            for s in result.services
        ]
        survivors = [
            [(x, st.cost, st.reliability, st.remaining.dtype.str, st.remaining.tobytes(), st.path)
             for x, st in stage.items()]
            for stage in tp.stages
        ]
        return valid, result and result.path, services, survivors, tp.evaluations

    @pytest.mark.parametrize("setup, dtype", [
        pytest.param(setup, dtype, id=setup if dtype is None else f"{setup}-{dtype}")
        for dtype in (None, "int32", "float32")
        for setup in ("bundled", "reduced", "tiny2", "two_resource")
    ])
    def test_bit_equal_to_pair_loop(self, setup, dtype, request):
        # dtype: every snapshot cast to it, since the stage kernel's stock
        # padding and demand rows follow the snapshot's dtype
        infra, catalog = request.getfixturevalue(setup)
        rng = np.random.default_rng(7)
        outcomes = set()
        for i in range(40):
            # up to three services per type, so some batches do not fit
            batch = random_batch_inputs(rng, infra, catalog, max_per_type=3)
            if i % 2:
                action, arrangement, _ = batch
                batch = (action, arrangement, infra.capacity * rng.uniform(size=infra.capacity.shape))
            if dtype is not None:
                action, arrangement, snapshot = batch
                batch = (action, arrangement, snapshot.astype(dtype))
            pairs = self._search("_search_pairs", batch, catalog, infra)
            assert self._search("_search_stages", batch, catalog, infra) == pairs
            outcomes.add(pairs[0])
        assert outcomes == {True, False}

    def test_run_picks_kernel_by_server_count(self, bundled, reduced):
        for infra, catalog in (bundled, reduced):
            action, arrangement, snapshot = random_batch_inputs(
                np.random.default_rng(1), infra, catalog
            )
            tp = nv.TrellisPlacement(action, arrangement, snapshot, catalog, infra)
            tp.run()
            wide = infra.num_servers >= WHOLE_STAGE_MIN_SERVERS
            assert isinstance(tp.stages[-1], StageSurvivors) == wide
        assert reduced[0].num_servers < WHOLE_STAGE_MIN_SERVERS <= bundled[0].num_servers

    def test_middle_stage_lookup_after_run(self, bundled):
        # run() leaves only back-pointers behind; survivors looked up at a
        # middle stage afterwards must trace back to the pair loop's paths
        infra, catalog = bundled
        rng = np.random.default_rng(3)
        checked = 0
        for _ in range(10):
            batch = random_batch_inputs(rng, infra, catalog)
            kernel = nv.TrellisPlacement(*batch, catalog, infra)
            pairs = nv.TrellisPlacement(*batch, catalog, infra)
            if not kernel.run().valid or kernel.num_stages < 4:
                continue
            pairs._search_pairs()
            m = kernel.num_stages // 2
            assert isinstance(kernel.stages[m], StageSurvivors)
            assert list(kernel.stages[m]) == list(pairs.stages[m])
            for x, st in pairs.stages[m].items():
                looked_up = kernel.stages[m][x]
                assert len(looked_up.path) == m
                assert looked_up.path == st.path
                assert (looked_up.cost, looked_up.reliability) == (st.cost, st.reliability)
                assert np.array_equal(looked_up.remaining, st.remaining)
            checked += 1
        assert checked >= 5

    def test_survivor_lookup(self, bundled):
        infra, catalog = bundled
        tp = nv.TrellisPlacement((1, 0, 0, 0), (0,), full_snapshot(infra), catalog, infra)
        tp._search_stages()
        stage = tp.stages[2]
        assert list(stage) == list(range(infra.num_servers + 1))
        assert stage[3].path[1] == 3 and len(stage[3].path) == 2
        with pytest.raises(KeyError):
            tp.stages[1][0]  # main stages have no "no server" state
        with pytest.raises(ValueError):
            stage[3].remaining[0] = 0  # lookups share the stage's stock


class TestReferenceOutcomes:
    """Every trellis outcome, bit for bit, against digests recorded before
    the per-setup context and the path-only read-out."""

    DIGESTS = {
        "bundled": "7461ecbd46f1535134467d52f6bdafc90dcbc16dede01e3bdd69f9daa0bdb22b",
        "reduced": "75e5c9ee7584639638db264d6ea66949993005a983c2a6419ad769289658e68c",
        "tiny2": "7543fd81266f60ce3dd9ddda0093cda64ca705a05edaaa5e5b90606f4623300a",
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
        # one context serves integer and float snapshots alike
        context = nv.PlacementContext(catalog, infra)
        for batch in random_batches(infra, catalog, seed=5, cases=20):
            own = nv.TrellisPlacement(*batch, catalog, infra)
            shared = nv.TrellisPlacement(*batch, catalog, infra, context)
            assert outcome_record(shared, shared.run()) == outcome_record(own, own.run())

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
