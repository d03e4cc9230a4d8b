"""Slotted arrivals/departures loop and its metric accounting."""

from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nfvplace as nv


def always_two_type(demand=5, d=1.0, cap=0.5):
    """A type that arrives exactly twice per slot and departs immediately."""
    return nv.ServiceType(
        failure_cap=cap,
        departure_prob=d,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (demand,)),),
        arrival_pmf=(0.0, 0.0, 1.0),
        admission_reward=10.0,
        sigma_max=5,
        name="pair",
    )


class TestSampling:
    def test_arrivals_respect_support(self, reduced, rng):
        _, catalog = reduced
        for _ in range(200):
            lam = nv.sample_arrivals(rng, catalog)
            assert all(0 <= a < len(t.arrival_pmf) for a, t in zip(lam, catalog))

    def test_arrivals_deterministic_under_seed(self, reduced):
        _, catalog = reduced
        a = [nv.sample_arrivals(np.random.default_rng(9), catalog) for _ in range(5)]
        b = [nv.sample_arrivals(np.random.default_rng(9), catalog) for _ in range(5)]
        assert a == b

    @pytest.mark.parametrize("setup", ["bundled", "reduced", "zero_entries"])
    def test_arrivals_match_generator_choice(self, setup, request):
        # the inverse-cdf sampler is Generator.choice's own algorithm: the
        # same counts and the same stream position, slot after slot
        if setup == "zero_entries":
            catalog = tuple(
                nv.ServiceType(0.5, 0.5, 1.0, (nv.VnfSpec(0, (1,)),), pmf, 1.0, 2, name=f"z{i}")
                for i, pmf in enumerate([
                    (0.0, 0.5, 0.0, 0.5), (0.2, 0.0, 0.8, 0.0), (0.0, 0.0, 1.0), (1.0, 0.0),
                ])
            )
        else:
            _, catalog = request.getfixturevalue(setup)
        for seed in range(50):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            for _ in range(100):
                expected = tuple(
                    int(reference.choice(len(t.arrival_pmf), p=t.arrival_pmf)) for t in catalog
                )
                assert nv.sample_arrivals(ours, catalog) == expected
            assert ours.random() == reference.random()

    def test_departures_certain_and_impossible(self):
        sure = (nv.ServiceType(0.5, 1.0, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 1.0, 2, name="a"),)
        never = (nv.ServiceType(0.5, 1e-12, 1.0, (nv.VnfSpec(0, (1,)),), (0.5, 0.5), 1.0, 2, name="b"),)
        actives = [SimpleNamespace(type_index=0) for _ in range(4)]
        rng = np.random.default_rng(0)
        assert nv.sample_departures(rng, actives, sure) == [0, 1, 2, 3]
        assert nv.sample_departures(rng, actives, never) == []
        assert nv.sample_departures(rng, [], sure) == []


class TestBatchSemantics:
    def test_trellis_rejects_whole_slot_when_batch_infeasible(self):
        # capacity for one service, two arrive every slot: the joint batch
        # never fits, so the batch strategy admits nothing at all
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((5,),))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        catalog = (always_two_type(),)
        report = nv.run_experiment(infra, catalog, "trellis", 50, 1)
        assert report.admission_ratio == 0.0

    def test_heuristics_admit_per_service(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((5,),))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        catalog = (always_two_type(),)
        report = nv.run_experiment(infra, catalog, "min_resource", 50, 1)
        # one of the two arrivals fits each slot; certain departure frees it
        assert report.admission_ratio == pytest.approx(0.5)

    def test_reliability_filter_blocks_unreachable_targets(self):
        infra = nv.Infrastructure(
            [nv.InP(0.3, ((50,), (50,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.3,
            deployment_cost=[[0.0]],
        )
        catalog = (always_two_type(cap=0.01),)
        for strategy in ("trellis", "min_resource", "cera"):
            report = nv.run_experiment(infra, catalog, strategy, 30, 1)
            assert report.admission_ratio == 0.0
        # a lone server cannot be backed up, so every placed service fails
        # with exactly 1 - (1 - 0.1): a cap at that value admits it, and the
        # next float below (the service at nextafter(cap, 1)) does not
        lone = nv.Infrastructure(
            [nv.InP(0.1, ((100,),))], alpha=[1.0], beta=1.0, v_base=0.1, deployment_cost=[[0.0]]
        )
        exact = 1.0 - (1.0 - 0.1)
        for cap, admitted in ((exact, 2), (float(np.nextafter(exact, 0)), 0)):
            for strategy in ("trellis", "min_resource", "min_reliability", "cera", "redundant_vnf"):
                sim = nv.Simulation(lone, (always_two_type(cap=cap),), strategy, seed=1)
                assert sim.run_slot()["admissions"] == (admitted,)

    def test_static_strategies_ignore_active_count_register(self):
        # sigma_max=1 would cap a policy run at one concurrent service, but
        # static placement has no such register and keeps admitting
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((100,),))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.5, 0.01, 1.0, (nv.VnfSpec(0, (1,)),), (0.0, 1.0), 10.0, 1, name="s")
        report = nv.run_experiment(infra, (svc,), "trellis", 20, 3)
        assert int(report.admissions.sum()) > 5


class TestDeterminism:
    def test_same_seed_same_report(self, reduced):
        infra, catalog = reduced
        a = nv.run_experiment(infra, catalog, "trellis", 300, 17)
        b = nv.run_experiment(infra, catalog, "trellis", 300, 17)
        assert a.summary() == b.summary()
        assert np.array_equal(a.arrivals, b.arrivals)
        assert np.array_equal(a.placement_cost, b.placement_cost)

    def test_different_seeds_differ(self, reduced):
        infra, catalog = reduced
        a = nv.run_experiment(infra, catalog, "trellis", 300, 17)
        b = nv.run_experiment(infra, catalog, "trellis", 300, 18)
        assert not np.array_equal(a.arrivals, b.arrivals)


class TestConservationAndErrors:
    def test_long_run_keeps_books_balanced(self, reduced):
        # run_slot raises if idle + held capacity ever drifts from total
        infra, catalog = reduced
        for strategy in ("trellis", "min_resource", "redundant_vnf"):
            report = nv.run_experiment(infra, catalog, strategy, 200, 5)
            assert report.slots == 200

    def test_mdp_strategy_requires_policy(self, reduced):
        infra, catalog = reduced
        with pytest.raises((nv.SimulationError, ValueError)):
            nv.Simulation(infra, catalog, "mdp", policy=None, seed=0)

    def test_unknown_strategy_rejected(self, reduced):
        infra, catalog = reduced
        with pytest.raises((nv.SimulationError, ValueError)):
            nv.Simulation(infra, catalog, "oracle", seed=0)


class TestPolicyDriven:
    def test_policy_run_respects_active_register(self, reduced):
        infra, catalog = reduced
        space = nv.build_state_space(catalog)
        model = nv.TransitionModel(space, catalog)
        policy = nv.value_iteration(space, model, catalog, infra, seed=42)
        sim = nv.Simulation(infra, catalog, "mdp", policy=policy, seed=2)
        for _ in range(200):
            sim.run_slot()
            counts = [0] * len(catalog)
            for svc in sim.actives:
                counts[svc.type_index] += 1
            assert all(c <= m for c, m in zip(counts, space.sigma_max))


class TestMetricsReport:
    def _report(self):
        arrivals = np.array([[2, 1], [1, 0], [0, 2]])
        admissions = np.array([[1, 1], [1, 0], [0, 1]])
        cost = np.array([30.0, 10.0, 20.0])
        backups = np.array([2, 1, 1])
        vnfs = np.array([4, 1, 3])
        return nv.MetricsReport(2, (1, 3), arrivals, admissions, cost, backups, vnfs)

    def test_admission_ratio(self):
        assert self._report().admission_ratio == pytest.approx(4 / 6)

    def test_mean_placement_cost(self):
        assert self._report().mean_placement_cost == pytest.approx(60.0 / 4)

    def test_backups_per_vnf(self):
        assert self._report().backups_per_vnf == pytest.approx(4 / 8)

    def test_mean_admitted_chain_length(self):
        # two 1-VNF and two 3-VNF admissions
        assert self._report().mean_admitted_chain_length == pytest.approx(2.0)

    def test_by_length_grouping(self):
        by_len = self._report().admission_ratio_by_length()
        assert by_len[1] == pytest.approx(2 / 3)
        assert by_len[3] == pytest.approx(2 / 3)

    def test_cumulative_series_monotone_denominator(self, reduced):
        infra, catalog = reduced
        report = nv.run_experiment(infra, catalog, "min_resource", 100, 9)
        series = report.cumulative_ratio_series()
        assert len(series) == 100
        assert np.all((series >= 0) & (series <= 1))

    def test_csv_and_json_round_trip(self, reduced, tmp_path):
        import json

        infra, catalog = reduced
        report = nv.run_experiment(infra, catalog, "min_resource", 50, 9)
        csv_path = tmp_path / "run.csv"
        json_path = tmp_path / "run.json"
        report.to_csv(csv_path)
        report.to_json(json_path)
        lines = csv_path.read_text().strip().splitlines()
        assert len(lines) == 51
        payload = json.loads(json_path.read_text())
        assert payload["slots"] == 50
        assert payload["admission_ratio"] == pytest.approx(report.admission_ratio)


class TestBenchTracing:
    def test_tracer_counts_every_layer(self, reduced, monkeypatch):
        # bench/tracing.py patches sim.place_batch, sim.run_baseline and
        # baselines.service_failure_probability by name; a rename there would
        # leave these counters at zero
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "bench"))
        import tracing

        infra, catalog = reduced
        space = nv.build_state_space(catalog)
        tracer = tracing.Tracer()
        with tracer.installed():
            tracer.phase = "policy"
            policy = nv.value_iteration(space, nv.TransitionModel(space, catalog), catalog, infra, seed=42)
            tracer.phase = "sim"
            for strategy in nv.sim.STRATEGY_IDS:
                sim = nv.Simulation(infra, catalog, strategy, policy=policy, seed=3)
                for _ in range(10):
                    sim.run_slot()
        calls, counts = tracer.calls, tracer.counts
        for name in ("trellis.constructions", "policy.estimator_update"):
            assert counts[("policy", name)] > 0, name
        for name in ("sim.place_batch", "trellis.run", "sim.sample", "sim.ledger"):
            assert calls[("sim", name)] > 0, name
        for name in ("baselines.min_resource", "baselines.min_reliability",
                     "baselines.cera", "baselines.redundant_vnf"):
            assert calls[("sim", name)] > 0, name
        for name in ("trellis.evaluations", "trellis.placed", "baselines.requested",
                     "baselines.placed", "model.failure_prob"):
            assert counts[("sim", name)] > 0, name
        # the baselines' own failure probes read the per-setup tables, so the
        # patched function runs once per placed outcome, for its reported figure
        assert counts[("sim", "model.failure_prob")] == counts[("sim", "baselines.placed")]
        # every patched attribute is restored on exit
        assert nv.sim.place_batch is nv.place_batch
        assert nv.sim.run_baseline is nv.run_baseline
        assert nv.baselines.service_failure_probability is nv.service_failure_probability


class TestBaselineTables:
    def test_built_once_per_run(self, bundled, monkeypatch):
        infra, catalog = bundled
        built = []
        init = nv.BaselineTables.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nv.BaselineTables, "__init__", counting)
        report = nv.Simulation(infra, catalog, "cera", seed=2).run(50)
        assert int(report.arrivals.sum()) > 50
        assert len(built) == 1
        # strategies that never call a baseline build none
        nv.Simulation(infra, catalog, "trellis", seed=2).run_slot()
        assert len(built) == 1


class TestPlacementContextPerRun:
    def test_built_once_per_run(self, bundled, monkeypatch):
        infra, catalog = bundled
        built = []
        init = nv.PlacementContext.__init__

        def counting(self, *args, **kwargs):
            built.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(nv.PlacementContext, "__init__", counting)
        report = nv.Simulation(infra, catalog, "trellis", seed=2).run(50)
        assert int(report.admissions.sum()) > 0
        assert len(built) == 1
        # the baseline strategies never place through the trellis
        nv.Simulation(infra, catalog, "cera", seed=2).run(5)
        assert len(built) == 1
