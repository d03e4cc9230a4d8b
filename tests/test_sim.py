"""Slotted arrivals/departures loop and its metric accounting."""

import hashlib
import json
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import nfvplace as nv
from nfvplace.sim import SimParams


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

    def test_departures_ascending_as_numpy_compares(self, reduced):
        # Python floats compare as the generator's float64 draws do, and
        # run_slot releases the indices in reverse, relying on their order
        _, catalog = reduced
        for seed in range(50):
            ours, reference = np.random.default_rng(seed), np.random.default_rng(seed)
            actives = [SimpleNamespace(type_index=seed * k % len(catalog)) for k in range(seed % 9)]
            departing = nv.sample_departures(ours, actives, catalog)
            draws = reference.random(len(actives)) if actives else []
            assert departing == [
                i for i, svc in enumerate(actives)
                if draws[i] < catalog[svc.type_index].departure_prob
            ]
            assert departing == sorted(set(departing))
            assert ours.random() == reference.random()


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


class TestReferenceRuns:
    """Seed-1 simulator outputs, pinned by the SHA-256 of the sorted JSON of
    ``MetricsReport.summary()``, recorded while the six-server reduced setup
    was still searched one (predecessor, state) pair at a time."""

    @staticmethod
    def _digest(report):
        return hashlib.sha256(json.dumps(report.summary(), sort_keys=True).encode()).hexdigest()

    def test_reduced_policy_run(self, reduced):
        infra, catalog = reduced
        space = nv.build_state_space(catalog)
        policy = nv.value_iteration(space, nv.TransitionModel(space, catalog), catalog, infra, seed=1)
        report = nv.run_experiment(infra, catalog, "mdp", 2000, 1, policy=policy)
        assert self._digest(report) == (
            "82c98bcf2b486d227ecaf85a8e9d4358714ab3b9212f6c709d5385447db53b82"
        )

    def test_bundled_trellis_run(self, bundled):
        infra, catalog = bundled
        report = nv.run_experiment(infra, catalog, "trellis", 100, 1)
        assert self._digest(report) == (
            "0ea983f72fd3317259e55274a84118cc457fcacb682b2d28787646d0c70b2181"
        )

    # 250 bundled slots per heuristic, as one seven-heuristics benchmark
    # episode runs them, recorded while the backup choice still priced and
    # probed one server per call
    HEURISTIC_DIGESTS = {
        "min_resource": "7d06f7c54c748e3e0d145c90c8acd981dffccff2e8b8d2a87ef54bd22c302f67",
        "min_reliability": "83c66f371e2d188db912e9610caa2771c5d22e87b891a97b03e572072bd138d5",
        "cera": "2ba4f62ab1e3bfa27b219d32315496ea71d503d2deee99935efccd6b4291b607",
        "redundant_vnf": "20046ac032fa3e55ca4d00019e50cb85cfd17f6f44ac7ec0c31e38c9006cf964",
    }

    @pytest.mark.parametrize("strategy", list(HEURISTIC_DIGESTS))
    def test_bundled_heuristic_run(self, bundled, strategy):
        infra, catalog = bundled
        report = nv.run_experiment(infra, catalog, strategy, 250, 1)
        assert self._digest(report) == self.HEURISTIC_DIGESTS[strategy]


class TestSevenTrellisRuns:
    """The seven-trellis benchmark episode (1,000 bundled ``trellis`` slots)
    at seeds 1 and 7, pinned as :class:`TestReferenceRuns` pins its runs;
    recorded before the stage kernel's tables took the stage's own shape.
    Seed 1 is the run behind the benchmark's episode digest 17ad50fa57f3."""

    DIGESTS = {
        1: "bb8b3e03bb4465446e35240ac22766313dd72b0f623321806eba54304bc46751",
        7: "eddc6f8561fb119b6a7eabbe23e9ac1f55cad48a408150bdbfc7130fa8422e91",
    }

    @pytest.mark.parametrize("seed", list(DIGESTS))
    def test_bundled_trellis_episode(self, bundled, seed):
        infra, catalog = bundled
        report = nv.run_experiment(infra, catalog, "trellis", 1000, seed)
        assert TestReferenceRuns._digest(report) == self.DIGESTS[seed]


class TestSevenHeuristicsRuns:
    """:class:`TestReferenceRuns`' four 250-slot heuristic runs at seed 7,
    pinned the same way; recorded before CERA kept each open VNF's backup
    hosts and prices across its rounds."""

    DIGESTS = {
        "min_resource": "c6019ec13d104a4dc8ec4751f237e5541e1e942c80f73136d926b1f55908cd94",
        "min_reliability": "30ac52d896044db99f69aaeafb8e5127124294f0e39d4e371c17dc21f3507626",
        "cera": "b222083b37122d0ca87ca443cb7148d66ac19d4b8166e1412690d4570da7b213",
        "redundant_vnf": "c2ff2b1ccb4e3ea0c1ac2952dc274a9977ef297e7ef9b635d852daeee08772b1",
    }

    @pytest.mark.parametrize("strategy", list(DIGESTS))
    def test_bundled_heuristic_run(self, bundled, strategy):
        infra, catalog = bundled
        report = nv.run_experiment(infra, catalog, strategy, 250, 7)
        assert TestReferenceRuns._digest(report) == self.DIGESTS[strategy]


class TestConservationAndErrors:
    def test_long_run_keeps_books_balanced(self, reduced):
        # run_slot raises if idle + held capacity ever drifts from total
        infra, catalog = reduced
        for strategy in ("trellis", "min_resource", "redundant_vnf"):
            report = nv.run_experiment(infra, catalog, strategy, 200, 5)
            assert report.slots == 200

    @pytest.mark.parametrize("strategy", ["trellis", "cera"])
    def test_tampered_ledger_breaks_conservation(self, reduced, strategy):
        # one unit of idle stock lost outside allocate and release: the next
        # slot's check finds idle + held short of capacity and names the slot
        infra, catalog = reduced
        sim = nv.Simulation(infra, catalog, strategy, seed=5)
        for _ in range(3):
            sim.run_slot()
        server = int(np.argmax(sim.ledger.server_idle[:, 0]))
        sim.ledger.server_idle[server, 0] -= 1
        with pytest.raises(nv.SimulationError, match=r"^resource conservation broken at slot 3$"):
            sim.run_slot()

    def test_mdp_strategy_requires_policy(self, reduced):
        infra, catalog = reduced
        with pytest.raises((nv.SimulationError, ValueError)):
            nv.Simulation(infra, catalog, "mdp", policy=None, seed=0)

    def test_unknown_strategy_rejected(self, reduced):
        infra, catalog = reduced
        with pytest.raises((nv.SimulationError, ValueError)):
            nv.Simulation(infra, catalog, "oracle", seed=0)

    @pytest.mark.parametrize("slots", [0, -3])
    def test_non_positive_slots_rejected(self, bundled, slots):
        # the config's and the CLI's rule, not an empty report or a numpy error
        infra, catalog = bundled
        with pytest.raises(ValueError, match="^slots: must be positive$"):
            nv.run_experiment(infra, catalog, "cera", slots=slots, seed=1)
        with pytest.raises(ValueError, match="^slots: must be positive$"):
            nv.Simulation(infra, catalog, "trellis", seed=1).run(slots)

    def test_negative_seed_rejected(self, bundled):
        infra, catalog = bundled
        with pytest.raises(ValueError, match="^seed: must be non-negative$"):
            nv.Simulation(infra, catalog, "cera", seed=-1)
        with pytest.raises(ValueError, match="^seed: must be non-negative$"):
            nv.run_experiment(infra, catalog, "trellis", slots=10, seed=-1)

    @pytest.mark.parametrize("name, value", [("slots", True), ("slots", 2.5), ("seed", 1.5), ("seed", False)])
    def test_settings_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match=f"^{name}: must be an integer$"):
            SimParams(**{name: value})

    def test_float_seed_is_a_field_error(self, bundled):
        # not numpy's SeedSequence TypeError
        infra, catalog = bundled
        with pytest.raises(ValueError, match="^seed: must be an integer$"):
            nv.Simulation(infra, catalog, "cera", seed=1.5)
        with pytest.raises(ValueError, match="^slots: must be an integer$"):
            nv.Simulation(infra, catalog, "cera", seed=1).run(2.5)


@pytest.fixture(scope="module")
def reduced_policy(reduced):
    infra, catalog = reduced
    space = nv.build_state_space(catalog)
    return nv.value_iteration(space, nv.TransitionModel(space, catalog), catalog, infra, seed=1)


class TestRunReport:
    """``run`` gathers each slot's figures in typed buffers and views them
    as numpy once; its report must hold a twin simulation's ``run_slot``
    rows at the report's dtypes."""

    DTYPES = {
        "arrivals": np.int32, "admissions": np.int32, "placement_cost": np.float64,
        "backups": np.int32, "vnfs": np.int32,
    }

    @pytest.mark.parametrize("strategy", ["trellis", "cera", "mdp"])
    def test_run_equals_run_slot_rows(self, reduced, reduced_policy, strategy):
        infra, catalog = reduced
        policy = reduced_policy if strategy == "mdp" else None
        slots = 300
        report = nv.Simulation(infra, catalog, strategy, policy=policy, seed=3).run(slots)
        twin = nv.Simulation(infra, catalog, strategy, policy=policy, seed=3)
        rows = [twin.run_slot() for _ in range(slots)]
        for name, dtype in self.DTYPES.items():
            column, expected = getattr(report, name), np.array([row[name] for row in rows], dtype)
            assert column.dtype == dtype and column.itemsize == np.dtype(dtype).itemsize
            assert column.shape == expected.shape
            assert np.array_equal(column, expected)
        assert report.arrivals.sum() > 0 and report.admissions.sum() > 0

    def test_max_slots_memory_note(self, reduced):
        # SimParams: "10**7 slots take about 500 MB at four service types"
        infra, catalog = reduced
        report = nv.run_experiment(infra, catalog, "trellis", 10, 1)
        per_type = (report.arrivals.nbytes + report.admissions.nbytes) / (10 * len(catalog))
        rest = (report.placement_cost.nbytes + report.backups.nbytes + report.vnfs.nbytes) / 10
        assert 450e6 <= SimParams.MAX_SLOTS * (4 * per_type + rest) <= 500e6


class TestPolicyDriven:
    def test_kept_active_counts_match_a_recount(self, reduced, reduced_policy):
        infra, catalog = reduced
        sim = nv.Simulation(infra, catalog, "mdp", policy=reduced_policy, seed=1)
        changed = 0
        for _ in range(500):
            before = list(sim.active_counts)
            sim.run_slot()
            recount = [0] * len(catalog)
            for svc in sim.actives:
                recount[svc.type_index] += 1
            assert sim.active_counts == recount
            changed += sim.active_counts != before
        assert changed > 50

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
