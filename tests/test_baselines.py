"""Static comparison strategies: greedy mains plus backup policies."""

import collections
import copy
import dataclasses
import hashlib
import re

import numpy as np
import pytest

import nfvplace as nv
import nfvplace.baselines as nb

from helpers import (
    backup_cost, backup_probe, backup_scan, choose_backup_reference, protect_cera_rescan,
    random_batch_inputs, random_tiny_instance, two_resource_setup,
)

BACKUP_BASELINES = ["min_resource", "min_reliability", "cera", "redundant_vnf"]


def outcome_figures(svc):
    """A placed service's or outcome's figures, floats as their bits."""
    return (svc.type_index, svc.placement, svc.cost.hex(), svc.failure_prob.hex(),
            svc.usage.tobytes())


class TestIds:
    def test_enumeration(self):
        assert {b.value for b in nv.BaselineId} == {
            "min_resource",
            "min_reliability",
            "cera",
            "redundant_vnf",
            "trellis",
        }

    def test_unknown_id_rejected(self, tiny2):
        infra, catalog = tiny2
        with pytest.raises((ValueError, KeyError)):
            nv.run_baseline("cheapest", [0], nv.ResourceLedger.full(infra), infra, catalog)

    def test_trellis_id_is_not_a_backup_baseline(self, tiny2):
        # the simulator places the trellis strategy through place_batch
        infra, catalog = tiny2
        with pytest.raises(ValueError):
            nv.run_baseline("trellis", [0], nv.ResourceLedger.full(infra), infra, catalog)


class TestTypeIndices:
    @pytest.mark.parametrize("entry", [4, 9, -1, 1.5, 1.0, True, "1", None])
    def test_entry_outside_catalog_rejected(self, bundled, entry):
        # a negative index must not wrap to the catalog's last type, nor a
        # float truncate to a type
        infra, catalog = bundled
        ledger = nv.ResourceLedger.full(infra)
        for baseline in BACKUP_BASELINES:
            with pytest.raises(ValueError, match=f"type index {re.escape(repr(entry))} "):
                nv.run_baseline(baseline, [0, entry], ledger, infra, catalog)

    def test_numpy_integers_accepted(self, bundled):
        infra, catalog = bundled
        ledger = nv.ResourceLedger.full(infra)
        for baseline in BACKUP_BASELINES:
            plain = nv.run_baseline(baseline, [1, 3], ledger, infra, catalog)
            numpy = nv.run_baseline(baseline, np.array([1, 3]), ledger, infra, catalog)
            assert [o.type_index for o in numpy] == [1, 3]
            assert all(type(o.type_index) is int for o in numpy)
            assert [o.placement for o in numpy] == [o.placement for o in plain]


class TestGreedyMains:
    def test_tiny_instance_picks_cheap_server(self, tiny2):
        # 5 units at cost 1 beat 5 units at cost 2
        infra, catalog = tiny2
        out = nv.run_baseline("min_resource", [0], nv.ResourceLedger.full(infra), infra, catalog)[0]
        assert out.placed
        assert out.placement.vnfs[0].main == 1
        assert out.placement.vnfs[0].backup == 0
        assert out.failure_prob == pytest.approx(0.02, rel=1e-9)

    def test_ample_single_server_colocates(self):
        infra = nv.Infrastructure(
            [nv.InP(0.01, ((100,),))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.01,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.5, 0.5, 1.0,
                             (nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,))),
                             (0.5, 0.5), 10.0, 2, name="s")
        out = nv.run_baseline("min_resource", [0], nv.ResourceLedger.full(infra), infra, (svc,))[0]
        assert out.placed
        assert all(vp.main == 0 for vp in out.placement.vnfs)

    def test_zero_capacity_rejects_everything(self, tiny2):
        infra, catalog = tiny2
        ledger = nv.ResourceLedger(infra.capacity, np.zeros_like(infra.capacity))
        for baseline in BACKUP_BASELINES:
            outs = nv.run_baseline(baseline, [0, 0], ledger, infra, catalog)
            assert all(not o.placed for o in outs)
            assert np.all(ledger.server_idle == 0)


class TestMinResource:
    def test_backs_up_least_demanding_vnf_first(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((20,), (20,), (20,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.11, 0.5, 1.0, (nv.VnfSpec(0, (2,)), nv.VnfSpec(0, (7,))),
                             (0.5, 0.5), 100.0, 2, name="m")
        out = nv.run_baseline("min_resource", [0], nv.ResourceLedger.full(infra), infra, (svc,))[0]
        assert out.placed
        assert out.placement.vnfs[0].backup is not None
        assert out.placement.vnfs[1].backup is None
        assert out.failure_prob <= 0.11

    def test_already_reliable_service_untouched(self):
        infra = nv.Infrastructure(
            [nv.InP(0.01, ((20,), (20,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.01,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.05, 0.5, 1.0, (nv.VnfSpec(0, (2,)),), (0.5, 0.5), 100.0, 2, name="m")
        out = nv.run_baseline("min_resource", [0], nv.ResourceLedger.full(infra), infra, (svc,))[0]
        assert out.placed
        assert out.placement.vnfs[0].backup is None


class TestMinReliability:
    def test_backs_up_least_reliable_vnf_first(self):
        # mains land on v=0.07 and v=0.03 providers; the v=0.07 VNF is fixed first
        infra = nv.Infrastructure(
            [nv.InP(0.07, ((5,),)), nv.InP(0.01, ((10,),)), nv.InP(0.03, ((20,), (20,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.07,
            deployment_cost=[[0.0], [0.0], [0.0]],
        )
        svc = nv.ServiceType(0.04, 0.5, 1.0, (nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,))),
                             (0.5, 0.5), 100.0, 2, name="r")
        out = nv.run_baseline("min_reliability", [0], nv.ResourceLedger.full(infra), infra, (svc,))[0]
        assert out.placed
        assert out.placement.vnfs[0].main == 0
        assert out.placement.vnfs[0].backup is not None
        assert out.placement.vnfs[1].backup is None
        assert out.failure_prob <= 0.04


class TestCera:
    def test_picks_best_gain_per_cost(self):
        # backup A: gain 0.098 at ~10.9; backup B: gain 0.095 at ~6.4 -> B
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,),)), nv.InP(0.02, ((10,),)), nv.InP(0.05, ((10,),))],
            alpha=[1.0],
            beta=20.0,
            v_base=0.1,
            deployment_cost=[[1.0], [1.0], [1.0]],
        )
        svc = nv.ServiceType(0.006, 0.5, 1.0, (nv.VnfSpec(0, (2,)),), (0.5, 0.5), 100.0, 2, name="c")
        out = nv.run_baseline("cera", [0], nv.ResourceLedger.full(infra), infra, (svc,))[0]
        assert out.placed
        assert out.placement.vnfs[0].main == 0
        assert out.placement.vnfs[0].backup == 2
        assert out.failure_prob <= 0.006

    def test_single_option_committed(self, tiny2):
        infra, catalog = tiny2
        out = nv.run_baseline("cera", [0], nv.ResourceLedger.full(infra), infra, catalog)[0]
        assert out.placed
        assert out.failure_prob <= catalog[0].failure_cap

    @staticmethod
    def _free(inps):
        # no resource, deployment or link cost: every backup is free
        infra = nv.Infrastructure(inps, alpha=[0.0], beta=1.0, v_base=0.05,
                                  deployment_cost=[[0.0]] * len(inps))
        svc = nv.ServiceType(1e-6, 0.5, 1.0, (nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,))),
                             (0.5, 0.5), 100.0, 2, name="f")
        out = nv.run_baseline("cera", [0], nv.ResourceLedger.full(infra), infra, (svc,))[0]
        return [(vp.main, vp.backup) for vp in out.placement.vnfs]

    def test_free_gains_tie_to_the_first_pair(self):
        # every gain is positive and infinite per unit of cost, so the first
        # open VNF is backed up on its lowest-index host, not the most
        # reliable one, and then the second VNF likewise
        inps = [nv.InP(0.05, ((10,), (10,))), nv.InP(0.02, ((10,),)), nv.InP(0.01, ((10,),))]
        assert self._free(inps) == [(0, 1), (0, 1)]

    def test_free_gain_of_nothing_ranks_last_but_is_taken(self):
        # VNF 0's main cannot fail, so backing it up gains 0: VNF 1's
        # infinite figure goes first, and the zero figure is still the only
        # pair left while the target is missed
        inps = [nv.InP(0.0, ((5,),)), nv.InP(0.05, ((10,), (10,)))]
        assert self._free(inps) == [(0, 1), (1, 2)]


class TestRedundantVnf:
    def test_matches_min_reliability_admissions_when_ample(self):
        rng = np.random.default_rng(11)
        agreements = 0
        for _ in range(50):
            infra, catalog, requests = random_tiny_instance(rng)
            # scale capacity up so backup placement never competes for space
            roomy = nv.Infrastructure(
                [nv.InP(inp.failure_prob, tuple((c[0] * 20,) for c in inp.servers))
                 for inp in infra.inps],
                alpha=[1.0],
                beta=infra.beta,
                v_base=infra.v_base,
                deployment_cost=infra.deployment_cost.tolist(),
            )
            a = nv.run_baseline("redundant_vnf", requests, nv.ResourceLedger.full(roomy), roomy, catalog)
            b = nv.run_baseline("min_reliability", requests, nv.ResourceLedger.full(roomy), roomy, catalog)
            admitted_a = [o.placed and o.failure_prob <= catalog[o.type_index].failure_cap for o in a]
            admitted_b = [o.placed and o.failure_prob <= catalog[o.type_index].failure_cap for o in b]
            assert admitted_a == admitted_b
            agreements += 1
        assert agreements == 50

    def test_abandons_unreachable_target(self):
        # one provider at v=0.3 cannot reach a 1% failure cap even with backups
        infra = nv.Infrastructure(
            [nv.InP(0.3, ((10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.3,
            deployment_cost=[[0.0]],
        )
        svc = nv.ServiceType(0.01, 0.5, 1.0, (nv.VnfSpec(0, (2,)),), (0.5, 0.5), 100.0, 2, name="x")
        ledger = nv.ResourceLedger.full(infra)
        out = nv.run_baseline("redundant_vnf", [0], ledger, infra, (svc,))[0]
        assert not out.placed or out.failure_prob > 0.01
        # rollback left the ledger full
        assert np.array_equal(ledger.server_idle, ledger.server_capacity)


class TestSharedDiscipline:
    def test_outputs_pass_validation(self, rng):
        for _ in range(20):
            infra, catalog, requests = random_tiny_instance(rng)
            for baseline in BACKUP_BASELINES:
                ledger = nv.ResourceLedger.full(infra)
                outs = nv.run_baseline(baseline, requests, ledger, infra, catalog)
                placed = [o.placement for o in outs if o.placed]
                plan = nv.PlacementPlan(tuple(placed))
                violations = nv.validate_plan(plan, nv.ResourceLedger.full(infra), infra, catalog)
                hard = [v for v in violations if v.constraint != "reliability"]
                assert hard == []

    def test_reported_figures_match_model(self, rng):
        for _ in range(20):
            infra, catalog, requests = random_tiny_instance(rng)
            for baseline in BACKUP_BASELINES:
                outs = nv.run_baseline(baseline, requests, nv.ResourceLedger.full(infra), infra, catalog)
                for o in outs:
                    if not o.placed:
                        continue
                    assert o.cost.hex() == nv.service_cost(o.placement, infra, catalog).total.hex()
                    assert o.failure_prob.hex() == (
                        nv.service_failure_probability(o.placement.vnfs, infra).hex())

    def test_determinism(self, tiny2):
        infra, catalog = tiny2
        for baseline in BACKUP_BASELINES:
            a = nv.run_baseline(baseline, [0, 0], nv.ResourceLedger.full(infra), infra, catalog)
            b = nv.run_baseline(baseline, [0, 0], nv.ResourceLedger.full(infra), infra, catalog)
            assert [o.placement for o in a] == [o.placement for o in b]


VNF_TYPES = 4


class TestTables:
    def test_passed_tables_give_equal_outcomes(self, bundled, rng):
        infra, catalog = bundled
        tables = nv.BaselineTables(infra, catalog)
        for _ in range(10):
            frac = rng.uniform(0.0, 1.0, size=(infra.num_servers, 1))
            ledger = nv.ResourceLedger(infra.capacity, np.floor(infra.capacity * frac).astype(np.int64))
            requests = [int(l) for l in rng.integers(len(catalog), size=6)]
            for baseline in BACKUP_BASELINES:
                own = nv.run_baseline(baseline, requests, ledger, infra, catalog)
                passed = nv.run_baseline(baseline, requests, ledger, infra, catalog, tables=tables)
                for a, b in zip(own, passed, strict=True):
                    assert (a.type_index, a.placement, a.cost, a.failure_prob) == (
                        b.type_index, b.placement, b.cost, b.failure_prob)
                    assert (a.usage is None) == (b.usage is None)
                    assert a.usage is None or np.array_equal(a.usage, b.usage)

    def test_tables_of_another_setup_rejected(self, bundled, tiny2):
        infra, catalog = tiny2
        with pytest.raises(ValueError, match="another infrastructure or catalog"):
            nv.run_baseline("cera", [0], nv.ResourceLedger.full(infra), infra, catalog,
                            tables=nv.BaselineTables(*bundled))


def multi_resource_setup(seed, num_resources, tied=False):
    """Random six-provider infrastructure with ``num_resources`` resource
    types, free links and four VNF types of fixed demand each; with
    ``tied``, the first and the last provider share a failure probability
    below every other's.

    Each provider's deployment cost for a VNF type is set so that every
    server charges the same for it in exact arithmetic; which server the
    baselines pick then rests on how the charge's floats are formed, so a
    change in that arithmetic changes outcomes."""
    rng = np.random.default_rng(seed)
    v_base = 0.2
    vs = rng.uniform(0.01, v_base, size=6)
    if tied:
        vs[0] = vs[-1] = vs.min() / 2
    inps = [
        nv.InP(float(v), tuple(
            tuple(int(c) for c in rng.integers(8, 31, size=num_resources))
            for _ in range(int(rng.integers(1, 4)))
        ))
        for v in vs
    ]
    alpha = rng.uniform(0.2, 1.0, size=num_resources)
    beta = float(rng.uniform(2.0, 20.0))
    vnf_demands = [
        tuple(int(d) for d in rng.integers(1, 6, size=num_resources)) for _ in range(VNF_TYPES)
    ]
    flat = nv.Infrastructure(inps, alpha, beta, v_base, np.zeros((len(inps), VNF_TYPES)))
    charge = np.array([
        [float(np.asarray(d, dtype=float) @ flat.unit_cost[i]) for d in vnf_demands]
        for i in range(len(inps))
    ])
    infra = nv.Infrastructure(inps, alpha, beta, v_base, charge.max(axis=0) + 1.0 - charge)
    catalog = tuple(
        nv.ServiceType(
            failure_cap=float(rng.uniform(0.005, 0.1)),
            departure_prob=0.5,
            bandwidth=1.0,
            vnfs=tuple(
                nv.VnfSpec(int(t), vnf_demands[t])
                for t in rng.integers(0, VNF_TYPES, size=int(rng.integers(1, 5)))
            ),
            arrival_pmf=(0.5, 0.5),
            admission_reward=100.0,
            sigma_max=2,
            name=f"r{k}",
        )
        for k in range(3)
    )
    return infra, catalog


def free_setup(seed):
    """:func:`multi_resource_setup`'s single-resource infrastructure at no
    cost (zero resource weight, zero deployment costs, free links), so CERA
    ranks every backup by its zero-cost rule; its first provider never
    fails, so backing up a main there gains nothing."""
    infra, catalog = multi_resource_setup(seed, 1)
    inps = (nv.InP(0.0, infra.inps[0].servers), *infra.inps[1:])
    free = nv.Infrastructure(inps, [0.0], infra.beta, infra.v_base,
                             np.zeros_like(infra.deployment_cost))
    return free, catalog


def outcome_digest(infra, catalog, seed, cases=25):
    """SHA-256 over every outcome of the four baselines on ``cases`` random
    (ledger, request list) pairs: placement, cost and failure probability
    bits, and usage bytes."""
    rng = np.random.default_rng(seed)
    h = hashlib.sha256()
    for _ in range(cases):
        frac = rng.uniform(0.0, 1.0, size=(infra.num_servers, 1))
        ledger = nv.ResourceLedger(infra.capacity, np.floor(infra.capacity * frac).astype(np.int64))
        requests = [int(l) for l in rng.integers(len(catalog), size=int(rng.integers(1, 9)))]
        for baseline in BACKUP_BASELINES:
            for o in nv.run_baseline(baseline, requests, ledger, infra, catalog):
                if not o.placed:
                    h.update(f"{o.type_index}:-;".encode())
                    continue
                pairs = [(vp.main, vp.backup) for vp in o.placement.vnfs]
                h.update(f"{o.type_index}:{pairs}:{o.cost.hex()}:{o.failure_prob.hex()};".encode())
                h.update(o.usage.astype("<i8").tobytes())
    return h.hexdigest()


class TestReferenceOutcomes:
    """Every baseline outcome, bit for bit, on one- and multi-resource
    setups, against digests recorded before the baselines read per-setup
    tables."""

    DIGESTS = {
        "bundled": "3fb951a13c9add4dab6648bbed34bad67994e048a3db2e11052858874441c4bf",
        "reduced": "14304a3d2ee5246b70a5db0ab7ef6c3ec341f545dafb406e0468a4f83871005e",
        "random-r2": "95b1596802814c0ded314fec965bf89cabee485cb6f709ee543b1092e8207053",
        "random-r3": "69da1e63be535ba178b96eb9073d1d932a3e536c18a3fd5b1a537c2c0788ff34",
    }

    @pytest.mark.parametrize("name", list(DIGESTS))
    def test_digest(self, name, bundled, reduced):
        (infra, catalog), seed = {
            "bundled": (bundled, 1),
            "reduced": (reduced, 2),
            "random-r2": (multi_resource_setup(20, 2), 3),
            "random-r3": (multi_resource_setup(30, 3), 4),
        }[name]
        assert outcome_digest(infra, catalog, seed) == self.DIGESTS[name]


def place_mains_reference(l, idle, tables):
    """Cheapest-feasible mains of one service by a strict-< scan over every
    server in index order, the first VNF priced by its charge and every
    later one by its charge plus the bandwidth times the link from the
    previous main; None when a VNF has no room. ``idle`` is consumed."""
    bandwidth = tables.catalog[l].bandwidth
    mains = []
    for spec, charge in zip(tables.catalog[l].vnfs, tables.charges[l]):
        r = np.array(spec.demands)
        link = tables.link[mains[-1]] if mains else None
        best, best_cost = None, np.inf
        for srv, fits in enumerate((idle >= r).all(axis=1).tolist()):
            if fits:
                cost = charge[srv]
                if link is not None:
                    cost += bandwidth * link[srv]
                if cost < best_cost:
                    best, best_cost = srv, cost
        if best is None:
            return None
        idle[best] -= r
        mains.append(best)
    return mains


def random_build(rng, infra, catalog):
    """A build of a random type: random mains, and a backup distinct from
    its main on each VNF with probability 1/2, except one VNF left without
    a backup. Capacity is ignored."""
    l = int(rng.integers(len(catalog)))
    n, s = catalog[l].num_vnfs, infra.num_servers
    mains = [int(m) for m in rng.integers(s, size=n)]
    backups = [
        int((m + rng.integers(1, s)) % s) if s > 1 and rng.random() < 0.5 else None for m in mains
    ]
    backups[int(rng.integers(n))] = None
    return nb.ServiceBuild(l, mains, backups)


SCAN_SETUPS = ["bundled", "reduced", "two_resource", "random-r2", "random-r3"]


class TestBackupScan:
    """The backup scan, its pricing, the main choice and the outcome
    figures against per-server reference forms, bit for bit."""

    @staticmethod
    def _setup(name, bundled, reduced):
        return {
            "bundled": lambda: bundled,
            "reduced": lambda: reduced,
            "two_resource": two_resource_setup,
            "random-r2": lambda: multi_resource_setup(20, 2),
            "random-r3": lambda: multi_resource_setup(30, 3),
        }[name]()

    @staticmethod
    def _idle(rng, infra):
        frac = rng.uniform(0.0, 1.0, size=(infra.num_servers, 1))
        return np.floor(infra.capacity * frac).astype(np.int64)

    @pytest.mark.parametrize("name", SCAN_SETUPS)
    def test_scan_and_prices_match_per_server_reference(self, name, bundled, reduced):
        infra, catalog = self._setup(name, bundled, reduced)
        tables = nv.BaselineTables(infra, catalog)
        rng = np.random.default_rng(8)
        scanned = 0
        for _ in range(150):
            build = random_build(rng, infra, catalog)
            idle = self._idle(rng, infra)
            e, factors = nb._survival(build, tables.failure)
            placement = nv.ServicePlacement(build.type_index, tuple(
                nv.VnfPlacement(m, b) for m, b in zip(build.mains, build.backups)))
            assert e.hex() == nv.service_failure_probability(placement.vnfs, infra).hex()
            probe = backup_probe(build, tables.failure)
            for u, backup in enumerate(build.backups):
                if backup is not None:
                    continue
                hosts, failures = backup_scan(build, u, factors, idle.T.tolist(), tables)
                r = np.array(catalog[build.type_index].vnfs[u].demands)
                assert hosts == [
                    srv for srv, fits in enumerate((idle >= r).all(axis=1).tolist())
                    if fits and srv != build.mains[u]
                ]
                assert [f.hex() for f in failures] == [probe(u, srv).hex() for srv in hosts]
                prices = nb._backup_prices(build, u, hosts, tables)
                assert [c.hex() for c in prices] == [
                    backup_cost(build, u, srv, tables).hex() for srv in hosts
                ]
                scanned += len(hosts)
        assert scanned > 500

    @pytest.mark.parametrize("name", SCAN_SETUPS)
    def test_mains_match_strict_scan(self, name, bundled, reduced):
        infra, catalog = self._setup(name, bundled, reduced)
        tables = nv.BaselineTables(infra, catalog)
        rng = np.random.default_rng(9)
        placed = 0
        for _ in range(150):
            l = int(rng.integers(len(catalog)))
            idle = self._idle(rng, infra)
            consumed, columns = idle.copy(), idle.T.tolist()
            want = place_mains_reference(l, consumed, tables)
            got = nb._place_mains(l, columns, tables)
            assert (got and got.mains) == want
            # the mains' demands taken, or all of a failed chain's given back
            assert columns == (idle if want is None else consumed).T.tolist()
            placed += want is not None
        assert placed > 20

    @pytest.mark.parametrize("name", SCAN_SETUPS)
    def test_outcome_figures_bit_equal_to_model(self, name, bundled, reduced):
        # the one read-out, fed the heuristics' builds and the trellis's
        # paths, against the model's reference figures
        infra, catalog = self._setup(name, bundled, reduced)
        context = nv.PlacementContext(catalog, infra)
        tables = context.tables
        rng = np.random.default_rng(10)
        checked = collections.Counter()
        for _ in range(30):
            # one call over several builds
            builds = [random_build(rng, infra, catalog) for _ in range(int(rng.integers(1, 7)))]
            services = [(b.type_index, b.mains, b.backups) for b in builds]
            records = nb.placed_services(services, tables)
            # a trellis batch reads its path out through the same call
            batch = random_batch_inputs(rng, infra, catalog)
            placed = nv.place_batch(*batch, catalog, infra, context).services
            paths = [(svc.type_index, [vp.main for vp in svc.placement.vnfs],
                      [vp.backup for vp in svc.placement.vnfs]) for svc in placed]
            assert [outcome_figures(svc) for svc in nb.placed_services(paths, tables)] == [
                outcome_figures(svc) for svc in placed]
            for (l, mains, backups), svc in zip(services + paths, records + placed, strict=True):
                assert svc.type_index == svc.placement.type_index == l
                assert svc.placement.vnfs == tuple(map(nv.VnfPlacement, mains, backups))
                assert svc.cost.hex() == nv.service_cost(svc.placement, infra, catalog).total.hex()
                assert svc.failure_prob.hex() == (
                    nv.service_failure_probability(svc.placement.vnfs, infra).hex())
                assert svc.usage.dtype == np.int64
                assert np.array_equal(svc.usage, nv.service_usage(svc.placement, infra, catalog))
            checked["build"] += len(records)
            checked["path"] += len(placed)
        assert checked["build"] > 50 and checked["path"] > 10, checked


class TestBackupChoice:
    """The reliability-first backup choice and the first-fit scan against
    full-scan and per-server references."""

    @staticmethod
    def _setup(name, bundled, reduced):
        if name == "tied":
            return multi_resource_setup(40, 1, tied=True)
        if name == "free":
            return free_setup(50)
        return TestBackupScan._setup(name, bundled, reduced)

    @staticmethod
    def _idle(rng, infra):
        # some servers emptied, so that at times no host has room
        frac = rng.uniform(0.0, 1.0, size=(infra.num_servers, 1))
        frac[rng.random(infra.num_servers) < rng.random()] = 0.0
        return np.floor(infra.capacity * frac).astype(np.int64)

    @pytest.mark.parametrize("name", SCAN_SETUPS + ["tied"])
    def test_choice_equals_full_scan(self, name, bundled, reduced):
        infra, catalog = self._setup(name, bundled, reduced)
        tables = nv.BaselineTables(infra, catalog)
        rng = np.random.default_rng(14)
        branches = {"none": 0, "fallback": 0, "priced": 0}
        for _ in range(300):
            build = random_build(rng, infra, catalog)
            idle = self._idle(rng, infra).T.tolist()
            factors = nb._survival(build, tables.failure)[1]
            cap = catalog[build.type_index].failure_cap
            for u, backup in enumerate(build.backups):
                if backup is not None:
                    continue
                want = choose_backup_reference(build, u, factors, idle, tables)
                assert nb._choose_backup(build, u, factors, idle, tables) == want
                hosts, failures = backup_scan(build, u, factors, idle, tables)
                branches["none" if not hosts else
                         "priced" if min(failures) <= cap else "fallback"] += 1
        assert min(branches.values()) >= 10, branches

    def test_cap_met_exactly_is_priced(self):
        # each type's cap set to the most reliable host's figure: that host
        # meets it, so the cheapest host of that figure is chosen, which
        # with the first provider made dearer is often on the last one
        infra, catalog = multi_resource_setup(40, 1, tied=True)
        deployment = np.array(infra.deployment_cost)
        deployment[0] += 1.0
        infra = dataclasses.replace(infra, deployment_cost=deployment)
        tables = nv.BaselineTables(infra, catalog)
        rng = np.random.default_rng(16)
        priced = 0
        for _ in range(100):
            build = random_build(rng, infra, catalog)
            idle = self._idle(rng, infra).T.tolist()
            factors = nb._survival(build, tables.failure)[1]
            u = build.backups.index(None)
            hosts, failures = backup_scan(build, u, factors, idle, tables)
            if not hosts:
                continue
            l = build.type_index
            cap = dataclasses.replace(catalog[l], failure_cap=min(failures))
            exact = nv.BaselineTables(infra, (*catalog[:l], cap, *catalog[l + 1:]))
            want = choose_backup_reference(build, u, factors, idle, exact)
            assert nb._choose_backup(build, u, factors, idle, exact) == want
            priced += want != min((tables.failure[srv], srv) for srv in hosts)[1]
        assert priced >= 10, priced

    def test_tied_providers_fall_back_to_the_lowest_index(self):
        infra, catalog = multi_resource_setup(40, 1, tied=True)
        # a cap no backup can meet, so the most reliable host with room is chosen
        catalog = (dataclasses.replace(catalog[0], failure_cap=1e-9), *catalog[1:])
        tables = nv.BaselineTables(infra, catalog)
        n = infra.num_servers
        tied = [srv for srv in range(n) if tables.failure[srv] == min(tables.failure)]
        assert sorted({tables.inps[srv] for srv in tied}) == [0, 5]
        last = [srv for srv in tied if tables.inps[srv] == 5]
        worst = max(range(n), key=tables.failure.__getitem__)
        build = nb.ServiceBuild(0, [worst] * catalog[0].num_vnfs, [None] * catalog[0].num_vnfs)
        factors = nb._survival(build, tables.failure)[1]
        for room, want in ((range(n), tied[0]), (last, last[0])):
            idle = [[100 if srv in room else 0 for srv in range(n)]]
            assert choose_backup_reference(build, 0, factors, idle, tables) == want
            assert nb._choose_backup(build, 0, factors, idle, tables) == want

    @pytest.mark.parametrize("name", SCAN_SETUPS + ["tied", "free"])
    def test_cera_equals_per_round_rescan(self, name, bundled, reduced):
        # CERA keeps each open VNF's hosts and prices across its rounds; the
        # reference lists and prices them again in every round
        infra, catalog = self._setup(name, bundled, reduced)
        tables = nv.BaselineTables(infra, catalog)
        rng = np.random.default_rng(17)
        events = collections.Counter()
        for _ in range(300):
            build = random_build(rng, infra, catalog)
            build.backups = [None] * len(build.mains)
            idle = self._idle(rng, infra).T.tolist()
            want_build, want_idle = copy.deepcopy(build), copy.deepcopy(idle)
            protect_cera_rescan(want_build, want_idle, tables, events)
            nb._protect_cera(build, idle, tables)
            assert build.backups == want_build.backups
            assert idle == want_idle
        assert min(events[k] for k in ("dropped", "repriced", "exhausted")) >= 10, events

    @pytest.mark.parametrize("name", ["bundled", "two_resource", "random-r3"])
    def test_first_fit_equals_per_server_scan(self, name, bundled, reduced):
        infra, catalog = self._setup(name, bundled, reduced)
        rng = np.random.default_rng(15)
        found = skipped = 0
        for _ in range(300):
            idle = self._idle(rng, infra)
            order = rng.permutation(infra.num_servers).tolist()[:int(rng.integers(infra.num_servers + 1))]
            demand = tuple(int(d) for d in rng.integers(0, 20, size=infra.num_resources))
            fits = [srv for srv in order if (idle[srv] >= demand).all()]
            got = nb._first_fit(order, idle.T.tolist(), demand)
            assert got == (fits[0] if fits else None)
            if fits:
                found += 1
                got = nb._first_fit(order, idle.T.tolist(), demand, fits[0])
                assert got == (fits[1] if len(fits) > 1 else None)
                skipped += len(fits) > 1
        assert found > 50 and skipped > 30, (found, skipped)


class TestRunOutputs:
    """What one run_baseline call reads and hands out."""

    @staticmethod
    def _cases(infra, catalog, seed, cases=15):
        rng = np.random.default_rng(seed)
        for _ in range(cases):
            frac = rng.uniform(0.0, 1.0, size=(infra.num_servers, 1))
            idle = np.floor(infra.capacity * frac).astype(np.int64)
            requests = [int(l) for l in rng.integers(len(catalog), size=int(rng.integers(1, 9)))]
            yield nv.ResourceLedger(infra.capacity, idle), requests

    def test_read_only_ledger_left_bit_identical(self, bundled):
        infra, catalog = bundled
        tables = nv.BaselineTables(infra, catalog)
        for ledger, requests in self._cases(infra, catalog, 12):
            before = ledger.server_idle.copy()
            ledger.server_idle.setflags(write=False)
            for baseline in BACKUP_BASELINES:
                nv.run_baseline(baseline, requests, ledger, infra, catalog, tables=tables)
                assert ledger.server_idle.tobytes() == before.tobytes()

    def test_outcome_figures_equal_the_read_out(self, bundled):
        # an outcome's failure figure is service_failure_probability's own
        # call, which the read-out's equals bit for bit
        infra, catalog = bundled
        tables = nv.BaselineTables(infra, catalog)
        placed = 0
        for ledger, requests in self._cases(infra, catalog, 11):
            for baseline in BACKUP_BASELINES:
                for o in nv.run_baseline(baseline, requests, ledger, infra, catalog, tables=tables):
                    if not o.placed:
                        continue
                    vnfs = o.placement.vnfs
                    (svc,) = nb.placed_services(
                        [(o.type_index, [vp.main for vp in vnfs], [vp.backup for vp in vnfs])], tables)
                    assert outcome_figures(o) == outcome_figures(svc)
                    placed += 1
        assert placed > 100

    @pytest.mark.parametrize("name", ["bundled", "two_resource", "random-r3"])
    def test_usage_rows_are_each_outcomes_own(self, name, bundled):
        infra, catalog = {
            "bundled": lambda: bundled,
            "two_resource": two_resource_setup,
            "random-r3": lambda: multi_resource_setup(30, 3),
        }[name]()
        tables = nv.BaselineTables(infra, catalog)
        shape = (infra.num_servers, infra.num_resources)
        shared = 0
        for ledger, requests in self._cases(infra, catalog, 13):
            for baseline in BACKUP_BASELINES:
                outs = nv.run_baseline(baseline, requests, ledger, infra, catalog, tables=tables)
                placed = [o for o in outs if o.placed]
                for o in placed:
                    assert o.usage.dtype == np.int64 and o.usage.shape == shape
                    assert np.array_equal(o.usage, nv.service_usage(o.placement, infra, catalog))
                for k, o in enumerate(placed):
                    others = [p.usage.copy() for p in placed]
                    o.usage += 1
                    for j, p in enumerate(placed):
                        if j != k:
                            assert np.array_equal(p.usage, others[j])
                    o.usage -= 1
                shared += len(placed) > 1
        assert shared > 10
