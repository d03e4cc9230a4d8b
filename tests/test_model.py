"""Cost, reliability, usage, and plan-validation arithmetic."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nfvplace as nv

from helpers import server_id, server_location


def one_inp(v=0.1, caps=((10,),), alpha=(1.0,), beta=1.0, v_base=0.1, dc=0.0):
    return nv.Infrastructure(
        [nv.InP(v, caps)],
        alpha=list(alpha),
        beta=beta,
        v_base=v_base,
        deployment_cost=[[dc] * 1],
    )


def simple_type(num_vnfs=1, demand=5, cap=0.5, bandwidth=1.0):
    return nv.ServiceType(
        failure_cap=cap,
        departure_prob=0.5,
        bandwidth=bandwidth,
        vnfs=tuple(nv.VnfSpec(0, (demand,)) for _ in range(num_vnfs)),
        arrival_pmf=(0.5, 0.5),
        admission_reward=10.0,
        sigma_max=2,
        name="s",
    )


class TestUnitCost:
    def test_ratio_calibration(self):
        # beta = ln(5)/0.04 makes the 0.01 provider cost exactly 5x the 0.05 one
        beta = math.log(5.0) / 0.04
        infra = nv.Infrastructure(
            [nv.InP(0.01, ((10,),)), nv.InP(0.05, ((10,),))],
            alpha=[1.0],
            beta=beta,
            v_base=0.05,
            deployment_cost=[[0.0], [0.0]],
        )
        ratio = infra.unit_cost[0, 0] / infra.unit_cost[1, 0]
        assert ratio == pytest.approx(5.0, rel=1e-12)

    def test_exponential_fixed_point(self):
        infra = nv.Infrastructure(
            [nv.InP(0.01, ((10,),))],
            alpha=[1.0],
            beta=15.0,
            v_base=0.07,
            deployment_cost=[[0.0]],
        )
        assert infra.unit_cost[0, 0] == pytest.approx(math.exp(0.9), rel=1e-12)
        assert infra.unit_cost[0, 0] == pytest.approx(2.4596031111569496, rel=1e-12)

    def test_base_provider_costs_alpha(self):
        infra = one_inp(v=0.1, alpha=(0.5,), v_base=0.1)
        assert infra.unit_cost[0, 0] == pytest.approx(0.5)

    def test_more_reliable_is_never_cheaper(self):
        infra = nv.Infrastructure(
            [nv.InP(v, ((10,),)) for v in (0.01, 0.03, 0.07)],
            alpha=[1.0],
            beta=15.0,
            v_base=0.07,
            deployment_cost=[[0.0]] * 3,
        )
        costs = [infra.unit_cost[i, 0] for i in range(3)]
        assert costs[0] > costs[1] > costs[2]


class TestCost:
    def test_server_and_deployment_terms(self):
        # demand 5 at unit cost 2 plus deployment 3 -> 10 + 3 = 13; the
        # unit cost of 2 comes from exp(ln(2)/0.1 * (0.2 - 0.1))
        infra = one_inp(v=0.1, beta=math.log(2.0) / 0.1, v_base=0.2, dc=3.0)
        svc = simple_type()
        bd = nv.service_cost(nv.ServicePlacement(0, (nv.VnfPlacement(0),)), infra, (svc,))
        assert bd.server == pytest.approx(10.0)
        assert bd.deployment == pytest.approx(3.0)
        assert bd.forwarding == 0.0
        assert bd.total == pytest.approx(13.0)

    def test_forwarding_term(self):
        # bandwidth 10 over a 0.4-cost link -> 4
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,), (10,)))],
            alpha=[0.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
            link_cost=[[0.0, 0.4], [0.4, 0.0]],
        )
        svc = simple_type(num_vnfs=2, demand=1, bandwidth=10.0)
        placement = nv.ServicePlacement(0, (nv.VnfPlacement(0), nv.VnfPlacement(1)))
        bd = nv.service_cost(placement, infra, (svc,))
        assert bd.forwarding == pytest.approx(4.0)
        assert bd.total == pytest.approx(4.0)

    def test_backup_pays_server_deployment_and_routing(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,), (10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[1.0]],
            link_cost=[[0.0, 0.2, 0.3], [0.2, 0.0, 0.1], [0.3, 0.1, 0.0]],
        )
        svc = simple_type(num_vnfs=2, demand=2, bandwidth=1.0)
        plain = nv.ServicePlacement(0, (nv.VnfPlacement(0), nv.VnfPlacement(1)))
        backed = nv.ServicePlacement(0, (nv.VnfPlacement(0, 2), nv.VnfPlacement(1)))
        lo = nv.service_cost(plain, infra, (svc,))
        hi = nv.service_cost(backed, infra, (svc,))
        # backup adds its server units, one deployment, and the (2,1) link
        assert hi.server - lo.server == pytest.approx(2.0)
        assert hi.deployment - lo.deployment == pytest.approx(1.0)
        assert hi.forwarding - lo.forwarding == pytest.approx(0.1)

    def test_plan_cost_sums_services(self):
        infra = one_inp(caps=((30,),), v=0.1, beta=math.log(2.0) / 0.1, v_base=0.2, dc=3.0)
        svc = simple_type()
        one = nv.ServicePlacement(0, (nv.VnfPlacement(0),))
        plan = nv.PlacementPlan((one, one))
        assert nv.placement_cost(plan, infra, (svc,)).total == pytest.approx(26.0)


class TestFailureProbability:
    def test_main_with_backup(self):
        infra = nv.Infrastructure(
            [nv.InP(0.05, ((10,),)), nv.InP(0.07, ((10,),))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.07,
            deployment_cost=[[0.0], [0.0]],
        )
        e = nv.service_failure_probability((nv.VnfPlacement(0, 1),), infra)
        assert e == pytest.approx(0.0035, abs=1e-15)

    def test_two_protected_vnfs(self):
        infra = nv.Infrastructure(
            [nv.InP(0.05, ((10,), (10,), (10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.05,
            deployment_cost=[[0.0]],
        )
        vnfs = (nv.VnfPlacement(0, 1), nv.VnfPlacement(2, 3))
        e = nv.service_failure_probability(vnfs, infra)
        assert e == pytest.approx(0.00499375, abs=1e-15)

    def test_matches_enumeration_spot(self, rng):
        infra = nv.Infrastructure(
            [nv.InP(0.05, ((9,), (9,))), nv.InP(0.12, ((9,), (9,))), nv.InP(0.3, ((9,), (9,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.3,
            deployment_cost=[[0.0]] * 3,
        )
        svc = simple_type(num_vnfs=3, demand=1)
        from helpers import random_service_placement

        for _ in range(50):
            p = random_service_placement(rng, infra, (svc,))
            closed = nv.service_failure_probability(p.vnfs, infra)
            brute = nv.failure_by_enumeration(p, infra)
            assert closed == pytest.approx(brute, abs=1e-12)

    @given(
        picks=st.lists(
            st.integers(min_value=0, max_value=5), unique=True, min_size=1, max_size=6
        ),
        pattern=st.lists(st.booleans(), min_size=3, max_size=3),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_enumeration_property(self, picks, pattern):
        infra = nv.Infrastructure(
            [nv.InP(0.04, ((9,), (9,))), nv.InP(0.11, ((9,), (9,))), nv.InP(0.25, ((9,), (9,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.25,
            deployment_cost=[[0.0]] * 3,
        )
        # alternate drawn servers into (main, backup?) groups without reuse
        vnfs = []
        it = iter(picks)
        for has_backup in pattern:
            main = next(it, None)
            if main is None:
                break
            backup = next(it, None) if has_backup else None
            vnfs.append(nv.VnfPlacement(main, backup))
        if not vnfs:
            return
        placement = nv.ServicePlacement(0, tuple(vnfs))
        closed = nv.service_failure_probability(placement.vnfs, infra)
        brute = nv.failure_by_enumeration(placement, infra)
        assert abs(closed - brute) <= 1e-12

    def test_backup_never_hurts(self):
        infra = nv.Infrastructure(
            [nv.InP(0.2, ((10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.2,
            deployment_cost=[[0.0]],
        )
        bare = nv.service_failure_probability((nv.VnfPlacement(0),), infra)
        prot = nv.service_failure_probability((nv.VnfPlacement(0, 1),), infra)
        assert prot < bare


class TestUsageAndLedger:
    def test_usage_counts_main_and_backup(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        svc = simple_type()
        placement = nv.ServicePlacement(0, (nv.VnfPlacement(0, 1),))
        usage = nv.service_usage(placement, infra, (svc,))
        assert usage.tolist() == [[5], [5]]

    def test_allocate_release_round_trip(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        ledger = nv.ResourceLedger.full(infra)
        usage = np.array([[4], [6]])
        ledger.allocate(usage)
        assert ledger.server_idle.tolist() == [[6], [4]]
        ledger.release(usage)
        assert ledger.server_idle.tolist() == [[10], [10]]

    def test_allocate_rejects_overdraw(self):
        infra = one_inp()
        ledger = nv.ResourceLedger.full(infra)
        with pytest.raises(nv.LedgerError):
            ledger.allocate(np.array([[11]]))

    def test_release_rejects_overflow(self):
        infra = one_inp()
        ledger = nv.ResourceLedger.full(infra)
        with pytest.raises(nv.LedgerError):
            ledger.release(np.array([[1]]))

    def test_negative_usage_rejected(self):
        infra = one_inp()
        ledger = nv.ResourceLedger.full(infra)
        with pytest.raises(nv.LedgerError):
            ledger.allocate(np.array([[-1]]))

    # int64 conversion used to truncate each: capacity 9.9 held 9, idle 2.5
    # held 2, and usage 1.9 took 1
    def test_fractional_amount_rejected(self):
        with pytest.raises(nv.LedgerError, match=r"^server capacity must hold integers, got 9\.9$"):
            nv.ResourceLedger([[9.9]])
        with pytest.raises(nv.LedgerError, match=r"^server idle table must hold integers, got 2\.5"):
            nv.ResourceLedger([[10]], [[2.5]])
        ledger = nv.ResourceLedger([[10]], [[5]])
        for step in (ledger.allocate, ledger.release):
            with pytest.raises(nv.LedgerError, match=r"^usage must hold integers, got 1\.9$"):
                step(np.array([[1.9]]))
        assert ledger.server_idle.tolist() == [[5]]

    def test_integral_floats_and_numpy_ints_accepted(self):
        ledger = nv.ResourceLedger(np.array([[10.0]]), [[np.int32(4)]])
        ledger.allocate(np.array([[3.0]]))
        ledger.release(np.array([[1]], dtype=np.int32))
        assert ledger.server_idle.tolist() == [[2]]
        assert ledger.server_idle.dtype == ledger.server_capacity.dtype == np.int64


class TestValidatePlan:
    def test_clean_plan(self, tiny2):
        infra, catalog = tiny2
        plan = nv.PlacementPlan((nv.ServicePlacement(0, (nv.VnfPlacement(1, 0),)),))
        assert nv.validate_plan(plan, nv.ResourceLedger.full(infra), infra, catalog) == []

    def test_backup_on_own_main_flagged(self, tiny2):
        infra, catalog = tiny2
        plan = nv.PlacementPlan((nv.ServicePlacement(0, (nv.VnfPlacement(1, 1),)),))
        names = [v.constraint for v in nv.validate_plan(plan, nv.ResourceLedger.full(infra), infra, catalog)]
        assert "distinct-servers" in names

    def test_short_chain_flagged(self):
        infra = nv.Infrastructure(
            [nv.InP(0.1, ((10,), (10,)))],
            alpha=[1.0],
            beta=1.0,
            v_base=0.1,
            deployment_cost=[[0.0]],
        )
        svc = simple_type(num_vnfs=2, demand=1)
        plan = nv.PlacementPlan((nv.ServicePlacement(0, (nv.VnfPlacement(0),)),))
        names = [v.constraint for v in nv.validate_plan(plan, nv.ResourceLedger.full(infra), infra, (svc,))]
        assert names == ["chain-coverage"]

    def test_capacity_overdraw_flagged(self):
        infra = one_inp(caps=((4,),))
        svc = simple_type(demand=5)
        plan = nv.PlacementPlan((nv.ServicePlacement(0, (nv.VnfPlacement(0),)),))
        names = [v.constraint for v in nv.validate_plan(plan, nv.ResourceLedger.full(infra), infra, (svc,))]
        assert "server-capacity" in names

    def test_reliability_shortfall_reported(self):
        infra = one_inp(v=0.1)
        svc = simple_type(cap=0.05)
        plan = nv.PlacementPlan((nv.ServicePlacement(0, (nv.VnfPlacement(0),)),))
        names = [v.constraint for v in nv.validate_plan(plan, nv.ResourceLedger.full(infra), infra, (svc,))]
        assert names == ["reliability"]


class TestInfrastructure:
    def test_server_id_location_round_trip(self, bundled):
        infra, _ = bundled
        for sid in range(infra.num_servers):
            i, s = server_location(infra, sid)
            assert server_id(infra, i, s) == sid

    def test_failure_lookup(self, bundled):
        infra, _ = bundled
        assert nv.InP is not None
        assert infra.server_failure(0) == pytest.approx(0.07)
        assert infra.server_failure(infra.num_servers - 1) == pytest.approx(0.01)


class TestFiniteNumbers:
    """Constructors reject NaN and infinity, which the trellis cannot rank."""

    @pytest.mark.parametrize("kwargs", [
        {"alpha": [math.nan]},
        {"beta": math.inf},
        {"deployment_cost": [[math.inf]]},
        {"link_cost": np.array([[0.0, math.nan], [math.nan, 0.0]])},
        {"link_cost": np.array([[0.0, math.inf], [math.inf, 0.0]])},
    ], ids=["alpha", "beta", "deployment", "link-nan", "link-inf"])
    def test_infrastructure(self, kwargs):
        args = dict(alpha=[1.0], beta=1.0, v_base=0.1, deployment_cost=[[0.0]])
        args.update(kwargs)
        with pytest.raises(ValueError):
            nv.Infrastructure([nv.InP(0.1, ((10,), (10,)))], **args)

    @pytest.mark.parametrize("field, value", [
        ("bandwidth", math.nan), ("bandwidth", math.inf), ("penalty", math.nan),
        ("penalty", math.inf), ("admission_reward", math.inf), ("arrival_pmf", (math.nan, 1.0)),
    ], ids=["bandwidth-nan", "bandwidth-inf", "penalty-nan", "penalty-inf", "reward-inf", "pmf-nan"])
    def test_service_type(self, field, value):
        args = dict(failure_cap=0.5, departure_prob=0.5, bandwidth=1.0,
                    vnfs=(nv.VnfSpec(0, (5,)),), arrival_pmf=(0.5, 0.5),
                    admission_reward=10.0, sigma_max=2)
        args[field] = value
        with pytest.raises(ValueError):
            nv.ServiceType(**args)


class TestWholeAmounts:
    """Capacities and demands are whole units: a fraction is an error, not
    truncated."""

    @pytest.mark.parametrize("servers", [((9.9,),), ((10,), (4.5,))], ids=["one", "second-server"])
    def test_fractional_capacity_rejected(self, servers):
        with pytest.raises(ValueError, match="server capacities must be integers"):
            nv.InP(0.1, servers)

    def test_fractional_demand_rejected(self):
        with pytest.raises(ValueError, match="demands must be integers"):
            nv.VnfSpec(0, (2.7,))

    def test_integral_values_are_kept(self):
        assert nv.InP(0.1, ((10.0, np.int64(3)),)).servers == ((10, 3),)
        assert nv.VnfSpec(0, (np.int32(2), 5.0)).demands == (2, 5)
        assert all(type(c) is int for c in nv.VnfSpec(0, (np.int32(2), 5.0)).demands)
