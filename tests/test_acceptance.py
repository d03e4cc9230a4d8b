"""End-to-end acceptance checks.

Each test covers one numbered criterion and prints a single PASS line
with the measured quantities once its assertions hold. The heavyweight
simulation checks (07, 08) share the bundled reduced setup and a policy
solved once per module.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest
from scipy import stats

import nfvplace as nv
from nfvplace.cli import main as cli_main
from nfvplace.model import (
    PlacedService,
    service_cost,
    service_failure_probability,
    service_usage,
)
from nfvplace.oracle import best_placement
from nfvplace.sim import sample_arrivals, sample_departures

from helpers import (
    analytic_setup,
    arrival_index,
    contraction_setup,
    failure_by_enumeration,
    penalized_objective,
    random_batch_inputs,
    random_service_placement,
    random_tiny_instance,
    replay,
    survivors,
    transition_prob,
)
from test_cli import small_config_dict


def _report(num, name, detail):
    print(f"[acceptance {num:02d}] {name}: PASS ({detail})")


@pytest.fixture(scope="module")
def reduced_policy(reduced):
    infra, catalog = reduced
    space = nv.build_state_space(catalog)
    model = nv.TransitionModel(space, catalog)
    policy = nv.value_iteration(space, model, catalog, infra, seed=42)
    assert policy.converged
    return policy


def test_01_closed_form_failure_matches_enumeration(bundled):
    infra, catalog = bundled
    rng = np.random.default_rng(20240819)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        placement = random_service_placement(rng, infra, catalog)
        servers = [
            s for vp in placement.vnfs for s in (vp.main, vp.backup) if s is not None
        ]
        assert len(servers) <= 8
        assert len(set(servers)) == len(servers)
        closed = service_failure_probability(placement.vnfs, infra)
        exhaustive = failure_by_enumeration(placement, infra)
        worst = max(worst, abs(closed - exhaustive))
        assert abs(closed - exhaustive) <= 1e-12
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    _report(
        1,
        "closed-form failure equals up/down enumeration",
        f"500 placements, max diff {worst:.2e}, {elapsed:.2f}s",
    )


def test_02_transition_rows_are_stochastic(bundled):
    infra, catalog = bundled
    t0 = time.perf_counter()
    space = nv.build_state_space(catalog)
    assert space.size == 104976
    model = nv.TransitionModel(space, catalog)
    rng = np.random.default_rng(42)
    worst = 0.0
    lam = sigma = realized = source = None
    for _ in range(1000):
        lam = tuple(int(rng.integers(0, m + 1)) for m in space.lambda_max)
        sigma = tuple(int(rng.integers(0, m + 1)) for m in space.sigma_max)
        realized = tuple(
            int(rng.integers(0, m - s + 1)) for s, m in zip(sigma, space.sigma_max)
        )
        source = tuple(s + a for s, a in zip(sigma, realized))
        row = model.departure_row(source)
        assert np.all(row >= 0.0)
        total = float(model.arrival_probs.sum() * row.sum())
        worst = max(worst, abs(total - 1.0))
        assert abs(total - 1.0) <= 1e-9
    # the factored sum is the genuine row sum: spot-check entries against
    # the scalar kernel on the final sampled row
    row = model.departure_row(source)
    for _ in range(50):
        nl = tuple(int(rng.integers(0, m + 1)) for m in space.lambda_max)
        ns = tuple(int(rng.integers(0, s + 1)) for s in source)
        p = transition_prob(model, (lam, sigma), realized, (nl, ns))
        q = float(
            model.arrival_probs[arrival_index(space, nl) - 1]
            * row[space.active_index(ns) - 1]
        )
        assert math.isclose(p, q, rel_tol=0.0, abs_tol=1e-15)
    elapsed = time.perf_counter() - t0
    assert elapsed < 30.0
    _report(
        2,
        "binomial transition rows sum to one",
        f"{space.size} states, 1000 rows, max dev {worst:.2e}, {elapsed:.2f}s",
    )


def test_03_trellis_is_self_consistent(bundled):
    infra, catalog = bundled
    rng = np.random.default_rng(123)
    t0 = time.perf_counter()
    checked = 0
    worst_cost = worst_fail = 0.0
    for _ in range(200):
        action, arrangement, snapshot = random_batch_inputs(rng, infra, catalog)
        tp = nv.TrellisPlacement(action, arrangement, snapshot, catalog, infra)
        res = tp.run()
        if not res.valid or not res.services:
            continue
        checked += 1
        for svc in res.services:
            cost = service_cost(svc.placement, infra, catalog).total
            fail = service_failure_probability(svc.placement.vnfs, infra)
            usage = service_usage(svc.placement, infra, catalog)
            rel_cost = abs(cost - svc.cost) / max(1.0, abs(cost))
            worst_cost = max(worst_cost, rel_cost)
            worst_fail = max(worst_fail, abs(fail - svc.failure_prob))
            assert rel_cost <= 1e-9
            assert abs(fail - svc.failure_prob) <= 1e-12
            assert np.array_equal(usage, svc.usage)
        # survived-reliability replay along the winning path is exact
        for m in range(1, len(res.path) + 1):
            cur = res.path[m - 1]
            prev = res.path[m - 2] if m > 1 else 0
            stored = survivors(tp, m)[cur]
            theta, _, _, tau, hinge = replay(tp, m, prev, cur)
            assert tau == stored.reliability
            phi = theta - hinge
            assert abs(phi - stored.cost) <= 1e-9 * max(1.0, abs(stored.cost))
        total = sum(s.cost for s in res.services)
        final = survivors(tp, len(res.path))[res.path[-1]].cost
        assert abs(final - total) <= 1e-9 * max(1.0, abs(total))
    elapsed = time.perf_counter() - t0
    assert checked >= 80
    _report(
        3,
        "batch outputs match model recomputation and replay",
        f"{checked} valid batches of 200, cost dev {worst_cost:.2e}, "
        f"failure dev {worst_fail:.2e}, {elapsed:.2f}s",
    )


def test_04_trellis_never_beats_the_oracle():
    rng = np.random.default_rng(20240819)
    t0 = time.perf_counter()
    checked = reliable_confirmed = 0
    for _ in range(200):
        infra, catalog, type_indices = random_tiny_instance(rng)
        snapshot = infra.capacity.copy()
        action = tuple(
            int(np.sum(np.asarray(type_indices) == t)) for t in range(len(catalog))
        )
        arrangement = tuple(int(t) for t in type_indices)
        res = nv.place_batch(action, arrangement, snapshot, catalog, infra)
        if not res.valid or not res.services:
            continue
        checked += 1
        plan = nv.PlacementPlan(tuple(s.placement for s in res.services))
        mine = penalized_objective(plan, catalog, infra)
        opt = best_placement(
            list(type_indices), catalog, infra, snapshot, objective="penalized"
        )
        assert opt.valid
        assert mine >= opt.objective - 1e-9
        if all(
            s.failure_prob <= catalog[s.type_index].failure_cap for s in res.services
        ):
            feasible = best_placement(
                list(type_indices), catalog, infra, snapshot, objective="reliable"
            )
            assert feasible.valid
            reliable_confirmed += 1
    elapsed = time.perf_counter() - t0
    assert checked >= 100
    assert reliable_confirmed >= 30
    assert elapsed < 60.0
    _report(
        4,
        "trellis objective bounded below by exhaustive optimum",
        f"{checked} instances, {reliable_confirmed} reliable placements confirmed "
        f"feasible, {elapsed:.2f}s",
    )


def test_05_value_iteration_contracts_to_the_fixed_point():
    infra, catalog = contraction_setup()
    space = nv.build_state_space(catalog)
    model = nv.TransitionModel(space, catalog)
    policy = nv.value_iteration(
        space, model, catalog, infra, gamma=0.9, epsilon=1e-12, seed=1
    )
    trace = np.asarray(policy.sup_diff_trace)
    # ratios are meaningful only while the diffs sit far above the float
    # noise of the value scale
    floor = 1e-3
    ratios = [
        trace[i] / trace[i - 1]
        for i in range(20, len(trace))
        if trace[i] > floor and trace[i - 1] > floor
    ]
    assert len(ratios) >= 30
    worst = max(ratios)
    assert worst <= 0.9 + 1e-9

    infra2, catalog2 = analytic_setup()
    space2 = nv.build_state_space(catalog2)
    model2 = nv.TransitionModel(space2, catalog2)
    pol2 = nv.value_iteration(
        space2, model2, catalog2, infra2, gamma=0.9, epsilon=1e-12, seed=0
    )
    v_hit = pol2.values[space2.state_id((1,), (0,))]
    v_idle = pol2.values[space2.state_id((0,), (0,))]
    assert abs(v_hit - 10.0) <= 1e-9
    assert abs(v_idle - 9.0) <= 1e-9
    _report(
        5,
        "sup-norm diffs contract at gamma and analytic V* matches",
        f"{len(ratios)} tail ratios, max {worst:.12f}, "
        f"|V-10| = {abs(v_hit - 10.0):.2e}",
    )


def test_06_value_direction_under_reward_and_beta(reduced):
    infra, catalog = reduced
    t0 = time.perf_counter()
    seeds = (0, 1, 2)

    def mean_value(infra_, catalog_, seed):
        space = nv.build_state_space(catalog_)
        model = nv.TransitionModel(space, catalog_)
        pol = nv.value_iteration(space, model, catalog_, infra_, seed=seed)
        assert pol.converged
        return float(np.mean(pol.values))

    base = float(np.mean([mean_value(infra, catalog, s) for s in seeds]))
    catalog_q2 = tuple(
        dataclasses.replace(t, admission_reward=2.0 * t.admission_reward)
        for t in catalog
    )
    doubled = float(np.mean([mean_value(infra, catalog_q2, s) for s in seeds]))

    def with_beta(b):
        return nv.Infrastructure(
            infra.inps,
            infra.alpha,
            b,
            infra.v_base,
            infra.deployment_cost,
            link_cost=infra.link_cost,
        )

    beta_lo = float(np.mean([mean_value(with_beta(15.0), catalog, s) for s in seeds]))
    beta_hi = float(np.mean([mean_value(with_beta(30.0), catalog, s) for s in seeds]))
    elapsed = time.perf_counter() - t0
    assert doubled > base
    assert beta_hi < beta_lo
    assert elapsed < 600.0
    _report(
        6,
        "mean converged value tracks reward up and beta down",
        f"q x2: {base:.1f} -> {doubled:.1f}, beta 15 -> 30: {beta_lo:.1f} -> "
        f"{beta_hi:.1f}, {elapsed:.1f}s",
    )


@pytest.mark.slow
def test_07_policy_beats_per_slot_placement(reduced, reduced_policy):
    infra, catalog = reduced
    t0 = time.perf_counter()
    slots = 100_000
    seeds = range(100, 105)
    mdp_ratios, trellis_ratios = [], []
    for seed in seeds:
        mdp_ratios.append(
            nv.run_experiment(
                infra, catalog, "mdp", slots, seed, policy=reduced_policy
            ).admission_ratio
        )
        trellis_ratios.append(
            nv.run_experiment(infra, catalog, "trellis", slots, seed).admission_ratio
        )
    elapsed = time.perf_counter() - t0
    mean_mdp = float(np.mean(mdp_ratios))
    mean_trellis = float(np.mean(trellis_ratios))
    wins = sum(m > t for m, t in zip(mdp_ratios, trellis_ratios))
    assert mean_mdp >= mean_trellis - 0.01
    assert wins >= 3
    assert elapsed < 900.0
    _report(
        7,
        "policy admission ratio meets the scaled headline",
        f"mdp {mean_mdp:.4f} vs trellis {mean_trellis:.4f} over {slots} slots, "
        f"{wins}/5 seeds strictly better, {elapsed:.0f}s",
    )


@pytest.mark.slow
def test_08_baseline_ordering_under_scarcity(reduced):
    infra, catalog = reduced
    t0 = time.perf_counter()
    slots = 20_000
    seeds = range(100, 105)
    ratio, length = {}, {}
    for strategy in (
        "trellis",
        "min_resource",
        "min_reliability",
        "cera",
        "redundant_vnf",
    ):
        reports = [
            nv.run_experiment(infra, catalog, strategy, slots, seed) for seed in seeds
        ]
        ratio[strategy] = float(np.mean([r.admission_ratio for r in reports]))
        length[strategy] = float(
            np.mean([r.mean_admitted_chain_length for r in reports])
        )
    elapsed = time.perf_counter() - t0
    for rival in ("min_resource", "min_reliability", "cera"):
        assert ratio["trellis"] >= ratio[rival]
    assert length["redundant_vnf"] < length["trellis"]
    _report(
        8,
        "greedy trellis dominates heuristics, redundancy favors short chains",
        f"trellis {ratio['trellis']:.4f} vs mr {ratio['min_resource']:.4f} / "
        f"mrel {ratio['min_reliability']:.4f} / cera {ratio['cera']:.4f}; "
        f"chain length rvnf {length['redundant_vnf']:.3f} < "
        f"trellis {length['trellis']:.3f}, {elapsed:.0f}s",
    )


def test_09_samplers_pass_chi_square(bundled):
    infra, catalog = bundled
    n = 100_000

    rng = np.random.default_rng(12)
    width = max(len(t.arrival_pmf) for t in catalog)
    counts = np.zeros((len(catalog), width), dtype=np.int64)
    for _ in range(n):
        for t, k in enumerate(sample_arrivals(rng, catalog)):
            counts[t, k] += 1
    arrival_ps = []
    for t, stype in enumerate(catalog):
        pmf = np.asarray(stype.arrival_pmf)
        observed = counts[t, : len(pmf)]
        keep = pmf > 0
        assert observed[~keep].sum() == 0
        arrival_ps.append(stats.chisquare(observed[keep], f_exp=pmf[keep] * n).pvalue)
        assert arrival_ps[-1] > 0.01

    rng = np.random.default_rng(22)
    pool = 6
    d = catalog[0].departure_prob
    placement = nv.ServicePlacement(
        0, tuple(nv.VnfPlacement(0, None) for _ in catalog[0].vnfs)
    )
    actives = [PlacedService(0, placement, 0.0, 0.0, None) for _ in range(pool)]
    observed = np.zeros(pool + 1, dtype=np.int64)
    for _ in range(n):
        observed[len(sample_departures(rng, actives, catalog))] += 1
    pmf = np.array(
        [math.comb(pool, k) * d**k * (1 - d) ** (pool - k) for k in range(pool + 1)]
    )
    departure_p = stats.chisquare(observed, f_exp=pmf * n).pvalue
    assert departure_p > 0.01
    _report(
        9,
        "arrival and departure samplers pass chi-square",
        f"arrival p {min(arrival_ps):.3f}..{max(arrival_ps):.3f}, "
        f"departure p {departure_p:.3f}, n = {n}",
    )


def test_10_commands_are_byte_deterministic(tmp_path, capsys, monkeypatch):
    cfg = small_config_dict(slots=25, seed=5)
    runs = []
    for tag in ("first", "second"):
        d = tmp_path / tag
        d.mkdir()
        (d / "exp.json").write_text(json.dumps(cfg))
        monkeypatch.chdir(d)
        record = {}
        assert cli_main(["solve", "--config", "exp.json", "--out", "pol.json"]) == 0
        record["solve.stdout"] = capsys.readouterr().out
        assert (
            cli_main(
                [
                    "simulate", "--config", "exp.json", "--strategy", "mdp",
                    "--policy", "pol.json", "--out", "run.csv",
                ]
            )
            == 0
        )
        record["simulate.stdout"] = capsys.readouterr().out
        assert (
            cli_main(
                [
                    "compare", "--config", "exp.json",
                    "--strategies", "trellis,min_resource,cera",
                    "--seeds", "1,2", "--slots", "15", "--out", "cmp.csv",
                ]
            )
            == 0
        )
        record["compare.stdout"] = capsys.readouterr().out
        assert cli_main(["oracle", "--config", "exp.json", "--instance", "0,0"]) == 0
        record["oracle.stdout"] = capsys.readouterr().out
        for artifact in sorted(d.iterdir()):
            record[artifact.name] = artifact.read_bytes()
        runs.append(record)
    first, second = runs
    assert first.keys() == second.keys()
    for key in first:
        assert first[key] == second[key], f"output {key} differs between runs"
    _report(
        10,
        "identical config and seed reproduce byte-identical outputs",
        f"{len(first)} artifacts and stdout streams compared across "
        "solve/simulate/compare/oracle",
    )


def test_11_batch_placement_meets_the_time_budget(bundled):
    infra, catalog = bundled
    action = (2, 2, 2, 2)
    arrangement = tuple(int(x) for x in np.repeat(np.arange(len(catalog)), 2))
    snapshot = infra.capacity.copy()
    t0 = time.perf_counter()
    tp = nv.TrellisPlacement(action, arrangement, snapshot, catalog, infra)
    res = tp.run()
    elapsed = time.perf_counter() - t0
    assert res.valid
    assert len(res.services) == 8
    assert elapsed < 0.2
    _report(
        11,
        "paper-scale batch placement under 200 ms",
        f"8 services, {tp.evaluations} scorings, {elapsed * 1000:.1f} ms",
    )
