"""Shared builders for the test suite.

Small fixed infrastructures with hand-checkable costs, plus random
instance generators used by the oracle-equivalence and self-consistency
suites. Everything here is deterministic given the caller's rng.
"""

import math

import numpy as np

import nfvplace as nv


def tiny_two_inps():
    """Two single-server InPs with unit costs 2 and 1.

    beta is calibrated so the v=0.1 provider costs exactly twice the
    v=0.2 provider per unit (exp(beta * 0.1) = 2). One 1-VNF service of
    demand 5 fits either server; the cheapest reliable placement is main
    on the cost-1 server with a backup on the other (failure 0.02).
    """
    beta = math.log(2.0) / 0.1
    infra = nv.Infrastructure(
        [nv.InP(0.1, ((10,),)), nv.InP(0.2, ((10,),))],
        alpha=[1.0],
        beta=beta,
        v_base=0.2,
        deployment_cost=[[0.0], [0.0]],
    )
    svc = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.5,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (5,)),),
        arrival_pmf=(0.5, 0.5),
        admission_reward=100.0,
        sigma_max=2,
        name="tiny",
    )
    return infra, (svc,)


def reduced_setup():
    """Scarce six-server setup with a short and a long service type.

    Three providers at failure rates 0.2 / 0.1 / 0.01; the reliable one
    holds most of the capacity. With beta=1.0 the cost curve is almost
    flat, so single-server placements on the reliable provider are the
    efficient choice. The long type departs slowly (0.05) and hogs three
    servers per admission, which makes selective admission pay off.
    """
    infra = nv.Infrastructure(
        [
            nv.InP(0.2, ((10,), (10,))),
            nv.InP(0.1, ((10,), (10,))),
            nv.InP(0.01, ((20,), (20,))),
        ],
        alpha=[1.0],
        beta=1.0,
        v_base=0.2,
        deployment_cost=[[1.0], [1.0], [1.0]],
        link_cost=np.array(
            [
                [0.0, 0.1, 0.5, 0.5, 0.5, 0.5],
                [0.1, 0.0, 0.5, 0.5, 0.5, 0.5],
                [0.5, 0.5, 0.0, 0.1, 0.5, 0.5],
                [0.5, 0.5, 0.1, 0.0, 0.5, 0.5],
                [0.5, 0.5, 0.5, 0.5, 0.0, 0.1],
                [0.5, 0.5, 0.5, 0.5, 0.1, 0.0],
            ]
        ),
    )
    short = nv.ServiceType(
        failure_cap=0.021,
        departure_prob=0.5,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (5,)),),
        arrival_pmf=(0.3, 0.7),
        admission_reward=1000.0,
        sigma_max=5,
        name="short",
    )
    long = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.05,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,)), nv.VnfSpec(0, (5,))),
        arrival_pmf=(0.7, 0.3),
        admission_reward=1000.0,
        sigma_max=2,
        name="long",
    )
    return infra, (short, long)


def two_resource_setup():
    """Nine servers over three providers with two resource types, links of
    mixed cost, and three service types of one to three VNFs whose demands
    differ by resource, so a server can fit a VNF on one resource and not
    on the other."""
    servers = np.arange(9)
    link_cost = 0.1 * (np.abs(servers[:, None] - servers[None, :]) % 4)
    infra = nv.Infrastructure(
        [
            nv.InP(0.05, ((12, 20), (12, 20), (12, 20))),
            nv.InP(0.02, ((16, 12), (16, 12), (8, 30))),
            nv.InP(0.01, ((20, 20), (20, 20), (20, 20))),
        ],
        alpha=[0.6, 0.4],
        beta=10.0,
        v_base=0.1,
        deployment_cost=[[1.0, 2.0], [1.5, 1.0], [2.0, 2.5]],
        link_cost=link_cost,
    )
    specs = [
        (0.01, 2.0, ((0, (3, 5)), (1, (6, 2)))),
        (0.03, 1.0, ((1, (2, 2)),)),
        (0.005, 0.5, ((0, (4, 4)), (1, (1, 6)), (0, (5, 1)))),
    ]
    catalog = tuple(
        nv.ServiceType(
            failure_cap=cap,
            departure_prob=0.5,
            bandwidth=bandwidth,
            vnfs=tuple(nv.VnfSpec(t, d) for t, d in vnfs),
            arrival_pmf=(0.5, 0.5),
            admission_reward=100.0,
            sigma_max=2,
            name=f"r{k}",
        )
        for k, (cap, bandwidth, vnfs) in enumerate(specs)
    )
    return infra, catalog


def analytic_setup():
    """Single free server, point-mass arrivals, certain departure.

    All cost weights are zero and one unit-reward service arrives every
    slot, departing after exactly one slot. The admit-always policy then
    earns reward 1 per slot from the arrival state, so its discounted
    value is 1 / (1 - gamma) and can be checked in closed form.
    """
    infra = nv.Infrastructure(
        [nv.InP(0.01, ((10,),))],
        alpha=[0.0],
        beta=1.0,
        v_base=0.01,
        deployment_cost=[[0.0]],
    )
    svc = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=1.0,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (1,)),),
        arrival_pmf=(0.0, 1.0),
        admission_reward=1.0,
        sigma_max=1,
        name="unit",
    )
    return infra, (svc,)


def contraction_setup():
    """Two types, sigma_max 3 and lambda_max 1, with nonzero costs.

    Small enough that value iteration with a tight epsilon runs for a
    long tail of sweeps after the resource estimates have frozen, which
    is the regime where the discounted-update contraction is visible.
    """
    infra = nv.Infrastructure(
        [nv.InP(0.1, ((8,), (8,))), nv.InP(0.02, ((12,), (12,)))],
        alpha=[1.0],
        beta=2.0,
        v_base=0.1,
        deployment_cost=[[1.0], [1.0]],
    )
    a = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.3,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (3,)),),
        arrival_pmf=(0.4, 0.6),
        admission_reward=50.0,
        sigma_max=3,
        name="a",
    )
    b = nv.ServiceType(
        failure_cap=0.05,
        departure_prob=0.5,
        bandwidth=1.0,
        vnfs=(nv.VnfSpec(0, (2,)), nv.VnfSpec(0, (3,))),
        arrival_pmf=(0.5, 0.5),
        admission_reward=50.0,
        sigma_max=3,
        name="b",
    )
    return infra, (a, b)


def random_service_placement(rng, infra, catalog, max_servers=8):
    """Random placement of one random type, no server reuse inside it.

    Each VNF gets a distinct main and, with probability 1/2, a distinct
    backup; the whole service draws from one shuffled server pool so no
    server is assigned twice. Capacity is ignored on purpose: these feed
    pure reliability and cost arithmetic, not feasibility checks.
    """
    l = int(rng.integers(len(catalog)))
    svc = catalog[l]
    pool = rng.permutation(infra.num_servers)
    vnfs = []
    cursor = 0
    for _ in range(svc.num_vnfs):
        main = int(pool[cursor])
        cursor += 1
        backup = None
        if cursor < max_servers and rng.random() < 0.5:
            backup = int(pool[cursor])
            cursor += 1
        vnfs.append(nv.VnfPlacement(main, backup))
        if cursor >= max_servers:
            break
    return nv.ServicePlacement(l, tuple(vnfs))


def random_tiny_instance(rng):
    """Random instance with <= 4 servers, <= 2 services, <= 3 VNFs each.

    Small enough for exhaustive search. Reliability targets are drawn
    wide so some instances are infeasible and some trivially reliable.
    """
    num_inps = int(rng.integers(1, 3))
    inps = []
    for _ in range(num_inps):
        servers = tuple((int(rng.integers(4, 13)),) for _ in range(int(rng.integers(1, 3))))
        inps.append(nv.InP(float(rng.uniform(0.01, 0.3)), servers))
    infra = nv.Infrastructure(
        inps,
        alpha=[1.0],
        beta=float(rng.uniform(0.5, 8.0)),
        v_base=0.3,
        deployment_cost=[[float(rng.uniform(0.0, 2.0))] for _ in range(num_inps)],
    )
    types = []
    for _ in range(int(rng.integers(1, 3))):
        num_vnfs = int(rng.integers(1, 4))
        vnfs = tuple(nv.VnfSpec(0, (int(rng.integers(1, 5)),)) for _ in range(num_vnfs))
        types.append(
            nv.ServiceType(
                failure_cap=float(rng.uniform(0.01, 0.3)),
                departure_prob=0.5,
                bandwidth=1.0,
                vnfs=vnfs,
                arrival_pmf=(0.5, 0.5),
                admission_reward=100.0,
                sigma_max=2,
                name=f"t{len(types)}",
            )
        )
    catalog = tuple(types)
    count = int(rng.integers(1, 3))
    type_indices = [int(rng.integers(len(catalog))) for _ in range(count)]
    return infra, catalog, type_indices


def random_batch_inputs(rng, infra, catalog, max_per_type=2):
    """Random (action, arrangement, snapshot) triple for batch placement.

    The snapshot is drawn between empty and full so depleted servers and
    infeasible batches both occur.
    """
    while True:
        action = tuple(int(rng.integers(0, max_per_type + 1)) for _ in catalog)
        if sum(action) > 0:
            break
    expanded = [l for l, a in enumerate(action) for _ in range(a)]
    arrangement = tuple(int(x) for x in rng.permutation(expanded))
    frac = rng.uniform(0.2, 1.0)
    snapshot = np.floor(infra.capacity * frac).astype(np.int64)
    return action, arrangement, snapshot
