"""Brute-force verification tools: dense IPF and the exact transport LP."""

import numpy as np
import pytest
from scipy.optimize import linprog

from iotnet import (
    ConvergenceError,
    InfeasibleError,
    ValidationError,
    dense_ipf,
    lp_ot,
    path_costs,
)
from iotnet import fixtures

from helpers import feasible_laws, marginal_gap, objective_eval


def _scipy_reference(space, costs, nu0, nuT):
    """Independent LP solve via the HiGHS interior-point/simplex backend."""
    n = space.n
    rows = []
    rhs = []
    for node in range(n):
        row = (space.starts - 1 == node).astype(float)
        rows.append(row)
        rhs.append(nu0[node])
    for node in range(n):
        row = (space.ends - 1 == node).astype(float)
        rows.append(row)
        rhs.append(nuT[node])
    res = linprog(costs, A_eq=np.array(rows), b_eq=np.array(rhs),
                  bounds=(0, None), method="highs")
    assert res.status == 0, res.message
    return res.fun


# ---------------------------------------------------------------------------
# LP
# ---------------------------------------------------------------------------


def test_lp_matches_scipy_on_tiny(tiny):
    costs = path_costs(tiny.space, tiny.model, tiny.network)
    mine = lp_ot(tiny.space, costs, tiny.nu0, tiny.nuT)
    ref = _scipy_reference(tiny.space, costs, tiny.nu0, tiny.nuT)
    assert mine.objective == pytest.approx(ref, abs=1e-10)
    assert mine.objective == pytest.approx(float(costs @ mine.probabilities),
                                           abs=1e-12)


def test_lp_matches_scipy_on_random_problems(rng):
    for _ in range(6):
        d = fixtures.random_markov_problem(rng)
        costs = path_costs(d["space"], d["model"], d["network"])
        mine = lp_ot(d["space"], costs, d["nu0"], d["nuT"])
        ref = _scipy_reference(d["space"], costs, d["nu0"], d["nuT"])
        assert mine.objective == pytest.approx(ref, abs=1e-9)


def test_lp_solution_is_feasible(tiny):
    costs = path_costs(tiny.space, tiny.model, tiny.network)
    sol = lp_ot(tiny.space, costs, tiny.nu0, tiny.nuT)
    assert np.all(sol.probabilities >= -1e-12)
    assert marginal_gap(tiny.space, sol.probabilities, tiny.nu0, tiny.nuT) < 1e-10


def test_lp_lower_bounds_every_feasible_law(tiny, rng):
    costs = path_costs(tiny.space, tiny.model, tiny.network)
    sol = lp_ot(tiny.space, costs, tiny.nu0, tiny.nuT)
    for law in feasible_laws(tiny.space, tiny.nu0, tiny.nuT, rng, 50):
        assert float(costs @ law) >= sol.objective - 1e-9


def test_lp_detects_infeasible_marginals(tiny):
    costs = path_costs(tiny.space, tiny.model, tiny.network)
    space = tiny.space
    # demand sits only on node 3 but every path from node 2 is barred by a
    # zero start target: total end mass at 3 cannot reach 1.0 -> catch the
    # simpler case of support mismatch instead: nu0 mass on a node that never
    # starts a path.
    import iotnet
    sub = iotnet.enumerate_paths(tiny.network, 2, [1], [3], tiny.model)
    subcosts = path_costs(sub, tiny.model, tiny.network)
    bad_nu0 = np.array([0.5, 0.5, 0.0])
    with pytest.raises(InfeasibleError):
        lp_ot(sub, subcosts, bad_nu0, np.array([0.0, 0.0, 1.0]))


def test_lp_rejects_nonfinite_costs(tiny):
    costs = path_costs(tiny.space, tiny.model, tiny.network).copy()
    costs[0] = np.inf
    with pytest.raises(ValidationError):
        lp_ot(tiny.space, costs, tiny.nu0, tiny.nuT)


def test_lp_handles_degenerate_point_marginals(tiny):
    costs = path_costs(tiny.space, tiny.model, tiny.network)
    nu0 = np.array([1.0, 0.0, 0.0])
    nuT = np.array([0.0, 0.0, 1.0])
    sol = lp_ot(tiny.space, costs, nu0, nuT)
    # cheapest 1 -> 3 two-step route: 1 ->(1.0) 2 ->(1.0) 3
    assert sol.objective == pytest.approx(2.0, abs=1e-10)


# ---------------------------------------------------------------------------
# IPF
# ---------------------------------------------------------------------------


def test_ipf_hits_marginals(tiny, rng):
    w = rng.uniform(0.1, 1.0, size=tiny.space.size)
    sol = dense_ipf(tiny.space, w, tiny.nu0, tiny.nuT, tol=1e-12)
    assert marginal_gap(tiny.space, sol.probabilities, tiny.nu0, tiny.nuT) < 1e-11


def test_ipf_preserves_conditional_structure(tiny, rng):
    """IPF only rescales start/end groups; within-pair ratios never change."""
    w = rng.uniform(0.1, 1.0, size=tiny.space.size)
    sol = dense_ipf(tiny.space, w, tiny.nu0, tiny.nuT, tol=1e-13)
    space = tiny.space
    mask = (space.starts == 1) & (space.ends == 2)
    a = sol.probabilities[mask] / sol.probabilities[mask].sum()
    b = w[mask] / w[mask].sum()
    assert np.max(np.abs(a - b)) < 1e-12


def test_ipf_zero_support_raises(tiny):
    w = np.ones(tiny.space.size)
    w[tiny.space.ends == 3] = 0.0
    with pytest.raises(InfeasibleError):
        dense_ipf(tiny.space, w, tiny.nu0, tiny.nuT)


def test_ipf_respects_zero_targets(tiny, rng):
    w = rng.uniform(0.1, 1.0, size=tiny.space.size)
    nu0 = np.array([0.6, 0.0, 0.4])
    sol = dense_ipf(tiny.space, w, nu0, tiny.nuT, tol=1e-12)
    assert sol.probabilities[tiny.space.starts == 2].sum() == 0.0


def test_ipf_convergence_error_carries_residual(tiny, rng):
    w = rng.uniform(0.1, 1.0, size=tiny.space.size)
    with pytest.raises(ConvergenceError) as err:
        dense_ipf(tiny.space, w, tiny.nu0, tiny.nuT, tol=1e-14, max_iter=1)
    assert err.value.residual > 0


# ---------------------------------------------------------------------------
# objective evaluation
# ---------------------------------------------------------------------------


def test_objective_eval_terms(tiny):
    costs = path_costs(tiny.space, tiny.model, tiny.network)
    q = np.full(tiny.space.size, 1.0 / tiny.space.size)
    p = q.copy()
    cost_term, kl_term, total = objective_eval(p, costs, q, 2.0)
    assert kl_term == pytest.approx(0.0, abs=1e-14)
    assert cost_term == pytest.approx(float(costs @ p), abs=1e-12)
    assert total == pytest.approx(cost_term, abs=1e-12)

    p2 = np.zeros(tiny.space.size)
    p2[0] = 1.0
    _, kl2, total2 = objective_eval(p2, costs, q, 2.0)
    assert kl2 == pytest.approx(np.log(tiny.space.size), abs=1e-12)
    assert total2 == pytest.approx(costs[0] + 2.0 * np.log(tiny.space.size),
                                   abs=1e-12)
