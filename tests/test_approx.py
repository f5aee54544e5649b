"""Markov approximation of non-Markov path priors."""

import numpy as np
import pytest

from iotnet import (
    ImitationTarget,
    InfeasibleError,
    IOTProblem,
    ValidationError,
    expand_target,
    path_costs,
    solve_iot,
)
from iotnet import fixtures
from iotnet.approx import (
    fit_markov,
    fit_objective_error,
    fitted_prior,
    markov_plan_from_fit,
    normal_equations,
)
from iotnet.bridge import (
    MarkovPrior,
    PathPrior,
    markov_path_law,
    sinkhorn_markov,
)
from iotnet.chain import logs

from helpers import tv


def _chain_weights(space, init, mat):
    w = init[space.array[:, 0] - 1].copy()
    for t in range(space.horizon):
        w *= mat[space.array[:, t] - 1, space.array[:, t + 1] - 1]
    return w


def _ruled_prior(synth30, alpha=80.0):
    space, costs = synth30["space"], synth30["costs"]
    q = np.full(space.size, 1.0 / space.size)
    w = np.exp(-(costs - costs.min()) / alpha) * q
    return PathPrior(path_space=space, log_weights=logs(w))


# ---------------------------------------------------------------------------
# exactly-Markov inputs
# ---------------------------------------------------------------------------


def test_exactly_markov_prior_recovers_with_zero_residual(rng):
    for _ in range(5):
        d = fixtures.random_markov_problem(rng)
        space = d["space"]
        w = _chain_weights(space, d["target_initial"], d["target_matrix"])
        fit = fit_markov(PathPrior(path_space=space, log_weights=logs(w)))
        assert fit.residual < 1e-10


def test_exactly_markov_prior_reproduces_the_plan(rng):
    for _ in range(5):
        d = fixtures.random_markov_problem(rng)
        space = d["space"]
        init, mat = d["target_initial"], d["target_matrix"]
        w = _chain_weights(space, init, mat)
        fit = fit_markov(PathPrior(path_space=space, log_weights=logs(w)))
        solA = sinkhorn_markov(MarkovPrior(initial=init, log_steps=logs(mat)),
                               d["nu0"], d["nuT"], space.horizon, tol=1e-12)
        solB = sinkhorn_markov(fitted_prior(fit), d["nu0"], d["nuT"],
                               space.horizon, tol=1e-12)
        lawA = markov_path_law(solA, d["nu0"], space)
        lawB = markov_path_law(solB, d["nu0"], space)
        assert tv(lawA, lawB) < 1e-8


def test_fit_is_gauge_free(rng):
    """The minimum-norm solve leaves no component along the shift gauge."""
    d = fixtures.random_markov_problem(rng)
    space = d["space"]
    w = _chain_weights(space, d["target_initial"], d["target_matrix"])
    fit = fit_markov(PathPrior(path_space=space, log_weights=logs(w)))
    assert abs(fit.gauge_component) < 1e-10


def test_gauge_shifted_priors_fit_to_one_plan(rng):
    """Scaling the prior globally changes scores, not the fitted bridge."""
    d = fixtures.random_markov_problem(rng)
    space = d["space"]
    w = _chain_weights(space, d["target_initial"], d["target_matrix"])
    fitA = fit_markov(PathPrior(path_space=space, log_weights=logs(w)))
    fitB = fit_markov(PathPrior(path_space=space, log_weights=logs(w * 37.5)))
    solA = sinkhorn_markov(fitted_prior(fitA), d["nu0"], d["nuT"],
                           space.horizon, tol=1e-12)
    solB = sinkhorn_markov(fitted_prior(fitB), d["nu0"], d["nuT"],
                           space.horizon, tol=1e-12)
    assert tv(markov_path_law(solA, d["nu0"], space),
              markov_path_law(solB, d["nu0"], space)) < 1e-10


def _dict_era_fit(prior):
    """The per-path double loop and column dicts that ``fit_markov`` replaced,
    returning the scores as node-keyed dicts."""
    space = prior.path_space
    keep = np.nonzero(prior.log_weights > -np.inf)[0]
    arr = space.array[keep]
    b = prior.log_weights[keep]
    start_nodes = sorted({int(v) for v in arr[:, 0]})
    transitions = sorted({(int(arr[r, t]), int(arr[r, t + 1]))
                          for r in range(arr.shape[0])
                          for t in range(space.horizon)})
    col_of_start = {v: k for k, v in enumerate(start_nodes)}
    col_of_step = {pair: len(start_nodes) + k for k, pair in enumerate(transitions)}
    A = np.zeros((arr.shape[0], len(start_nodes) + len(transitions)))
    for r in range(arr.shape[0]):
        A[r, col_of_start[int(arr[r, 0])]] = 1.0
        for t in range(space.horizon):
            A[r, col_of_step[(int(arr[r, t]), int(arr[r, t + 1]))]] += 1.0
    theta = np.linalg.pinv(A.T @ A) @ (A.T @ b)
    residual = float(np.sum((A @ theta - b) ** 2))
    gauge = np.concatenate([np.full(len(start_nodes), -float(space.horizon)),
                            np.ones(len(transitions))])
    gauge_component = float(theta @ gauge) / float(gauge @ gauge)
    initial = {v: float(theta[col_of_start[v]]) for v in start_nodes}
    steps = {pair: float(theta[col_of_step[pair]]) for pair in transitions}
    return initial, steps, residual, gauge_component


def test_fit_matches_the_dict_era_loop(rng, synth30):
    # the right-hand side A.T @ b is a bincount now, which adds the same terms
    # in another order than the matrix product: scores agree to 1e-9, and the
    # unseen starts and steps (-inf) exactly
    priors = [_ruled_prior(synth30)]
    for _ in range(4):
        d = fixtures.random_markov_problem(rng)
        w = _chain_weights(d["space"], d["target_initial"], d["target_matrix"])
        w *= rng.random(w.size)
        w[rng.random(w.size) < 0.3] = 0.0   # unseen starts and steps
        if w.any():
            priors.append(PathPrior(path_space=d["space"], log_weights=logs(w)))
    for prior in priors:
        fit = fit_markov(prior)
        initial, steps, residual, gauge_component = _dict_era_fit(prior)
        n = prior.path_space.n
        want_initial, want_steps = np.full(n, -np.inf), np.full((n, n), -np.inf)
        for v, score in initial.items():
            want_initial[v - 1] = score
        for (i, j), score in steps.items():
            want_steps[i - 1, j - 1] = score
        for got, want in ((fit.initial_log, want_initial),
                          (fit.step_log, want_steps)):
            seen = want > -np.inf
            assert np.array_equal(got > -np.inf, seen)
            assert np.abs(got[seen] - want[seen]).max() <= 1e-9
        assert fit.residual == pytest.approx(residual, rel=1e-9, abs=1e-9)
        assert fit.gauge_component == pytest.approx(gauge_component, abs=1e-9)


def test_normal_equations_equal_the_dense_design_matrix(tiny, rng):
    # tiny has self-loops, so a path such as 1 > 1 > 1 takes one step twice
    # and its design row holds a count of 2, not a 0/1 entry
    space = tiny.space
    prev = np.column_stack([np.zeros(space.size, dtype=np.int64),
                            space.array[:, :-1]])
    cols, col = np.unique((prev * (space.n + 1) + space.array).ravel(),
                          return_inverse=True)
    col = col.reshape(space.size, space.horizon + 1)
    A = np.zeros((space.size, cols.size))
    np.add.at(A, (np.arange(space.size)[:, None], col), 1.0)
    assert A.max() == 2.0
    b = rng.normal(size=space.size)
    gram, rhs = normal_equations(col, b, cols.size)
    assert np.array_equal(gram, A.T @ A)
    assert np.abs(rhs - A.T @ b).max() <= 1e-12


def test_fit_rejects_empty_support(tiny):
    with pytest.raises(ValidationError):
        PathPrior(path_space=tiny.space, log_weights=logs(np.zeros(tiny.space.size)))


# ---------------------------------------------------------------------------
# genuinely non-Markov inputs
# ---------------------------------------------------------------------------


def test_ruled_prior_is_genuinely_non_markov(synth30):
    fit = fit_markov(_ruled_prior(synth30))
    assert fit.residual > 1.0


def test_fit_objective_error_equals_direct_recomputation(synth30):
    problem = IOTProblem(network=synth30["fx"].network,
                         cost_model=synth30["fx"].ruled, horizon=synth30["fx"].horizon,
                         nu0=synth30["nu0"], nuT=synth30["nuT"], alpha=80.0,
                         target=ImitationTarget.uniform())
    exact = solve_iot(problem)
    fit = fit_markov(_ruled_prior(synth30))
    err = fit_objective_error(fit, problem, exact)
    assert fit.relative_objective_error == err
    approx_plan = markov_plan_from_fit(fit, problem)
    ref = abs(approx_plan.objective.total - exact.objective.total) / abs(
        exact.objective.total)
    assert err == pytest.approx(ref, abs=1e-14)


def test_fitted_plan_never_beats_the_exact_one(synth30):
    problem = IOTProblem(network=synth30["fx"].network,
                         cost_model=synth30["fx"].ruled, horizon=synth30["fx"].horizon,
                         nu0=synth30["nu0"], nuT=synth30["nuT"], alpha=80.0,
                         target=ImitationTarget.uniform())
    exact = solve_iot(problem)
    fit = fit_markov(_ruled_prior(synth30))
    approx_plan = markov_plan_from_fit(fit, problem)
    assert approx_plan.objective.total >= exact.objective.total - 1e-9
    # and it is still feasible
    from helpers import marginal_gap
    assert marginal_gap(approx_plan.path_space, approx_plan.path_law, synth30["nu0"],
                        synth30["nuT"]) < 1e-8


def test_fitted_chain_refuses_a_start_it_never_takes(tiny):
    """No positive prior path starts at node 3, where ``nu0`` is positive: the
    fitted chain has no start weight there, so it has no bridge."""
    costs = path_costs(tiny.space, tiny.model, tiny.network)
    w = np.where(tiny.space.starts == 3, 0.0, np.exp(-costs / 0.5))
    fit = fit_markov(PathPrior(path_space=tiny.space, log_weights=logs(w)))
    assert fit.initial_log[2] == -np.inf
    problem = IOTProblem(network=tiny.network, cost_model=tiny.model,
                         horizon=tiny.space.horizon, nu0=tiny.nu0, nuT=tiny.nuT,
                         alpha=0.5, target=ImitationTarget.uniform())
    with pytest.raises(InfeasibleError, match="identically zero"):
        markov_plan_from_fit(fit, problem)


def test_fit_dimensions_must_match_problem(tiny, synth30):
    fit = fit_markov(_ruled_prior(synth30))
    problem = IOTProblem(network=tiny.network, cost_model=tiny.model,
                         horizon=tiny.space.horizon, nu0=tiny.nu0, nuT=tiny.nuT,
                         alpha=1.0,
                         target=ImitationTarget.uniform())
    with pytest.raises(ValidationError):
        markov_plan_from_fit(fit, problem)
