"""Best Markov approximation of a non-Markov path prior, in log space.

Fits initial scores ``m0(x0)`` and step scores ``m(i,j)`` so that
``m0(x0) + sum_t m(x_t, x_{t+1})`` matches ``log w(x)`` over the prior's
positive-weight paths, in least squares.  Zero-weight paths are excluded
(their log is -inf and they carry no information); transitions never observed
on a positive path get no unknown and come back with zero weight.

The fit has an exact gauge: adding a constant to every step score and
subtracting ``T`` times it from the initial scores leaves every fitted value
unchanged (every path makes exactly ``T`` steps).  The normal equations are
therefore solved with a pseudoinverse, which picks the unique least-squares
solution orthogonal to the nullspace (minimum norm).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bridge import MarkovPrior, PathPrior, markov_path_law, sinkhorn_markov
from .errors import ValidationError
from .imitation import IOTProblem, TransportPlan, plan_from_law, solve_iot


@dataclass
class MarkovFit:
    """Fitted log-scores and fit diagnostics.

    ``residual`` is the squared log-space misfit.  ``relative_objective_error``
    is filled by :func:`fit_objective_error` after re-solving with the fitted
    chain (``None`` until then).
    """

    n: int
    horizon: int
    initial_log: dict[int, float]
    step_log: dict[tuple[int, int], float]
    residual: float
    relative_objective_error: float | None = None
    gauge_component: float = field(default=0.0, repr=False)


def fit_markov(prior: PathPrior) -> MarkovFit:
    """Least-squares log-space fit of a Markov chain to a path prior."""
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
    ncol = len(start_nodes) + len(transitions)

    A = np.zeros((arr.shape[0], ncol))
    for r in range(arr.shape[0]):
        A[r, col_of_start[int(arr[r, 0])]] = 1.0
        for t in range(space.horizon):
            A[r, col_of_step[(int(arr[r, t]), int(arr[r, t + 1]))]] += 1.0

    # normal equations with pseudoinverse: (A^T A)^+ A^T b is the minimum-norm
    # least-squares solution, killing the constant-shift gauge
    gram = A.T @ A
    theta = np.linalg.pinv(gram) @ (A.T @ b)
    residual = float(np.sum((A @ theta - b) ** 2))

    gauge = np.concatenate([np.full(len(start_nodes), -float(space.horizon)),
                            np.ones(len(transitions))])
    gauge_component = float(theta @ gauge) / float(gauge @ gauge)

    initial_log = {v: float(theta[col_of_start[v]]) for v in start_nodes}
    step_log = {pair: float(theta[col_of_step[pair]]) for pair in transitions}
    return MarkovFit(n=space.n, horizon=space.horizon, initial_log=initial_log,
                     step_log=step_log, residual=residual,
                     gauge_component=gauge_component)


def fitted_prior(fit: MarkovFit) -> MarkovPrior:
    """The fitted scores as a Markov prior with log step weights.

    Unseen starts/transitions get zero weight; the initial vector is
    exponentiated after a shift by its top score and normalised (global
    prior scale is gauge).
    """
    init = np.full(fit.n, -np.inf)
    for v, s in fit.initial_log.items():
        init[v - 1] = s
    init = np.exp(init - init.max())
    mat = np.full((fit.n, fit.n), -np.inf)
    for (i, j), s in fit.step_log.items():
        mat[i - 1, j - 1] = s
    return MarkovPrior(initial=init / init.sum(), log_matrix=mat)


def markov_plan_from_fit(fit: MarkovFit, problem: IOTProblem, *,
                         tol: float = 1e-10,
                         max_iter: int = 100_000) -> TransportPlan:
    """Bridge the fitted chain to the problem's marginals.

    Objective terms are evaluated against the ORIGINAL cost model and target,
    so the result is directly comparable with the exact plan (and never beats
    it: the fitted plan is feasible but generally suboptimal).
    """
    space = problem.path_space
    if fit.horizon != space.horizon or fit.n != space.n:
        raise ValidationError("fit dimensions do not match the problem")
    prior = fitted_prior(fit)
    solution = sinkhorn_markov(prior, problem.nu0, problem.nuT, space.horizon,
                               tol=tol, max_iter=max_iter)
    law = markov_path_law(solution, problem.nu0, space)
    return plan_from_law(problem, law, solution)


def fit_objective_error(fit: MarkovFit, problem: IOTProblem,
                        exact_plan: TransportPlan | None = None, *,
                        tol: float = 1e-10, max_iter: int = 100_000) -> float:
    """Relative objective gap of the fitted plan vs the exact solution.

    ``|obj(fitted) - obj(exact)| / |obj(exact)|`` on the original objective;
    stored on the fit and returned.
    """
    if exact_plan is None:
        exact_plan = solve_iot(problem, tol=tol, max_iter=max_iter)
    approx_plan = markov_plan_from_fit(fit, problem, tol=tol, max_iter=max_iter)
    exact_total = exact_plan.objective.total
    if exact_total == 0.0:
        raise ValidationError("exact objective is zero; relative error undefined")
    error = abs(approx_plan.objective.total - exact_total) / abs(exact_total)
    fit.relative_objective_error = error
    return error
