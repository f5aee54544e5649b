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
from .chain import table
from .errors import ValidationError
from .imitation import IOTProblem, TransportPlan, plan_from_law, solve_iot


@dataclass
class MarkovFit:
    """Fitted log-scores and fit diagnostics.

    ``initial_log`` (``(n,)``) and ``step_log`` (``(n, n)``) are the start and
    step scores by ``node - 1``, ``-inf`` where no positive-weight path starts
    or steps.  ``residual`` is the squared log-space misfit.
    ``relative_objective_error`` is filled by :func:`fit_objective_error`
    after re-solving with the fitted chain (``None`` until then).
    """

    n: int
    horizon: int
    initial_log: np.ndarray
    step_log: np.ndarray
    residual: float
    relative_objective_error: float | None = None
    gauge_component: float = field(default=0.0, repr=False)


def normal_equations(col: np.ndarray, b: np.ndarray,
                     size: int) -> tuple[np.ndarray, np.ndarray]:
    """``A.T @ A`` and ``A.T @ b`` of the design matrix ``A`` whose row ``p``
    counts the columns listed in ``col[p]``, without forming ``A``.

    ``(A.T @ A)[r, c]`` counts the pairs of positions of one row holding
    ``r`` and ``c``, so it is a ``bincount`` over those pairs (integers, so
    exact); ``(A.T @ b)[c]`` adds ``b[p]`` once per position holding ``c``.
    """
    pairs = (col[:, :, None] * size + col[:, None, :]).ravel()
    gram = np.bincount(pairs, minlength=size * size).reshape(size, size)
    rhs = np.bincount(col.ravel(), weights=np.repeat(b, col.shape[1]),
                      minlength=size)
    return gram.astype(float), rhs


def fit_markov(prior: PathPrior) -> MarkovFit:
    """Least-squares log-space fit of a Markov chain to a path prior."""
    space = prior.path_space
    keep = np.nonzero(prior.log_weights > -np.inf)[0]
    arr = space.array[keep]
    b = prior.log_weights[keep]

    n, m = space.n, arr.shape[0]
    # the (n+1) x (n+1) score table first, so its keys below fit int64
    scores = table((n + 1) ** 2, -np.inf, f"a chain of {n} nodes")
    # a virtual node 0 before every path makes its start a step 0 -> x0; step
    # i -> j is keyed i * (n + 1) + j, so the sorted keys are the start
    # columns, then the step columns in (i, j) order
    prev = np.column_stack([np.zeros(m, dtype=np.int64), arr[:, :-1]])
    cols, col = np.unique((prev * (n + 1) + arr).ravel(), return_inverse=True)
    col = col.reshape(m, space.horizon + 1)

    # normal equations with pseudoinverse: (A^T A)^+ A^T b is the minimum-norm
    # least-squares solution, killing the constant-shift gauge
    gram, rhs = normal_equations(col, b, cols.size)
    theta = np.linalg.pinv(gram) @ rhs
    residual = float(np.sum((theta[col].sum(axis=1) - b) ** 2))

    gauge = np.where(cols <= n, -float(space.horizon), 1.0)
    gauge_component = float(theta @ gauge) / float(gauge @ gauge)

    scores[cols] = theta
    scores = scores.reshape(n + 1, n + 1)
    return MarkovFit(n=n, horizon=space.horizon, initial_log=scores[0, 1:].copy(),
                     step_log=scores[1:, 1:].copy(), residual=residual,
                     gauge_component=gauge_component)


def fitted_prior(fit: MarkovFit) -> MarkovPrior:
    """The fitted scores as a Markov prior with log step weights.

    Unseen starts/transitions get zero weight; the initial vector is
    exponentiated after a shift by its top score and normalised (global
    prior scale is gauge).
    """
    init = np.exp(fit.initial_log - fit.initial_log.max())
    return MarkovPrior(initial=init / init.sum(), log_steps=fit.step_log)


def markov_plan_from_fit(fit: MarkovFit, problem: IOTProblem, *,
                         tol: float = 1e-10,
                         max_iter: int = 100_000) -> TransportPlan:
    """Bridge the fitted chain to the problem's marginals.

    Objective terms are evaluated against the ORIGINAL cost model and target,
    so the result is directly comparable with the exact plan (and never beats
    it: the fitted plan is feasible but generally suboptimal).
    """
    space = problem.space
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
