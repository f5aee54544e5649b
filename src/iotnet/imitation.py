"""Imitation-regularized optimal transport: cost plus divergence-to-target.

The problem: move mass from ``nu0`` to ``nuT`` over horizon-``T`` paths,
minimising ``E_P[C] + alpha * KL(P || Q)`` where ``Q`` is a target behaviour
to imitate.  Both terms fold into a single Schrodinger bridge against a tilted
prior, which is how :func:`solve_iot` computes the optimum:

* Markov route (per-edge costs, Markov target, no blending): bridge the
  Markov prior whose log step matrix is the Gibbs edge log-weights
  ``-c(i,j)/alpha`` plus the log of the target's step weights, so a path's
  prior log-weight is ``-C(x)/alpha + log Q(x)`` up to its start term, which
  the bridge absorbs where it is positive; a start without target mass has
  no prior row, as on the path route.  No strong-connectivity requirement:
  the bridge exists whenever the ``T``-step kernel links every supported
  start to every supported end.  No path enumeration either: the plan is the
  solution chain, whose edge usage and objective are ``n x n`` contractions
  (:func:`chain_plan`); its path arrays are built only when read.
* Path route (everything else, including rule-based non-additive costs and
  blended targets): build explicit path log-weights ``-C(x)/alpha + log
  Q(x)`` and bridge the explicit prior through its log endpoint kernel.

Both routes stay in the log domain up to the scaling itself, so no
``exp(-C/alpha)`` can underflow however small ``alpha`` is.  The target is
held the same way: the path route reads ``log Q`` (:func:`expand_target`)
from the target to the objective, so a path whose target weight is far
below the space's largest keeps its weight.  Start and end factors on the
prior are gauge: the bridge's potentials absorb them, so the plan is
unchanged (tested).  Blending replaces the target by ``(1-beta) Q + beta *
uniform``, taken in logs (:func:`blend_log_law`); a blended Markov target is
no longer Markov, so any ``beta > 0`` forces the path route.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property, reduce
from itertools import repeat

import numpy as np

from .bridge import (BridgeSolution, MarkovPrior, PathPrior, markov_path_law,
                     path_kl, path_law_from_endpoint, sinkhorn_markov,
                     sinkhorn_path)
from .chain import log_matmul, logs, logsumexp, min_plus, row_sums
from .errors import InfeasibleError, ValidationError
from .fileio import naming
from .network import (MARKOV, CostModel, Network, PathSpace, cost_matrix,
                      enumerate_paths, log_weight_matrix, path_costs,
                      path_vector, require_edges)

__all__ = [
    "ImitationTarget", "IOTProblem", "ObjectiveTerms", "TransportPlan",
    "blend_log_law", "chain_plan", "expand_target",
    "imitation_prior_markov", "imitation_prior_paths", "plan_from_law",
    "solve_iot", "edge_usage_from_law",
    "evaluate_objective_terms",
]


@dataclass(frozen=True)
class ImitationTarget:
    """Behaviour to imitate: Markov step weights, a path table, or neither.

    ``initial``/``matrix`` describe a Markov target (nonnegative step weights
    over existing edges, such as risk scores; rows need not be normalised;
    finite start weights, uniform ``1/n`` by default).  ``rows``/``probs`` is
    a path-form target: node rows, one per path, and their nonnegative
    masses.  Neither is the uniform target.  Whatever its form, the problem
    reads a target as the log of a probability law on its path space
    (:func:`expand_target`).  ``blend`` mixes that law with the uniform one.
    """

    initial: np.ndarray | None = None
    matrix: np.ndarray | None = None
    rows: np.ndarray | None = None
    probs: np.ndarray | None = None
    blend: float = 0.0

    def __post_init__(self):
        if not (0.0 <= self.blend <= 1.0):
            raise ValidationError(f"blend must be in [0,1], got {self.blend}")
        if self.matrix is not None and self.rows is not None:
            raise ValidationError("provide at most one of matrix / rows")
        if self.matrix is not None:
            mat = np.asarray(self.matrix, dtype=float)
            if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
                raise ValidationError("target matrix must be square")
            if np.any(mat < 0) or not np.all(np.isfinite(mat)):
                raise ValidationError("target matrix must be nonnegative and finite")
            object.__setattr__(self, "matrix", mat)
            n = mat.shape[0]
            init = (np.full(n, 1.0 / n) if self.initial is None
                    else np.asarray(self.initial, dtype=float))
            if init.shape != (n,) or not np.all(np.isfinite(init) & (init >= 0)):
                raise ValidationError("target initial law must be a nonnegative "
                                      "finite vector matching the matrix dimension")
            object.__setattr__(self, "initial", init)
        elif self.rows is not None or self.probs is not None:
            rows, probs = np.asarray(self.rows), np.asarray(self.probs, dtype=float)
            if (rows.ndim != 2 or not np.issubdtype(rows.dtype, np.integer)
                    or probs.shape != (len(rows),)):
                raise ValidationError("a path table is an integer matrix of node "
                                      "rows and one prob per row")
            if np.any(probs < 0) or not np.all(np.isfinite(probs)):
                raise ValidationError("path probs must be nonnegative and finite")
            if not np.any(probs > 0):
                raise ValidationError("path probs must carry some mass")
            object.__setattr__(self, "rows", rows)
            object.__setattr__(self, "probs", probs)

    @classmethod
    def markov(cls, matrix, initial=None, *, blend: float = 0.0) -> "ImitationTarget":
        return cls(initial=initial, matrix=matrix, blend=blend)

    @classmethod
    def paths(cls, rows, probs, *, blend: float = 0.0) -> "ImitationTarget":
        """A path table: ``rows`` of nodes, one per path, and their masses."""
        return cls(rows=rows, probs=probs, blend=blend)

    @classmethod
    def uniform(cls) -> "ImitationTarget":
        """Pure maximum-entropy transport: target the uniform law on the paths."""
        return cls()

    @property
    def is_markov(self) -> bool:
        return self.matrix is not None


@dataclass(frozen=True, eq=False)
class IOTProblem:
    """One imitation-regularized transport problem over ``horizon`` steps.

    Its paths are the horizon-step walks over the network (on a Markov cost
    model, over the cost table's pairs) from ``nu0``'s support to ``nuT``'s:
    :attr:`space` lists them, once per problem and only when read, so the
    Markov route, which solves without paths, lists none.  A Markov cost
    table may price only edges of the network.
    """

    network: Network
    cost_model: CostModel
    nu0: np.ndarray
    nuT: np.ndarray
    alpha: float
    target: ImitationTarget
    horizon: int

    def __post_init__(self):
        if not (self.alpha > 0 and math.isfinite(self.alpha)):
            raise ValidationError(f"alpha must be positive and finite, got {self.alpha}")
        if self.horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {self.horizon}")
        n = self.network.n
        for name in ("nu0", "nuT"):
            vec = np.asarray(getattr(self, name), dtype=float)
            if vec.shape != (n,):
                raise ValidationError(f"{name} must have length {n}")
            object.__setattr__(self, name, vec)
        if self.target.is_markov and self.target.matrix.shape[0] != n:
            size = self.target.matrix.shape[0]
            raise ValidationError(f"target matrix is {size}x{size} but the problem "
                                  f"has {n} nodes")
        if self.cost_model.mode == MARKOV:
            require_edges(self.network, "cost table", sorted(self.cost_model.edge_costs))

    @cached_property
    def space(self) -> PathSpace:
        """The problem's path space: the walks between the marginals' supports."""
        return enumerate_paths(self.network, self.horizon,
                               np.flatnonzero(self.nu0) + 1,
                               np.flatnonzero(self.nuT) + 1, self.cost_model)

    @cached_property
    def target_log_law(self) -> np.ndarray:
        """The target's log law on :attr:`space`, before blending."""
        return expand_target(self.target, self.space)

    @cached_property
    def target_log_probs(self) -> np.ndarray:
        """``log Q`` of the objective: :attr:`target_log_law`, blended (at
        ``blend`` 0, itself)."""
        return blend_log_law(self.target_log_law, self.target.blend)


@dataclass(frozen=True)
class ObjectiveTerms:
    expected_cost: float
    kl_to_target: float
    total: float


@dataclass(frozen=True, eq=False)
class TransportPlan:
    """Solved plan: objective decomposition, edge usage, and the path arrays.

    ``edge_usage`` is the ``(T, n, n)`` array whose entry ``[t, i - 1, j - 1]``
    is the mass moved along edge ``(i, j)`` at step ``t``; each step's masses
    sum to 1.  ``path_law``, ``path_costs`` and ``target_log_probs`` are
    ``(N,)`` arrays aligned with ``path_space``.  The path route computes
    them while solving; on the Markov route, which solves without paths, each
    is built on first access (the space by :attr:`IOTProblem.space`, the law
    from the solution chain).  ``transition_matrices`` (a ``(T, n, n)``
    array) is populated on the Markov route only.
    """

    problem: IOTProblem
    bridge: BridgeSolution
    objective: ObjectiveTerms
    edge_usage: np.ndarray

    @property
    def alpha(self) -> float:
        return self.problem.alpha

    @property
    def transition_matrices(self) -> np.ndarray | None:
        return self.bridge.transitions

    @property
    def path_space(self) -> PathSpace:
        return self.problem.space

    @cached_property
    def path_law(self) -> np.ndarray:
        return markov_path_law(self.bridge, self.problem.nu0, self.path_space)

    @cached_property
    def path_costs(self) -> np.ndarray:
        return path_costs(self.path_space, self.problem.cost_model,
                          self.problem.network)

    @property
    def target_log_probs(self) -> np.ndarray:
        return self.problem.target_log_probs


def blend_log_law(log_q: np.ndarray, beta: float) -> np.ndarray:
    """Log of the convex blend with the uniform law, ``log((1-beta) q + beta
    / N)``, as ``logaddexp(log1p(-beta) + log q, log(beta / N))``; ``log_q``
    itself at ``beta`` 0."""
    if not (0.0 <= beta <= 1.0):
        raise ValidationError(f"beta must be in [0,1], got {beta}")
    if beta == 0.0:
        return log_q
    with np.errstate(divide="ignore"):   # beta 1 keeps none of q
        keep = np.log1p(-beta)
    return np.logaddexp(keep + log_q, np.log(beta / log_q.shape[0]))


def expand_target(target: ImitationTarget, space: PathSpace) -> np.ndarray:
    """The target's log law on every path of the space, before blending
    (:attr:`IOTProblem.target_log_probs` blends it).

    A Markov target adds its log start and step weights along each path
    (:func:`~iotnet.chain.row_sums`) and subtracts their log-sum-exp, so no
    path's weight leaves the float range at any scale (a space without mass
    stays all ``-inf``, which the bridge refuses); a path table is aligned on
    the space by :func:`~iotnet.network.path_vector`, which refuses a row
    outside it, and its logs taken; the uniform target is ``log(1 / N)``.
    Each is a log probability law on the space whatever the weights' scale;
    :func:`chain_plan` normalises the chain's KL the same way.
    """
    if target.is_markov:
        if target.initial.shape != (space.n,):
            raise ValidationError(f"Markov target has {target.initial.size} nodes "
                                  f"but the path space has {space.n}")
        log_q = row_sums(logs(target.matrix), space.array, logs(target.initial))
        total = logsumexp(log_q, axis=0)
        return log_q - total if total > -np.inf else log_q
    if target.rows is None:
        return np.full(space.size, np.log(1.0 / space.size))
    if target.rows.shape[1] != space.horizon + 1:
        raise ValidationError(f"horizon {target.rows.shape[1] - 1} != problem "
                              f"horizon {space.horizon}")
    return logs(path_vector(space, target.rows, target.probs, "target"))


def imitation_prior_markov(model: CostModel, alpha: float,
                           target: ImitationTarget) -> MarkovPrior:
    """Markov prior of the tilted problem: Gibbs weights (x) target, step by step.

    The log step matrix is ``-cost/alpha`` on the edges plus the log of the
    target's step weights; a cost-table pair outside the target's nodes is a
    :class:`ValidationError`.  The initial law is the target's, normalised;
    the bridge reads only its zeros, and one without mass is infeasible.
    """
    if not target.is_markov:
        raise ValidationError("markov prior construction needs a Markov target")
    if target.blend != 0.0:
        raise ValidationError("blended targets are not Markov; use the path route")
    step = log_weight_matrix(model, alpha, target.matrix.shape[0]) + logs(target.matrix)
    total = float(target.initial.sum())
    if total <= 0:
        raise InfeasibleError("target initial law carries no mass")
    return MarkovPrior(initial=target.initial / total, log_steps=step)


def imitation_prior_paths(space: PathSpace, costs: np.ndarray, log_q: np.ndarray,
                          alpha: float) -> PathPrior:
    """Explicit tilted prior with log-weights ``-C(x)/alpha + log q(x)``.

    ``costs`` and the target's log law ``log_q`` are aligned with the space;
    a path without target mass (``log_q`` ``-inf``) gets ``-inf``.
    """
    log_q = np.asarray(log_q, dtype=float)
    if log_q.shape != (space.size,) or np.shape(costs) != (space.size,):
        raise ValidationError("costs and log q must align with the path space")
    logw = -costs / alpha + log_q
    if not np.any(logw > -np.inf):
        raise InfeasibleError("target q puts no mass on any feasible path")
    return PathPrior(path_space=space, log_weights=logw)


def edge_usage_from_law(space: PathSpace, law: np.ndarray) -> np.ndarray:
    """Aggregate a path law into the ``(T, n, n)`` per-step edge masses.

    Entry ``[t, i - 1, j - 1]`` is the mass of the paths stepping ``i -> j``
    at step ``t``.  One weighted ``bincount`` per step adds those masses in
    path order, as a loop over paths would.
    """
    law = np.asarray(law, dtype=float)
    arr, n = space.array, space.n
    usage = np.empty((space.horizon, n, n))
    for t in range(space.horizon):
        flat = arr[:, t] * n + arr[:, t + 1] - (n + 1)  # (i - 1) * n + (j - 1)
        usage[t] = np.bincount(flat, weights=law, minlength=n * n).reshape(n, n)
    return usage


def evaluate_objective_terms(law: np.ndarray, costs: np.ndarray,
                             log_q: np.ndarray, alpha: float) -> ObjectiveTerms:
    cost = float(law @ costs)
    div = path_kl(law, log_q)
    total = cost + alpha * div if math.isfinite(div) else math.inf
    return ObjectiveTerms(expected_cost=cost, kl_to_target=div, total=total)


def plan_from_law(problem: IOTProblem, law: np.ndarray,
                  solution: BridgeSolution, *,
                  costs: np.ndarray | None = None) -> TransportPlan:
    """Assemble the plan of a path law, priced under ``problem``.

    ``costs`` are the problem's path costs, computed here unless the caller
    already has them.
    """
    space = problem.space
    if costs is None:
        costs = path_costs(space, problem.cost_model, problem.network)
    plan = TransportPlan(
        problem=problem, bridge=solution,
        objective=evaluate_objective_terms(law, costs, problem.target_log_probs,
                                           problem.alpha),
        edge_usage=edge_usage_from_law(space, law))
    # the path arrays are known: fill the lazy fields
    plan.__dict__.update(path_law=law, path_costs=costs)
    return plan


def chain_plan(problem: IOTProblem, solution: BridgeSolution) -> TransportPlan:
    """Assemble the plan of a Markov-route bridge from its chain, without paths.

    Edge usage is a forward pass: ``usage[t] = mu_t[:, None] * Pi_t`` and
    ``mu_{t+1} = usage[t].sum(0)`` from ``mu_0 = nu0``.  The chain's path law
    is ``nu0(x0) prod_t Pi_t`` and the target's ``init(x0) prod_t M / Z``,
    so the divergence is read off the chain: ``KL = sum nu0 (log nu0 - log
    init) + sum_t usage[t] (log Pi_t - log M) + log Z`` over the used
    entries, with no difference of near-equal totals to lose digits at small
    ``alpha``.  ``Z`` is the target's mass on the walks over the cost table
    between the supports, as :func:`expand_target` normalises it: its start
    weights on ``nu0``'s support carried through its masked step weights by
    one log-domain pass (:func:`~iotnet.chain.log_matmul` on a one-row
    start), summed over ``nuT``'s support.
    """
    nu0, n, init = problem.nu0, problem.nu0.shape[0], problem.target.initial
    usage = np.empty((problem.horizon, n, n))
    mu = nu0
    for t, Pi in enumerate(solution.transitions):
        usage[t] = mu[:, None] * Pi
        mu = usage[t].sum(axis=0)
    cost = cost_matrix(problem.cost_model, n)
    # the chain never steps off the cost table, where the cost is inf
    expected = float(np.sum(usage * np.where(np.isfinite(cost), cost, 0.0)))
    start, (t, i, j) = nu0 > 0, np.nonzero(usage)
    kl = float(nu0[start] @ (np.log(nu0[start]) - np.log(init[start]))
               + usage[t, i, j] @ (np.log(solution.transitions[t, i, j])
                                   - np.log(problem.target.matrix[i, j])))
    # + log Z, the target's mass on the walks between the supports
    mass = np.where(start, logs(init), -np.inf)[None]
    step = np.where(np.isfinite(cost), logs(problem.target.matrix), -np.inf)
    mass = reduce(log_matmul, repeat(step, problem.horizon), mass)[0]
    kl += float(logsumexp(mass[problem.nuT > 0], axis=0))
    objective = ObjectiveTerms(expected_cost=expected, kl_to_target=kl,
                               total=expected + problem.alpha * kl)
    return TransportPlan(problem=problem, bridge=solution, objective=objective,
                         edge_usage=usage)


def _largest_chain_cost(problem: IOTProblem) -> float:
    """The largest cost of a horizon-step path from ``nu0``'s support to
    ``nuT``'s, by a min-plus pass over the negated step costs (``inf`` off the
    table): the largest of the path route's costs, added in the same order,
    as negation commutes with rounding (``-inf`` where no path runs)."""
    steps = cost_matrix(problem.cost_model, problem.nu0.size)
    steps = np.where(np.isfinite(steps), -steps, np.inf)
    start = np.where(problem.nu0 > 0, 0.0, np.inf)[None]
    least = reduce(min_plus, repeat(steps, problem.horizon), start)
    return -float(least[0, problem.nuT > 0].min())


def _check_cost_scale(largest: float, alpha: float) -> None:
    """Refuse an ``alpha`` at which the largest path cost over ``alpha``
    overflows: the path's prior weight would read as zero."""
    if largest / alpha < math.inf:
        return
    smallest = largest / sys.float_info.max
    if not largest / smallest < math.inf:
        smallest = math.nextafter(smallest, math.inf)
    raise ValidationError(
        f"alpha {alpha!r} is too small for path costs up to {largest!r}: cost / "
        f"alpha overflows; the smallest alpha that keeps it finite is {smallest!r}")


def solve_iot(problem: IOTProblem, *, force_path: bool = False,
              tol: float = 1e-10, max_iter: int = 100_000) -> TransportPlan:
    """Solve the imitation-regularized transport problem.

    Route selection: the Markov route runs when the cost model is Markov, the
    target is Markov-form, and there is no blending; ``force_path`` overrides
    it for cross-validation.  Both routes produce the same plan on their
    common domain (tested to 1e-8 total variation).  The Markov route
    enumerates no path: its plan is a chain (:func:`chain_plan`).
    """
    markov_route = (problem.cost_model.mode == MARKOV
                    and problem.target.is_markov
                    and problem.target.blend == 0.0
                    and not force_path)
    if markov_route:
        _check_cost_scale(_largest_chain_cost(problem), problem.alpha)
        prior = imitation_prior_markov(problem.cost_model, problem.alpha,
                                       problem.target)
        with naming(f"alpha {problem.alpha!r}"):   # the bridge does not know it
            solution = sinkhorn_markov(prior, problem.nu0, problem.nuT,
                                       problem.horizon, tol=tol, max_iter=max_iter)
        return chain_plan(problem, solution)
    space = problem.space
    costs = path_costs(space, problem.cost_model, problem.network)
    _check_cost_scale(float(costs.max(initial=0.0)), problem.alpha)
    prior = imitation_prior_paths(space, costs, problem.target_log_probs,
                                  problem.alpha)
    with naming(f"alpha {problem.alpha!r}"):
        solution = sinkhorn_path(prior, problem.nu0, problem.nuT,
                                 tol=tol, max_iter=max_iter)
    law = path_law_from_endpoint(solution, prior)
    return plan_from_law(problem, law, solution, costs=costs)
