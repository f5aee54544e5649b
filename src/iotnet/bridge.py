"""Schrodinger-bridge solvers: pin both endpoint marginals of a path prior.

Given a reference law over horizon-``T`` paths and prescribed start/end
marginals, the bridge is the closest law (in relative entropy) to the prior
with those marginals.  Only the endpoint coupling moves: the prior's behaviour
between fixed endpoints is kept, so the whole problem reduces to a Sinkhorn
fixed point on an ``n x n`` endpoint kernel.

Two prior representations are supported:

* :class:`MarkovPrior` — initial law plus step matrix/matrices; the kernel is
  the ordered product of the step matrices, and the solution is returned as
  per-step transition matrices (a new Markov chain).
* :class:`PathPrior` — explicit nonnegative weights over an enumerated path
  space; the kernel is the endpoint marginalisation of the weights, and the
  solution is an endpoint coupling plus a reweighted path law.

Zero handling is strict: ``0/phi`` with zero target mass is 0 (support
restriction), while a positive target over an exactly zero denominator raises
:class:`InfeasibleError` — never a NaN.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, ValidationError
from .network import PathSpace

_SUM_TOL = 1e-9


def _check_probability(vec: np.ndarray, name: str) -> np.ndarray:
    vec = np.asarray(vec, dtype=float)
    if vec.ndim != 1:
        raise ValidationError(f"{name} must be a vector")
    if np.any(vec < 0) or not np.all(np.isfinite(vec)):
        raise ValidationError(f"{name} must be nonnegative and finite")
    total = float(vec.sum())
    if not math.isclose(total, 1.0, rel_tol=0.0, abs_tol=_SUM_TOL):
        raise ValidationError(f"{name} sums to {total!r}, expected 1")
    return vec


@dataclass(frozen=True)
class MarkovPrior:
    """Initial law plus step matrix (time-invariant) or matrices (one per step).

    Step matrices are nonnegative and may be unnormalised (any positive scale
    is absorbed by the bridge); the initial law must sum to 1 within 1e-12.
    """

    initial: np.ndarray
    matrix: np.ndarray | None = None
    matrices: tuple[np.ndarray, ...] | None = None

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "initial", initial)
        if initial.ndim != 1 or np.any(initial < 0):
            raise ValidationError("prior initial law must be a nonnegative vector")
        if abs(float(initial.sum()) - 1.0) > 1e-12:
            raise ValidationError(
                f"prior initial law sums to {float(initial.sum())!r}, expected 1")
        if (self.matrix is None) == (self.matrices is None):
            raise ValidationError("provide exactly one of matrix / matrices")
        n = initial.shape[0]
        mats = (self.matrix,) if self.matrix is not None else self.matrices
        checked = []
        for M in mats:
            M = np.asarray(M, dtype=float)
            if M.shape != (n, n):
                raise ValidationError(f"step matrix shape {M.shape}, expected {(n, n)}")
            if np.any(M < 0) or not np.all(np.isfinite(M)):
                raise ValidationError("step matrices must be nonnegative and finite")
            checked.append(M)
        if self.matrix is not None:
            object.__setattr__(self, "matrix", checked[0])
        else:
            object.__setattr__(self, "matrices", tuple(checked))

    @property
    def n(self) -> int:
        return self.initial.shape[0]

    def step_matrix(self, t: int, horizon: int) -> np.ndarray:
        if self.matrices is not None:
            if len(self.matrices) != horizon:
                raise ValidationError(
                    f"time-varying prior has {len(self.matrices)} step matrices "
                    f"but horizon is {horizon}")
            return self.matrices[t]
        return self.matrix

    def endpoint_kernel(self, horizon: int) -> np.ndarray:
        """Ordered product of the step matrices: kernel[i,j] = mass i -> j in T steps."""
        if horizon < 1:
            raise ValidationError(f"horizon must be >= 1, got {horizon}")
        A = self.step_matrix(0, horizon)
        for t in range(1, horizon):
            A = A @ self.step_matrix(t, horizon)
        return A


@dataclass(frozen=True)
class PathPrior:
    """Explicit nonnegative weights over an enumerated path space."""

    path_space: PathSpace
    weights: np.ndarray

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        object.__setattr__(self, "weights", w)
        if w.shape != (self.path_space.size,):
            raise ValidationError(
                f"weights shape {w.shape} does not match path space size "
                f"{self.path_space.size}")
        if np.any(w < 0) or not np.all(np.isfinite(w)):
            raise ValidationError("path weights must be nonnegative and finite")
        if not np.any(w > 0):
            raise ValidationError("path prior needs at least one positive weight")


def marginalize_prior(prior: PathPrior) -> np.ndarray:
    """Endpoint marginal matrix of a path prior."""
    space = prior.path_space
    flat = (space.starts - 1) * space.n + (space.ends - 1)
    kernel = np.bincount(flat, weights=prior.weights,
                         minlength=space.n * space.n).reshape(space.n, space.n)
    return kernel


# ---------------------------------------------------------------------------
# Sinkhorn core
# ---------------------------------------------------------------------------


@dataclass
class BridgeSolution:
    """Converged potentials plus whichever transition representation applies.

    Markov route: ``transitions[t]`` holds the per-step matrices of the
    solution chain.  Path route: ``endpoint_coupling`` holds the optimal mass
    per (start, end) pair.
    """

    phi0: np.ndarray
    phiT: np.ndarray
    phihat0: np.ndarray
    phihatT: np.ndarray
    iterations: int
    residual: float
    residual_history: np.ndarray
    transitions: list[np.ndarray] | None = None
    endpoint_coupling: np.ndarray | None = None


def _check_kernel_support(kernel: np.ndarray, nu0: np.ndarray,
                          nuT: np.ndarray) -> None:
    """Pairwise positivity of the kernel over the marginal supports."""
    rows = np.nonzero(nu0 > 0)[0]
    cols = np.nonzero(nuT > 0)[0]
    block = kernel[np.ix_(rows, cols)]
    if np.any(block == 0):
        r, c = np.nonzero(block == 0)
        pair = (int(rows[r[0]]) + 1, int(cols[c[0]]) + 1)
        raise InfeasibleError(
            f"prior kernel entry for endpoint pair {pair} is identically zero "
            f"while both marginals are positive there; the bridge does not exist")


def _sinkhorn_core(kernel: np.ndarray, nu0: np.ndarray, nuT: np.ndarray,
                   tol: float, max_iter: int,
                   phi0_init: np.ndarray | None) -> tuple:
    """Alternating boundary updates on the endpoint kernel.

    Fixed point: ``phi0 = kernel @ phiT``, ``phihatT = kernel.T @ phihat0``,
    ``phi0*phihat0 = nu0``, ``phiT*phihatT = nuT``.  Stops when the sup-norm
    change of ``phi0`` drops to ``tol``.
    """
    if not (tol > 0):
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    n = kernel.shape[0]
    if phi0_init is None:
        phi0 = np.ones(n, dtype=float)
    else:
        phi0 = np.asarray(phi0_init, dtype=float).copy()
        if phi0.shape != (n,) or np.any(phi0 <= 0):
            raise ValidationError("phi0_init must be a strictly positive n-vector")

    sup0 = nu0 > 0
    supT = nuT > 0
    history: list[float] = []
    iterations = 0
    residual = math.inf
    kernel_t = np.ascontiguousarray(kernel.T)
    # On-support potentials stay strictly positive throughout: the pairwise
    # positivity precheck gives kernel[i,j] > 0 on supp(nu0) x supp(nuT), so
    # each update is a positive combination of positive terms.  Off-support
    # entries are pinned to exact zero by the masked divisions.
    for iterations in range(1, int(max_iter) + 1):
        phihat0 = np.divide(nu0, phi0, out=np.zeros(n), where=sup0)
        phihatT = kernel_t @ phihat0
        phiT = np.divide(nuT, phihatT, out=np.zeros(n), where=supT)
        phi0_new = kernel @ phiT
        residual = float(np.max(np.abs(phi0_new - phi0)))
        history.append(residual)
        phi0 = phi0_new
        if residual <= tol:
            break
    else:
        raise ConvergenceError(
            f"Sinkhorn did not reach residual {tol} in {max_iter} iterations "
            f"(final residual {residual:.3e})", residual=residual, history=history)

    # one consistency pass so the returned quadruple satisfies the boundary
    # system at the converged phi0
    phihat0 = np.divide(nu0, phi0, out=np.zeros(n), where=sup0)
    phihatT = kernel_t @ phihat0
    phiT = np.divide(nuT, phihatT, out=np.zeros(n), where=supT)
    if (not np.all(np.isfinite(phi0)) or np.any(phihatT[supT] <= 0)
            or np.any(phi0[sup0] <= 0)):
        raise InfeasibleError(
            "Sinkhorn potentials left the positive cone (underflow or "
            "infeasible marginals for this prior support)")
    return phi0, phiT, phihat0, phihatT, iterations, residual, np.asarray(history)


def sinkhorn_markov(prior: MarkovPrior, nu0: np.ndarray, nuT: np.ndarray,
                    horizon: int, *, tol: float = 1e-10,
                    max_iter: int = 100_000,
                    phi0_init: np.ndarray | None = None) -> BridgeSolution:
    """Bridge a Markov prior: boundary Sinkhorn, then backward propagation.

    Interior potentials: ``phi(t) = M(t) phi(t+1)`` backward from ``phiT``.
    The solution chain's step matrices are the potential-tilted priors; rows
    whose backward potential vanishes (unreachable states) are left
    identically zero.
    """
    nu0 = _check_probability(nu0, "nu0")
    nuT = _check_probability(nuT, "nuT")
    if nu0.shape[0] != prior.n or nuT.shape[0] != prior.n:
        raise ValidationError("marginal length does not match prior dimension")
    kernel = prior.endpoint_kernel(horizon)
    _check_kernel_support(kernel, nu0, nuT)
    phi0, phiT, phihat0, phihatT, iters, residual, history = _sinkhorn_core(
        kernel, nu0, nuT, tol, max_iter, phi0_init)

    transitions = [None] * horizon
    phi = phiT  # phi(t+1) on entry to step t
    for t in range(horizon - 1, -1, -1):
        M = prior.step_matrix(t, horizon)
        rowsum = M @ phi
        transitions[t] = np.divide(M * phi[None, :], rowsum[:, None],
                                   out=np.zeros_like(M), where=rowsum[:, None] > 0)
        phi = rowsum

    return BridgeSolution(phi0=phi0, phiT=phiT, phihat0=phihat0, phihatT=phihatT,
                          iterations=iters, residual=residual,
                          residual_history=history, transitions=transitions)


def markov_path_law(solution: BridgeSolution, nu0: np.ndarray,
                    space: PathSpace) -> np.ndarray:
    """Evaluate the solution chain on an enumerated path space."""
    if solution.transitions is None:
        raise ValidationError("solution does not carry per-step transitions")
    if len(solution.transitions) != space.horizon:
        raise ValidationError("solution horizon does not match path space")
    arr = space.array - 1
    law = np.asarray(nu0, dtype=float)[arr[:, 0]].copy()
    for t, Pi in enumerate(solution.transitions):
        law *= Pi[arr[:, t], arr[:, t + 1]]
    return law


def sinkhorn_path(prior: PathPrior, nu0: np.ndarray, nuT: np.ndarray, *,
                  tol: float = 1e-10, max_iter: int = 100_000,
                  phi0_init: np.ndarray | None = None) -> BridgeSolution:
    """Bridge an explicit path prior through its endpoint marginalisation.

    The kernel is the ``n x n`` endpoint mass matrix; the converged coupling is
    ``outer(phihat0, phiT)`` times the kernel, and the full path law (see
    :func:`path_law_from_endpoint`) reweights each path by its endpoints'
    potentials, leaving the prior's conditional behaviour untouched.
    """
    nu0 = _check_probability(nu0, "nu0")
    nuT = _check_probability(nuT, "nuT")
    if nu0.shape[0] != prior.path_space.n or nuT.shape[0] != prior.path_space.n:
        raise ValidationError("marginal length does not match path-space nodes")
    kernel = marginalize_prior(prior)
    _check_kernel_support(kernel, nu0, nuT)
    phi0, phiT, phihat0, phihatT, iters, residual, history = _sinkhorn_core(
        kernel, nu0, nuT, tol, max_iter, phi0_init)
    coupling = phihat0[:, None] * kernel * phiT[None, :]
    return BridgeSolution(phi0=phi0, phiT=phiT, phihat0=phihat0, phihatT=phihatT,
                          iterations=iters, residual=residual,
                          residual_history=history,
                          endpoint_coupling=coupling)


def path_law_from_endpoint(solution: BridgeSolution, prior: PathPrior) -> np.ndarray:
    """Full path law of a path-route bridge: weights * phihat0[x0] * phiT[xT]."""
    if solution.endpoint_coupling is None:
        raise ValidationError("solution does not carry an endpoint coupling")
    space = prior.path_space
    return (prior.weights
            * solution.phihat0[space.starts - 1]
            * solution.phiT[space.ends - 1])


def path_kl(p: np.ndarray, weights: np.ndarray) -> float:
    """Relative entropy ``sum p log(p/weights)`` with 0 log 0 = 0.

    Support violations (mass where the reference weight is exactly zero) give
    ``inf`` and a warning listing the first few offending path indices.
    """
    p = np.asarray(p, dtype=float)
    weights = np.asarray(weights, dtype=float)
    if p.shape != weights.shape:
        raise ValidationError("shape mismatch between law and reference weights")
    pos = p > 0
    if np.any(weights[pos] == 0):
        bad = np.nonzero(pos & (weights == 0))[0]
        warnings.warn(
            f"law puts mass on {bad.size} path(s) outside the reference support "
            f"(first indices {bad[:5].tolist()}); relative entropy is infinite",
            RuntimeWarning, stacklevel=2)
        return math.inf
    # log p - log w, not log(p/w): p/w underflows to 0 for subnormal p
    return float(np.sum(p[pos] * (np.log(p[pos]) - np.log(weights[pos]))))
