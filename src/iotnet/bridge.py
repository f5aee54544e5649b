"""Schrodinger-bridge solvers: pin both endpoint marginals of a path prior.

Given a reference law over horizon-``T`` paths and prescribed start/end
marginals, the bridge is the closest law (in relative entropy) to the prior
with those marginals.  Only the endpoint coupling moves: the prior's behaviour
between fixed endpoints is kept, so the whole problem reduces to a scaling
fixed point on an ``n x n`` endpoint kernel, handed over as logs so that
weights like ``exp(-cost/alpha)`` at small ``alpha`` never exist as floats.

Two prior representations are supported, each holding its weights as logs:

* :class:`MarkovPrior` — initial law plus step matrix/matrices; its endpoint
  kernel is the log-domain product of the step matrices
  (:func:`~iotnet.chain.log_matmul`), and the solution is returned as
  per-step transition matrices (a new Markov chain).  A start without
  initial mass has a zero kernel row, as on the path route.
* :class:`PathPrior` — explicit nonnegative weights over an enumerated path
  space; the solution is an endpoint coupling plus a reweighted path law.

Zero handling is strict: a zero weight is a ``-inf`` log entry; starts and
ends without marginal mass get ``-inf`` log potentials (support restriction),
while a ``-inf`` kernel entry between a supported start and a supported end
raises :class:`InfeasibleError` — never a NaN.  The scaling takes damped
Newton steps on the dual first, and sweeps where they stop short; it stops
when the L1 violation of the marginals is at most ``tol``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import reduce

import numpy as np

from .chain import chain_law, log_matmul, logsumexp
from .errors import ConvergenceError, InfeasibleError, ValidationError
from .network import PathSpace

_SUM_TOL = 1e-9
_SCALE_MAX = 1e30   # linear scalings above are absorbed into the log potentials


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


def _log_form(linear, log, what: str) -> np.ndarray:
    """Weights given linear or as logs, in log form (``-inf`` for a zero)."""
    if linear is not None:
        linear = np.asarray(linear, dtype=float)
        if np.any(linear < 0) or not np.all(np.isfinite(linear)):
            raise ValidationError(f"{what} must be nonnegative and finite")
        with np.errstate(divide="ignore"):
            return np.log(linear)
    log = np.asarray(log, dtype=float)
    if np.any(np.isnan(log) | (log == np.inf)):
        raise ValidationError(f"log {what} must be finite or -inf")
    return log


@dataclass(frozen=True)
class MarkovPrior:
    """Initial law plus step weights: one matrix (time-invariant) or one per step.

    Step weights are nonnegative and may be unnormalised (any positive scale
    is absorbed by the bridge).  Give them linear (``matrix``/``matrices``)
    or as one time-invariant ``log_matrix``, whose weights need not fit the
    float range; the bridge reads ``log_steps`` and where ``initial`` is zero.
    The initial law is finite, nonnegative and sums to 1 within 1e-12.
    """

    initial: np.ndarray
    matrix: np.ndarray | None = None
    matrices: tuple[np.ndarray, ...] | None = None
    log_matrix: np.ndarray | None = None
    log_steps: tuple[np.ndarray, ...] = field(init=False, repr=False)

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "initial", initial)
        if initial.ndim != 1 or not np.all(np.isfinite(initial) & (initial >= 0)):
            raise ValidationError("prior initial law must be a nonnegative "
                                  "finite vector")
        if abs(float(initial.sum()) - 1.0) > 1e-12:
            raise ValidationError(
                f"prior initial law sums to {float(initial.sum())!r}, expected 1")
        given = (self.matrix, self.matrices, self.log_matrix)
        if sum(m is not None for m in given) != 1:
            raise ValidationError("provide exactly one of matrix / matrices / "
                                  "log_matrix")
        n = initial.shape[0]
        if self.log_matrix is not None:
            steps = (_log_form(None, self.log_matrix, "step weights"),)
        else:
            linear = (self.matrix,) if self.matrix is not None else self.matrices
            steps = tuple(_log_form(M, None, "step matrices") for M in linear)
        for L in steps:
            if L.shape != (n, n):
                raise ValidationError(f"step matrix shape {L.shape}, expected {(n, n)}")
        object.__setattr__(self, "log_steps", steps)

    @property
    def n(self) -> int:
        return self.initial.shape[0]

    def log_step(self, t: int, horizon: int) -> np.ndarray:
        if self.matrices is not None:
            if len(self.matrices) != horizon:
                raise ValidationError(
                    f"time-varying prior has {len(self.matrices)} step matrices "
                    f"but horizon is {horizon}")
            return self.log_steps[t]
        return self.log_steps[0]


@dataclass(frozen=True)
class PathPrior:
    """Explicit nonnegative weights over an enumerated path space.

    Give them linear (``weights``) or as ``log_weights`` (``-inf`` for a zero
    weight), which need not fit the float range; the bridge reads only
    ``log_weights``.
    """

    path_space: PathSpace
    weights: np.ndarray | None = None
    log_weights: np.ndarray | None = None

    def __post_init__(self):
        if (self.weights is None) == (self.log_weights is None):
            raise ValidationError("provide exactly one of weights / log_weights")
        logw = _log_form(self.weights, self.log_weights, "path weights")
        object.__setattr__(self, "log_weights", logw)
        if logw.shape != (self.path_space.size,):
            raise ValidationError(
                f"weights shape {logw.shape} does not match path space size "
                f"{self.path_space.size}")
        if not np.any(logw > -np.inf):
            raise ValidationError("path prior needs at least one positive weight")


def marginalize_prior(prior: PathPrior) -> np.ndarray:
    """Log endpoint kernel of a path prior: per-pair log-sum-exp of its weights.

    Each endpoint pair is shifted by its own largest log-weight before the
    sum, so a pair with a path of positive weight gets a finite entry.
    """
    space = prior.path_space
    size = space.n * space.n
    flat = (space.starts - 1) * space.n + (space.ends - 1)
    top = np.full(size, -np.inf)
    np.maximum.at(top, flat, prior.log_weights)
    top[top == -np.inf] = 0.0
    mass = np.bincount(flat, weights=np.exp(prior.log_weights - top[flat]),
                       minlength=size)
    with np.errstate(divide="ignore"):
        return (np.log(mass) + top).reshape(space.n, space.n)


# ---------------------------------------------------------------------------
# the scaling core
# ---------------------------------------------------------------------------


@dataclass
class BridgeSolution:
    """Log potentials (``-inf`` where one vanishes), coupling and transitions.

    The coupling is ``exp(log_phihat0_i + log_kernel_ij + log_phiT_j)``;
    ``residual`` is its final L1 marginal violation.  ``iterations`` counts
    the Newton steps and the sweeps of the scaling together, ``newton_steps``
    the Newton steps alone.  ``transitions[t]`` (Markov route only) holds the
    per-step matrices of the solution chain.
    """

    log_phi0: np.ndarray
    log_phiT: np.ndarray
    log_phihat0: np.ndarray
    log_phihatT: np.ndarray
    iterations: int
    newton_steps: int
    residual: float
    endpoint_coupling: np.ndarray
    transitions: list[np.ndarray] | None = None


_NEWTON_STEPS = 200   # Newton's share of max_iter at most; the sweeps get the rest
_NEWTON_CAP = 30.0    # largest change of a potential in one Newton step, in nats


def _newton(block: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float,
            max_steps: int):
    """Damped Newton steps on the semi-dual of a finite log kernel, over its rows.

    The column log potentials ``g`` are exact for the row ones ``f`` at every
    step (one column log-sum-exp), so ``P = exp(f_i + block_ij + g_j)`` has
    column sums ``b``, and the semi-dual ``a.f + b.g`` is concave in ``f``
    with gradient ``a - r`` (``r = P.sum(1)``) and Hessian ``-H``, ``H =
    diag(r) - P diag(1/b) P^T`` (Brauer, Clason, Lorenz & Wirth 2019).  A
    step solves ``(H + mu diag(r)) d = a - r`` with the potential of the
    largest row mass pinned (the gauge), caps ``max |d|`` at 30 nats, and
    halves ``t`` from 1 down to 1e-3 until ``f + t d`` raises the semi-dual
    by Armijo's 1e-4 of ``t (a - r).d``.  ``mu`` falls tenfold (to 1e-12 at
    least) after a full step and rises a hundredfold after a shorter one:
    where the coupling splits into nearly disconnected blocks, ``H`` is
    nearly singular, and the damping and the cap keep the step finite.  The
    steps stop at an L1 row violation of ``tol``, after ``max_steps``, or
    where the line search accepts no ``t``.  Returns ``f, g, P``, that
    violation and the number of steps taken.
    """
    f = np.log(a) - logsumexp(block, axis=1)
    free = np.arange(a.size) != np.argmax(a)
    mu, steps = 1e-3, 0
    while True:
        z = block + f[:, None]
        top = z.max(axis=0)
        e = np.exp(z - top)
        scale = b / e.sum(axis=0)
        g = np.log(scale) - top
        P = e * scale
        r = P.sum(axis=1)
        residual = float(np.abs(r - a).sum())
        if residual <= tol or steps == max_steps:
            return f, g, P, residual, steps
        grad = a - r
        H = (P / b) @ -P.T
        H.flat[::a.size + 1] += (1.0 + mu) * r
        d = np.zeros(a.size)
        try:
            d[free] = np.linalg.solve(H[free][:, free], grad[free])
        except np.linalg.LinAlgError:
            return f, g, P, residual, steps
        size = np.abs(d).max()
        if not size < math.inf:
            return f, g, P, residual, steps
        if size > _NEWTON_CAP:
            d *= _NEWTON_CAP / size
        # the gain a.(t d) + b.(g(f + t d) - g), with g's change taken as
        # log1p of P's column shares: no difference of large potentials, so
        # it keeps its digits near the solution; an entry that underflowed
        # in P stays below 1e-294 after a step of at most 30 nats
        slope, lift = grad @ d, a @ d
        t = 1.0
        while t >= 1e-3:
            gain = t * lift - b @ np.log1p((np.expm1(t * d) @ P) / b)
            if gain >= 1e-4 * t * slope:
                break
            t /= 2
        else:
            return f, g, P, residual, steps
        f = f + t * d
        steps += 1
        mu = max(mu / 10.0, 1e-12) if t == 1.0 else mu * 100.0


def _sinkhorn_core(log_kernel: np.ndarray, nu0: np.ndarray, nuT: np.ndarray,
                   tol: float, max_iter: int) -> BridgeSolution:
    """Newton steps, then log-domain scaling, on the supported block of a log
    endpoint kernel.

    On supported starts ``x`` supported ends, :func:`_newton` runs first, over
    the smaller side, for at most 200 steps of ``max_iter``.  Where it stops
    short of ``tol``, sweeps continue from its potentials with the rest of
    the budget: the coupling is ``u_i exp(f_i + log_kernel_ij + g_j) v_j``,
    log potentials ``f``/``g`` absorbed into the kernel ``K``, times linear
    scalings ``u``/``v``.  A scaling above 1e30 (``inf`` where a kernel sum
    underflowed) is absorbed by an exact log-sum-exp update of its side
    (Schmitzer 2019, stabilised scaling); as ``K <= 1`` after each, no
    scaling gets far below 1e-30.  Each sweep fixes the end marginal, then
    stops once the L1 violation of the start marginal is at most ``tol``.
    The gauge has ``max log_phiT = 0``.
    """
    if not (tol > 0):
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if max_iter < 1:
        raise ValidationError(f"max_iter must be >= 1, got {max_iter}")
    rows = np.flatnonzero(nu0 > 0)
    cols = np.flatnonzero(nuT > 0)
    block = log_kernel[np.ix_(rows, cols)]
    if np.any(block == -np.inf):
        r, c = np.nonzero(block == -np.inf)
        pair = (int(rows[r[0]]) + 1, int(cols[c[0]]) + 1)
        raise InfeasibleError(
            f"prior kernel entry for endpoint pair {pair} is identically zero "
            f"while both marginals are positive there; the bridge does not exist")
    a, b = nu0[rows], nuT[cols]
    budget = min(_NEWTON_STEPS, int(max_iter))
    if rows.size <= cols.size:
        f, g, K, residual, newton_steps = _newton(block, a, b, tol, budget)
    else:
        g, f, K, residual, newton_steps = _newton(block.T, b, a, tol, budget)
        K = K.T
    u, v = np.ones(rows.size), np.ones(cols.size)
    iterations = newton_steps
    if residual > tol:
        with np.errstate(all="ignore"):   # an inf scaling is absorbed below
            for iterations in range(newton_steps + 1, int(max_iter) + 1):
                v = b / (u @ K)
                if not v.max() < _SCALE_MAX:
                    f += np.log(u)
                    g = np.log(b) - logsumexp(block + f[:, None], axis=0)
                    K = np.exp(block + f[:, None] + g)
                    u, v = np.ones(rows.size), np.ones(cols.size)
                mass = K @ v
                u_next = a / mass
                residual = float(np.abs(u - u_next) @ mass)   # = sum |u * mass - a|
                if residual <= tol:
                    break
                u = u_next
                if not u.max() < _SCALE_MAX:
                    g += np.log(v)
                    f = np.log(a) - logsumexp(block + g, axis=1)
                    K = np.exp(block + f[:, None] + g)
                    u, v = np.ones(rows.size), np.ones(cols.size)
            else:
                raise ConvergenceError(
                    f"Sinkhorn did not reach an L1 marginal violation of {tol} in "
                    f"{max_iter} iterations (final violation {residual:.3e})",
                    residual=residual)
    f, g = f + np.log(u), g + np.log(v)
    shift = g.max()
    log_phihat0, log_phiT = np.full_like(nu0, -np.inf), np.full_like(nuT, -np.inf)
    log_phihat0[rows], log_phiT[cols] = f + shift, g - shift
    coupling = np.zeros_like(log_kernel)
    coupling[np.ix_(rows, cols)] = u[:, None] * K * v
    return BridgeSolution(
        log_phi0=logsumexp(log_kernel[:, cols] + log_phiT[cols], axis=1),
        log_phiT=log_phiT, log_phihat0=log_phihat0,
        log_phihatT=logsumexp(log_kernel[rows] + log_phihat0[rows, None], axis=0),
        iterations=iterations, newton_steps=newton_steps, residual=residual,
        endpoint_coupling=coupling)


def sinkhorn_markov(prior: MarkovPrior, nu0: np.ndarray, nuT: np.ndarray,
                    horizon: int, *, tol: float = 1e-10,
                    max_iter: int = 100_000) -> BridgeSolution:
    """Bridge a Markov prior: scale its log kernel, then propagate backward.

    The log kernel is the product of the step matrices, one
    :func:`~iotnet.chain.log_matmul` per step, and ``-inf`` on the rows of
    the supported starts without initial mass.
    Backward log potentials ``log phi(t) = logsumexp_j(log M(t) + log
    phi(t+1))`` from ``log phiT`` tilt each step into the solution chain's
    transition matrix; rows whose backward potential vanishes (unreachable
    states) are left identically zero.
    """
    nu0 = _check_probability(nu0, "nu0")
    nuT = _check_probability(nuT, "nuT")
    if nu0.shape[0] != prior.n or nuT.shape[0] != prior.n:
        raise ValidationError("marginal length does not match prior dimension")
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    log_kernel = reduce(log_matmul, (prior.log_step(t, horizon)
                                     for t in range(horizon)))
    blocked = ((nu0 > 0) & (prior.initial == 0))[:, None]
    # a new array: at T=1 the kernel is the prior's own step array
    log_kernel = np.where(blocked, -np.inf, log_kernel)
    solution = _sinkhorn_core(log_kernel, nu0, nuT, tol, max_iter)
    transitions = [None] * horizon
    log_phi = solution.log_phiT  # log phi(t+1) on entry to step t
    for t in range(horizon - 1, -1, -1):
        tilted = prior.log_step(t, horizon) + log_phi
        log_phi = logsumexp(tilted, axis=1)
        transitions[t] = np.exp(tilted - np.where(log_phi > -np.inf, log_phi,
                                                  0.0)[:, None])
    solution.transitions = transitions
    return solution


def markov_path_law(solution: BridgeSolution, nu0: np.ndarray,
                    space: PathSpace) -> np.ndarray:
    """Evaluate the solution chain on an enumerated path space."""
    if solution.transitions is None:
        raise ValidationError("solution does not carry per-step transitions")
    if len(solution.transitions) != space.horizon:
        raise ValidationError("solution horizon does not match path space")
    return chain_law(nu0, solution.transitions, space.array)


def sinkhorn_path(prior: PathPrior, nu0: np.ndarray, nuT: np.ndarray, *,
                  tol: float = 1e-10, max_iter: int = 100_000) -> BridgeSolution:
    """Bridge an explicit path prior through its log endpoint kernel.

    The full path law (see :func:`path_law_from_endpoint`) reweights each
    path by its endpoints' potentials, leaving the prior's conditional
    behaviour untouched.
    """
    nu0 = _check_probability(nu0, "nu0")
    nuT = _check_probability(nuT, "nuT")
    if nu0.shape[0] != prior.path_space.n or nuT.shape[0] != prior.path_space.n:
        raise ValidationError("marginal length does not match path-space nodes")
    return _sinkhorn_core(marginalize_prior(prior), nu0, nuT, tol, max_iter)


def path_law_from_endpoint(solution: BridgeSolution, prior: PathPrior) -> np.ndarray:
    """Full path law of a path-route bridge: ``exp(log w + log phihat0[x0] + log phiT[xT])``."""
    space = prior.path_space
    return np.exp(prior.log_weights + solution.log_phihat0[space.starts - 1]
                  + solution.log_phiT[space.ends - 1])


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
