"""Schrodinger-bridge solvers: pin both endpoint marginals of a path prior.

Given a reference law over horizon-``T`` paths and prescribed start/end
marginals, the bridge is the closest law (in relative entropy) to the prior
with those marginals.  Only the endpoint coupling moves: the prior's behaviour
between fixed endpoints is kept, so the whole problem reduces to a scaling
fixed point on an ``n x n`` endpoint kernel, handed over as logs so that
weights like ``exp(-cost/alpha)`` at small ``alpha`` never exist as floats.

Two prior representations are supported, each holding its weights as logs
(``-inf`` for a zero), in one form each; linear weights exist only in prior
files (:func:`~iotnet.fileio.load_prior` takes their logs):

* :class:`MarkovPrior` — initial law plus log step weights, one table or one
  per step; its endpoint kernel is the log-domain product of the steps
  (:func:`~iotnet.chain.log_matmul`), and the solution is returned as
  per-step transition matrices (a new Markov chain).  A start without
  initial mass has a zero kernel row, as on the path route.
* :class:`PathPrior` — log weights over an enumerated path space; the
  solution is an endpoint coupling plus a reweighted path law.

Zero handling is strict: a zero weight is a ``-inf`` log entry; starts and
ends without marginal mass get ``-inf`` log potentials (support restriction),
while a ``-inf`` kernel entry between a supported start and a supported end
raises :class:`InfeasibleError` — never a NaN.  The scaling takes damped
Newton steps on the dual, on a ladder of kernel scales from a block that
spans at most 300 nats up to the kernel itself; it stops when the L1
violation of the marginals is at most ``tol``.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .chain import at_step, log_matmul, logsumexp, logs, row_sums, table
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


def _log_weights(log, what: str) -> np.ndarray:
    """Log weights as a float array: finite, or ``-inf`` for a zero weight."""
    log = np.asarray(log, dtype=float)
    if np.any(np.isnan(log) | (log == np.inf)):
        raise ValidationError(f"log {what} must be finite or -inf")
    return log


@dataclass(frozen=True)
class MarkovPrior:
    """Initial law plus log step weights: one ``(n, n)`` table serving every
    step, or a ``(T, n, n)`` stack of one per step (as
    :func:`~iotnet.chain.at_step` reads them).

    Step weights may be unnormalised (any positive scale is absorbed by the
    bridge) and need not fit the float range; the bridge reads them and
    where ``initial`` is zero.  The initial law is linear: finite,
    nonnegative and summing to 1 within 1e-12.
    """

    initial: np.ndarray
    log_steps: np.ndarray

    def __post_init__(self):
        initial = np.asarray(self.initial, dtype=float)
        object.__setattr__(self, "initial", initial)
        if initial.ndim != 1 or not np.all(np.isfinite(initial) & (initial >= 0)):
            raise ValidationError("prior initial law must be a nonnegative "
                                  "finite vector")
        if abs(float(initial.sum()) - 1.0) > 1e-12:
            raise ValidationError(
                f"prior initial law sums to {float(initial.sum())!r}, expected 1")
        n = initial.shape[0]
        steps = _log_weights(self.log_steps, "step weights")
        if steps.ndim not in (2, 3) or steps.shape[-2:] != (n, n):
            shape = steps.shape[1:] if steps.ndim == 3 else steps.shape
            raise ValidationError(f"step matrix shape {shape}, expected {(n, n)}")
        object.__setattr__(self, "log_steps", steps)

    @property
    def n(self) -> int:
        return self.initial.shape[0]


@dataclass(frozen=True)
class PathPrior:
    """Log weights over an enumerated path space (``-inf`` for a zero
    weight), which need not fit the float range."""

    path_space: PathSpace
    log_weights: np.ndarray

    def __post_init__(self):
        logw = _log_weights(self.log_weights, "path weights")
        object.__setattr__(self, "log_weights", logw)
        if logw.shape != (self.path_space.size,):
            raise ValidationError(
                f"weights shape {logw.shape} does not match path space size "
                f"{self.path_space.size}")
        if not np.any(logw > -np.inf):
            raise ValidationError("path prior needs at least one positive weight")

    @cached_property
    def pair_sums(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Each path's flat endpoint pair ``(x0 - 1) * n + (xT - 1)``, its
        weight shifted by its pair's largest log-weight, and per pair that
        shift (0 without a path of positive weight) and the shifted sum."""
        space = self.path_space
        size = space.n * space.n
        flat = (space.starts - 1) * space.n + (space.ends - 1)
        top = np.full(size, -np.inf)
        np.maximum.at(top, flat, self.log_weights)
        top[top == -np.inf] = 0.0
        shifted = np.exp(self.log_weights - top[flat])
        return flat, shifted, top, np.bincount(flat, weights=shifted, minlength=size)


def marginalize_prior(prior: PathPrior) -> np.ndarray:
    """Log endpoint kernel of a path prior: per-pair log-sum-exp of its weights.

    Each endpoint pair is shifted by its own largest log-weight before the
    sum, so a pair with a path of positive weight gets a finite entry.
    """
    _, _, top, mass = prior.pair_sums
    n = prior.path_space.n
    return (logs(mass) + top).reshape(n, n)


# ---------------------------------------------------------------------------
# the scaling core
# ---------------------------------------------------------------------------


@dataclass
class BridgeSolution:
    """Log potentials (``-inf`` where one vanishes), coupling and transitions.

    The coupling is ``exp(log_phihat0_i + log_kernel_ij + log_phiT_j)``;
    ``residual`` is its final L1 marginal violation and ``iterations`` the
    Newton steps of the scaling.  ``transitions`` (Markov route only) is the
    ``(T, n, n)`` array of the solution chain's per-step matrices.
    """

    log_phi0: np.ndarray
    log_phiT: np.ndarray
    log_phihat0: np.ndarray
    log_phihatT: np.ndarray
    iterations: int
    residual: float
    endpoint_coupling: np.ndarray
    transitions: np.ndarray | None = None


_NEWTON_CAP = 30.0    # largest change of a potential in one Newton step, in nats
_RUNG_SPAN = 300.0    # nats the first rung's block spans at most
_RUNG_TOL = 1e-6      # L1 violation at which a rung before the last stops
_FLOOR = 1e-14        # violations below this times the rung's span are float noise
_STALL = 20           # steps at that floor without halving the violation stop a rung


def _newton(block: np.ndarray, a: np.ndarray, b: np.ndarray, tol: float,
            max_steps: int):
    """Damped Newton steps on the semi-dual of a finite log kernel, over its
    rows, on a ladder of kernel scales.

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
    nearly singular, and the damping and the cap keep the step finite.

    The steps run on the block with each row shifted to a largest entry of
    0, so the potentials stay of the order of its ``span`` (the largest row
    span) whatever offset the kernel carries, and on its scaled copies ``lam
    * block``: ``lam_0 = min(1, 300 / span)``, then ``lam_(k+1) = min(1, 10
    lam_k)``, each rung from the last one's ``f`` times ``lam_(k+1) / lam_k``
    (epsilon-scaling, Schmitzer 2019); a block that spans at most 300 nats
    takes one rung.  A rung stops at an L1 row violation of 1e-6 (``tol``
    on the last rung, ``lam = 1``), where the line search accepts no ``t``,
    or at the float floor: after 20 steps that leave the violation at most
    1e-14 times the rung's span without halving the smallest one yet.  A
    rung before the last that stops at its float floor hands its ``f`` to
    the last rung directly: the rungs between have higher floors, so they
    could only climb to the same refusal.  At most ``max_steps`` are taken
    over all rungs.  Returns the last rung's ``f, g, P``, its violation and
    the number of steps taken.
    """
    shift = block.max(axis=1)    # put back into f on return
    block = block - shift[:, None]
    span = float(-block.min())
    lam = _RUNG_SPAN / max(span, _RUNG_SPAN)
    f = np.log(a) - logsumexp(lam * block, axis=1)
    free = np.arange(a.size) != np.argmax(a)
    steps = 0
    while True:
        scaled, goal = lam * block, tol if lam == 1.0 else _RUNG_TOL
        mu, best, stalled = 1e-3, math.inf, 0
        while True:
            z = scaled + f[:, None]
            top = z.max(axis=0)
            e = np.exp(z - top)
            scale = b / e.sum(axis=0)
            g = np.log(scale) - top
            P = e * scale
            r = P.sum(axis=1)
            residual = float(np.abs(r - a).sum())
            if residual <= best / 2:
                best, stalled = residual, 0
            elif residual <= _FLOOR * lam * span:
                stalled += 1
            if residual <= goal or steps == max_steps or stalled == _STALL:
                break
            grad = a - r
            H = (P / b) @ -P.T
            H.flat[::a.size + 1] += (1.0 + mu) * r
            d = np.zeros(a.size)
            try:
                d[free] = np.linalg.solve(H[free][:, free], grad[free])
            except np.linalg.LinAlgError:
                break
            size = np.abs(d).max()
            if not size < math.inf:
                break
            if size > _NEWTON_CAP:
                d *= _NEWTON_CAP / size
            # the gain a.(t d) + b.(g(f + t d) - g), with g's change taken as
            # log1p of P's column shares: no difference of large potentials,
            # so it keeps its digits near the solution; an entry that
            # underflowed in P stays below 1e-294 after a step of at most 30 nats
            slope, lift = grad @ d, a @ d
            t = 1.0
            while t >= 1e-3:
                gain = t * lift - b @ np.log1p((np.expm1(t * d) @ P) / b)
                if gain >= 1e-4 * t * slope:
                    break
                t /= 2
            else:
                break
            f = f + t * d
            steps += 1
            mu = max(mu / 10.0, 1e-12) if t == 1.0 else mu * 100.0
        if lam == 1.0:
            return f - shift, g, P, residual, steps
        # past a rung's float floor the rungs up to the last have higher ones
        up = 1.0 if stalled == _STALL else min(1.0, 10 * lam)
        f, lam = f * (up / lam), up


def _sinkhorn_core(log_kernel: np.ndarray, nu0: np.ndarray, nuT: np.ndarray,
                   tol: float, max_iter: int) -> BridgeSolution:
    """Newton steps on a ladder of kernel scales, on the supported block of a
    log endpoint kernel.

    On supported starts ``x`` supported ends, :func:`_newton` runs over the
    smaller side, with ``max_iter`` steps over all its rungs.  Where it
    stops short of ``tol`` (the budget spent, or potentials too far apart
    for floats to resolve the violation), :class:`ConvergenceError` names
    the violation reached and the steps taken.  The gauge has ``max
    log_phiT = 0``.
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
    if rows.size <= cols.size:
        f, g, P, residual, steps = _newton(block, a, b, tol, int(max_iter))
    else:
        g, f, P, residual, steps = _newton(block.T, b, a, tol, int(max_iter))
        P = P.T
    if residual > tol:
        raise ConvergenceError(
            f"Sinkhorn stopped at an L1 marginal violation of {residual:.3e} after "
            f"{steps} Newton steps, short of the tolerance {tol}", residual=residual)
    shift = g.max()
    log_phihat0, log_phiT = np.full_like(nu0, -np.inf), np.full_like(nuT, -np.inf)
    log_phihat0[rows], log_phiT[cols] = f + shift, g - shift
    coupling = np.zeros_like(log_kernel)
    coupling[np.ix_(rows, cols)] = P
    return BridgeSolution(
        log_phi0=logsumexp(log_kernel[:, cols] + log_phiT[cols], axis=1),
        log_phiT=log_phiT, log_phihat0=log_phihat0,
        log_phihatT=logsumexp(log_kernel[rows] + log_phihat0[rows, None], axis=0),
        iterations=steps, residual=residual, endpoint_coupling=coupling)


def sinkhorn_markov(prior: MarkovPrior, nu0: np.ndarray, nuT: np.ndarray,
                    horizon: int, *, tol: float = 1e-10,
                    max_iter: int = 100_000) -> BridgeSolution:
    """Bridge a Markov prior: scale its log kernel, then propagate backward.

    The ``(T, n, n)`` table of the solution's transitions is allocated
    first, so a horizon whose table does not fit raises
    :class:`ValidationError` before any product.  The log kernel is the
    product of the log steps, one :func:`~iotnet.chain.log_matmul` per step,
    and ``-inf`` on the rows of the supported starts without initial mass.
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
    transitions = table((horizon, prior.n, prior.n), 0.0, f"horizon {horizon}")
    steps = prior.log_steps
    if steps.ndim == 3 and len(steps) != horizon:
        raise ValidationError(f"time-varying prior has {len(steps)} step matrices "
                              f"but horizon is {horizon}")
    log_kernel = reduce(log_matmul, (at_step(steps, t) for t in range(horizon)))
    blocked = ((nu0 > 0) & (prior.initial == 0))[:, None]
    # a new array: at T=1 the kernel is the prior's own step array
    log_kernel = np.where(blocked, -np.inf, log_kernel)
    solution = _sinkhorn_core(log_kernel, nu0, nuT, tol, max_iter)
    log_phi = solution.log_phiT  # log phi(t+1) on entry to step t
    for t in range(horizon - 1, -1, -1):
        tilted = at_step(steps, t) + log_phi
        log_phi = logsumexp(tilted, axis=1)
        transitions[t] = np.exp(tilted - np.where(log_phi > -np.inf, log_phi,
                                                  0.0)[:, None])
    solution.transitions = transitions
    return solution


def markov_path_law(solution: BridgeSolution, nu0: np.ndarray,
                    space: PathSpace) -> np.ndarray:
    """Evaluate the solution chain on an enumerated path space: ``exp`` of
    each path's log start mass plus its steps' log transitions
    (:func:`~iotnet.chain.row_sums`)."""
    if solution.transitions is None:
        raise ValidationError("solution does not carry per-step transitions")
    if len(solution.transitions) != space.horizon:
        raise ValidationError("solution horizon does not match path space")
    return np.exp(row_sums(logs(solution.transitions), space.array, logs(nu0)))


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
    """Full path law of a path-route bridge: each endpoint pair's coupling
    mass, shared among its paths in proportion to their prior weights.

    That is ``exp(log w + log phihat0[x0] + log phiT[xT])``, taken as
    ``coupling[x0, xT] / mass * exp(log w - top)`` with the pair's shift
    ``top`` and shifted sum ``mass`` (:attr:`PathPrior.pair_sums`): the
    shift is never added back, so at small ``alpha``, where log-weights run
    to 1e8 nats, the law keeps the coupling's marginals to its rounding.
    """
    flat, shifted, _, mass = prior.pair_sums
    share = np.divide(solution.endpoint_coupling.reshape(-1), mass,
                      out=np.zeros_like(mass), where=mass > 0)
    return share[flat] * shifted


def path_kl(p: np.ndarray, log_q: np.ndarray) -> float:
    """Relative entropy ``sum p (log p - log_q)`` against reference log
    weights, with 0 log 0 = 0.

    Support violations (mass where the reference log weight is ``-inf``)
    give ``inf`` and a warning listing the first few offending path indices.
    """
    p = np.asarray(p, dtype=float)
    log_q = np.asarray(log_q, dtype=float)
    if p.shape != log_q.shape:
        raise ValidationError("shape mismatch between law and reference weights")
    pos = p > 0
    if np.any(log_q[pos] == -np.inf):
        bad = np.nonzero(pos & (log_q == -np.inf))[0]
        warnings.warn(
            f"law puts mass on {bad.size} path(s) outside the reference support "
            f"(first indices {bad[:5].tolist()}); relative entropy is infinite",
            RuntimeWarning, stacklevel=2)
        return math.inf
    # log p - log q, not log(p/q): p/q underflows to 0 for subnormal p
    return float(np.sum(p[pos] * (np.log(p[pos]) - log_q[pos])))
