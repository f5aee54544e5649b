"""Maximum-entropy-rate (Ruelle-Bowens) random-walk priors from edge costs.

This module serves ``iot rbwalk`` and the entropic-reduction acceptance test,
which uses the walk as an independent reference.  No solve uses it: the
walk is a diagonal rescaling of the Gibbs weights (see :func:`rb_walk`) that
the bridge potentials cancel, so :func:`iotnet.imitation.solve_iot` bridges
the Gibbs log-weights :func:`~iotnet.network.log_weight_matrix` directly.

The construction: put Gibbs weights ``exp(-cost/alpha)`` on existing edges,
take the Perron root and left/right Perron vectors of that nonnegative matrix,
and tilt it into a row-stochastic walk.  Among all stationary chains supported
on the edge set, this walk maximises entropy rate minus costs/alpha; with
uniform costs it is the classic maximum-entropy random walk.

The Perron pair is computed by power iteration on a diagonally shifted copy of
the weight matrix.  The shift costs nothing mathematically (eigenvectors are
unchanged, the root shifts back) and makes the iteration converge on periodic
graphs, where the unshifted matrix has several eigenvalues on the spectral
circle.  The residual is componentwise relative, so even tiny Perron-vector
entries are accurate in relative terms — needed downstream, where the walk's
rows must be stochastic to 1e-10.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, ValidationError
from .network import CostModel, log_weight_matrix, unreachable_nodes

_SHIFT_FRACTION = 0.1


@dataclass(frozen=True)
class RBPrior:
    """Spectral data of the walk prior: weights, Perron pair, and transitions.

    ``node_weights`` is the stationary law (left*right, summing to 1) and
    ``transitions`` the row-stochastic walk matrix.
    """

    alpha: float
    weight_matrix: np.ndarray
    spectral_radius: float
    left_vector: np.ndarray
    right_vector: np.ndarray
    node_weights: np.ndarray
    transitions: np.ndarray


def perron(B: np.ndarray, tol: float = 1e-12,
           max_iter: int = 100_000) -> tuple[float, np.ndarray, np.ndarray]:
    """Perron root and left/right vectors of a nonnegative irreducible matrix.

    Power iteration on ``B + shift*I``; stops when the componentwise relative
    eigen-residual of both vectors drops below ``tol``.  Returns ``(lam, u, v)``
    normalised so ``||v||_1 = 1`` and ``u @ v = 1``.
    """
    B = np.asarray(B, dtype=float)
    if B.ndim != 2 or B.shape[0] != B.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {B.shape}")
    if np.any(B < 0) or not np.all(np.isfinite(B)):
        raise ValidationError("matrix must be nonnegative and finite")
    n = B.shape[0]
    shift = _SHIFT_FRACTION * float(np.max(B.sum(axis=1)))
    if shift <= 0:
        raise ValidationError("matrix has no positive entries")

    v = np.full(n, 1.0 / n)
    u = np.full(n, 1.0 / n)
    lam = 0.0
    residual = math.inf
    for _ in range(max_iter):
        # v_new = (B + shift*I) v stays strictly positive from a positive start
        v_new = B @ v + shift * v
        u_new = B.T @ u + shift * u
        v_new /= v_new.sum()
        u_new /= u_new.sum()
        v, u = v_new, u_new
        Bv = B @ v
        Btu = B.T @ u
        lam = float(u @ Bv) / float(u @ v)
        residual = max(float(np.max(np.abs(Bv - lam * v) / (lam * v))),
                       float(np.max(np.abs(Btu - lam * u) / (lam * u))))
        if residual < tol:
            break
    else:
        raise ConvergenceError(
            f"power iteration did not reach residual {tol} in {max_iter} "
            f"iterations (final residual {residual:.3e})", residual=residual)

    v = v / v.sum()
    u = u / float(u @ v)
    return lam, u, v


def rb_walk(B: np.ndarray, lam: float, v: np.ndarray) -> np.ndarray:
    """Row-stochastic tilt ``R_ij = B_ij * v_j / (lam * v_i)``."""
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0):
        raise ValidationError("right Perron vector must be strictly positive")
    if lam <= 0:
        raise ValidationError(f"spectral radius must be positive, got {lam}")
    return (B * v[None, :]) / (lam * v[:, None])


def build_rb_prior(model: CostModel, alpha: float, n: int, *,
                   tol: float = 1e-12, max_iter: int = 100_000) -> RBPrior:
    """Full pipeline: Gibbs weights -> Perron pair -> stochastic walk.

    The walk needs an irreducible weight matrix, so the support of the Gibbs
    weights must be strongly connected.
    """
    B = np.exp(log_weight_matrix(model, alpha, n))
    missing = unreachable_nodes(n, (np.argwhere(B > 0) + 1).tolist())
    if missing:
        raise ValidationError(
            f"edge support is not strongly connected (nodes {missing} unreachable "
            f"from or to node 1); the walk prior needs a strongly connected graph")
    lam, u, v = perron(B, tol=tol, max_iter=max_iter)
    R = rb_walk(B, lam, v)
    node_weights = u * v
    return RBPrior(alpha=alpha, weight_matrix=B, spectral_radius=lam,
                   left_vector=u, right_vector=v, node_weights=node_weights,
                   transitions=R)

