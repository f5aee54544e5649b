"""Brute-force verification oracles: dense IPF and an exact LP solver.

Everything here recomputes from first principles on the flat path
representation — no kernels, potentials, or factorizations are shared with the
bridge module — so agreement between the two is meaningful evidence, not a
tautology.

* :func:`dense_ipf` rescales explicit path masses toward each marginal in
  turn (classic iterative proportional fitting).
* :func:`lp_ot` solves the linear transport program on the path formulation
  with a two-phase primal simplex under Bland's rule (guaranteed finite, no
  cycling), handling the redundant marginal constraint via artificial-variable
  cleanup.  It is the verification oracle for the path LP, including the
  scenario engine's transportation simplex on the cheapest path of each
  endpoint pair (:func:`iotnet.scenario.transport_lp`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, InfeasibleError, ValidationError
from .network import PathSpace

_PIVOT_TOL = 1e-11


@dataclass(frozen=True)
class DenseCoupling:
    """A path-space coupling produced by an oracle.

    ``objective`` is the LP value for :func:`lp_ot` and ``None`` for
    :func:`dense_ipf` (IPF has no cost input).
    """

    probabilities: np.ndarray
    objective: float | None = None


def _group_sums(values: np.ndarray, groups: np.ndarray, n: int) -> np.ndarray:
    return np.bincount(groups, weights=values, minlength=n)


def dense_ipf(space: PathSpace, weights: np.ndarray, nu0: np.ndarray,
              nuT: np.ndarray, *, tol: float = 1e-10,
              max_iter: int = 100_000) -> DenseCoupling:
    """Iterative proportional fitting on explicit path masses.

    Alternates exact rescaling of start groups to ``nu0`` and end groups to
    ``nuT`` until both marginal gaps (sup norm) drop below ``tol``.  Start
    groups with zero target are zeroed outright (support restriction); a
    positive target over a zero-mass group raises :class:`InfeasibleError`.
    """
    weights = np.asarray(weights, dtype=float)
    nu0 = np.asarray(nu0, dtype=float)
    nuT = np.asarray(nuT, dtype=float)
    if weights.shape != (space.size,):
        raise ValidationError("weights shape does not match path space")
    if np.any(weights < 0):
        raise ValidationError("weights must be nonnegative")
    n = space.n
    starts = space.starts - 1
    ends = space.ends - 1

    p = weights.copy()
    for _ in range(int(max_iter)):
        for groups, target, name, side in ((starts, nu0, "nu0", "starts"),
                                           (ends, nuT, "nuT", "ends")):
            mass = _group_sums(p, groups, n)
            if np.any((target > 0) & (mass == 0)):
                bad = int(np.nonzero((target > 0) & (mass == 0))[0][0]) + 1
                raise InfeasibleError(f"no remaining path mass {side} at node {bad} "
                                      f"but {name} is positive there")
            p = p * np.divide(target, mass, out=np.zeros(n), where=mass > 0)[groups]

        gap0 = float(np.max(np.abs(_group_sums(p, starts, n) - nu0)))
        gapT = float(np.max(np.abs(_group_sums(p, ends, n) - nuT)))
        if max(gap0, gapT) <= tol:
            return DenseCoupling(probabilities=p)
    raise ConvergenceError(
        f"IPF did not bring marginal gaps below {tol} in {max_iter} iterations "
        f"(gaps {gap0:.3e}, {gapT:.3e})", residual=max(gap0, gapT))


# ---------------------------------------------------------------------------
# exact LP via two-phase primal simplex with Bland's rule
# ---------------------------------------------------------------------------


def _pivot(tableau: np.ndarray, basis: list[int], row: int, col: int) -> None:
    tableau[row] /= tableau[row, col]
    for r in range(tableau.shape[0]):
        if r != row and tableau[r, col] != 0.0:
            tableau[r] -= tableau[r, col] * tableau[row]
    basis[row] = col


def _bland_iterate(tableau: np.ndarray, basis: list[int], cost: np.ndarray,
                   allowed: np.ndarray) -> None:
    """Run primal simplex to optimality; Bland's rule on entering and leaving."""
    m = tableau.shape[0]
    while True:
        cb = cost[basis]
        reduced = cost - cb @ tableau[:, :-1]
        candidates = np.nonzero(allowed & (reduced < -_PIVOT_TOL))[0]
        if candidates.size == 0:
            return
        col = int(candidates[0])
        column = tableau[:, col]
        rows = np.nonzero(column > _PIVOT_TOL)[0]
        if rows.size == 0:
            raise ValidationError("LP is unbounded; transport polytopes never are, "
                                  "so the constraint build is inconsistent")
        ratios = tableau[rows, -1] / column[rows]
        best = ratios.min()
        ties = rows[np.nonzero(ratios <= best + 1e-15)[0]]
        row = int(min(ties, key=lambda r: basis[r]))
        _pivot(tableau, basis, row, col)


def lp_ot(space: PathSpace, costs: np.ndarray, nu0: np.ndarray,
          nuT: np.ndarray) -> DenseCoupling:
    """Exact optimal transport on the path formulation.

    Minimises ``costs @ p`` over path masses with prescribed start and end
    marginals.  Two-phase: artificial variables first (their residual above
    1e-9 is an infeasibility certificate), then the true costs with artificial
    columns barred.  Redundant rows (the duplicated total-mass constraint)
    are pivoted out or dropped during phase-one cleanup.  A path whose start
    or end has zero target mass is pinned to exactly zero, outside the
    tableau, so no round-off leaves flow on it.
    """
    costs = np.asarray(costs, dtype=float)
    nu0 = np.asarray(nu0, dtype=float)
    nuT = np.asarray(nuT, dtype=float)
    if costs.shape != (space.size,):
        raise ValidationError("cost vector shape does not match path space")
    if not np.all(np.isfinite(costs)):
        raise ValidationError("LP costs must be finite")
    starts = space.starts - 1
    ends = space.ends - 1

    # columns: the paths not pinned to zero; rows: the nodes with positive mass
    free = np.flatnonzero((nu0[starts] > 0) & (nuT[ends] > 0))
    nvar = free.size
    rows0, rowsT = np.flatnonzero(nu0 > 0), np.flatnonzero(nuT > 0)
    m = rows0.size + rowsT.size
    A = np.concatenate([starts[free] == rows0[:, None],
                        ends[free] == rowsT[:, None]]).astype(float)
    b = np.concatenate([nu0[rows0], nuT[rowsT]])

    # phase 1
    tableau = np.hstack([A, np.eye(m), b[:, None]])
    basis = list(range(nvar, nvar + m))
    cost1 = np.concatenate([np.zeros(nvar), np.ones(m)])
    allowed = np.ones(nvar + m, dtype=bool)
    _bland_iterate(tableau, basis, cost1, allowed)
    infeas = float(cost1[basis] @ tableau[:, -1])
    if infeas > 1e-9:
        stuck = [r for r in range(m) if basis[r] >= nvar and tableau[r, -1] > 1e-9]
        raise InfeasibleError(
            f"marginals are infeasible over this path space: phase-1 residual "
            f"{infeas:.3e} on constraint rows {stuck}")

    # drive remaining artificial basics (at zero) out, or drop redundant rows
    drop: list[int] = []
    for r in range(m):
        if basis[r] >= nvar:
            pivots = np.nonzero(np.abs(tableau[r, :nvar]) > _PIVOT_TOL)[0]
            if pivots.size:
                _pivot(tableau, basis, r, int(pivots[0]))
            else:
                drop.append(r)
    if drop:
        keep = [r for r in range(m) if r not in set(drop)]
        tableau = tableau[keep]
        basis = [basis[r] for r in keep]

    # phase 2: bar artificial columns
    allowed[nvar:] = False
    cost2 = np.concatenate([costs[free], np.zeros(m)])
    _bland_iterate(tableau, basis, cost2, allowed)

    x = np.zeros(space.size)
    for r, col in enumerate(basis):
        if col < nvar:
            x[free[col]] = tableau[r, -1]
    x[x < 0] = 0.0  # clip simplex round-off at the bound
    return DenseCoupling(probabilities=x, objective=float(costs @ x))

