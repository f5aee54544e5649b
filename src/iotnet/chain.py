"""Passes along a chain of step tables, one product per semiring.

Every number the Markov route reports comes from a pass along the ``T``
steps of a chain: a vector or a matrix times one step table at a time, in
some semiring (the shortest-distance framework of Mohri 2002).  The products
live here, and a pass is ``functools.reduce`` over one of them or a short
loop:

* log-sum-exp: :func:`log_matmul` (the bridge's endpoint kernel) and
  :func:`logsumexp` (its potentials);
* min-plus: :func:`min_plus` (cheapest rows, the largest path cost);
* sum-product: :func:`chain_law` (a Markov law along given rows);
* counting: :func:`walk_counts` (exact path counts and the reachability
  that prunes enumeration), and :func:`grow`, which extends rows by their
  successors.

A table a pass fills is sized first by :func:`table`, which refuses a
horizon or a node count whose table cannot be allocated.
"""

import numpy as np

from .errors import ValidationError


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``; ``-inf`` where every term is."""
    top = np.max(a, axis=axis, keepdims=True)
    top[top == -np.inf] = 0.0
    with np.errstate(divide="ignore"):
        return np.log(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis)


_SUM_FLOOR = 1e-280   # shifted sums below are recomputed exactly in log space
_SLAB_TERMS = 2**20  # sum terms per slab of a broadcast product


def log_matmul(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """``log(exp(A) @ exp(B))`` for log matrices (``-inf`` for a zero).

    A shifted matmul: ``log(exp(A - a) @ exp(B - b)) + a + b`` with ``a`` the
    row maxima of ``A`` and ``b`` the column maxima of ``B``, so every factor
    is at most 1.  ``-inf`` is where no term is finite (a structural zero,
    whose shifted sum is exactly 0).  Any other entry whose shifted sum is
    below 1e-280 (its largest terms underflowed or went subnormal) is
    recomputed as an exact log-sum-exp over its own terms, in slabs of at
    most 2^20 terms; the structural zeros are told apart by the support
    product ``isfinite(A) @ isfinite(B)``, one float matmul, which is 0
    there.
    """
    a = np.max(A, axis=1, keepdims=True)
    b = np.max(B, axis=0, keepdims=True)
    a[a == -np.inf] = 0.0
    b[b == -np.inf] = 0.0
    total = np.exp(A - a) @ np.exp(B - b)
    with np.errstate(divide="ignore"):
        out = np.log(total) + a + b
    low = total < _SUM_FLOOR
    if low.any():
        low &= np.isfinite(A).astype(float) @ np.isfinite(B).astype(float) > 0
    rows, cols = np.nonzero(low)
    slab = max(1, _SLAB_TERMS // A.shape[1])
    for k in range(0, rows.size, slab):
        r, c = rows[k:k + slab], cols[k:k + slab]
        out[r, c] = logsumexp(A[r] + B[:, c].T, axis=1)
    return out


def min_plus(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Min-plus product ``out[i, j] = min_k a[i, k] + b[k, j]``, broadcast in
    slabs of rows of at most 2^20 sum terms."""
    slab = max(1, _SLAB_TERMS // b.size)
    return np.concatenate([np.min(a[i:i + slab, :, None] + b, axis=1)
                           for i in range(0, a.shape[0], slab)])


def chain_law(initial: np.ndarray, steps, rows: np.ndarray) -> np.ndarray:
    """A Markov law on the node table ``rows`` (one path per row, node ids):
    each row's start weight in ``initial`` times the weights ``steps[t]`` of
    its steps, multiplied left to right."""
    arr = rows - 1
    law = np.asarray(initial, dtype=float)[arr[:, 0]]
    for t, step in enumerate(steps):
        law *= step[arr[:, t], arr[:, t + 1]]
    return law


def table(shape, fill, what: str, dtype=float) -> np.ndarray:
    """``np.full(shape, fill, dtype)``, sized before any pass fills it: a
    table that cannot be allocated raises :class:`ValidationError` naming
    ``what`` (a horizon, a node count) as too large."""
    try:
        return np.full(shape, fill, dtype=dtype)
    except (ValueError, MemoryError):
        raise ValidationError(f"{what} is too large") from None


def walk_counts(steps: np.ndarray, horizon: int, ends) -> np.ndarray:
    """Walks to ``ends`` over the ``True`` entries of the ``(n, n)`` step mask
    ``steps`` (node ``i`` is row ``i-1``): ``out[t, i]`` counts the
    ``horizon - t``-step walks from node ``i``, as exact Python ints (column
    0 is unused).  Counted backward, one ``np.add.at`` over the mask's edges
    per step.  Raises :class:`ValidationError` when the ``(T+1, n+1)`` table
    cannot be allocated.
    """
    tails, heads = np.argwhere(steps).T + 1
    counts = table((horizon + 1, steps.shape[0] + 1), 0, f"horizon {horizon}", object)
    counts[horizon, sorted(ends)] = 1
    for t in range(horizon - 1, -1, -1):
        np.add.at(counts[t], tails, counts[t + 1, heads])
    return counts


def grow(rows: np.ndarray, step: np.ndarray) -> np.ndarray:
    """Each row of the node table ``rows`` extended by every successor of its
    last node over the ``True`` entries of the ``(n, n)`` step mask ``step``
    (node ``i`` is row ``i-1``), in ascending order, so lexicographic rows
    stay lexicographic.  A row whose last node has no successor drops out."""
    tails, heads = np.argwhere(step).T + 1
    # CSR offsets: node i's successors are heads[offsets[i]:offsets[i+1]]
    offsets = np.searchsorted(tails, np.arange(step.shape[0] + 2))
    lo = offsets[rows[:, -1]]
    count = offsets[rows[:, -1] + 1] - lo
    parent = np.repeat(np.arange(len(rows)), count)
    # grown row r takes its parent's successor number r - (parent's first row)
    shift = lo - (np.cumsum(count) - count)
    grown = np.empty((parent.size, rows.shape[1] + 1), dtype=np.int64)
    grown[:, :-1] = rows[parent]
    grown[:, -1] = heads[np.arange(parent.size) + shift[parent]]
    return grown
