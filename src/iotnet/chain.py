"""Passes along a chain of step tables, one product per semiring.

Every number the Markov route reports comes from a pass along the ``T``
steps of a chain: a vector or a matrix times one step table at a time, in
some semiring (the shortest-distance framework of Mohri 2002).  The products
live here, and a pass is ``functools.reduce`` over one of them or a short
loop:

* log-sum-exp: :func:`log_matmul` (the bridge's endpoint kernel) and
  :func:`logsumexp` (its potentials);
* min-plus: :func:`min_plus` (cheapest rows, the largest path cost);
* counting: :func:`walk_counts` (exact walk counts, as Python ints).

Along given rows there is one pass, :func:`row_sums`: each row's step
entries added left to right onto a start term.  Over step costs it prices
the rows; over log weights (:func:`logs`) it gives each row's log weight
under a Markov law, so no product of weights leaves the float range.

A path space is counted before it is listed: :func:`count_walks` takes its
exact size from the walk counts, and :func:`walks`, the one lister, fills
that many rows a column at a time from the same counts.  A table a pass
fills is sized first by :func:`table`, which refuses a horizon, a node count
or a path space whose table cannot be allocated.
"""

import numpy as np

from .errors import InfeasibleError, ValidationError


def logs(weights) -> np.ndarray:
    """``np.log`` of nonnegative weights, ``-inf`` (without a warning) for a
    zero."""
    with np.errstate(divide="ignore"):
        return np.log(weights)


def logsumexp(a: np.ndarray, axis: int) -> np.ndarray:
    """``log(sum(exp(a)))`` along ``axis``; ``-inf`` where every term is."""
    top = np.max(a, axis=axis, keepdims=True)
    top[top == -np.inf] = 0.0
    return logs(np.sum(np.exp(a - top), axis=axis)) + np.squeeze(top, axis)


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
    out = logs(total) + a + b
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


def row_sums(steps: np.ndarray, rows: np.ndarray, start=None) -> np.ndarray:
    """Each row of the node table ``rows`` (one path per row, node ids) summed
    along its steps: its start term ``start[x0]`` (0.0 without ``start``)
    plus the entries ``steps[t][x_t, x_t+1]`` of its steps, added left to
    right, over one ``(n, n)`` table or a stack of one per step
    (:func:`at_step`)."""
    arr = np.asarray(rows) - 1
    out = (np.zeros(len(arr)) if start is None
           else np.asarray(start, dtype=float)[arr[:, 0]])
    for t in range(arr.shape[1] - 1):
        out += at_step(steps, t)[arr[:, t], arr[:, t + 1]]
    return out


def table(shape, fill, what: str, dtype=float) -> np.ndarray:
    """``np.full(shape, fill, dtype)`` (``np.empty`` for a ``fill`` of None,
    where the pass writes every cell), sized before any pass fills it: a
    table that cannot be allocated raises :class:`ValidationError` naming
    ``what`` (a horizon, a node count, a path space) as too large."""
    try:
        return np.empty(shape, dtype) if fill is None else np.full(shape, fill, dtype)
    except (ValueError, MemoryError):
        raise ValidationError(f"{what} is too large") from None


def at_step(steps: np.ndarray, t: int) -> np.ndarray:
    """Step ``t``'s table: one ``(n, n)`` table serves every step, a ``(T, n,
    n)`` stack holds one per step."""
    return steps if steps.ndim == 2 else steps[t]


def walk_counts(steps: np.ndarray, horizon: int, ends) -> np.ndarray:
    """Walks to ``ends`` over the ``True`` entries of the step masks
    ``steps``, one ``(n, n)`` mask or a ``(horizon, n, n)`` stack of one
    per step: ``out[t, i]`` counts the ``horizon - t``-step walks from node
    ``i`` at step ``t``, as exact Python ints (column 0 is unused).  Counted
    backward, one ``np.add.at`` over a mask's edges per step.  Raises
    :class:`ValidationError` naming the horizon when the ``(T+1, n+1)``
    table cannot be allocated, before any step is counted.
    """
    counts = table((horizon + 1, steps.shape[-1] + 1), 0, f"horizon {horizon}", object)
    counts[horizon, sorted(ends)] = 1
    for t in range(horizon - 1, -1, -1):
        tails, heads = np.argwhere(at_step(steps, t)).T + 1
        np.add.at(counts[t], tails, counts[t + 1, heads])
    return counts


def count_walks(steps: np.ndarray, horizon: int, starts, ends) -> tuple[int, np.ndarray]:
    """The exact number of ``horizon``-step walks from ``starts`` to ``ends``
    over the step masks ``steps`` (as in :func:`walk_counts`), and the walk
    counts it sums.  Raises :class:`InfeasibleError` when there is none."""
    counts = walk_counts(steps, horizon, ends)
    starts = sorted(set(starts))
    size = int(counts[0, starts].sum())
    if not size:
        raise InfeasibleError(
            f"empty path space: no horizon-{horizon} path from {starts} "
            f"to {sorted(set(ends))} over feasible edges")
    return size, counts


def walks(steps: np.ndarray, horizon: int, starts, ends) -> np.ndarray:
    """The ``(N, horizon+1)`` node table of every walk that
    :func:`count_walks` counts, one per row in lexicographic order.

    The table is allocated once, at its exact size, through :func:`table`,
    so a space too large to hold is refused naming the horizon and the count
    before any row is listed.  It is then filled a column at a time: column
    ``t`` holds each level-``t`` prefix's last node, repeated by its number
    of completions ``counts[t, node]``, and the next level's prefixes are
    the successors over step ``t``'s mask that still complete.  Each cell is
    written once.
    """
    size, counts = count_walks(steps, horizon, starts, ends)
    # the interpreter refuses to print an int of more than 4,300 digits
    count = size if size.bit_length() < 10_000 else f"at least 2**{size.bit_length() - 1}"
    rows = table((size, horizon + 1), None,
                 f"a horizon-{horizon} space of {count} paths", np.int64)
    # a used prefix completes at most size ways: int64 holds each used count
    width = np.minimum(counts, size).astype(np.int64)
    last = np.array([s for s in sorted(set(starts)) if width[0, s]], dtype=np.int64)
    rows[:, 0] = np.repeat(last, width[0, last])
    for t in range(horizon):
        # the steps that still complete, as CSR: node i's successors are
        # heads[begin[i]:begin[i + 1]], in ascending order
        tails, heads = np.argwhere(at_step(steps, t) & (width[t + 1, 1:] > 0)).T + 1
        begin = np.searchsorted(tails, np.arange(width.shape[1] + 1))
        degree = begin[last + 1] - begin[last]
        # successor k of prefix p is heads[begin[last[p]] + k]
        at = np.repeat(begin[last] - np.cumsum(degree) + degree, degree)
        last = heads[at + np.arange(at.size)]
        rows[:, t + 1] = np.repeat(last, width[t + 1, last])
    return rows
