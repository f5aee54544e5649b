"""Directed logistics networks, edge typing, and path-cost evaluation.

A :class:`Network` is an immutable directed multigraph over nodes ``1..n`` with
planar positions; edges carry a kind (highway / maritime / local / storage) and
a length in km.  Costs come in two flavours:

* Markov mode — an explicit per-edge cost table; a path costs the sum of its
  steps.  Absent pairs cost ``math.inf`` (infinity is always the explicit
  ``inf`` value, never a large finite sentinel).
* Ruled mode — the whole edge-kind sequence sets the price: maritime legs are
  multiplied, storage legs cost a flat fee, maximal highway runs earn a
  discount, and every switch between kinds adds a fixed penalty.  This makes
  the path cost genuinely non-additive over steps.

A node pair may be joined by parallel edges of several kinds; a step uses
the cheapest.  `edge_table` makes that choice for every pair at once, as
``(n, n)`` arrays of winning kinds and contributions, and the Markov table,
the ruled path costs and the risk weights all read it.

`enumerate_paths` materialises the finite path space used by every solver in
the package: all horizon-``T`` node sequences that start in the source support,
end in the sink support, and use an existing finite-cost edge at every step,
in lexicographic order, as the rows of an ``(N, T+1)`` int64 node matrix
(tuples are made only on demand).  `path_costs` prices a whole space with
array code over that matrix; the test suite's scalar per-path references
(``tests/helpers.py``) must equal it bit for bit.  Path-keyed tables such as
q-files are node matrices too.  Each row packs into one int64 key, its
columns in mixed radix over their id ranges, so keys sort as the rows do:
`row_ranks` ranks the keys with one sort, and `row_join` aligns a table with
a space by a binary search over them.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, replace
from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

from .chain import row_sums, walks
from .errors import ValidationError


class EdgeKind(Enum):
    HIGHWAY = "highway"
    MARITIME = "maritime"
    LOCAL = "local"
    STORAGE = "storage"


# in name order, so an equal-cost tie between parallel edges goes to the lower index
EDGE_KINDS = tuple(sorted(EdgeKind, key=lambda kind: kind.value))


@dataclass(frozen=True)
class Node:
    id: int
    x_km: float
    y_km: float
    label: str = ""


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    kind: EdgeKind
    length_km: float


@dataclass(frozen=True)
class Network:
    """Immutable directed network; use :func:`build_network` to construct."""

    nodes: tuple[Node, ...]
    edges: tuple[Edge, ...]

    @property
    def n(self) -> int:
        return len(self.nodes)

    @cached_property
    def _edge_columns(self) -> tuple[np.ndarray, ...]:
        """Read-only: the sorted distinct ``(m, 2)`` edge pairs, then per edge
        its pair's row, its kind's index in :data:`EDGE_KINDS` and its length."""
        ends = np.array([(e.tail, e.head) for e in self.edges],
                        dtype=np.int64).reshape(-1, 2)
        pairs, row = np.unique(ends, axis=0, return_inverse=True)
        kind = [EDGE_KINDS.index(e.kind) for e in self.edges]
        length = [e.length_km for e in self.edges]
        columns = (pairs, row.reshape(-1), np.array(kind, dtype=np.int64),
                   np.array(length, dtype=float))
        for col in columns:
            col.flags.writeable = False
        return columns

    @property
    def pairs(self) -> np.ndarray:
        """The sorted distinct ``(tail, head)`` edge pairs, ``(m, 2)`` int64."""
        return self._edge_columns[0]

    @cached_property
    def edge_mask(self) -> np.ndarray:
        """Read-only ``(n, n)`` mask of the edge pairs; node ``i`` is row ``i-1``."""
        mask = pair_matrix(self.n, self.pairs, True, False)
        mask.flags.writeable = False
        return mask


def euclidean_km(a: Node, b: Node) -> float:
    return math.hypot(a.x_km - b.x_km, a.y_km - b.y_km)


def pair_matrix(n: int, pairs: Sequence[Sequence[int]] | np.ndarray, values,
                fill) -> np.ndarray:
    """``(n, n)`` array of ``values`` at the ``(tail, head)`` ``pairs`` inside
    ``1..n`` (node ``i`` is row ``i-1``), ``fill`` elsewhere."""
    pairs = np.asarray(pairs, dtype=np.int64).reshape(-1, 2)
    values = np.broadcast_to(np.asarray(values), len(pairs))
    inside = ((pairs >= 1) & (pairs <= n)).all(axis=1)
    out = np.full((n, n), fill, dtype=values.dtype)
    out[pairs[inside, 0] - 1, pairs[inside, 1] - 1] = values[inside]
    return out


def build_network(nodes: Sequence[Node | tuple],
                  edges: Iterable[Edge | tuple]) -> Network:
    """Validate and assemble a :class:`Network`.

    ``nodes`` may be :class:`Node` objects or ``(id, x_km, y_km[, label])``
    tuples; ``edges`` may be :class:`Edge` objects or
    ``(tail, head, kind[, length_km])`` tuples.  A missing length defaults to
    the Euclidean distance between the endpoints (0 for self-loops).

    Raises :class:`ValidationError` for non-dense ids, non-finite positions,
    dangling endpoints, duplicate (tail, head, kind) triples, negative or
    non-finite lengths, or non-storage self-loops.
    """
    node_objs = []
    for spec in nodes:
        node_objs.append(spec if isinstance(spec, Node) else Node(*spec))
    ids = [nd.id for nd in node_objs]
    n = len(ids)
    if sorted(ids) != list(range(1, n + 1)):
        raise ValidationError(f"node ids must be exactly 1..{n}, got {sorted(ids)}")
    node_objs.sort(key=lambda nd: nd.id)
    for nd in node_objs:
        if not (math.isfinite(nd.x_km) and math.isfinite(nd.y_km)):
            raise ValidationError(f"node {nd.id} has non-finite position "
                                  f"({nd.x_km}, {nd.y_km})")

    edge_objs: list[Edge] = []
    seen: set[tuple[int, int, EdgeKind]] = set()
    for spec in edges:
        if isinstance(spec, Edge):
            e = spec
        else:
            tail, head, kind = spec[0], spec[1], spec[2]
            if not isinstance(kind, EdgeKind):
                kind = EdgeKind(kind)
            if len(spec) > 3 and spec[3] is not None:
                length = float(spec[3])
            else:
                length = euclidean_km(node_objs[tail - 1], node_objs[head - 1])
            e = Edge(tail, head, kind, length)
        if not (1 <= e.tail <= n and 1 <= e.head <= n):
            raise ValidationError(f"edge ({e.tail},{e.head}) references unknown node")
        if e.tail == e.head and e.kind is not EdgeKind.STORAGE:
            raise ValidationError(
                f"self-loop at node {e.tail} must be storage, got {e.kind.value}")
        if not 0 <= e.length_km < math.inf:
            raise ValidationError(f"edge ({e.tail},{e.head}) {e.kind.value} has length "
                                  f"{e.length_km}, not finite and nonnegative")
        key = (e.tail, e.head, e.kind)
        if key in seen:
            raise ValidationError(f"duplicate edge {key}")
        seen.add(key)
        edge_objs.append(e)

    return Network(tuple(node_objs), tuple(edge_objs))


# ---------------------------------------------------------------------------
# cost models
# ---------------------------------------------------------------------------

MARKOV = "markov"
RULED = "ruled"
# the ruled model's parameters, named as in a network file's cost_rules
RULE_FIELDS = ("highway_discount_2", "highway_discount_3plus",
               "switch_penalty_km", "storage_cost_km", "maritime_multiplier")


@dataclass(frozen=True)
class CostModel:
    """Path-cost model; build via :meth:`markov` or :meth:`ruled`.

    ``edge_multipliers`` holds the ruled mode's per-edge re-pricing factors
    (e.g. a disaster multiplying affected-edge costs): they scale the
    kind-adjusted per-edge contribution before run discounts, and the switch
    penalty is never scaled.  :func:`reprice` scales a Markov table itself.
    """

    mode: str
    edge_costs: Mapping[tuple[int, int], float] | None = None
    highway_discount_2: float = 0.20
    highway_discount_3plus: float = 0.30
    switch_penalty_km: float = 20.0
    storage_cost_km: float = 10.0
    maritime_multiplier: float = 4.0
    edge_multipliers: Mapping[tuple[int, int], float] = field(default_factory=dict)
    # cost_matrix's tables by node count, built on first use
    _cost_tables: dict = field(init=False, default_factory=dict, repr=False,
                               compare=False)

    @classmethod
    def markov(cls, edge_costs: Mapping[tuple[int, int], float]) -> "CostModel":
        return _checked_markov({(int(i), int(j)): float(c)
                                for (i, j), c in edge_costs.items()})

    @classmethod
    def ruled(cls, *, highway_discount_2: float = 0.20,
              highway_discount_3plus: float = 0.30,
              switch_penalty_km: float = 20.0,
              storage_cost_km: float = 10.0,
              maritime_multiplier: float = 4.0) -> "CostModel":
        for name, val, lo, hi in [
            ("highway_discount_2", highway_discount_2, 0.0, 1.0),
            ("highway_discount_3plus", highway_discount_3plus, 0.0, 1.0),
        ]:
            if not (lo <= val <= hi):
                raise ValidationError(f"{name} must be in [{lo},{hi}], got {val}")
        for name, val in [("switch_penalty_km", switch_penalty_km),
                          ("storage_cost_km", storage_cost_km),
                          ("maritime_multiplier", maritime_multiplier)]:
            if not 0 <= val < math.inf:
                raise ValidationError(
                    f"{name} must be nonnegative and finite, got {val}")
        return cls(mode=RULED,
                   highway_discount_2=highway_discount_2,
                   highway_discount_3plus=highway_discount_3plus,
                   switch_penalty_km=switch_penalty_km,
                   storage_cost_km=storage_cost_km,
                   maritime_multiplier=maritime_multiplier)


def _checked_markov(table: dict[tuple[int, int], float], **rules: float) -> CostModel:
    """The Markov model on ``table`` (int pairs to float costs), with the
    ruled-mode fields ``rules``, once every cost is finite and nonnegative."""
    costs = np.fromiter(table.values(), float, len(table))
    bad = np.flatnonzero(~(np.isfinite(costs) & (costs >= 0)))
    if bad.size:
        (i, j), c = list(table.items())[bad[0]]
        raise ValidationError(
            f"markov cost for ({i},{j}) must be finite nonnegative, got {c}")
    if not table:
        raise ValidationError("markov cost table is empty")
    return CostModel(mode=MARKOV, edge_costs=table, **rules)


def cost_matrix(model: CostModel, n: int) -> np.ndarray:
    """Per-step costs of a Markov model as a read-only ``(n, n)`` array;
    ``inf`` off the cost table.

    Row/column ``i-1`` is node ``i``; a cost-table pair outside ``1..n``
    raises :class:`ValidationError`.
    The table is scattered from the cost table's arrays once per model and
    ``n``, and kept on the model.
    """
    if model.mode != MARKOV:
        raise ValidationError("cost_matrix requires a markov-mode CostModel")
    C = model._cost_tables.get(n)
    if C is not None:
        return C
    table = model.edge_costs
    pairs = np.array(list(table), dtype=np.int64).reshape(len(table), 2)
    outside = np.flatnonzero(((pairs < 1) | (pairs > n)).any(axis=1))
    if outside.size:
        i, j = pairs[outside[0]].tolist()
        raise ValidationError(f"cost table pair ({i},{j}) outside 1..{n}")
    C = pair_matrix(n, pairs, np.fromiter(table.values(), float, len(table)),
                    math.inf)
    C.flags.writeable = False
    model._cost_tables[n] = C
    return C


def log_weight_matrix(model: CostModel, alpha: float, n: int) -> np.ndarray:
    """Gibbs edge log-weights ``-cost/alpha`` of :func:`cost_matrix`; ``-inf``
    off the edge set."""
    if model.mode != MARKOV:
        raise ValidationError("log_weight_matrix requires a markov-mode CostModel")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    return -cost_matrix(model, n) / alpha


def edge_table(network: Network, model: CostModel) -> tuple[np.ndarray, np.ndarray]:
    """The edge each node pair uses under ``model``, as two ``(n, n)`` arrays
    (node ``i`` is row ``i-1``): its kind's index in :data:`EDGE_KINDS` (-1
    off the edge set) and its contribution (0 there).  An edge contributes
    its length, times the maritime multiplier on a sea leg, or the flat
    storage fee on a storage loop, times its pair's edge multiplier; among
    parallel edges the cheapest contribution wins, ties going to the kind name.
    """
    pairs, row, kind, length = network._edge_columns
    base = np.where(kind == EDGE_KINDS.index(EdgeKind.MARITIME),
                    model.maritime_multiplier * length,
                    np.where(kind == EDGE_KINDS.index(EdgeKind.STORAGE),
                             model.storage_cost_km, length))
    mults = model.edge_multipliers
    factor = pair_matrix(network.n, list(mults),
                         np.fromiter(mults.values(), float, len(mults)), 1.0)
    contrib = base * factor[pairs[row, 0] - 1, pairs[row, 1] - 1]
    # edges by pair, cheapest first, ties by kind: each pair's first one wins
    order = np.lexsort((kind, contrib, row))
    first = order[np.searchsorted(row[order], np.arange(len(pairs)))]
    return (pair_matrix(network.n, pairs, kind[first], -1),
            pair_matrix(network.n, pairs, contrib[first], 0.0))


def reprice(model: CostModel, edges: Iterable[tuple[int, int]],
            multiplier: float) -> CostModel:
    """Return a model with the given ordered pairs re-priced by ``multiplier``.

    Factors compose multiplicatively with any existing multipliers.  Markov
    tables are scaled directly.
    """
    if not 0 <= multiplier < math.inf:
        raise ValidationError(
            f"multiplier must be nonnegative and finite, got {multiplier}")
    pairs = [(int(i), int(j)) for i, j in edges]
    if model.mode == MARKOV:
        table = dict(model.edge_costs)
        for pair in pairs:
            if pair in table:
                table[pair] = table[pair] * multiplier
        return replace(model, edge_costs=table)
    mults = dict(model.edge_multipliers)
    for pair in pairs:
        mults[pair] = mults.get(pair, 1.0) * multiplier
    return replace(model, edge_multipliers=mults)


def markov_model_from_network(network: Network,
                              ruled: CostModel | None = None) -> CostModel:
    """Derive a per-edge (Markov) cost table from network geometry.

    Each edge pair costs its :func:`edge_table` contribution.  Run discounts
    and switch penalties are path-level rules and do not enter the table;
    the ruled model's fields are copied onto the Markov model, and its
    :func:`cost_matrix` table is the edge table's own, ``inf`` off the edges.
    """
    if ruled is None:
        ruled = CostModel.ruled()
    contrib = edge_table(network, ruled)[1]
    costs = contrib[network.edge_mask]   # in pair order
    table = dict(zip(map(tuple, network.pairs.tolist()), costs.tolist()))
    model = _checked_markov(table, **{name: getattr(ruled, name) for name in RULE_FIELDS})
    step = np.where(network.edge_mask, contrib, math.inf)
    step.flags.writeable = False
    model._cost_tables[network.n] = step
    return model


# ---------------------------------------------------------------------------
# path space
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class PathSpace:
    """All feasible horizon-``T`` paths, in lexicographic order.

    ``array`` is the ``(N, T+1)`` int64 matrix of node ids, one path per row;
    ``starts``/``ends`` are its first/last columns.  ``paths`` (the rows as
    tuples) is built on first use.
    """

    horizon: int
    n: int
    array: np.ndarray = field(repr=False)
    starts: np.ndarray = field(init=False, repr=False)
    ends: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.array, dtype=np.int64)
        arr = arr.reshape(len(arr), self.horizon + 1)
        object.__setattr__(self, "array", arr)
        object.__setattr__(self, "starts", arr[:, 0].copy())
        object.__setattr__(self, "ends", arr[:, -1].copy())

    @cached_property
    def paths(self) -> tuple[tuple[int, ...], ...]:
        return tuple(zip(*self.array.T.tolist()))

    @property
    def size(self) -> int:
        return self.array.shape[0]


_KEY_LIMIT = 2 ** 63


def _dense(values: np.ndarray) -> tuple[np.ndarray, int]:
    """Dense ranks of ``values`` and the number of distinct values."""
    distinct, inverse = np.unique(values, return_inverse=True)
    return inverse, distinct.size


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """One int64 key per row of an integer matrix, ordered as the rows are
    lexicographically: each column is packed in mixed radix over its id range.

    When the next column would take the key past 63 bits, the packed prefix
    is replaced by its dense ranks; a column whose id range is too wide even
    then is replaced by its own dense ranks.
    """
    rows = np.asarray(rows, dtype=np.int64)
    key = np.zeros(len(rows), dtype=np.int64)
    span = 1        # every key is below span; span < 2**63 keeps it int64
    if not len(rows):
        return key
    for col in rows.T:
        low = int(col.min())
        width = int(col.max()) - low + 1
        if span * width >= _KEY_LIMIT:
            key, span = _dense(key)
        if span * width >= _KEY_LIMIT:
            col, width = _dense(col)
            low = 0
        key = key * width + (col - low)
        span *= width
    return key


def row_ranks(rows: np.ndarray) -> np.ndarray:
    """Dense lexicographic rank of each row of an integer matrix."""
    return _dense(_row_keys(rows))[0]


def row_join(rows: np.ndarray, block: np.ndarray) -> np.ndarray:
    """Row of ``block`` (distinct rows) equal to each row of ``rows``, or -1
    where there is none; a table of another width matches nothing.  Both
    tables are packed into one set of keys and each row of ``rows`` is looked
    up by binary search among the sorted keys of ``block``."""
    if np.shape(rows)[1:] != np.shape(block)[1:] or not len(block):
        return np.full(len(rows), -1)
    key = _row_keys(np.concatenate([block, rows]))
    known, wanted = key[:len(block)], key[len(block):]
    order = np.argsort(known)
    at = order[np.minimum(np.searchsorted(known, wanted, sorter=order),
                          len(block) - 1)]
    return np.where(known[at] == wanted, at, -1)


def path_vector(space: PathSpace, rows: np.ndarray, probs: np.ndarray,
                what: str) -> np.ndarray:
    """Normalised vector over ``space`` of a path table (node rows, masses).

    Raises :class:`ValidationError` when a row is a path outside the space or
    the table carries no mass on it; ``what`` names the table in the message.
    """
    at = row_join(rows, space.array)
    unknown = np.flatnonzero(at < 0)
    if unknown.size:
        examples = list(map(tuple, rows[unknown[:3]].tolist()))
        raise ValidationError(f"{what} puts mass on paths outside the feasible "
                              f"space, e.g. {examples}")
    vec = np.zeros(space.size)
    vec[at] = probs
    total = float(vec.sum())
    if total <= 0:
        raise ValidationError(f"{what} carries no mass on the feasible space")
    return vec / total


def require_edges(network: Network, what: str, pairs) -> None:
    """Refuse the first ``(tail, head)`` of ``pairs`` that is not an edge of
    ``network`` (also one outside ``1..n``), calling it a ``what`` pair."""
    n = network.n
    for i, j in pairs:
        if not (1 <= i <= n and 1 <= j <= n and network.edge_mask[i - 1, j - 1]):
            raise ValidationError(f"{what} pair ({i}, {j}) is not an edge of the network")


def enumerate_paths(network: Network, horizon: int,
                    start_support: Iterable[int],
                    end_support: Iterable[int],
                    model: CostModel) -> PathSpace:
    """Materialise the feasible path space as its ``(N, T+1)`` node matrix.

    The rows are the walks over the network's edges (on the Markov model,
    the cost table's pairs among them) from the start support to the end
    support, listed by :func:`~iotnet.chain.walks` in lexicographic order:
    counted first, so a space too large to hold is refused by its horizon
    and size before any row is built.  Raises :class:`InfeasibleError` when
    no path runs, also from an empty support.
    """
    if horizon < 1:
        raise ValidationError(f"horizon must be >= 1, got {horizon}")
    n = network.n
    starts, ends = {int(s) for s in start_support}, {int(s) for s in end_support}
    for s in sorted(starts | ends):
        if not (1 <= s <= n):
            raise ValidationError(f"support references unknown node {s}")

    steps = network.edge_mask
    if model.mode == MARKOV:  # a Markov step also needs a cost-table entry
        steps = steps & pair_matrix(n, list(model.edge_costs), True, False)
    return PathSpace(horizon=horizon, n=n, array=walks(steps, horizon, starts, ends))


def unreachable_nodes(n: int, pairs: Sequence[Sequence[int]] | np.ndarray) -> list[int]:
    """Nodes of ``1..n`` that node 1 does not reach, or that do not reach it.

    ``pairs`` are the directed ``(tail, head)`` steps of the support; the
    support is strongly connected exactly when the list is empty.
    """
    step = pair_matrix(n, pairs, True, False)

    def reached(adj: np.ndarray) -> np.ndarray:
        seen = frontier = np.arange(n) == 0
        while frontier.any():
            frontier = adj[frontier].any(axis=0) & ~seen
            seen = seen | frontier
        return seen

    return (np.flatnonzero(~(reached(step) & reached(step.T))) + 1).tolist()


def strongly_connected(network: Network) -> bool:
    """True when every node reaches every other along directed edges."""
    return not unreachable_nodes(network.n, network.pairs)


def _ruled_costs(model: CostModel, network: Network, arr: np.ndarray) -> np.ndarray:
    """Rule-based cost of each row of ``arr`` (non-additive over steps).

    Each step takes its :func:`edge_table` contribution; maximal runs of
    consecutive highway edges get the run discount (20% for a run of 2, 30%
    for 3 or more, on the run's total), and each position where consecutive
    edges differ in kind adds the flat switch penalty.  The highway-run state
    (run total, run length, kind switches) is carried as columns, one step at
    a time.  Rows with a step over no edge come out ``inf``.
    """
    if model.mode != RULED:
        raise ValidationError("ruled path costs require a ruled-mode CostModel")
    if arr.shape[1] < 2:
        raise ValidationError("a path needs at least one step")
    n = network.n
    # indexed by node id; row and column 0, no node, are off the edge set
    kind = np.full((n + 1, n + 1), -1, dtype=np.int64)
    contrib = np.zeros((n + 1, n + 1))
    kind[1:, 1:], contrib[1:, 1:] = edge_table(network, model)
    highway = EDGE_KINDS.index(EdgeKind.HIGHWAY)
    # kept share of a run's total by run length 0, 1, 2, >=3 (x * 1.0 == x)
    keep = np.array([1.0, 1.0, 1.0 - model.highway_discount_2,
                     1.0 - model.highway_discount_3plus])

    rows = arr.shape[0]
    total = np.zeros(rows)
    run = np.zeros(rows)
    run_len = np.zeros(rows, dtype=np.int64)
    switches = np.zeros(rows, dtype=np.int64)
    missing = np.zeros(rows, dtype=bool)

    def close_runs(mask: np.ndarray) -> None:
        done = mask & (run_len > 0)
        total[done] += run[done] * keep[np.minimum(run_len[done], 3)]
        run[done] = 0.0
        run_len[done] = 0

    prev = None
    for t in range(arr.shape[1] - 1):
        k = kind[arr[:, t], arr[:, t + 1]]
        c = contrib[arr[:, t], arr[:, t + 1]]
        missing |= k < 0
        on_highway = k == highway
        run[on_highway] += c[on_highway]
        run_len[on_highway] += 1
        close_runs(~on_highway)
        total[~on_highway] += c[~on_highway]
        if prev is not None:
            switches += prev != k
        prev = k
    close_runs(np.ones(rows, dtype=bool))
    total += model.switch_penalty_km * switches
    total[missing] = math.inf
    return total


def path_costs(space: PathSpace, model: CostModel, network: Network) -> np.ndarray:
    """Vector of path costs aligned with the rows of ``space.array`` (all finite).

    Markov costs add the steps of :func:`cost_matrix` in path order
    (:func:`~iotnet.chain.row_sums`); ruled costs run :func:`_ruled_costs`'s
    run-length rules over all paths at once.
    """
    arr = space.array
    if model.mode == MARKOV:
        out = row_sums(cost_matrix(model, space.n), arr)
    else:
        out = _ruled_costs(model, network, arr)
    if not np.all(np.isfinite(out)):
        bad = list(map(tuple, arr[~np.isfinite(out)][:5].tolist()))
        raise ValidationError(f"path space contains infinite-cost paths, e.g. {bad}")
    return out


# ---------------------------------------------------------------------------
# network file I/O
# ---------------------------------------------------------------------------


def network_to_dict(network: Network, ruled: CostModel | None = None) -> dict:
    doc = {
        "nodes": [{"id": nd.id, "x_km": nd.x_km, "y_km": nd.y_km,
                   **({"label": nd.label} if nd.label else {})}
                  for nd in network.nodes],
        "edges": [{"from": e.tail, "to": e.head, "kind": e.kind.value,
                   "length_km": e.length_km}
                  for e in network.edges],
    }
    if ruled is not None:
        doc["cost_rules"] = {name: getattr(ruled, name) for name in RULE_FIELDS}
    return doc


def network_from_dict(doc: dict) -> tuple[Network, CostModel]:
    from .fileio import number, parse_field, whole_number
    try:
        nodes = [Node(parse_field(f"nodes[{k}].id", whole_number, nd["id"]),
                      *(parse_field(f"nodes[{k}].{axis}", number, nd[axis])
                        for axis in ("x_km", "y_km")),
                      str(nd.get("label", "")))
                 for k, nd in enumerate(doc["nodes"])]
        edges = [(*(parse_field(f"edges[{k}].{end}", whole_number, e[end])
                    for end in ("from", "to")), str(e["kind"]),
                  None if e.get("length_km") is None
                  else parse_field(f"edges[{k}].length_km", number, e["length_km"]))
                 for k, e in enumerate(doc["edges"])]
        rules = {k: parse_field(f"cost_rules.{k}", number, v)
                 for k, v in doc.get("cost_rules", {}).items()}
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed network document: {exc}") from exc
    try:
        network = build_network(nodes, edges)
    except ValueError as exc:  # unknown EdgeKind value
        raise ValidationError(str(exc)) from exc
    unknown = set(rules) - set(RULE_FIELDS)
    if unknown:
        raise ValidationError(f"unknown cost_rules keys: {sorted(unknown)}")
    model = CostModel.ruled(**rules)
    return network, model


def load_network(path: str) -> tuple[Network, CostModel]:
    """Load a network JSON file; returns the network and its ruled cost model."""
    from .fileio import _read_json, naming
    with naming("network file", path):
        return network_from_dict(_read_json(path))


def save_network(network: Network, path: str,
                 ruled: CostModel | None = None) -> None:
    from .fileio import atomic_write_text
    atomic_write_text(path, json.dumps(network_to_dict(network, ruled), indent=2,
                                       sort_keys=True) + "\n")
