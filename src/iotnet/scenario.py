"""Logistics scenario engine: load a spec, solve the plans, write reports.

Two scenario kinds, one runner (:func:`run_scenario`) that solves the
imitation plan and reports it beside the cost-optimal plan, per destination:

* ``imitation`` — rule-based (non-Markov) costs, a path-form target blended
  toward uniform; the target itself is reported as a third plan.
* ``risk`` — per-edge (Markov) costs and a raw step-weight target encoding
  risk aversion (disrupted edges nearly forbidden, maritime lanes strongly
  preferred, everything else neutral); after solving, a disaster multiplies
  the affected edges' costs and both fixed plans are re-priced, per
  destination, to show who actually pays.

Scenario files are JSON.  The ``network`` field is a file path or a builtin
name (``builtin:synthetic30`` / ``builtin:risk30``, seeded by ``--seed``);
builtins come with supplies, demands, and — for the risk variant — the
affected edge set, all overridable in the file.

The cost-optimal plan is the path LP on the cheapest path of each (start,
end) pair, solved as a transportation problem (:func:`transport_lp`).  The
reduction is exact: moving a pair's mass onto its cheapest path keeps both
marginals and never raises the cost.

Where the numbers come from:

* One LP per scenario, on the cheapest rows, by the transportation simplex
  (:func:`transport_lp`; :func:`~iotnet.oracle.lp_ot` is its test oracle).
  The imitation kind's costs are not additive over steps, so it enumerates
  the path space and picks the rows from it (:func:`cheapest_paths`, the
  lowest path index on ties); the risk kind finds the same rows, in the same
  order, without enumerating (:func:`cheapest_rows`).
* Every plan is a node table (one path per row, with its mass and cost) or
  a chain.  Node tables, the LP plan of either kind and the imitation
  kind's target and imitation plan, go through :func:`plan_report`:
  per-destination sums by ``np.bincount``, and the total is their sum.
* The risk kind enumerates no path.  Its imitation plan is a Markov chain,
  so edge usage and the KL come from the solve
  (:func:`~iotnet.imitation.chain_plan`), per-destination cost and mass
  from one backward pass per cost model (:func:`chain_totals`), and the
  path count from :func:`~iotnet.chain.count_walks`, which counts without
  listing.  The disaster
  reprices the LP's rows by their steps (:func:`~iotnet.chain.row_sums`).
  The space is enumerated only if a caller reads ``ScenarioResult.space``
  or the plan's path arrays.
* The risk kind's Markov costs and step weights (:func:`build_risk_matrix`,
  an ``np.where`` over kinds and affected pairs) both read the network's
  edge table (:func:`~iotnet.network.edge_table`).
* Report files are written a column at a time (:func:`emit_report`): each
  column is one ``map`` over a list, and the rows one ``",".join``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from . import fixtures
from .chain import count_walks, min_plus, row_sums
from .errors import InfeasibleError, ValidationError
from .fileio import (_read_json, atomic_write_text, digits, fmt,
                     load_path_distribution, load_step_weights, naming,
                     node_masses, number, parse_field, whole_number)
from .imitation import ImitationTarget, IOTProblem, TransportPlan, solve_iot
from .network import (EDGE_KINDS, CostModel, EdgeKind, Network, PathSpace,
                      cost_matrix, edge_table, load_network,
                      markov_model_from_network, network_from_dict,
                      pair_matrix, reprice, require_edges)

DISPLAY_THRESHOLD = 1e-4  # hide flows below 0.01% of a step's mass
# the top-level fields and the ``scenario`` block fields each kind reads
_TOP_FIELDS = {"imitation": {"network", "supply", "demand", "T", "alpha", "scenario"},
               "risk": {"network", "supply", "demand", "T", "alpha", "scenario",
                        "disaster"}}
_BLOCK_FIELDS = {"imitation": {"kind", "q_star", "beta"},
                "risk": {"kind", "rq_file", "affected", "weights", "normalize_rows"}}


@dataclass(frozen=True)
class RiskWeights:
    affected: float = 1e-5
    maritime: float = 100.0
    regular: float = 1.0


@dataclass(frozen=True)
class DisasterSpec:
    edges: tuple[tuple[int, int], ...]
    multiplier: float = fixtures.DISASTER_MULTIPLIER


@dataclass(frozen=True)
class ScenarioSpec:
    kind: str
    path: str
    network_ref: str | dict
    horizon: int
    alpha: float
    beta: float = 0.0
    supply: dict[int, float] | None = None
    demand: dict[int, float] | None = None
    q_star_ref: str | None = None
    rq_file_ref: str | None = None
    normalize_rows: bool = False
    risk_weights: RiskWeights = field(default_factory=RiskWeights)
    affected: tuple[tuple[int, int], ...] | None = None
    disaster: DisasterSpec | None = None

    def resolve(self, ref: str) -> str:
        """The path of a file the scenario names, from its own directory."""
        return os.path.join(os.path.dirname(os.path.abspath(self.path)), ref)


@dataclass(frozen=True)
class PlanReport:
    """Display-ready view of one plan on one cost model; the per-destination
    cost and mass are ``(n,)`` arrays indexed by ``node - 1``."""

    label: str
    total_cost: float
    per_destination_cost: np.ndarray
    per_destination_mass: np.ndarray


@dataclass(frozen=True)
class DisasterRow:
    node: int
    mass: float
    imitation_before: float
    imitation_after: float
    optimal_before: float
    optimal_after: float

    @property
    def imitation_delta(self) -> float:
        return self.imitation_after - self.imitation_before

    @property
    def optimal_delta(self) -> float:
        return self.optimal_after - self.optimal_before


@dataclass(frozen=True)
class DisasterResult:
    multiplier: float
    edges: tuple[tuple[int, int], ...]
    rows: tuple[DisasterRow, ...]
    imitation_total_before: float
    imitation_total_after: float
    optimal_total_before: float
    optimal_total_after: float


@dataclass(frozen=True)
class ScenarioResult:
    """A solved scenario; ``paths`` is the size of its path space, which the
    risk kind counts without enumerating it."""

    kind: str
    alpha: float
    beta: float
    paths: int
    imitation_plan: TransportPlan
    reports: dict[str, PlanReport]
    lp_objective: float
    disaster: DisasterResult | None = None

    @property
    def space(self) -> PathSpace:
        """The path space, enumerated on first access for the risk kind."""
        return self.imitation_plan.path_space


# ---------------------------------------------------------------------------
# loading
# ---------------------------------------------------------------------------


def _pairs(value: object) -> tuple[tuple[int, int], ...]:
    pairs = sorted((whole_number(i), whole_number(j)) for i, j in value)
    if any(abs(k) >= 2 ** 63 for pair in pairs for k in pair):
        raise ValueError("a node id does not fit int64")
    for (i, j), later in zip(pairs, pairs[1:]):
        if (i, j) == later:
            raise ValueError(f"pair ({i},{j}) is named twice")
    return tuple(pairs)


def _mass_map(doc: dict, name: str) -> dict[int, float] | None:
    """The positive masses of the node -> mass map ``doc[name]``; None without it."""
    if name not in doc:
        return None
    with naming(name):
        out = {node: mass for node, mass in node_masses(doc[name]).items() if mass > 0}
        if not out:
            raise ValidationError("carries no mass")
        return out


def load_scenario(path: str) -> ScenarioSpec:
    """Parse and validate a scenario file.

    Top level: ``{"network", "supply", "demand", "T", "alpha",
    "scenario": {...}, "disaster": {"edges": [[i,j], ...], "multiplier"}}``.
    The ``scenario`` object carries ``"kind"`` — ``"imitation"`` with
    ``"q_star"`` (a path-distribution file, or ``"builtin"``) and ``"beta"``,
    or ``"risk"`` with either ``"rq_file"`` (explicit step weights) or
    ``"affected"`` + optional ``"weights"`` to build them; ``"normalize_rows"``
    (a boolean) opts into row-stochastic risk weights.  A field, top-level
    (only risk scenarios read ``"disaster"``) or in the block, that its kind
    does not read, or ``"weights"`` beside an ``"rq_file"``, is refused.
    Supply and demand may be omitted for builtin networks, which carry their own.
    """
    with naming("scenario", path):
        doc = _read_json(path)
        if not isinstance(doc, dict):
            raise ValidationError("expected a JSON object")
        try:
            network_ref = doc["network"]
            horizon = doc["T"]
            alpha = doc["alpha"]
            block = doc["scenario"]
        except KeyError as exc:
            raise ValidationError(f"need network/T/alpha/scenario: {exc}") from exc
        horizon = parse_field("T", whole_number, horizon)
        alpha = parse_field("alpha", number, alpha)
        if not isinstance(block, dict) or "kind" not in block:
            raise ValidationError("'scenario' needs a 'kind'")
        kind = str(block["kind"]).lower()
        if kind == "riskprior":
            kind = "risk"
        if kind not in ("imitation", "risk"):
            raise ValidationError(f"unknown kind {block['kind']!r}")
        if horizon < 1:
            raise ValidationError(f"T must be >= 1, got {horizon}")
        for fields, known, level in ((doc, _TOP_FIELDS, " at the top level"),
                                     (block, _BLOCK_FIELDS, "")):
            unread = sorted(set(fields) - known[kind])
            if unread:
                raise ValidationError(
                    f"a {kind} scenario does not read {unread}{level}")
        if "rq_file" in block and "weights" in block:
            raise ValidationError(
                "weights build the risk target only without an rq_file")

        supply, demand = _mass_map(doc, "supply"), _mass_map(doc, "demand")
        if (supply is None) != (demand is None):
            raise ValidationError("give both supply and demand, or neither")
        if supply is not None:
            s, d = sum(supply.values()), sum(demand.values())
            if not math.isclose(s, d, rel_tol=1e-9, abs_tol=0.0):
                raise ValidationError(f"supply total {s!r} != demand total {d!r}")

        beta = parse_field("beta", number, block.get("beta", 0.0))
        q_star_ref = block.get("q_star")
        rq_file_ref = block.get("rq_file")
        normalize_rows = block.get("normalize_rows", False)
        for key, value in (("q_star", q_star_ref), ("rq_file", rq_file_ref)):
            if value is not None and not isinstance(value, str):
                raise ValidationError(f"{key} must be a str")
        if not isinstance(normalize_rows, bool):
            raise ValidationError("normalize_rows must be a bool")
        wdoc = block.get("weights", {})
        if not isinstance(wdoc, dict):
            raise ValidationError("weights must be an object")
        unknown = set(wdoc) - {"affected", "maritime", "regular"}
        if unknown:
            raise ValidationError(f"unknown risk weight keys {sorted(unknown)}")
        weights = RiskWeights(**{key: parse_field(f"weights.{key}", number, val)
                                 for key, val in wdoc.items()})
        affected = None
        if "affected" in block:
            affected = parse_field("affected", _pairs, block["affected"])

        disaster = None
        if "disaster" in doc:
            ddoc = doc["disaster"]
            if not isinstance(ddoc, dict):
                raise ValidationError("disaster must be an object")
            multiplier = parse_field("disaster.multiplier", number, ddoc.get(
                "multiplier", fixtures.DISASTER_MULTIPLIER))
            if not 0 <= multiplier < math.inf:
                raise ValidationError("disaster.multiplier must be nonnegative "
                                      f"and finite, got {multiplier}")
            disaster = DisasterSpec(
                edges=parse_field("disaster.edges", _pairs, ddoc.get("edges", [])),
                multiplier=multiplier)

        return ScenarioSpec(kind=kind, network_ref=network_ref, horizon=horizon,
                            alpha=alpha, beta=beta, supply=supply, demand=demand,
                            q_star_ref=q_star_ref, rq_file_ref=rq_file_ref,
                            normalize_rows=normalize_rows, risk_weights=weights,
                            affected=affected, disaster=disaster, path=path)


def _resolve(spec: ScenarioSpec, seed: int) -> tuple[Network, CostModel, dict, dict,
                                                     "fixtures.SyntheticFixture | None"]:
    """Network, ruled model, supply, demand; builtin fixture, set to them."""
    ref = spec.network_ref
    fixture = None
    supply, demand = spec.supply, spec.demand
    if isinstance(ref, str) and ref.startswith("builtin:"):
        fixture = fixtures.builtin(ref.split(":", 1)[1], seed)
        network, ruled = fixture.network, fixture.ruled
        supply = spec.supply or dict(fixture.supply)
        demand = spec.demand or dict(fixture.demand)
        fixture = replace(fixture, horizon=spec.horizon, supply=supply, demand=demand)
    elif isinstance(ref, dict):
        with naming("network"):
            network, ruled = network_from_dict(ref)
    else:
        network, ruled = load_network(spec.resolve(str(ref)))
    if supply is None or demand is None:
        raise ValidationError("needs supply and demand (builtins provide "
                              "defaults; files must state them)")
    for name, masses in (("supply", supply), ("demand", demand)):
        for node in masses:
            if not (1 <= node <= network.n):
                raise ValidationError(f"{name} references unknown node {node}")
    return network, ruled, supply, demand, fixture


def build_risk_matrix(network: Network, model: CostModel,
                      affected: tuple[tuple[int, int], ...],
                      weights: RiskWeights) -> np.ndarray:
    """Step weights over existing pairs: affected / maritime / regular, a
    pair's kind read from the edge table under ``model``."""
    kind, _ = edge_table(network, model)
    hit = pair_matrix(network.n, affected, True, False)
    return np.where(kind < 0, 0.0, np.where(
        hit, weights.affected,
        np.where(kind == EDGE_KINDS.index(EdgeKind.MARITIME), weights.maritime,
                 weights.regular)))


# ---------------------------------------------------------------------------
# reporting helpers
# ---------------------------------------------------------------------------


def plan_report(label: str, rows: np.ndarray, law: np.ndarray, costs: np.ndarray,
                n: int) -> PlanReport:
    """Cost and mass per destination of the node table ``rows`` (one path per
    row) carrying ``law`` at ``costs``; the total is the destinations' sum."""
    ends = rows[:, -1] - 1
    by_dest = np.bincount(ends, weights=law * costs, minlength=n)
    return PlanReport(label=label, total_cost=float(by_dest.sum()),
                      per_destination_cost=by_dest,
                      per_destination_mass=np.bincount(ends, weights=law,
                                                       minlength=n))


def chain_totals(transitions: np.ndarray, nu0: np.ndarray,
                 cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Cost and mass per destination of the chain ``nu0``, ``Pi_0..Pi_{T-1}``
    on the ``(n, n)`` step costs ``cost``, as ``(n,)`` arrays.

    One backward pass with one column per end node, from ``E_T = I`` and
    ``G_T = 0``: ``E_t = Pi_t E_{t+1}`` is the probability of ending at each
    node and ``G_t = Pi_t G_{t+1} + (Pi_t o C) E_{t+1}`` the expected cost
    paid on the way there; the totals are ``nu0 @ G_0`` and ``nu0 @ E_0``.
    """
    # the chain never steps off the cost table, where the cost is inf
    cost = np.where(np.isfinite(cost), cost, 0.0)
    ends, paid = np.eye(nu0.shape[0]), np.zeros((nu0.shape[0],) * 2)
    for Pi in reversed(transitions):
        paid = Pi @ paid + (Pi * cost) @ ends
        ends = Pi @ ends
    return nu0 @ paid, nu0 @ ends


def cheapest_paths(space: PathSpace, costs: np.ndarray
                   ) -> tuple[np.ndarray, np.ndarray]:
    """The cheapest path of each endpoint pair of ``space`` and its cost.

    Ties go to the lowest path index, the column Bland's rule tries first.
    Rows come in space (lexicographic) order.
    """
    pair = space.starts * (space.n + 1) + space.ends
    best = np.full((space.n + 1) ** 2, math.inf)
    np.minimum.at(best, pair, costs)
    cand = np.nonzero(costs == best[pair])[0]
    # return_index gives each pair's first candidate: the lowest path index
    _, first = np.unique(pair[cand], return_index=True)
    keep = np.sort(cand[first])
    return space.array[keep], costs[keep]


def cheapest_rows(cost: np.ndarray, horizon: int, starts: np.ndarray,
                  ends: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows :func:`cheapest_paths` keeps, found without enumeration.

    ``cost`` is the ``(n, n)`` step-cost array (``inf`` off the feasible
    steps).  For each (start, end) pair joined by a horizon-step path, this
    returns the lexicographically first path whose cost, added left to
    right, is the smallest, and that cost: the lowest-index cheapest path of
    the enumerated space.  Rows come in lexicographic order.

    A forward min-plus pass gives each pair's smallest cost exactly, since
    rounding is monotone: the cheapest left-to-right sum extends a cheapest
    prefix.  The first path reaching it is the first leaf of a depth-first
    walk over successors in ascending order, pruned where the prefix plus
    the cheapest cost-to-go (a backward min-plus pass, summed in another
    order, with a column per end node) exceeds it by more than a relative
    1e-12.  That walk's first descent is taken for every pair at once: at
    each step, the lowest successor within the bound, one ``argmax`` over a
    (pairs x nodes) mask.  The walk itself runs only for the pairs whose
    descent stops short or does not add up to the smallest cost exactly.
    """
    n = cost.shape[0]
    # to_go[t][j, c]: cheapest cost from node j to ends[c] in the horizon - t - 1
    # steps after step t
    to_go = [np.where(np.arange(n)[:, None] == ends - 1, 0.0, math.inf)]
    for _ in range(horizon - 1):
        to_go.insert(0, min_plus(cost, to_go[0]))
    # best[k, e]: smallest left-to-right cost from starts[k] to e
    best = np.full((len(starts), n), math.inf)
    best[np.arange(len(starts)), starts - 1] = 0.0
    for _ in range(horizon):
        best = min_plus(best, cost)

    # one pair per (start, end column) with a path, in start-major order
    k, col = np.nonzero(best[:, ends - 1] < math.inf)
    target = best[k, ends[col] - 1]
    bound = target + 1e-12 * np.abs(target)
    pick = np.arange(k.size)
    node, prefix = starts[k] - 1, np.zeros(k.size)
    path, landed = [node], np.ones(k.size, dtype=bool)
    for t in range(horizon):
        total = prefix[:, None] + cost[node]
        fits = total + to_go[t][:, col].T <= bound[:, None]
        node = np.argmax(fits, axis=1)
        landed &= fits[pick, node]
        prefix = total[pick, node]
        path.append(node)
    rows = np.stack(path, axis=1)
    redo = np.flatnonzero(~landed | (prefix != target))

    if redo.size:
        succ = [np.flatnonzero(np.isfinite(row)).tolist() for row in cost]
        step, to_go = cost.tolist(), [m.tolist() for m in to_go]

        def first(path: list[int], prefix: float, end: int, target: float,
                  bound: float) -> list[int] | None:
            t, i = len(path) - 1, path[-1]
            if t == horizon:
                return path if prefix == target else None
            for j in succ[i]:
                total = prefix + step[i][j]
                if total + to_go[t][j][end] <= bound:
                    found = first(path + [j], total, end, target, bound)
                    if found is not None:
                        return found
            return None

        for p in redo.tolist():
            rows[p] = first([int(rows[p, 0])], 0.0, int(col[p]), float(target[p]),
                            float(bound[p]))
    rows += 1
    order = np.lexsort(rows.T[::-1])
    return rows[order], target[order]


def _transport_simplex(cost: np.ndarray, supply: np.ndarray,
                       demand: np.ndarray) -> np.ndarray:
    """Optimal flows of the balanced ``m x n`` transportation problem, as a
    flat array over cells ``i * n + j``; see :func:`transport_lp`.

    The basis is a spanning tree on the lines: rows ``0..m-1``, then columns
    ``m..m+n-1``, rooted at row 0.  Each line keeps its parent, depth, link
    (the basic cell to its parent) and MODI potential, ``u_i + v_j = c_ij``
    on every basic cell and 0 at the root.
    """
    m, n = cost.shape
    flat = cost.ravel()
    listed = flat.tolist()
    flow = [0.0] * (m * n)
    adjacent: list[list[tuple[int, int]]] = [[] for _ in range(m + n)]
    # least-cost start: each cell taken closes one line, so the m + n - 1
    # cells span a tree; the last open row or column closes only with the
    # other's last one, so round-off leaves no line without a cell
    left = supply.tolist() + demand.tolist()
    closed = [False] * (m + n)
    rows_open, cols_open = m, n
    for cell in np.argsort(flat, kind="stable").tolist():
        i, j = cell // n, m + cell % n
        if closed[i] or closed[j]:
            continue
        flow[cell] = amount = min(left[i], left[j])
        left[i] -= amount
        left[j] -= amount
        adjacent[i].append((j, cell))
        adjacent[j].append((i, cell))
        if rows_open == cols_open == 1:
            break
        if rows_open > 1 and (left[i] <= left[j] or cols_open == 1):
            closed[i], rows_open = True, rows_open - 1
        else:
            closed[j], cols_open = True, cols_open - 1

    parent, depth, link = [-1] * (m + n), [0] * (m + n), [-1] * (m + n)
    potential = [0.0] * (m + n)

    def hang(top: int) -> None:
        """Parent, depth, link and potential of every line below ``top``,
        from ``top``'s own."""
        stack = [top]
        while stack:
            node = stack.pop()
            for other, cell in adjacent[node]:
                if other != parent[node]:
                    parent[other], depth[other], link[other] = (
                        node, depth[node] + 1, cell)
                    potential[other] = listed[cell] - potential[node]
                    stack.append(other)

    hang(0)
    # a potential sums up to m + n costs, so a reduced cost within a
    # relative 1e-12 of 0 is round-off, not a cheaper basis
    tol = 1e-12 * float(np.abs(flat).max())
    bland = False
    while True:
        uv = np.array(potential)
        reduced = (cost - uv[:m, None] - uv[None, m:]).ravel()
        reduced[link[1:]] = 0.0
        # Dantzig's entering cell, or Bland's while the last pivot was
        # degenerate; the lowest cell index on ties either way
        enter = int(np.argmax(reduced < -tol) if bland else np.argmin(reduced))
        if not reduced[enter] < -tol:
            return np.array(flow)
        # the cycle: the entering cell, then the tree path from its row and
        # its column up to where they meet; each line stands for its link,
        # and the links lose and gain theta in turn from either end
        row, col = enter // n, m + enter % n
        side_row, side_col = [], []
        a, b = row, col
        while a != b:
            if depth[a] >= depth[b]:
                side_row.append(a)
                a = parent[a]
            else:
                side_col.append(b)
                b = parent[b]
        minus = side_row[0::2] + side_col[0::2]
        theta = min(flow[link[w]] for w in minus)
        out = min((w for w in minus if flow[link[w]] == theta), key=link.__getitem__)
        for w in minus:
            flow[link[w]] -= theta
        for w in side_row[1::2] + side_col[1::2]:
            flow[link[w]] += theta
        flow[enter] = theta
        bland = theta == 0.0
        # the leaving link cuts off the subtree below ``out``; it hangs
        # again from the entering cell's end outside it
        top, below = (row, col) if out in side_row else (col, row)
        adjacent[out].remove((parent[out], link[out]))
        adjacent[parent[out]].remove((out, link[out]))
        adjacent[top].append((below, enter))
        adjacent[below].append((top, enter))
        parent[top], depth[top], link[top] = below, depth[below] + 1, enter
        potential[top] = listed[enter] - potential[below]
        hang(top)


def transport_lp(rows: np.ndarray, costs: np.ndarray, nu0: np.ndarray,
                 nuT: np.ndarray) -> tuple[np.ndarray, float]:
    """The cost-optimal flow on each row of the node table ``rows`` (one path
    per endpoint pair, at ``costs``) between the start law ``nu0`` and the
    end law ``nuT``, and its cost ``costs @ flow``.

    This is the Hitchcock transportation problem on a table with one row per
    positive-mass start and one column per positive-mass end; a row of
    ``rows`` on a zero-mass start or end carries no flow.  It is solved by
    the transportation simplex (Dantzig 1951): a least-cost starting basis
    (cells in stable cost order; it may be degenerate), MODI potentials
    ``u_i + v_j = c_ij`` from one walk of the basis tree, the most negative
    reduced cost entering, and flows moved by exactly ``+-theta`` around the
    cycle the tree closes, so they stay nonnegative and the leaving cell (the
    lowest index among the cycle's tied minima) drops to 0 exactly.  After a
    degenerate pivot (``theta = 0``) the entering cell is Bland's, the lowest
    index with a negative reduced cost, until the next nondegenerate one, so
    the method cannot cycle on degenerate bases (Bland 1977; Cunningham
    1976 for network bases).
    """
    costs = np.asarray(costs, dtype=float)
    if not np.all(np.isfinite(costs)):
        raise ValidationError("LP costs must be finite")
    sources, sinks = np.flatnonzero(nu0 > 0), np.flatnonzero(nuT > 0)
    supply, demand = nu0[sources], nuT[sinks]
    if not (sources.size and math.isclose(supply.sum(), demand.sum(),
                                          rel_tol=1e-9)):
        raise InfeasibleError(f"start mass {supply.sum()!r} and end mass "
                              f"{demand.sum()!r} must be positive and equal")
    def line(nodes: np.ndarray, lines: np.ndarray) -> np.ndarray:
        """The table line of each node id, -1 for a node without mass."""
        at = np.full(nu0.shape[0] + 1, -1)
        at[lines + 1] = np.arange(lines.size)
        return at[nodes]

    i, j = line(rows[:, 0], sources), line(rows[:, -1], sinks)
    used = np.flatnonzero((i >= 0) & (j >= 0))
    row_at = np.full((sources.size, sinks.size), -1)
    row_at[i[used], j[used]] = used
    missing = np.argwhere(row_at < 0)
    if missing.size:
        s, e = missing[0]
        raise InfeasibleError(
            f"no row joins start node {sources[s] + 1} to end node "
            f"{sinks[e] + 1}, where both marginals are positive")
    if used.size != row_at.size:
        raise ValidationError("two rows join the same start and end")
    flow = np.zeros(costs.shape[0])
    flow[row_at.ravel()] = _transport_simplex(costs[row_at], supply, demand)
    return flow, float(costs @ flow)


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------


def _q_star(spec: ScenarioSpec, fixture: fixtures.SyntheticFixture | None
            ) -> tuple[ImitationTarget | None, tuple[str, ...]]:
    """The imitation target, a q-file's path table or the builtin's, blended
    by ``beta``, and the names its refusals carry; None without either."""
    if spec.q_star_ref not in (None, "builtin"):
        path = spec.resolve(spec.q_star_ref)
        _, rows, probs = load_path_distribution(path)
        return (ImitationTarget.paths(rows, probs, blend=spec.beta),
                ("path distribution", path))
    if fixture is None:
        return None, ()
    return (ImitationTarget.paths(*fixtures.synthetic_q_star(fixture), blend=spec.beta),
            ("builtin q_star",))


def _risk_target(spec: ScenarioSpec, network: Network, model: CostModel,
                 affected: tuple[tuple[int, int], ...]) -> ImitationTarget:
    """Step weights from an rq-file, or built from the affected edges."""
    initial = None
    if spec.rq_file_ref is not None:
        initial, matrix = load_step_weights(spec.resolve(spec.rq_file_ref), network)
    else:
        if not affected:
            raise ValidationError("risk scenario needs an rq_file or an "
                                  "affected edge set (inline or from the "
                                  "builtin risk fixture)")
        matrix = build_risk_matrix(network, model, affected, spec.risk_weights)
    if spec.normalize_rows:
        rowsum = matrix.sum(axis=1, keepdims=True)
        matrix = np.divide(matrix, rowsum, out=np.zeros_like(matrix),
                           where=rowsum > 0)
    return ImitationTarget.markov(matrix, initial)


def _check_edges(network: Network, affected, disaster_edges) -> None:
    """Refuse an affected pair or a disaster edge that is not an edge of
    ``network``: its weight or its repricing would otherwise fall on nothing."""
    for name, pairs in (("affected", affected), ("disaster.edges", disaster_edges)):
        require_edges(network, name, pairs)


def _disaster_spec(spec: ScenarioSpec,
                   affected: tuple[tuple[int, int], ...]) -> DisasterSpec | None:
    """The spec's disaster, edges defaulting to ``affected``; None if no edges."""
    given = spec.disaster or DisasterSpec(edges=())
    edges = given.edges or tuple(affected)
    return DisasterSpec(edges=edges, multiplier=given.multiplier) if edges else None


def run_scenario(spec: ScenarioSpec, *, seed: int = 0, tol: float = 1e-10,
                 max_iter: int = 100_000) -> ScenarioResult:
    """Solve ``spec``'s imitation plan and report it beside the LP optimum.

    The imitation kind prices paths with the rule-based model and imitates
    ``q_star`` blended by ``beta``; the risk kind prices them per edge,
    imitates the risk step weights, and re-prices both plans under the
    disaster.  The risk kind enumerates no path: its imitation plan is a
    chain; every other plan is a node table.
    """
    risk = spec.kind == "risk"
    # everything up to the solve reads the spec and the files it names
    with naming("scenario", spec.path):
        network, ruled, supply, demand, fixture = _resolve(spec, seed)
        n = network.n
        nu0, nuT = fixtures.marginals(n, supply, demand)
        affected = spec.affected
        if affected is None:
            affected = fixture.affected if fixture is not None else ()
        if risk:
            _check_edges(network, affected, spec.disaster.edges if spec.disaster else ())
            model = markov_model_from_network(network, ruled)
            cost = cost_matrix(model, n)
            paths, _ = count_walks(np.isfinite(cost), spec.horizon, supply, demand)
            target = _risk_target(spec, network, model, affected)
        else:
            model = ruled
            target, names = _q_star(spec, fixture)
        problem = IOTProblem(network=network, cost_model=model, nu0=nu0, nuT=nuT,
                             alpha=spec.alpha, target=target or ImitationTarget.uniform(),
                             horizon=spec.horizon)
        if not risk:
            # listed first: a space too large to hold is refused before the target
            space = problem.space
            paths = space.size
            if target is None:
                raise ValidationError("imitation scenario needs q_star (builtin "
                                      "networks can default to the built-in one)")
            with naming(*names):
                q_star = np.exp(problem.target_log_law)
    plan = solve_iot(problem, tol=tol, max_iter=max_iter)

    def chain_report(step: np.ndarray) -> PlanReport:
        by_dest, mass = chain_totals(plan.transition_matrices, nu0, step)
        return PlanReport("imitation", float(by_dest.sum()), by_dest, mass)

    if risk:
        rows, costs = cheapest_rows(cost, spec.horizon, np.flatnonzero(nu0) + 1,
                                    np.flatnonzero(nuT) + 1)
        reports = {"imitation": chain_report(cost)}
    else:
        rows, costs = cheapest_paths(space, plan.path_costs)
        reports = {label: plan_report(label, space.array, law, plan.path_costs, n)
                   for label, law in (("target", q_star),
                                      ("imitation", plan.path_law))}
    flow, lp_objective = transport_lp(rows, costs, nu0, nuT)
    reports["optimal"] = plan_report("optimal", rows, flow, costs, n)

    disaster = None
    event = _disaster_spec(spec, affected) if risk else None
    if event is not None:
        step = cost_matrix(reprice(model, event.edges, event.multiplier), n)
        # in field order: imitation before/after, then optimal before/after
        plans = (reports["imitation"], chain_report(step), reports["optimal"],
                 plan_report("optimal", rows, flow, row_sums(step, rows), n))
        per_node = tuple(DisasterRow(node, float(nuT[node - 1]),
                                     *(float(p.per_destination_cost[node - 1])
                                       for p in plans))
                         for node in (np.flatnonzero(nuT) + 1).tolist())
        disaster = DisasterResult(event.multiplier, event.edges, per_node,
                                  *(p.total_cost for p in plans))
    return ScenarioResult(kind=spec.kind, alpha=spec.alpha, beta=spec.beta,
                          paths=paths, imitation_plan=plan, reports=reports,
                          lp_objective=lp_objective, disaster=disaster)


# ---------------------------------------------------------------------------
# report files
# ---------------------------------------------------------------------------


def emit_report(result: ScenarioResult, out_dir: str) -> list[str]:
    """Write report files; returns the paths written.

    ``report_usage_t{t}.csv`` — the imitation plan's edge usage per step,
    flows below ``DISPLAY_THRESHOLD`` hidden.  ``report_summary.txt`` — costs and
    objective decomposition for every plan.  ``report_disaster.csv`` — per
    destination before/after re-pricing (risk scenarios).
    """
    os.makedirs(out_dir, exist_ok=True)
    written: list[str] = []
    plan = result.imitation_plan
    for t, usage in enumerate(plan.edge_usage):
        lines = ["from,to,mass"]
        tails, heads = np.nonzero(usage >= DISPLAY_THRESHOLD)
        lines += map(",".join, zip(map(str, (tails + 1).tolist()),
                                   map(str, (heads + 1).tolist()),
                                   map(repr, usage[tails, heads].tolist())))
        path = os.path.join(out_dir, f"report_usage_t{t}.csv")
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)

    lines = [f"scenario\t{result.kind}"]
    lines.append(f"paths\t{digits(result.paths)}")
    lines.append(f"alpha\t{fmt(result.alpha)}")
    if result.kind == "imitation":
        lines.append(f"beta\t{fmt(result.beta)}")
    lines.append(f"lp_optimal_cost\t{fmt(result.lp_objective)}")
    for label in sorted(result.reports):
        lines.append(f"{label}_cost\t{fmt(result.reports[label].total_cost)}")
    obj = plan.objective
    lines.append(f"imitation_kl_to_target\t{fmt(obj.kl_to_target)}")
    lines.append(f"imitation_objective_total\t{fmt(obj.total)}")
    if result.disaster is not None:
        d = result.disaster
        lines.append(f"disaster_multiplier\t{fmt(d.multiplier)}")
        lines.append(f"disaster_edges\t{len(d.edges)}")
        lines.append(f"imitation_cost_after\t{fmt(d.imitation_total_after)}")
        lines.append(f"optimal_cost_after\t{fmt(d.optimal_total_after)}")
    path = os.path.join(out_dir, "report_summary.txt")
    atomic_write_text(path, "\n".join(lines) + "\n")
    written.append(path)

    if result.disaster is not None:
        rows = result.disaster.rows
        values = np.array([(r.mass, r.imitation_before, r.imitation_after,
                            r.imitation_delta, r.optimal_before, r.optimal_after,
                            r.optimal_delta) for r in rows], dtype=float)
        lines = ["node,demand_mass,imitation_before,imitation_after,"
                 "imitation_delta,optimal_before,optimal_after,optimal_delta"]
        lines += map(",".join, zip(map(str, [r.node for r in rows]),
                                   *(map(repr, col) for col in values.T.tolist())))
        path = os.path.join(out_dir, "report_disaster.csv")
        atomic_write_text(path, "\n".join(lines) + "\n")
        written.append(path)
    return written
