"""Shared test utilities: distances, brute-force references, tiny builders.

The scalar per-path pricing references scan ``network.edges`` for a pair's
parallel edges, so they share no index with the array code they check.
"""

import itertools
import math

import numpy as np

from iotnet import (
    ConvergenceError,
    CostModel,
    EdgeKind,
    ImitationTarget,
    InfeasibleError,
    IOTProblem,
    ValidationError,
    build_network,
)
from iotnet.chain import logs, logsumexp, row_sums
from iotnet.network import MARKOV, RULED


def tv(a: np.ndarray, b: np.ndarray) -> float:
    """Total variation distance between two path laws."""
    return 0.5 * float(np.abs(np.asarray(a) - np.asarray(b)).sum())


def marginal_gap(space, law, nu0, nuT) -> float:
    """Largest violation of either endpoint constraint."""
    n = space.n
    start = np.bincount(space.starts - 1, weights=law, minlength=n)
    end = np.bincount(space.ends - 1, weights=law, minlength=n)
    return max(float(np.abs(start - nu0).max()), float(np.abs(end - nuT).max()))


def usage_dict_loop(space, law):
    """Reference edge usage: the per-path loop into a sorted ``(t, i, j) -> mass``
    dict, counting paths with positive mass."""
    usage = {}
    arr = space.array
    for t in range(space.horizon):
        for i, j, mass in zip(arr[:, t], arr[:, t + 1], law):
            if mass > 0:
                key = (t, int(i), int(j))
                usage[key] = usage.get(key, 0.0) + float(mass)
    return dict(sorted(usage.items()))


def brute_paths(network, horizon, starts, ends, model):
    """Reference path enumeration by plain product-and-filter iteration."""
    nodes = range(1, network.n + 1)
    start_set, end_set = set(starts), set(ends)
    out = []
    for combo in itertools.product(nodes, repeat=horizon + 1):
        if combo[0] not in start_set or combo[-1] not in end_set:
            continue
        if all(has_edge(network, a, b) for a, b in zip(combo, combo[1:])):
            if math.isfinite(path_cost(model, network, combo)):
                out.append(combo)
    return sorted(out)


def uniform_problem(fx, alpha: float) -> IOTProblem:
    """Uniform-target problem over a ProblemFixture."""
    return IOTProblem(network=fx.network, cost_model=fx.model,
                      horizon=fx.space.horizon, nu0=fx.nu0, nuT=fx.nuT,
                      alpha=alpha, target=ImitationTarget.uniform())


def line_network(lengths_by_kind):
    """A straight chain 1 -> 2 -> ... with given (kind, length) steps.

    Adds a storage loop at node 1 so strong-connectivity validators stay
    quiet, plus return edges closing the chain into a cycle.
    """
    steps = list(lengths_by_kind)
    n = len(steps) + 1
    nodes = [(i + 1, float(i), 0.0) for i in range(n)]
    edges = [(i + 1, i + 2, kind, length)
             for i, (kind, length) in enumerate(steps)]
    edges.append((n, 1, EdgeKind.LOCAL, 1.0))
    edges.append((1, 1, EdgeKind.STORAGE, None))
    network = build_network(nodes, edges)
    return network, CostModel.ruled()


def feasible_laws(space, nu0, nuT, rng, count):
    """Random feasible path laws sharing the problem's marginals (via IPF)."""
    from iotnet.oracle import dense_ipf

    laws = []
    for _ in range(count):
        weights = rng.uniform(0.1, 1.0, size=space.size)
        laws.append(dense_ipf(space, weights, nu0, nuT).probabilities)
    return laws


def edges_between(network, tail: int, head: int):
    """The parallel edges from ``tail`` to ``head``, in network order."""
    return tuple(e for e in network.edges if e.tail == tail and e.head == head)


def has_edge(network, tail: int, head: int) -> bool:
    return any(e.tail == tail and e.head == head for e in network.edges)


def edge_pairs(network) -> list[tuple[int, int]]:
    """The distinct ``(tail, head)`` edge pairs, sorted."""
    return sorted({(e.tail, e.head) for e in network.edges})


def markov_edge_cost(model: CostModel, tail: int, head: int) -> float:
    """Per-step cost in Markov mode; ``math.inf`` for an absent pair."""
    if model.mode != MARKOV:
        raise ValidationError("markov_edge_cost requires a markov-mode CostModel")
    return model.edge_costs.get((tail, head), math.inf)


def _edge_contribution(model: CostModel, edge) -> float:
    """Kind-adjusted, re-priced contribution of one edge (before run discounts)."""
    if edge.kind is EdgeKind.MARITIME:
        base = model.maritime_multiplier * edge.length_km
    elif edge.kind is EdgeKind.STORAGE:
        base = model.storage_cost_km
    else:
        base = edge.length_km
    return base * model.edge_multipliers.get((edge.tail, edge.head), 1.0)


def _resolve_step(model: CostModel, network, tail: int, head: int):
    """Pick the edge used for one step; cheapest kind wins among parallels."""
    candidates = edges_between(network, tail, head)
    if not candidates:
        raise InfeasibleError(f"path step ({tail},{head}) uses no existing edge")
    if len(candidates) == 1:
        return candidates[0]
    return min(candidates, key=lambda e: (_edge_contribution(model, e), e.kind.value))


def ruled_path_cost(model: CostModel, network, path) -> float:
    """Rule-based cost of a whole path, one step at a time: highway run
    discounts, then switch penalties, as ``network._ruled_costs`` adds them."""
    if model.mode != RULED:
        raise ValidationError("ruled_path_cost requires a ruled-mode CostModel")
    if len(path) < 2:
        raise ValidationError("a path needs at least one step")
    edges = [_resolve_step(model, network, a, b) for a, b in zip(path, path[1:])]
    contribs = [_edge_contribution(model, e) for e in edges]

    total = 0.0
    i = 0
    while i < len(edges):
        if edges[i].kind is EdgeKind.HIGHWAY:
            j = i
            while j < len(edges) and edges[j].kind is EdgeKind.HIGHWAY:
                j += 1
            run_total = 0.0
            for c in contribs[i:j]:
                run_total += c
            run_len = j - i
            if run_len == 2:
                run_total *= 1.0 - model.highway_discount_2
            elif run_len >= 3:
                run_total *= 1.0 - model.highway_discount_3plus
            total += run_total
            i = j
        else:
            total += contribs[i]
            i += 1
    switches = sum(1 for a, b in zip(edges, edges[1:]) if a.kind is not b.kind)
    total += model.switch_penalty_km * switches
    return total


def path_cost(model: CostModel, network, path) -> float:
    """Cost of a path under either model; ``math.inf`` if any step is absent."""
    if model.mode == MARKOV:
        total = 0.0
        for a, b in zip(path, path[1:]):
            total += markov_edge_cost(model, a, b)
        return total
    for a, b in zip(path, path[1:]):
        if not has_edge(network, a, b):
            return math.inf
    return ruled_path_cost(model, network, path)


def rb_path_density(prior, path) -> float:
    """Walk density of one path: stationary start weight times step products."""
    rows = np.array([path], dtype=np.int64)
    return float(np.exp(row_sums(logs(prior.transitions), rows,
                                 logs(prior.node_weights))[0]))


def rb_path_density_gibbs(prior, path, cost: float) -> float:
    """Closed form of the same density, ``u[x0] * v[xT] * lam^-T * exp(-C/alpha)``,
    for the path's total ``cost`` under the prior's model."""
    idx = [int(p) - 1 for p in path]
    horizon = len(idx) - 1
    if math.isinf(cost):
        return 0.0
    return (float(prior.left_vector[idx[0]]) * float(prior.right_vector[idx[-1]])
            * prior.spectral_radius ** (-horizon) * math.exp(-cost / prior.alpha))


def objective_eval(p: np.ndarray, costs: np.ndarray, q: np.ndarray,
                   alpha: float) -> tuple[float, float, float]:
    """Direct recomputation of ``(expected cost, divergence to q, total)``.

    The divergence is ``sum p log(p/q)`` with ``0 log 0 = 0``; mass outside
    ``q``'s support makes it ``inf``.  Total is ``cost + alpha * divergence``.
    """
    p = np.asarray(p, dtype=float)
    costs = np.asarray(costs, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != costs.shape or p.shape != q.shape:
        raise ValidationError("objective_eval inputs must share one shape")
    cost = 0.0
    div = 0.0
    for k in range(p.shape[0]):
        if p[k] == 0.0:
            continue
        cost += p[k] * costs[k]
        if q[k] == 0.0:
            div = math.inf
        elif math.isfinite(div):
            div += p[k] * math.log(p[k] / q[k])
    total = cost + alpha * div if math.isfinite(div) else math.inf
    return cost, div, total


def sweep_coupling(log_kernel: np.ndarray, nu0: np.ndarray, nuT: np.ndarray,
                   tol: float, max_iter: int) -> np.ndarray:
    """Reference scaling core: the endpoint coupling by stabilised log-domain
    sweeps alone, with no Newton step.

    On the supported block of the (finite there) log kernel, the coupling is
    ``u_i exp(f_i + log_kernel_ij + g_j) v_j``; a scaling above 1e30 is
    absorbed into its side's log potential by an exact log-sum-exp update
    (Schmitzer 2019).  Each sweep fixes the end marginal, then stops once the
    L1 violation of the start marginal is at most ``tol``; past ``max_iter``
    sweeps it raises :class:`ConvergenceError`.
    """
    rows, cols = np.flatnonzero(nu0 > 0), np.flatnonzero(nuT > 0)
    block = log_kernel[np.ix_(rows, cols)]
    a, b = nu0[rows], nuT[cols]
    f = np.log(a) - logsumexp(block, axis=1)
    g = np.zeros(cols.size)
    K = np.exp(block + f[:, None])
    u = np.ones(rows.size)
    with np.errstate(all="ignore"):
        for _ in range(max_iter):
            v = b / (u @ K)
            if not v.max() < 1e30:
                f += np.log(u)
                g = np.log(b) - logsumexp(block + f[:, None], axis=0)
                K = np.exp(block + f[:, None] + g)
                u, v = np.ones(rows.size), np.ones(cols.size)
            mass = K @ v
            u_next = a / mass
            if float(np.abs(u - u_next) @ mass) <= tol:
                break
            u = u_next
            if not u.max() < 1e30:
                g += np.log(v)
                f = np.log(a) - logsumexp(block + g, axis=1)
                K = np.exp(block + f[:, None] + g)
                u, v = np.ones(rows.size), np.ones(cols.size)
        else:
            raise ConvergenceError(f"sweeps did not reach {tol} in {max_iter}")
    coupling = np.zeros_like(log_kernel)
    coupling[np.ix_(rows, cols)] = u[:, None] * K * v
    return coupling
