"""Shared test utilities: distances, brute-force references, tiny builders."""

import itertools
import math

import numpy as np

from iotnet import (
    CostModel,
    EdgeKind,
    ImitationTarget,
    IOTProblem,
    build_network,
    enumerate_paths,
    path_cost,
    path_costs,
)


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
        if all(network.has_edge(a, b) for a, b in zip(combo, combo[1:])):
            if math.isfinite(path_cost(model, network, combo)):
                out.append(combo)
    return sorted(out)


def uniform_problem(fx, alpha: float) -> IOTProblem:
    """Uniform-target problem over a ProblemFixture."""
    return IOTProblem(network=fx.network, cost_model=fx.model,
                      path_space=fx.space, nu0=fx.nu0, nuT=fx.nuT,
                      alpha=alpha, target=ImitationTarget.uniform(fx.space.size))


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
