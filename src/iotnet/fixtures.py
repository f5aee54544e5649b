"""Deterministic fixtures: a tiny exact-arithmetic network, seeded random
problems for property tests, and the seeded 30-node logistics network used by
the scenario engine and the verification suite.

Every generator is a pure function of its arguments; the same seed always
yields byte-identical structures (numpy Generator streams are versioned and
stable).  So :func:`builtin` builds each ``(name, seed)`` fixture once per
process and hands every caller that one object: a 30-node fixture is
immutable, its supply and demand read-only mappings.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import ValidationError
from .network import (CostModel, EdgeKind, Network, PathSpace, build_network,
                      enumerate_paths, strongly_connected)

HORIZON_DEFAULT = 3
Q_TOTAL = 1469
SUPPLY_SPLIT = (490, 490, 489)
SUPPLY_NODES = (1, 8, 24)
PORTS = (1, 3, 11, 21, 27, 30)
LOCAL_RADIUS_KM = 300.0
BOX_KM = (1100.0, 400.0)
DISASTER_RADIUS_KM = 150.0
DISASTER_MULTIPLIER = 10.0


@dataclass(frozen=True)
class ProblemFixture:
    """A ready-to-solve transport problem over a small network."""

    network: Network
    model: CostModel
    space: PathSpace
    nu0: np.ndarray
    nuT: np.ndarray


def _table_network(nodes, table: dict[tuple[int, int], float]
                   ) -> tuple[Network, CostModel]:
    """The network with one edge per pair of a cost table, a storage loop
    on ``i -> i`` and a local edge otherwise, as long as its cost; and the
    table's Markov model."""
    edges = [(i, j, EdgeKind.STORAGE if i == j else EdgeKind.LOCAL, cost)
             for (i, j), cost in sorted(table.items())]
    return build_network(nodes, edges), CostModel.markov(table)


def tiny_fixture() -> ProblemFixture:
    """Three nodes, every ordered pair an edge, horizon 2: 27 paths.

    Costs live in [1.0, 1.9] so the spread/alpha ratio stays inside float
    range even at the alpha -> 0 regimes the suite probes.
    """
    nodes = [(1, 0.0, 0.0), (2, 1.0, 0.4), (3, 2.0, 0.0)]
    table = {
        (1, 1): 1.2, (1, 2): 1.0, (1, 3): 1.5,
        (2, 1): 1.4, (2, 2): 1.1, (2, 3): 1.0,
        (3, 1): 1.0, (3, 2): 1.6, (3, 3): 1.3,
    }
    network, model = _table_network(nodes, table)
    space = enumerate_paths(network, 2, (1, 2, 3), (1, 2, 3), model)
    nu0 = np.array([0.5, 0.3, 0.2])
    nuT = np.array([0.2, 0.3, 0.5])
    return ProblemFixture(network=network, model=model, space=space,
                          nu0=nu0, nuT=nuT)


def four_node_fixture() -> tuple[Network, CostModel]:
    """Strongly connected 4-node graph with uneven costs (spectral tests)."""
    nodes = [(1, 0.0, 0.0), (2, 1.0, 0.0), (3, 1.0, 1.0), (4, 0.0, 1.0)]
    table = {
        (1, 2): 1.0, (2, 3): 1.4, (3, 4): 0.9, (4, 1): 1.2,
        (1, 3): 2.0, (2, 4): 1.8, (3, 1): 1.1,
        (1, 1): 0.8, (3, 3): 0.7,
    }
    return _table_network(nodes, table)


def random_markov_problem(rng: np.random.Generator, *, n: int | None = None,
                          horizon: int | None = None) -> dict:
    """Seeded random strongly connected problem with a random Markov target.

    Returns a dict with network/model/space/marginals/alpha and the target's
    initial law and row-stochastic step matrix (over existing edges).
    """
    if n is None:
        n = int(rng.integers(3, 7))
    if horizon is None:
        horizon = int(rng.integers(1, 4))
    nodes = [(i + 1, float(rng.uniform(0, 10)), float(rng.uniform(0, 10)))
             for i in range(n)]
    pairs = {(i, i + 1) for i in range(1, n)} | {(n, 1)}  # ring keeps it connected
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j and rng.random() < 0.45:
                pairs.add((i, j))
            elif i == j and rng.random() < 0.5:
                pairs.add((i, j))
    table = {pair: float(rng.uniform(0.5, 3.0)) for pair in sorted(pairs)}
    network, model = _table_network(nodes, table)
    space = enumerate_paths(network, horizon, range(1, n + 1), range(1, n + 1),
                            model)

    # Marginals must be supported on an endpoint rectangle where every
    # (start, end) pair is linked by at least one horizon-length path, or no
    # bridge exists.  Greedily grow the start set while the set of ends
    # reachable from *all* chosen starts stays nonempty.
    reach = np.zeros((n, n), dtype=bool)
    reach[space.starts - 1, space.ends - 1] = True
    rows = sorted(range(n), key=lambda i: -int(reach[i].sum()))
    supp0 = [rows[0]]
    cols = reach[rows[0]].copy()
    for i in rows[1:]:
        if (cols & reach[i]).any():
            supp0.append(i)
            cols &= reach[i]
    suppT = np.flatnonzero(cols)

    def random_law(support) -> np.ndarray:
        law = np.zeros(n)
        law[support] = rng.uniform(0.2, 1.0, size=len(support))
        return law / law.sum()

    matrix = np.zeros((n, n))
    for (i, j) in pairs:
        matrix[i - 1, j - 1] = rng.uniform(0.2, 1.0)
    matrix /= matrix.sum(axis=1, keepdims=True)

    return {
        "network": network, "model": model, "space": space,
        "nu0": random_law(sorted(supp0)), "nuT": random_law(suppT),
        "alpha": float(rng.uniform(0.5, 3.0)),
        "target_initial": random_law(range(n)), "target_matrix": matrix,
    }


# ---------------------------------------------------------------------------
# the seeded 30-node logistics network
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SyntheticFixture:
    """Seeded 30-node network with supplies, ports, and integer demands
    (read-only ``node -> mass`` mappings).

    Risk variants add a cut town (``cut_node``) wired through a single inbound
    gateway road and a single outbound road, plus the ``affected`` edge set of
    the anticipated disruption zone.
    """

    seed: int
    network: Network
    ruled: CostModel
    ports: tuple[int, ...]
    supply: Mapping[int, int]
    demand: Mapping[int, int]
    horizon: int = HORIZON_DEFAULT
    cut_node: int | None = None
    gateway_in: int | None = None
    gateway_out: int | None = None
    affected: tuple[tuple[int, int], ...] = ()

    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        return marginals(self.network.n, self.supply, self.demand)


def marginals(n: int, supply: Mapping[int, float],
              demand: Mapping[int, float]) -> tuple[np.ndarray, np.ndarray]:
    """Start/end laws over nodes ``1..n``: masses divided by the total supply."""
    total = float(sum(supply.values()))
    nu0 = np.zeros(n)
    nuT = np.zeros(n)
    for node, mass in supply.items():
        nu0[node - 1] = mass / total
    for node, mass in demand.items():
        nuT[node - 1] = mass / total
    return nu0, nuT


def _integer_split(weights: np.ndarray, total: int) -> list[int]:
    """Largest-remainder split of ``total`` proportional to ``weights``."""
    raw = weights / weights.sum() * total
    base = np.floor(raw).astype(int)
    short = total - int(base.sum())
    order = sorted(range(len(raw)), key=lambda k: (-(raw[k] - base[k]), k))
    for k in order[:short]:
        base[k] += 1
    return base.tolist()


def distance_table(pos: np.ndarray) -> list[list[float]]:
    """``table[a][b]`` is ``float(np.linalg.norm(pos[a] - pos[b]))``, bit for bit.

    Each entry is the square root of one 1x2 by 2x1 matmul, which takes the
    same dot product as ``norm`` of a 2-vector (a plain ``(d * d).sum(-1)``
    rounds some entries differently).
    """
    d = (pos[:, None, :] - pos[None, :, :])[..., None, :]
    return np.sqrt(d @ np.swapaxes(d, -1, -2))[..., 0, 0].tolist()


def _build_30(seed: int, *, cut: bool) -> SyntheticFixture:
    rng = np.random.default_rng(seed)
    n = 30
    xs = rng.uniform(0.0, BOX_KM[0], n)
    ys = rng.uniform(0.0, BOX_KM[1], n)
    pos = np.stack([xs, ys], axis=1)
    km = distance_table(pos)

    def dist(i: int, j: int) -> float:
        return km[i - 1][j - 1]

    cut_node = gateway_in = gateway_out = None
    if cut:
        # the town to be cut off: most central non-port, non-supply node
        center = np.array([BOX_KM[0] / 2.0, BOX_KM[1] / 2.0])
        banned = set(SUPPLY_NODES) | set(PORTS)
        candidates = [i for i in range(1, n + 1) if i not in banned]
        cut_node = min(candidates,
                       key=lambda i: float(np.linalg.norm(pos[i - 1] - center)))
        others = [i for i in range(1, n + 1)
                  if i != cut_node and i not in SUPPLY_NODES]
        by_dist = sorted(others, key=lambda i: (dist(i, cut_node), i))
        gateway_in, gateway_out = by_dist[0], by_dist[1]

    edges: list[tuple] = []
    succ: dict[int, set[int]] = {i: set() for i in range(1, n + 1)}

    def add(i: int, j: int, kind: EdgeKind) -> None:
        edges.append((i, j, kind, dist(i, j) if i != j else 0.0))
        succ[i].add(j)

    for i in range(1, n + 1):
        add(i, i, EdgeKind.STORAGE)

    # highway backbone along the west-east ordering (cut town bypassed), with
    # second-neighbour skip links thickening the corridor
    order = [int(k) + 1 for k in np.argsort(xs, kind="stable")]
    if cut_node is not None:
        order = [i for i in order if i != cut_node]
    for a, b in zip(order, order[1:]):
        add(a, b, EdgeKind.HIGHWAY)
        add(b, a, EdgeKind.HIGHWAY)
    for a, b in zip(order, order[2:]):
        if b not in succ[a]:
            add(a, b, EdgeKind.HIGHWAY)
            add(b, a, EdgeKind.HIGHWAY)

    # local roads: half of the short-range pairs, in deterministic draw order
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            if cut_node is not None and (cut_node in (i, j)
                                         or {i, j} == {gateway_in, gateway_out}):
                continue
            if j in succ[i] or dist(i, j) >= LOCAL_RADIUS_KM:
                continue
            if rng.random() < 0.5:
                add(i, j, EdgeKind.LOCAL)
                add(j, i, EdgeKind.LOCAL)

    # maritime lanes between ports that have no land link
    for p in PORTS:
        for q in PORTS:
            if p != q and q not in succ[p]:
                add(p, q, EdgeKind.MARITIME)

    if cut_node is not None:
        add(gateway_in, cut_node, EdgeKind.LOCAL)
        add(cut_node, gateway_out, EdgeKind.LOCAL)

    def hops_from(src: int) -> dict[int, int]:
        out = {src: 0}
        frontier = [src]
        while frontier:
            nxt = []
            for i in frontier:
                for b in succ[i]:
                    if b not in out:
                        out[b] = out[i] + 1
                        nxt.append(b)
            frontier = nxt
        return out

    # Deliverability repair: every node stores, so a supply reaches a
    # destination in exactly T steps iff its hop distance is at most T (pad
    # with storage).  The cut town must instead be approachable through its
    # gateway with one hop to spare.  Where the random draw leaves a supply
    # short, wire the closest already-reached hub to the destination.
    repaired = True
    while repaired:
        repaired = False
        for s in SUPPLY_NODES:
            hops = hops_from(s)
            for d in range(1, n + 1):
                if d in SUPPLY_NODES:
                    continue
                goal, budget = d, HORIZON_DEFAULT
                if d == cut_node:
                    goal, budget = gateway_in, HORIZON_DEFAULT - 1
                if hops.get(goal, n + 1) <= budget:
                    continue
                near = [m for m in hops
                        if hops[m] <= budget - 1 and m != goal and m != cut_node]
                hub = min(near, key=lambda m: (dist(m, goal), m))
                add(hub, goal, EdgeKind.HIGHWAY)
                if hub not in succ[goal]:
                    add(goal, hub, EdgeKind.HIGHWAY)
                repaired = True
                break
            if repaired:
                break

    network = build_network([(i, float(xs[i - 1]), float(ys[i - 1]))
                             for i in range(1, n + 1)], edges)
    if not strongly_connected(network):
        raise ValidationError(f"seed {seed}: generated network is not strongly "
                              f"connected; pick another seed")

    demand_nodes = [i for i in range(1, n + 1) if i not in SUPPLY_NODES]
    demand_weights = rng.uniform(0.5, 1.5, size=len(demand_nodes))
    demand = MappingProxyType(dict(zip(demand_nodes,
                                       _integer_split(demand_weights, Q_TOTAL))))
    supply = MappingProxyType(dict(zip(SUPPLY_NODES, SUPPLY_SPLIT)))

    affected: tuple[tuple[int, int], ...] = ()
    if cut_node is not None:
        # the disruption zone: every transport edge near the cut town, EXCEPT
        # supply-hub departures and gateway approaches, so that deliveries to
        # the cut town reprice identically under any feasible plan (its single
        # inbound road is traversed exactly once on every route that ends
        # there, and nothing else on such routes is affected)
        epicenter = pos[cut_node - 1]
        aff = {(gateway_in, cut_node), (cut_node, gateway_out)}
        for (i, j) in network.pairs.tolist():
            if i == j:  # a storage loop, the generator's only self-loops
                continue
            if cut_node in (i, j):
                continue
            if i in SUPPLY_NODES or j == gateway_in:
                continue
            midpoint = (pos[i - 1] + pos[j - 1]) / 2.0
            if float(np.linalg.norm(midpoint - epicenter)) <= DISASTER_RADIUS_KM:
                aff.add((i, j))
        affected = tuple(sorted(aff))

    return SyntheticFixture(seed=seed, network=network, ruled=CostModel.ruled(),
                            ports=PORTS, supply=supply, demand=demand,
                            cut_node=cut_node, gateway_in=gateway_in,
                            gateway_out=gateway_out, affected=affected)


def synthetic30(seed: int = 0) -> SyntheticFixture:
    """Seeded 30-node network: ports, highway backbone, local roads, storage."""
    return _build_30(seed, cut=False)


def risk30(seed: int = 0) -> SyntheticFixture:
    """Seeded risk variant: cut town and disruption zone."""
    return _build_30(seed, cut=True)


@cache
def builtin(name: str, seed: int = 0) -> SyntheticFixture:
    """The seeded 30-node fixture behind ``builtin:<name>``, built once per
    ``(name, seed)`` in a process."""
    if name == "synthetic30":
        return synthetic30(seed)
    if name == "risk30":
        return risk30(seed)
    raise ValidationError(f"unknown builtin network {name!r} (the 30-node "
                          f"builtins are synthetic30 and risk30)")


def synthetic_q_star(fx: SyntheticFixture, *, alpha: float = 80.0,
                     tol: float = 1e-10) -> tuple[np.ndarray, np.ndarray]:
    """Deterministic stand-in for observed shipper behaviour.

    A maximum-entropy transport plan at a mild regularisation level over the
    rule-based costs: genuinely non-Markov (run discounts and switch penalties
    are path-level), strictly positive on the whole feasible path space, and a
    pure function of the fixture.  Returns its support's rows and probs.
    """
    from .imitation import ImitationTarget, IOTProblem, solve_iot

    nu0, nuT = fx.marginals()
    plan = solve_iot(IOTProblem(network=fx.network, cost_model=fx.ruled,
                                horizon=fx.horizon, nu0=nu0, nuT=nuT, alpha=alpha,
                                target=ImitationTarget.uniform()), tol=tol)
    law = plan.path_law / plan.path_law.sum()
    return plan.path_space.array[law > 0], law[law > 0]
