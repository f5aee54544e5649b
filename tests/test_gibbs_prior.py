"""The Markov route bridges the Gibbs prior ``exp(-C/alpha) * Q`` directly.

The maximum-entropy-rate walk differs from the Gibbs edge weights only by a
diagonal rescaling and a scalar, which the bridge potentials absorb, so the
solve does not build it.  Without it the Markov route no longer needs a
strongly connected graph: it must match the path route wherever the bridge
exists, including on acyclic networks and with zero-mass marginal entries.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

import iotnet.spectral
from iotnet import (
    ConvergenceError,
    CostModel,
    EdgeKind,
    ImitationTarget,
    InfeasibleError,
    IOTProblem,
    PathSpace,
    ValidationError,
    build_network,
    build_rb_prior,
    dense_ipf,
    enumerate_paths,
    expand_target,
    path_costs,
    solve_iot,
    strongly_connected,
)

from helpers import marginal_gap, tv

PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _network(n, pairs, costs):
    edges = [(i, j, EdgeKind.STORAGE if i == j else EdgeKind.LOCAL, costs[(i, j)])
             for (i, j) in sorted(pairs)]
    return build_network([(i, float(i), 0.0) for i in range(1, n + 1)], edges)


def _both_routes(problem):
    markov = solve_iot(problem, tol=1e-12)
    path = solve_iot(problem, force_path=True, tol=1e-12)
    assert markov.transition_matrices is not None  # the Markov route ran
    assert path.transition_matrices is None
    return markov, path


@st.composite
def markov_problems(draw):
    """``random_markov_problem``-style problems without the connecting ring.

    Edges are drawn at random (only ``i < j`` for an acyclic network), so the
    graph is usually not strongly connected.  Marginal masses are drawn from
    ``{0} | [0.2, 1]`` on an endpoint rectangle where every pair is linked.
    """
    n = draw(st.integers(3, 5))
    acyclic = draw(st.booleans())
    horizon = draw(st.integers(1, n - 1 if acyclic else 3))
    pairs = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if (i < j or (not acyclic and i >= j)) and draw(st.booleans())}
    assume(pairs)
    cost = st.floats(0.5, 3.0)
    costs = {pair: draw(cost) for pair in sorted(pairs)}
    network = _network(n, pairs, costs)
    model = CostModel.markov(costs)
    try:
        space = enumerate_paths(network, horizon, range(1, n + 1),
                                range(1, n + 1), model)
    except InfeasibleError:
        assume(False)

    reach = np.zeros((n, n), dtype=bool)
    reach[space.starts - 1, space.ends - 1] = True
    first = draw(st.sampled_from(sorted(set((space.starts - 1).tolist()))))
    rows, cols = [first], reach[first].copy()
    for i in range(n):
        if i != first and (cols & reach[i]).any() and draw(st.booleans()):
            rows.append(i)
            cols &= reach[i]
    mass = st.just(0.0) | st.floats(0.2, 1.0)

    def law(support):
        vec = np.zeros(n)
        vec[support] = [draw(mass) for _ in support]
        if vec.sum() == 0:
            vec[support[0]] = 1.0
        return vec / vec.sum()

    matrix = np.zeros((n, n))
    for (i, j) in pairs:
        matrix[i - 1, j - 1] = draw(st.floats(0.2, 1.0))
    initial = draw(st.none() | st.lists(st.floats(0.2, 1.0), min_size=n,
                                        max_size=n).map(np.array))
    target = ImitationTarget.markov(matrix, initial)
    return IOTProblem(network=network, cost_model=model, horizon=horizon,
                      nu0=law(sorted(rows)), nuT=law(np.flatnonzero(cols).tolist()),
                      alpha=draw(st.floats(0.5, 3.0)), target=target)


@PROPERTY
@given(markov_problems())
def test_markov_route_matches_path_route_without_strong_connectivity(problem):
    """A problem is sized by its horizon: both routes plan on the walks
    between the marginals' supports, and a path table holding the Markov
    target's law there poses the same problem as the step weights do."""
    markov, path = _both_routes(problem)
    supports = (np.flatnonzero(problem.nu0) + 1, np.flatnonzero(problem.nuT) + 1)
    walks = enumerate_paths(problem.network, problem.horizon, *supports,
                            problem.cost_model)
    for plan in (markov, path):
        assert np.array_equal(plan.path_space.array, walks.array)
    assert tv(markov.path_law, path.path_law) < 1e-8
    assert marginal_gap(walks, markov.path_law, problem.nu0, problem.nuT) < 1e-8
    table = ImitationTarget.paths(walks.array,
                                  np.exp(expand_target(problem.target, walks)))
    tabled = solve_iot(dataclasses.replace(problem, target=table), tol=1e-12)
    assert tv(markov.path_law, tabled.path_law) < 1e-8
    assert tabled.objective.kl_to_target == pytest.approx(
        markov.objective.kl_to_target, rel=1e-8, abs=1e-8)


@pytest.mark.parametrize("alpha", [0.5, 0.05])
def test_a_target_zero_off_a_subset_is_dense_ipf_on_the_subset(tiny, alpha):
    """A restricted space is a path table that is zero off the chosen paths:
    their prior weight is -inf, so the plan is the bridge on the subset."""
    rows = tiny.space.array[::2]
    target = ImitationTarget.paths(rows, np.ones(len(rows)))
    plan = solve_iot(IOTProblem(network=tiny.network, cost_model=tiny.model,
                                nu0=tiny.nu0, nuT=tiny.nuT, alpha=alpha, horizon=2,
                                target=target), tol=1e-12)
    subset = PathSpace(horizon=2, n=3, array=rows)
    costs = path_costs(subset, tiny.model, tiny.network)
    ipf = dense_ipf(subset, np.exp(-(costs - costs.min()) / alpha), tiny.nu0,
                    tiny.nuT, tol=1e-13).probabilities
    assert np.all(plan.path_law[1::2] == 0.0)
    assert tv(plan.path_law[::2], ipf) < 1e-8


def test_a_cost_table_pair_off_the_network_is_refused(tiny):
    """Tiny's table on its network without the 1 -> 3 edge: the Markov route
    would move mass along the pair the path route cannot step on."""
    network = build_network(
        [(node.id, node.x_km, node.y_km) for node in tiny.network.nodes],
        [(edge.tail, edge.head, edge.kind, edge.length_km)
         for edge in tiny.network.edges if (edge.tail, edge.head) != (1, 3)])
    with pytest.raises(ValidationError,
                       match=r"^cost table pair \(1, 3\) is not an edge of the network$"):
        IOTProblem(network=network, cost_model=tiny.model, nu0=tiny.nu0,
                   nuT=tiny.nuT, alpha=0.5, horizon=2,
                   target=ImitationTarget.markov(np.ones((3, 3))))


def _nearly_a_permutation():
    """Four nodes whose supported endpoint block at T=1 is the log kernel
    ``[[-100, -100], [-100, -200]]`` at alpha 0.01: its optimal coupling is
    nearly a permutation, where the rate of plain sweeps collapses."""
    costs = {(1, 2): 1.0, (1, 3): 1.0, (1, 4): 1.0, (3, 2): 1.0, (3, 4): 2.0,
             (4, 2): 1.0}
    network = _network(4, set(costs), costs)
    model = CostModel.markov(costs)
    weights = np.zeros((4, 4))
    weights[tuple(np.array(sorted(costs)).T - 1)] = 1.0
    return IOTProblem(network=network, cost_model=model, horizon=1,
                      nu0=np.array([0.5, 0.0, 0.5, 0.0]),
                      nuT=np.array([0.0, 0.5, 0.0, 0.5]), alpha=0.01,
                      target=ImitationTarget.markov(weights))


@st.composite
def small_alpha_problems(draw):
    """``markov_problems`` with ``alpha`` from 1e-5 to 1 times the cost spread.

    At the low end the log weights ``-C/alpha + log Q`` span about 1e5 nats
    over the paths, far past the float range of ``exp``.
    """
    problem = draw(markov_problems())
    costs = path_costs(problem.space, problem.cost_model, problem.network)
    spread = max(float(costs.max() - costs.min()), 0.5)
    return dataclasses.replace(
        problem, alpha=spread * 10.0 ** draw(st.floats(-5.0, 0.0)))


@PROPERTY
@given(small_alpha_problems())
@example(_nearly_a_permutation())
def test_routes_and_dense_ipf_agree_down_to_small_alpha(problem):
    """Where the log weights span at most 700 nats, their shifted exponentials
    keep every path's weight, and dense IPF, where it converges, is the
    reference.  On a nearly permutation coupling plain scaling stalls, IPF
    as well, and the routes must still agree and meet the marginals.  IPF
    gets 5,000 iterations: over 1,500 drawn problems it needed at most 157."""
    markov, path = _both_routes(problem)
    space = problem.space
    assert tv(markov.path_law, path.path_law) < 1e-8
    for plan in (markov, path):
        assert marginal_gap(space, plan.path_law, problem.nu0, problem.nuT) < 1e-10
    logw = (-path_costs(space, problem.cost_model, problem.network) / problem.alpha
            + expand_target(problem.target, space))
    if logw.max() - logw.min() > 700:
        return
    try:
        ipf = dense_ipf(space, np.exp(logw - logw.max()), problem.nu0, problem.nuT,
                        tol=1e-13, max_iter=5_000).probabilities
    except ConvergenceError:
        return
    assert tv(markov.path_law, ipf) < 1e-8


def _acyclic_problem():
    """Three nodes, forward roads 1->2->3 and 1->3, storage at every node."""
    pairs = {(1, 1), (1, 2), (1, 3), (2, 2), (2, 3), (3, 3)}
    costs = {(1, 1): 0.3, (1, 2): 1.0, (1, 3): 1.7, (2, 2): 0.4, (2, 3): 0.8,
             (3, 3): 0.2}
    network = _network(3, pairs, costs)
    model = CostModel.markov(costs)
    nu0, nuT = np.array([0.6, 0.4, 0.0]), np.array([0.0, 0.3, 0.7])
    target = ImitationTarget.markov(np.full((3, 3), 1.0))
    return IOTProblem(network=network, cost_model=model, horizon=2,
                      nu0=nu0, nuT=nuT, alpha=0.9, target=target)


def test_acyclic_network_solves_on_the_markov_route():
    problem = _acyclic_problem()
    assert not strongly_connected(problem.network)
    with pytest.raises(ValidationError, match="not strongly connected"):
        build_rb_prior(problem.cost_model, problem.alpha, 3)
    markov, path = _both_routes(problem)
    assert tv(markov.path_law, path.path_law) < 1e-8


def test_solve_never_builds_the_walk(monkeypatch, tiny):
    def refuse(*args, **kwargs):
        raise AssertionError("the solve computed a Perron pair")

    monkeypatch.setattr(iotnet.spectral, "perron", refuse)
    rng = np.random.default_rng(7)
    matrix = rng.uniform(0.2, 1.0, size=(3, 3))
    problem = IOTProblem(network=tiny.network, cost_model=tiny.model,
                         horizon=tiny.space.horizon, nu0=tiny.nu0, nuT=tiny.nuT,
                         alpha=0.5,
                         target=ImitationTarget.markov(matrix))
    markov, path = _both_routes(problem)
    assert tv(markov.path_law, path.path_law) < 1e-8


@pytest.mark.parametrize("initial", [np.zeros(3), np.array([0.0, 0.5, 0.5])])
def test_target_initial_law_must_cover_the_starts(tiny, initial):
    """No plan has finite divergence when a supported start has no target mass."""
    target = ImitationTarget.markov(np.full((3, 3), 1.0 / 3.0), initial)
    problem = IOTProblem(network=tiny.network, cost_model=tiny.model,
                         horizon=tiny.space.horizon, nu0=tiny.nu0, nuT=tiny.nuT,
                         alpha=0.5, target=target)
    for force_path in (False, True):
        with pytest.raises(InfeasibleError):
            solve_iot(problem, force_path=force_path)


@pytest.mark.parametrize("force_path", [False, True], ids=["markov", "path"])
def test_a_nearly_permutation_coupling_solves_on_both_routes(force_path):
    """Sweeps alone raise here after 100,000 sweeps; the Newton steps solve it."""
    problem = _nearly_a_permutation()
    assert problem.space.size == 4
    plan = solve_iot(problem, force_path=force_path, tol=1e-12)
    assert marginal_gap(problem.space, plan.path_law,
                        problem.nu0, problem.nuT) < 1e-12
