"""The Markov-route plan is a chain: every number read off it without paths
matches the same number summed over the enumerated path law.

Covers the plan's edge usage and objective (:func:`iotnet.imitation.chain_plan`),
the per-destination contraction and the cheapest-path rows of the risk
scenario (:func:`iotnet.scenario.chain_totals`,
:func:`iotnet.scenario.cheapest_rows`), the path count
(:func:`iotnet.chain.walk_counts`), each product of :mod:`iotnet.chain`
against its enumerated space, an ``iot scenario`` run that may not enumerate a
single path, and horizons too large to count.
"""

import dataclasses
import decimal
import functools
import itertools
import json
import math
import os
import resource
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

import iotnet
from iotnet import (
    CostModel,
    EdgeKind,
    ImitationTarget,
    InfeasibleError,
    IOTProblem,
    PathSpace,
    build_network,
    edge_usage_from_law,
    enumerate_paths,
    expand_target,
    path_costs,
    path_kl,
    solve_iot,
)
from iotnet import fixtures
from iotnet.cli import main
from iotnet.chain import (count_walks, log_matmul, min_plus, row_sums, walk_counts,
                          walks)
from iotnet.imitation import _largest_chain_cost, imitation_prior_markov
from iotnet.network import cost_matrix, markov_model_from_network, network_to_dict
from iotnet.scenario import (RiskWeights, build_risk_matrix, chain_totals,
                             cheapest_paths, cheapest_rows, load_scenario,
                             plan_report, run_scenario)


@st.composite
def chain_problems(draw):
    """Small Markov problems solved without a path space.

    Edges are drawn at random (only ``i < j`` for an acyclic network), with
    integer costs so that equal-cost paths, and so LP ties, are common.  The
    end support is drawn among the nodes every drawn start reaches in exactly
    ``horizon`` steps, and marginal masses from ``{0} | [0.2, 1]`` on it.
    """
    n = draw(st.integers(2, 5))
    acyclic = draw(st.booleans())
    horizon = draw(st.integers(1, max(1, n - 1) if acyclic else 4))
    pairs = {(i, j) for i in range(1, n + 1) for j in range(1, n + 1)
             if (i < j or (not acyclic and i >= j)) and draw(st.booleans())}
    assume(pairs)
    costs = {pair: float(draw(st.integers(0, 3))) for pair in sorted(pairs)}
    edges = [(i, j, EdgeKind.STORAGE if i == j else EdgeKind.LOCAL, 1.0)
             for (i, j) in sorted(pairs)]
    network = build_network([(i, float(i), 0.0) for i in range(1, n + 1)], edges)

    step = np.zeros((n, n), dtype=int)
    for (i, j) in pairs:
        step[i - 1, j - 1] = 1
    reach = np.linalg.matrix_power(step, horizon) > 0
    starts = [i for i in range(n) if reach[i].any() and draw(st.booleans())]
    assume(starts)
    ends = np.flatnonzero(reach[starts].all(axis=0))
    assume(ends.size)
    ends = [e for e in ends.tolist() if draw(st.booleans())] or [int(ends[0])]
    mass = st.just(0.0) | st.floats(0.2, 1.0)

    def law(support):
        vec = np.zeros(n)
        vec[support] = [draw(mass) for _ in support]
        if vec.sum() == 0:
            vec[support[0]] = 1.0
        return vec / vec.sum()

    matrix = np.zeros((n, n))
    for (i, j) in pairs:
        matrix[i - 1, j - 1] = draw(st.floats(0.2, 2.0))
    initial = draw(st.none() | st.lists(st.floats(0.2, 1.0), min_size=n,
                                        max_size=n).map(np.array))
    target = ImitationTarget.markov(matrix, initial)
    return IOTProblem(network=network, cost_model=CostModel.markov(costs),
                      nu0=law(starts), nuT=law(ends),
                      alpha=draw(st.floats(0.5, 3.0)), target=target,
                      horizon=horizon)


def _lowest_index_cheapest(space, costs):
    """The rows ``cheapest_paths`` keeps: per endpoint pair, the lowest
    index among the paths of smallest cost."""
    keep = {}
    for k, (s, e, c) in enumerate(zip(space.starts.tolist(), space.ends.tolist(),
                                      costs.tolist())):
        if (s, e) not in keep or c < costs[keep[(s, e)]]:
            keep[(s, e)] = k
    return np.sort(list(keep.values()))


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(chain_problems())
def test_chain_contractions_match_the_enumerated_path_law(problem):
    try:
        plan = solve_iot(problem, tol=1e-12)
    except InfeasibleError:
        assume(False)
    assert plan.transition_matrices is not None   # the Markov route ran
    starts = np.flatnonzero(problem.nu0) + 1
    ends = np.flatnonzero(problem.nuT) + 1
    space = enumerate_paths(problem.network, problem.horizon, starts, ends,
                            problem.cost_model)
    law = plan.path_law
    costs = path_costs(space, problem.cost_model, problem.network)
    cost = cost_matrix(problem.cost_model, problem.network.n)

    assert plan.path_space.size == space.size
    counts = walk_counts(np.isfinite(cost), problem.horizon, ends)
    assert counts[0, starts].sum() == space.size
    assert np.abs(plan.edge_usage - edge_usage_from_law(space, law)).max() <= 1e-12

    obj = plan.objective
    assert obj.expected_cost == pytest.approx(float(law @ costs), rel=1e-12, abs=1e-12)
    kl = path_kl(law, expand_target(problem.target, space))
    assert obj.kl_to_target == pytest.approx(kl, abs=1e-10)
    assert obj.total == obj.expected_cost + problem.alpha * obj.kl_to_target

    by_dest, mass = chain_totals(plan.transition_matrices, problem.nu0, cost)
    want = plan_report("imitation", space.array, law, costs, space.n)
    want_cost, want_mass = want.per_destination_cost, want.per_destination_mass
    assert np.abs(by_dest - want_cost).max() <= 1e-12 * max(1.0, want_cost.max())
    assert np.abs(mass - want_mass).max() <= 1e-12

    rows, row_cost = cheapest_rows(cost, problem.horizon, starts, ends)
    keep = _lowest_index_cheapest(space, costs)
    assert np.array_equal(rows, space.array[keep])
    assert np.array_equal(row_cost, costs[keep])
    # both kinds hand the one LP the same rows at the same costs
    path_rows, path_row_cost = cheapest_paths(space, costs)
    assert np.array_equal(path_rows, rows)
    assert np.array_equal(path_row_cost, row_cost)


def _tiny_with_faint_steps():
    """The tiny network at alpha 0.5 under an all-ones Markov target: with
    steps (1, 1), (1, 2), (1, 3), (2, 3) and (3, 3) made faint, every walk
    from 1 to 3 weighs 1e-340 against the heaviest walk."""
    fx = fixtures.tiny_fixture()
    return IOTProblem(network=fx.network, cost_model=fx.model, nu0=fx.nu0,
                      nuT=fx.nuT, alpha=0.5, horizon=fx.space.horizon,
                      target=ImitationTarget.markov(np.ones((3, 3))))


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(chain_problems(), st.sampled_from(["matrix", "initial"]),
       st.floats(1e-3, 1e3) | st.sampled_from([1e-200, 1e200]),
       st.lists(st.booleans(), min_size=25, max_size=25))
@example(_tiny_with_faint_steps(), "matrix", 1.0,
         [k in (0, 1, 2, 5, 8) for k in range(25)])
def test_a_markov_target_is_one_probability_law_on_both_routes(problem, part, scale,
                                                               faint):
    """Q is the target's law on the walks between the supports: the routes'
    KLs agree and are never negative, also when some step weights are made
    1e-170 times fainter (``faint`` picks them; a walk over two of them
    weighs below the float range against one over none), and wherever the
    Markov route solves, the path route solves too.  Scaling the drawn step
    weights or start weights by a positive constant moves neither plan nor
    KL, also with a blend, whose uniform part no longer meets an
    unnormalised Q."""
    target = problem.target
    n = target.matrix.shape[0]
    dim = np.array(faint[:n * n]).reshape(n, n)
    dimmed = dataclasses.replace(problem, target=ImitationTarget.markov(
        np.where(dim, target.matrix * 1e-170, target.matrix), target.initial))
    try:
        markov = solve_iot(dimmed, tol=1e-12)
    except InfeasibleError:
        assume(False)
    plans = [markov, solve_iot(dimmed, force_path=True, tol=1e-12)]
    kls = [plan.objective.kl_to_target for plan in plans]
    assert min(kls) >= -1e-12
    assert kls[0] == pytest.approx(kls[1], rel=1e-9, abs=1e-9)
    scaled = {"matrix": target.matrix, "initial": target.initial}
    scaled[part] = scaled[part] * scale
    for beta in (0.0, 0.3):
        base, moved = (solve_iot(dataclasses.replace(problem, target=ImitationTarget.markov(
            **weights, blend=beta)), tol=1e-12)
            for weights in ({"matrix": target.matrix, "initial": target.initial}, scaled))
        assert 0.5 * np.abs(base.path_law - moved.path_law).sum() <= 1e-9
        assert moved.objective.kl_to_target == pytest.approx(
            base.objective.kl_to_target, rel=1e-9, abs=1e-9)


@pytest.mark.parametrize("alpha", [1.0, 40.0])
def test_chain_kl_keeps_its_digits_at_small_alpha(alpha):
    """The chain's KL matches the enumerated path sum to 12 digits, also at
    alpha 1, where ``E[C] / alpha`` is about a thousand times the KL."""
    fx = fixtures.risk30(0)
    model = markov_model_from_network(fx.network, fx.ruled)
    weights = build_risk_matrix(fx.network, model, fx.affected, RiskWeights())
    rows, cols = np.nonzero(weights)
    weights[rows, cols] *= np.random.default_rng(1).uniform(0.8, 1.2, rows.size)
    nu0, nuT = fx.marginals()
    target = ImitationTarget.markov(weights)
    plan = solve_iot(IOTProblem(network=fx.network, cost_model=model, nu0=nu0,
                                nuT=nuT, alpha=alpha, target=target, horizon=3))
    assert plan.transition_matrices is not None   # the Markov route ran
    kl = path_kl(plan.path_law, expand_target(target, plan.path_space))
    assert plan.objective.kl_to_target == pytest.approx(kl, rel=1e-12)


def test_a_horizon_only_problem_enumerates_its_space_once(monkeypatch):
    """A blended target takes the path route, whose solve and plan (its path
    law included) share one enumeration of the problem's space."""
    calls = []
    enumerate_once = iotnet.imitation.enumerate_paths
    monkeypatch.setattr(iotnet.imitation, "enumerate_paths",
                        lambda *args: calls.append(args) or enumerate_once(*args))
    fx = fixtures.risk30(0)
    model = markov_model_from_network(fx.network, fx.ruled)
    nu0, nuT = fx.marginals()
    weights = build_risk_matrix(fx.network, model, fx.affected, RiskWeights())
    plan = solve_iot(IOTProblem(network=fx.network, cost_model=model, nu0=nu0,
                                nuT=nuT, alpha=40.0, horizon=3,
                                target=ImitationTarget.markov(weights, blend=0.1)))
    assert plan.transition_matrices is None     # the path route ran
    assert plan.path_law.size == plan.path_space.size
    assert len(calls) == 1


def _tie_case():
    """Two cheapest paths 1 > 2 > 4 and 1 > 3 > 4 (cost 2), one dearer 1 > 4 > 4."""
    cost = np.full((4, 4), math.inf)
    cost[0, 1] = cost[0, 2] = cost[1, 3] = cost[2, 3] = 1.0
    cost[0, 3], cost[3, 3] = 1.5, 1.0
    return cost, 2, np.array([1]), np.array([4])


def test_cheapest_rows_break_ties_lexicographically():
    cost = _tie_case()[0]
    rows, costs = cheapest_rows(cost, 2, np.array([1]), np.array([4]))
    assert rows.tolist() == [[1, 2, 4]] and costs.tolist() == [2.0]
    # 1 + (1 + 2**-52) rounds to 2.0: still a tie, as the path sums see it
    cost[1, 3] = np.nextafter(1.0, 2.0)
    rows, _ = cheapest_rows(cost, 2, np.array([1]), np.array([4]))
    assert rows.tolist() == [[1, 2, 4]]
    cost[1, 3] = np.nextafter(cost[1, 3], 2.0)   # now 1 > 3 > 4 is cheaper
    rows, _ = cheapest_rows(cost, 2, np.array([1]), np.array([4]))
    assert rows.tolist() == [[1, 3, 4]]


def _fallback_case():
    """1 > 2 > 4 costs 1 + 2**-52, within the 1e-12 bound of the smallest
    cost 1.0 at every step, so the first descent takes it; only 1 > 3 > 4
    adds up to 1.0 exactly."""
    cost = np.full((4, 4), math.inf)
    cost[0, 1], cost[0, 2] = 1.0 + 2.0**-52, 1.0
    cost[1, 3] = cost[2, 3] = 0.0
    return cost, 2, np.array([1]), np.array([4])


def test_cheapest_rows_search_where_the_first_descent_misses_the_sum():
    rows, costs = cheapest_rows(*_fallback_case())
    assert rows.tolist() == [[1, 3, 4]] and costs.tolist() == [1.0]


# dyadic step costs of several magnitudes: equal sums tie exactly, and a
# small cost beside a large one rounds away (1 + 2**-53 is 1.0)
_DYADIC_COST = st.sampled_from([math.inf, 0.0, 2.0**-53, 0.5, 1.0, 1.0 + 2.0**-52,
                                2.0**53])


@st.composite
def step_cost_cases(draw):
    """A step-cost array on 2-5 nodes (``inf`` off its steps), a horizon of
    1-3, and start and end nodes, each a nonempty sorted set."""
    n = draw(st.integers(2, 5))
    cost = np.array(draw(st.lists(_DYADIC_COST, min_size=n * n,
                                  max_size=n * n))).reshape(n, n)
    nodes = st.sets(st.integers(1, n), min_size=1).map(sorted).map(np.array)
    return cost, draw(st.integers(1, 3)), draw(nodes), draw(nodes)


@settings(max_examples=300, deadline=None)
@given(step_cost_cases())
@example(_tie_case())
@example(_fallback_case())
def test_cheapest_rows_are_the_lowest_index_cheapest_paths(case):
    """Per endpoint pair, the enumerated space's lowest-index path among those
    of smallest left-to-right cost, in lexicographic order."""
    cost, horizon, starts, ends = case
    n = cost.shape[0]
    rows = np.array(list(itertools.product(range(1, n + 1), repeat=horizon + 1)))
    rows = rows[np.isin(rows[:, 0], starts) & np.isin(rows[:, -1], ends)]
    costs = row_sums(cost, rows)
    space = PathSpace(horizon=horizon, n=n, array=rows[np.isfinite(costs)])
    costs = costs[np.isfinite(costs)]
    got_rows, got_costs = cheapest_rows(cost, horizon, starts, ends)
    if not space.size:
        assert got_rows.shape == (0, horizon + 1) and got_costs.size == 0
        return
    keep = _lowest_index_cheapest(space, costs)
    assert np.array_equal(got_rows, space.array[keep])
    assert np.array_equal(got_costs, costs[keep])


def _min_plus_by_columns(a, b):
    """The column loop the slabbed min-plus product replaced (reference)."""
    out = np.full((a.shape[0], b.shape[1]), math.inf)
    for k in range(a.shape[1]):
        np.minimum(out, a[:, [k]] + b[k], out=out)
    return out


# (7, 300, 500) has 150,000 sum terms per row, so 6 rows per 2^20-term slab:
# slabs of 6 rows and 1
@pytest.mark.parametrize("shape", [(1, 1, 1), (4, 1, 3), (3, 5, 2), (30, 30, 30),
                                   (7, 300, 500)])
def test_min_plus_equals_the_column_loop(shape):
    m, k, p = shape
    rng = np.random.default_rng(m * k * p)
    # few distinct integer costs, so that ties are common
    a = rng.integers(0, 6, (m, k)).astype(float)
    b = rng.uniform(0.0, 5.0, (k, p)).round(1)
    a[rng.random((m, k)) < 0.4] = math.inf
    b[rng.random((k, p)) < 0.4] = math.inf
    a[-1] = math.inf          # a row and a column without a finite entry
    b[:, 0] = math.inf
    got = min_plus(a, b)
    assert got.shape == (m, p)
    assert np.array_equal(got, _min_plus_by_columns(a, b))
    assert np.all(got[-1] == math.inf) and np.all(got[:, 0] == math.inf)


@st.composite
def step_masks(draw):
    """One ``(n, n)`` step mask or a ``(T, n, n)`` stack of them, with start
    and end node sets: sparse or dense, so that some starts have no walk
    and some draws have none at all."""
    n, horizon = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    shape = (horizon, n, n) if draw(st.booleans()) else (n, n)
    density = draw(st.sampled_from([0.2, 0.5, 0.9]))
    cells = draw(st.lists(st.floats(0.0, 1.0), min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    nodes = st.lists(st.integers(1, n), min_size=1, max_size=n, unique=True)
    return (np.array(cells).reshape(shape) < density, horizon, draw(nodes),
            draw(nodes))


@settings(max_examples=300, deadline=None)
@given(step_masks())
@example((np.array([[True, True, False], [False, False, True], [False, False, False]]),
          2, [3, 1], [3]))
@example((np.zeros((2, 2, 2), dtype=bool), 2, [1], [2]))
def test_walks_lists_what_brute_force_lists_in_its_order(case):
    """The lister's table equals the walks that plain product-and-filter
    iteration keeps, row for row in lexicographic order, and has as many
    rows as the walk count; where none runs both refuse the empty space."""
    steps, horizon, starts, ends = case
    n = steps.shape[-1]
    masks = [steps if steps.ndim == 2 else steps[t] for t in range(horizon)]
    expected = [walk for walk in itertools.product(range(1, n + 1), repeat=horizon + 1)
                if walk[0] in starts and walk[-1] in ends
                and all(masks[t][a - 1, b - 1]
                        for t, (a, b) in enumerate(zip(walk, walk[1:])))]
    if not expected:
        for fn in (walks, count_walks):
            with pytest.raises(InfeasibleError, match="empty path space"):
                fn(steps, horizon, starts, ends)
        return
    rows = walks(steps, horizon, starts, ends)
    assert rows.dtype == np.int64
    assert np.array_equal(rows, np.array(expected))
    assert count_walks(steps, horizon, starts, ends)[0] == len(expected)


def test_count_paths_does_not_overflow():
    steps = np.ones((3, 3), dtype=bool)
    assert walk_counts(steps, 64, [1, 2, 3])[0, 1] == 3 ** 64


def _complete_problem(n: int, horizon: int) -> IOTProblem:
    """Every step allowed on ``n`` nodes, so ``n ** horizon`` walks run from
    each node to the whole node set: 3**40, above 2**53, for 3 nodes at T=40."""
    pairs = list(itertools.product(range(1, n + 1), repeat=2))
    edges = [(i, j, EdgeKind.STORAGE if i == j else EdgeKind.LOCAL, 1.0)
             for (i, j) in pairs]
    network = build_network([(i, float(i), 0.0) for i in range(1, n + 1)], edges)
    return IOTProblem(network=network,
                      cost_model=CostModel.markov({p: float(sum(p) % 3) for p in pairs}),
                      nu0=np.full(n, 1.0 / n), nuT=np.full(n, 1.0 / n), alpha=1.0,
                      target=ImitationTarget.markov(np.ones((n, n))), horizon=horizon)


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.filter_too_much])
@given(chain_problems())
@example(_complete_problem(3, 40))
def test_each_chain_product_matches_its_enumerated_space(problem):
    """Counting, log-sum-exp and min-plus, each against a brute force over
    the walks: the walk count equals the leaves of a depth-first enumeration
    at every node and step; where the space is small enough to list, the log
    kernel is the log-sum-exp of the listed paths' summed log weights per
    endpoint pair, and the largest chain cost is the largest path cost."""
    n, horizon = problem.network.n, problem.horizon
    cost = cost_matrix(problem.cost_model, n)
    starts = np.flatnonzero(problem.nu0) + 1
    ends = np.flatnonzero(problem.nuT) + 1
    counts = walk_counts(np.isfinite(cost), horizon, ends)

    @functools.cache
    def leaves(node, left):
        """Walks from ``node`` to ``ends`` in ``left`` steps, one by one (the
        subtrees of a node and a step count are shared)."""
        if not left:
            return int(node in ends)
        return sum(leaves(j, left - 1) for j in range(1, n + 1)
                   if cost[node - 1, j - 1] < math.inf)

    assert counts[:, 1:].tolist() == [[leaves(i, horizon - t) for i in range(1, n + 1)]
                                      for t in range(horizon + 1)]
    assert all(type(c) is int for c in counts.flat)
    if n ** (horizon + 1) > 100_000:
        assert counts[0, 1] == 3 ** 40   # the example: too many walks to list
        return

    rows = np.array(list(itertools.product(range(1, n + 1), repeat=horizon + 1)))
    walks = rows[np.isfinite(row_sums(cost, rows))]
    space = enumerate_paths(problem.network, horizon, starts, ends, problem.cost_model)
    assert counts[0, starts].sum() == space.size
    assert space.size == np.sum(np.isin(walks[:, 0], starts) & np.isin(walks[:, -1], ends))

    prior = imitation_prior_markov(problem.cost_model, problem.alpha, problem.target)
    kernel = functools.reduce(log_matmul, [prior.log_steps] * horizon)
    logw = row_sums(prior.log_steps, rows)
    exact = np.full((n, n), -np.inf)
    for s, e in itertools.product(range(1, n + 1), repeat=2):
        terms = logw[(rows[:, 0] == s) & (rows[:, -1] == e) & (logw > -np.inf)]
        if terms.size:
            exact[s - 1, e - 1] = scipy_logsumexp(terms)
    assert np.array_equal(kernel == -np.inf, exact == -np.inf)
    finite = exact > -np.inf
    np.testing.assert_allclose(kernel[finite], exact[finite], rtol=1e-12, atol=1e-12)

    costs = path_costs(space, problem.cost_model, problem.network)
    assert _largest_chain_cost(problem) == costs.max()


_HUGE = 10 ** 30


@pytest.mark.parametrize("argv, named", [
    (["scenario", "--spec", "risk.json"], "scenario risk.json: "),
    (["scenario", "--spec", "imitation.json"], "scenario imitation.json: "),
    (["solve", "--network", "builtin:tiny", "--alpha", "0.5", "--horizon", str(_HUGE)], ""),
    (["bridge", "--prior", "prior.json", "--nu0", "half.json", "--nuT", "half.json",
      "--horizon", str(_HUGE)], ""),
    (["scenario", "--spec", "tiny99.json"], "scenario tiny99.json: "),
    (["solve", "--network", "builtin:tiny", "--alpha", "0.5", "--horizon", "99"], ""),
    (["solve", "--network", "builtin:tiny", "--alpha", "0.5", "--horizon", "10000"], ""),
])
def test_a_huge_horizon_is_refused_by_name(tmp_path, argv, named):
    """A horizon of 10**30 ends in one ``error:`` line naming it (and the
    scenario file): the walk-count table that sizes the chain, or the
    bridge's table of transitions, cannot be allocated, and no loop over the
    horizon runs first.  On tiny's three nodes at T=99 the walks are counted
    (about 5e47 of them), and the path table of that many rows is refused
    by its horizon and size before any row is listed; at T=10,000 the count
    has more digits than the interpreter prints, and the refusal gives its
    power of two.  ``iot`` runs in a child process, killed after 60 s and
    held to a 2 GiB address space."""
    for kind, network in (("risk", "builtin:risk30"), ("imitation", "builtin:synthetic30")):
        (tmp_path / f"{kind}.json").write_text(json.dumps(
            {"network": network, "T": _HUGE, "alpha": 40.0, "scenario": {"kind": kind}}))
    tiny = fixtures.tiny_fixture()
    (tmp_path / "tiny.json").write_text(json.dumps(network_to_dict(tiny.network)))
    masses = {str(node): 1.0 for node in (1, 2, 3)}
    (tmp_path / "tiny99.json").write_text(json.dumps(
        {"network": "tiny.json", "supply": masses, "demand": masses, "T": 99,
         "alpha": 40.0, "scenario": {"kind": "imitation"}}))
    (tmp_path / "prior.json").write_text(json.dumps(
        {"type": "markov", "initial": [0.5, 0.5], "matrix": [[1, 1], [1, 1]]}))
    (tmp_path / "half.json").write_text(json.dumps([0.5, 0.5]))
    src = os.path.dirname(os.path.dirname(iotnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    done = subprocess.run([sys.executable, "-m", "iotnet.cli", *argv, "--out-dir", "out"],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=60, preexec_fn=limit)
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    errors = [line for line in done.stderr.splitlines() if "error:" in line]
    if {"99", "tiny99.json"} & set(argv):
        size = walk_counts(tiny.network.edge_mask, 99, [1, 2, 3])[0, 1:].sum()
        assert errors == [f"error: {named}a horizon-99 space of {size} paths is too large"]
    elif "10000" in argv:
        size = walk_counts(tiny.network.edge_mask, 10_000, [1, 2, 3])[0, 1:].sum()
        assert errors == [f"error: a horizon-10000 space of at least "
                          f"2**{size.bit_length() - 1} paths is too large"]
    else:
        assert errors == [f"error: {named}horizon {_HUGE} is too large"]


def test_a_risk_path_count_of_any_size_is_printed(tmp_path):
    """risk30 at T=5000 counts about 4,900 digits of paths, past the 4,300
    that ``str`` converts: the scenario solves, and its ``paths=`` line and
    its summary give the exact count (it ended in a traceback after the
    solve).  ``iot`` runs in a child process, killed after 60 s and held to
    a 3 GB address space."""
    (tmp_path / "r.json").write_text(json.dumps(
        {"network": "builtin:risk30", "T": 5000, "alpha": 40.0,
         "scenario": {"kind": "risk"}}))
    src = os.path.dirname(os.path.dirname(iotnet.__file__))
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [
        src, os.environ.get("PYTHONPATH")]))}

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))

    done = subprocess.run([sys.executable, "-m", "iotnet.cli", "scenario", "--spec",
                           "r.json", "--out-dir", "out"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=60, preexec_fn=limit)
    assert done.returncode == 0, done.stderr
    fx = fixtures.risk30(0)
    cost = cost_matrix(markov_model_from_network(fx.network, fx.ruled), fx.network.n)
    size = count_walks(np.isfinite(cost), 5000, fx.supply, fx.demand)[0]
    digits = str(decimal.Decimal(size))
    assert len(digits) > 4300
    assert f" paths={digits} " in done.stdout
    summary = (tmp_path / "out" / "report_summary.txt").read_text().splitlines()
    assert summary[1] == f"paths\t{digits}"


# ---------------------------------------------------------------------------
# the risk scenario without enumeration
# ---------------------------------------------------------------------------

_PATH_LAYERS = (("network", "enumerate_paths"), ("network", "path_costs"),
                ("imitation", "expand_target"), ("bridge", "markov_path_law"))


@pytest.fixture()
def no_path_layers(monkeypatch):
    """Make every per-path layer raise, wherever a module imported it."""
    modules = [m for name, m in vars(iotnet).items()
               if isinstance(m, type(iotnet))] + [iotnet]
    for module_name, fn_name in _PATH_LAYERS:
        fn = getattr(getattr(iotnet, module_name), fn_name)

        def refuse(*args, _name=fn_name, **kwargs):
            raise AssertionError(f"{_name} called")

        for module in modules:
            for attr, value in list(vars(module).items()):
                if value is fn:
                    monkeypatch.setattr(module, attr, refuse)


def _risk_spec(tmp_path, horizon):
    spec = tmp_path / f"risk{horizon}.json"
    spec.write_text(json.dumps({"network": "builtin:risk30", "T": horizon,
                                "alpha": 40.0, "scenario": {"kind": "risk"}}))
    return str(spec)


def test_long_horizon_risk_scenario_enumerates_no_path(tmp_path, no_path_layers,
                                                       capsys):
    spec = _risk_spec(tmp_path, 16)
    out = tmp_path / "out"
    assert main(["scenario", "--spec", spec, "--out-dir", str(out)]) == 0
    assert "paths=" in capsys.readouterr().out
    result = run_scenario(load_scenario(spec), seed=0)

    fx = fixtures.risk30(0)
    nu0, nuT = fx.marginals()
    usage = result.imitation_plan.edge_usage
    assert usage.shape == (16, fx.network.n, fx.network.n)
    assert np.abs(usage[0].sum(axis=1) - nu0).max() <= 1e-9
    assert np.abs(usage[-1].sum(axis=0) - nuT).max() <= 1e-9
    assert np.abs(usage.sum(axis=(1, 2)) - 1.0).max() <= 1e-9
    obj = result.imitation_plan.objective
    assert obj.total == obj.expected_cost + 40.0 * obj.kl_to_target
    assert result.reports["imitation"].total_cost == pytest.approx(
        obj.expected_cost, rel=1e-12)
    assert result.lp_objective <= obj.expected_cost
    assert result.paths == 17_822_564_850_467_019
    for row in result.disaster.rows:
        assert row.imitation_after >= row.imitation_before
        assert row.optimal_after >= row.optimal_before
    summary = (out / "report_summary.txt").read_text()
    assert f"paths\t{result.paths}\n" in summary


def test_risk30_t5_path_count(tmp_path, no_path_layers):
    result = run_scenario(load_scenario(_risk_spec(tmp_path, 5)), seed=0)
    assert result.paths == 244_897
