"""Network construction, rule-based path costs, and path enumeration."""

import math

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from iotnet import (
    CostModel,
    EdgeKind,
    InfeasibleError,
    ValidationError,
    build_network,
    enumerate_paths,
    markov_model_from_network,
    network_from_dict,
    network_to_dict,
    path_costs,
    reprice,
    strongly_connected,
    unreachable_nodes,
)
from iotnet.network import (PathSpace, cost_matrix, path_vector, row_join,
                            row_ranks)
from iotnet import fixtures

from helpers import (brute_paths, edges_between, line_network, path_cost,
                     ruled_path_cost)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------


def test_build_network_defaults_euclidean_lengths():
    net = build_network([(1, 0.0, 0.0), (2, 3.0, 4.0)],
                        [(1, 2, EdgeKind.LOCAL)])
    assert net.edges[0].length_km == pytest.approx(5.0)


def test_build_network_rejects_unknown_node():
    with pytest.raises(ValidationError):
        build_network([(1, 0.0, 0.0)], [(1, 2, EdgeKind.LOCAL, 1.0)])


def test_build_network_rejects_non_storage_self_loop():
    with pytest.raises(ValidationError):
        build_network([(1, 0.0, 0.0)], [(1, 1, EdgeKind.LOCAL, 1.0)])


def test_build_network_rejects_duplicate_edge():
    with pytest.raises(ValidationError):
        build_network([(1, 0.0, 0.0), (2, 1.0, 0.0)],
                      [(1, 2, EdgeKind.LOCAL, 1.0), (1, 2, EdgeKind.LOCAL, 2.0)])


def test_build_network_rejects_negative_length():
    with pytest.raises(ValidationError):
        build_network([(1, 0.0, 0.0), (2, 1.0, 0.0)],
                      [(1, 2, EdgeKind.LOCAL, -1.0)])


def test_parallel_edges_of_distinct_kinds_allowed():
    net = build_network([(1, 0.0, 0.0), (2, 1.0, 0.0)],
                        [(1, 2, EdgeKind.LOCAL, 100.0),
                         (1, 2, EdgeKind.MARITIME, 20.0)])
    assert len(edges_between(net, 1, 2)) == 2


# ---------------------------------------------------------------------------
# rule-based path costs: worked examples
# ---------------------------------------------------------------------------


def priced(model, net, path) -> float:
    """The cost of one path by the scalar reference, required to equal
    ``path_costs`` on a one-row path space bit for bit."""
    cost = path_cost(model, net, path)
    space = PathSpace(horizon=len(path) - 1, n=net.n, array=np.array([path]))
    assert path_costs(space, model, net)[0] == cost
    return cost


def test_single_local_edge_costs_its_length():
    net, model = line_network([(EdgeKind.LOCAL, 50.0)])
    assert priced(model, net, (1, 2)) == pytest.approx(50.0)


def test_maritime_multiplier_and_switch_penalty():
    # local 50 km, then a 50 km sea leg at x4 = 200, plus one mode switch.
    net, model = line_network([(EdgeKind.LOCAL, 50.0),
                               (EdgeKind.MARITIME, 50.0)])
    assert priced(model, net, (1, 2, 3)) == pytest.approx(270.0)


def test_highway_run_of_two_gets_twenty_percent_off():
    net, model = line_network([(EdgeKind.HIGHWAY, 100.0),
                               (EdgeKind.HIGHWAY, 100.0)])
    assert priced(model, net, (1, 2, 3)) == pytest.approx(160.0)


def test_highway_run_of_three_gets_thirty_percent_off():
    net, model = line_network([(EdgeKind.HIGHWAY, 100.0)] * 3)
    assert priced(model, net, (1, 2, 3, 4)) == pytest.approx(210.0)


def test_single_highway_edge_gets_no_discount():
    net, model = line_network([(EdgeKind.HIGHWAY, 100.0)])
    assert priced(model, net, (1, 2)) == pytest.approx(100.0)


def test_discount_applies_per_maximal_run():
    # highway, highway, local, highway: the pair is discounted, the trailing
    # single highway is not, and there are two switches.
    net, model = line_network([(EdgeKind.HIGHWAY, 100.0),
                               (EdgeKind.HIGHWAY, 100.0),
                               (EdgeKind.LOCAL, 50.0),
                               (EdgeKind.HIGHWAY, 80.0)])
    expected = 0.8 * 200.0 + 50.0 + 80.0 + 2 * 20.0
    assert priced(model, net, (1, 2, 3, 4, 5)) == pytest.approx(expected)


def test_storage_is_flat_fee_and_counts_as_mode_switch():
    net, model = line_network([(EdgeKind.LOCAL, 50.0)])
    # 1 ->(local) 2 with a storage hold at 1 first: 10 + 50 + one switch.
    assert priced(model, net, (1, 1, 2)) == pytest.approx(80.0)


def test_storage_flat_fee_ignores_geometry():
    nodes = [(1, 0.0, 0.0), (2, 500.0, 0.0)]
    net = build_network(nodes, [(1, 1, EdgeKind.STORAGE, 999.0),
                                (1, 2, EdgeKind.LOCAL, 500.0)])
    model = CostModel.ruled()
    assert priced(model, net, (1, 1)) == pytest.approx(10.0)


def test_parallel_kinds_resolve_to_cheapest_contribution():
    net = build_network([(1, 0.0, 0.0), (2, 1.0, 0.0)],
                        [(1, 2, EdgeKind.LOCAL, 100.0),
                         (1, 2, EdgeKind.MARITIME, 20.0)])
    model = CostModel.ruled()
    # maritime 20 x4 = 80 beats local 100
    assert priced(model, net, (1, 2)) == pytest.approx(80.0)


def test_custom_rule_parameters():
    net, _ = line_network([(EdgeKind.HIGHWAY, 100.0), (EdgeKind.HIGHWAY, 100.0)])
    model = CostModel.ruled(highway_discount_2=0.5, switch_penalty_km=7.0)
    assert priced(model, net, (1, 2, 3)) == pytest.approx(100.0)


def test_ruled_cost_rejects_missing_edge():
    net, model = line_network([(EdgeKind.LOCAL, 50.0)])
    with pytest.raises(InfeasibleError):
        ruled_path_cost(model, net, (1, 2, 2))
    assert path_cost(model, net, (1, 2, 2)) == math.inf


def test_path_cost_markov_mode_is_additive():
    fx = fixtures.tiny_fixture()
    assert priced(fx.model, fx.network, (1, 2, 3)) == pytest.approx(2.0)
    assert priced(fx.model, fx.network, (1, 3, 1)) == pytest.approx(2.5)


def test_markov_edge_cost_absent_pair_is_infinite():
    fx = fixtures.tiny_fixture()
    assert cost_matrix(fx.model, fx.network.n)[0, 1] == pytest.approx(1.0)
    model = CostModel.markov({(1, 2): 3.0})
    assert cost_matrix(model, 2)[1, 0] == math.inf


def test_neutral_rules_reduce_to_additive_markov_costs(rng):
    """With discounts and penalties off, the ruled cost is a sum over steps."""
    for _ in range(5):
        d = fixtures.random_markov_problem(rng)
        net = d["network"]
        neutral = CostModel.ruled(highway_discount_2=0.0,
                                  highway_discount_3plus=0.0,
                                  switch_penalty_km=0.0,
                                  storage_cost_km=4.0,
                                  maritime_multiplier=1.0)
        table = cost_matrix(markov_model_from_network(net, neutral), net.n)
        for path in d["space"].paths[:250]:
            add = sum(table[a - 1, b - 1] for a, b in zip(path, path[1:]))
            assert priced(neutral, net, path) == pytest.approx(add, abs=1e-12)


# ---------------------------------------------------------------------------
# re-pricing
# ---------------------------------------------------------------------------


def test_reprice_markov_scales_table_entries():
    model = CostModel.markov({(1, 2): 3.0, (2, 1): 5.0})
    bumped = reprice(model, [(1, 2)], 10.0)
    assert cost_matrix(bumped, 2)[0, 1] == pytest.approx(30.0)
    assert cost_matrix(bumped, 2)[1, 0] == pytest.approx(5.0)


def test_reprice_ruled_scales_contribution_not_switch_penalty():
    net, model = line_network([(EdgeKind.LOCAL, 50.0),
                               (EdgeKind.MARITIME, 50.0)])
    bumped = reprice(model, [(2, 3)], 10.0)
    # 50 + 10 * 200 + the unchanged 20 km switch penalty
    assert priced(bumped, net, (1, 2, 3)) == pytest.approx(2070.0)


def test_reprice_composes_multiplicatively():
    net, model = line_network([(EdgeKind.LOCAL, 50.0)])
    twice = reprice(reprice(model, [(1, 2)], 2.0), [(1, 2)], 3.0)
    assert priced(twice, net, (1, 2)) == pytest.approx(300.0)


def test_reprice_rejects_negative_multiplier():
    model = CostModel.markov({(1, 2): 3.0})
    with pytest.raises(ValidationError):
        reprice(model, [(1, 2)], -1.0)


@pytest.mark.parametrize("multiplier", [math.nan, math.inf])
def test_reprice_rejects_non_finite_multiplier(multiplier):
    # a nan or inf step cost would be read as off the cost table, so free
    model = CostModel.markov({(1, 2): 3.0})
    with pytest.raises(ValidationError, match="nonnegative and finite"):
        reprice(model, [(1, 2)], multiplier)


# ---------------------------------------------------------------------------
# path enumeration
# ---------------------------------------------------------------------------


def test_enumeration_matches_brute_force(rng):
    for _ in range(8):
        d = fixtures.random_markov_problem(rng)
        net, model, space = d["network"], d["model"], d["space"]
        expected = brute_paths(net, space.horizon, range(1, net.n + 1),
                               range(1, net.n + 1), model)
        assert list(space.paths) == expected


def _assert_enumeration_matches_brute_force(network, horizon, starts, ends,
                                            model):
    """Same rows in the same order as product-and-filter, or the same error."""
    expected = brute_paths(network, horizon, starts, ends, model)
    if not expected:
        message = (f"empty path space: no horizon-{horizon} path from "
                   f"{sorted(set(starts))} to {sorted(set(ends))} over "
                   f"feasible edges")
        with pytest.raises(InfeasibleError) as info:
            enumerate_paths(network, horizon, starts, ends, model)
        assert str(info.value) == message
        return
    space = enumerate_paths(network, horizon, starts, ends, model)
    assert space.array.dtype == np.int64
    assert space.array.shape == (len(expected), horizon + 1)
    assert np.array_equal(space.array, np.array(expected))
    assert np.array_equal(space.starts, space.array[:, 0])
    assert np.array_equal(space.ends, space.array[:, -1])
    assert space.size == len(expected)
    assert list(space.paths) == expected


@st.composite
def enumeration_cases(draw):
    """Random small graph (self-loops allowed), model, supports and horizon."""
    n = draw(st.integers(1, 5))
    nodes = [(i, float(i), 0.0) for i in range(1, n + 1)]
    pairs = [(i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
    edges = [(i, j, EdgeKind.STORAGE if i == j else EdgeKind.LOCAL)
             for i, j in chosen]
    network = build_network(nodes, edges)
    model = CostModel.ruled()
    if chosen and draw(st.booleans()):
        # a Markov table may leave some edges unpriced, hence infeasible
        kept = draw(st.lists(st.sampled_from(chosen), min_size=1, unique=True))
        model = CostModel.markov({pair: 1.0 for pair in kept})
    support = st.sets(st.integers(1, n), min_size=1)
    return (network, draw(st.integers(1, 4)), sorted(draw(support)),
            sorted(draw(support)), model)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(enumeration_cases())
def test_enumeration_equals_product_filter(case):
    _assert_enumeration_matches_brute_force(*case)


def _graph(n, pairs):
    nodes = [(i, float(i), 0.0) for i in range(1, n + 1)]
    return build_network(nodes, [(i, j, EdgeKind.STORAGE if i == j
                                  else EdgeKind.LOCAL) for i, j in pairs])


@pytest.mark.parametrize("pairs, horizon, starts, ends", [
    # self-loops: waiting at either end of a chain
    ([(1, 1), (1, 2), (2, 3), (3, 3)], 3, [1], [3]),
    # start 3 has no way out, so it reaches no end
    ([(1, 2), (2, 3)], 2, [1, 3], [3]),
    # rows through (1, 2) die before the horizon; rows that wait survive
    ([(1, 1), (1, 2), (2, 3)], 3, [1], [3]),
    # every row dies mid-horizon
    ([(1, 2), (2, 3)], 3, [1], [3]),
    # one step
    ([(1, 2), (2, 1), (2, 3), (3, 3)], 1, [1, 2, 3], [1, 3]),
], ids=["self-loops", "start-reaches-no-end", "some-rows-die",
        "frontier-dies", "horizon-1"])
def test_enumeration_edge_cases(pairs, horizon, starts, ends):
    _assert_enumeration_matches_brute_force(_graph(3, pairs), horizon, starts,
                                            ends, CostModel.ruled())


def test_enumeration_respects_endpoint_supports():
    fx = fixtures.tiny_fixture()
    space = enumerate_paths(fx.network, 2, [1], [3], fx.model)
    assert all(p[0] == 1 and p[-1] == 3 for p in space.paths)
    expected = brute_paths(fx.network, 2, [1], [3], fx.model)
    assert list(space.paths) == expected


def test_enumeration_is_lexicographic(tiny):
    assert list(tiny.space.paths) == sorted(tiny.space.paths)


def test_enumeration_raises_when_no_path_survives():
    net, model = line_network([(EdgeKind.LOCAL, 50.0)])
    with pytest.raises(InfeasibleError):
        enumerate_paths(net, 1, [2], [2], model)


def test_path_costs_vector_matches_scalar_loop(tiny):
    vec = path_costs(tiny.space, tiny.model, tiny.network)
    assert vec.tolist() == [path_cost(tiny.model, tiny.network, p)
                            for p in tiny.space.paths]


def test_path_costs_ruled_mode(synth30):
    space, costs = synth30["space"], synth30["costs"]
    fx = synth30["fx"]
    for k in (0, len(space.paths) // 2, len(space.paths) - 1):
        assert costs[k] == ruled_path_cost(fx.ruled, fx.network, space.paths[k])


def test_strongly_connected_detects_both_cases():
    fx = fixtures.tiny_fixture()
    assert strongly_connected(fx.network)
    oneway = build_network([(1, 0.0, 0.0), (2, 1.0, 0.0)],
                           [(1, 2, EdgeKind.LOCAL, 1.0)])
    assert not strongly_connected(oneway)


def test_unreachable_nodes_lists_plain_ints():
    missing = unreachable_nodes(4, [(1, 2), (2, 1), (2, 3)])
    assert missing == [3, 4]
    assert all(type(node) is int for node in missing)
    assert unreachable_nodes(2, [(1, 2), (2, 1)]) == []


# ---------------------------------------------------------------------------
# path-keyed tables
# ---------------------------------------------------------------------------


def test_path_space_paths_are_built_on_first_use():
    fx = fixtures.tiny_fixture()
    space = enumerate_paths(fx.network, 2, (1, 2, 3), (1, 2, 3), fx.model)
    assert "paths" not in vars(space)
    assert space.paths[4] == tuple(space.array[4].tolist())
    assert "paths" in vars(space)


def test_path_vector_scatters_and_normalises(tiny):
    rows = tiny.space.array[[3, 0]]
    vec = path_vector(tiny.space, rows, np.array([1.0, 3.0]), "q")
    expected = np.zeros(tiny.space.size)
    expected[[0, 3]] = [0.75, 0.25]
    assert np.array_equal(vec, expected)


def test_path_vector_rejects_foreign_paths_and_empty_tables(tiny):
    with pytest.raises(ValidationError, match="q puts mass on paths outside"):
        path_vector(tiny.space, np.array([[1, 2, 3, 1]]), np.array([1.0]), "q")
    with pytest.raises(ValidationError, match="q carries no mass"):
        path_vector(tiny.space, tiny.space.array[:1], np.array([0.0]), "q")


# Id sets for the packed row keys, one per table: few ids make rows collide;
# ids up to 1000 over up to 12 columns pass 63 bits part way through a row,
# so the packed prefix is re-ranked there; the full int64 range and its
# extremes give columns whose id range is too wide to pack at all
_INT64 = st.integers(-2 ** 63, 2 ** 63 - 1)
_EXTREMES = st.sampled_from([-2 ** 63, -2 ** 63 + 1, -1, 0, 1, 2 ** 62,
                             2 ** 63 - 2, 2 ** 63 - 1])
_ID_SETS = st.sampled_from([st.integers(0, 3), st.integers(0, 1000), _INT64,
                            _EXTREMES, st.integers(0, 3) | _EXTREMES | _INT64])


def _matrix(rows, width):
    return np.array(rows, dtype=np.int64).reshape(len(rows), width)


def _row_strategy(data):
    width = data.draw(st.integers(0, 12), label="width")
    ids = data.draw(_ID_SETS, label="ids")
    return width, st.tuples(*[ids] * width)


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_ranks_match_sorted_tuples(data):
    width, row = _row_strategy(data)
    rows = data.draw(st.lists(row, max_size=12), label="rows")
    distinct = sorted(set(rows))
    got = row_ranks(_matrix(rows, width))
    assert got.dtype == np.int64
    assert got.tolist() == [distinct.index(r) for r in rows]


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_row_join_matches_a_dict_reference(data):
    width, row = _row_strategy(data)
    block = data.draw(st.lists(row, max_size=10, unique=True), label="block")
    absent = data.draw(st.lists(row, max_size=6), label="absent")
    present = data.draw(st.lists(st.sampled_from(block), max_size=6)
                        if block else st.just([]), label="present")
    table = data.draw(st.permutations(present + absent), label="table")

    index = {p: k for k, p in enumerate(block)}
    got = row_join(_matrix(table, width), _matrix(block, width))
    assert got.tolist() == [index.get(p, -1) for p in table]
    # a table of another width matches nothing
    wider = [p + (1,) for p in table]
    assert row_join(_matrix(wider, width + 1),
                    _matrix(block, width)).tolist() == [-1] * len(table)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------


def test_network_dict_round_trip(synth30):
    fx = synth30["fx"]
    doc = network_to_dict(fx.network, fx.ruled)
    net2, model2 = network_from_dict(doc)
    assert net2.n == fx.network.n
    assert len(net2.edges) == len(fx.network.edges)
    path = synth30["space"].paths[0]
    assert priced(model2, net2, path) == pytest.approx(
        priced(fx.ruled, fx.network, path), abs=1e-12)


def test_thirty_node_fixture_is_deterministic():
    a = fixtures.synthetic30(0)
    b = fixtures.synthetic30(0)
    assert [(e.tail, e.head, e.kind, e.length_km) for e in a.network.edges] == \
           [(e.tail, e.head, e.kind, e.length_km) for e in b.network.edges]
    assert a.supply == b.supply and a.demand == b.demand


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 2**32 - 1))
def test_distance_table_is_the_per_pair_norm(seed):
    """The fixtures' edge lengths keep the floats of a per-pair ``norm``."""
    rng = np.random.default_rng(seed)
    pos = np.stack([rng.uniform(0.0, fixtures.BOX_KM[0], 30),
                    rng.uniform(0.0, fixtures.BOX_KM[1], 30)], axis=1)
    assert fixtures.distance_table(pos) == [
        [float(np.linalg.norm(pos[a] - pos[b])) for b in range(30)]
        for a in range(30)]


def test_risk_fixture_declares_cut_town():
    fx = fixtures.risk30(0)
    assert fx.cut_node is not None
    assert fx.gateway_in is not None and fx.gateway_out is not None
    assert (fx.gateway_in, fx.cut_node) in fx.affected or len(fx.affected) > 0
    inbound = [e for e in fx.network.edges if e.head == fx.cut_node
               and e.tail != fx.cut_node]
    assert {e.tail for e in inbound} == {fx.gateway_in}
