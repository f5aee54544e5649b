"""Array path costs, edge usage, the edge table and destination sums against
their references.

``edge_table`` makes each pair's parallel-edge choice for a whole network at
once; it, the Markov table and the risk weights built from it must equal the
per-pair loops over ``_resolve_step`` they replaced, kept here, bit for bit.

``path_costs`` and ``edge_usage_from_law`` replace per-path loops with array
code that adds the same floats in the same order, so they must agree with the
references exactly, not to a tolerance.  The scenario's per-destination sums
(``plan_report``) add in bincount order and agree with the masked loop to a
relative 1e-12.  The scenario's cost-optimal plan solves the LP on the
cheapest path of each endpoint pair; it must reach the full path LP's optimum.
"""

import json
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
    edge_usage_from_law,
    enumerate_paths,
    markov_model_from_network,
    path_costs,
    reprice,
)
from iotnet import fixtures, scenario
from iotnet.network import EDGE_KINDS, PathSpace, edge_table, row_join
from iotnet.oracle import lp_ot
from iotnet.scenario import RiskWeights, build_risk_matrix, cheapest_paths

from helpers import (_edge_contribution, _resolve_step, edge_pairs, has_edge,
                     marginal_gap, path_cost, usage_dict_loop)

ROAD_KINDS = (EdgeKind.HIGHWAY, EdgeKind.MARITIME, EdgeKind.LOCAL)
PROPERTY = settings(max_examples=60, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


@st.composite
def ruled_networks(draw, length=st.floats(0.0, 100.0, allow_nan=False),
                   multiplier=st.floats(0.0, 10.0)):
    """Small multigraph with parallel road kinds, storage loops, ruled model."""
    n = draw(st.integers(2, 4))
    nodes = [(i, draw(length), draw(length)) for i in range(1, n + 1)]
    edges = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i == j:
                if draw(st.booleans()):
                    edges.append((i, i, EdgeKind.STORAGE))
                continue
            for kind in sorted(draw(st.sets(st.sampled_from(ROAD_KINDS))),
                               key=lambda k: k.value):
                edges.append((i, j, kind, draw(st.none() | length)))
    if not edges:
        edges.append((1, 2, EdgeKind.HIGHWAY))
    network = build_network(nodes, edges)
    unit = st.floats(0.0, 1.0, allow_nan=False)
    model = CostModel.ruled(highway_discount_2=draw(unit),
                            highway_discount_3plus=draw(unit),
                            switch_penalty_km=draw(length),
                            storage_cost_km=draw(length),
                            maritime_multiplier=draw(multiplier))
    return network, model


@st.composite
def priced_spaces(draw):
    """(network, model, space) in either cost mode, possibly re-priced."""
    network, model = draw(ruled_networks())
    pairs = edge_pairs(network)
    if draw(st.booleans()):
        kept = draw(st.lists(st.sampled_from(pairs), min_size=1, unique=True))
        table = {pair: draw(st.floats(0.0, 50.0)) for pair in sorted(kept)}
        model = CostModel.markov(table)
    for _ in range(draw(st.integers(0, 2))):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
        model = reprice(model, chosen, draw(st.floats(0.0, 10.0)))
    horizon = draw(st.integers(1, 5))
    nodes = range(1, network.n + 1)
    try:
        space = enumerate_paths(network, horizon, nodes, nodes, model)
    except InfeasibleError:
        space = None
    return network, model, space


@PROPERTY
@given(priced_spaces())
def test_path_costs_equal_scalar_loop_exactly(case):
    network, model, space = case
    if space is None:
        return
    expected = np.array([path_cost(model, network, p) for p in space.paths])
    assert np.array_equal(path_costs(space, model, network), expected)


# few distinct lengths and multipliers, so parallel kinds often cost the same
_TIED_LENGTH = st.sampled_from([0.0, 10.0, 40.0]) | st.floats(0.0, 100.0)
_TIED_MULTIPLIER = st.sampled_from([0.0, 0.25, 1.0, 4.0]) | st.floats(0.0, 10.0)


@st.composite
def tied_networks(draw):
    """(network, ruled model, affected pairs): parallel kinds with frequent
    equal contributions, possibly re-priced, affected pairs partly off the
    edge set or outside ``1..n``."""
    network, model = draw(ruled_networks(_TIED_LENGTH, _TIED_MULTIPLIER))
    n = network.n
    pairs = edge_pairs(network) + [(2, 1), (1, n), (0, 1), (n + 1, n)]
    for _ in range(draw(st.integers(0, 2))):
        chosen = draw(st.lists(st.sampled_from(pairs), unique=True))
        model = reprice(model, chosen, draw(_TIED_MULTIPLIER))
    affected = tuple(draw(st.lists(st.sampled_from(pairs), unique=True)))
    return network, model, affected


def _reference_markov_table(network, ruled):
    """The per-pair loop ``markov_model_from_network`` ran before the edge
    table."""
    return {(i, j): _edge_contribution(ruled, _resolve_step(ruled, network, i, j))
            for (i, j) in edge_pairs(network)}


def _reference_risk_matrix(network, model, affected, weights):
    """The per-pair loop ``build_risk_matrix`` ran before the edge table."""
    n = network.n
    aff = set(affected)
    out = np.zeros((n, n))
    for (i, j) in edge_pairs(network):
        if (i, j) in aff:
            w = weights.affected
        else:
            kind = _resolve_step(model, network, i, j).kind
            w = weights.maritime if kind is EdgeKind.MARITIME else weights.regular
        out[i - 1, j - 1] = w
    return out


@PROPERTY
@given(tied_networks())
def test_edge_table_equals_the_scalar_choice_on_every_pair(case):
    network, model, _ = case
    kind, contrib = edge_table(network, model)
    assert network.pairs.tolist() == [list(p) for p in edge_pairs(network)]
    for i, j in np.ndindex(kind.shape):
        if has_edge(network, i + 1, j + 1):
            edge = _resolve_step(model, network, i + 1, j + 1)
            assert EDGE_KINDS[kind[i, j]] is edge.kind
            assert contrib[i, j] == _edge_contribution(model, edge)
        else:
            assert (kind[i, j], contrib[i, j]) == (-1, 0.0)


@PROPERTY
@given(tied_networks(), st.sampled_from([RiskWeights(),
                                         RiskWeights(0.5, 2.0, 0.0)]))
def test_markov_table_and_risk_weights_equal_their_per_pair_loops(case, weights):
    network, ruled, affected = case
    markov = markov_model_from_network(network, ruled)
    assert list(markov.edge_costs.items()) == list(
        _reference_markov_table(network, ruled).items())
    assert (markov.maritime_multiplier, markov.storage_cost_km) == (
        ruled.maritime_multiplier, ruled.storage_cost_km)
    for model in (ruled, markov):
        want = _reference_risk_matrix(network, model, affected, weights)
        got = build_risk_matrix(network, model, affected, weights)
        assert got.dtype == want.dtype and np.array_equal(got, want)


def _highway_runs(model, network, space):
    """Lengths of the maximal highway runs over all paths of the space."""
    runs = set()
    for p in space.paths:
        kinds = [_resolve_step(model, network, a, b).kind
                 for a, b in zip(p, p[1:])] + [None]
        count = 0
        for kind in kinds:
            if kind is EdgeKind.HIGHWAY:
                count += 1
            elif count:
                runs.add(min(count, 3))
                count = 0
    return runs


def test_path_costs_cover_highway_runs_of_every_discount_class():
    nodes = [(1, 0.0, 0.0), (2, 30.0, 0.0), (3, 30.0, 40.0)]
    edges = [(1, 1, "storage"), (3, 3, "storage")]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                edges += [(i, j, "highway"), (i, j, "local", 80.0)]
    edges.append((2, 3, "maritime", 1.0))
    network = build_network(nodes, edges)
    model = reprice(CostModel.ruled(), [(1, 2), (3, 1)], 2.5)
    space = enumerate_paths(network, 5, (1, 2, 3), (1, 2, 3), model)
    assert _highway_runs(model, network, space) == {1, 2, 3}
    expected = np.array([path_cost(model, network, p) for p in space.paths])
    assert np.array_equal(path_costs(space, model, network), expected)


@pytest.mark.parametrize("mode", ["markov", "ruled"])
def test_path_costs_reject_infinite_cost_paths(mode):
    network = build_network([(1, 0.0, 0.0), (2, 1.0, 0.0)],
                            [(1, 2, "local"), (2, 2, "storage")])
    model = (CostModel.markov({(1, 2): 1.0}) if mode == "markov"
             else CostModel.ruled())
    space = PathSpace(horizon=2, n=2, array=np.array([(1, 2, 1), (1, 2, 2)]))
    assert not math.isfinite(path_cost(model, network, space.paths[0]))
    with pytest.raises(ValidationError, match="infinite-cost"):
        path_costs(space, model, network)


@PROPERTY
@given(priced_spaces(), st.integers(0, 2**32 - 1))
def test_edge_usage_equals_dict_loop_exactly(case, seed):
    _, _, space = case
    if space is None:
        return
    rng = np.random.default_rng(seed)
    law = rng.random(space.size)
    law[rng.random(space.size) < 0.3] = 0.0
    want = np.zeros((space.horizon, space.n, space.n))
    for (t, i, j), mass in usage_dict_loop(space, law).items():
        want[t, i - 1, j - 1] = mass
    assert np.array_equal(edge_usage_from_law(space, law), want)


def _lp_case(name):
    """Space, costs and marginals of a fixture, at T=3 for the 30-node ones."""
    if name == "tiny":
        fx = fixtures.tiny_fixture()
        return (fx.space, path_costs(fx.space, fx.model, fx.network),
                fx.nu0, fx.nuT)
    fx = getattr(fixtures, name)(0)
    model = (fx.ruled if name == "synthetic30"
             else markov_model_from_network(fx.network, fx.ruled))
    space = enumerate_paths(fx.network, 3, sorted(fx.supply), sorted(fx.demand),
                            model)
    return (space, path_costs(space, model, fx.network)) + fx.marginals()


def _cheapest_path_lp(space, costs, nu0, nuT):
    """The scenario's cost-optimal plan: the LP on ``cheapest_paths``' rows,
    its law scattered back onto ``space``."""
    rows, row_cost = cheapest_paths(space, costs)
    on_rows = row_join(rows, space.array)
    assert np.array_equal(row_cost, costs[on_rows])
    sub = lp_ot(PathSpace(horizon=space.horizon, n=space.n, array=rows),
                row_cost, nu0, nuT)
    law = np.zeros(space.size)
    law[on_rows] = sub.probabilities
    return rows, sub.objective, law


@pytest.mark.parametrize("name", ["tiny", "synthetic30", "risk30"])
def test_cheapest_path_lp_reaches_the_full_path_lp(name):
    space, costs, nu0, nuT = _lp_case(name)
    _, objective, law = _cheapest_path_lp(space, costs, nu0, nuT)
    assert objective == pytest.approx(lp_ot(space, costs, nu0, nuT).objective,
                                      abs=1e-9)
    assert marginal_gap(space, law, nu0, nuT) <= 1e-9
    pair = space.starts * (space.n + 1) + space.ends
    for k in np.nonzero(law)[0]:
        assert costs[k] == costs[pair == pair[k]].min()


def _cheapest_per_pair(space, costs):
    """Row of each (start, end) pair's cheapest path, lowest row on ties."""
    best = {}
    for k, (start, end, cost) in enumerate(zip(space.starts.tolist(),
                                               space.ends.tolist(),
                                               costs.tolist())):
        if (start, end) not in best or cost < costs[best[start, end]]:
            best[start, end] = k
    return sorted(best.values())


@pytest.mark.parametrize("name", ["tiny", "risk30"])
def test_cheapest_path_lp_breaks_exact_ties_by_lowest_index(name):
    space, costs, nu0, nuT = _lp_case(name)
    # four cost levels, so many pairs have several cheapest paths
    tied = np.floor(4.0 * costs / costs.max())
    keep = _cheapest_per_pair(space, tied)
    pairs = list(zip(space.starts.tolist(), space.ends.tolist()))
    best = {pairs[k]: tied[k] for k in keep}
    cheapest = sum(tied[k] == best[pair] for k, pair in enumerate(pairs))
    assert cheapest > len(keep)  # some pairs have several cheapest paths
    rows, _, law = _cheapest_path_lp(space, tied, nu0, nuT)
    assert np.array_equal(rows, space.array[keep])
    assert set(np.nonzero(law)[0].tolist()) <= set(keep)
    assert marginal_gap(space, law, nu0, nuT) <= 1e-9


@pytest.mark.parametrize("name,kind", [("synthetic30", "imitation"),
                                       ("risk30", "risk")])
def test_run_scenario_solves_one_lp_on_the_cheapest_rows(name, kind, tmp_path,
                                                         monkeypatch):
    space, costs, nu0, nuT = _lp_case(name)
    seen = []

    def recording_lp(*args):
        seen.append((args, scenario_lp(*args)))
        return seen[-1][1]

    scenario_lp = scenario.transport_lp
    monkeypatch.setattr(scenario, "transport_lp", recording_lp)
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"network": f"builtin:{name}", "T": 3,
                                "alpha": 40.0, "scenario": {"kind": kind}}))
    result = scenario.run_scenario(scenario.load_scenario(str(spec)), seed=0)
    assert len(seen) == 1
    (sub_rows, sub_costs, *marginals), (_, objective) = seen[0]
    rows, row_cost = cheapest_paths(space, costs)
    assert np.array_equal(sub_rows, rows)
    assert np.array_equal(sub_costs, row_cost)
    # the production solver reaches the dense oracle's optimum on those rows
    oracle = lp_ot(PathSpace(horizon=space.horizon, n=space.n, array=rows),
                   row_cost, *marginals)
    assert objective == pytest.approx(oracle.objective, rel=1e-12)
    assert objective == result.lp_objective
    optimal = result.reports["optimal"]
    assert optimal.total_cost == pytest.approx(result.lp_objective, rel=1e-12)
    assert np.abs(optimal.per_destination_mass - nuT).max() <= 1e-9


def test_risk_scenario_never_builds_path_tuples(tmp_path):
    spec = tmp_path / "risk.json"
    spec.write_text(json.dumps({"network": "builtin:risk30", "T": 3,
                                "alpha": 40.0, "scenario": {"kind": "risk"}}))
    result = scenario.run_scenario(scenario.load_scenario(str(spec)), seed=0)
    scenario.emit_report(result, str(tmp_path / "out"))
    assert "paths" not in result.space.__dict__
    assert "index" not in result.space.__dict__


def _per_destination_masked(space, law, costs):
    """The masked per-destination loop that ``plan_report``'s bincounts
    replace, its node-keyed dicts written into ``(n,)`` arrays."""
    cost_by_dest, mass_by_dest = np.zeros(space.n), np.zeros(space.n)
    for end in np.unique(space.ends).tolist():
        mask = space.ends == end
        dest_law = law[mask]
        mass = float(dest_law.sum())
        if mass <= 0:
            continue
        mass_by_dest[end - 1] = mass
        cost_by_dest[end - 1] = float(dest_law @ costs[mask])
    return cost_by_dest, mass_by_dest


@pytest.mark.parametrize("name", ["synthetic30", "risk30"])
def test_plan_report_matches_masked_sums(name):
    space, costs, nu0, nuT = _lp_case(name)
    rng = np.random.default_rng(7)
    # a disaster-like repricing: some paths cost ten times more
    repriced = np.where(rng.random(space.size) < 0.3, 10.0 * costs, costs)
    dense = rng.random(space.size)
    dense /= dense.sum()
    # every other destination carries no mass and must report none
    ends = np.unique(space.ends)
    massless = np.isin(space.ends, ends[::2])
    gapped = np.where(massless, 0.0, dense)
    rows, _, sparse = _cheapest_path_lp(space, costs, nu0, nuT)
    on_rows = row_join(rows, space.array)
    for label, law in {"dense": dense, "gapped": gapped, "sparse": sparse}.items():
        for cost in (costs, repriced):
            want_cost, want_mass = _per_destination_masked(space, law, cost)
            tables = [(space.array, law, cost)]
            if label == "sparse":   # the LP plan as the scenario holds it
                tables.append((rows, law[on_rows], cost[on_rows]))
            for table in tables:
                got = scenario.plan_report(label, *table, space.n)
                np.testing.assert_allclose(got.per_destination_cost, want_cost,
                                           rtol=1e-12, atol=0, err_msg=label)
                np.testing.assert_allclose(got.per_destination_mass, want_mass,
                                           rtol=1e-12, atol=0, err_msg=label)
                assert got.total_cost == float(got.per_destination_cost.sum())
                assert got.total_cost == pytest.approx(float(law @ cost),
                                                       rel=1e-12)
    report = scenario.plan_report("gapped", space.array, gapped, costs, space.n)
    kept = set((np.flatnonzero(report.per_destination_mass) + 1).tolist())
    assert kept == set(ends[1::2].tolist())
    assert not report.per_destination_cost[ends[::2] - 1].any()
