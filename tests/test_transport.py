"""The scenario's transportation simplex against the dense Bland-rule oracle.

``scenario.transport_lp`` solves the cost-optimal plan of every scenario;
``oracle.lp_ot`` solves the same LP by a dense two-phase simplex that shares
no code with it.  Tables are drawn with real costs, and with integer costs
0-3 over integer mass splits, where ties and degenerate bases are common.
A drawn mass may be 0, so tables have rows on zero-mass starts and ends,
which carry no flow.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotnet.errors import InfeasibleError, ValidationError
from iotnet.network import PathSpace
from iotnet.oracle import lp_ot
from iotnet.scenario import transport_lp


def _table(supply, demand, cost):
    """Horizon-1 rows, one per (start, end) pair, their costs and the start
    and end laws; starts are nodes ``1..m``, ends ``m+1..m+n``."""
    m, n = len(supply), len(demand)
    nu0 = np.concatenate([supply, np.zeros(n)]) / np.sum(supply)
    nuT = np.concatenate([np.zeros(m), demand]) / np.sum(demand)
    rows = np.array([[s, m + e] for s in range(1, m + 1) for e in range(1, n + 1)])
    return rows, np.array(cost, dtype=float), nu0, nuT


def _split(cuts, total):
    """The integers between sorted cut points of ``0..total``."""
    return np.diff([0, *sorted(cuts), total])


@st.composite
def tables(draw):
    """m, n in 1..6: integer costs 0-3 over a split of 1..12 units of mass,
    or costs in [0, 100] over masses in [0.01, 1] or 0."""
    m, n = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    if draw(st.booleans()):
        total = draw(st.integers(1, 12))
        supply, demand = (_split(draw(st.lists(st.integers(0, total), min_size=k - 1,
                                               max_size=k - 1)), total)
                          for k in (m, n))
        cost = draw(st.lists(st.integers(0, 3), min_size=m * n, max_size=m * n))
    else:
        mass = st.one_of(st.just(0.0), st.floats(0.01, 1.0))
        supply, demand = (np.array(draw(st.lists(mass, min_size=k, max_size=k)))
                          for k in (m, n))
        cost = draw(st.lists(st.floats(0.0, 100.0), min_size=m * n,
                             max_size=m * n))
    if not (np.any(supply) and np.any(demand)):
        supply, demand = supply + 1.0, demand + 1.0
    return _table(supply, demand, cost)


def _seeded_table(rng):
    """A table from :func:`tables`' distribution, drawn by ``rng``."""
    m, n = rng.integers(1, 7, size=2)
    if rng.random() < 0.5:
        total = int(rng.integers(1, 13))
        supply, demand = (_split(rng.integers(0, total + 1, k - 1), total)
                          for k in (m, n))
        cost = rng.integers(0, 4, m * n)
    else:
        supply, demand = (np.where(rng.random(k) < 0.25, 0.0,
                                   rng.uniform(0.01, 1.0, k)) for k in (m, n))
        cost = rng.uniform(0.0, 100.0, m * n)
    if not (np.any(supply) and np.any(demand)):
        supply, demand = supply + 1.0, demand + 1.0
    return _table(supply, demand, cost)


def _check_against_the_oracle(table):
    rows, costs, nu0, nuT = table
    flow, objective = transport_lp(rows, costs, nu0, nuT)
    oracle = lp_ot(PathSpace(horizon=1, n=nu0.size, array=rows), costs, nu0, nuT)
    assert flow.min() >= 0.0
    assert objective == costs @ flow
    # where the optimum is 0, the oracle's round-off leaves flows near 1e-16
    # on cells that cost 1-3; a zero floor of 1e-15 absorbs those
    assert objective == pytest.approx(oracle.objective, rel=1e-12, abs=1e-15)
    for end, law in ((rows[:, 0], nu0), (rows[:, -1], nuT)):
        assert np.abs(np.bincount(end - 1, flow, nu0.size) - law).max() <= 1e-12
    # a zero-mass start or end carries no flow
    assert not flow[(nu0[rows[:, 0] - 1] == 0) | (nuT[rows[:, -1] - 1] == 0)].any()


@settings(max_examples=300, deadline=None)
@given(tables())
# the oracle once left 5.6e-17 of flow on the row 5>7, whose start has no mass
@example(_table([0, 0, 0, 2, 0, 1], [3, 0], [0] * 8 + [19] + [0] * 3))
def test_transport_lp_reaches_the_dense_oracles_optimum(table):
    _check_against_the_oracle(table)


def test_transport_lp_reaches_the_dense_oracles_optimum_on_3000_seeded_tables():
    rng = np.random.default_rng(16)
    for _ in range(3000):
        _check_against_the_oracle(_seeded_table(rng))


def test_transport_lp_pivots_through_degenerate_bases_to_the_oracles_vertex():
    # the quarter masses tie partial sums: the first and third of the four
    # pivots move theta = 0, so the second and fourth enter by Bland's rule
    rows, costs, nu0, nuT = _table([1, 2, 1], [1, 2, 1],
                                   [0, 3, 0, 1, 1, 0, 1, 3, 0])
    flow, objective = transport_lp(rows, costs, nu0, nuT)
    oracle = lp_ot(PathSpace(horizon=1, n=6, array=rows), costs, nu0, nuT)
    assert flow.tolist() == [0.25, 0, 0, 0, 0.5, 0, 0, 0, 0.25]
    assert flow.tolist() == oracle.probabilities.tolist()
    assert objective == oracle.objective == 0.5


def test_transport_lp_refuses_a_table_without_a_positive_pair():
    rows = np.array([[1, 3], [2, 4]])
    nu0, nuT = np.array([0.5, 0.5, 0, 0]), np.array([0, 0, 0.5, 0.5])
    with pytest.raises(InfeasibleError, match="start node 1 to end node 4"):
        transport_lp(rows, np.ones(2), nu0, nuT)
    # a pair whose start carries no mass needs no row
    flow, objective = transport_lp(rows[1:], np.ones(1), np.array([0, 1.0, 0, 0]),
                                   np.array([0, 0, 0, 1.0]))
    assert flow.tolist() == [1.0] and objective == 1.0


def test_transport_lp_refuses_non_finite_costs_and_unbalanced_masses():
    rows = np.array([[1, 2]])
    with pytest.raises(ValidationError, match="finite"):
        transport_lp(rows, np.array([np.nan]), np.array([1.0, 0]), np.array([0, 1.0]))
    with pytest.raises(InfeasibleError, match="positive and equal"):
        transport_lp(rows, np.ones(1), np.array([1.0, 0]), np.array([0, 0.5]))
