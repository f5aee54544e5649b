"""Round trips and validation for every on-disk format."""

import json
import os
from dataclasses import replace

import numpy as np
import pytest

from iotnet import (
    ValidationError,
    load_marginal,
    load_network,
    load_path_distribution,
    load_prior,
    load_step_weights,
    path_costs,
    read_plan,
    save_network,
    save_path_distribution,
    solve_iot,
    write_plan,
)
from iotnet import fixtures
from iotnet.bridge import MarkovPrior, PathPrior
from iotnet.fileio import (
    PLAN_PROB_FLOOR,
    atomic_write_text,
    fmt,
    format_path,
    parse_path,
    plan_to_text,
    vector_from_obj,
)

from helpers import uniform_problem


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_fmt_round_trips_exactly():
    for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789, 2.0 ** -52):
        assert float(fmt(x)) == x


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "deep" / "dir" / "file.txt"
    atomic_write_text(str(target), "one\n")
    atomic_write_text(str(target), "two\n")
    assert target.read_text() == "two\n"
    assert os.listdir(target.parent) == ["file.txt"]


def test_path_string_round_trip():
    p = (4, 12, 12, 7)
    assert parse_path(format_path(p)) == p
    with pytest.raises(ValidationError):
        parse_path("1>x>3")


def test_vector_from_obj_accepts_list_and_map():
    a = vector_from_obj([0.25, 0.75, 0.0], 3, "test")
    b = vector_from_obj({"1": 0.25, "2": 0.75}, 3, "test")
    assert np.allclose(a, b, atol=1e-15)
    with pytest.raises(ValidationError):
        vector_from_obj([0.5, 0.4], 3, "test")
    with pytest.raises(ValidationError):
        vector_from_obj({"9": 1.0}, 3, "test")
    with pytest.raises(ValidationError):
        vector_from_obj([0.9, 0.3, -0.2], 3, "test")
    with pytest.raises(ValidationError):
        vector_from_obj([0.5, 0.4, 0.0], 3, "test")  # sums to 0.9


def test_load_marginal(tmp_path):
    f = tmp_path / "nu.json"
    f.write_text(json.dumps({"1": 0.5, "3": 0.5}))
    v = load_marginal(str(f), 3)
    assert np.allclose(v, [0.5, 0.0, 0.5], atol=1e-15)


# ---------------------------------------------------------------------------
# path distributions
# ---------------------------------------------------------------------------


def test_path_distribution_round_trip(tmp_path):
    table = {(1, 2, 3): 0.5, (1, 1, 2): 0.25, (2, 3, 3): 0.25}
    f = tmp_path / "q.json"
    save_path_distribution(str(f), 2, table)
    horizon, loaded = load_path_distribution(str(f))
    assert horizon == 2
    assert loaded == table


def test_path_distribution_validation(tmp_path):
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"horizon": 2,
                             "entries": [{"path": [1, 2], "prob": 1.0}]}))
    with pytest.raises(ValidationError):
        load_path_distribution(str(f))
    f.write_text(json.dumps({"horizon": 1, "entries": [
        {"path": [1, 2], "prob": 0.5}, {"path": [1, 2], "prob": 0.5}]}))
    with pytest.raises(ValidationError):
        load_path_distribution(str(f))


# ---------------------------------------------------------------------------
# step-weight files
# ---------------------------------------------------------------------------


def test_step_weights_dense_form(tmp_path, tiny):
    f = tmp_path / "rq.json"
    mat = [[0.1, 0.2, 0.3], [0.4, 0.5, 0.6], [0.7, 0.8, 0.9]]
    f.write_text(json.dumps({"matrix": mat, "initial": [0.2, 0.3, 0.5]}))
    initial, loaded = load_step_weights(str(f), tiny.network)
    assert np.allclose(loaded, mat, atol=1e-15)
    assert np.allclose(initial, [0.2, 0.3, 0.5], atol=1e-15)


def test_step_weights_sparse_form(tmp_path, tiny):
    f = tmp_path / "rq.json"
    f.write_text(json.dumps({"default": 1.0, "entries": [[1, 2, 100.0]]}))
    initial, mat = load_step_weights(str(f), tiny.network)
    assert initial is None
    assert mat[0, 1] == 100.0
    assert mat[1, 0] == 1.0


def test_step_weights_reject_off_edge_mass(tmp_path):
    net, _ = fixtures.four_node_fixture()
    f = tmp_path / "rq.json"
    f.write_text(json.dumps({"default": 1.0, "entries": [[2, 1, 5.0]]}))
    with pytest.raises(ValidationError):
        load_step_weights(str(f), net)         # (2,1) is not an edge there
    f.write_text(json.dumps({"matrix": np.ones((4, 4)).tolist()}))
    with pytest.raises(ValidationError):
        load_step_weights(str(f), net)


# ---------------------------------------------------------------------------
# prior files
# ---------------------------------------------------------------------------


def test_markov_prior_file(tmp_path):
    f = tmp_path / "prior.json"
    f.write_text(json.dumps({"type": "markov", "initial": [0.5, 0.5],
                             "matrix": [[0.2, 0.8], [0.6, 0.4]]}))
    prior = load_prior(str(f))
    assert isinstance(prior, MarkovPrior)
    assert prior.n == 2


def test_path_prior_file_sorts_paths(tmp_path):
    f = tmp_path / "prior.json"
    f.write_text(json.dumps({"type": "paths", "horizon": 1, "n": 3,
                             "paths": [[2, 1], [1, 2]], "weights": [0.3, 0.7]}))
    prior = load_prior(str(f))
    assert isinstance(prior, PathPrior)
    assert prior.path_space.paths == ((1, 2), (2, 1))
    assert np.allclose(prior.weights, [0.7, 0.3], atol=1e-15)


def test_prior_file_validation(tmp_path):
    f = tmp_path / "prior.json"
    f.write_text(json.dumps({"type": "mystery"}))
    with pytest.raises(ValidationError):
        load_prior(str(f))
    f.write_text(json.dumps({"type": "paths", "horizon": 1,
                             "paths": [[1, 2], [1, 2]], "weights": [1.0, 1.0]}))
    with pytest.raises(ValidationError):
        load_prior(str(f))


# ---------------------------------------------------------------------------
# plan files
# ---------------------------------------------------------------------------


def test_plan_round_trip(tmp_path, tiny):
    plan = solve_iot(uniform_problem(tiny, 0.8))
    f = tmp_path / "plan.txt"
    write_plan(str(f), plan)
    doc = read_plan(str(f))
    assert doc["meta"]["horizon"] == "2"
    assert float(doc["meta"]["alpha"]) == 0.8
    assert doc["objective"]["total"] == pytest.approx(plan.objective.total,
                                                      abs=1e-15)
    recovered = sum(prob for prob, _cost in doc["paths"].values())
    assert recovered == pytest.approx(1.0, abs=1e-9)
    for p, (prob, cost) in doc["paths"].items():
        k = tiny.space.index[p]
        assert prob == pytest.approx(float(plan.path_law[k]), abs=1e-15)
        assert cost == pytest.approx(float(plan.path_costs[k]), abs=1e-15)


def test_plan_text_is_deterministic(tmp_path, tiny):
    plan = solve_iot(uniform_problem(tiny, 0.8))
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    write_plan(str(a), plan)
    write_plan(str(b), solve_iot(uniform_problem(tiny, 0.8)))
    assert a.read_bytes() == b.read_bytes()


def test_plan_paths_section_keeps_rows_at_or_above_the_floor(tiny):
    plan = solve_iot(uniform_problem(tiny, 0.8))
    law = plan.path_law.copy()
    law[:3] = [PLAN_PROB_FLOOR, np.nextafter(PLAN_PROB_FLOOR, 0.0), 0.0]
    text = plan_to_text(replace(plan, path_law=law))
    section = text.split("[paths]\n")[1].split("[edge_usage]")[0]
    # the per-path loop the array rows replaced
    expected = "".join(
        f"{format_path(p)}\t{fmt(float(law[k]))}\t{fmt(plan.path_costs[k])}\n"
        for k, p in enumerate(tiny.space.paths) if float(law[k]) >= PLAN_PROB_FLOOR)
    assert section == expected
    assert section.startswith(format_path(tiny.space.paths[0]) + "\t")


def test_plan_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        read_plan("/nonexistent/plan.txt")
    from iotnet.fileio import parse_plan_text
    with pytest.raises(ValidationError):
        parse_plan_text("[paths]\n1>2\tnot_a_number\t1.0\n")
    with pytest.raises(ValidationError):
        parse_plan_text("[meta]\nhorizon\t2\n")   # no paths section


# ---------------------------------------------------------------------------
# network files
# ---------------------------------------------------------------------------


def test_network_file_round_trip(tmp_path, synth30):
    fx = synth30["fx"]
    f = tmp_path / "net.json"
    save_network(fx.network, str(f), ruled=fx.ruled)
    net2, model2 = load_network(str(f))
    assert net2.n == fx.network.n
    space = synth30["space"]
    ref = synth30["costs"]
    got = path_costs(space, model2, net2)
    assert np.max(np.abs(got - ref)) < 1e-12
