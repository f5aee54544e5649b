"""Round trips and validation for every on-disk format."""

import dataclasses
import decimal
import gc
import json
import math
import os
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotnet import (
    ImitationTarget,
    ValidationError,
    load_marginal,
    load_network,
    load_path_distribution,
    load_prior,
    load_scenario,
    load_step_weights,
    path_costs,
    plan_from_law,
    read_plan,
    save_network,
    save_path_distribution,
    solve_iot,
    write_plan,
)
from iotnet import fixtures
from iotnet.bridge import MarkovPrior, PathPrior
from iotnet.cli import main
from iotnet.fileio import (
    PLAN_PROB_FLOOR,
    _plan_columns,
    _plan_lines,
    _read_json,
    atomic_write_text,
    float_texts,
    fmt,
    format_path,
    parse_plan_text,
    path_strings,
    plan_to_text,
    vector_from_obj,
)

from helpers import edge_pairs, has_edge, uniform_problem, usage_dict_loop


# ---------------------------------------------------------------------------
# primitives
# ---------------------------------------------------------------------------


def test_fmt_round_trips_exactly():
    for x in (0.1, 1.0 / 3.0, 1e-300, 123456.789, 2.0 ** -52):
        assert float(fmt(x)) == x


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_subnormal=True), max_size=40))
@example([0.0, -0.0, 5e-324, -5e-324, math.nan, math.inf, -math.inf])
@example([1e-5, 9.999999999999999e-05, 1e-4, 1e16, 1e-7, 1.5e-10, 1.7976931348623157e308])
def test_float_texts_are_repr(values):
    assert float_texts(np.array(values, dtype=float)) == list(map(repr, values))
    assert float_texts(values) == list(map(repr, values))


def test_float_texts_are_repr_at_every_scale():
    rng = np.random.default_rng(20231)
    bits = rng.integers(0, 2 ** 64, 1_000_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)]
    twos = np.ldexp(1.0, np.arange(-1074, 1024))
    tens = np.array([float(f"1e{k}") for k in range(-323, 309)])
    for array in (values, twos, -twos, tens, np.nextafter(tens, 0.0),
                  np.nextafter(tens, np.inf), -tens):
        assert float_texts(array) == list(map(repr, array.tolist()))


def test_atomic_write_creates_parents_and_replaces(tmp_path):
    target = tmp_path / "deep" / "dir" / "file.txt"
    atomic_write_text(str(target), "one\n")
    atomic_write_text(str(target), "two\n")
    assert target.read_text() == "two\n"
    assert os.listdir(target.parent) == ["file.txt"]


def test_path_string_round_trip():
    p = (4, 12, 12, 7)
    rows = parse_plan_text(f"[paths]\n{format_path(p)}\t1.0\t0.0\n")["paths"][0]
    assert tuple(rows[0].tolist()) == p
    with pytest.raises(ValidationError, match="bad path string '1>x>3'"):
        parse_plan_text("[paths]\n1>x>3\t1.0\t0.0\n")


def test_vector_from_obj_accepts_list_and_map():
    a = vector_from_obj([0.25, 0.75, 0.0], 3)
    b = vector_from_obj({"1": 0.25, "2": 0.75}, 3)
    assert np.allclose(a, b, atol=1e-15)
    with pytest.raises(ValidationError):
        vector_from_obj([0.5, 0.4], 3)
    with pytest.raises(ValidationError):
        vector_from_obj({"9": 1.0}, 3)
    with pytest.raises(ValidationError):
        vector_from_obj([0.9, 0.3, -0.2], 3)
    with pytest.raises(ValidationError):
        vector_from_obj([0.5, 0.4, 0.0], 3)  # sums to 0.9


def test_load_marginal(tmp_path):
    f = tmp_path / "nu.json"
    f.write_text(json.dumps({"1": 0.5, "3": 0.5}))
    v = load_marginal(str(f), 3)
    assert np.allclose(v, [0.5, 0.0, 0.5], atol=1e-15)


@pytest.mark.parametrize("collecting", [True, False])
def test_read_json_leaves_the_collector_as_it_found_it(tmp_path, collecting):
    good, bad = tmp_path / "good.json", tmp_path / "bad.json"
    good.write_text('{"a": [1, 2]}')
    bad.write_text('{"a": [1, 2')
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        assert _read_json(str(good)) == {"a": [1, 2]}
        assert gc.isenabled() is collecting
        for path in (bad, tmp_path / "missing.json"):
            with pytest.raises(ValidationError):
                _read_json(str(path))
            assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()


_Q_TEXT = '{"horizon": 1, "entries": [{"path": [1, 2], "prob": 1.0}]%s}'


@pytest.mark.parametrize("collecting", [True, False])
@pytest.mark.parametrize("data, outcome", [
    ((_Q_TEXT % "").encode(), "ok"),
    # orjson refuses a lone surrogate, json reads it: the file reads
    ((_Q_TEXT % ', "note": "\\ud800"').encode(), "ok"),
    # orjson refuses NaN, json reads it: the reader refuses the file
    (_Q_TEXT.replace("1.0", "NaN").encode() % b"", "non-finite prob on (1, 2)"),
    # both decoders read it, and the reader refuses it
    (_Q_TEXT.replace("1.0", "-1.0").encode() % b"", "negative prob on (1, 2)"),
    # both decoders refuse it: a UTF-16 byte-order mark starts no UTF-8 text
    (b"\xff\xfe" + (_Q_TEXT % "").encode("utf-16-le"),
     "not UTF-8 text: invalid start byte at byte 0"),
], ids=["accepted", "orjson-refuses", "nan", "negative", "not-utf8"])
def test_q_files_leave_the_collector_as_they_found_it(tmp_path, collecting, data,
                                                      outcome):
    f = tmp_path / "q.json"
    f.write_bytes(data)
    was = gc.isenabled()
    try:
        gc.enable() if collecting else gc.disable()
        if outcome == "ok":
            horizon, rows, probs = load_path_distribution(str(f))
            assert (horizon, rows.tolist(), probs.tolist()) == (1, [[1, 2]], [1.0])
        else:
            with pytest.raises(ValidationError) as err:
                load_path_distribution(str(f))
            assert str(err.value) == f"path distribution {f}: {outcome}"
        assert gc.isenabled() is collecting
    finally:
        gc.enable() if was else gc.disable()


# ---------------------------------------------------------------------------
# path distributions
# ---------------------------------------------------------------------------


def test_path_distribution_round_trip(tmp_path):
    table = {(1, 2, 3): 0.5, (1, 1, 2): 0.25, (2, 3, 3): 0.25}
    f = tmp_path / "q.json"
    save_path_distribution(str(f), 2, table)
    horizon, rows, probs = load_path_distribution(str(f))
    assert horizon == 2
    assert dict(zip(map(tuple, rows.tolist()), probs.tolist())) == table


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
    # a fractional horizon is refused, not truncated to fit the paths
    f.write_text(json.dumps({"horizon": 1.5,
                             "entries": [{"path": [1, 2], "prob": 1.0}]}))
    with pytest.raises(ValidationError, match="1.5 is not a whole number"):
        load_path_distribution(str(f))
    # so is a fractional node id, as that entry's fault, in file order
    entries = [{"path": [1, 2], "prob": 0.5}, {"path": [1.5, 2], "prob": 0.5},
               {"path": [1, 2], "prob": 0.5}]
    f.write_text(json.dumps({"horizon": 1, "entries": entries}))
    with pytest.raises(ValidationError) as err:
        load_path_distribution(str(f))
    assert str(err.value) == f"path distribution {f}: bad entry {entries[1]}"
    entries[2:] = []
    entries.insert(1, {"path": [1, 2], "prob": 0.5})     # an earlier duplicate
    f.write_text(json.dumps({"horizon": 1, "entries": entries}))
    with pytest.raises(ValidationError, match=r"duplicate path \(1, 2\)"):
        load_path_distribution(str(f))
    # an integral float stays accepted
    f.write_text(json.dumps({"horizon": 1, "entries": [
        {"path": [1.0, 2], "prob": 1.0}]}))
    horizon, rows, probs = load_path_distribution(str(f))
    assert rows.tolist() == [[1, 2]] and rows.dtype == np.int64


@pytest.mark.parametrize("doc, message", [
    ([{"horizon": 1, "entries": []}], "need keys 'horizon' and 'entries'"),
    (5, "need keys 'horizon' and 'entries'"),
    ({"horizon": 1}, "need keys 'horizon' and 'entries'"),
    ({"entries": [{"path": [1, 2], "prob": 1.0}]}, "need keys 'horizon' and 'entries'"),
    ({"horizon": 1, "entries": 5}, "'entries' must be a list"),
    ({"horizon": 1, "entries": {"path": [1, 2], "prob": 1.0}}, "'entries' must be a list"),
    ({"horizon": None, "entries": []}, "horizon is malformed: int() argument must be "
                                       "a string, a bytes-like object or a real "
                                       "number, not 'NoneType'"),
    ({"horizon": 1, "entries": []}, "no entries"),
], ids=["list", "number", "no-entries-key", "no-horizon-key", "entries-number",
        "entries-object", "horizon-null", "empty"])
def test_path_distribution_refuses_a_document_of_another_shape(tmp_path, doc, message):
    f = tmp_path / "q.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_path_distribution(str(f))
    assert str(err.value) == f"path distribution {f}: {message}"


@pytest.mark.parametrize("prob", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("ids", [[2, 1], [2.0, 1.0]], ids=["columns", "entries"])
def test_path_distribution_refuses_non_finite_probs(tmp_path, prob, ids):
    """JSON's ``NaN`` and ``Infinity`` parse as floats; the flat conversion
    (int ids) and the entry loop (integral float ids) both refuse them."""
    f = tmp_path / "q.json"
    f.write_text(json.dumps({"horizon": 1, "entries": [
        {"path": [1, 2], "prob": 0.5}, {"path": ids, "prob": prob}]}))
    with pytest.raises(ValidationError) as err:
        load_path_distribution(str(f))
    assert str(err.value) == f"path distribution {f}: non-finite prob on (2, 1)"


@pytest.mark.parametrize("table", [
    {},
    {(1, 2): 5e-324, (2, 1): 1e-300, (1, 1): 1.0, (2, 2): 3},
    {tuple(range(1, 41)): 0.5, (7,) * 40: 2.5e-17, (): 0.25},
], ids=["empty", "extremes", "long-paths"])
def test_path_distribution_writer_equals_the_indented_dump(tmp_path, table):
    f = tmp_path / "q.json"
    save_path_distribution(str(f), 39, table)
    entries = [{"path": list(p), "prob": float(v)} for p, v in sorted(table.items())]
    assert f.read_text() == json.dumps({"horizon": 39, "entries": entries},
                                       indent=2) + "\n"


@settings(max_examples=100, deadline=None)
@given(st.dictionaries(st.lists(st.integers(-2 ** 70, 2 ** 70), max_size=3).map(tuple),
                       st.floats(), max_size=12))
@example({(1, 2): 1.5e-05, (2, 1): 1e16, (1, 1): 2.5e-07, (2, 2): -0.0})
def test_path_distribution_writer_equals_the_indented_dump_at_every_scale(
        tmp_path_factory, table):
    """Probs are written as json writes them: repr's text, and NaN and
    Infinity where they are not finite."""
    f = tmp_path_factory.getbasetemp() / "q_dump.json"
    save_path_distribution(str(f), 2, table)
    entries = [{"path": list(p), "prob": float(v)} for p, v in sorted(table.items())]
    assert f.read_text() == json.dumps({"horizon": 2, "entries": entries},
                                       indent=2) + "\n"


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


def _reference_step_weights(path, network):
    """The per-pair loader the edge mask replaced: a default filled edge by
    edge and a ``has_edge`` call per nonzero weight.  Entry ids must be
    whole numbers, each pair listed once, and every weight finite."""
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    n = network.n
    if "matrix" in doc:
        mat = np.asarray(doc["matrix"], dtype=float)
    else:
        mat = np.zeros((n, n), dtype=float)
        for (i, j) in edge_pairs(network):
            mat[i - 1, j - 1] = float(doc.get("default", 1.0))
        named = set()
        for ent in doc.get("entries", []):
            try:
                if any(isinstance(v, (bool, str)) for v in ent[:3]):
                    raise TypeError("a boolean or a string is not a number")
                if any(isinstance(v, float) and not v.is_integer()
                       for v in ent[:2]):
                    raise ValueError("a node id must be a whole number")
                i, j, w = int(ent[0]), int(ent[1]), float(ent[2])
            except (TypeError, ValueError, IndexError) as exc:
                raise ValidationError(f"step weights {path}: bad entry {ent}") from exc
            if not has_edge(network, i, j):
                raise ValidationError(
                    f"step weights {path}: entry ({i},{j}) is not a network edge")
            if (i, j) in named:
                raise ValidationError(f"step weights {path}: pair ({i},{j}) is named twice")
            named.add((i, j))
            mat[i - 1, j - 1] = w
    for i, j in np.ndindex(mat.shape):
        if not math.isfinite(mat[i, j]):
            raise ValidationError(f"step weights {path}: non-finite weight "
                                  f"{mat[i, j]} at ({i + 1},{j + 1})")
    if np.any(mat < 0):
        raise ValidationError(f"step weights {path}: negative weight")
    off = [(i + 1, j + 1) for i, j in np.argwhere(mat).tolist()
           if not has_edge(network, i + 1, j + 1)]
    if off:
        raise ValidationError(
            f"step weights {path}: positive weight off the edge set, e.g. {off[:5]}")
    return mat


def _with_negative(matrix, at):
    if at is not None:
        matrix[at // 4][at % 4] = -1.0
    return {"matrix": matrix}


_WEIGHT = st.sampled_from([0.0, 0.0, 0.5, 2.0, -1.0, float("nan")])
_STEP_DOCS = st.one_of(
    st.builds(_with_negative,
              st.lists(st.lists(st.sampled_from([0.0, 0.0, 0.5, 2.0, float("nan")]),
                                min_size=4, max_size=4), min_size=4, max_size=4),
              st.none() | st.integers(0, 15)),
    st.builds(lambda d, e: {"default": d, "entries": e},
              st.sampled_from([0.0, 1.0, 3.5]),
              st.lists(st.one_of(
                  st.tuples(st.integers(0, 5), st.integers(0, 5),
                            _WEIGHT).map(list),
                  st.sampled_from([[1], ["x", 2, 1.0], [1, 2, None],
                                   [1.5, 2, 1.0], [1, 2.0, 1.0], [True, 2, 1.0],
                                   [1, 2, False]])),
                  max_size=5)),
)


@settings(max_examples=200, deadline=None)
@given(_STEP_DOCS)
def test_step_weight_checks_match_the_per_pair_loop(tmp_path_factory, doc):
    net, _ = fixtures.four_node_fixture()
    f = tmp_path_factory.getbasetemp() / "rq_reference.json"
    f.write_text(json.dumps(doc))
    want = _outcome(_reference_step_weights, str(f), net)
    got = _outcome(load_step_weights, str(f), net)
    if got[0] == "ok":
        got = ("ok", got[1][1])
    assert got[0] == want[0]
    if got[0] == "ok":
        assert np.array_equal(got[1], want[1], equal_nan=True)
    else:
        assert got[1] == want[1]


def test_step_weights_reject_off_edge_mass(tmp_path):
    net, _ = fixtures.four_node_fixture()
    f = tmp_path / "rq.json"
    f.write_text(json.dumps({"default": 1.0, "entries": [[2, 1, 5.0]]}))
    with pytest.raises(ValidationError):
        load_step_weights(str(f), net)         # (2,1) is not an edge there
    f.write_text(json.dumps({"matrix": np.ones((4, 4)).tolist()}))
    with pytest.raises(ValidationError, match=r"e\.g\. \[\(1, 4\), "):
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
    assert np.array_equal(prior.log_weights, np.log([0.7, 0.3]))


def test_prior_file_validation(tmp_path):
    f = tmp_path / "prior.json"
    f.write_text(json.dumps({"type": "mystery"}))
    with pytest.raises(ValidationError):
        load_prior(str(f))
    f.write_text(json.dumps({"type": "paths", "horizon": 1,
                             "paths": [[1, 2], [1, 2]], "weights": [1.0, 1.0]}))
    with pytest.raises(ValidationError):
        load_prior(str(f))
    f.write_text(json.dumps({"type": "paths", "horizon": 1.5, "n": 2,
                             "paths": [[1, 2]], "weights": [1.0]}))
    with pytest.raises(ValidationError, match="1.5 is not a whole number"):
        load_prior(str(f))
    # so is a fractional node id, which used to load truncated
    f.write_text(json.dumps({"type": "paths", "horizon": 1, "n": 2,
                             "paths": [[1.7, 2]], "weights": [1.0]}))
    with pytest.raises(ValidationError) as err:
        load_prior(str(f))
    assert str(err.value) == f"prior {f}: bad path prior: 1.7 is not a whole number"
    f.write_text(json.dumps({"type": "paths", "horizon": 1, "n": 2,
                             "paths": [[1.0, 2.0]], "weights": [1.0]}))
    assert load_prior(str(f)).path_space.paths == ((1, 2),)


@pytest.mark.parametrize("doc, message", [
    ({"type": "markov", "initial": [0.3, 0.3], "matrix": [[0.5, 0.5], [0.5, 0.5]]},
     "prior initial law sums to 0.6, expected 1"),
    ({"type": "markov", "initial": [0.5, 0.5], "matrix": [[1.5, -0.5], [0.5, 0.5]]},
     "step matrices must be nonnegative and finite"),
    ({"type": "paths", "horizon": 1, "n": 2, "paths": [[1, 2], [2, 1]],
      "weights": [1.0, -1.0]}, "path weights must be nonnegative and finite"),
    ({"type": "markov", "initial": [0.5, 0.5], "matrix": [[[1.0, 1.0], [1.0, 1.0]]]},
     "matrix is malformed: 3 axes, expected 2"),
    ({"type": "markov", "initial": [0.5, 0.5], "matrices": [[1.0, 1.0], [1.0, 1.0]]},
     "matrices is malformed: 2 axes, expected 3"),
    ({"type": "markov", "initial": [0.5, 0.5], "matrix": [[1.0] * 3] * 3},
     "step matrix shape (3, 3), expected (2, 2)"),
], ids=["initial-sum", "negative-cell", "negative-weight", "matrix-axes",
        "matrices-axes", "matrix-size"])
def test_prior_validation_errors_name_the_file(tmp_path, doc, message):
    f = tmp_path / "prior.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_prior(str(f))
    assert str(err.value) == f"prior {f}: {message}"


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
    rows, probs, costs = doc["paths"]
    recovered = sum(probs.tolist())
    assert recovered == pytest.approx(1.0, abs=1e-9)
    for p, prob, cost in zip(map(tuple, rows.tolist()), probs, costs):
        k = tiny.space.paths.index(p)
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
    text = plan_to_text(plan_from_law(plan.problem, law, plan.bridge))
    section = text.split("[paths]\n")[1].split("[edge_usage]")[0]
    # the per-path loop the array rows replaced
    expected = "".join(
        f"{format_path(p)}\t{fmt(float(law[k]))}\t{fmt(plan.path_costs[k])}\n"
        for k, p in enumerate(tiny.space.paths) if float(law[k]) >= PLAN_PROB_FLOOR)
    assert section == expected
    assert section.startswith(format_path(tiny.space.paths[0]) + "\t")


@pytest.mark.parametrize("alpha", [0.8, 0.01])
def test_plan_edge_usage_section_equals_the_dict_era_writer(tiny, alpha):
    plan = solve_iot(uniform_problem(tiny, alpha))
    usage = usage_dict_loop(tiny.space, plan.path_law)
    lines = ["[edge_usage]", "t\tfrom\tto\tmass"]
    lines += [f"{t}\t{i}\t{j}\t{fmt(mass)}" for (t, i, j), mass in usage.items()
              if mass >= PLAN_PROB_FLOOR]
    text = plan_to_text(plan)
    assert text[text.index("[edge_usage]\n"):] == "\n".join(lines) + "\n"


def test_plan_parse_rejects_garbage():
    with pytest.raises(ValidationError):
        read_plan("/nonexistent/plan.txt")
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


def _two_node_doc():
    return {"nodes": [{"id": 1, "x_km": 0.0, "y_km": 0.0},
                      {"id": 2, "x_km": 3.0, "y_km": 4.0}],
            "edges": [{"from": 1, "to": 2, "kind": "local", "length_km": 5.0},
                      {"from": 1, "to": 2, "kind": "highway", "length_km": 6.0},
                      {"from": 2, "to": 1, "kind": "local"}]}


@pytest.mark.parametrize("where, key, value, match", [
    ("edges", "length_km", math.nan, r"edge \(1,2\) highway has length nan, not"),
    ("edges", "length_km", math.inf, r"edge \(1,2\) highway has length inf, not"),
    ("nodes", "x_km", math.nan, r"node 2 has non-finite position"),
    ("nodes", "y_km", -math.inf, r"node 2 has non-finite position"),
])
def test_network_file_rejects_non_finite_geometry(tmp_path, where, key, value,
                                                  match):
    doc = _two_node_doc()
    doc[where][1][key] = value
    f = tmp_path / "net.json"
    f.write_text(json.dumps(doc))          # writes the NaN / Infinity tokens
    name = re.escape(str(f))
    with pytest.raises(ValidationError, match=f"network file {name}: {match}"):
        load_network(str(f))


@pytest.mark.parametrize("where, key, value", [
    ("edges", "from", 1.9), ("edges", "from", True), ("edges", "to", 2.5),
    ("nodes", "id", 2.5), ("nodes", "id", False),
])
def test_network_file_rejects_node_ids_that_are_no_whole_numbers(
        tmp_path, where, key, value):
    doc = _two_node_doc()
    doc[where][1][key] = value
    f = tmp_path / "net.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=rf"{where}\[1\]\.{key} is malformed"):
        load_network(str(f))
    doc[where][1][key] = float(_two_node_doc()[where][1][key])
    f.write_text(json.dumps(doc))          # an integral float is still an id
    assert load_network(str(f))[0].n == 2


@pytest.mark.parametrize("rule", ["maritime_multiplier", "storage_cost_km",
                                  "switch_penalty_km"])
def test_network_file_rejects_non_finite_cost_rules(tmp_path, rule):
    doc = dict(_two_node_doc(), cost_rules={rule: math.inf})
    f = tmp_path / "net.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ValidationError, match=f"{rule} must be nonnegative "
                                              "and finite"):
        load_network(str(f))


@pytest.mark.parametrize("entry", [[1.7, 2, 3.0], [1, True, 3.0], [1, 2, True]])
def test_step_weight_entries_refuse_ids_and_weights_that_are_no_numbers(
        tmp_path, entry):
    net, _ = fixtures.four_node_fixture()
    f = tmp_path / "rq.json"
    f.write_text(json.dumps({"default": 1.0, "entries": [entry]}))
    with pytest.raises(ValidationError, match=f"{re.escape(str(f))}: bad entry"):
        load_step_weights(str(f), net)


@pytest.mark.parametrize("doc, message", [
    ({"default": math.nan}, "nan at (1,1)"),
    ({"default": 1.0, "entries": [[1, 2, math.inf]]}, "inf at (1,2)"),
    ({"matrix": [[0.0, 0.0, -math.inf, 0.0]] + [[0.0] * 4] * 3}, "-inf at (1,3)"),
])
def test_step_weights_refuse_non_finite_weights(tmp_path, doc, message):
    net, _ = fixtures.four_node_fixture()
    f = tmp_path / "rq.json"
    f.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        load_step_weights(str(f), net)
    assert str(err.value) == f"step weights {f}: non-finite weight {message}"


# ---------------------------------------------------------------------------
# error texts of the path-table readers, against the per-entry loops they
# replaced (kept here as the reference)
# ---------------------------------------------------------------------------


def _reference_number(v):
    """``float(v)``, refusing a boolean, which Python would read as 0 or 1,
    and a string, which JSON keeps apart from numbers."""
    if isinstance(v, (bool, str)):
        raise TypeError(f"{v!r} is not a number")
    return float(v)


def _reference_id(v):
    """``int(v)``, refusing what ``_reference_number`` refuses and a
    fractional float (not truncating it)."""
    if isinstance(v, (bool, str)):
        raise TypeError(f"{v!r} is not a number")
    if isinstance(v, float) and not v.is_integer():
        raise ValueError(f"{v!r} is not a whole number")
    return int(v)


def _reference_path_distribution(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        horizon = _reference_id(doc["horizon"])
    except (TypeError, ValueError) as exc:
        raise ValidationError(
            f"path distribution {path}: horizon is malformed: {exc}") from exc
    table = {}
    for ent in doc["entries"]:
        try:
            nodes = tuple(_reference_id(v) for v in ent["path"])
            prob = _reference_number(ent["prob"])
            # the node matrix is int64: a larger id does not parse, where the
            # loop this mirrors let it through to fail later as an unknown path
            if not all(-2**63 <= v < 2**63 for v in nodes):
                raise OverflowError
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            raise ValidationError(f"path distribution {path}: bad entry {ent}") from exc
        if len(nodes) != horizon + 1:
            raise ValidationError(
                f"path distribution {path}: path {nodes} has wrong length for "
                f"horizon {horizon}")
        if not math.isfinite(prob):
            raise ValidationError(f"path distribution {path}: non-finite prob on {nodes}")
        if prob < 0:
            raise ValidationError(f"path distribution {path}: negative prob on {nodes}")
        if nodes in table:
            raise ValidationError(f"path distribution {path}: duplicate path {nodes}")
        table[nodes] = prob
    if not table:
        raise ValidationError(f"path distribution {path}: no entries")
    return horizon, table


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except ValidationError as exc:
        return "error", str(exc)


_Q_ENTRIES = st.one_of(
    # usable entries over few ids, so that paths repeat
    st.builds(lambda p, q: {"path": list(p), "prob": q},
              st.tuples(*[st.integers(1, 2)] * 3), st.sampled_from([0.0, 0.25, 1.0])),
    st.builds(lambda p: {"path": list(p), "prob": 0.5},
              st.lists(st.integers(1, 2), min_size=2, max_size=4)),   # lengths
    st.builds(lambda p: {"path": list(p), "prob": -0.5},
              st.tuples(*[st.integers(1, 2)] * 3)),                   # negative
    st.sampled_from([
        {"path": [1, 2, 3]},                       # no prob
        {"prob": 0.5},                             # no path
        {"path": ["x", 1, 2], "prob": 0.5},
        {"path": [None, 1, 2], "prob": 0.5},
        {"path": 5, "prob": 0.5},
        {"path": [[1], [2], [3]], "prob": 0.5},
        {"path": [1, 2, 3], "prob": None},
        {"path": [1, 2, 3], "prob": [0.5]},
        [1, 2, 3],
        "entry",
        {"path": "121", "prob": 0.5},              # a string is no path
        {"path": [1, 2**63, 2], "prob": 0.5},      # ids beyond int64
        {"path": [-2**63 - 1, 1, 2], "prob": 0.5},
        {"path": [1, 2, 1e20], "prob": 0.5},
        {"path": [2**64, 1], "prob": 0.5},         # ... and the wrong length
        {"path": [-2**63, 2**63 - 1, 1], "prob": 0.5},   # the int64 extremes
        {"path": [1, 2, float("inf")], "prob": 0.5},
        {"path": ["2", 1.0, True], "prob": "0.5"},  # a boolean id
        {"path": [1, 2, 1], "prob": True},         # a boolean prob
        {"path": [1, 2, 1], "prob": math.nan},     # JSON's NaN and Infinity
        {"path": [2, 1, 1], "prob": math.inf},
        {"path": [2, 2, 1], "prob": -math.inf},
        {"path": [1, 1.5, 2], "prob": 0.5},        # a fractional id
        {"path": [2.0, 1.0, 2.0], "prob": 0.5},    # integral floats read
        {"path": [], "prob": 0.5},                 # fits horizon -1
        # probs where orjson and json could differ: big ints (orjson makes the
        # first a float and refuses the second), the float extremes, -0.0, and
        # a decimal that underflows to 0.0 (written as text, see _q_text)
        {"path": [1, 2, 2], "prob": 2**64},
        {"path": [1, 2, 2], "prob": 10**400},
        {"path": [2, 1, 2], "prob": 5e-324},
        {"path": [2, 2, 2], "prob": 1.7976931348623157e308},
        {"path": [1, 1, 1], "prob": -0.0},
        {"path": [2, 1, 1], "prob": "<1e-400>"},
    ]),
)

# horizons where orjson and json differ (2**64 and 10**30 orjson reads as
# floats), or that the reader refuses (true) or reads as a whole number (2.0)
_Q_HORIZONS = st.one_of(st.just(2), st.sampled_from([2**64, 10**30, 2.0, True, -1]))


def _q_text(horizon, entries):
    """The q-file text of ``entries``, with the string ``"<x>"`` written as the
    bare number ``x``."""
    return re.sub(r'"<([^"]*)>"', r"\1",
                  json.dumps({"horizon": horizon, "entries": entries}))


@settings(max_examples=400, deadline=None)
@given(entries=st.lists(_Q_ENTRIES, max_size=7), horizon=_Q_HORIZONS)
@example(entries=[{"path": [1, 2, 3], "prob": 1.0}], horizon=10**30)
def test_path_distribution_errors_name_the_same_entry(tmp_path_factory, entries,
                                                      horizon):
    f = tmp_path_factory.getbasetemp() / "q_errors.json"
    f.write_text(_q_text(horizon, entries))
    want = _outcome(_reference_path_distribution, str(f))
    got = _outcome(load_path_distribution, str(f))
    if want[0] == "ok" and got[0] == "ok":
        horizon, rows, probs = got[1]
        assert type(horizon) is int and rows.dtype == np.int64
        # float.hex keeps -0.0 apart from 0.0
        got = ("ok", (horizon, dict(zip(map(tuple, rows.tolist()),
                                        map(float.hex, probs.tolist())))))
        want = ("ok", (want[1][0], {p: v.hex() for p, v in want[1][1].items()}))
        assert list(got[1][1]) == list(want[1][1])          # file order
    assert got == want


@settings(max_examples=200, deadline=None)
@given(st.dictionaries(st.tuples(*[st.integers(-2**63, 2**63 - 1)] * 3),
                       st.floats(0, allow_infinity=False), min_size=1, max_size=12))
@example({(1, 2, 3): 5e-324, (1, 1, 1): 1.7976931348623157e308, (2, 2, 2): -0.0,
          (3, 2, 1): 2.0 ** 63, (3, 3, 3): 2.225073858507201e-308})
def test_written_q_files_read_back_bit_for_bit(tmp_path_factory, table):
    f = tmp_path_factory.getbasetemp() / "q_round_trip.json"
    save_path_distribution(str(f), 2, table)
    horizon, rows, probs = load_path_distribution(str(f))
    paths = sorted(table)
    assert horizon == 2 and rows.tolist() == [list(p) for p in paths]
    assert probs.view(np.uint64).tolist() == (
        np.array([table[p] for p in paths]).view(np.uint64).tolist())


def _reference_path_prior(path):
    with open(path, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        horizon = int(doc["horizon"])
        paths = tuple(tuple(_reference_id(v) for v in p) for p in doc["paths"])
        weights = np.array([_reference_number(w) for w in doc["weights"]])
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"prior {path}: bad path prior: {exc}") from exc
    if len(paths) != weights.shape[0]:
        raise ValidationError(
            f"prior {path}: {len(paths)} paths but {weights.shape[0]} weights")
    if len(set(paths)) != len(paths):
        raise ValidationError(f"prior {path}: duplicate paths")
    order = sorted(range(len(paths)), key=lambda k: paths[k])
    try:
        np.array(paths).reshape(len(paths), horizon + 1)
    except ValueError as exc:
        raise ValidationError(f"prior {path}: inconsistent path lengths") from exc
    return tuple(paths[k] for k in order), np.log(weights[order]).tolist()


@pytest.mark.parametrize("paths,weights", [
    ([[2, 1], [1, 2], [3, 3]], [0.3, 0.7, 0.1]),            # usable
    ([[1, 2], [2, 1]], [0.3, 0.7, 0.1]),                    # count
    ([[1, 2], [1, 2]], [0.5, 0.5]),                         # duplicate
    ([[1, 2], [1, 2, 3]], [0.5, 0.5]),                      # ragged
    ([[1, 2, 3], [2, 3, 1]], [0.5, 0.5]),                   # wrong width
    ([["x", 2]], [1.0]),                                    # not an id
    ([5, [1, 2]], [0.5, 0.5]),                              # not a path
    ([[1, 2], [1, 2]], [0.5, 0.5, 0.1]),                    # count + duplicate
    ([[1, 2], [1, 2], [1, 2, 3]], [0.2, 0.3, 0.5]),         # duplicate + ragged
    ([[1, 2, 3], [1, 2, 3]], [0.5, 0.5]),                   # duplicate + width
    ([[1, 2, 3], [1, 2], [1, 2]], [0.2, 0.3, 0.5]),         # ragged + duplicate
    ([[1, 2], [1, 2, 3], ["x"]], [0.2, 0.3, 0.5]),          # ragged + not an id
    ([[1, 2.5], [2, 1]], [0.5, 0.5]),                       # fractional id
    ([[1.0, 2.0], [2, 1]], [0.5, 0.5]),                     # integral floats
    ([[True, 2], [2, 1]], [0.5, 0.5]),                      # a boolean id
    ([[1, 2], [2, 1]], [0.5, True]),                        # a boolean weight
])
def test_path_prior_errors_match_the_reference(tmp_path, paths, weights):
    f = tmp_path / "prior.json"
    f.write_text(json.dumps({"type": "paths", "horizon": 1, "n": 3,
                             "paths": paths, "weights": weights}))
    want = _outcome(_reference_path_prior, str(f))
    got = _outcome(load_prior, str(f))
    if got[0] == "ok":
        got = ("ok", (got[1].path_space.paths, got[1].log_weights.tolist()))
    assert got == want


def _reference_parse_path(text):
    try:
        return tuple(int(tok) for tok in text.split(">"))
    except ValueError as exc:
        raise ValidationError(f"bad path string {text!r}") from exc


def _reference_plan_paths(text):
    section = None
    paths = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.rstrip("\n")
        if not line.strip():
            continue
        if line.startswith("["):
            section = line.strip()
            continue
        cols = line.split("\t")
        try:
            if section == "[meta]":
                cols[1]
            elif section == "[objective]":
                float(cols[1])
            elif section == "[paths]":
                paths[_reference_parse_path(cols[0])] = (float(cols[1]), float(cols[2]))
            elif section == "[edge_usage]":
                if cols[0] == "t":
                    continue
                (int(cols[0]), int(cols[1]), int(cols[2])), float(cols[3])
            else:
                raise ValidationError(f"line {lineno}: outside any known section")
        except (IndexError, ValueError) as exc:
            raise ValidationError(f"plan line {lineno} malformed: {line!r}") from exc
    if not paths:
        raise ValidationError("plan file has no [paths] entries")
    for p, (prob, cost) in paths.items():
        what = ("non-finite prob" if not math.isfinite(prob)
                else "negative prob" if prob < 0
                else None if math.isfinite(cost) else "non-finite cost")
        if what:
            raise ValidationError(f"plan file has a {what} on path {format_path(p)}")
    return {p: paths[p] for p in sorted(paths)}


_PLAN = ("[meta]\nhorizon\t2\n[objective]\ntotal\t1.5\n[paths]\n"
         "2>1>1\t0.25\t3.0\n1>2>3\t0.75\t1.0\n"
         "[edge_usage]\nt\tfrom\tto\tmass\n0\t1\t2\t0.75\n")


@pytest.mark.parametrize("edits", [
    [],
    [("total\t1.5", "total\tx")],                           # objective
    [("1>2>3\t0.75", "1>2>3")],                             # missing column
    [("0.25\t3.0", "0.25\tnan?")],                          # bad float
    [("1>2>3", "1>x>3")],                                   # bad path string
    [("[meta]\n", "stray\t1\n[meta]\n")],                   # outside a section
    [("0\t1\t2", "0\t1")],                                  # edge usage
    [("2>1>1\t0.25\t3.0\n1>2>3\t0.75\t1.0\n", "")],         # no paths
    [("1>2>3", "1>x>3"), ("0\t1\t2", "0\t1")],              # path, then usage
    [("total\t1.5", "total\tx"), ("1>2>3", "1>x>3")],       # objective, then path
    [("1>2>3\t0.75\t1.0", "1>x>3\t0.75")],                  # floats before path
    [("0.75\t1.0", "0.75\tnan")],                           # non-finite cost
    [("0.25\t3.0", "0.25\t-inf"), ("0.75\t1.0", "nan\t1.0")],   # file order
    [("0.75\t1.0", "inf\t1.0")],                            # non-finite prob
    [("0.25\t3.0", "-0.25\t3.0")],                          # negative prob
    [("0.75\t1.0", "nan\t1.0"), ("0\t1\t2", "0\t1")],        # usage first
])
def test_plan_errors_match_the_reference(edits):
    text = _PLAN
    for old, new in edits:
        text = text.replace(old, new)
    want = _outcome(_reference_plan_paths, text)
    got = _outcome(parse_plan_text, text)
    if got[0] == "ok":
        rows, probs, costs = got[1]["paths"]
        got = ("ok", dict(zip(map(tuple, rows.tolist()),
                              zip(probs.tolist(), costs.tolist()))))
        assert list(got[1]) == list(want[1])                # lexicographic
    assert got == want


@pytest.mark.parametrize("old, new, what", [
    ("0.75\t1.0", "0.75\tnan", "non-finite cost"),
    ("0.75\t1.0", "0.75\tinf", "non-finite cost"),
    ("0.75\t1.0", "nan\t1.0", "non-finite prob"),
    ("0.75\t1.0", "inf\t1.0", "non-finite prob"),
    ("0.75\t1.0", "-0.75\t1.0", "negative prob"),
])
@pytest.mark.parametrize("layout", ["columns", "lines"])
def test_plans_refuse_non_finite_numbers_and_name_the_file(tmp_path, layout, old,
                                                           new, what):
    text = _PLAN.replace(old, new)
    if layout == "lines":   # without [edge_usage] only the line reader reads it
        text = text.partition("[edge_usage]")[0]
    assert (_plan_columns(text) is None) == (layout == "lines")
    f = tmp_path / "plan.txt"
    f.write_text(text)
    with pytest.raises(ValidationError) as err:
        read_plan(str(f))
    assert str(err.value) == f"plan {f}: plan file has a {what} on path 1>2>3"


def test_plan_rejects_a_path_listed_twice():
    text = _PLAN.replace("1>2>3\t0.75\t1.0\n", "1>2>3\t0.5\t1.0\n1>2>3\t0.25\t1.0\n")
    with pytest.raises(ValidationError, match="lists path 1>2>3 more than once"):
        parse_plan_text(text)


@pytest.mark.parametrize("path", ["1>2", f"1>{2**63}>3"])
def test_plan_rejects_paths_that_are_no_node_matrix(path):
    with pytest.raises(ValidationError,
                       match=r"plan \[paths\] need int64 ids and one length"):
        parse_plan_text(_PLAN.replace("1>2>3", path))


def _both_readers(text):
    """Outcomes of the column reader and of the line reader on ``text``, or
    None when the column reader passes the text on."""
    def outcome(reader):
        got = _outcome(reader, text)
        if got[0] == "ok":
            meta, objective, rows, probs, costs, usage = got[1]
            got = ("ok", (meta, objective, np.asarray(rows).tolist(),
                          probs, costs, usage))
        return got

    columns = _outcome(_plan_columns, text)
    if columns == ("ok", None):
        return None
    return outcome(_plan_columns), outcome(_plan_lines)


@settings(max_examples=25, deadline=None)
@given(alpha=st.floats(0.01, 50.0), beta=st.sampled_from([0.0, 0.5]))
def test_written_plans_read_by_columns_equal_the_reference(tiny, alpha, beta):
    problem = uniform_problem(tiny, alpha)
    if beta:
        law = np.arange(1.0, tiny.space.size + 1.0)
        problem = dataclasses.replace(problem, target=ImitationTarget.paths(
            tiny.space.array, law / law.sum(), blend=beta))
    text = plan_to_text(solve_iot(problem))
    columns, lines = _both_readers(text)
    assert columns == lines
    want = _reference_plan_paths(text)
    rows, probs, costs = parse_plan_text(text)["paths"]
    got = dict(zip(map(tuple, rows.tolist()), zip(probs.tolist(), costs.tolist())))
    assert list(got.items()) == list(want.items())


_HEADERS = ("[meta]", "[objective]", "[paths]", "[edge_usage]", "t\tfrom\tto\tmass")


@st.composite
def _corrupt_plans(draw):
    """``_PLAN`` with one line corrupted the way hand edits corrupt lines."""
    lines = _PLAN.split("\n")[:-1]
    k = draw(st.integers(0, len(lines) - 1), label="line")
    line = lines[k]
    cells = line.split("\t")
    kind = draw(st.sampled_from(["drop", "extra", ">>", "hop", "crlf", "break",
                                 "blank", "header", "lone"]), label="kind")
    if kind == "drop":
        del cells[draw(st.integers(0, len(cells) - 1))]
        lines[k] = "\t".join(cells)
    elif kind == "extra":
        cells.insert(draw(st.integers(0, len(cells))),
                     draw(st.sampled_from(["", "1", "0.5", "x", "1>2>3"])))
        lines[k] = "\t".join(cells)
    elif kind == ">>":
        at = draw(st.integers(0, len(line)))
        lines[k] = line[:at] + ">>" + line[at:]
    elif kind == "hop":                         # a longer path in one line
        cells[0] += "".join(f">{v}" for v in draw(st.lists(st.integers(1, 9),
                                                            min_size=1, max_size=2)))
        lines[k] = "\t".join(cells)
    elif kind == "crlf":
        lines[k] = line + "\r"
    elif kind == "break":                       # where str.splitlines() breaks
        at = draw(st.integers(0, len(line)))
        lines[k] = (line[:at] + draw(st.sampled_from(["\r", "\x0b", "\x1c", "\x85",
                                                      "\u2028"])) + line[at:])
    elif kind == "blank":
        lines.insert(k, draw(st.sampled_from(["", " ", "\t\t", "\x0c"])))
    elif kind == "header":
        lines.insert(k, draw(st.sampled_from(_HEADERS)))
    else:
        lines.remove("t\tfrom\tto\tmass")
    return "\n".join(lines) + "\n"


def _reference_plan_table(text):
    """``_reference_plan_paths``, then the one-length check of a node matrix."""
    paths = _reference_plan_paths(text)
    if len(set(map(len, paths))) > 1:
        raise ValidationError("plan [paths] need int64 ids and one length")
    return paths


@settings(max_examples=300, deadline=None)
@given(_corrupt_plans())
def test_corrupt_plans_fail_as_the_reference_loop_does(text):
    want = _outcome(_reference_plan_table, text)
    got = _outcome(parse_plan_text, text)
    if got[0] == "ok":
        rows, probs, costs = got[1]["paths"]
        got = ("ok", dict(zip(map(tuple, rows.tolist()),
                              zip(probs.tolist(), costs.tolist()))))
    assert got == want
    both = _both_readers(text)
    if both is not None:                       # read by columns
        assert both[0] == both[1]


# cells that JSON refuses, reads as the other type, or (beyond 64 bits) reads
# as a float: the column decoder must pass each on to int() or float()
_ODD_CELLS = ["-0", "01", "+1", ".5", "1.", "1_0", " 1.5", "1.5 ", "1E5", "nan",
              "Infinity", "-inf", "1e400", "-1e-400", "-0.0", str(2 ** 63),
              str(2 ** 64), str(-2 ** 63 - 1), "123456789012345678901234567890",
              "true", "null", '"1"', "[1]", "1,2", "", "0x10"]


def _halfway(x):
    """The exact decimal halfway between ``x`` and the next float up."""
    with decimal.localcontext() as ctx:
        ctx.prec = 1200
        low, high = decimal.Decimal(x), decimal.Decimal(math.nextafter(x, math.inf))
        return str(low + (high - low) / 2)


_FLOAT_CELLS = st.one_of(
    st.floats().map(repr),
    st.integers(-10 ** 30, 10 ** 30).map(str),
    st.builds("{}.{:040d}e{}".format, st.integers(0, 99),
              st.integers(0, 10 ** 40 - 1), st.integers(-345, 310)),
    st.floats(0, 1e308).map(_halfway),
    st.sampled_from(_ODD_CELLS))
_ID_CELLS = st.one_of(st.integers(1, 3).map(str), st.integers(-2 ** 64, 2 ** 64).map(str),
                      st.sampled_from(_ODD_CELLS))


@st.composite
def _drawn_plans(draw):
    """A plan in the writer's layout, with drawn cells in its number columns."""
    ids = st.one_of(st.integers(1, 9).map(str), _ID_CELLS)
    paths = [">".join(draw(ids) for _ in range(3)) for _ in range(draw(st.integers(1, 4)))]
    usage = [[draw(ids) for _ in range(3)] + [draw(_FLOAT_CELLS)]
             for _ in range(draw(st.integers(0, 3)))]
    return ("[meta]\nhorizon\t2\n[objective]\ntotal\t1.5\n[paths]\n"
            + "".join(f"{p}\t{draw(_FLOAT_CELLS)}\t{draw(_FLOAT_CELLS)}\n" for p in paths)
            + "[edge_usage]\nt\tfrom\tto\tmass\n"
            + "".join("\t".join(cells) + "\n" for cells in usage))


def _hexed(value):
    """``value`` with every float as ``float.hex``, so -0.0 and NaN compare."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, np.ndarray):
        return _hexed(value.tolist())
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_hexed(v) for v in value]
    return value


@settings(max_examples=500, deadline=None)
@given(_drawn_plans())
@example("[paths]\n1>2>3\t-0\t1e400\n[edge_usage]\nt\tfrom\tto\tmass\n")
@example("[paths]\n1>2>3\t123456789012345678901234567890\t1.0\n"
         "[edge_usage]\nt\tfrom\tto\tmass\n-0\t01\t1_0\t0.5\n")
def test_plan_columns_read_numbers_as_the_conversion_does(text):
    """orjson's reading of a column is kept only where it is int()'s or
    float()'s, bit for bit; every other text reads, or is refused, as the line
    reader reads or refuses it."""
    with mock.patch("iotnet.fileio._plan_columns", lambda text: None):
        want = _hexed(_outcome(parse_plan_text, text))
    assert _hexed(_outcome(parse_plan_text, text)) == want
    columns = _outcome(_plan_columns, text)
    if columns != ("ok", None):
        assert _hexed(columns) == _hexed(_outcome(_plan_lines, text))


def test_paths_above_the_writers_section_are_read_too():
    text = _PLAN.replace("[objective]\n", "[paths] \n9>9>9\t0.5\t2.0\n[objective]\n")
    rows, probs, costs = parse_plan_text(text)["paths"]
    assert rows.tolist() == [[1, 2, 3], [2, 1, 1], [9, 9, 9]]
    assert probs.tolist() == [0.75, 0.25, 0.5]


def test_path_strings_equal_format_path():
    rows = np.array([[1, 20, 3], [-4, 2 ** 62, 0], [1, 20, 3]], dtype=np.int64)
    assert path_strings(rows) == [format_path(r) for r in rows.tolist()]
    assert path_strings(rows[:0]) == []


# ---------------------------------------------------------------------------
# one rule for every reader: a JSON boolean or string is never a number, node
# ids are whole numbers, and arrays are rectangular
# ---------------------------------------------------------------------------

_SOLVE_TINY = ["solve", "--network", "builtin:tiny", "--alpha", "0.5"]
_BRIDGE = ["bridge", "--prior", "p.json", "--nu0", "m.json", "--nuT", "m.json",
           "--horizon", "1"]
_SCENARIO = ["scenario", "--spec", "s.json", "--out-dir", "out"]
_Q_DOC = {"horizon": 2, "entries": [{"path": [1, 2, 3], "prob": 1.0}]}
_SCENARIO_DOC = {"network": "builtin:risk30", "T": 3, "alpha": 40.0,
                 "scenario": {"kind": "risk", "affected": [[1, 2], [2, 3]]},
                 "disaster": {"edges": [[2, 4]], "multiplier": 4.0}}
_NETWORK_DOC = dict(_two_node_doc(), cost_rules={"maritime_multiplier": 2.0})
_DENSE_RQ = {"matrix": [[1.0] * 3] * 3}
_SPARSE_RQ = {"default": 1.0, "entries": [[1, 2, 3.0]]}
_MARKOV_PRIOR = {"type": "markov", "initial": [0.5, 0.5],
                 "matrix": [[1.0, 1.0], [1.0, 1.0]]}
_STEPS_PRIOR = {"type": "markov", "initial": [0.5, 0.5],
                "matrices": [[[1.0, 1.0], [1.0, 1.0]]]}
_PATH_PRIOR = {"type": "paths", "horizon": 1, "n": 2, "paths": [[1, 2], [2, 1]],
               "weights": [0.5, 0.5]}


# file name -> (reader, the name it gives the file in errors, a command reading it)
_READERS = {
    "q.json": (lambda path, network: load_path_distribution(path), "path distribution",
               _SOLVE_TINY + ["--q-file", "q.json"]),
    "s.json": (lambda path, network: load_scenario(path), "scenario", _SCENARIO),
    "net.json": (lambda path, network: load_network(path), "network file",
                 ["solve", "--network", "net.json", "--alpha", "1", "--horizon", "2"]),
    "rq.json": (load_step_weights, "step weights",
                _SOLVE_TINY + ["--rq-file", "rq.json"]),
    "p.json": (lambda path, network: load_prior(path), "prior", _BRIDGE),
}


@pytest.mark.parametrize("name, doc, at, value, message", [
    ("q.json", _Q_DOC, ("entries", 0, "path", 0), True, "bad entry"),
    ("q.json", _Q_DOC, ("entries", 0, "prob"), True, "bad entry"),
    ("s.json", _SCENARIO_DOC, ("scenario", "affected", 1, 0), True,
     "affected is malformed: True is not a number"),
    ("s.json", _SCENARIO_DOC, ("scenario", "affected", 0, 0), 1.9,
     "affected is malformed: 1.9 is not a whole number"),
    ("s.json", _SCENARIO_DOC, ("disaster", "edges", 0, 0), 2.5,
     "disaster.edges is malformed: 2.5 is not a whole number"),
    ("s.json", _SCENARIO_DOC, ("alpha",), 10 ** 400,
     "alpha is malformed: int too large to convert to float"),
    ("s.json", _SCENARIO_DOC, ("T",), "3", "T is malformed: '3' is not a number"),
    ("s.json", _SCENARIO_DOC, ("alpha",), "40",
     "alpha is malformed: '40' is not a number"),
    ("s.json", _SCENARIO_DOC, ("disaster", "edges", 0, 1), "4",
     "disaster.edges is malformed: '4' is not a number"),
    ("q.json", _Q_DOC, ("entries", 0, "path"), "123", "bad entry"),
    ("q.json", _Q_DOC, ("entries", 0, "prob"), "1", "bad entry"),
    ("net.json", _NETWORK_DOC, ("nodes", 1, "x_km"), "3",
     "nodes[1].x_km is malformed: '3' is not a number"),
    ("rq.json", _DENSE_RQ, ("matrix", 0, 1), "1",
     "matrix is malformed: '1' is not a number"),
    ("rq.json", _SPARSE_RQ, ("entries", 0, 2), "3", "bad entry"),
    ("p.json", _PATH_PRIOR, ("weights", 1), "0.5",
     "bad path prior: '0.5' is not a number"),
    ("net.json", _NETWORK_DOC, ("nodes", 1, "x_km"), True,
     "nodes[1].x_km is malformed: True is not a number"),
    ("net.json", _NETWORK_DOC, ("edges", 0, "length_km"), True,
     "edges[0].length_km is malformed: True is not a number"),
    ("net.json", _NETWORK_DOC, ("cost_rules", "maritime_multiplier"), True,
     "cost_rules.maritime_multiplier is malformed: True is not a number"),
    ("rq.json", _DENSE_RQ, ("matrix", 0, 1), True,
     "matrix is malformed: True is not a number"),
    ("rq.json", _SPARSE_RQ, ("entries", 0, 0), True, "bad entry"),
    ("p.json", _MARKOV_PRIOR, ("initial", 0), True,
     "initial is malformed: True is not a number"),
    ("p.json", _MARKOV_PRIOR, ("matrix", 1), [1.0], "matrix is malformed"),
    ("p.json", _STEPS_PRIOR, ("matrices", 0, 1, 0), True,
     "matrices is malformed: True is not a number"),
    ("p.json", _PATH_PRIOR, ("paths", 0, 0), True,
     "bad path prior: True is not a number"),
    ("p.json", _PATH_PRIOR, ("weights", 1), True,
     "bad path prior: True is not a number"),
], ids=["q-path-id", "q-prob", "scenario-affected-bool",
        "scenario-affected-fraction", "scenario-disaster-fraction",
        "scenario-alpha-overflow", "scenario-T-text", "scenario-alpha-text",
        "scenario-disaster-text", "q-path-text", "q-prob-text", "network-x-text",
        "rq-matrix-text", "rq-entry-text", "prior-weight-text",
        "network-x", "network-length", "network-cost-rule", "rq-matrix-cell",
        "rq-entry-id", "prior-initial", "prior-ragged-matrix",
        "prior-matrices-cell", "prior-path-id", "prior-weight"])
def test_every_reader_refuses_what_is_no_number(tmp_path, monkeypatch, capsys,
                                                tiny, name, doc, at, value,
                                                message):
    read, what, argv = _READERS[name]
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    read(str(f), tiny.network)                 # the unpatched file reads
    doc = json.loads(json.dumps(doc))
    *inner, last = at
    node = doc
    for key in inner:
        node = node[key]
    node[last] = value
    f.write_text(json.dumps(doc))
    with pytest.raises(ValidationError) as err:
        read(str(f), tiny.network)
    assert str(err.value).startswith(f"{what} {f}: ") and message in str(err.value)

    (tmp_path / "m.json").write_text(json.dumps([0.5, 0.5]))
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and message in lines[0]
