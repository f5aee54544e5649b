"""Scenario engine: spec files, both scenario kinds, and report emission."""

import json
import math
import os
import re
from dataclasses import replace

import numpy as np
import pytest

from iotnet import InfeasibleError, ValidationError
from iotnet import fixtures
from iotnet.cli import main
from iotnet.fileio import fmt
from iotnet.network import markov_model_from_network, path_vector
from iotnet.scenario import (
    DISPLAY_THRESHOLD,
    RiskWeights,
    build_risk_matrix,
    emit_report,
    load_scenario,
    run_scenario,
)

from helpers import edge_pairs, usage_dict_loop


def _write_spec(tmp_path, doc, name="scenario.json"):
    f = tmp_path / name
    f.write_text(json.dumps(doc))
    return str(f)


IMITATION_DOC = {"network": "builtin:synthetic30", "T": 3, "alpha": 50.0,
                 "scenario": {"kind": "imitation", "q_star": "builtin",
                              "beta": 0.1}}
# alpha picked inside the regime where risk aversion pays off under the
# disaster: large enough to dodge the disruption zone, small enough that the
# maritime detours it buys stay cheaper than the optimal plan's exposure
RISK_DOC = {"network": "builtin:risk30", "T": 3, "alpha": 40.0,
            "scenario": {"kind": "risk"}}


@pytest.fixture(scope="module")
def imitation_result(tmp_path_factory):
    path = _write_spec(tmp_path_factory.mktemp("imit"), IMITATION_DOC)
    return run_scenario(load_scenario(path), seed=0)


@pytest.fixture(scope="module")
def risk_result(tmp_path_factory):
    path = _write_spec(tmp_path_factory.mktemp("risk"), RISK_DOC)
    return run_scenario(load_scenario(path), seed=0, tol=1e-12)


# ---------------------------------------------------------------------------
# spec loading
# ---------------------------------------------------------------------------


def test_load_scenario_fills_defaults(tmp_path):
    spec = load_scenario(_write_spec(tmp_path, RISK_DOC))
    assert spec.kind == "risk"
    assert spec.horizon == 3
    assert spec.alpha == 40.0
    assert spec.beta == 0.0
    assert spec.supply is None and spec.demand is None
    assert spec.risk_weights == RiskWeights()


def test_load_scenario_riskprior_alias(tmp_path):
    doc = dict(RISK_DOC, scenario={"kind": "riskprior"})
    assert load_scenario(_write_spec(tmp_path, doc)).kind == "risk"


def test_load_scenario_rejects_bad_kind(tmp_path):
    doc = dict(RISK_DOC, scenario={"kind": "mystery"})
    with pytest.raises(ValidationError):
        load_scenario(_write_spec(tmp_path, doc))


def test_load_scenario_needs_matching_totals(tmp_path):
    doc = dict(RISK_DOC)
    doc["supply"] = {"1": 3}
    doc["demand"] = {"4": 2}
    with pytest.raises(ValidationError):
        load_scenario(_write_spec(tmp_path, doc))
    doc["demand"] = {"4": 3}
    spec = load_scenario(_write_spec(tmp_path, doc))
    assert spec.supply == {1: 3.0} and spec.demand == {4: 3.0}


def test_load_scenario_supply_requires_demand(tmp_path):
    doc = dict(RISK_DOC)
    doc["supply"] = {"1": 3}
    with pytest.raises(ValidationError):
        load_scenario(_write_spec(tmp_path, doc))


def test_load_scenario_rejects_mixed_kind_fields(tmp_path, capsys):
    doc = dict(RISK_DOC, scenario={"kind": "risk",
                                   "weights": {"bogus": 1.0}})
    with pytest.raises(ValidationError):
        load_scenario(_write_spec(tmp_path, doc))
    # a block field its kind never reads is refused, not ignored
    for block, message in (
            ({"kind": "imitation", "rq_file": "x.json"}, "does not read ['rq_file']"),
            ({"kind": "risk", "q_star": "builtin"}, "does not read ['q_star']"),
            ({"kind": "riskprior", "q_star": None}, "does not read ['q_star']"),
            ({"kind": "risk", "beta": 0.9}, "does not read ['beta']"),
            ({"kind": "imitation", "weights": {"maritime": 2.0}},
             "does not read ['weights']"),
            ({"kind": "imitation", "normalize_rows": True},
             "does not read ['normalize_rows']"),
            ({"kind": "imitation", "affected": [[1, 2]]},
             "does not read ['affected']"),
            ({"kind": "risk", "rqfile": "x.json"}, "does not read ['rqfile']"),
            ({"kind": "risk", "rq_file": "x.json", "weights": {"maritime": 2.0}},
             "weights build the risk target only without an rq_file")):
        doc = dict(RISK_DOC, scenario=block)
        with pytest.raises(ValidationError, match=re.escape(message)):
            load_scenario(_write_spec(tmp_path, doc))
    # so is a top-level field: a typo, or a disaster an imitation run never reads
    for doc, message in (
            (dict(RISK_DOC, supplies={"1": 5}),
             "a risk scenario does not read ['supplies'] at the top level"),
            (dict(IMITATION_DOC, disaster={"edges": [[1, 2]], "multiplier": 3}),
             "a imitation scenario does not read ['disaster'] at the top level")):
        assert main(["scenario", "--spec", _write_spec(tmp_path, doc),
                     "--out-dir", str(tmp_path / "out")]) == 1
        assert message in capsys.readouterr().err


def test_every_field_each_kind_reads_loads(tmp_path):
    for block in ({"kind": "imitation", "q_star": "builtin", "beta": 0.1},
                  {"kind": "risk", "affected": [[1, 2]],
                   "weights": {"maritime": 2.0}, "normalize_rows": True},
                  {"kind": "risk", "rq_file": "x.json", "affected": [[1, 2]],
                   "normalize_rows": False}):
        load_scenario(_write_spec(tmp_path, dict(RISK_DOC, scenario=block)))


def test_the_disaster_multiplier_defaults_to_the_fixture_constant(tmp_path,
                                                                 risk_result):
    doc = dict(RISK_DOC, disaster={"edges": [[7, 18]]})
    assert load_scenario(_write_spec(tmp_path, doc)).disaster.multiplier == \
        fixtures.DISASTER_MULTIPLIER
    assert risk_result.disaster.multiplier == fixtures.DISASTER_MULTIPLIER


def test_load_scenario_reads_disaster_block(tmp_path):
    doc = dict(RISK_DOC)
    doc["disaster"] = {"edges": [[7, 18], [18, 9]], "multiplier": 4.0}
    spec = load_scenario(_write_spec(tmp_path, doc))
    assert spec.disaster.multiplier == 4.0
    assert spec.disaster.edges == ((7, 18), (18, 9))


@pytest.mark.parametrize("patch, field", [
    ({"scenario": {"kind": "risk", "affected": [[1, 2, 3]]}}, "affected"),
    ({"disaster": {"multiplier": "ten"}}, "disaster.multiplier"),
    ({"disaster": [1]}, "disaster"),
    ({"supply": {"x": 1}, "demand": {"4": 1}}, "supply"),
    ({"scenario": {"kind": "risk", "weights": {"maritime": "big"}}},
     "weights.maritime"),
    *[({"scenario": {"kind": "risk", "normalize_rows": flag}},
       "normalize_rows must be a bool") for flag in ("false", None, 0, 1, [], "")],
    ({"T": 3.5}, "T is malformed: 3.5 is not a whole number"),
], ids=["affected-triple", "multiplier-text", "disaster-list", "supply-key",
        "weight-text", "flag-text", "flag-null", "flag-zero", "flag-one",
        "flag-list", "flag-empty", "fractional-T"])
def test_load_scenario_names_the_malformed_field(tmp_path, patch, field):
    doc = dict(RISK_DOC, **patch)
    with pytest.raises(ValidationError, match=re.escape(field)):
        load_scenario(_write_spec(tmp_path, doc))


@pytest.mark.parametrize("field", ["supply", "demand"])
@pytest.mark.parametrize("mass", [float("nan"), float("inf")])
def test_scenario_refuses_a_non_finite_mass(tmp_path, capsys, field, mass):
    # without the bad entry, supply and demand balance and the scenario solves
    doc = dict(RISK_DOC, supply={"8": 1.0}, demand={"3": 1.0})
    doc[field] = dict(doc[field], **{"1": mass})
    spec = _write_spec(tmp_path, doc)
    assert ("NaN" if math.isnan(mass) else "Infinity") in open(spec).read()
    assert main(["scenario", "--spec", spec, "--out-dir",
                 str(tmp_path / "out")]) == 1
    assert f"{field}: non-finite mass {mass!r} at node 1" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("multiplier", [float("nan"), float("inf"), -1.0])
def test_a_disaster_multiplier_out_of_range_names_the_scenario(tmp_path, capsys,
                                                              multiplier):
    spec = _write_spec(tmp_path, dict(RISK_DOC, disaster={"edges": [[7, 18]],
                                                          "multiplier": multiplier}))
    assert main(["scenario", "--spec", spec, "--out-dir",
                 str(tmp_path / "out")]) == 1
    assert (f"error: scenario {spec}: disaster.multiplier must be nonnegative and "
            f"finite, got {multiplier}") in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("patch, field", [
    ({"supply": {"8": True}, "demand": {"3": 1.0}}, "supply: mass"),
    ({"supply": {"8": 1.0}, "demand": {"3": True}}, "demand: mass"),
    ({"T": True}, "T"),
    ({"alpha": True}, "alpha"),
], ids=["supply", "demand", "T", "alpha"])
def test_scenario_refuses_a_boolean_number(tmp_path, capsys, patch, field):
    # float(True) and int(True) would read the boolean as 1
    spec = _write_spec(tmp_path, dict(RISK_DOC, **patch))
    assert main(["scenario", "--spec", spec, "--out-dir",
                 str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err == (f"error: scenario {spec}: {field} is "
                                       "malformed: True is not a number\n")
    assert not (tmp_path / "out").exists()


def test_unknown_builtin_network_is_rejected(tmp_path):
    doc = dict(RISK_DOC, network="builtin:nowhere")
    with pytest.raises(ValidationError, match="unknown builtin network"):
        run_scenario(load_scenario(_write_spec(tmp_path, doc)))


@pytest.mark.parametrize("name", ["synthetic30", "risk30"])
def test_builtin_fixture_is_built_once_and_read_only(name):
    fx = fixtures.builtin(name, 1)
    assert fixtures.builtin(name, 1) is fx
    assert fx == getattr(fixtures, name)(1)
    for masses in (fx.supply, fx.demand):
        node = next(iter(masses))
        with pytest.raises(TypeError):
            masses[node] = 0
        with pytest.raises(TypeError):
            del masses[node]


def test_scenario_runs_in_one_process_write_the_same_files(tmp_path):
    """A run that overrides the builtin's supply and demand leaves nothing
    behind in the fixture for the next run."""
    spec = _write_spec(tmp_path, RISK_DOC)
    other = _write_spec(tmp_path, dict(RISK_DOC, supply={"8": 2.0},
                                       demand={"3": 1.0, "4": 1.0}),
                        name="other.json")
    outs = [tmp_path / "first", tmp_path / "other", tmp_path / "again"]
    for path, out in zip([spec, other, spec], outs):
        assert main(["scenario", "--spec", path, "--out-dir", str(out)]) == 0
    names = sorted(os.listdir(outs[0]))
    assert names == sorted(os.listdir(outs[2]))
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[2] / name).read_bytes(), name


# ---------------------------------------------------------------------------
# risk step-weight construction
# ---------------------------------------------------------------------------


def test_build_risk_matrix_assigns_three_tiers():
    fx = fixtures.risk30(0)
    mat = build_risk_matrix(fx.network, fx.ruled, fx.affected, RiskWeights())
    maritime_pairs = {(e.tail, e.head) for e in fx.network.edges
                      if e.kind.value == "maritime"}
    for (i, j) in fx.affected:
        assert mat[i - 1, j - 1] == pytest.approx(1e-5)
    clean_maritime = maritime_pairs - set(fx.affected)
    assert clean_maritime
    for (i, j) in sorted(clean_maritime)[:5]:
        assert mat[i - 1, j - 1] == pytest.approx(100.0)
    # off-edge pairs carry exactly zero
    present = set(edge_pairs(fx.network))
    zeros = [(i, j) for i in range(1, 31) for j in range(1, 31)
             if (i, j) not in present]
    for (i, j) in zeros[:10]:
        assert mat[i - 1, j - 1] == 0.0


# ---------------------------------------------------------------------------
# imitation scenario
# ---------------------------------------------------------------------------


def test_imitation_scenario_produces_three_reports(imitation_result):
    assert sorted(imitation_result.reports) == ["imitation", "optimal", "target"]
    assert imitation_result.kind == "imitation"
    assert imitation_result.beta == 0.1


def test_imitation_scenario_cost_ordering(imitation_result):
    reports = imitation_result.reports
    assert reports["optimal"].total_cost <= reports["imitation"].total_cost + 1e-9
    assert reports["imitation"].total_cost <= reports["target"].total_cost + 1e-9


def test_report_totals_decompose_by_destination(imitation_result):
    for rep in imitation_result.reports.values():
        assert rep.per_destination_cost.sum() == pytest.approx(
            rep.total_cost, abs=1e-9)
        assert rep.per_destination_mass.sum() == pytest.approx(
            1.0, abs=1e-9)


def test_optimal_report_matches_lp_objective(imitation_result):
    assert imitation_result.reports["optimal"].total_cost == pytest.approx(
        imitation_result.lp_objective, abs=1e-9)


def test_imitation_report_matches_plan_cost(imitation_result):
    plan = imitation_result.imitation_plan
    assert imitation_result.reports["imitation"].total_cost == pytest.approx(
        plan.objective.expected_cost, abs=1e-9)


def test_imitation_plan_marginals(imitation_result):
    from helpers import marginal_gap
    fx = fixtures.synthetic30(0)
    nu0, nuT = fx.marginals()
    plan = imitation_result.imitation_plan
    assert marginal_gap(imitation_result.space, plan.path_law, nu0, nuT) < 1e-8


def test_imitation_scenario_accepts_q_star_file(tmp_path):
    from iotnet.fileio import save_path_distribution

    fx = fixtures.synthetic30(0)
    rows, probs = fixtures.synthetic_q_star(fx)
    table = dict(zip(map(tuple, rows.tolist()), probs.tolist()))
    qf = tmp_path / "qstar.json"
    save_path_distribution(str(qf), fx.horizon, table)
    doc = dict(IMITATION_DOC, scenario={"kind": "imitation",
                                        "q_star": "qstar.json", "beta": 0.1})
    res = run_scenario(load_scenario(_write_spec(tmp_path, doc)), seed=0)
    assert res.reports["target"].total_cost == pytest.approx(616.3176, abs=1e-3)


def test_builtin_q_star_follows_the_scenario_horizon(tmp_path):
    doc = dict(IMITATION_DOC, T=4)
    res = run_scenario(load_scenario(_write_spec(tmp_path, doc)), seed=0)
    assert res.space.horizon == 4
    rows, probs = fixtures.synthetic_q_star(replace(fixtures.synthetic30(0),
                                                    horizon=4))
    q = path_vector(res.space, rows, probs, "q_star")
    assert np.all(q > 0)
    assert res.reports["target"].total_cost == pytest.approx(
        float(q @ res.imitation_plan.path_costs), rel=1e-12)


def test_builtin_q_star_follows_the_scenario_supply_and_demand(tmp_path):
    from helpers import marginal_gap

    fx = fixtures.synthetic30(0)
    supply = {1: 979, 8: 490}     # node 24's supply moved to node 1
    doc = dict(IMITATION_DOC, supply={str(k): v for k, v in supply.items()},
               demand={str(k): v for k, v in fx.demand.items()})
    res = run_scenario(load_scenario(_write_spec(tmp_path, doc)), seed=0)
    rows, probs = fixtures.synthetic_q_star(replace(fx, supply=supply))
    q = path_vector(res.space, rows, probs, "q_star")
    nu0, nuT = fixtures.marginals(fx.network.n, supply, fx.demand)
    assert marginal_gap(res.space, q, nu0, nuT) < 1e-8
    assert res.reports["target"].total_cost == pytest.approx(
        float(q @ res.imitation_plan.path_costs), rel=1e-12)


# ---------------------------------------------------------------------------
# risk scenario and the disaster table
# ---------------------------------------------------------------------------


def test_risk_scenario_builds_disaster_table(risk_result):
    assert risk_result.kind == "risk"
    d = risk_result.disaster
    assert d is not None
    assert d.multiplier == 10.0
    assert len(d.edges) > 0
    assert len(d.rows) > 0


def test_risk_plan_avoids_disruption_better_than_lp(risk_result):
    d = risk_result.disaster
    assert d.imitation_total_after <= d.optimal_total_after + 1e-9


def test_risk_totals_are_consistent(risk_result):
    d = risk_result.disaster
    assert d.imitation_total_before == pytest.approx(
        sum(r.imitation_before for r in d.rows), abs=1e-9)
    assert d.imitation_total_after == pytest.approx(
        sum(r.imitation_after for r in d.rows), abs=1e-9)
    assert d.optimal_total_after == pytest.approx(
        sum(r.optimal_after for r in d.rows), abs=1e-9)


def test_cut_town_delta_is_plan_independent(risk_result):
    fx = fixtures.risk30(0)
    rows = {r.node: r for r in risk_result.disaster.rows}
    row = rows[fx.cut_node]
    assert row.imitation_delta == pytest.approx(row.optimal_delta, abs=1e-6)
    assert row.imitation_delta > 0


def test_disaster_makes_everything_at_least_as_expensive(risk_result):
    for r in risk_result.disaster.rows:
        assert r.imitation_after >= r.imitation_before - 1e-9
        assert r.optimal_after >= r.optimal_before - 1e-9


def test_zero_affected_weight_excludes_support(tmp_path):
    doc = dict(RISK_DOC, scenario={"kind": "risk",
                                   "weights": {"affected": 0.0}})
    with pytest.raises(InfeasibleError):
        run_scenario(load_scenario(_write_spec(tmp_path, doc)), seed=0)


def test_risk_scenario_accepts_rq_file(tmp_path):
    fx = fixtures.risk30(0)
    mat = build_risk_matrix(fx.network, fx.ruled, fx.affected, RiskWeights())
    entries = [[int(i) + 1, int(j) + 1, float(mat[i, j])]
               for i, j in zip(*np.nonzero(mat))]
    rq = tmp_path / "rq.json"
    rq.write_text(json.dumps({"default": 0.0, "entries": entries}))
    doc = dict(RISK_DOC, scenario={"kind": "risk", "rq_file": "rq.json"})
    res = run_scenario(load_scenario(_write_spec(tmp_path, doc)), seed=0,
                       tol=1e-12)
    ref_doc = dict(RISK_DOC)
    ref = run_scenario(load_scenario(_write_spec(tmp_path, ref_doc, "b.json")),
                       seed=0, tol=1e-12)
    assert res.reports["imitation"].total_cost == pytest.approx(
        ref.reports["imitation"].total_cost, abs=1e-8)


def test_normalize_rows_changes_the_target_but_solves(tmp_path):
    doc = dict(RISK_DOC, scenario={"kind": "risk", "normalize_rows": True})
    res = run_scenario(load_scenario(_write_spec(tmp_path, doc)), seed=0)
    assert res.disaster is not None


# ---------------------------------------------------------------------------
# report emission
# ---------------------------------------------------------------------------


def test_emit_report_writes_expected_files(tmp_path, risk_result,
                                          imitation_result):
    for result in (risk_result, imitation_result):
        out = tmp_path / result.kind
        emit_report(result, str(out))
        names = sorted(os.listdir(out))
        assert "report_summary.txt" in names
        # only the risk kind has a disaster table
        assert ("report_disaster.csv" in names) == (result.kind == "risk")
        for t in range(result.space.horizon):
            assert f"report_usage_t{t}.csv" in names


def test_emitted_usage_tables_conserve_mass(tmp_path, risk_result,
                                            imitation_result):
    for result in (risk_result, imitation_result):
        out = tmp_path / result.kind
        emit_report(result, str(out))
        for t in range(result.space.horizon):
            rows = (out / f"report_usage_t{t}.csv").read_text().splitlines()[1:]
            total = sum(float(line.split(",")[2]) for line in rows)
            # flows below the display threshold are dropped from the table
            slack = DISPLAY_THRESHOLD * result.space.size
            assert total == pytest.approx(1.0, abs=min(slack, 0.05))


def test_usage_tables_equal_the_dict_era_writer(tmp_path, risk_result,
                                               imitation_result):
    for result in (risk_result, imitation_result):
        out = tmp_path / result.kind
        emit_report(result, str(out))
        usage = usage_dict_loop(result.space, result.imitation_plan.path_law)
        for t in range(result.space.horizon):
            lines = ["from,to,mass"] + [
                f"{i},{j},{fmt(mass)}" for (step, i, j), mass in usage.items()
                if step == t and mass >= DISPLAY_THRESHOLD]
            text = (out / f"report_usage_t{t}.csv").read_text()
            if result.kind == "imitation":
                assert text == "\n".join(lines) + "\n"
                continue
            # the risk plan's usage is a chain contraction, which adds the
            # same masses in another order: the same rows, masses to 1e-12
            got = [line.rsplit(",", 1) for line in text.splitlines()]
            want = [line.rsplit(",", 1) for line in lines]
            assert [g[0] for g in got] == [w[0] for w in want]
            assert all(abs(float(g[1]) - float(w[1])) <= 1e-12
                       for g, w in zip(got[1:], want[1:]))


def test_emit_report_is_deterministic(tmp_path, risk_result):
    a, b = tmp_path / "a", tmp_path / "b"
    emit_report(risk_result, str(a))
    emit_report(risk_result, str(b))
    for name in os.listdir(a):
        assert (a / name).read_bytes() == (b / name).read_bytes(), name


def test_disaster_csv_matches_rows(tmp_path, risk_result):
    out = tmp_path / "out"
    emit_report(risk_result, str(out))
    lines = (out / "report_disaster.csv").read_text().splitlines()
    header, body = lines[0], lines[1:]
    assert header.split(",")[0] == "node"
    assert len(body) == len(risk_result.disaster.rows)
    first = body[0].split(",")
    row = risk_result.disaster.rows[0]
    assert int(first[0]) == row.node
    assert float(first[2]) == pytest.approx(row.imitation_before, abs=1e-12)
