"""End-to-end command tests: outputs, formats, exit codes."""

import json
import os
import re
import subprocess
import sys

import numpy as np
import pytest

from iotnet import (cli, fixtures, load_prior, markov_model_from_network,
                    read_plan, save_network, save_path_distribution)
from iotnet.cli import main


def run_cli(args, capsys):
    """Invoke the CLI in-process; returns (exit code, stdout, stderr)."""
    try:
        code = main(list(args))
    except SystemExit as exc:   # argparse usage errors
        code = int(exc.code)
    out, err = capsys.readouterr()
    return code, out, err


@pytest.fixture()
def outdir(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _path_table(doc):
    """A plan's ``[paths]`` as ``{path: (prob, cost)}``."""
    rows, probs, costs = doc["paths"]
    return dict(zip(map(tuple, rows.tolist()), zip(probs.tolist(), costs.tolist())))


def _uniform_qfile(path):
    fx = fixtures.tiny_fixture()
    table = {p: 1.0 / fx.space.size for p in fx.space.paths}
    save_path_distribution(str(path), 2, table)


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_builtin_tiny(outdir, capsys):
    code, out, _ = run_cli(["solve", "--network", "builtin:tiny",
                            "--alpha", "0.5"], capsys)
    assert code == 0
    assert "wrote" in out
    doc = read_plan(str(outdir / "plan.txt"))
    assert doc["meta"]["paths"] == "27"
    total = sum(doc["paths"][1].tolist())
    assert total == pytest.approx(1.0, abs=1e-9)


def test_solve_reads_a_network_file(outdir, capsys):
    """A network file with its ruled model, and marginal files, pose the
    problem the builtin name does: the plans are byte-identical."""
    fx = fixtures.synthetic30(0)
    save_network(fx.network, str(outdir / "net.json"), ruled=fx.ruled)
    for name, nu in zip(("nu0.json", "nuT.json"), fx.marginals()):
        (outdir / name).write_text(json.dumps(nu.tolist()))
    solve = ["solve", "--horizon", "3", "--alpha", "40"]
    code, _, _ = run_cli(solve + ["--network", "net.json", "--nu0", "nu0.json",
                                  "--nuT", "nuT.json", "--out", "file.txt"], capsys)
    assert code == 0
    code, _, _ = run_cli(solve + ["--network", "builtin:synthetic30",
                                  "--out", "builtin.txt"], capsys)
    assert code == 0
    assert (outdir / "file.txt").read_bytes() == (outdir / "builtin.txt").read_bytes()


def test_solve_honors_out_dir_and_out(outdir, capsys):
    code, _, _ = run_cli(["--out-dir", "sub", "solve", "--network",
                          "builtin:tiny", "--alpha", "1.0",
                          "--out", "myplan.txt"], capsys)
    assert code == 0
    assert (outdir / "sub" / "myplan.txt").exists()


def test_solve_with_q_file(outdir, capsys):
    _uniform_qfile(outdir / "q.json")
    code, _, _ = run_cli(["solve", "--network", "builtin:tiny",
                          "--alpha", "0.5", "--q-file", "q.json",
                          "--beta", "0.1", "--out", "p.txt"], capsys)
    assert code == 0
    ref_code, _, _ = run_cli(["solve", "--network", "builtin:tiny",
                              "--alpha", "0.5", "--out", "r.txt"], capsys)
    assert ref_code == 0
    # uniform q blended with uniform is still uniform: same plan up to
    # floating-point rounding in the blend arithmetic
    plan = read_plan(outdir / "p.txt")
    ref = read_plan(outdir / "r.txt")
    plan_paths, ref_paths = _path_table(plan), _path_table(ref)
    assert set(plan_paths) == set(ref_paths)
    for path, (prob, cost) in ref_paths.items():
        got_prob, got_cost = plan_paths[path]
        assert abs(got_prob - prob) < 1e-12
        assert abs(got_cost - cost) < 1e-12
    assert abs(plan["objective"]["total"] - ref["objective"]["total"]) < 1e-12


def test_solve_with_rq_file(outdir, capsys):
    (outdir / "rq.json").write_text(json.dumps({"default": 1.0}))
    code, out, _ = run_cli(["solve", "--network", "builtin:tiny",
                            "--alpha", "0.5", "--rq-file", "rq.json",
                            "--out", "p.txt"], capsys)
    assert code == 0
    doc = read_plan(str(outdir / "p.txt"))
    assert doc["objective"]["total"] > 0


def test_solve_q_and_rq_are_mutually_exclusive(outdir, capsys):
    code, _, err = run_cli(["solve", "--network", "builtin:tiny",
                            "--alpha", "0.5", "--q-file", "a",
                            "--rq-file", "b"], capsys)
    assert code == 1
    assert "error" in err


def test_solve_rejects_bad_alpha(outdir, capsys):
    code, _, err = run_cli(["solve", "--network", "builtin:tiny",
                            "--alpha", "-2.0"], capsys)
    assert code == 1
    assert "alpha" in err


@pytest.mark.parametrize("argv", [
    ["solve", "--network", "builtin:risk30", "--seed", "-1", "--alpha", "40"],
    ["--seed", "-3", "scenario", "--spec", "spec.json"],
])
def test_a_negative_seed_is_refused(outdir, capsys, argv):
    (outdir / "spec.json").write_text(json.dumps(
        {"network": "builtin:risk30", "T": 3, "alpha": 40.0,
         "scenario": {"kind": "risk"}}))
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "error: --seed must be >= 0" in err


def test_solve_exit_2_on_iteration_budget(outdir, capsys):
    code, _, err = run_cli(["solve", "--network", "builtin:tiny",
                            "--alpha", "0.5", "--max-iter", "1"], capsys)
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("network,extra", [
    ("builtin:synthetic30", ["--cost", "ruled"]),
    ("builtin:risk30", ["--cost", "markov"]),
    ("builtin:risk30", ["--cost", "markov", "--rq-file", "rq.json"]),  # Markov route
])
def test_solve_at_small_alpha(outdir, capsys, network, extra):
    """exp(-C/alpha) underflows at alpha 1; the log-domain bridge solves."""
    (outdir / "rq.json").write_text(json.dumps({"default": 1.0}))
    code, out, err = run_cli(["solve", "--network", network, "--alpha", "1",
                              "--horizon", "3"] + extra, capsys)
    assert code == 0, err
    doc = read_plan(str(outdir / "plan.txt"))
    assert sum(doc["paths"][1].tolist()) == pytest.approx(1.0, abs=1e-6)


@pytest.mark.parametrize("extra", [[], ["--cost", "markov", "--rq-file", "rq.json"]],
                         ids=["path", "markov"])
def test_an_alpha_whose_cost_ratio_overflows_is_refused(outdir, capsys, extra):
    """At alpha 1e-308 a path cost over alpha overflows, which once read as a
    zero prior weight and gave a false infeasibility.  The refusal names the
    smallest alpha that fits, the same on both routes; that one is solved."""
    (outdir / "rq.json").write_text(json.dumps({"default": 1.0}))
    argv = ["solve", "--network", "builtin:tiny"] + extra
    code, _, err = run_cli(argv + ["--alpha", "1e-308"], capsys)
    assert code == 1
    assert err.startswith("error: alpha 1e-308 is too small for path costs up "
                          "to 3.1:")
    smallest = err.strip().rsplit(" ", 1)[1]
    assert float(smallest) == 3.1 / sys.float_info.max
    code, _, err = run_cli(argv + ["--alpha", smallest, "--max-iter", "1"], capsys)
    assert code == 2, err


_MARKOV_COST = ["--cost", "markov", "--rq-file", "rq.json"]


@pytest.mark.parametrize("network, horizon, alpha, routes", [
    ("builtin:tiny", "2", "2e-06", [_MARKOV_COST, _MARKOV_COST + ["--force-path"]]),
    ("builtin:tiny", "2", "1e-06", [_MARKOV_COST, _MARKOV_COST + ["--force-path"]]),
    ("builtin:tiny", "2", "1e-07", [_MARKOV_COST, _MARKOV_COST + ["--force-path"]]),
    ("builtin:synthetic30", "3", "0.01", [[]]),
    ("builtin:synthetic30", "3", "0.0001", [[]]),
    ("builtin:synthetic30", "3", "1e-05", [[]]),
    ("builtin:synthetic30", "3", "1e-06", [[]]),
], ids=["tiny-2e-06", "tiny-1e-06", "tiny-1e-07", "synthetic30-0.01",
        "synthetic30-0.0001", "synthetic30-1e-05", "synthetic30-1e-06"])
def test_small_alphas_solve(outdir, capsys, network, horizon, alpha, routes):
    """Log kernels spanning up to billions of nats: the scaling climbs its
    ladder of kernel scales and solves.  On tiny, the Markov route and the
    path route (``--force-path``) write the same plan within 1e-8 total
    variation; synthetic30's ruled costs take the path route.  The path
    route shares each endpoint pair's coupling mass among the pair's paths,
    so its plan file sums to 1 within the 1e-12 below which it drops a path
    (within 2.3e-16 here; summing ``exp`` of log weights and potentials up
    to 3e9 nats missed by up to 1.1e-8).  The Markov route's chain misses
    by up to 3.4e-10 at alpha 1e-7."""
    (outdir / "rq.json").write_text(json.dumps({"default": 1.0}))
    argv = ["solve", "--network", network, "--horizon", horizon, "--alpha", alpha]
    probs = []
    for extra in routes:
        code, _, err = run_cli(argv + extra, capsys)
        assert code == 0, err
        probs.append(read_plan(str(outdir / "plan.txt"))["paths"][1])
        bound = 1e-9 if extra == _MARKOV_COST else 1e-12
        assert sum(probs[-1].tolist()) == pytest.approx(1.0, abs=bound)
    assert 0.5 * np.abs(probs[0] - probs[-1]).sum() < 1e-8


def test_a_markov_target_is_a_probability_law_on_the_space(outdir, capsys):
    """All-ones step weights are the uniform law on the space once they are
    normalised over it, so the rq-file target and the default one give one
    KL: before, the raw products read -4.19 here, a KL below zero."""
    (outdir / "rq.json").write_text(json.dumps({"default": 1.0}))
    argv = ["solve", "--network", "builtin:risk30", "--cost", "markov",
            "--alpha", "40", "--horizon", "5"]
    kls = []
    for extra in (["--rq-file", "rq.json"], []):
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 0, err
        kls.append(float(re.search(r"kl_to_target=(\S+)", out)[1]))
    assert kls[0] >= 0
    assert kls[0] == pytest.approx(kls[1], rel=1e-9)


@pytest.mark.parametrize("weight", [1e-200, 1e-170, 1e200])
def test_a_markov_target_solves_on_both_routes_at_any_weight_scale(outdir, capsys,
                                                                  weight):
    """Step weights of 1e-200 multiply to 1e-400 along a tiny path, which
    underflowed to a zero target law on the path route ("target q puts no
    mass on any feasible path") while the Markov route solved; summed as
    logs, both routes solve and report one total."""
    (outdir / "rq.json").write_text(json.dumps({"default": weight}))
    argv = ["solve", "--network", "builtin:tiny", "--alpha", "0.5"] + _MARKOV_COST
    totals = []
    for extra in ([], ["--force-path"]):
        code, out, err = run_cli(argv + extra, capsys)
        assert code == 0, err
        totals.append(float(re.search(r"total=(\S+)", out)[1]))
    assert totals[1] == pytest.approx(totals[0], rel=1e-9)


def test_solve_lists_the_path_space_before_solving_on_either_route(outdir, capsys,
                                                                   monkeypatch):
    """The plan file lists every path, so a space too large to hold is
    refused before the Markov route's solve, not after it."""
    (outdir / "rq.json").write_text(json.dumps({"default": 1.0}))

    def refuse(*args, **kwargs):
        raise AssertionError("solved before the space was listed")

    monkeypatch.setattr(cli, "solve_iot", refuse)
    code, _, err = run_cli(["solve", "--network", "builtin:tiny", "--alpha", "0.5",
                            "--horizon", "99"] + _MARKOV_COST, capsys)
    assert code == 1
    assert err == ("error: a horizon-99 space of 515377520732011331036461129765621272"
                   "702107522001 paths is too large\n")


@pytest.mark.parametrize("extra", [[], _MARKOV_COST], ids=["path", "markov"])
def test_an_alpha_at_the_float_floor_is_refused_by_name(outdir, capsys, extra):
    """At alpha 1e-10 tiny's potentials lie billions of nats apart, and floats
    resolve the marginals only to about 1e-16 of that: the scaling stops
    within a few dozen steps and refuses in one line naming alpha, the
    violation reached and the steps taken.  At 1e-300 the first rung that
    meets its float floor hands over to the last one, which refuses in
    under 200 steps instead of climbing some 300 rungs."""
    (outdir / "rq.json").write_text(json.dumps({"default": 1.0}))
    for alpha, most in (("1e-10", 1_000), ("1e-300", 200)):
        code, _, err = run_cli(["solve", "--network", "builtin:tiny", "--alpha", alpha]
                               + extra, capsys)
        assert code == 2
        lines = err.strip().splitlines()
        assert len(lines) == 1
        refusal = re.fullmatch(rf"error: alpha {alpha}: Sinkhorn stopped at an L1 "
                               r"marginal violation of (\S+) after (\d+) Newton "
                               r"steps, short of the tolerance 1e-10", lines[0])
        assert refusal is not None, lines[0]
        assert float(refusal[1]) > 1e-10 and int(refusal[2]) < most


@pytest.mark.parametrize("cost, derived", [("ruled", 0), ("auto", 0),
                                           ("markov", 1)])
def test_solve_derives_the_markov_model_only_when_it_prices(outdir, capsys,
                                                            monkeypatch, cost,
                                                            derived):
    calls = []

    def counting(*args):
        calls.append(args)
        return markov_model_from_network(*args)

    monkeypatch.setattr(cli, "markov_model_from_network", counting)
    code, _, err = run_cli(["solve", "--network", "builtin:synthetic30",
                            "--cost", cost, "--horizon", "3", "--alpha", "40"],
                           capsys)
    assert code == 0, err
    assert len(calls) == derived


def test_solve_unknown_builtin(outdir, capsys):
    code, _, err = run_cli(["solve", "--network", "builtin:nope",
                            "--alpha", "0.5"], capsys)
    assert code == 1


def test_usage_error_exits_1(outdir, capsys):
    code, _, err = run_cli(["solve", "--network", "builtin:tiny"], capsys)
    assert code == 1   # --alpha is required
    code, _, _ = run_cli(["no-such-command"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# rbwalk
# ---------------------------------------------------------------------------


def test_rbwalk_output_contents(outdir, capsys):
    code, _, _ = run_cli(["rbwalk", "--network", "builtin:tiny",
                          "--alpha", "0.5"], capsys)
    assert code == 0
    doc = json.loads((outdir / "rbwalk.json").read_text())
    assert doc["n"] == 3
    assert doc["spectral_radius"] > 0
    R = np.array(doc["transitions"])
    assert np.max(np.abs(R.sum(axis=1) - 1.0)) < 1e-9
    assert sum(doc["node_weights"]) == pytest.approx(1.0, abs=1e-9)


def test_rbwalk_exit_2_when_budget_too_small(outdir, capsys):
    code, _, _ = run_cli(["rbwalk", "--network", "builtin:tiny",
                          "--alpha", "0.5", "--max-iter", "1"], capsys)
    assert code == 2


# ---------------------------------------------------------------------------
# bridge
# ---------------------------------------------------------------------------


def _markov_prior_file(path):
    doc = {"type": "markov", "initial": [1 / 3, 1 / 3, 1 / 3],
           "matrix": [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.5, 0.3, 0.2]]}
    path.write_text(json.dumps(doc))


def test_bridge_markov_prior(outdir, capsys):
    _markov_prior_file(outdir / "prior.json")
    (outdir / "nu0.json").write_text(json.dumps([0.5, 0.3, 0.2]))
    (outdir / "nuT.json").write_text(json.dumps([0.2, 0.3, 0.5]))
    code, _, _ = run_cli(["bridge", "--prior", "prior.json", "--nu0", "nu0.json",
                          "--nuT", "nuT.json", "--horizon", "2"], capsys)
    assert code == 0
    doc = json.loads((outdir / "bridge.json").read_text())
    pi = np.array(doc["endpoint_coupling"])
    assert np.max(np.abs(pi.sum(axis=1) - [0.5, 0.3, 0.2])) < 1e-9
    assert np.max(np.abs(pi.sum(axis=0) - [0.2, 0.3, 0.5])) < 1e-9
    assert 0 < doc["iterations"]


def test_bridge_markov_requires_horizon(outdir, capsys):
    _markov_prior_file(outdir / "prior.json")
    (outdir / "nu0.json").write_text(json.dumps([0.5, 0.3, 0.2]))
    (outdir / "nuT.json").write_text(json.dumps([0.2, 0.3, 0.5]))
    code, _, err = run_cli(["bridge", "--prior", "prior.json",
                            "--nu0", "nu0.json", "--nuT", "nuT.json"], capsys)
    assert code == 1
    assert "horizon" in err


def test_bridge_reads_the_horizon_of_a_time_varying_prior(outdir, capsys):
    """A prior with one step matrix per step sets the horizon; another
    ``--horizon`` is refused."""
    (outdir / "prior.json").write_text(json.dumps(
        {"type": "markov", "initial": [0.5, 0.5],
         "matrices": [[[1.0, 2.0], [1.0, 1.0]], [[1.0, 1.0], [3.0, 1.0]]]}))
    (outdir / "m.json").write_text(json.dumps([0.5, 0.5]))
    argv = ["bridge", "--prior", "prior.json", "--nu0", "m.json", "--nuT", "m.json"]
    code, _, err = run_cli(argv, capsys)
    assert code == 0, err
    assert json.loads((outdir / "bridge.json").read_text())["horizon"] == 2
    code, _, err = run_cli(argv + ["--horizon", "3"], capsys)
    assert code == 1
    assert err == "error: time-varying prior has 2 step matrices but horizon is 3\n"


def test_bridge_emit_paths(outdir, capsys):
    _markov_prior_file(outdir / "prior.json")
    (outdir / "nu0.json").write_text(json.dumps([0.5, 0.3, 0.2]))
    (outdir / "nuT.json").write_text(json.dumps([0.2, 0.3, 0.5]))
    code, _, _ = run_cli(["bridge", "--prior", "prior.json", "--nu0", "nu0.json",
                          "--nuT", "nuT.json", "--horizon", "2",
                          "--emit-paths"], capsys)
    assert code == 0
    doc = json.loads((outdir / "bridge_paths.json").read_text())
    total = sum(e["prob"] for e in doc["entries"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_emit_paths_refuses_a_support_past_a_million_rows_before_listing(
        outdir, capsys, monkeypatch):
    """Four nodes, every step allowed, T=10: 4**11 (about 4.2 million) walks
    carry the law, and the refusal comes from their count, before the
    lister runs."""
    (outdir / "prior.json").write_text(json.dumps(
        {"type": "markov", "initial": [0.25] * 4, "matrix": np.ones((4, 4)).tolist()}))
    (outdir / "m.json").write_text(json.dumps([0.25] * 4))

    def refuse(*args):
        raise AssertionError("rows listed")

    monkeypatch.setattr(cli, "walks", refuse)
    code, _, err = run_cli(["bridge", "--prior", "prior.json", "--nu0", "m.json",
                            "--nuT", "m.json", "--horizon", "10", "--emit-paths"], capsys)
    assert code == 1
    assert err == ("error: path law support is too large to enumerate; "
                   "drop --emit-paths\n")


def test_bridge_infeasible_marginals(outdir, capsys):
    doc = {"type": "markov", "initial": [0.5, 0.5],
           "matrix": [[1.0, 0.0], [0.0, 1.0]]}   # two isolated loops
    (outdir / "prior.json").write_text(json.dumps(doc))
    (outdir / "nu0.json").write_text(json.dumps([1.0, 0.0]))
    (outdir / "nuT.json").write_text(json.dumps([0.0, 1.0]))
    code, _, err = run_cli(["bridge", "--prior", "prior.json",
                            "--nu0", "nu0.json", "--nuT", "nuT.json",
                            "--horizon", "2"], capsys)
    assert code == 1


def _bridge_two_nodes(outdir, capsys, prior, *extra):
    (outdir / "prior.json").write_text(json.dumps(prior))
    (outdir / "m.json").write_text(json.dumps([0.5, 0.5]))
    return run_cli(["bridge", "--prior", "prior.json", "--nu0", "m.json",
                    "--nuT", "m.json", *extra], capsys)


def test_bridge_refuses_a_zero_start_on_both_prior_forms(outdir, capsys):
    """No bridge puts mass at a start without prior mass, whichever form the
    prior is written in."""
    markov = {"type": "markov", "initial": [1, 0], "matrix": [[1, 1], [1, 1]]}
    paths = {"type": "paths", "horizon": 1, "n": 2,
             "paths": [[1, 1], [1, 2], [2, 1], [2, 2]], "weights": [1, 1, 0, 0]}
    code, _, err = _bridge_two_nodes(outdir, capsys, markov, "--horizon", "1")
    path_code, _, path_err = _bridge_two_nodes(outdir, capsys, paths)
    assert code == path_code == 1
    assert err == path_err
    assert "endpoint pair (2, 1) is identically zero" in err


def test_bridge_refuses_a_nan_start_weight(outdir, capsys):
    prior = {"type": "markov", "initial": [float("nan"), 1.0],
             "matrix": [[1, 1], [1, 1]]}
    code, _, err = _bridge_two_nodes(outdir, capsys, prior, "--horizon", "1")
    assert code == 1
    assert "initial law must be a nonnegative finite vector" in err


# ---------------------------------------------------------------------------
# approx
# ---------------------------------------------------------------------------


def _paths_prior_file(path):
    fx = fixtures.tiny_fixture()
    from iotnet import path_costs
    costs = path_costs(fx.space, fx.model, fx.network)
    w = np.exp(-costs / 0.5)
    doc = {"type": "paths", "horizon": 2, "n": 3,
           "paths": [list(p) for p in fx.space.paths],
           "weights": w.tolist()}
    path.write_text(json.dumps(doc))


def test_approx_fits_and_reloads(outdir, capsys):
    _paths_prior_file(outdir / "prior.json")
    code, out, _ = run_cli(["approx", "--prior", "prior.json"], capsys)
    assert code == 0
    doc = json.loads((outdir / "approx.json").read_text())
    assert doc["type"] == "markov"
    assert doc["fit_residual"] < 1e-20   # additive costs are exactly Markov
    reloaded = load_prior(str(outdir / "approx.json"))
    assert reloaded.n == 3


def test_approx_rejects_markov_prior(outdir, capsys):
    _markov_prior_file(outdir / "prior.json")
    code, _, err = run_cli(["approx", "--prior", "prior.json"], capsys)
    assert code == 1
    assert "Markov" in err


# ---------------------------------------------------------------------------
# robust-cert
# ---------------------------------------------------------------------------


def test_robust_cert_pipeline(outdir, capsys):
    code, _, _ = run_cli(["solve", "--network", "builtin:tiny",
                          "--alpha", "0.5", "--out", "plan.txt"], capsys)
    assert code == 0
    _uniform_qfile(outdir / "q.json")
    code, out, _ = run_cli(["robust-cert", "--plan", "plan.txt",
                            "--q-file", "q.json", "--epsilon", "0.25"], capsys)
    assert code == 0
    cert = json.loads((outdir / "robust_cert.json").read_text())
    plan = read_plan(str(outdir / "plan.txt"))
    expected = (plan["objective"]["expected_cost"]
                + 0.5 * plan["objective"]["kl_to_target"] + 0.25)
    assert cert["worst_case_cost"] == pytest.approx(expected, abs=1e-9)
    assert cert["epsilon"] == 0.25
    assert cert["alpha"] == 0.5   # inherited from the plan file


def test_robust_cert_ignores_target_paths_the_plan_file_dropped(outdir, capsys):
    # at this alpha some paths fall below PLAN_PROB_FLOOR and leave the file
    code, _, _ = run_cli(["solve", "--network", "builtin:tiny",
                          "--alpha", "0.03", "--out", "plan.txt"], capsys)
    assert code == 0
    plan = read_plan(str(outdir / "plan.txt"))
    assert len(plan["paths"][0]) < fixtures.tiny_fixture().space.size
    _uniform_qfile(outdir / "q.json")    # the target the plan was solved with
    code, _, err = run_cli(["robust-cert", "--plan", "plan.txt",
                            "--q-file", "q.json", "--epsilon", "0.25"], capsys)
    assert code == 0, err
    cert = json.loads((outdir / "robust_cert.json").read_text())
    assert cert["worst_case_cost"] == pytest.approx(
        plan["objective"]["total"] + 0.25, abs=1e-9)
    # rows foreign to the plan's network are skipped the same way, but Q is
    # the file's probabilities over their total: the space keeps 1/1.75 of it
    fx = fixtures.tiny_fixture()
    table = {p: 1.0 / fx.space.size for p in fx.space.paths}
    table.update({(9, 9, 9): 0.5, (1, 99, 3): 0.25})
    certs = []
    for scale in (1.0, 0.5):   # a file and its halved copy are one law
        save_path_distribution(str(outdir / "q.json"), 2,
                               {p: scale * q for p, q in table.items()})
        code, _, err = run_cli(["robust-cert", "--plan", "plan.txt",
                                "--q-file", "q.json", "--epsilon", "0.25"], capsys)
        assert code == 0, err
        certs.append(json.loads((outdir / "robust_cert.json").read_text()))
    assert certs[0] == certs[1]
    assert certs[0]["nominal_cost"] == cert["nominal_cost"]
    assert certs[0]["kl_term"] == pytest.approx(cert["kl_term"] + np.log(1.75),
                                                rel=1e-12)


@pytest.mark.parametrize("paths,entries", [
    ("1>2\t0.25\t1.5\n12>1\t0.75\t2.0\n", 2),
])
def test_robust_cert_file_is_the_indented_dump_of_its_content(outdir, capsys,
                                                              paths, entries):
    """The maximizer map is encoded apart from the rest of the certificate and
    spliced in; the file keeps the layout of one indented, key-sorted dump."""
    (outdir / "plan.txt").write_text(f"[meta]\nhorizon\t1\nalpha\t1.0\n[paths]\n{paths}")
    save_path_distribution(str(outdir / "q.json"), 1, {(1, 2): 0.5, (12, 1): 0.5})
    code, _, err = run_cli(["robust-cert", "--plan", "plan.txt",
                            "--q-file", "q.json", "--epsilon", "0.1"], capsys)
    assert code == 0, err
    text = (outdir / "robust_cert.json").read_text()
    cert = json.loads(text)
    assert len(cert["maximizer"]) == entries
    assert text == json.dumps(cert, indent=2, sort_keys=True) + "\n"


def test_robust_cert_maximizer_is_written_as_json_writes_it(outdir, capsys):
    """Where the target is the plan and epsilon is 0, the maximizer is each
    path's cost: costs from 1e-12 to 1e19 put it in every decade where repr
    and orjson lay digits out otherwise, 1e-05 written as 0.00001 among them."""
    costs = [1.2345 * 10.0 ** k for k in range(-12, 20)] + [-2.5e-5, 1e-5, 9.5e-5, 0.0]
    paths = [f"{1 + k % 9}>{1 + k // 9}" for k in range(len(costs))]
    (outdir / "plan.txt").write_text(
        "[meta]\nhorizon\t1\nalpha\t1.0\n[paths]\n"
        + "".join(f"{p}\t{1 / len(costs)!r}\t{c!r}\n" for p, c in zip(paths, costs)))
    save_path_distribution(str(outdir / "q.json"), 1,
                           {tuple(map(int, p.split(">"))): 1 / len(costs) for p in paths})
    code, _, err = run_cli(["robust-cert", "--plan", "plan.txt", "--q-file", "q.json",
                            "--epsilon", "0"], capsys)
    assert code == 0, err
    text = (outdir / "robust_cert.json").read_text()
    cert = json.loads(text)
    assert text == json.dumps(cert, indent=2, sort_keys=True) + "\n"
    assert sorted(cert["maximizer"].values()) == sorted(costs)


@pytest.mark.parametrize("q_prob, plan_cost, bad", [
    ("NaN", "1.5", "q.json: non-finite prob on (1, 2)"),
    ("Infinity", "1.5", "q.json: non-finite prob on (1, 2)"),
    ("0.5", "nan", "plan.txt: plan file has a non-finite cost on path 1>2"),
    ("0.5", "inf", "plan.txt: plan file has a non-finite cost on path 1>2"),
])
def test_robust_cert_refuses_non_finite_numbers(outdir, capsys, q_prob, plan_cost,
                                                bad):
    """A NaN or infinite number read from either input would reach the
    certificate as a NaN or infinite cost, which is no JSON."""
    (outdir / "plan.txt").write_text(
        f"[meta]\nhorizon\t1\nalpha\t1.0\n[paths]\n"
        f"1>2\t0.25\t{plan_cost}\n12>1\t0.75\t2.0\n")
    (outdir / "q.json").write_text(
        '{"horizon": 1, "entries": [{"path": [1, 2], "prob": %s}, '
        '{"path": [12, 1], "prob": 0.5}]}' % q_prob)
    code, _, err = run_cli(["robust-cert", "--plan", "plan.txt",
                            "--q-file", "q.json", "--epsilon", "0.1"], capsys)
    assert code == 1 and "Traceback" not in err
    assert err.strip().endswith(bad)
    assert not (outdir / "robust_cert.json").exists()


def test_solve_names_a_q_file_with_a_non_finite_prob(outdir, capsys):
    fx = fixtures.tiny_fixture()
    entries = [{"path": list(p), "prob": 1.0 / fx.space.size} for p in fx.space.paths]
    entries[3]["prob"] = float("nan")
    (outdir / "q.json").write_text(json.dumps({"horizon": 2, "entries": entries}))
    code, _, err = run_cli(_TINY + ["--q-file", "q.json"], capsys)
    assert code == 1
    assert err.strip() == (f"error: path distribution q.json: non-finite prob on "
                           f"{fx.space.paths[3]}")


def test_robust_cert_unknown_paths_rejected(outdir, capsys):
    code, _, _ = run_cli(["solve", "--network", "builtin:tiny",
                          "--alpha", "0.5", "--out", "plan.txt"], capsys)
    assert code == 0
    # the target's one path leaves the plan's other paths outside its support
    save_path_distribution(str(outdir / "q.json"), 2, {(1, 2, 3): 1.0})
    code, _, err = run_cli(["robust-cert", "--plan", "plan.txt",
                            "--q-file", "q.json", "--epsilon", "0.1"], capsys)
    assert code == 1
    assert "outside the target support" in err


# ---------------------------------------------------------------------------
# scenario
# ---------------------------------------------------------------------------


def test_scenario_command_emits_reports(outdir, capsys):
    (outdir / "sc.json").write_text(json.dumps(
        {"network": "builtin:risk30", "T": 3, "alpha": 40.0,
         "scenario": {"kind": "risk"}}))
    code, out, _ = run_cli(["scenario", "--spec", "sc.json",
                            "--out-dir", "rep"], capsys)
    assert code == 0
    files = sorted(os.listdir(outdir / "rep"))
    assert "report_summary.txt" in files
    assert "report_disaster.csv" in files
    assert "imitation_after" in out and "optimal_after" in out


def test_scenario_missing_spec_file(outdir, capsys):
    code, _, err = run_cli(["scenario", "--spec", "missing.json"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# oracle check
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("fixture", ["tiny", "four", "synthetic30", "risk30"])
def test_oracle_check_small_fixtures(outdir, capsys, fixture):
    """Every fixture passes the dense IPF and marginal checks; the LP bound
    is checked on the two small ones only."""
    code, out, _ = run_cli(["oracle", "check", "--fixture", fixture], capsys)
    assert code == 0
    assert "ok ipf-vs-bridge" in out
    assert "ok marginal-gaps" in out
    if fixture in ("tiny", "four"):
        assert "ok lp-lower-bound" in out
    else:
        assert "lp-lower-bound" not in out
    assert "FAIL" not in out


def test_oracle_check_unknown_fixture(outdir, capsys):
    code, _, err = run_cli(["oracle", "check", "--fixture", "bogus"], capsys)
    assert code == 1


# ---------------------------------------------------------------------------
# malformed input files
# ---------------------------------------------------------------------------


def _network_file(path, cost_rules):
    network, ruled = fixtures.four_node_fixture()
    save_network(network, str(path), ruled=ruled)
    doc = json.loads(path.read_text())
    doc["cost_rules"] = cost_rules
    path.write_text(json.dumps(doc))


_TINY = ["solve", "--network", "builtin:tiny", "--alpha", "0.5"]
_RISK_SPEC = {"network": "builtin:risk30", "T": 3, "alpha": 40.0,
              "scenario": {"kind": "risk"}}
_SCENARIO = ["scenario", "--spec", "s.json", "--out-dir", "out"]
_CERT = ["robust-cert", "--plan", "plan.txt", "--q-file", "q.json", "--epsilon", "0.1"]


@pytest.mark.parametrize("name, doc, argv", [
    ("q.json", {"horizon": "x", "entries": []}, _TINY + ["--q-file", "q.json"]),
    ("m.json", ["a", 0.5, 0.5], _TINY + ["--nu0", "m.json"]),
    ("m.json", {"x": 1.0}, _TINY + ["--nu0", "m.json"]),
    ("rq.json", {"default": "heavy"}, _TINY + ["--rq-file", "rq.json"]),
    ("rq.json", {"matrix": [["a", 1, 1], [1, 1, 1], [1, 1, 1]]},
     _TINY + ["--rq-file", "rq.json"]),
    ("p.json", {"type": "paths", "horizon": 1, "n": "z", "paths": [[1, 2]],
                "weights": [1.0]}, ["approx", "--prior", "p.json"]),
    ("net.json", {"switch_penalty_km": "big"},
     ["solve", "--network", "net.json", "--alpha", "1", "--horizon", "2"]),
    ("s.json", dict(_RISK_SPEC, T="3"), _SCENARIO),
    ("plan.txt", "[meta]\nhorizon\t1\n", _CERT),
    ("plan.txt", "[meta]\nhorizon\t1\n[paths]\n1>2\t1.0\t0.5\n", _CERT),
    ("plan.txt", "[meta]\nalpha\t1.0\n[paths]\n1>2\t0.5\t0.5\n", _CERT),
    # values a reader takes, which the run then refuses
    ("s.json", dict(_RISK_SPEC, supply={"1": -1, "8": 2}, demand={"2": 1}), _SCENARIO),
    ("s.json", dict(_RISK_SPEC, supply={"8": 1}, demand={"99": 1}), _SCENARIO),
    ("s.json", dict(_RISK_SPEC, network={
        "nodes": [{"id": 1, "x_km": 0, "y_km": 0}, {"id": 2, "x_km": True, "y_km": 0}],
        "edges": [{"from": 1, "to": 2, "kind": "local"}]},
        supply={"1": 1}, demand={"2": 1}), _SCENARIO),
    ("s.json", {"network": "builtin:synthetic30", "T": 3, "alpha": 50.0,
                "scenario": {"kind": "imitation", "q_star": "builtin", "beta": 1.5}},
     _SCENARIO),
    ("s.json", dict(_RISK_SPEC, alpha=-4.0), _SCENARIO),
    ("q.json", {"horizon": 2, "entries": [{"path": [9, 9, 9], "prob": 1.0}]},
     _TINY + ["--q-file", "q.json"]),
    ("q.json", {"horizon": 2, "entries": 5}, _TINY + ["--q-file", "q.json"]),
    ("rq.json", {"default": 1.0, "entries": 5},
     _TINY + ["--cost", "markov", "--rq-file", "rq.json"]),
    # a UTF-16 byte-order mark: no UTF-8 text starts with the byte ff
    ("m.json", b"\xff\xfe[0.5, 0.5]", _TINY + ["--nu0", "m.json"]),
    # 31-digit integers: a node id no int64 holds, a node count no table fits
    ("s.json", dict(_RISK_SPEC, scenario={"kind": "risk", "affected": [[10**30, 2]]}),
     _SCENARIO),
    ("p.json", {"type": "paths", "horizon": 1, "n": 10**30, "paths": [[1, 2]],
                "weights": [1.0]}, ["approx", "--prior", "p.json"]),
], ids=["q-horizon", "marginal-entry", "marginal-key", "rq-default",
        "rq-matrix-entry", "prior-n", "network-cost-rule", "scenario-T-text",
        "plan-no-paths", "plan-no-alpha", "plan-half-mass", "scenario-negative-supply",
        "scenario-unknown-demand-node", "scenario-inline-network", "scenario-blend",
        "scenario-alpha", "q-outside-the-space", "q-entries-not-a-list",
        "rq-entries-not-a-list", "marginal-not-utf8", "scenario-affected-huge-id",
        "prior-huge-n"])
def test_malformed_files_are_refused_with_an_error_naming_them(outdir, capsys,
                                                               name, doc, argv):
    if name == "net.json":
        _network_file(outdir / name, doc)
    elif isinstance(doc, bytes):
        (outdir / name).write_bytes(doc)
    else:
        (outdir / name).write_text(doc if isinstance(doc, str) else json.dumps(doc))
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "Traceback" not in err
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and name in lines[0]


_KIND = {"m.json": "marginal", "q.json": "path distribution", "rq.json": "step weights",
         "p.json": "prior", "net.json": "network file", "s.json": "scenario"}


@pytest.mark.parametrize("name, argv", [
    ("m.json", _TINY + ["--nu0", "m.json"]),
    ("q.json", _TINY + ["--q-file", "q.json"]),
    ("rq.json", _TINY + ["--rq-file", "rq.json"]),
    ("p.json", ["approx", "--prior", "p.json"]),
    ("net.json", ["solve", "--network", "net.json", "--alpha", "1", "--horizon", "2"]),
    ("s.json", _SCENARIO),
], ids=["marginal", "q-file", "rq-file", "prior", "network", "scenario"])
def test_json_nested_past_the_decoders_depth_is_refused_by_name(outdir, capsys, name,
                                                                argv):
    """A document of 100,000 nested arrays, which the json decoder cannot
    recurse through, is one error naming the file, not a traceback."""
    (outdir / name).write_text("[" * 100_000)
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err == f"error: {_KIND[name]} {name}: JSON nested too deeply to read\n"


@pytest.mark.parametrize("name, doc, argv, message", [
    ("m.json", {"1": 0.5, "01": 0.5, "2": 0.5}, _TINY + ["--nu0", "m.json"],
     "marginal m.json: node 1 is named twice"),
    ("rq.json", {"default": 1.0, "entries": [[1, 1, 5.0], [1, 1, 0.5]]},
     _TINY + ["--rq-file", "rq.json"], "step weights rq.json: pair (1,1) is named twice"),
    ("s.json", dict(_RISK_SPEC, supply={"8": 1.0, "08": 1.0}, demand={"3": 1.0}),
     _SCENARIO, "scenario s.json: supply: node 8 is named twice"),
    ("s.json", dict(_RISK_SPEC, supply={"8": 1.0}, demand={"3": 1.0, "03": 1.0}),
     _SCENARIO, "scenario s.json: demand: node 3 is named twice"),
    ("s.json", dict(_RISK_SPEC, disaster={"edges": [[7, 9], [7, 9]]}), _SCENARIO,
     "scenario s.json: disaster.edges is malformed: pair (7,9) is named twice"),
    ("s.json", dict(_RISK_SPEC, scenario={"kind": "risk", "affected": [[7, 9], [7, 9]]}),
     _SCENARIO, "scenario s.json: affected is malformed: pair (7,9) is named twice"),
], ids=["marginal", "rq-entries", "supply", "demand", "disaster-edges", "affected"])
def test_a_node_or_pair_named_twice_is_refused(outdir, capsys, name, doc, argv,
                                               message):
    """The later entry would win, or a disaster edge be multiplied twice."""
    (outdir / name).write_text(json.dumps(doc))
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("miss", ["outside", "off-edge"])
@pytest.mark.parametrize("field", ["affected", "disaster.edges"])
def test_a_risk_pair_off_the_network_is_refused_by_name(outdir, capsys, field, miss):
    """An affected pair or a disaster edge that is no edge of the network
    (outside ``1..n``, or a pair of nodes without an edge) would weigh or
    reprice nothing, and the disaster would be a silent no-op."""
    mask = fixtures.risk30(0).network.edge_mask
    edge, off_edge = (np.argwhere(m)[0] + 1 for m in (mask, ~mask))
    pair = [99, 2] if miss == "outside" else off_edge.tolist()
    fields = {"affected": [edge.tolist()], "disaster.edges": [edge.tolist()]}
    fields[field] = [edge.tolist(), pair]
    (outdir / "s.json").write_text(json.dumps(dict(
        _RISK_SPEC, scenario={"kind": "risk", "affected": fields["affected"]},
        disaster={"edges": fields["disaster.edges"]})))
    code, _, err = run_cli(_SCENARIO, capsys)
    assert code == 1
    assert err == (f"error: scenario s.json: {field} pair ({pair[0]}, {pair[1]}) "
                   f"is not an edge of the network\n")


@pytest.mark.parametrize("block, name, doc, detail", [
    ({"kind": "risk", "rq_file": "rq.json"}, "rq.json", {"default": -1.0},
     "step weights {}: negative weight"),
    ({"kind": "imitation", "q_star": "q.json"}, "q.json",
     {"horizon": 2, "entries": [{"path": [1, 2, 3], "prob": 1.0}]},
     "path distribution {}: horizon 2 != problem horizon 3"),
    ({"kind": "imitation", "q_star": "q.json"}, "q.json",
     {"horizon": 3, "entries": [{"path": [1, 1, 1, 1], "prob": -1.0}]},
     "path distribution {}: negative prob on (1, 1, 1, 1)"),
], ids=["rq-file", "q-file-horizon", "q-file-prob"])
def test_an_error_in_a_file_a_scenario_names_names_both(outdir, capsys, block,
                                                       name, doc, detail):
    """The scenario's name comes first, then the referenced file's, which is
    read from the scenario's directory."""
    (outdir / "sub").mkdir()
    spec = {"network": "builtin:synthetic30", "T": 3, "alpha": 50.0, "scenario": block}
    if block["kind"] == "risk":
        spec["network"] = "builtin:risk30"
    (outdir / "sub" / "s.json").write_text(json.dumps(spec))
    (outdir / "sub" / name).write_text(json.dumps(doc))
    code, _, err = run_cli(["scenario", "--spec", "sub/s.json"], capsys)
    assert code == 1
    referenced = str(outdir / "sub" / name)
    assert err == f"error: scenario sub/s.json: {detail.format(referenced)}\n"


def test_robust_cert_refuses_a_plan_alpha_that_is_no_number(outdir, capsys):
    assert run_cli(["solve", "--network", "builtin:tiny", "--alpha", "0.5",
                    "--out", "plan.txt"], capsys)[0] == 0
    text = (outdir / "plan.txt").read_text()
    (outdir / "plan.txt").write_text(text.replace("alpha\t0.5", "alpha\tabc"))
    save_path_distribution("q.json", 2, {(1, 2, 3): 1.0})
    code, _, err = run_cli(["robust-cert", "--plan", "plan.txt", "--q-file", "q.json",
                            "--epsilon", "0.1"], capsys)
    assert code == 1 and "Traceback" not in err
    assert err.strip() == ("error: plan plan.txt: alpha is malformed: could not "
                           "convert string to float: 'abc'")


@pytest.mark.parametrize("command", ["bridge", "approx"])
@pytest.mark.parametrize("path", [[1, 3], [0, 1]], ids=["above-n", "zero"])
def test_path_prior_ids_outside_the_nodes_are_refused(outdir, capsys, command, path):
    doc = {"type": "paths", "horizon": 1, "n": 2, "paths": [[1, 2], path],
           "weights": [0.5, 0.5]}
    (outdir / "p.json").write_text(json.dumps(doc))
    (outdir / "m.json").write_text(json.dumps([0.5, 0.5]))
    argv = ["approx", "--prior", "p.json"] if command == "approx" else [
        "bridge", "--prior", "p.json", "--nu0", "m.json", "--nuT", "m.json"]
    code, _, err = run_cli(argv, capsys)
    assert code == 1
    assert "outside 1..2" in err.strip().splitlines()[-1]


# ---------------------------------------------------------------------------
# process-level costs: one parser, no scipy
# ---------------------------------------------------------------------------


def test_main_reuses_one_parser_without_leaking_flags(outdir, capsys,
                                                      monkeypatch):
    """Flags given to one call leave the next call's defaults alone."""
    solve = ["solve", "--network", "builtin:synthetic30", "--horizon", "3",
             "--alpha", "20"]
    first = ["--seed", "3", *solve, "--tol", "1e-6", "--out", "first.txt"]
    second = [*solve, "--out", "second.txt"]

    def both_calls():
        runs = [run_cli(first, capsys), run_cli(second, capsys)]
        return runs, [(outdir / name).read_text()
                       for name in ("first.txt", "second.txt")]

    reused = both_calls()
    assert cli.build_parser() is cli.build_parser()
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = both_calls()
    assert reused == fresh
    assert [code for code, _, _ in reused[0]] == [0, 0]
    assert reused[1][0] != reused[1][1]   # the seed and tol took effect


def test_a_handler_replaced_after_the_first_call_runs(outdir, capsys,
                                                      monkeypatch):
    """The one parser names its handlers, so wrappers installed later apply."""
    argv = ["solve", "--network", "builtin:tiny", "--alpha", "0.5"]
    assert run_cli(argv, capsys)[0] == 0
    seen = []
    monkeypatch.setattr(cli, "_cmd_solve",
                        lambda args: seen.append(args.command) or 0)
    assert run_cli(argv, capsys)[0] == 0
    assert seen == ["solve"]


def test_importing_the_cli_loads_no_scipy():
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [
               src, os.environ.get("PYTHONPATH")]))}
    probe = ("import sys, iotnet, iotnet.cli; "
             "print(sorted(m for m in sys.modules "
             "if m == 'scipy' or m.startswith('scipy.')))")
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, timeout=60,
                          check=True)
    assert done.stdout.strip() == "[]"
