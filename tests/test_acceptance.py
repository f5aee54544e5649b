"""Acceptance suite: one end-to-end check per shipped guarantee.

Each test pins a single headline property of the package at an explicit
tolerance — objective equivalences, oracle agreement, limiting behaviour,
approximation quality, speed, scenario economics, and CLI determinism — so
``pytest -v`` reads as a one-line-per-guarantee report.
"""

import json
import os
import time

import numpy as np
import pytest

import iotnet as io
from iotnet import fixtures
from iotnet.approx import fit_markov, fit_objective_error, fitted_prior, markov_plan_from_fit
from iotnet.bridge import (
    MarkovPrior,
    PathPrior,
    markov_path_law,
    path_law_from_endpoint,
    sinkhorn_markov,
    sinkhorn_path,
)
from iotnet.chain import logs
from iotnet.cli import main
from iotnet.imitation import ImitationTarget, IOTProblem, expand_target, solve_iot
from iotnet.oracle import dense_ipf, lp_ot
from iotnet.robust import robust_membership, worst_case_certificate
from iotnet.scenario import load_scenario, run_scenario

from helpers import feasible_laws, marginal_gap, tv, uniform_problem


def _uniform_tilt(costs: np.ndarray, alpha: float) -> np.ndarray:
    """Cost-tilted uniform weights, shifted so the cheapest path has weight 1."""
    w = np.exp(-(costs - costs.min()) / alpha)
    return w / w.sum()


# ---------------------------------------------------------------------------
# 1. the imitation objective is a bridge divergence plus a constant
# ---------------------------------------------------------------------------


def test_01_objective_equals_tilted_bridge_divergence():
    """cost + alpha*KL(P|Q) differs from alpha*KL(P|tilted Q) by a constant.

    The difference must not depend on the feasible plan P: over 50 random
    feasible laws per problem its sample std stays below 1e-8.
    """
    rng = np.random.default_rng(11)
    start = time.perf_counter()
    for _ in range(10):
        d = fixtures.random_markov_problem(rng)
        space = d["space"]
        costs = io.path_costs(space, d["model"], d["network"])
        target = ImitationTarget.markov(d["target_matrix"], d["target_initial"])
        q = np.exp(expand_target(target, space))
        alpha = d["alpha"]
        m = q * np.exp(-(costs - costs.min()) / alpha)
        m /= m.sum()
        gaps = []
        for law in feasible_laws(space, d["nu0"], d["nuT"], rng, 50):
            pos = law > 0
            kl_m = float(np.sum(law[pos] * np.log(law[pos] / m[pos])))
            kl_q = float(np.sum(law[pos] * np.log(law[pos] / q[pos])))
            gaps.append(alpha * kl_m - (float(costs @ law) + alpha * kl_q))
        assert float(np.std(gaps)) < 1e-8
    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# 2. closed-form worst-case certificate
# ---------------------------------------------------------------------------


def test_02_worst_case_certificate_bounds_sampled_adversaries():
    """worst case = nominal + alpha*KL + epsilon, and no sampled member beats it.

    The identity holds to 1e-9; 1000 rejection-sampled cost vectors from the
    adversary's ball never push the plan's cost above the certificate.
    """
    start = time.perf_counter()
    fx = fixtures.tiny_fixture()
    alpha, epsilon = 0.5, 0.25
    plan = solve_iot(uniform_problem(fx, alpha))
    costs = plan.path_costs
    log_q = plan.target_log_probs
    cert = worst_case_certificate(plan.path_law, costs, log_q, alpha, epsilon)

    closed_form = (plan.objective.expected_cost
                   + alpha * plan.objective.kl_to_target + epsilon)
    assert cert.worst_case_cost == pytest.approx(closed_form, abs=1e-9)

    rng = np.random.default_rng(7)
    members = rejected = 0
    while members < 1000:
        c_tilde = costs + rng.uniform(-1.0, 1.0, size=costs.size)
        if robust_membership(c_tilde, costs, log_q, alpha, epsilon):
            members += 1
            assert float(plan.path_law @ c_tilde) <= cert.worst_case_cost + 1e-9
        else:
            rejected += 1
    assert rejected > 0   # the band genuinely straddles the ball's boundary
    assert time.perf_counter() - start < 10.0


# ---------------------------------------------------------------------------
# 3. scaling bridge equals the dense IPF oracle
# ---------------------------------------------------------------------------


def test_03_bridge_matches_dense_ipf_oracle(synth30, risk30):
    """Path-route bridges agree with dense IPF to 1e-8 TV on every fixture.

    Covers the tiny problem, five random problems, and both 30-node problems
    (all path spaces below 10^4 paths); marginal gaps stay under 10x the
    solver tolerance.
    """
    kappa = 1e-10
    rng = np.random.default_rng(23)
    cases = []

    fx = fixtures.tiny_fixture()
    costs = io.path_costs(fx.space, fx.model, fx.network)
    cases.append((fx.space, _uniform_tilt(costs, 0.5), fx.nu0, fx.nuT))

    for _ in range(5):
        d = fixtures.random_markov_problem(rng)
        costs = io.path_costs(d["space"], d["model"], d["network"])
        target = ImitationTarget.markov(d["target_matrix"], d["target_initial"])
        q = np.exp(expand_target(target, d["space"]))
        w = q * np.exp(-(costs - costs.min()) / d["alpha"])
        cases.append((d["space"], w, d["nu0"], d["nuT"]))

    cases.append((synth30["space"], _uniform_tilt(synth30["costs"], 80.0),
                  synth30["nu0"], synth30["nuT"]))
    risk_costs = io.path_costs(risk30["space"], risk30["fx"].ruled,
                               risk30["fx"].network)
    cases.append((risk30["space"], _uniform_tilt(risk_costs, 40.0),
                  risk30["nu0"], risk30["nuT"]))

    start = time.perf_counter()
    for space, weights, nu0, nuT in cases:
        assert space.size <= 10_000
        prior = PathPrior(path_space=space, log_weights=logs(weights))
        sol = sinkhorn_path(prior, nu0, nuT, tol=kappa)
        law = path_law_from_endpoint(sol, prior)
        oracle = dense_ipf(space, weights, nu0, nuT, tol=kappa).probabilities
        assert tv(law, oracle) < 1e-8
        assert marginal_gap(space, law, nu0, nuT) < 10 * kappa
    assert time.perf_counter() - start < 30.0


# ---------------------------------------------------------------------------
# 4. uniform target reduces to maximum-entropy transport
# ---------------------------------------------------------------------------


def test_04_uniform_target_is_entropic_transport():
    """Imitating the uniform law equals bridging the spectral walk prior.

    On five random problems the two plans agree within 1e-8 total variation.
    """
    rng = np.random.default_rng(31)
    for _ in range(5):
        d = fixtures.random_markov_problem(rng)
        problem = IOTProblem(network=d["network"], cost_model=d["model"],
                             horizon=d["space"].horizon, nu0=d["nu0"], nuT=d["nuT"],
                             alpha=d["alpha"],
                             target=ImitationTarget.uniform())
        plan = solve_iot(problem, force_path=True)
        rb = io.build_rb_prior(d["model"], d["alpha"], d["network"].n)
        walk = MarkovPrior(initial=rb.node_weights, log_steps=logs(rb.transitions))
        sol = sinkhorn_markov(walk, d["nu0"], d["nuT"], problem.horizon)
        assert tv(plan.path_law, markov_path_law(sol, d["nu0"], plan.path_space)) < 1e-8


# ---------------------------------------------------------------------------
# 5. vanishing regularisation recovers the linear program
# ---------------------------------------------------------------------------


def test_05_small_alpha_approaches_lp_and_cost_is_monotone():
    """At alpha = 1e-3 x cost scale the plan's cost is within 1% of the LP.

    The expected cost is nondecreasing in alpha across a five-point grid.
    """
    fx = fixtures.tiny_fixture()
    costs = io.path_costs(fx.space, fx.model, fx.network)
    lp = lp_ot(fx.space, costs, fx.nu0, fx.nuT)

    alpha = 1e-3 * float(costs.max())
    plan = solve_iot(uniform_problem(fx, alpha))
    rel = abs(plan.objective.expected_cost - lp.objective) / abs(lp.objective)
    assert rel < 0.01

    grid = [0.01, 0.1, 1.0, 10.0, 100.0]
    cost_terms = [solve_iot(uniform_problem(fx, a)).objective.expected_cost
                  for a in grid]
    for lo, hi in zip(cost_terms, cost_terms[1:]):
        assert hi >= lo - 1e-9


# ---------------------------------------------------------------------------
# 6. Markov approximation: exact recovery and honest error reporting
# ---------------------------------------------------------------------------


def test_06_markov_fit_recovery_and_reported_error(synth30):
    """Markov priors are recovered exactly; non-Markov fit error is honest.

    Exactly-Markov path priors fit with residual < 1e-10 and reproduce the
    bridge plan within 1e-8 TV.  On the 30-node ruled problem the reported
    relative objective error matches direct recomputation to 1e-10.
    """
    rng = np.random.default_rng(41)
    for _ in range(5):
        d = fixtures.random_markov_problem(rng)
        space = d["space"]
        init, mat = d["target_initial"], d["target_matrix"]
        w = init[space.array[:, 0] - 1].copy()
        for t in range(space.horizon):
            w *= mat[space.array[:, t] - 1, space.array[:, t + 1] - 1]
        fit = fit_markov(PathPrior(path_space=space, log_weights=logs(w)))
        assert fit.residual < 1e-10
        solA = sinkhorn_markov(MarkovPrior(initial=init, log_steps=logs(mat)),
                               d["nu0"], d["nuT"], space.horizon, tol=1e-12)
        solB = sinkhorn_markov(fitted_prior(fit), d["nu0"], d["nuT"],
                               space.horizon, tol=1e-12)
        assert tv(markov_path_law(solA, d["nu0"], space),
                  markov_path_law(solB, d["nu0"], space)) < 1e-8

    space = synth30["space"]
    problem = IOTProblem(network=synth30["fx"].network,
                         cost_model=synth30["fx"].ruled, horizon=synth30["fx"].horizon,
                         nu0=synth30["nu0"], nuT=synth30["nuT"], alpha=80.0,
                         target=ImitationTarget.uniform())
    exact = solve_iot(problem)
    tilt = _uniform_tilt(synth30["costs"], 80.0)
    fit = fit_markov(PathPrior(path_space=space, log_weights=logs(tilt)))
    err = fit_objective_error(fit, problem, exact)
    approx_plan = markov_plan_from_fit(fit, problem)
    recomputed = abs(approx_plan.objective.total - exact.objective.total) / abs(
        exact.objective.total)
    assert err == pytest.approx(recomputed, abs=1e-10)


# ---------------------------------------------------------------------------
# 7. the factored route is an order of magnitude faster than dense LP
# ---------------------------------------------------------------------------


def test_07_factored_route_outpaces_dense_lp(synth30):
    """Marginalize-then-scale beats the dense LP by >= 10x on 3x10^3 paths.

    Both solvers consume the same pre-enumerated inputs; only solver time is
    measured, and only the ordering and the 10x floor are asserted.
    """
    space, costs = synth30["space"], synth30["costs"]
    nu0, nuT = synth30["nu0"], synth30["nuT"]
    weights = _uniform_tilt(costs, 80.0)

    def best_of_three(solver):
        times, result = [], None
        for _ in range(3):
            t0 = time.perf_counter()
            result = solver()
            times.append(time.perf_counter() - t0)
        return min(times), result

    def bridge_route():
        prior = PathPrior(path_space=space, log_weights=logs(weights))
        sol = sinkhorn_path(prior, nu0, nuT, tol=1e-10)
        return path_law_from_endpoint(sol, prior)

    start = time.perf_counter()
    bridge_time, law = best_of_three(bridge_route)
    lp_time, lp = best_of_three(lambda: lp_ot(space, costs, nu0, nuT))

    assert law.shape == lp.probabilities.shape   # both solved the same space
    assert lp_time > bridge_time
    assert lp_time / bridge_time >= 10.0
    assert time.perf_counter() - start < 120.0


# ---------------------------------------------------------------------------
# 8. risk-shaped plans pay off once the disaster hits
# ---------------------------------------------------------------------------


def test_08_risk_scenario_direction_and_cut_node_delta(tmp_path):
    """Under a ten-fold disruption the imitation plan costs less than the LP.

    The fully-cut destination's before/after cost delta is plan-independent
    within 1e-6: every plan must route its demand through the same gateway.
    """
    spec_file = tmp_path / "risk.json"
    spec_file.write_text(json.dumps(
        {"network": "builtin:risk30", "T": 3, "alpha": 40.0,
         "scenario": {"kind": "risk"}}))
    result = run_scenario(load_scenario(str(spec_file)), seed=0, tol=1e-12)

    dis = result.disaster
    assert dis is not None and dis.multiplier == 10.0
    assert dis.imitation_total_after <= dis.optimal_total_after + 1e-9

    cut = fixtures.risk30(0).cut_node
    row = next(r for r in dis.rows if r.node == cut)
    assert abs(row.imitation_delta - row.optimal_delta) < 1e-6


# ---------------------------------------------------------------------------
# 9. every command is byte-deterministic under a fixed seed
# ---------------------------------------------------------------------------


def _run_in(workdir, args, capsys):
    prev = os.getcwd()
    os.chdir(workdir)
    try:
        try:
            code = main(list(args))
        except SystemExit as exc:
            code = int(exc.code)
    finally:
        os.chdir(prev)
    out, err = capsys.readouterr()
    return code, out, err


def _snapshot(workdir) -> dict:
    files = {}
    for root, _dirs, names in os.walk(workdir):
        for name in names:
            full = os.path.join(root, name)
            files[os.path.relpath(full, workdir)] = open(full, "rb").read()
    return files


def _seed_inputs(workdir):
    fx = fixtures.tiny_fixture()
    table = {p: 1.0 / fx.space.size for p in fx.space.paths}
    io.save_path_distribution(str(workdir / "q.json"), 2, table)
    (workdir / "mprior.json").write_text(json.dumps(
        {"type": "markov", "initial": [1 / 3, 1 / 3, 1 / 3],
         "matrix": [[0.2, 0.5, 0.3], [0.4, 0.2, 0.4], [0.5, 0.3, 0.2]]}))
    costs = io.path_costs(fx.space, fx.model, fx.network)
    w = np.exp(-costs / 0.5)
    (workdir / "pprior.json").write_text(json.dumps(
        {"type": "paths", "horizon": 2, "n": 3,
         "paths": [list(p) for p in fx.space.paths], "weights": w.tolist()}))
    (workdir / "nu0.json").write_text(json.dumps([0.5, 0.3, 0.2]))
    (workdir / "nuT.json").write_text(json.dumps([0.2, 0.3, 0.5]))
    (workdir / "risk.json").write_text(json.dumps(
        {"network": "builtin:risk30", "T": 3, "alpha": 40.0,
         "scenario": {"kind": "risk"}}))


COMMANDS = [
    ["--seed", "0", "solve", "--network", "builtin:tiny", "--alpha", "0.5",
     "--q-file", "q.json", "--beta", "0.1"],
    ["--seed", "0", "rbwalk", "--network", "builtin:tiny", "--alpha", "0.5"],
    ["--seed", "0", "bridge", "--prior", "mprior.json", "--nu0", "nu0.json",
     "--nuT", "nuT.json", "--horizon", "2", "--emit-paths"],
    ["--seed", "0", "approx", "--prior", "pprior.json"],
    ["--seed", "0", "robust-cert", "--plan", "plan.txt", "--q-file", "q.json",
     "--epsilon", "0.25"],
    ["--seed", "0", "scenario", "--spec", "risk.json", "--out-dir", "reports"],
    ["--seed", "0", "oracle", "check", "--fixture", "tiny"],
]


def test_09_cli_outputs_are_byte_deterministic(tmp_path, capsys):
    """Running every command twice with the same seed yields identical bytes.

    Each subcommand runs in two fresh directories with identical inputs; exit
    codes, stdout, stderr, and every emitted file must match exactly.  The
    robust-cert step consumes the plan written by the solve step, so the whole
    pipeline is replayed in order.
    """
    transcripts = []
    for run in ("a", "b"):
        workdir = tmp_path / run
        workdir.mkdir()
        _seed_inputs(workdir)
        log = []
        for args in COMMANDS:
            code, out, err = _run_in(workdir, args, capsys)
            assert code == 0, f"{args} failed: {err}"
            log.append((tuple(args), code, out, err))
        transcripts.append((log, _snapshot(workdir)))

    (log_a, files_a), (log_b, files_b) = transcripts
    assert log_a == log_b
    assert sorted(files_a) == sorted(files_b)
    for name in files_a:
        assert files_a[name] == files_b[name], f"{name} differs between runs"
