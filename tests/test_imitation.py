"""Imitation targets, tilted priors, and the end-to-end solver."""

import numpy as np
import pytest

from iotnet import (
    ImitationTarget,
    IOTProblem,
    ValidationError,
    blend_log_law,
    build_rb_prior,
    dense_ipf,
    expand_target,
    imitation_prior_markov,
    imitation_prior_paths,
    path_costs,
    log_weight_matrix,
    solve_iot,
)
from iotnet import fixtures
from iotnet.bridge import markov_path_law, sinkhorn_markov
from iotnet.bridge import MarkovPrior
from iotnet.chain import logs

from helpers import (feasible_laws, marginal_gap, objective_eval, tv,
                     uniform_problem)


# ---------------------------------------------------------------------------
# targets and blending
# ---------------------------------------------------------------------------


def test_blend_point_mass_worked_example():
    q = np.array([1.0, 0.0, 0.0, 0.0])
    out = np.exp(blend_log_law(logs(q), 0.1))
    assert np.allclose(out, [0.925, 0.025, 0.025, 0.025], atol=1e-15)
    assert out.sum() == pytest.approx(1.0, abs=1e-15)


def test_blend_zero_and_one_are_endpoints():
    log_q = logs(np.array([0.7, 0.3, 0.0, 0.0]))
    assert blend_log_law(log_q, 0.0) is log_q
    assert np.allclose(np.exp(blend_log_law(log_q, 1.0)), 0.25)
    with pytest.raises(ValidationError):
        blend_log_law(log_q, 1.5)


def test_blend_in_logs_is_the_linear_blend():
    """The log blend is the log of ``(1-beta) q + beta / N`` to rounding."""
    q = np.random.default_rng(3).uniform(0.0, 1.0, 50)
    q /= q.sum()
    for beta in (1e-9, 0.1, 0.5, 0.999):
        assert np.allclose(np.exp(blend_log_law(np.log(q), beta)),
                           (1.0 - beta) * q + beta / q.size, rtol=1e-14, atol=0.0)


def test_a_target_takes_at_most_one_form(tiny):
    assert np.array_equal(expand_target(ImitationTarget(), tiny.space),
                          np.full(27, np.log(1.0 / 27.0)))
    with pytest.raises(ValidationError, match="at most one"):
        ImitationTarget(matrix=np.eye(2), rows=[[1, 2]], probs=[1.0])


def test_markov_target_owns_its_uniform_default_start_law():
    target = ImitationTarget.markov(np.ones((4, 4)))
    assert np.array_equal(target.initial, np.full(4, 0.25))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_markov_target_refuses_non_finite_start_weights(bad):
    with pytest.raises(ValidationError, match="finite"):
        ImitationTarget.markov(np.ones((2, 2)), [bad, 1.0])


def test_problem_refuses_a_markov_target_of_another_size(tiny):
    with pytest.raises(ValidationError, match="4x4 but the problem has 3 nodes"):
        IOTProblem(network=tiny.network, cost_model=tiny.model, nu0=tiny.nu0,
                   nuT=tiny.nuT, alpha=0.5, horizon=2,
                   target=ImitationTarget.markov(np.ones((4, 4))))


def test_expand_target_markov_products(tiny):
    rng = np.random.default_rng(2)
    mat = rng.uniform(0.1, 1.0, size=(3, 3))
    mat /= mat.sum(axis=1, keepdims=True)
    init = np.array([0.2, 0.3, 0.5])
    q = np.exp(expand_target(ImitationTarget.markov(mat, init), tiny.space))
    for k, p in enumerate(tiny.space.paths):
        ref = init[p[0] - 1]
        for a, b in zip(p, p[1:]):
            ref *= mat[a - 1, b - 1]
        assert q[k] == pytest.approx(ref, rel=1e-14)


def test_expand_target_defaults_to_uniform_initial(tiny):
    mat = np.full((3, 3), 1.0 / 3.0)
    q = np.exp(expand_target(ImitationTarget.markov(mat), tiny.space))
    assert np.allclose(q, 1.0 / 27.0, atol=1e-15)


def test_expand_target_blends_after_expansion(tiny):
    """``expand_target`` gives the target's log law on the space; the
    problem's Q blends it, over the space's paths."""
    target = ImitationTarget.markov(np.arange(1.0, 10.0).reshape(3, 3), blend=0.5)
    problem = IOTProblem(network=tiny.network, cost_model=tiny.model, nu0=tiny.nu0,
                         nuT=tiny.nuT, alpha=0.5, horizon=2, target=target)
    law = expand_target(target, tiny.space)
    assert np.exp(law).sum() == pytest.approx(1.0, abs=1e-15)
    assert np.array_equal(problem.target_log_law, law)
    assert np.array_equal(problem.target_log_probs, blend_log_law(law, 0.5))


def test_expand_target_rejects_a_markov_target_of_another_size(tiny):
    with pytest.raises(ValidationError, match="4 nodes but the path space has 3"):
        expand_target(ImitationTarget.markov(np.ones((4, 4))), tiny.space)


def test_expand_target_rejects_misaligned_paths(tiny):
    """A row outside the space, or a table of another horizon, is refused;
    a table on the space is its normalised log law there."""
    with pytest.raises(ValidationError, match="outside the feasible space"):
        expand_target(ImitationTarget.paths([[1, 2, 3], [1, 4, 3]], [1.0, 1.0]),
                      tiny.space)
    with pytest.raises(ValidationError, match="horizon 1 != problem horizon 2"):
        expand_target(ImitationTarget.paths([[1, 2]], [1.0]), tiny.space)
    law = expand_target(ImitationTarget.paths(tiny.space.array[::-1],
                                              np.full(27, 2.0)), tiny.space)
    assert np.array_equal(law, np.full(27, np.log(1.0 / 27.0)))


# ---------------------------------------------------------------------------
# tilted priors
# ---------------------------------------------------------------------------


def test_markov_tilt_is_entrywise_product(tiny):
    mat = np.full((3, 3), 1.0 / 3.0)
    prior = imitation_prior_markov(tiny.model, 0.5, ImitationTarget.markov(mat))
    assert np.allclose(np.exp(prior.log_steps),
                       np.exp(log_weight_matrix(tiny.model, 0.5, 3)) / 3.0,
                       atol=1e-15)


def test_markov_tilt_rejects_blended_targets(tiny):
    mat = np.full((3, 3), 1.0 / 3.0)
    with pytest.raises(ValidationError):
        imitation_prior_markov(tiny.model, 0.5,
                               ImitationTarget.markov(mat, blend=0.1))


def test_endpoint_scales_are_gauge(tiny):
    """Rescaling the tilted prior by start/end factors cannot move the bridge."""
    from iotnet.bridge import PathPrior, path_law_from_endpoint, sinkhorn_path

    space = tiny.space
    costs = path_costs(space, tiny.model, tiny.network)
    log_q = np.full(space.size, np.log(1.0 / space.size))
    rng = np.random.default_rng(4)
    plain = imitation_prior_paths(space, costs, log_q, 0.7)
    start_log, end_log = rng.uniform(-300.0, 300.0, size=(2, 3))
    scaled = PathPrior(path_space=space, log_weights=plain.log_weights
                       + start_log[space.starts - 1] + end_log[space.ends - 1])
    laws = []
    for prior in (plain, scaled):
        sol = sinkhorn_path(prior, tiny.nu0, tiny.nuT, tol=1e-13)
        laws.append(path_law_from_endpoint(sol, prior))
    assert tv(laws[0], laws[1]) < 1e-10


# ---------------------------------------------------------------------------
# the objective identity behind the reduction
# ---------------------------------------------------------------------------


def test_objective_equals_divergence_to_tilted_prior_up_to_constant(rng):
    """cost + alpha*KL(P||Q) and alpha*KL(P||tilted prior) differ by a
    P-independent constant over the feasible polytope."""
    for _ in range(4):
        d = fixtures.random_markov_problem(rng)
        space = d["space"]
        target = ImitationTarget.markov(d["target_matrix"], d["target_initial"])
        costs = path_costs(space, d["model"], d["network"])
        q = np.exp(expand_target(target, space))
        alpha = d["alpha"]
        m = q * np.exp(-(costs - costs.min()) / alpha)
        m /= m.sum()
        gaps = []
        for law in feasible_laws(space, d["nu0"], d["nuT"], rng, 25):
            pos = law > 0
            kl_m = float(np.sum(law[pos] * np.log(law[pos] / m[pos])))
            kl_q = float(np.sum(law[pos] * np.log(law[pos] / q[pos])))
            gaps.append(alpha * kl_m - (float(costs @ law) + alpha * kl_q))
        assert float(np.std(gaps)) < 1e-10


# ---------------------------------------------------------------------------
# solve_iot
# ---------------------------------------------------------------------------


def test_solver_hits_marginals_and_normalisation(tiny):
    plan = solve_iot(uniform_problem(tiny, 0.8))
    assert marginal_gap(tiny.space, plan.path_law, tiny.nu0, tiny.nuT) < 1e-9
    assert plan.path_law.sum() == pytest.approx(1.0, abs=1e-9)


def test_solver_beats_every_feasible_competitor(tiny, rng):
    problem = uniform_problem(tiny, 0.8)
    plan = solve_iot(problem, tol=1e-12)
    q = np.exp(expand_target(problem.target, tiny.space))
    costs = plan.path_costs
    best = plan.objective.total
    for law in feasible_laws(tiny.space, tiny.nu0, tiny.nuT, rng, 100):
        _, _, total = objective_eval(law, costs, q, 0.8)
        assert total >= best - 1e-9


def test_markov_and_path_routes_produce_one_plan(rng):
    for _ in range(4):
        d = fixtures.random_markov_problem(rng)
        target = ImitationTarget.markov(d["target_matrix"], d["target_initial"])
        problem = IOTProblem(network=d["network"], cost_model=d["model"],
                             horizon=d["space"].horizon, nu0=d["nu0"], nuT=d["nuT"],
                             alpha=d["alpha"], target=target)
        fast = solve_iot(problem)
        slow = solve_iot(problem, force_path=True)
        assert fast.transition_matrices is not None
        assert slow.transition_matrices is None
        assert tv(fast.path_law, slow.path_law) < 1e-8
        assert fast.objective.total == pytest.approx(slow.objective.total,
                                                     abs=1e-8)


def test_plan_objective_matches_direct_recomputation(tiny):
    problem = uniform_problem(tiny, 1.3)
    plan = solve_iot(problem)
    q = np.exp(expand_target(problem.target, tiny.space))
    cost, kl, total = objective_eval(plan.path_law, plan.path_costs, q, 1.3)
    assert plan.objective.expected_cost == pytest.approx(cost, abs=1e-12)
    assert plan.objective.kl_to_target == pytest.approx(kl, abs=1e-12)
    assert plan.objective.total == pytest.approx(total, abs=1e-12)


def test_large_alpha_returns_the_bridged_target(tiny):
    """As alpha grows the cost term fades: the plan tends to the target's
    own bridge onto the marginals."""
    problem = uniform_problem(tiny, 1e8)
    plan = solve_iot(problem, tol=1e-13)
    ref = dense_ipf(tiny.space, np.ones(tiny.space.size), tiny.nu0, tiny.nuT,
                    tol=1e-13).probabilities
    assert tv(plan.path_law, ref) < 1e-6


def test_alpha_monotonicity_of_cost_term(tiny):
    costs = []
    for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
        plan = solve_iot(uniform_problem(tiny, alpha), tol=1e-12)
        costs.append(plan.objective.expected_cost)
    for lo, hi in zip(costs, costs[1:]):
        assert hi >= lo - 1e-9


def test_edge_usage_accounts_every_step(tiny):
    plan = solve_iot(uniform_problem(tiny, 0.8))
    for t in range(tiny.space.horizon):
        step_mass = plan.edge_usage[t].sum()
        assert step_mass == pytest.approx(1.0, abs=1e-9)
    # spot-check one entry against the path law
    arr = tiny.space.array
    mask = (arr[:, 0] == 1) & (arr[:, 1] == 2)
    assert plan.edge_usage[0, 0, 1] == pytest.approx(
        float(plan.path_law[mask].sum()), abs=1e-12)


def test_uniform_target_reduces_to_entropic_transport(rng):
    """With a uniform target the solver equals the plain walk-prior bridge."""
    for _ in range(3):
        d = fixtures.random_markov_problem(rng)
        problem = IOTProblem(network=d["network"], cost_model=d["model"],
                             horizon=d["space"].horizon, nu0=d["nu0"], nuT=d["nuT"],
                             alpha=d["alpha"],
                             target=ImitationTarget.uniform())
        plan = solve_iot(problem, force_path=True)
        rb = build_rb_prior(d["model"], d["alpha"], d["network"].n)
        walk = MarkovPrior(initial=rb.node_weights, log_steps=logs(rb.transitions))
        sol = sinkhorn_markov(walk, d["nu0"], d["nuT"], problem.horizon)
        assert tv(plan.path_law, markov_path_law(sol, d["nu0"], plan.path_space)) < 1e-8


@pytest.mark.parametrize("alpha", [1e-5, 1e-6])
def test_the_path_route_law_keeps_the_coupling_marginals_at_small_alpha(synth30, alpha):
    """synthetic30 at T=3, where log weights run to 1e8 nats: the path law
    shares each endpoint pair's coupling mass among its paths, so its mass
    and marginal gaps are the bridge's, not 1e-8 off as when each path's
    weight was the exponential of its potentials and log weight."""
    fx = synth30["fx"]
    plan = solve_iot(IOTProblem(network=fx.network, cost_model=fx.ruled, horizon=3,
                                nu0=synth30["nu0"], nuT=synth30["nuT"], alpha=alpha,
                                target=ImitationTarget.uniform()))
    law, space = plan.path_law, plan.path_space
    assert abs(law.sum() - 1.0) <= 1e-10
    for nodes, nu in ((space.starts, synth30["nu0"]), (space.ends, synth30["nuT"])):
        gap = np.abs(np.bincount(nodes - 1, weights=law, minlength=space.n) - nu).sum()
        assert gap <= 1e-10
