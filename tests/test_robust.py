"""Worst-case certificates over the soft cost-uncertainty ball."""

import numpy as np
import pytest

from iotnet import (
    InfeasibleError,
    ValidationError,
    expand_target,
    path_costs,
    path_kl,
    robust_equivalence_check,
    robust_membership,
    solve_iot,
    worst_case_certificate,
)

from helpers import uniform_problem

ALPHA = 0.5
EPS = 0.25


def _setup(tiny):
    problem = uniform_problem(tiny, ALPHA)
    plan = solve_iot(problem, tol=1e-12)
    q = expand_target(problem.target, tiny.space)
    return plan, plan.path_costs, q


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_nominal_costs_are_a_member(tiny):
    _, costs, q = _setup(tiny)
    assert robust_membership(costs, costs, q, ALPHA, EPS)


def test_uniform_shift_by_epsilon_is_the_boundary(tiny):
    _, costs, q = _setup(tiny)
    assert robust_membership(costs + EPS, costs, q, ALPHA, EPS)
    assert not robust_membership(costs + EPS + 1e-6, costs, q, ALPHA, EPS)


def test_membership_allows_arbitrarily_low_costs(tiny):
    _, costs, q = _setup(tiny)
    assert robust_membership(costs - 100.0, costs, q, ALPHA, EPS)


def test_membership_permits_spikes_only_on_light_paths(tiny):
    """A big increase on one path is inside the ball iff Q barely sees it."""
    _, costs, q = _setup(tiny)
    spike = costs.copy()
    spike[0] += 5.0
    assert not robust_membership(spike, costs, q, ALPHA, EPS)
    light = q.copy()
    light[0] = 1e-12
    light /= light.sum()
    assert robust_membership(spike, costs, light, ALPHA, EPS)


def test_membership_validates_inputs(tiny):
    _, costs, q = _setup(tiny)
    with pytest.raises(ValidationError):
        robust_membership(costs[:-1], costs, q, ALPHA, EPS)
    with pytest.raises(ValidationError):
        robust_membership(costs, costs, q, -1.0, EPS)
    with pytest.raises(ValidationError):
        robust_membership(costs, costs, q, ALPHA, -0.1)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_closed_form(tiny):
    plan, costs, q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, q, ALPHA, EPS)
    expected = (plan.objective.expected_cost
                + ALPHA * plan.objective.kl_to_target + EPS)
    assert cert.worst_case_cost == pytest.approx(expected, abs=1e-12)
    assert cert.nominal_cost == pytest.approx(plan.objective.expected_cost,
                                              abs=1e-12)


def test_certificate_maximizer_is_tight(tiny):
    plan, costs, q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, q, ALPHA, EPS)
    assert robust_membership(cert.maximizer, costs, q, ALPHA, EPS)
    attained = float(np.where(np.isfinite(cert.maximizer),
                              cert.maximizer, 0.0) @ plan.path_law)
    assert attained == pytest.approx(cert.worst_case_cost, abs=1e-10)


def test_sampled_members_never_beat_the_certificate(tiny):
    plan, costs, q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, q, ALPHA, EPS)
    rng = np.random.default_rng(9)
    kept = rejected = 0
    while kept < 200:
        c_tilde = costs + rng.uniform(-1.0, 1.0, size=costs.shape)
        if robust_membership(c_tilde, costs, q, ALPHA, EPS):
            kept += 1
            assert float(c_tilde @ plan.path_law) <= cert.worst_case_cost + 1e-9
        else:
            rejected += 1
    assert rejected > 0, "perturbation band too narrow to exercise rejection"


def test_certificate_survives_subnormal_plan_mass():
    """``p/q`` underflows and ``q/p`` overflows for a subnormal ``p``."""
    p, q = np.array([5e-320, 1.0]), np.array([1e6, 1.0])
    cert = worst_case_certificate(p, np.zeros(2), q, 1.0, 0.0)
    assert cert.kl_term == path_kl(p, q)
    assert np.isfinite(cert.worst_case_cost)
    assert cert.maximizer[0] == pytest.approx(np.log(5e-320) - np.log(1e6),
                                              rel=1e-12)


def test_certificate_requires_support_containment(tiny):
    plan, costs, q = _setup(tiny)
    gappy = q.copy()
    gappy[np.argmax(plan.path_law)] = 0.0
    with pytest.raises(InfeasibleError):
        worst_case_certificate(plan.path_law, costs, gappy, ALPHA, EPS)


def test_degenerate_epsilon_zero(tiny):
    plan, costs, q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, q, ALPHA, 0.0)
    expected = plan.objective.expected_cost + ALPHA * plan.objective.kl_to_target
    assert cert.worst_case_cost == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# the equivalence with robust minimisation
# ---------------------------------------------------------------------------


def test_equivalence_report_on_tiny(tiny):
    problem = uniform_problem(tiny, ALPHA)
    report = robust_equivalence_check(problem, EPS, samples=60, seed=2)
    assert report.passed
    assert report.max_violation <= 1e-9
    assert report.epsilon_offset == pytest.approx(EPS, abs=1e-9)
    assert report.samples == 60
