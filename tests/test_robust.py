"""Worst-case certificates over the soft cost-uncertainty ball."""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp as scipy_logsumexp

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
from iotnet.robust import _log_moment

from helpers import uniform_problem

ALPHA = 0.5
EPS = 0.25


def _setup(tiny):
    problem = uniform_problem(tiny, ALPHA)
    plan = solve_iot(problem, tol=1e-12)
    log_q = expand_target(problem.target, tiny.space)
    return plan, plan.path_costs, log_q


# ---------------------------------------------------------------------------
# membership
# ---------------------------------------------------------------------------


def test_nominal_costs_are_a_member(tiny):
    _, costs, log_q = _setup(tiny)
    assert robust_membership(costs, costs, log_q, ALPHA, EPS)


def test_uniform_shift_by_epsilon_is_the_boundary(tiny):
    _, costs, log_q = _setup(tiny)
    assert robust_membership(costs + EPS, costs, log_q, ALPHA, EPS)
    assert not robust_membership(costs + EPS + 1e-6, costs, log_q, ALPHA, EPS)


def test_membership_allows_arbitrarily_low_costs(tiny):
    _, costs, log_q = _setup(tiny)
    assert robust_membership(costs - 100.0, costs, log_q, ALPHA, EPS)


def test_membership_permits_spikes_only_on_light_paths(tiny):
    """A big increase on one path is inside the ball iff Q barely sees it."""
    _, costs, log_q = _setup(tiny)
    spike = costs.copy()
    spike[0] += 5.0
    assert not robust_membership(spike, costs, log_q, ALPHA, EPS)
    light = np.exp(log_q)
    light[0] = 1e-12
    light /= light.sum()
    assert robust_membership(spike, costs, np.log(light), ALPHA, EPS)


def _scipy_lhs(c_tilde, costs, q, alpha):
    """The ball's left-hand side by scipy's weighted log-sum-exp."""
    on = q > 0
    with np.errstate(divide="ignore", over="ignore"):
        return alpha * float(scipy_logsumexp((c_tilde[on] - costs[on]) / alpha,
                                             b=q[on]))


_SUBNORMAL = st.floats(5e-324, 2.2e-308, exclude_max=True)
_Q_ENTRY = st.one_of(st.just(0.0), _SUBNORMAL, st.floats(1e-300, 1.0))
_SHIFT = st.one_of(st.just(-math.inf), st.floats(-1e3, 1e3))


def _decimal_lhs(diff, q, alpha):
    """The same sum in 60-digit decimal arithmetic, from the exact floats."""
    with decimal.localcontext() as ctx:
        ctx.prec = 60
        total = sum(Decimal(w) * (Decimal(d) / Decimal(alpha)).exp()
                    for d, w in zip(diff.tolist(), q.tolist()) if d != -math.inf)
        return -math.inf if total == 0 else float(Decimal(alpha) * total.ln())


def _agree(ours, ref, scale):
    return (ours == ref == -math.inf
            or math.isclose(ours, ref, rel_tol=1e-12, abs_tol=1e-12 * scale))


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(st.floats(-1e3, 1e3), _SHIFT, _Q_ENTRY),
                min_size=1, max_size=8),
       st.floats(1e-2, 1e3))
@example(entries=[(0.0, 0.0, 5e-324), (0.0, 1.0, 5e-324)], alpha=1.0)
def test_log_moment_matches_scipy(entries, alpha):
    """Costs, ``-inf`` shifts, zero and subnormal ``q``, alpha over 1e-2..1e3.

    Agreement is relative to 1e-12, with a floor of 1e-12 times
    ``max(alpha, largest finite |shift|)``: the exponents ``shift/alpha`` are
    rounded at that scale, so a left-hand side that cancels to about 0 has no
    relative digits left.  scipy's ``b=`` form multiplies each weight by
    ``exp(a - max a)``, which rounds away the digits of a subnormal weight
    (``q = [5e-324, 5e-324]``, shifts 0 and 1 at alpha 1 gives -743.44
    against -743.13), so it is the reference while every weight is normal;
    the decimal sum is the reference for every draw.
    """
    costs, shift, q = (np.array(col) for col in zip(*entries))
    if not np.any(q > 0):
        q[0] = 1.0
    c_tilde = costs + shift
    on = q > 0
    diff = c_tilde[on] - costs[on]
    ours = _log_moment(diff, np.log(q[on]), alpha)
    scale = max(alpha, float(np.max(np.abs(diff[np.isfinite(diff)]),
                                    initial=0.0)))
    assert _agree(ours, _decimal_lhs(diff, q[on], alpha), scale)
    if np.all(q[on] >= np.finfo(float).tiny):
        assert _agree(ours, _scipy_lhs(c_tilde, costs, q, alpha), scale)


def test_membership_agrees_with_scipy_on_the_boundary_cases(tiny):
    _, costs, log_q = _setup(tiny)
    q = np.exp(log_q)
    spike = costs.copy()
    spike[0] += 5.0
    light = q.copy()
    light[0] = 1e-12
    light /= light.sum()
    cases = [(costs, q), (costs + EPS, q), (costs + EPS + 1e-6, q),
             (costs - 100.0, q), (spike, q), (spike, light)]
    for c_tilde, weights in cases:
        expected = (_scipy_lhs(c_tilde, costs, weights, ALPHA)
                    <= EPS + 1e-9 * max(1.0, EPS))
        assert robust_membership(c_tilde, costs, np.log(weights), ALPHA,
                                 EPS) == expected


def test_membership_validates_inputs(tiny):
    _, costs, log_q = _setup(tiny)
    with pytest.raises(ValidationError):
        robust_membership(costs[:-1], costs, log_q, ALPHA, EPS)
    with pytest.raises(ValidationError):
        robust_membership(costs, costs, log_q, -1.0, EPS)
    with pytest.raises(ValidationError):
        robust_membership(costs, costs, log_q, ALPHA, -0.1)
    for bad in (np.nan, np.inf):
        with pytest.raises(ValidationError, match="finite or -inf"):
            robust_membership(costs, costs, np.where(log_q == log_q[0], bad, log_q),
                              ALPHA, EPS)
    with pytest.raises(ValidationError, match="carry some mass"):
        robust_membership(costs, costs, np.full_like(log_q, -np.inf), ALPHA, EPS)


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def test_certificate_closed_form(tiny):
    plan, costs, log_q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, log_q, ALPHA, EPS)
    expected = (plan.objective.expected_cost
                + ALPHA * plan.objective.kl_to_target + EPS)
    assert cert.worst_case_cost == pytest.approx(expected, abs=1e-12)
    assert cert.nominal_cost == pytest.approx(plan.objective.expected_cost,
                                              abs=1e-12)


def test_certificate_maximizer_is_tight(tiny):
    plan, costs, log_q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, log_q, ALPHA, EPS)
    assert robust_membership(cert.maximizer, costs, log_q, ALPHA, EPS)
    attained = float(np.where(np.isfinite(cert.maximizer),
                              cert.maximizer, 0.0) @ plan.path_law)
    assert attained == pytest.approx(cert.worst_case_cost, abs=1e-10)


def test_sampled_members_never_beat_the_certificate(tiny):
    plan, costs, log_q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, log_q, ALPHA, EPS)
    rng = np.random.default_rng(9)
    kept = rejected = 0
    while kept < 200:
        c_tilde = costs + rng.uniform(-1.0, 1.0, size=costs.shape)
        if robust_membership(c_tilde, costs, log_q, ALPHA, EPS):
            kept += 1
            assert float(c_tilde @ plan.path_law) <= cert.worst_case_cost + 1e-9
        else:
            rejected += 1
    assert rejected > 0, "perturbation band too narrow to exercise rejection"


def test_certificate_survives_subnormal_plan_mass():
    """``p/q`` underflows and ``q/p`` overflows for a subnormal ``p``."""
    p, log_q = np.array([5e-320, 1.0]), np.log([1e6, 1.0])
    cert = worst_case_certificate(p, np.zeros(2), log_q, 1.0, 0.0)
    assert cert.kl_term == path_kl(p, log_q)
    assert np.isfinite(cert.worst_case_cost)
    assert cert.maximizer[0] == pytest.approx(np.log(5e-320) - np.log(1e6),
                                              rel=1e-12)


def test_certificate_requires_support_containment(tiny):
    plan, costs, log_q = _setup(tiny)
    gappy = log_q.copy()
    gappy[np.argmax(plan.path_law)] = -np.inf
    with pytest.raises(InfeasibleError):
        worst_case_certificate(plan.path_law, costs, gappy, ALPHA, EPS)


def test_degenerate_epsilon_zero(tiny):
    plan, costs, log_q = _setup(tiny)
    cert = worst_case_certificate(plan.path_law, costs, log_q, ALPHA, 0.0)
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
