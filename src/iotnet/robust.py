"""Robust-cost certification: worst case over a divergence ball of costs.

The adversary may replace the nominal path costs ``C`` by any ``C~`` whose
exponential moment under the target stays bounded:
``alpha * log  E_Q[exp((C~ - C)/alpha)] <= epsilon``.  Over that set, the
worst-case expected cost of a fixed plan ``P`` has a closed form:

    sup  E_P[C~]  =  E_P[C] + alpha * KL(P || Q) + epsilon,

attained at ``C~*(x) = C(x) - alpha * log(Q(x)/P(x)) + epsilon`` on the plan's
support.  So solving the imitation-regularized problem IS minimising the
worst-case cost, and the optimal values differ by exactly ``epsilon`` —
:func:`robust_equivalence_check` measures that offset empirically and reports
it (some statements of this result quote a horizon-times-epsilon gap; the
certificate here follows the closed-form derivation, and the check makes the
actual offset visible).

``Q`` enters every function here as its log law ``log_q`` (``-inf`` off its
support), as the solver holds it, so a target weight whose ``exp`` reads 0
is still a weight.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .bridge import _log_weights, path_kl
from .chain import logsumexp
from .errors import InfeasibleError, ValidationError
from .imitation import IOTProblem, solve_iot
from .oracle import dense_ipf

_MEMBERSHIP_SLACK = 1e-9


@dataclass(frozen=True)
class RobustCertificate:
    epsilon: float
    nominal_cost: float
    kl_term: float
    worst_case_cost: float
    maximizer: np.ndarray


@dataclass(frozen=True)
class RobustEquivalenceReport:
    passed: bool
    iot_objective: float
    worst_case_optimal: float
    epsilon_offset: float
    max_violation: float
    samples: int
    note: str


def _check_common(costs: np.ndarray, log_q: np.ndarray, alpha: float,
                  epsilon: float) -> tuple[np.ndarray, np.ndarray]:
    costs = np.asarray(costs, dtype=float)
    log_q = _log_weights(log_q, "q")
    if costs.shape != log_q.shape:
        raise ValidationError("costs and log q must share one shape")
    if not np.any(log_q > -np.inf):
        raise ValidationError("q must carry some mass")
    if not (alpha > 0 and math.isfinite(alpha)):
        raise ValidationError(f"alpha must be positive and finite, got {alpha}")
    if not (epsilon >= 0 and math.isfinite(epsilon)):
        raise ValidationError(f"epsilon must be nonnegative and finite, got {epsilon}")
    return costs, log_q


def robust_membership(c_tilde: np.ndarray, costs: np.ndarray, log_q: np.ndarray,
                      alpha: float, epsilon: float) -> bool:
    """Is ``c_tilde`` inside the adversary's ball around the nominal costs?

    Evaluates ``alpha * log E_Q[exp((c_tilde - costs)/alpha)] <= epsilon`` via
    a max-shifted log-sum-exp; a relative slack of 1e-9 keeps exact-boundary
    members (e.g. ``costs + epsilon`` uniformly) inside.
    """
    costs, log_q = _check_common(costs, log_q, alpha, epsilon)
    c_tilde = np.asarray(c_tilde, dtype=float)
    if c_tilde.shape != costs.shape:
        raise ValidationError("c_tilde shape mismatch")
    on_support = log_q > -np.inf
    diff = c_tilde[on_support] - costs[on_support]
    if np.any(np.isnan(diff)) or np.any(diff == math.inf):
        raise ValidationError("c_tilde must be finite above (or -inf) on supp(q)")
    lhs = _log_moment(diff, log_q[on_support], alpha)
    return lhs <= epsilon + _MEMBERSHIP_SLACK * max(1.0, abs(epsilon))


def _log_moment(diff: np.ndarray, log_q: np.ndarray, alpha: float) -> float:
    """``alpha * log sum_x q(x) exp(diff(x)/alpha)`` for finite ``log_q``, no
    overflow.

    The weights enter as ``log q`` beside the exponents, so the max shift of
    the log-sum-exp also covers weights below the float range; ``-inf``
    where every ``diff`` is.
    """
    return alpha * float(logsumexp(diff / alpha + log_q, axis=0))


def worst_case_certificate(plan_law: np.ndarray, costs: np.ndarray,
                           log_q: np.ndarray, alpha: float,
                           epsilon: float) -> RobustCertificate:
    """Closed-form worst-case cost of a fixed plan, with its attaining costs.

    Requires ``supp(plan) subseteq supp(q)``; otherwise the adversary can push
    the plan's cost to infinity and no finite certificate exists.  The
    maximizer is ``-inf`` off the plan's support (those paths never matter for
    the plan's cost and only slacken the constraint).
    """
    costs, log_q = _check_common(costs, log_q, alpha, epsilon)
    p = np.asarray(plan_law, dtype=float)
    if p.shape != costs.shape:
        raise ValidationError("plan shape mismatch")
    if np.any(p < 0):
        raise ValidationError("plan must be nonnegative")
    bad = np.nonzero((p > 0) & (log_q == -np.inf))[0]
    if bad.size:
        raise InfeasibleError(
            f"plan puts mass outside the target support (first path indices "
            f"{bad[:5].tolist()}); worst-case cost is unbounded")

    pos = p > 0
    nominal = float(p @ costs)
    kl = path_kl(p, log_q)
    worst = nominal + alpha * kl + epsilon
    maximizer = np.full(p.shape, -math.inf)
    # log q - log p, not log(q/p): q/p overflows for subnormal p
    maximizer[pos] = costs[pos] - alpha * (log_q[pos] - np.log(p[pos])) + epsilon
    return RobustCertificate(epsilon=epsilon, nominal_cost=nominal, kl_term=kl,
                             worst_case_cost=worst, maximizer=maximizer)


def robust_equivalence_check(problem: IOTProblem, epsilon: float, *,
                             samples: int = 100, seed: int = 0,
                             tol: float = 1e-10,
                             max_iter: int = 100_000) -> RobustEquivalenceReport:
    """Empirical check that robust minimisation equals imitation plus epsilon.

    Solves the imitation problem, then draws random feasible plans (IPF on
    random positive path weights, mixed with the optimum) and verifies none
    beats the optimum's worst-case cost beyond tolerance.  Reports the offset
    between the worst-case optimum and the imitation objective, which the
    closed form pins at exactly ``epsilon``.
    """
    if samples < 1:
        raise ValidationError("samples must be >= 1")
    plan = solve_iot(problem, tol=tol, max_iter=max_iter)
    space = plan.path_space
    costs = plan.path_costs
    log_q = plan.target_log_probs
    cert_opt = worst_case_certificate(plan.path_law, costs, log_q, problem.alpha,
                                      epsilon)

    rng = np.random.default_rng(seed)
    max_violation = -math.inf
    for k in range(samples):
        raw = rng.uniform(0.1, 1.0, size=space.size) * (log_q > -np.inf)
        feasible = dense_ipf(space, raw, problem.nu0, problem.nuT,
                             tol=tol, max_iter=max_iter).probabilities
        mix = rng.uniform(0.0, 1.0)
        candidate = mix * plan.path_law + (1.0 - mix) * feasible
        cert = worst_case_certificate(candidate, costs, log_q, problem.alpha, epsilon)
        max_violation = max(max_violation,
                            cert_opt.worst_case_cost - cert.worst_case_cost)

    offset = cert_opt.worst_case_cost - plan.objective.total
    passed = max_violation <= 1e-9 * max(1.0, abs(cert_opt.worst_case_cost))
    note = (f"worst-case optimum sits {offset!r} above the imitation objective "
            f"(closed form: exactly epsilon = {epsilon!r}; horizon-scaled "
            f"epsilon would be {problem.horizon * epsilon!r})")
    return RobustEquivalenceReport(passed=passed,
                                   iot_objective=plan.objective.total,
                                   worst_case_optimal=cert_opt.worst_case_cost,
                                   epsilon_offset=offset,
                                   max_violation=max_violation,
                                   samples=samples, note=note)
