"""Sinkhorn bridges: fixed points, marginals, optimality, and both routes."""

import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from iotnet import (
    ConvergenceError,
    ImitationTarget,
    InfeasibleError,
    IOTProblem,
    ValidationError,
    dense_ipf,
    expand_target,
    path_costs,
    path_kl,
    solve_iot,
)
from iotnet import PathSpace, fixtures
from iotnet.bridge import (
    MarkovPrior,
    PathPrior,
    _sinkhorn_core,
    marginalize_prior,
    markov_path_law,
    path_law_from_endpoint,
    sinkhorn_markov,
    sinkhorn_path,
)
from iotnet.chain import log_matmul, logs, logsumexp, row_sums

from helpers import feasible_laws, marginal_gap, sweep_coupling, tv


def _tiny_markov_prior(tiny, alpha=0.5):
    """Gibbs-tilted step prior over the tiny network's cost table."""
    n = tiny.network.n
    L = np.full((n, n), -np.inf)
    for (i, j), c in tiny.model.edge_costs.items():
        L[i - 1, j - 1] = -c / alpha
    return MarkovPrior(initial=np.full(n, 1.0 / n), log_steps=L)


def _gibbs_path_prior(fx, alpha=0.5):
    costs = path_costs(fx.space, fx.model, fx.network)
    return PathPrior(path_space=fx.space, log_weights=-(costs - costs.min()) / alpha)


# ---------------------------------------------------------------------------
# the boundary system
# ---------------------------------------------------------------------------


def test_markov_bridge_satisfies_boundary_system(tiny):
    prior = _tiny_markov_prior(tiny)
    sol = sinkhorn_markov(prior, tiny.nu0, tiny.nuT, 2)
    A = np.linalg.matrix_power(np.exp(prior.log_steps), 2)
    phi0, phiT, phihat0, phihatT = (np.exp(v) for v in (
        sol.log_phi0, sol.log_phiT, sol.log_phihat0, sol.log_phihatT))
    assert np.max(np.abs(phi0 - A @ phiT)) < 1e-9
    assert np.max(np.abs(phihatT - A.T @ phihat0)) < 1e-9
    assert np.max(np.abs(phi0 * phihat0 - tiny.nu0)) < 1e-9
    assert np.max(np.abs(phiT * phihatT - tiny.nuT)) < 1e-9
    coupling = phihat0[:, None] * A * phiT[None, :]
    assert np.max(np.abs(sol.endpoint_coupling - coupling)) < 1e-12
    assert sol.log_phiT.max() == 0.0   # the reported gauge


def test_markov_bridge_hits_marginals(tiny):
    prior = _tiny_markov_prior(tiny)
    tol = 1e-10
    sol = sinkhorn_markov(prior, tiny.nu0, tiny.nuT, 2, tol=tol)
    law = markov_path_law(sol, tiny.nu0, tiny.space)
    assert marginal_gap(tiny.space, law, tiny.nu0, tiny.nuT) < 10 * tol
    assert law.sum() == pytest.approx(1.0, abs=1e-9)


def test_residual_is_the_l1_marginal_violation(tiny):
    sol = sinkhorn_markov(_tiny_markov_prior(tiny), tiny.nu0, tiny.nuT, 2,
                          tol=1e-3)
    pi = sol.endpoint_coupling
    violation = (np.abs(pi.sum(axis=1) - tiny.nu0).sum()
                 + np.abs(pi.sum(axis=0) - tiny.nuT).sum())
    assert 1e-12 < sol.residual <= 1e-3
    assert sol.residual == pytest.approx(violation, rel=1e-6)


def test_scaling_absorbs_kernels_beyond_the_float_range():
    """Entries e^-1000 and e^-2000 underflow as floats, not as logs.

    The kernel's cross ratio is 1, so the bridge is the independent coupling;
    reaching it needs potentials about 1000 nats apart, which only log
    potentials hold.
    """
    prior = MarkovPrior(initial=np.array([0.5, 0.5]),
                        log_steps=np.array([[0.0, -1000.0], [-1000.0, -2000.0]]))
    nu0, nuT = np.array([0.3, 0.7]), np.array([0.6, 0.4])
    sol = sinkhorn_markov(prior, nu0, nuT, 1, tol=1e-12)
    assert np.max(np.abs(sol.endpoint_coupling - np.outer(nu0, nuT))) < 1e-12
    assert sol.residual <= 1e-12


def _stress_kernels(count: int):
    """Seeded log kernels of 2-6 starts by 2-6 ends, entries ``-U(0, 1)``
    times a scale of 1 to 3000 nats, with Dirichlet marginals."""
    rng = np.random.default_rng(0)
    for _ in range(count):
        m, n = rng.integers(2, 7, size=2)
        scale = rng.choice([1, 10, 100, 1000, 3000])
        log_kernel = -rng.uniform(0, 1, size=(m, n)) * scale
        yield log_kernel, rng.dirichlet(np.ones(m)), rng.dirichlet(np.ones(n))


def test_newton_steps_lose_no_kernel_the_sweeps_solve():
    """The core solves every kernel at tol 1e-10 (the reference sweeps alone
    stall on one of the 200), to the sweeps' coupling within 1e-8 total
    variation wherever they solve too."""
    for log_kernel, nu0, nuT in _stress_kernels(200):
        sol = _sinkhorn_core(log_kernel, nu0, nuT, 1e-10, 100_000)
        assert sol.residual <= 1e-10
        try:
            reference = sweep_coupling(log_kernel, nu0, nuT, 1e-10, 100_000)
        except ConvergenceError:
            continue
        assert tv(sol.endpoint_coupling, reference) < 1e-8


def test_potentials_thousands_of_nats_apart_solve():
    """A block spanning 8,880 nats, whose potentials lie thousands of nats
    apart, climbs the ladder of kernel scales to the sweeps' coupling, and
    ``max_iter`` bounds the Newton steps over all rungs exactly."""
    log_kernel = np.array([[-1801.0, -1114.0, -8308.0], [-9610.0, -7342.0, -730.0]])
    nu0, nuT = np.full(2, 1 / 2), np.full(3, 1 / 3)
    sol = _sinkhorn_core(log_kernel, nu0, nuT, 1e-10, 100_000)
    assert sol.residual <= 1e-10
    reference = sweep_coupling(log_kernel, nu0, nuT, 1e-10, 100_000)
    assert tv(sol.endpoint_coupling, reference) < 1e-8
    with pytest.raises(ConvergenceError):
        _sinkhorn_core(log_kernel, nu0, nuT, 1e-10, sol.iterations - 1)
    again = _sinkhorn_core(log_kernel, nu0, nuT, 1e-10, sol.iterations)
    assert again.iterations == sol.iterations


@pytest.mark.parametrize("offset", [-1e8, 3.3e10, 1e13])
def test_a_kernel_offset_far_beyond_its_span_solves(offset):
    """Endpoint pairs whose cheapest costs are nearly equal put every block
    entry near one large offset.  The potentials stay of the order of the
    5-nat span, not of the offset, whose ulp (1.5e-8 nats at 1e8) would
    otherwise floor the violation: a few steps solve, as on the kernel
    without the offset."""
    rng = np.random.default_rng(0)
    log_kernel = offset - rng.uniform(0, 5, size=(20, 30))
    nu0, nuT = rng.dirichlet(np.ones(20)), rng.dirichlet(np.ones(30))
    sol = _sinkhorn_core(log_kernel, nu0, nuT, 1e-10, 1_000)
    assert sol.residual <= 1e-10 and sol.iterations < 20
    # exact: each entry lies within a factor 2 of the offset
    reference = sweep_coupling(log_kernel - offset, nu0, nuT, 1e-10, 100_000)
    assert tv(sol.endpoint_coupling, reference) < 1e-8
    half = np.full(2, 0.5)
    sol = _sinkhorn_core(np.array([[-1e8, -1e8], [-1e8, -1e8 - 1]]), half, half,
                         1e-10, 1_000)
    assert sol.residual <= 1e-10


def test_bridge_matches_dense_ipf(tiny):
    prior = _gibbs_path_prior(tiny)
    sol = sinkhorn_path(prior, tiny.nu0, tiny.nuT)
    law = path_law_from_endpoint(sol, prior)
    ref = dense_ipf(tiny.space, np.exp(prior.log_weights), tiny.nu0,
                    tiny.nuT).probabilities
    assert tv(law, ref) < 1e-10


def test_bridge_minimises_relative_entropy(tiny, rng):
    """No feasible law beats the bridge's divergence from the prior."""
    prior = _gibbs_path_prior(tiny)
    sol = sinkhorn_path(prior, tiny.nu0, tiny.nuT, tol=1e-13)
    law = path_law_from_endpoint(sol, prior)
    best = path_kl(law, prior.log_weights)
    for other in feasible_laws(tiny.space, tiny.nu0, tiny.nuT, rng, 100):
        assert path_kl(other, prior.log_weights) >= best - 1e-9


def test_bridge_preserves_prior_conditionals(tiny):
    """Bridging only reweights endpoints: P(path | x0, xT) is untouched."""
    prior = _gibbs_path_prior(tiny)
    sol = sinkhorn_path(prior, tiny.nu0, tiny.nuT, tol=1e-13)
    law = path_law_from_endpoint(sol, prior)
    space, weights = tiny.space, np.exp(prior.log_weights)
    for i, j in ((1, 1), (1, 3), (2, 2)):
        mask = (space.starts == i) & (space.ends == j)
        a = law[mask] / law[mask].sum()
        b = weights[mask] / weights[mask].sum()
        assert np.max(np.abs(a - b)) < 1e-10


def test_markov_and_path_routes_agree(tiny):
    prior = _tiny_markov_prior(tiny)
    solM = sinkhorn_markov(prior, tiny.nu0, tiny.nuT, 2, tol=1e-13)
    lawM = markov_path_law(solM, tiny.nu0, tiny.space)

    space = tiny.space
    weights = prior.initial[space.array[:, 0] - 1].copy()
    for t in range(space.horizon):
        weights *= np.exp(prior.log_steps[space.array[:, t] - 1, space.array[:, t + 1] - 1])
    path_prior = PathPrior(path_space=space, log_weights=logs(weights))
    solP = sinkhorn_path(path_prior, tiny.nu0, tiny.nuT, tol=1e-13)
    lawP = path_law_from_endpoint(solP, path_prior)
    assert tv(lawM, lawP) < 1e-8


def test_endpoint_coupling_marginals(tiny):
    prior = _gibbs_path_prior(tiny)
    sol = sinkhorn_path(prior, tiny.nu0, tiny.nuT, tol=1e-12)
    pi = sol.endpoint_coupling
    assert np.max(np.abs(pi.sum(axis=1) - tiny.nu0)) < 1e-10
    assert np.max(np.abs(pi.sum(axis=0) - tiny.nuT)) < 1e-10


# ---------------------------------------------------------------------------
# infeasibility and validation
# ---------------------------------------------------------------------------


def test_unreachable_endpoint_pair_raises(tiny):
    logw = _gibbs_path_prior(tiny).log_weights.copy()
    mask = (tiny.space.starts == 1) & (tiny.space.ends == 3)
    logw[mask] = -np.inf
    prior = PathPrior(path_space=tiny.space, log_weights=logw)
    with pytest.raises(InfeasibleError):
        sinkhorn_path(prior, tiny.nu0, tiny.nuT)


def test_marginals_must_be_probability_vectors(tiny):
    prior = _tiny_markov_prior(tiny)
    with pytest.raises(ValidationError):
        sinkhorn_markov(prior, np.array([0.5, 0.3, 0.3]), tiny.nuT, 2)
    with pytest.raises(ValidationError):
        sinkhorn_markov(prior, np.array([0.7, 0.5, -0.2]), tiny.nuT, 2)


def test_zero_marginal_mass_endpoints_are_tolerated(tiny):
    """Kernel zeros outside the marginal supports must not block the bridge."""
    logw = _gibbs_path_prior(tiny).log_weights.copy()
    logw[tiny.space.starts == 2] = -np.inf   # node 2 never starts
    prior = PathPrior(path_space=tiny.space, log_weights=logw)
    nu0 = np.array([0.7, 0.0, 0.3])
    sol = sinkhorn_path(prior, nu0, tiny.nuT, tol=1e-12)
    law = path_law_from_endpoint(sol, prior)
    assert marginal_gap(tiny.space, law, nu0, tiny.nuT) < 1e-10


# ---------------------------------------------------------------------------
# endpoint marginalisation helpers
# ---------------------------------------------------------------------------


def test_marginalize_prior_matches_loop(tiny):
    prior = _gibbs_path_prior(tiny)
    kernel = np.exp(marginalize_prior(prior))
    ref = np.zeros((3, 3))
    for k, p in enumerate(tiny.space.paths):
        ref[p[0] - 1, p[-1] - 1] += np.exp(prior.log_weights[k])
    assert np.max(np.abs(kernel - ref)) < 1e-12


def test_path_kl_basics():
    p = np.array([0.5, 0.5, 0.0])
    assert path_kl(p, logs(p)) == pytest.approx(0.0, abs=1e-15)
    assert path_kl(p, np.zeros(3)) == pytest.approx(np.log(0.5), abs=1e-12)
    with pytest.warns(RuntimeWarning):
        assert path_kl(p, np.array([0.0, -np.inf, 0.0])) == np.inf
    # a reference weight whose exp reads 0 is a weight, not a support violation
    assert path_kl(p, np.array([-1000.0, 0.0, 0.0])) == pytest.approx(
        np.log(0.5) + 500.0, rel=1e-15)


def test_path_kl_survives_subnormal_mass():
    """``p/q`` underflows to 0 for a subnormal ``p``; ``log p - log q`` does not."""
    kl = path_kl(np.array([5e-320, 1.0]), np.log([1e6, 1.0]))
    assert np.isfinite(kl)
    assert kl == pytest.approx(0.0, abs=1e-300)


# ---------------------------------------------------------------------------
# the shifted log product of the Markov kernel
# ---------------------------------------------------------------------------

_LOG_ENTRIES = st.floats(-3000.0, 0.0) | st.just(-np.inf)


@st.composite
def log_factors(draw):
    """Log matrices ``A`` (m x k) and ``B`` (k x p), shapes 1..8, with entries
    in [-3000, 0] or ``-inf``: wide enough that shifted sums underflow.  Half
    the draws are sparse: about two cells in three of each factor are
    ``-inf``, and so are some whole rows of ``A`` and columns of ``B``, so
    that many products have no finite term (a structural zero)."""
    m, k, p = (draw(st.integers(1, 8)) for _ in range(3))

    def matrix(rows, cols):
        return np.array(draw(st.lists(_LOG_ENTRIES, min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    def blank(rows, cols):
        return np.array(draw(st.lists(st.sampled_from([False, True, True]),
                                      min_size=rows * cols,
                                      max_size=rows * cols))).reshape(rows, cols)

    A, B = matrix(m, k), matrix(k, p)
    if draw(st.booleans()):
        A[blank(m, k)] = -np.inf
        B[blank(k, p)] = -np.inf
        A[sorted(draw(st.sets(st.integers(0, m - 1))))] = -np.inf
        B[:, sorted(draw(st.sets(st.integers(0, p - 1))))] = -np.inf
    return A, B


@settings(max_examples=300, deadline=None)
@given(log_factors())
# partly underflowed: both terms are exp(-740), subnormal, whose sum keeps
# only a few bits unless it is recomputed in log space
@example((np.array([[0.0, -740.0]]), np.array([[-740.0], [0.0]])))
# structural zeros: no term of the corner entry is finite, and the second
# row of A and the second column of B are -inf throughout
@example((np.array([[0.0, -np.inf], [-np.inf, -np.inf]]),
          np.array([[-np.inf, -np.inf], [0.0, -np.inf]])))
def test_log_matmul_matches_the_exact_log_sum_exp(factors):
    A, B = factors
    exact = logsumexp(A[:, :, None] + B[None], axis=1)
    got = log_matmul(A, B)
    assert np.array_equal(got == -np.inf, exact == -np.inf)
    finite = exact > -np.inf
    np.testing.assert_allclose(got[finite], exact[finite], rtol=1e-12, atol=1e-12)


# ---------------------------------------------------------------------------
# one start law on both routes
# ---------------------------------------------------------------------------

_SPARSE_WEIGHT = st.just(0.0) | st.integers(1, 5).map(float)


@st.composite
def sparse_markov_cases(draw):
    """A time-varying Markov prior on 2-4 nodes over 1-3 steps and its
    marginals, each of the start law, the steps, ``nu0`` and ``nuT`` drawn
    with zeros."""
    n, horizon = draw(st.integers(2, 4)), draw(st.integers(1, 3))

    def weights(size):
        return np.array(draw(st.lists(_SPARSE_WEIGHT, min_size=size,
                                      max_size=size)))

    def law():
        vec = weights(n)
        if not vec.any():
            vec[0] = 1.0
        return vec / vec.sum()

    steps = tuple(weights(n * n).reshape(n, n) for _ in range(horizon))
    prior = MarkovPrior(initial=law(), log_steps=logs(np.stack(steps)))
    return prior, law(), law(), horizon


def _path_form(prior, horizon):
    """The Markov prior as weights on every horizon-step path of its nodes."""
    rows = np.array(list(itertools.product(range(1, prior.n + 1),
                                           repeat=horizon + 1)))
    weights = np.array([prior.initial[p[0] - 1]
                        * np.prod([step[a - 1, b - 1] for step, a, b
                                   in zip(np.exp(prior.log_steps), p, p[1:])])
                        for p in rows])
    return PathSpace(horizon=horizon, n=prior.n, array=rows), weights


def _outcome(solve):
    try:
        return "solved", solve().endpoint_coupling
    except InfeasibleError as exc:
        return "refused", str(exc)


@settings(max_examples=300, deadline=None)
@given(sparse_markov_cases())
def test_a_markov_prior_and_its_path_form_solve_or_refuse_alike(case):
    """A start without prior mass has no bridge on either route."""
    prior, nu0, nuT, horizon = case
    space, weights = _path_form(prior, horizon)
    markov = _outcome(lambda: sinkhorn_markov(prior, nu0, nuT, horizon))
    if not weights.any():   # the path form is no prior at all
        assert markov[0] == "refused"
        return
    path = _outcome(lambda: sinkhorn_path(
        PathPrior(path_space=space, log_weights=logs(weights)), nu0, nuT))
    assert markov[0] == path[0]
    if markov[0] == "refused":
        assert markov[1] == path[1]
    else:
        assert np.abs(markov[1] - path[1]).sum() <= 1e-8


def test_the_support_rule_leaves_the_prior_unchanged():
    """At T=1 the log kernel is the prior's own step array."""
    prior = MarkovPrior(initial=[1.0, 0.0], log_steps=np.zeros((2, 2)))
    with pytest.raises(InfeasibleError, match=r"pair \(2, 1\)"):
        sinkhorn_markov(prior, np.array([0.5, 0.5]), np.array([0.5, 0.5]), 1)
    assert np.array_equal(prior.log_steps, np.zeros((2, 2)))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_markov_prior_refuses_non_finite_start_weights(bad):
    with pytest.raises(ValidationError, match="finite"):
        MarkovPrior(initial=[bad, 1.0], log_steps=np.zeros((2, 2)))


def test_row_sums_add_left_to_right(rng):
    """Each path's start term (0.0 without one) plus its step entries, added
    in path order as a scalar loop would, bit for bit, over one table or a
    stack of one per step; a ``-inf`` entry makes its rows ``-inf``."""
    rows = np.array(list(itertools.product((1, 2, 3), repeat=4)))
    for shape in ((3, 3), (3, 3, 3)):
        steps = rng.normal(size=shape) * 10.0 ** rng.integers(-5, 6, size=shape)
        steps[rng.random(shape) < 0.1] = -np.inf
        for start in (None, rng.normal(size=3)):
            expected = []
            for p in rows.tolist():
                total = 0.0 if start is None else float(start[p[0] - 1])
                for t, (a, b) in enumerate(zip(p, p[1:])):
                    step = steps if steps.ndim == 2 else steps[t]
                    total += float(step[a - 1, b - 1])
                expected.append(total)
            assert np.array_equal(row_sums(steps, rows, start), expected)
