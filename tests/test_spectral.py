"""Perron pairs, the entropy-rate walk, and its closed-form path density."""

import numpy as np
import pytest

from iotnet import (
    ConvergenceError,
    CostModel,
    ValidationError,
    build_rb_prior,
    perron,
    rb_walk,
)
from iotnet import fixtures
from iotnet.spectral import log_weight_matrix

from helpers import path_cost, rb_path_density, rb_path_density_gibbs


def _random_irreducible(rng, n):
    """Dense positive matrix with uneven magnitudes: trivially irreducible."""
    return rng.uniform(0.05, 1.0, size=(n, n)) * 10.0 ** rng.integers(-3, 3, size=(n, n))


# ---------------------------------------------------------------------------
# perron()
# ---------------------------------------------------------------------------


def test_perron_matches_dense_eigensolver(rng):
    for trial in range(10):
        n = int(rng.integers(2, 9))
        B = _random_irreducible(rng, n)
        lam, u, v = perron(B)
        vals, vecs = np.linalg.eig(B)
        k = int(np.argmax(vals.real))
        lam_ref = float(vals.real[k])
        v_ref = np.abs(vecs[:, k].real)
        v_ref /= v_ref.sum()
        assert lam == pytest.approx(lam_ref, rel=1e-10)
        assert np.max(np.abs(v - v_ref)) < 1e-9


def test_perron_normalisation_conventions(rng):
    B = _random_irreducible(rng, 6)
    lam, u, v = perron(B)
    assert v.sum() == pytest.approx(1.0, abs=1e-12)
    assert float(u @ v) == pytest.approx(1.0, abs=1e-12)
    assert np.all(v > 0) and np.all(u > 0)


def test_perron_eigen_residuals(rng):
    B = _random_irreducible(rng, 7)
    lam, u, v = perron(B)
    assert np.max(np.abs(B @ v - lam * v) / (lam * v)) < 1e-11
    assert np.max(np.abs(B.T @ u - lam * u) / (lam * u)) < 1e-11


def test_perron_handles_periodic_two_cycle():
    """The plain power method cycles on [[0,1],[1,0]]; the shift fixes that."""
    B = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam, u, v = perron(B)
    assert lam == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(v, [0.5, 0.5], atol=1e-12)
    assert float(u @ v) == pytest.approx(1.0, abs=1e-12)


def test_perron_rejects_bad_inputs():
    with pytest.raises(ValidationError):
        perron(np.array([[1.0, -0.1], [0.2, 1.0]]))
    with pytest.raises(ValidationError):
        perron(np.zeros((3, 3)))
    with pytest.raises(ValidationError):
        perron(np.ones((2, 3)))


def test_perron_reports_nonconvergence(rng):
    B = _random_irreducible(rng, 6)
    with pytest.raises(ConvergenceError):
        perron(B, tol=1e-12, max_iter=1)


# ---------------------------------------------------------------------------
# weight matrix and walk
# ---------------------------------------------------------------------------


def test_weight_matrix_is_gibbs_on_edges():
    fx = fixtures.tiny_fixture()
    B = np.exp(log_weight_matrix(fx.model, 0.5, 3))
    for (i, j), c in fx.model.edge_costs.items():
        assert B[i - 1, j - 1] == pytest.approx(np.exp(-c / 0.5), rel=1e-15)


def test_weight_matrix_requires_strong_connectivity():
    model = CostModel.markov({(1, 2): 1.0})
    with pytest.raises(ValidationError, match=r"nodes \[2\] unreachable"):
        build_rb_prior(model, 1.0, 2)


def test_walk_rows_are_stochastic():
    net, model = fixtures.four_node_fixture()
    prior = build_rb_prior(model, 0.7, net.n)
    support = prior.weight_matrix.sum(axis=1) > 0
    rowsums = prior.transitions.sum(axis=1)
    assert np.all(np.abs(rowsums[support] - 1.0) < 1e-9)


def test_walk_tilt_formula():
    net, model = fixtures.four_node_fixture()
    B = np.exp(log_weight_matrix(model, 0.7, net.n))
    lam, u, v = perron(B)
    R = rb_walk(B, lam, v)
    assert np.allclose(R, B * v[None, :] / (lam * v[:, None]), atol=0)
    assert np.all((R > 0) == (B > 0))


def test_node_weights_are_stationary():
    net, model = fixtures.four_node_fixture()
    prior = build_rb_prior(model, 0.7, net.n)
    mu = prior.node_weights
    assert mu.sum() == pytest.approx(1.0, abs=1e-12)
    assert np.max(np.abs(mu @ prior.transitions - mu)) < 1e-10


# ---------------------------------------------------------------------------
# path densities
# ---------------------------------------------------------------------------


def test_closed_form_density_matches_step_products():
    fx = fixtures.tiny_fixture()
    prior = build_rb_prior(fx.model, 0.5, 3)
    for path in fx.space.paths:
        c = path_cost(fx.model, fx.network, path)
        walk = rb_path_density(prior, path)
        gibbs = rb_path_density_gibbs(prior, path, c)
        assert walk == pytest.approx(gibbs, rel=1e-12)


def test_density_sums_to_one_over_full_path_space():
    fx = fixtures.tiny_fixture()
    prior = build_rb_prior(fx.model, 0.5, 3)
    total = sum(rb_path_density(prior, p) for p in fx.space.paths)
    assert total == pytest.approx(1.0, abs=1e-10)


def test_walk_is_invariant_to_constant_cost_shifts():
    """Adding s to every edge rescales the weights but not the walk."""
    fx = fixtures.tiny_fixture()
    shifted = CostModel.markov({k: c + 3.7 for k, c in fx.model.edge_costs.items()})
    a = build_rb_prior(fx.model, 0.5, 3)
    b = build_rb_prior(shifted, 0.5, 3)
    assert np.max(np.abs(a.transitions - b.transitions)) < 1e-11
    assert b.spectral_radius == pytest.approx(
        a.spectral_radius * np.exp(-3.7 / 0.5), rel=1e-10)


def test_alpha_limits_shape_the_walk():
    """Small alpha concentrates the walk on cheap edges; large alpha flattens it."""
    fx = fixtures.tiny_fixture()
    cold = build_rb_prior(fx.model, 0.05, 3)
    hot = build_rb_prior(fx.model, 50.0, 3)
    # node 1's cheapest outgoing edge is (1,2) at cost 1.0
    assert cold.transitions[0].argmax() == 1
    assert cold.transitions[0, 1] > 0.9
    spread_hot = hot.transitions[0].max() - hot.transitions[0].min()
    assert spread_hot < 0.01
