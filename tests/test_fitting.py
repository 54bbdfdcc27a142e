from __future__ import annotations

import numpy as np
import pytest
from conftest import random_instance
from oracles import (
    exact_wls,
    gram,
    householder_fit,
    long_short_max_relative_error,
    oracle_wls,
)

from rdhte.basis import design_rows
from rdhte.errors import NonPositiveBandwidth, SingularGram
from rdhte.fitting import fit_side, side_design
from rdhte.model import validate_sample


def test_side_design_empty_side():
    sample = validate_sample(np.zeros(3), np.array([-0.5, -0.4, -0.3]), 0.0)
    rows, _, idx = side_design(
        sample, "right", 0.5, 1, 1, "triangular"
    )
    assert rows.shape[0] == 0
    assert idx.size == 0


@pytest.mark.parametrize("h", [0.0, -0.5, np.nan, np.inf])
def test_side_design_rejects_bad_bandwidths(h):
    sample = random_instance(3, n=50)
    with pytest.raises(NonPositiveBandwidth, match="finite and > 0"):
        side_design(sample, "right", h, 1, 1, "triangular")


def test_side_design_weight_at_cutoff():
    sample = validate_sample(np.zeros(2), np.array([0.0, 0.3]), 0.0)
    _, kvals, idx = side_design(
        sample, "right", 0.5, 1, 1, "triangular"
    )
    assert idx.tolist() == [0, 1]
    assert kvals[0] / 0.5 == pytest.approx(1.0 / 0.5)


def test_side_design_hand_rows():
    x = np.array([0.1, 0.2, 0.6])
    w = np.array([[2.0], [3.0], [4.0]])
    sample = validate_sample(np.zeros(3), x, 0.0, w)
    rows, kvals, idx = side_design(
        sample, "right", 0.4, 1, 1, "triangular"
    )
    # x=0.6 is outside h=0.4
    assert idx.tolist() == [0, 1]
    np.testing.assert_allclose(rows[0], [1, 0.25, 2, 0.5])
    np.testing.assert_allclose(rows[1], [1, 0.5, 3, 1.5])
    np.testing.assert_allclose(
        kvals / 0.4, [(1 - 0.25) / 0.4, (1 - 0.5) / 0.4]
    )


def test_boundary_row_follows_kernel_weight():
    sample = validate_sample(np.zeros(2), np.array([0.5, 0.2]), 0.0)
    idx_tri = side_design(sample, "right", 0.5, 1, 1, "triangular").idx
    idx_uni = side_design(sample, "right", 0.5, 1, 1, "uniform").idx
    assert idx_tri.tolist() == [1]
    assert idx_uni.tolist() == [0, 1]


def test_exact_fit_recovers_coefficients():
    rng = np.random.default_rng(5)
    n = 80
    x = rng.uniform(0, 1, size=n)
    w = rng.binomial(1, 0.5, size=(n, 1)).astype(float)
    y = 2.0 + 3.0 * x + w[:, 0] - 0.5 * w[:, 0] * x
    sample = validate_sample(y, x, 0.0, w)
    fit = fit_side(sample, "right", 1.0, 1, 1, "triangular")
    np.testing.assert_allclose(fit.theta, [2, 3, 1, -0.5], atol=1e-10)
    assert np.max(np.abs(fit.residuals)) < 1e-10


def test_fit_matches_oracle_wls():
    sample = random_instance(11, n=50, d=1)
    h = 0.7
    fit = fit_side(sample, "right", h, 1, 1, "triangular")
    rows, kvals, idx = side_design(
        sample, "right", h, 1, 1, "triangular"
    )
    beta = oracle_wls(rows, kvals / h, sample.y[idx])
    np.testing.assert_allclose(fit.theta_norm, beta, rtol=1e-10, atol=1e-12)


def test_unscaled_theta_consistent_with_raw_powers():
    sample = random_instance(12, n=120, d=1)
    h = 0.6
    fit = fit_side(sample, "left", h, 2, 1, "triangular")
    # refit on raw (x - c) powers with the same kernel weights
    mask = (sample.x < 0) & (np.abs(sample.x) < h)
    u_raw = sample.x[mask]
    w = sample.w[mask]
    rows = np.column_stack(
        [np.ones(u_raw.size), u_raw, u_raw**2, w[:, 0], w[:, 0] * u_raw]
    )
    kv = 1 - np.abs(u_raw / h)
    beta = oracle_wls(rows, kv, sample.y[mask])
    np.testing.assert_allclose(fit.theta, beta, rtol=1e-9, atol=1e-11)


def test_leverage_sum_equals_parameter_count():
    sample = random_instance(13, n=150, d=2)
    fit = fit_side(sample, "right", 0.8, 1, 1, "triangular")
    assert np.all(fit.leverages >= 0)
    assert np.sum(fit.leverages) == pytest.approx(fit.n_coef, rel=1e-10)


def test_singular_gram_raises():
    # three points cannot identify four parameters
    sample = validate_sample(
        np.array([1.0, 2.0, 1.5, 0.2]),
        np.array([0.1, 0.2, 0.3, -0.5]),
        0.0,
        np.array([[1.0], [1.0], [1.0], [0.0]]),
    )
    with pytest.raises(SingularGram):
        fit_side(sample, "right", 0.5, 2, 2, "triangular")


def test_affine_equivariance():
    sample = random_instance(17, n=100, d=1)
    fit = fit_side(sample, "right", 0.6, 1, 1, "triangular")
    scaled = validate_sample(3.0 * sample.y, sample.x, 0.0, sample.w)
    fit_scaled = fit_side(scaled, "right", 0.6, 1, 1, "triangular")
    np.testing.assert_allclose(fit_scaled.theta, 3.0 * fit.theta, rtol=1e-12)

    shifted = validate_sample(sample.y, sample.x + 5.0, 5.0, sample.w)
    fit_shifted = fit_side(shifted, "right", 0.6, 1, 1, "triangular")
    np.testing.assert_allclose(
        fit_shifted.theta, fit.theta, rtol=1e-9, atol=1e-12
    )


def test_d0_reduces_to_local_linear():
    sample = random_instance(19, n=100, d=0)
    fit = fit_side(sample, "right", 0.5, 1, 1, "triangular")
    rows, kvals, idx = side_design(
        sample, "right", 0.5, 1, 0, "triangular"
    )
    assert rows.shape[1] == 2
    beta = oracle_wls(rows, kvals / 0.5, sample.y[idx])
    np.testing.assert_allclose(fit.theta_norm, beta, rtol=1e-10)


def test_long_short_equivalence_random():
    for seed in range(5):
        sample = random_instance(seed, n=30 + 10 * seed, d=seed % 3)
        err = long_short_max_relative_error(sample, 0.9, 1, 1, "triangular")
        assert err < 1e-10


def test_long_short_error_is_small():
    sample = random_instance(23, n=60, d=2)
    err = long_short_max_relative_error(sample, 0.8, 1, 1, "triangular")
    assert err < 1e-10


def _max_rel(got, ref):
    return float(np.max(np.abs(got - ref)) / np.max(np.abs(ref)))


# (p, s, d) giving k = 1 + p + d (1 + s) = 4, 6 and 12 coefficients
LAYOUTS = [(1, 1, 1), (1, 1, 2), (2, 2, 3)]


@pytest.mark.parametrize("p, s, d", LAYOUTS)
def test_fit_matches_explicit_q_householder(p, s, d):
    sample = random_instance(31 + d, n=4000, d=d, binary=False)
    for side in ("left", "right"):
        fit = fit_side(sample, side, 0.8, p, s, "triangular")
        beta, lev = householder_fit(sample, side, 0.8, p, s, "triangular")
        assert fit.n_coef == 1 + p + d * (1 + s)
        assert 1.0 / np.linalg.cond(gram(fit)) > 1e-4
        assert _max_rel(fit.theta_norm, beta) <= 1e-13
        assert np.max(np.abs(fit.leverages - lev) / lev) <= 1e-12


def _near_collinear_sample(d: int, eps: float):
    """Last covariate is 1 + eps * noise: nearly the intercept's column."""
    rng = np.random.default_rng(41)
    n = 3000
    x = rng.uniform(-1, 1, size=n)
    w = rng.uniform(-1, 1, size=(n, d))
    w[:, -1] = 1.0 + eps * rng.standard_normal(n)
    y = (0.3 + 0.8 * x + 0.5 * (x >= 0) + 0.4 * w.sum(axis=1)
         + 0.5 * rng.standard_normal(n))
    return validate_sample(y, x, 0.0, w)


#: c in the bound c kappa(R) u on a Householder fit's relative error
NEAR_COLLINEAR_C = 4.0


@pytest.mark.parametrize(
    "p, s, d, eps", [(1, 1, 1, 3e-5), (1, 1, 2, 3e-5), (2, 2, 3, 1.6e-4)]
)
def test_fit_matches_explicit_q_householder_near_collinear(p, s, d, eps):
    # a Gram this close to the rcond gate separates Householder least
    # squares from any route through R^-T A' (seminormal equations drift
    # about 1e-9 here). Householder least squares is backward stable, so
    # the package's QR and scipy's explicit Q each land within c kappa(R) u
    # of the exact coefficients of the window's float data (Bjorck 1996,
    # sec. 2.4); the two need not agree more closely with each other
    sample = _near_collinear_sample(d, eps)
    fit = fit_side(sample, "right", 0.8, p, s, "triangular")
    assert 3e-12 < 1.0 / np.linalg.cond(gram(fit)) < 3e-11
    exact, exact_lev = exact_wls(fit.design, fit.kvals, sample.y[fit.idx])
    bound = NEAR_COLLINEAR_C * np.linalg.cond(fit.r) * np.finfo(float).eps / 2
    beta, lev = householder_fit(sample, "right", 0.8, p, s, "triangular")
    assert _max_rel(fit.theta_norm, exact) <= bound
    assert _max_rel(beta, exact) <= bound
    assert np.max(np.abs(fit.leverages - lev) / lev) <= 1e-8
    assert np.max(np.abs(fit.leverages - exact_lev) / exact_lev) <= 1e-8


def test_exact_wls_recovers_a_dyadic_surface_exactly():
    # x on a 2^-6 grid, h = 1 and small integer coefficients: every design
    # entry and outcome is exact, so the exact solve returns the
    # coefficients bit for bit, and the leverages sum to k
    rng = np.random.default_rng(47)
    x = rng.integers(1, 64, size=40) / 64.0
    w = rng.integers(-8, 9, size=(40, 1)) / 8.0
    rows = design_rows(x, w, 2, 1)
    coef = np.array([3.0, -2.0, 5.0, 1.0, -4.0])
    kvals = 1.0 - x
    beta, lev = exact_wls(rows, kvals, rows @ coef)
    assert beta.tolist() == coef.tolist()
    assert np.sum(lev) == pytest.approx(coef.size, rel=1e-14)
    assert np.all((lev > 0) & (lev < 1))
