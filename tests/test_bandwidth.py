from __future__ import annotations

import numpy as np
import pytest
from conftest import random_instance
from oracles import interacted_basis

from rdhte.bandwidth import (
    BIAS_REG_EPS,
    bias_constants,
    moment_vectors,
    mse_bandwidth,
    pilot_bandwidth,
    variance_constants,
)
from rdhte.basis import extractor_vector, n_params
from rdhte.errors import TooFewObservations
from rdhte.fitting import fit_side
from rdhte.kernels import kernel_eval
from rdhte.model import FitSpec, Select, validate_sample
from rdhte.simulate import DgpConfig, gen_sample


def _loop_moments(sample, side, h, p, s, a, kernel):
    """Independent direct-summation oracle."""
    n = sample.n
    d = sample.d
    k = n_params(p, s, d)
    zeta = np.zeros(k)
    phi = np.zeros((k, d))
    for i in range(n):
        on_side = sample.x[i] >= sample.cutoff
        if side == "left":
            on_side = not on_side
        if not on_side:
            continue
        u = (sample.x[i] - sample.cutoff) / h
        kv = kernel_eval(float(u), kernel)
        if kv <= 0:
            continue
        r = interacted_basis(float(u), sample.w[i], p, s)
        zeta += kv * r * u ** (a + 1)
        for ell in range(d):
            phi[:, ell] += kv * r * sample.w[i, ell] * u ** (a + 1)
    return zeta / (n * h), phi / (n * h)


def test_moment_vectors_against_loop_oracle():
    rng = np.random.default_rng(100)
    x = rng.uniform(0, 1, size=100)
    w = rng.binomial(1, 0.5, size=(100, 1)).astype(float)
    sample = validate_sample(np.zeros(100), x, 0.0, w)
    zeta, phi = moment_vectors(sample, "right", 0.5, 1, 1, 1, "triangular")
    zeta_o, phi_o = _loop_moments(sample, "right", 0.5, 1, 1, 1, "triangular")
    np.testing.assert_allclose(zeta, zeta_o, rtol=1e-12)
    np.testing.assert_allclose(phi, phi_o, rtol=1e-12)


def test_moment_vectors_more_orders():
    sample = random_instance(4, n=150, d=2, binary=False)
    for side in ("left", "right"):
        for (p, s, a) in ((1, 1, 0), (2, 1, 2), (1, 2, 1)):
            zeta, phi = moment_vectors(
                sample, side, 0.6, p, s, a, "epanechnikov"
            )
            zeta_o, phi_o = _loop_moments(
                sample, side, 0.6, p, s, a, "epanechnikov"
            )
            np.testing.assert_allclose(zeta, zeta_o, rtol=1e-11, atol=1e-15)
            np.testing.assert_allclose(phi, phi_o, rtol=1e-11, atol=1e-15)


def test_moment_vectors_empty_window():
    sample = validate_sample(np.zeros(3), np.array([-0.9, -0.5, -0.1]), 0.0)
    zeta, phi = moment_vectors(sample, "right", 0.5, 1, 1, 1, "triangular")
    assert np.all(zeta == 0.0)
    assert phi.shape == (2 + 0 * 2, 0)


def test_moment_vectors_d0_collapse():
    sample = random_instance(5, n=80, d=0)
    zeta, phi = moment_vectors(sample, "right", 0.7, 1, 1, 0, "triangular")
    assert phi.shape == (2, 0)
    # zeta entries are kernel moments of u^(a+1) times (1, u)
    zeta_o, _ = _loop_moments(sample, "right", 0.7, 1, 1, 0, "triangular")
    np.testing.assert_allclose(zeta, zeta_o, rtol=1e-12)


def test_pilot_bandwidth_closed_form():
    rng = np.random.default_rng(55)
    x = rng.uniform(0, 1, size=1000)
    sample = validate_sample(np.zeros(2000), np.concatenate([x, -x]), 0.0)
    xr = np.sort(x)
    scale = min(np.std(xr, ddof=1), np.subtract(*np.quantile(xr, [0.75, 0.25])) / 1.349)
    expect = 2.576 * scale * 1000 ** (-1.0 / 7.0)
    floor = xr[min(5 * 3, 1000) - 1] * (1 + 1e-9)
    assert pilot_bandwidth(sample, "right", 1, 1) == pytest.approx(
        max(expect, floor), rel=1e-12
    )


def test_pilot_bandwidth_too_few_observations():
    x = np.array([0.1, 0.2, 0.3, 0.4, -0.1, -0.2, -0.3, -0.4, -0.5,
                  -0.6, -0.7, -0.8, -0.9, -1.0])
    sample = validate_sample(np.zeros(x.size), x, 0.0)
    with pytest.raises(TooFewObservations):
        pilot_bandwidth(sample, "right", 1, 1)


def test_pilot_bandwidth_floor_engages():
    # a tight cluster near the cutoff with far outliers keeps the
    # rule-of-thumb small; the floor guarantees a 5(p+2)-point window
    rng = np.random.default_rng(56)
    near = rng.uniform(0, 1e-4, size=40)
    sample = validate_sample(
        np.zeros(80), np.concatenate([near, -rng.uniform(0, 1, 40)]), 0.0
    )
    b = pilot_bandwidth(sample, "right", 1, 1)
    assert np.sum((near >= 0) & (near < b)) >= 15


def test_bias_constants_exact_on_noiseless_quadratic():
    cfg = DgpConfig(
        alpha_left=(0.5, 0.8, -0.6),
        alpha_right=(1.0, 0.6, 0.9),
        lam_left=((0.3, 0.2, 0.7),),
        lam_right=((0.7, -0.1, -0.4),),
        covariates=(("binary", 0.5),),
        noise=("constant", 0.0),
    )
    sample = gen_sample(cfg, 3000, 9)
    for side, t0, t1 in (("left", -0.6, 0.7), ("right", 0.9, -0.4)):
        b = pilot_bandwidth(sample, side, 1, 1)
        bc = bias_constants(sample, side, 1, 1, "triangular", b)
        # the routes read the u^2 and W u^2 coefficients of the pilot fit
        top = np.flatnonzero(np.any(bc.routes != 0.0, axis=1))
        assert top.tolist() == [2, 5]
        assert bc.pilot_fit.theta[2] == pytest.approx(t0, abs=1e-8)
        assert bc.pilot_fit.theta[5] == pytest.approx(t1, abs=1e-8)


def test_bias_constants_hand_assembled():
    sample = random_instance(31, n=300, d=1)
    b = 0.5
    bc = bias_constants(sample, "right", 1, 1, "triangular", b)
    # assemble independently: pilot fit for coefficients, main-order Gram
    # and moment vectors for the routes
    pilot = fit_side(sample, "right", b, 2, 2, "triangular")
    t0 = pilot.theta[2]
    t1 = pilot.theta[(1 + 2) + 0 * 3 + 2]
    gram = fit_side(sample, "right", b, 1, 1, "triangular").gram
    zeta, phi = _loop_moments(sample, "right", b, 1, 1, 1, "triangular")
    b0 = np.linalg.solve(gram, zeta) * t0
    b1 = np.linalg.solve(gram, phi) @ np.array([t1])
    e = extractor_vector(0, 1, 1, np.array([1.0]))
    expect = float(e @ b0) + float(e @ b1)
    assert bc.contraction(e) == pytest.approx(expect, rel=1e-10)


def test_bias_sign_matches_curvature():
    # convex DGP: alpha(x) = x^2, local linear at a right boundary with a
    # triangular kernel has a negative equivalent-kernel bias constant, so
    # the contraction's Monte Carlo mean is negative
    cfg = DgpConfig(
        alpha_left=(0.0, 0.0, 1.0),
        alpha_right=(0.0, 0.0, 1.0),
        noise=("constant", 0.3),
    )
    e = extractor_vector(0, 1, 1, np.zeros(0))
    vals = np.empty(500)
    for rep in range(500):
        sample = gen_sample(cfg, 300, (77, rep))
        b = pilot_bandwidth(sample, "right", 1, 1)
        bc = bias_constants(sample, "right", 1, 1, "triangular", b)
        vals[rep] = bc.contraction(e)
    assert np.mean(vals) < 0


def test_variance_constants_zero_for_noiseless_in_span():
    cfg = DgpConfig(
        alpha_left=(0.5, 0.8),
        alpha_right=(1.0, 0.6),
        noise=("constant", 0.0),
    )
    sample = gen_sample(cfg, 500, 21)
    vc = variance_constants(sample, "right", 0.4, 1, 1, "triangular", "hc0")
    e = extractor_vector(0, 1, 1, np.zeros(0))
    assert float(e @ vc @ e) == pytest.approx(0.0, abs=1e-20)


def test_variance_constants_match_brute_force():
    sample = random_instance(41, n=200, d=0)
    h = 0.5
    vc = variance_constants(sample, "right", h, 1, 1, "triangular", "hc0")
    fit = fit_side(sample, "right", h, 1, 1, "triangular")
    n = sample.n
    meat = np.zeros((2, 2))
    for pos, i in enumerate(fit.idx):
        u = (sample.x[i] - sample.cutoff) / h
        kv = kernel_eval(float(u), "triangular")
        r = np.array([1.0, u])
        meat += kv**2 * np.outer(r, r) * fit.residuals[pos] ** 2
    meat /= n * h
    ginv = np.linalg.inv(fit.gram)
    e = extractor_vector(0, 1, 1, np.zeros(0))
    expect = float(e @ ginv @ meat @ ginv.T @ e)
    assert float(e @ vc @ e) == pytest.approx(expect, rel=1e-10)


def test_mse_bandwidth_formula_arithmetic():
    # two-sided order-1 case: ((1/(4n)) * V / Bdiff^2)^(1/5)
    assert (0.25 * 1.0 / 1.0) ** 0.2 == pytest.approx(0.757858, abs=5e-7)


def test_mse_bandwidth_reproduces_formula_from_constants():
    sample = random_instance(43, n=600, d=1)
    spec = FitSpec()
    sel = mse_bandwidth(sample, spec)
    v_sum = sel.v_left + sel.v_right
    b_diff = sel.b_right - sel.b_left
    h_ref = np.sqrt(sel.pilot_left * sel.pilot_right)
    reg = BIAS_REG_EPS * v_sum / (sample.n * h_ref)
    raw = (v_sum / (4.0 * sample.n * (b_diff**2 + reg))) ** 0.2
    assert sel.h_left == sel.h_right
    assert min(raw, 1.0) == pytest.approx(sel.h_left, rel=1e-12) or (
        sel.h_left != raw  # clamped
    )
    dist = np.sort(np.abs(sample.x[sample.x >= 0]))
    lo = np.sort(np.abs(sample.x[sample.x < 0]))
    k_dim = 4
    lo_bound = max(dist[k_dim + 1], lo[k_dim + 1]) * (1 + 1e-9)
    hi_bound = max(dist[-1], lo[-1]) * (1 + 1e-9)
    assert sel.h_left == pytest.approx(
        float(np.clip(raw, lo_bound, hi_bound)), rel=1e-12
    )


def test_quadrupling_n_shrinks_h_at_fixed_constants():
    # the formula's n-exponent: with identical constants, h(4n)/h(n) = 4^(-1/5)
    v, b2 = 2.0, 0.5
    h1 = (v / (4 * 1000 * b2)) ** 0.2
    h4 = (v / (4 * 4000 * b2)) ** 0.2
    assert h4 / h1 == pytest.approx(4 ** (-0.2), rel=1e-12)


def test_y_scaling_leaves_h_unchanged():
    sample = random_instance(47, n=500, d=1)
    spec = FitSpec()
    sel = mse_bandwidth(sample, spec)
    scaled = validate_sample(7.0 * sample.y, sample.x, 0.0, sample.w)
    sel_scaled = mse_bandwidth(scaled, spec)
    assert sel_scaled.v_left == pytest.approx(49.0 * sel.v_left, rel=1e-9)
    assert sel_scaled.b_left == pytest.approx(7.0 * sel.b_left, rel=1e-9)
    assert sel_scaled.h_left == pytest.approx(sel.h_left, rel=1e-9)


def test_x_scale_equivariance():
    cfg = DgpConfig(
        alpha_left=(0.5, 0.8, -2.4),
        alpha_right=(1.0, 0.6, 3.6),
        noise=("constant", 0.1),
    )
    sample = gen_sample(cfg, 800, 31)
    spec = FitSpec()
    sel = mse_bandwidth(sample, spec)
    scaled = validate_sample(sample.y, 2.0 * sample.x, 0.0)
    sel_scaled = mse_bandwidth(scaled, spec)
    assert sel_scaled.h_left / sel.h_left == pytest.approx(2.0, rel=1e-3)


def test_degenerate_bias_flag_on_exact_zero_constants():
    # identically zero outcome: residuals, variance, and bias constants are
    # exactly zero, the flag fires, and the bandwidth falls to its clamp
    rng = np.random.default_rng(99)
    sample = validate_sample(np.zeros(400), rng.uniform(-1, 1, 400), 0.0)
    sel = mse_bandwidth(sample, FitSpec())
    assert sel.bias_degenerate
    assert np.isfinite(sel.h_left) and sel.h_left > 0


def test_noiseless_linear_dgp_keeps_finite_bandwidth():
    cfg = DgpConfig(
        alpha_left=(0.0, 1.0),
        alpha_right=(0.5, 1.0),
        noise=("constant", 0.0),
    )
    sample = gen_sample(cfg, 400, 99)
    sel = mse_bandwidth(sample, FitSpec())
    assert np.isfinite(sel.h_left) and sel.h_left > 0


def test_noisy_linear_dgp_still_selects():
    cfg = DgpConfig(
        alpha_left=(0.0, 1.0),
        alpha_right=(0.5, 1.0),
        noise=("constant", 0.4),
    )
    for rep in range(5):
        sample = gen_sample(cfg, 400, (99, rep))
        sel = mse_bandwidth(sample, FitSpec())
        assert np.isfinite(sel.h_left) and sel.h_left > 0


def test_one_sided_mode():
    sample = random_instance(53, n=600, d=1)
    sel = mse_bandwidth(sample, FitSpec(bandwidth=Select("one_sided")))
    assert sel.mode == "one_sided"
    assert sel.h_left > 0 and sel.h_right > 0


@pytest.mark.parametrize("p,s", [(1, 1), (2, 1), (1, 2)])
def test_bias_constants_read_main_order_blocks_of_pilot_gram(p, s):
    sample = random_instance(31, n=400, d=2)
    cov = (p + 2) + (s + 2) * np.arange(sample.d)
    sub = np.concatenate(
        [np.arange(p + 1)] + [c + np.arange(s + 1) for c in cov]
    )
    for side in ("left", "right"):
        b = pilot_bandwidth(sample, side, p, s)
        bc = bias_constants(sample, side, p, s, "triangular", b)
        main = fit_side(sample, side, b, p, s, "triangular")
        pilot_gram = bc.pilot_fit.gram
        np.testing.assert_array_equal(pilot_gram[np.ix_(sub, sub)], main.gram)

        zeta, _ = moment_vectors(sample, side, b, p, s, p, "triangular")
        _, phi = moment_vectors(sample, side, b, p, s, s, "triangular")
        zeta_blk = pilot_gram[sub, p + 1]
        phi_blk = pilot_gram[np.ix_(sub, cov + s + 1)]
        np.testing.assert_allclose(
            zeta_blk, zeta, rtol=0, atol=1e-13 * np.abs(zeta).max()
        )
        np.testing.assert_allclose(
            phi_blk, phi, rtol=0, atol=1e-13 * np.abs(phi).max()
        )
        # the p <= s channel reads u^(p+1), the p >= s channel W_l u^(s+1)
        top = ([p + 1] if p <= s else []) + (
            list(cov + s + 1) if p >= s else []
        )
        expect = np.zeros_like(bc.routes)
        expect[top] = np.linalg.solve(
            main.gram, pilot_gram[np.ix_(sub, top)]
        ).T
        np.testing.assert_array_equal(bc.routes, expect)
        np.testing.assert_array_equal(
            bc.bias, bc.routes.T @ bc.pilot_fit.theta
        )
