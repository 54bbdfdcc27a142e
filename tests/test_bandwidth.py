from __future__ import annotations

import numpy as np
import pytest
from conftest import random_instance
import oracles
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
from rdhte.fitting import fit_side, nested_fit
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
    gram = oracles.gram(fit_side(sample, "right", b, 1, 1, "triangular"))
    zeta, phi = _loop_moments(sample, "right", b, 1, 1, 1, "triangular")
    b0 = np.linalg.solve(gram, zeta) * t0
    b1 = np.linalg.solve(gram, phi) @ np.array([t1])
    e = extractor_vector(0, 1, 1, np.array([1.0]))
    expect = float(e @ b0) + float(e @ b1)
    assert float(e @ bc.bias) == pytest.approx(expect, rel=1e-10)


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
        vals[rep] = float(e @ bc.bias)
    assert np.mean(vals) < 0


def test_variance_constants_zero_for_noiseless_in_span():
    cfg = DgpConfig(
        alpha_left=(0.5, 0.8),
        alpha_right=(1.0, 0.6),
        noise=("constant", 0.0),
    )
    sample = gen_sample(cfg, 500, 21)
    bias = bias_constants(sample, "right", 1, 1, "triangular", 0.4)
    vc = variance_constants(sample, bias, "hc0")
    e = extractor_vector(0, 1, 1, np.zeros(0))
    assert float(e @ vc @ e) == pytest.approx(0.0, abs=1e-20)


def test_variance_constants_match_brute_force():
    sample = random_instance(41, n=200, d=0)
    h = 0.5
    bias = bias_constants(sample, "right", 1, 1, "triangular", h)
    vc = variance_constants(sample, bias, "hc0")
    fit = fit_side(sample, "right", h, 1, 1, "triangular")
    n = sample.n
    meat = np.zeros((2, 2))
    for pos, i in enumerate(fit.idx):
        u = (sample.x[i] - sample.cutoff) / h
        kv = kernel_eval(float(u), "triangular")
        r = np.array([1.0, u])
        meat += kv**2 * np.outer(r, r) * fit.residuals[pos] ** 2
    meat /= n * h
    ginv = np.linalg.inv(oracles.gram(fit))
    e = extractor_vector(0, 1, 1, np.zeros(0))
    expect = float(e @ ginv @ meat @ ginv.T @ e)
    assert float(e @ vc @ e) == pytest.approx(expect, rel=1e-10)


def _select(sample, spec):
    """mse_bandwidth after the pilot stage that fit_hte runs before it."""
    p, s, kernel = spec.p, spec.s, spec.kernel
    bias = [
        bias_constants(
            sample, side, p, s, kernel, pilot_bandwidth(sample, side, p, s)
        )
        for side in ("left", "right")
    ]
    return mse_bandwidth(sample, spec, *bias)


def test_mse_bandwidth_formula_arithmetic():
    # two-sided order-1 case: ((1/(4n)) * V / Bdiff^2)^(1/5)
    assert (0.25 * 1.0 / 1.0) ** 0.2 == pytest.approx(0.757858, abs=5e-7)


def _side_terms(sample, spec, side):
    """One side's v = e'Ve, b = e'bias, pilot h and clip bounds, from the
    constants and the raw distances rather than from the selection."""
    p, s = spec.p, spec.s
    e = extractor_vector(spec.nu, p, s, np.ones(sample.d))
    h = pilot_bandwidth(sample, side, p, s)
    bc = bias_constants(sample, side, p, s, spec.kernel, h)
    v = float(e @ variance_constants(sample, bc, spec.vce) @ e)
    right = sample.x >= sample.cutoff
    on_side = right if side == "right" else ~right
    dist = np.sort(np.abs(sample.x[on_side] - sample.cutoff))
    k_dim = n_params(p, s, sample.d)
    lo, hi = dist[k_dim + 1] * (1 + 1e-9), dist[-1] * (1 + 1e-9)
    return v, float(e @ bc.bias), h, lo, hi


def _formula_h(n, v, b, h_ref):
    """The order-1 (nu = 0) rule: (v / (4n (b^2 + reg)))^(1/5)."""
    reg = BIAS_REG_EPS * v / (n * h_ref)
    return (v / (4.0 * n * (b**2 + reg))) ** 0.2


def test_mse_bandwidth_reproduces_formula_from_constants():
    sample = random_instance(43, n=600, d=1)
    spec = FitSpec()
    sel = _select(sample, spec)
    v_l, b_l, h_l, lo_l, hi_l = _side_terms(sample, spec, "left")
    v_r, b_r, h_r, lo_r, hi_r = _side_terms(sample, spec, "right")
    assert (sel.v_left, sel.v_right, sel.b_left, sel.b_right) == (
        pytest.approx((v_l, v_r, b_l, b_r), rel=1e-12)
    )
    raw = _formula_h(sample.n, v_l + v_r, b_r - b_l, np.sqrt(h_l * h_r))
    # unclipped: the common rule is tested, not a bound
    assert max(lo_l, lo_r) < raw < max(hi_l, hi_r)
    assert sel.h_left == sel.h_right
    assert sel.h_left == pytest.approx(raw, rel=1e-12)


def test_quadrupling_n_shrinks_h_at_fixed_constants():
    # the formula's n-exponent: with identical constants, h(4n)/h(n) = 4^(-1/5)
    v, b2 = 2.0, 0.5
    h1 = (v / (4 * 1000 * b2)) ** 0.2
    h4 = (v / (4 * 4000 * b2)) ** 0.2
    assert h4 / h1 == pytest.approx(4 ** (-0.2), rel=1e-12)


def test_y_scaling_leaves_h_unchanged():
    sample = random_instance(47, n=500, d=1)
    spec = FitSpec()
    sel = _select(sample, spec)
    scaled = validate_sample(7.0 * sample.y, sample.x, 0.0, sample.w)
    sel_scaled = _select(scaled, spec)
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
    sel = _select(sample, spec)
    scaled = validate_sample(sample.y, 2.0 * sample.x, 0.0)
    sel_scaled = _select(scaled, spec)
    assert sel_scaled.h_left / sel.h_left == pytest.approx(2.0, rel=1e-3)


def test_degenerate_bias_flag_on_exact_zero_constants():
    # identically zero outcome: residuals, variance, and bias constants are
    # exactly zero, the flag fires, and the bandwidth falls to its clamp
    rng = np.random.default_rng(99)
    sample = validate_sample(np.zeros(400), rng.uniform(-1, 1, 400), 0.0)
    sel = _select(sample, FitSpec())
    assert sel.bias_degenerate
    assert np.isfinite(sel.h_left) and sel.h_left > 0


def test_noiseless_linear_dgp_keeps_finite_bandwidth():
    cfg = DgpConfig(
        alpha_left=(0.0, 1.0),
        alpha_right=(0.5, 1.0),
        noise=("constant", 0.0),
    )
    sample = gen_sample(cfg, 400, 99)
    sel = _select(sample, FitSpec())
    assert np.isfinite(sel.h_left) and sel.h_left > 0


def test_noisy_linear_dgp_still_selects():
    cfg = DgpConfig(
        alpha_left=(0.0, 1.0),
        alpha_right=(0.5, 1.0),
        noise=("constant", 0.4),
    )
    for rep in range(5):
        sample = gen_sample(cfg, 400, (99, rep))
        sel = _select(sample, FitSpec())
        assert np.isfinite(sel.h_left) and sel.h_left > 0


def test_one_sided_mode():
    # each side solves the rule alone, with its own v, b and pilot h
    sample = random_instance(53, n=600, d=1)
    spec = FitSpec(bandwidth=Select("one_sided"))
    sel = _select(sample, spec)
    for side in ("left", "right"):
        v, b, h_pilot, lo, hi = _side_terms(sample, spec, side)
        assert (getattr(sel, f"v_{side}"), getattr(sel, f"b_{side}")) == (
            pytest.approx((v, b), rel=1e-12)
        )
        raw = _formula_h(sample.n, v, b, h_pilot)
        assert lo < raw < hi
        assert getattr(sel, f"h_{side}") == pytest.approx(raw, rel=1e-12)


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
        pilot_gram = oracles.gram(bc.pilot_fit)
        np.testing.assert_array_equal(
            pilot_gram[np.ix_(sub, sub)], oracles.gram(main)
        )

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
        # the routes are R11^-1 R12, products with the pilot's R^-1, and
        # agree with the main-order Gram solved against the Gram block
        expect = np.zeros_like(bc.routes)
        expect[top] = np.linalg.solve(
            oracles.gram(main), pilot_gram[np.ix_(sub, top)]
        ).T
        np.testing.assert_allclose(
            bc.routes, expect, rtol=0, atol=1e-12 * np.abs(expect).max()
        )
        np.testing.assert_array_equal(
            bc.bias, bc.routes.T @ bc.pilot_fit.theta
        )


def _assert_close(actual, desired, rel=1e-12):
    """Equal within rel times desired's largest entry."""
    np.testing.assert_allclose(
        actual, desired, rtol=0, atol=rel * np.abs(desired).max()
    )


@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("p,s", [(1, 1), (2, 1), (1, 2)])
def test_ordered_fit_equals_basis_order_fit(p, s, d):
    # the pilot fit factors the main-order columns first: a permuted order
    # whenever there are covariates, the basis order when d = 0
    sample = random_instance(71 + d, n=600, d=d, binary=False)
    for side in ("left", "right"):
        b = pilot_bandwidth(sample, side, p, s)
        pilot = bias_constants(sample, side, p, s, "triangular", b).pilot_fit
        assert sorted(pilot.order) == list(range(pilot.n_coef))
        if d:
            assert list(pilot.order) != list(range(pilot.n_coef))
        g = oracles.gram(pilot)
        _assert_close(pilot.r.T @ pilot.r, g)
        # a forward error of Gram^-1 Gram, so bounded by cond(Gram) eps; at
        # cond ~ 7e4 it exceeds 1e-12 in the basis-order fit too
        np.testing.assert_allclose(
            pilot.solve_gram(g), np.eye(pilot.n_coef), rtol=0,
            atol=np.linalg.cond(g) * np.finfo(float).eps,
        )
        plain = fit_side(sample, side, b, p + 1, s + 1, "triangular")
        for name in ("theta_norm", "residuals", "leverages"):
            _assert_close(getattr(pilot, name), getattr(plain, name))


@pytest.mark.parametrize("kernel", ["triangular", "uniform", "epanechnikov"])
@pytest.mark.parametrize("d", [0, 1, 2])
@pytest.mark.parametrize("p,s", [(1, 1), (2, 1), (1, 2), (2, 2)])
def test_main_fit_read_off_pilot_equals_standalone_fit(p, s, d, kernel):
    sample = random_instance(61 + d, n=600, d=d, binary=False)
    main_pos = np.concatenate(
        [np.arange(p + 1)]
        + [(p + 2) + (s + 2) * ell + np.arange(s + 1) for ell in range(d)]
    )
    top = ([p + 1] if p <= s else []) + (
        [(p + 2) + (s + 2) * ell + s + 1 for ell in range(d)] if p >= s else []
    )
    for side in ("left", "right"):
        b = pilot_bandwidth(sample, side, p, s)
        bc = bias_constants(sample, side, p, s, kernel, b)
        nested = nested_fit(sample, bc.pilot_fit, p, s)
        alone = fit_side(sample, side, b, p, s, kernel)
        np.testing.assert_array_equal(nested.idx, alone.idx)
        assert nested.eff_n == alone.eff_n
        assert (nested.p, nested.s, nested.h) == (p, s, b)
        for name in ("theta_norm", "theta", "residuals", "leverages"):
            _assert_close(getattr(nested, name), getattr(alone, name))
        _assert_close(oracles.gram(nested), oracles.gram(alone))
        # the factor and its inverse agree with the fit's own Gram
        np.testing.assert_allclose(
            nested.r_inv @ nested.r, np.eye(alone.n_coef), atol=1e-12
        )
        _assert_close(nested.r.T @ nested.r, oracles.gram(alone))

        # the routes equal the main-order Gram solved against the pilot
        # Gram's top columns, as they were computed before
        gram = oracles.gram(bc.pilot_fit)
        expect = np.zeros_like(bc.routes)
        expect[top] = np.linalg.solve(
            gram[np.ix_(main_pos, main_pos)], gram[np.ix_(main_pos, top)]
        ).T
        if top:
            _assert_close(bc.routes, expect)
        else:
            np.testing.assert_array_equal(bc.routes, expect)
