from __future__ import annotations

import dataclasses
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.special import ndtr, ndtri
from conftest import random_instance
from oracles import add_at_cluster_sums, gram
from rbc_oracle import _influence_pieces

import rdhte

from rdhte.bandwidth import bias_constants, pilot_bandwidth
from rdhte.basis import design_rows, extractor_vector, scaling_diag
from rdhte.errors import LeverageOne, TooFewClusters
from rdhte.estimands import Selector, cate_at, contrast, fit_hte
from rdhte.fitting import fit_side
from rdhte.inference import (
    ci_pvalue,
    cluster_meat,
    coef_variance,
    _cluster_sums,
    hc_weights,
    meat_matrix,
    rbc_variance,
)
from rdhte.model import Common, Fixed, FitSpec, validate_sample
from rdhte.simulate import canonical_preset, gen_sample, inflated_curvature_preset, monte_carlo, true_cate


def brute_meat(fit, weights):
    """Independent per-observation summation of the meat matrix."""
    k = fit.design.shape[1]
    out = np.zeros((k, k))
    for i in range(fit.eff_n):
        r = fit.design[i]
        out += (
            weights[i]
            * fit.kvals[i] ** 2
            * fit.residuals[i] ** 2
            * np.outer(r, r)
        )
    return out / (fit.n_total * fit.h)


def two_sided_fits(sample, h, p=1, s=1, kernel="triangular"):
    return (
        fit_side(sample, "left", h, p, s, kernel),
        fit_side(sample, "right", h, p, s, kernel),
    )


# ---------------------------------------------------------------------------
# heteroskedasticity weights


def test_hc0_weights_are_ones():
    fit = fit_side(random_instance(0), "right", 0.7, 1, 1, "triangular")
    assert np.array_equal(hc_weights("hc0", fit), np.ones(fit.eff_n))


def test_hc1_matches_brute_force_traces():
    fit = fit_side(random_instance(1, n=80), "left", 0.8, 1, 1, "triangular")
    ginv = np.linalg.inv(gram(fit))
    m = fit.eff_n
    q = np.zeros((m, m))
    for i in range(m):
        for j in range(m):
            q[i, j] = (
                fit.design[i]
                @ ginv
                @ fit.design[j]
                * fit.kvals[j]
                / (fit.n_total * fit.h)
            )
    expect = m / (m - 2.0 * np.trace(q) + np.trace(q @ q))
    got = hc_weights("hc1", fit)
    assert got == pytest.approx(np.full(m, expect), rel=1e-10)
    # published arithmetic instance of the same formula
    assert 100 / (100 - 2 * 4 + 4) == pytest.approx(100 / 96)


def half_leverage_fit():
    # intercept-only uniform-kernel fit with two window points has exact
    # leverage 1/2 on each
    x = np.array([0.5, 0.7, -0.5, -0.7])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    sample = validate_sample(y, x, 0.0)
    return fit_side(sample, "right", 1.0, 0, 0, "uniform")


def test_hc2_hc3_at_exact_half_leverage():
    fit = half_leverage_fit()
    assert fit.leverages == pytest.approx([0.5, 0.5], abs=1e-14)
    assert hc_weights("hc2", fit) == pytest.approx([2.0, 2.0], abs=1e-12)
    assert hc_weights("hc3", fit) == pytest.approx([4.0, 4.0], abs=1e-12)


def test_hc_weight_ordering_invariant():
    fit = fit_side(random_instance(2, n=150), "right", 0.6, 1, 1, "triangular")
    hc2 = hc_weights("hc2", fit)
    hc3 = hc_weights("hc3", fit)
    assert np.all(hc2 >= 1.0)
    assert np.all(hc3 >= hc2)


def test_leverage_one_rejected_for_hc2_hc3():
    # a single window point saturates the intercept fit: leverage 1
    x = np.array([0.5, 1.5, -0.5, -0.7])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    sample = validate_sample(y, x, 0.0)
    fit = fit_side(sample, "right", 1.0, 0, 0, "uniform")
    assert fit.leverages == pytest.approx([1.0], abs=1e-12)
    for kind in ("hc2", "hc3"):
        with pytest.raises(LeverageOne):
            hc_weights(kind, fit)
    assert np.array_equal(hc_weights("hc0", fit), [1.0])


def test_unknown_hc_kind_rejected():
    fit = half_leverage_fit()
    with pytest.raises(ValueError):
        hc_weights("hc9", fit)


# ---------------------------------------------------------------------------
# meat matrices


def test_meat_matrix_matches_brute_force():
    sample = random_instance(3, n=40)
    for side, h in (("left", 0.9), ("right", 0.5)):
        fit = fit_side(sample, side, h, 1, 1, "triangular")
        w = hc_weights("hc3", fit)
        assert meat_matrix(fit, w) == pytest.approx(brute_meat(fit, w), rel=1e-12)


def test_meat_zero_under_noiseless_in_span_outcome():
    rng = np.random.default_rng(4)
    x = rng.uniform(-1, 1, 120)
    w = rng.binomial(1, 0.5, (120, 1)).astype(float)
    t = (x >= 0).astype(float)
    y = 1.0 + 2.0 * x + t * (0.5 + x) + (0.3 - 0.2 * x + 0.4 * t) * w[:, 0]
    sample = validate_sample(y, x, 0.0, w)
    fit = fit_side(sample, "right", 0.8, 1, 1, "triangular")
    v = meat_matrix(fit, hc_weights("hc0", fit))
    assert np.max(np.abs(v)) < 1e-20


def test_hc1_meat_is_scalar_multiple_of_hc0_meat():
    fit = fit_side(random_instance(5, n=90), "left", 0.7, 1, 1, "triangular")
    v0 = meat_matrix(fit, hc_weights("hc0", fit))
    v1 = meat_matrix(fit, hc_weights("hc1", fit))
    scalar = float(hc_weights("hc1", fit)[0])
    assert v1 == pytest.approx(scalar * v0, rel=1e-13)


def test_meat_symmetric_psd():
    fit = fit_side(random_instance(6, n=100), "right", 0.6, 1, 1, "triangular")
    v = meat_matrix(fit, hc_weights("hc0", fit))
    assert v == pytest.approx(v.T, abs=1e-15)
    assert np.min(np.linalg.eigvalsh(v)) >= -1e-14


# ---------------------------------------------------------------------------
# cluster meat


def cluster_fixture():
    x = np.array([0.2, 0.4, 0.6, 0.8, -0.2, -0.4, -0.6, -0.8])
    y = np.array([1.0, 1.5, -0.5, 2.0, 0.3, 1.1, 0.8, -0.2])
    sample = validate_sample(y, x, 0.0)
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3])
    return sample, labels


def test_cluster_meat_matches_hand_computation():
    sample, labels = cluster_fixture()
    fit = fit_side(sample, "right", 1.0, 1, 1, "triangular")
    meat = cluster_meat(fit, labels)
    sums = {}
    for pos, i in enumerate(fit.idx):
        score = fit.design[pos] * fit.kvals[pos] * fit.residuals[pos]
        key = int(labels[i])
        sums[key] = sums.get(key, 0.0) + score
    hand = sum(np.outer(v, v) for v in sums.values()) / (
        fit.n_total * fit.h
    )
    assert meat == pytest.approx(hand, rel=1e-13)


def test_all_singleton_clusters_reduce_to_hc0_meat():
    sample = random_instance(7, n=60)
    fit = fit_side(sample, "right", 0.8, 1, 1, "triangular")
    labels = np.arange(sample.n)
    meat = cluster_meat(fit, labels)
    assert meat == pytest.approx(
        meat_matrix(fit, hc_weights("hc0", fit)), rel=1e-12
    )


def test_singleton_cluster_variance_is_df_scaled_hc0():
    sample = random_instance(8, n=60)
    left, right = two_sided_fits(sample, 0.8)
    evec = extractor_vector(0, 1, 1, np.array([1.0]))
    labels = np.arange(sample.n)
    v_cl = coef_variance(left, right, evec, 0, "cluster", labels)
    v_hc0 = coef_variance(left, right, evec, 0, "hc0")
    df = sample.n / (sample.n - 1 - 1 - 1)
    assert v_cl.variance == pytest.approx(df * v_hc0.variance, rel=1e-12)
    assert v_cl.n_clusters == sample.n


@pytest.mark.parametrize("case", range(40))
def test_cluster_sums_are_bitwise_add_at(case):
    rng = np.random.default_rng([29, case])
    n = int(rng.integers(2, 4_000))
    m = int(rng.integers(2, min(n, 3_000) + 1))
    g = int(rng.integers(2, 501))
    k = int(rng.integers(1, 25))
    cluster = rng.integers(0, g, n)
    idx = np.sort(rng.choice(n, m, replace=False))
    values = rng.standard_normal((m, k)) * 10.0 ** rng.integers(-8, 9, k)
    if np.unique(cluster[idx]).size < 2:
        cluster[idx[0]] = g
    if case % 2:
        # a window that misses about half the clusters, its first two kept
        keep = rng.random(g + 1) < 0.5
        keep[list(dict.fromkeys(cluster[idx].tolist()))[:2]] = True
        inside = keep[cluster[idx]]
        idx, values = idx[inside], values[inside]
    for vals in (values, values[:, 0]):  # m x k and 1-D
        sums = _cluster_sums("right", cluster, idx, vals)
        want = add_at_cluster_sums(cluster, idx, vals)
        assert sums.shape == want.shape and sums.tobytes() == want.tobytes()
    sums = _cluster_sums("right", cluster, idx, values)
    # one row per cluster, in order of first appearance in the window
    firsts = list(dict.fromkeys(cluster[idx].tolist()))
    assert sums.shape == (len(firsts), k)
    for row, label in zip(sums, firsts):
        np.testing.assert_allclose(
            row, values[cluster[idx] == label].sum(axis=0),
            rtol=1e-12, atol=1e-12 * np.abs(values).sum(axis=0).max(),
        )


@pytest.mark.parametrize("rows, count", [([3, 5, 9], 1), ([], 0)])
def test_cluster_sums_need_two_clusters_in_the_window(rows, count):
    cluster = np.array([0, 1, 2, 4, 1, 4, 0, 3, 2, 4])
    idx = np.array(rows, dtype=np.intp)
    with pytest.raises(
        TooFewClusters,
        match=rf"^left side window has {count} cluster\(s\); need >= 2$",
    ):
        _cluster_sums("left", cluster, idx, np.ones((idx.size, 3)))


def test_single_cluster_in_window_rejected():
    sample, _ = cluster_fixture()
    fit = fit_side(sample, "right", 1.0, 1, 1, "triangular")
    with pytest.raises(TooFewClusters):
        cluster_meat(fit, np.array([5, 5, 5, 5, 0, 1, 2, 3]))
    with pytest.raises(TooFewClusters):
        cluster_meat(fit, None)


# ---------------------------------------------------------------------------
# coefficient variance


def test_null_selector_gives_zero_variance():
    left, right = two_sided_fits(random_instance(9), 0.7)
    est = coef_variance(left, right, np.zeros(left.n_coef), 0, "hc3")
    assert est.variance == 0.0
    assert est.se == 0.0


def test_doubling_kernel_values_leaves_variance_unchanged():
    left, right = two_sided_fits(random_instance(10), 0.7)
    evec = extractor_vector(0, 1, 1, np.array([0.0]))

    def doubled(fit):
        # the Gram doubles, so its factor r grows by sqrt(2)
        return dataclasses.replace(
            fit,
            kvals=2.0 * fit.kvals,
            r=np.sqrt(2.0) * fit.r,
            r_inv=fit.r_inv / np.sqrt(2.0),
        )

    for vce in ("hc0", "hc1", "hc2", "hc3"):
        base = coef_variance(left, right, evec, 0, vce)
        scaled = coef_variance(doubled(left), doubled(right), evec, 0, vce)
        assert scaled.variance == pytest.approx(base.variance, rel=1e-12)


def test_coef_variance_matches_oracle_sandwich():
    sample = random_instance(11, n=60)
    left, right = two_sided_fits(sample, 0.75)

    def oracle(fit, evec, nu):
        ginv = np.linalg.inv(gram(fit))
        v = brute_meat(fit, np.ones(fit.eff_n))
        return float(evec @ ginv @ v @ ginv @ evec) / (
            fit.n_total * fit.h ** (2 * nu + 1)
        )

    for nu, w in ((0, np.array([1.0])), (0, np.array([0.0])), (1, np.array([1.0]))):
        evec = extractor_vector(nu, 1, 1, w)
        est = coef_variance(left, right, evec, nu, "hc0")
        expect = oracle(left, evec, nu) + oracle(right, evec, nu)
        assert est.variance == pytest.approx(expect, rel=1e-10)
        assert est.se == pytest.approx(np.sqrt(expect), rel=1e-10)


def test_variance_nonnegative_for_random_selectors():
    left, right = two_sided_fits(random_instance(12), 0.7)
    rng = np.random.default_rng(13)
    for _ in range(20):
        vec = rng.standard_normal(left.n_coef)
        est = coef_variance(left, right, vec, 0, "hc3")
        assert est.contraction_left >= 0.0
        assert est.contraction_right >= 0.0
        assert est.variance >= 0.0


def test_outcome_scaling_scales_se_leaves_z_and_p():
    sample = random_instance(14, n=150)
    scaled = validate_sample(3.0 * sample.y, sample.x, sample.cutoff, sample.w)
    evec = extractor_vector(0, 1, 1, np.array([1.0]))
    est1 = coef_variance(*two_sided_fits(sample, 0.7), evec, 0, "hc3")
    est3 = coef_variance(*two_sided_fits(scaled, 0.7), evec, 0, "hc3")
    assert est3.se == pytest.approx(3.0 * est1.se, rel=1e-12)
    l1, r1 = two_sided_fits(sample, 0.7)
    l3, r3 = two_sided_fits(scaled, 0.7)
    pt1 = float(evec @ (r1.theta - l1.theta))
    pt3 = float(evec @ (r3.theta - l3.theta))
    *_, z1, p1, _ = ci_pvalue(pt1, est1.se, 0.95)
    *_, z3, p3, _ = ci_pvalue(pt3, est3.se, 0.95)
    assert z3 == pytest.approx(z1, rel=1e-12)
    assert p3 == pytest.approx(p1, rel=1e-12)


# ---------------------------------------------------------------------------
# bias-corrected point


def test_rbc_point_zero_bias_is_identity():
    result = fit_hte(random_instance(18), FitSpec(bandwidth=Common(0.7)))
    # a stage's share of the contrast is built with it, so zero the share
    flat = {
        side: dataclasses.replace(
            stage,
            forms=dataclasses.replace(
                stage.forms, bias=np.zeros_like(stage.forms.bias)
            ),
        )
        for side, stage in (("left", result.left), ("right", result.right))
    }
    result = dataclasses.replace(
        result, left=flat["left"], right=flat["right"]
    )
    rec = cate_at(result, [1.0])
    assert rec.bias_estimate == 0.0
    assert rec.rbc_point == rec.point


def test_rbc_point_arithmetic():
    result = fit_hte(random_instance(19), FitSpec(bandwidth=Fixed(0.6, 0.8)))
    # h^(1 + min(p, s) - nu): a derivative target drops one bandwidth power
    for nu, power in ((0, 2), (1, 1)):
        rec = contrast(result, Selector(np.array([1.0, 0.5]), nu=nu))
        evec = extractor_vector(nu, 1, 1, np.array([0.5]))
        bias = 0.8**power * float(
            evec @ result.right.bias.bias
        ) - 0.6**power * float(evec @ result.left.bias.bias)
        assert rec.bias_estimate == pytest.approx(bias, rel=1e-14)
        assert rec.rbc_point == rec.point - rec.bias_estimate


def test_rbc_point_reduces_bias_under_curvature():
    config = inflated_curvature_preset()
    report = monte_carlo(
        config,
        FitSpec(),
        reps=400,
        n=800,
        seed=2024,
        targets=[(np.array([0.0]), true_cate(config, np.array([0.0])))],
    )
    target = report.targets[0]
    assert abs(target.mean_bias_rbc) < abs(target.mean_bias)


# ---------------------------------------------------------------------------
# bias-corrected variance


def rbc_setup(seed, n=60, h=0.6):
    sample = random_instance(seed, n=n)
    pieces = {}
    for side in ("left", "right"):
        b = pilot_bandwidth(sample, side, 1, 1)
        bias = bias_constants(sample, side, 1, 1, "triangular", b)
        pilot = bias.pilot_fit
        main = fit_side(sample, side, h, 1, 1, "triangular")
        pieces[side] = (main, pilot, bias)
    return sample, pieces


def oracle_rbc_variance(sample, pieces, evec, nu=0):
    """Loop-based recomputation of the combined-influence HC0 variance."""
    total = 0.0
    for side in ("left", "right"):
        fit, pilot, bias = pieces[side]
        p, s, d = fit.p, fit.s, fit.d
        q = min(p, s)
        n, h, b = fit.n_total, fit.h, pilot.h
        omega = {}
        ginv = np.linalg.inv(gram(fit))
        e_scaled = evec / scaling_diag(h, p, s, d)
        for pos, i in enumerate(fit.idx):
            val = (fit.design[pos] @ ginv @ e_scaled) * fit.kvals[pos] / (n * h)
            omega[i] = omega.get(i, 0.0) + val
        # the bias reads the raw-power pilot coefficients through the routes
        chan = (bias.routes @ evec) / scaling_diag(b, p + 1, s + 1, d)
        pginv = np.linalg.inv(gram(pilot))
        for pos, i in enumerate(pilot.idx):
            val = float(pilot.design[pos] @ pginv @ chan)
            omega[i] = omega.get(i, 0.0) - h ** (1 + q - nu) * val * pilot.kvals[
                pos
            ] / (n * b)
        for i, wgt in omega.items():
            u_b = (sample.x[i] - sample.cutoff) / b
            row = design_rows(np.array([u_b]), sample.w[i : i + 1], p + 1, s + 1)[0]
            resid = sample.y[i] - float(row @ pilot.theta_norm)
            total += wgt**2 * resid**2
    return total


def test_rbc_variance_matches_loop_oracle():
    sample, pieces = rbc_setup(15)
    (l, pl, bl), (r, pr, br) = pieces["left"], pieces["right"]
    for w, lead in ((np.array([1.0]), 1.0), (np.array([1.0]), 0.0), (np.array([0.0]), 1.0)):
        evec = extractor_vector(0, 1, 1, w, lead=lead)
        got = rbc_variance(sample, l, r, bl, br, evec, 0, "hc0")
        expect = oracle_rbc_variance(sample, pieces, evec)
        assert got == pytest.approx(expect, rel=1e-10)


def test_rbc_variance_weight_ordering():
    sample, pieces = rbc_setup(16)
    (l, pl, bl), (r, pr, br) = pieces["left"], pieces["right"]
    evec = extractor_vector(0, 1, 1, np.array([1.0]))
    v0 = rbc_variance(sample, l, r, bl, br, evec, 0, "hc0")
    v3 = rbc_variance(sample, l, r, bl, br, evec, 0, "hc3")
    assert v3 >= v0 > 0.0


def test_rbc_variance_exceeds_plain_on_linear_dgp():
    # degree-1 outcome, main bandwidth equal to the pilot bandwidth so both
    # fits share one window; accounting for the correction step can only
    # add sampling noise here
    rng = np.random.default_rng(17)
    n = 400
    x = rng.uniform(-1, 1, n)
    w = rng.binomial(1, 0.5, (n, 1)).astype(float)
    t = (x >= 0).astype(float)
    y = (
        0.2
        + 0.9 * x
        + t * (0.5 + 0.3 * x)
        + (0.4 - 0.2 * x + 0.3 * t) * w[:, 0]
        + 0.5 * rng.standard_normal(n)
    )
    sample = validate_sample(y, x, 0.0, w)
    fits = {}
    for side in ("left", "right"):
        b = pilot_bandwidth(sample, side, 1, 1)
        bias = bias_constants(sample, side, 1, 1, "triangular", b)
        pilot = bias.pilot_fit
        fits[side] = (fit_side(sample, side, b, 1, 1, "triangular"), pilot, bias)
    (l, pl, bl), (r, pr, br) = fits["left"], fits["right"]
    evec = extractor_vector(0, 1, 1, np.array([1.0]))
    plain = coef_variance(l, r, evec, 0, "hc0").variance
    corrected = rbc_variance(sample, l, r, bl, br, evec, 0, "hc0")
    assert corrected >= plain


def test_combined_influence_annihilates_constants_for_difference_selector():
    sample = random_instance(18, n=120)
    flat = validate_sample(np.full(sample.n, 3.7), sample.x, 0.0, sample.w)
    evec = extractor_vector(0, 1, 1, np.array([1.0]), lead=0.0)
    for side in ("left", "right"):
        b = pilot_bandwidth(flat, side, 1, 1)
        bias = bias_constants(flat, side, 1, 1, "triangular", b)
        pilot = bias.pilot_fit
        main = fit_side(flat, side, 0.6, 1, 1, "triangular")
        union, omega, resid, _ = _influence_pieces(flat, main, pilot, bias, evec, 0)
        # weights reproduce zero on any constant outcome
        assert abs(float(omega @ flat.y[union])) < 1e-12
        assert np.max(np.abs(resid)) < 1e-12


def test_rbc_variance_zero_for_constant_outcome():
    sample = random_instance(19, n=120)
    flat = validate_sample(np.full(sample.n, 2.0), sample.x, 0.0, sample.w)
    fits = {}
    for side in ("left", "right"):
        b = pilot_bandwidth(flat, side, 1, 1)
        bias = bias_constants(flat, side, 1, 1, "triangular", b)
        pilot = bias.pilot_fit
        fits[side] = (fit_side(flat, side, 0.6, 1, 1, "triangular"), pilot, bias)
    (l, pl, bl), (r, pr, br) = fits["left"], fits["right"]
    evec = extractor_vector(0, 1, 1, np.array([1.0]), lead=0.0)
    assert rbc_variance(flat, l, r, bl, br, evec, 0, "hc0") < 1e-24


def test_rbc_variance_cluster_matches_loop_oracle():
    sample, pieces = rbc_setup(20, n=80)
    (l, pl, bl), (r, pr, br) = pieces["left"], pieces["right"]
    rng = np.random.default_rng(21)
    labels = rng.integers(0, 12, sample.n)
    evec = extractor_vector(0, 1, 1, np.array([1.0]))
    clustered = validate_sample(sample.y, sample.x, 0.0, sample.w, labels)
    got = rbc_variance(clustered, l, r, bl, br, evec, 0, "cluster")

    total = 0.0
    for side in ("left", "right"):
        fit, pilot, bias = pieces[side]
        union, omega, resid, _ = _influence_pieces(sample, fit, pilot, bias, evec, 0)
        sums = {}
        for pos, i in enumerate(union):
            key = int(labels[i])
            sums[key] = sums.get(key, 0.0) + omega[pos] * resid[pos]
        df = fit.n_total / (fit.n_total - fit.p - 1 - fit.d)
        total += df * sum(v**2 for v in sums.values())
    assert got == pytest.approx(total, rel=1e-12)


def test_cluster_se_tracks_monte_carlo_dispersion():
    # iid draws with cluster labels drawn independently of the data: the
    # cluster-robust plug-in se must match the spread of the estimates
    config = canonical_preset()
    rng = np.random.default_rng(717)
    spec = FitSpec(bandwidth=Common(0.5), vce="cluster")
    points, ses = [], []
    for rep in range(200):
        base = gen_sample(config, 2000, (717, rep))
        labels = rng.integers(0, 40, base.n)
        sample = validate_sample(base.y, base.x, 0.0, base.w, labels)
        records = fit_hte(sample, spec).records
        points.append([rec.point for rec in records])
        ses.append([rec.se for rec in records])
    ratio = np.mean(ses, axis=0) / np.std(points, axis=0, ddof=1)
    assert np.all((0.8 <= ratio) & (ratio <= 1.25)), ratio


def test_rbc_se_tracks_monte_carlo_dispersion():
    # fixed common bandwidth so the dispersion reflects the variance
    # construction, not per-replication bandwidth-selection noise
    config = canonical_preset()
    report = monte_carlo(
        config,
        FitSpec(bandwidth=Common(0.15)),
        reps=2000,
        n=2000,
        seed=515,
        targets=[(np.array([0.0]), 0.5)],
    )
    target = report.targets[0]
    assert target.sd_rbc == pytest.approx(target.mean_se_rbc, rel=0.10)


# ---------------------------------------------------------------------------
# intervals and p-values


def test_ci_pvalue_standard_normal_case():
    lo, hi, z, p, flag = ci_pvalue(0.0, 1.0, 0.95)
    assert lo == pytest.approx(-1.959963985, abs=1e-8)
    assert hi == pytest.approx(1.959963985, abs=1e-8)
    assert z == 0.0
    assert p == pytest.approx(1.0)
    assert not flag


def test_ci_pvalue_boundary_z():
    *_, p, _ = ci_pvalue(1.96, 1.0, 0.95)
    assert p == pytest.approx(0.05, abs=1e-3)


def test_ci_pvalue_level_changes_width():
    lo95, hi95, *_ = ci_pvalue(1.0, 0.5, 0.95)
    lo90, hi90, *_ = ci_pvalue(1.0, 0.5, 0.90)
    assert hi90 - lo90 < hi95 - lo95
    assert (lo95 + hi95) / 2 == pytest.approx(1.0)


def test_ci_pvalue_zero_se_conventions():
    lo, hi, z, p, flag = ci_pvalue(0.7, 0.0, 0.95)
    assert (lo, hi) == (0.7, 0.7)
    assert flag and p == 0.0 and np.isinf(z)
    lo, hi, z, p, flag = ci_pvalue(0.0, 0.0, 0.95)
    assert (lo, hi) == (0.0, 0.0)
    assert flag and p == 1.0 and z == 0.0


def test_ci_pvalue_zero_se_negative_point():
    lo, hi, z, p, flag = ci_pvalue(-0.7, 0.0, 0.95)
    assert (lo, hi) == (-0.7, -0.7)
    assert flag and p == 0.0 and z == -np.inf


def test_ci_pvalue_negative_se_rejected():
    with pytest.raises(ValueError):
        ci_pvalue(0.0, -1.0, 0.95)


def test_ci_pvalue_critical_value_matches_scipy():
    levels = np.concatenate(
        [[0.9, 0.95, 0.99, 1.0 - 1e-12], np.linspace(0.01, 0.999, 400)]
    )
    for level in levels:
        lo, hi, *_ = ci_pvalue(0.0, 1.0, level)
        ref = float(ndtri(1.0 - (1.0 - level) / 2.0))
        assert hi == pytest.approx(ref, rel=2e-15, abs=0.0)
        assert lo == -hi


def test_ci_pvalue_p_value_matches_scipy():
    compared = 0
    for z in np.linspace(0.0, 37.0, 1481):
        for sign in (1.0, -1.0):
            _, _, z_out, p, flag = ci_pvalue(sign * z, 1.0, 0.95)
            ref = 2.0 * float(ndtr(-z))
            assert z_out == sign * z and not flag
            if p > 1e-300 and ref > 1e-300:
                compared += 1
                tol = 1e-13 if z <= 8.0 else 1e-12
                assert p == pytest.approx(ref, rel=tol, abs=0.0)
    assert compared > 2800


def test_ci_pvalue_far_tail_and_nan():
    assert ci_pvalue(40.0, 1.0, 0.95)[3] == 0.0
    assert ci_pvalue(-40.0, 1.0, 0.95)[3] == 0.0
    lo, hi, z, p, flag = ci_pvalue(float("nan"), 1.0, 0.95)
    assert np.isnan([lo, hi, z, p]).all() and not flag


def test_hc1_rejected_without_residual_degrees_of_freedom():
    x = np.array([0.5, 1.5, -0.5, -0.7])
    y = np.array([1.0, 2.0, 3.0, 4.0])
    fit = fit_side(validate_sample(y, x, 0.0), "right", 1.0, 0, 0, "uniform")
    with pytest.raises(LeverageOne):
        hc_weights("hc1", fit)


def _run_python(code: str, *args: str) -> str:
    """stdout of `python -c code args` with this checkout's rdhte on the path."""
    src = Path(rdhte.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    env = {**os.environ, "PYTHONPATH": path}
    out = subprocess.run(
        [sys.executable, "-c", code, *args], env=env, capture_output=True,
        text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout


def test_import_loads_no_scipy():
    # scipy took most of a cold `import rdhte`; the runtime needs numpy only
    code = (
        "import sys, rdhte, rdhte.cli; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    assert _run_python(code).strip() == "[]"


def test_pipeline_runs_with_scipy_blocked(tmp_path):
    # the script blocks scipy, so a lazy scipy import anywhere on its paths
    # raises ImportError; CI's numpy-only step runs the same script
    script = Path(__file__).with_name("runtime_smoke.py")
    out = _run_python(script.read_text(encoding="utf-8"), str(tmp_path))
    assert out.strip() == "ok"
