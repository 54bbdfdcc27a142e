"""Acceptance suite: one test per shipped guarantee, one printed line each.

Run with `pytest -v` (test names carry the criterion numbers) or `-s` to
see the printed detail lines. Statistical checks use fixed seeds; stated
runtime ceilings are asserted with wide margins.
"""

from __future__ import annotations

import csv
import json
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import numpy as np
from conftest import random_instance
from oracles import gram, long_short_max_relative_error, oracle_wls

from rdhte.basis import extractor_vector
from rdhte.cli import build_result, parse_config
from rdhte.estimands import EstimandRecord, fit_hte
from rdhte.fitting import fit_side
from rdhte.inference import cluster_meat, coef_variance, hc_weights, meat_matrix
from rdhte.model import Common, FitSpec, validate_sample
from rdhte.render import render_json, render_table
from rdhte.simulate import (
    DgpConfig,
    canonical_preset,
    gen_sample,
    inflated_curvature_preset,
    monte_carlo,
    true_cate,
)

DATA_DIR = Path(__file__).parent / "data"


def report(n, ok, detail):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_criterion_1_long_regression_identity():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(50):
        sample = random_instance(seed, n=200, d=seed % 3)
        worst = max(
            worst, long_short_max_relative_error(sample, 0.7, 1, 1, "triangular")
        )
    elapsed = time.perf_counter() - start
    report(
        1,
        worst < 1e-10 and elapsed < 5,
        f"long vs short fits, 50 instances, max rel err {worst:.2e} "
        f"(tol 1e-10), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_2_subgroup_equivalence():
    start = time.perf_counter()
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(1000 + seed)
        n = 300
        x = rng.uniform(-1, 1, n)
        g = rng.integers(0, 3, n)
        w = np.column_stack([(g == 1).astype(float), (g == 2).astype(float)])
        jumps = rng.uniform(0.3, 1.2, 3) * rng.choice([-1.0, 1.0], 3)
        y = (
            0.4 * x
            + (x >= 0) * np.choose(g, jumps)
            + 0.3 * rng.standard_normal(n)
        )
        sample = validate_sample(y, x, 0.0, w)
        h = 0.75
        result = fit_hte(sample, FitSpec(bandwidth=Common(h)))
        full = [
            result.records[0].point,
            result.records[1].point,
            result.records[3].point,
        ]
        for grp, point in enumerate(full):
            mask = g == grp
            sub = validate_sample(y[mask], x[mask], 0.0)
            l = fit_side(sub, "left", h, 1, 1, "triangular")
            r = fit_side(sub, "right", h, 1, 1, "triangular")
            expect = r.theta[0] - l.theta[0]
            worst = max(worst, abs(point - expect) / max(abs(expect), 1e-300))
    elapsed = time.perf_counter() - start
    report(
        2,
        worst < 1e-10 and elapsed < 5,
        f"joint-fit group CATEs vs per-group RD fits, 20 instances, "
        f"max rel err {worst:.2e} (tol 1e-10), {elapsed:.2f}s (limit 5s)",
    )


def test_criterion_3_exact_fit_zero_bias():
    start = time.perf_counter()
    cfg = DgpConfig(
        alpha_left=(0.2, 0.7),
        alpha_right=(0.9, -0.4),
        lam_left=((0.1, 0.3),),
        lam_right=((0.5, -0.2),),
        covariates=(("binary", 0.5),),
        noise=("constant", 0.0),
    )
    sample = gen_sample(cfg, 5000, 33)
    result = fit_hte(sample, FitSpec())
    point_err = max(
        abs(result.records[0].point - true_cate(cfg, [0.0])),
        abs(result.records[1].point - true_cate(cfg, [1.0])),
    )
    bias_mag = 0.0
    for w, lead in (([0.0], 1.0), ([1.0], 1.0), ([1.0], 0.0)):
        evec = extractor_vector(0, 1, 1, np.array(w), lead=lead)
        for bias in (result.left.bias, result.right.bias):
            bias_mag = max(bias_mag, abs(float(evec @ bias.bias)))
    elapsed = time.perf_counter() - start
    report(
        3,
        point_err < 1e-8 and bias_mag < 1e-6 and elapsed < 10,
        f"noiseless degree-1 DGP at n=5000: max point err {point_err:.2e} "
        f"(tol 1e-8), max bias contraction {bias_mag:.2e} (tol 1e-6), "
        f"{elapsed:.2f}s (limit 10s)",
    )


def test_criterion_4_oracle_equivalence():
    start = time.perf_counter()
    worst_fit = 0.0
    for seed in range(100):
        sample = random_instance(seed, n=150, d=seed % 3)
        for side in ("left", "right"):
            fit = fit_side(sample, side, 0.7, 1, 1, "triangular")
            beta = oracle_wls(fit.design, fit.kvals, sample.y[fit.idx])
            scale = max(float(np.max(np.abs(fit.theta_norm))), 1e-300)
            worst_fit = max(
                worst_fit, float(np.max(np.abs(beta - fit.theta_norm))) / scale
            )
    worst_var = 0.0
    for seed in range(20):
        sample = random_instance(200 + seed, n=120, d=1)
        evec = extractor_vector(0, 1, 1, np.array([1.0]))
        for side in ("left", "right"):
            fit = fit_side(sample, side, 0.7, 1, 1, "triangular")
            brute = np.zeros((fit.n_coef, fit.n_coef))
            for i in range(fit.eff_n):
                r = fit.design[i]
                brute += fit.kvals[i] ** 2 * fit.residuals[i] ** 2 * np.outer(r, r)
            brute /= fit.n_total * fit.h
            ginv = np.linalg.inv(gram(fit))
            expect = float(evec @ ginv @ brute @ ginv @ evec)
            got = coef_variance(
                fit, fit, evec, 0, "hc0"
            ).contraction_left
            worst_var = max(
                worst_var, abs(got - expect) / max(abs(expect), 1e-300)
            )
    elapsed = time.perf_counter() - start
    report(
        4,
        worst_fit < 1e-9 and worst_var < 1e-10 and elapsed < 10,
        f"fits vs dense oracle, 100 instances, max rel err {worst_fit:.2e} "
        f"(tol 1e-9); sandwich vs brute force, 20 instances, "
        f"max rel err {worst_var:.2e} (tol 1e-10); {elapsed:.2f}s (limit 10s)",
    )


def test_criterion_5_rbc_coverage():
    start = time.perf_counter()
    cfg = canonical_preset()
    rep = monte_carlo(
        cfg,
        FitSpec(),
        reps=2000,
        n=2000,
        seed=20260816,
        targets=[
            (np.array([0.0]), true_cate(cfg, [0.0])),
            (np.array([1.0]), true_cate(cfg, [1.0])),
        ],
    )
    cov0 = rep.targets[0].coverage
    cov1 = rep.targets[1].coverage
    elapsed = time.perf_counter() - start
    ok = 0.93 <= cov0 <= 0.97 and 0.93 <= cov1 <= 0.97 and elapsed < 300
    report(
        5,
        ok,
        f"RBC 95% CI empirical coverage over 2000 reps at n=2000: "
        f"kappa(0) {cov0:.3f}, kappa(1) {cov1:.3f} (window [0.93, 0.97]), "
        f"{elapsed:.1f}s (limit 300s)",
    )


def test_criterion_6_bias_correction_benefit():
    start = time.perf_counter()
    cfg = inflated_curvature_preset()
    rep = monte_carlo(
        cfg,
        FitSpec(),
        reps=1000,
        n=2000,
        seed=606,
        targets=[
            (np.array([0.0]), true_cate(cfg, [0.0])),
            (np.array([1.0]), true_cate(cfg, [1.0])),
        ],
    )
    pairs = [
        (abs(t.mean_bias_rbc), abs(t.mean_bias)) for t in rep.targets
    ]
    elapsed = time.perf_counter() - start
    ok = all(rbc < raw for rbc, raw in pairs) and elapsed < 180
    detail = ", ".join(
        f"|bias| {raw:.4f} -> {rbc:.4f}" for rbc, raw in pairs
    )
    report(
        6,
        ok,
        f"bias correction under inflated curvature, 1000 reps: {detail}, "
        f"{elapsed:.1f}s (limit 180s)",
    )


def test_criterion_7_bandwidth_shrink_rate():
    start = time.perf_counter()
    cfg = canonical_preset()
    means = {}
    for n in (1000, 4000):
        rep = monte_carlo(
            cfg,
            FitSpec(),
            reps=500,
            n=n,
            seed=707,
            targets=[(np.array([0.0]), true_cate(cfg, [0.0]))],
        )
        means[n] = rep.targets[0].mean_h
    ratio = means[4000] / means[1000]
    expect = 4.0 ** (-1.0 / 5.0)
    rel = abs(ratio - expect) / expect
    elapsed = time.perf_counter() - start
    report(
        7,
        rel < 0.15 and elapsed < 180,
        f"mean selected h shrink ratio n=1000->4000: {ratio:.4f} vs "
        f"4^(-1/5)={expect:.4f}, rel dev {rel:.3f} (tol 0.15), "
        f"{elapsed:.1f}s (limit 180s)",
    )


def test_criterion_8_hc_and_cluster_algebra():
    start = time.perf_counter()
    sample = random_instance(42, n=120, d=1)
    fit = fit_side(sample, "right", 0.7, 1, 1, "triangular")
    # HC1 = HC0 x N/(N - 2 tr(Q) + tr(QQ)) with traces computed here
    q = (
        fit.design
        @ np.linalg.solve(gram(fit), fit.design.T)
        * fit.kvals[None, :]
        / (fit.n_total * fit.h)
    )
    m = fit.eff_n
    scalar = m / (m - 2.0 * np.trace(q) + np.trace(q @ q))
    v0 = meat_matrix(fit, hc_weights("hc0", fit))
    v1 = meat_matrix(fit, hc_weights("hc1", fit))
    hc_err = float(np.max(np.abs(v1 - scalar * v0))) / float(np.max(np.abs(v0)))
    # singleton clusters: meat equals HC0 meat, contraction adds the
    # degrees-of-freedom factor n/(n - p - 1 - d)
    labels = np.arange(sample.n)
    v_cl = cluster_meat(fit, labels)
    cl_err = float(np.max(np.abs(v_cl - v0))) / float(np.max(np.abs(v0)))
    left = fit_side(sample, "left", 0.7, 1, 1, "triangular")
    evec = extractor_vector(0, 1, 1, np.array([1.0]))
    est_cl = coef_variance(left, fit, evec, 0, "cluster", labels)
    var_cl = est_cl.variance
    var_0 = coef_variance(left, fit, evec, 0, "hc0").variance
    df = sample.n / (sample.n - 1 - 1 - 1)
    df_err = abs(var_cl - df * var_0) / var_0
    elapsed = time.perf_counter() - start
    ok = (
        hc_err < 1e-12
        and cl_err < 1e-12
        and df_err < 1e-12
        and est_cl.n_clusters == sample.n
        and elapsed < 1
    )
    report(
        8,
        ok,
        f"HC1 scalar identity rel err {hc_err:.2e}, singleton-cluster meat "
        f"rel err {cl_err:.2e}, df-factor rel err {df_err:.2e} "
        f"(tol 1e-12 each), {elapsed:.2f}s (limit 1s)",
    )


def test_criterion_9_cli_fidelity(tmp_path):
    start = time.perf_counter()
    sample = gen_sample(canonical_preset(), 600, 5)
    path = tmp_path / "acc.csv"
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["y", "x", "w0"])
        for i in range(sample.n):
            wtr.writerow(
                [
                    repr(float(sample.y[i])),
                    repr(float(sample.x[i])),
                    repr(float(sample.w[i, 0])),
                ]
            )
    argv = [
        "--data", str(path),
        "--outcome", "y",
        "--running", "x",
        "--cutoff", "0",
        "--hetero", "w0:bin",
        "--bw", "0.25",
        "--format", "json",
    ]
    proc = subprocess.run(
        [sys.executable, "-m", "rdhte.cli", *argv],
        capture_output=True,
        text=True,
        check=True,
    )
    api_text = render_json(build_result(parse_config(argv)))
    json_ok = proc.stdout == api_text and json.loads(api_text)["schema"] == "rdhte/1"

    rec = EstimandRecord(
        label="Overall", lead=1.0, w=(), nu=0,
        point=0.275, se=0.046, variance=0.046**2, bias_estimate=0.37,
        rbc_point=0.2665, rbc_se=0.0462, rbc_variance=0.0462**2,
        ci_low=0.176, ci_high=0.357, z=5.768, p_value=0.0000000081,
        level=0.95, zero_se=False, extrapolated=False,
        eff_n=14622, h_left=0.151, h_right=0.151,
    )
    stub = SimpleNamespace(records=[rec], spec=SimpleNamespace(level=0.95))
    golden = (DATA_DIR / "golden_table.txt").read_text()
    table_ok = render_table(stub) == golden
    elapsed = time.perf_counter() - start
    report(
        9,
        json_ok and table_ok and elapsed < 5,
        f"CLI vs API JSON byte-identical: {json_ok}; golden table fixture "
        f"byte-identical: {table_ok}; {elapsed:.2f}s (limit 5s)",
    )
