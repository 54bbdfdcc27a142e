from __future__ import annotations

import json

import numpy as np
import pytest
from conftest import random_instance
from oracles import RankDeficient, oracle_wls

from rdhte import simulate
from rdhte.errors import (
    AllReplicationsFailed,
    DimensionMismatch,
    InvalidSetting,
    NonFinite,
)
from rdhte.estimands import Selector
from rdhte.fitting import fit_side
from rdhte.model import Common, FitSpec
from rdhte.simulate import (
    DgpConfig,
    McReport,
    canonical_preset,
    conditional_mean,
    gen_sample,
    inflated_curvature_preset,
    monte_carlo,
    true_cate,
)


# ---------------------------------------------------------------------------
# sample generation


def test_same_seed_gives_identical_samples():
    cfg = canonical_preset()
    a = gen_sample(cfg, 200, 7)
    b = gen_sample(cfg, 200, 7)
    assert np.array_equal(a.y, b.y)
    assert np.array_equal(a.x, b.x)
    assert np.array_equal(a.w, b.w)


def test_different_seeds_differ():
    cfg = canonical_preset()
    a = gen_sample(cfg, 200, 7)
    b = gen_sample(cfg, 200, 8)
    assert not np.array_equal(a.y, b.y)


def test_zero_noise_outcome_equals_conditional_mean():
    cfg = DgpConfig(
        alpha_left=(0.5, 0.8, -0.6),
        alpha_right=(1.0, 0.6, 0.9),
        lam_left=((0.3, 0.2),),
        lam_right=((0.7, -0.1),),
        covariates=(("binary", 0.5),),
        noise=("constant", 0.0),
    )
    sample = gen_sample(cfg, 300, 11)
    assert np.array_equal(sample.y, conditional_mean(cfg, sample.x, sample.w))


def test_affine_noise_with_zero_parameters_is_exact():
    cfg = DgpConfig(alpha_left=(0.2,), alpha_right=(0.9,), noise=("affine", 0.0, 0.0))
    sample = gen_sample(cfg, 100, 12)
    assert np.array_equal(sample.y, conditional_mean(cfg, sample.x, sample.w))


def test_covariate_law_means_near_cutoff():
    cfg = DgpConfig(
        alpha_left=(0.0,),
        alpha_right=(0.0,),
        lam_left=((0.0,), (0.0,), (0.0,), (0.0,)),
        lam_right=((0.0,), (0.0,), (0.0,), (0.0,)),
        covariates=(
            ("binary", 0.3),
            ("uniform", -1.0, 3.0),
            ("categorical", (0.5, 0.3, 0.2)),
        ),
    )
    assert cfg.n_columns == 4  # binary + uniform + two category indicators
    sample = gen_sample(cfg, 10_000, 13)
    near = np.abs(sample.x - sample.cutoff) < 0.2
    means = sample.w[near].mean(axis=0)
    assert means[0] == pytest.approx(0.3, abs=0.05)
    assert means[1] == pytest.approx(1.0, abs=0.15)
    assert means[2] == pytest.approx(0.3, abs=0.05)
    assert means[3] == pytest.approx(0.2, abs=0.05)


def test_beta_running_law_stays_in_range():
    cfg = DgpConfig(alpha_left=(0.0,), alpha_right=(1.0,), running=("beta", 2.0, 2.0))
    sample = gen_sample(cfg, 500, 14)
    assert np.all(sample.x > -1.0) and np.all(sample.x < 1.0)


def test_lam_length_must_match_covariate_columns():
    with pytest.raises(ValueError):
        DgpConfig(
            alpha_left=(0.0,),
            alpha_right=(0.0,),
            lam_left=((0.0,),),
            lam_right=((0.0,), (1.0,)),
            covariates=(("binary", 0.5),),
        )


def test_unknown_covariate_law_is_named():
    with pytest.raises(ValueError, match="unknown covariate law 'gamma'"):
        DgpConfig(covariates=(("gamma", 2.0),))


@pytest.mark.parametrize(
    "n", [2.5, "3", 0, -4], ids=["float", "str", "zero", "negative"]
)
def test_gen_sample_rejects_bad_n(n):
    with pytest.raises(InvalidSetting):
        gen_sample(canonical_preset(), n, 1)


def test_gen_sample_accepts_numpy_n():
    sample = gen_sample(canonical_preset(), np.int32(50), 1)
    assert sample.n == 50
    assert np.array_equal(sample.y, gen_sample(canonical_preset(), 50, 1).y)


ONE_BINARY = dict(lam_left=((0.0,),), lam_right=((0.0,),))
MALFORMED_LAWS = {
    "running_empty": dict(running=()),
    "running_short": dict(running=("uniform", -1.0)),
    "running_unordered": dict(running=("uniform", 1.0, -1.0)),
    "running_beta_zero": dict(running=("beta", 0.0, 2.0)),
    "running_not_a_law": dict(running=2.0),
    "noise_short": dict(noise=("constant",)),
    "noise_long": dict(noise=("constant", 1.0, 2.0)),
    "noise_text": dict(noise=("constant", "a")),
    "noise_nan": dict(noise=("affine", float("nan"), 0.0)),
    "binary_short": dict(covariates=(("binary",),), **ONE_BINARY),
    "binary_above_one": dict(covariates=(("binary", 1.5),), **ONE_BINARY),
    "uniform_unordered": dict(covariates=(("uniform", 2.0, 2.0),),
                              **ONE_BINARY),
    "categorical_negative": dict(covariates=(("categorical", (0.7, -0.2)),),
                                 **ONE_BINARY),
    "categorical_zero_sum": dict(covariates=(("categorical", (0.0, 0.0)),),
                                 **ONE_BINARY),
    "categorical_scalar": dict(covariates=(("categorical", 0.5),)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_LAWS))
def test_malformed_laws_raise_invalid_setting(name):
    with pytest.raises(InvalidSetting):
        DgpConfig(**MALFORMED_LAWS[name])


MALFORMED_COEFFICIENTS = {
    "alpha_text": dict(alpha_left=("a",)),
    "alpha_empty": dict(alpha_right=()),
    "alpha_nan": dict(alpha_left=(float("nan"),)),
    "alpha_inf": dict(alpha_right=(0.0, float("inf"))),
    "alpha_scalar": dict(alpha_left=0.5),
    "alpha_none": dict(alpha_right=(None,)),
    "lam_empty": dict(covariates=(("binary", 0.5),), lam_left=((),),
                      lam_right=((0.0,),)),
    "lam_text": dict(covariates=(("binary", 0.5),), lam_left=((0.0,),),
                     lam_right=("ab",)),
    "lam_nan": dict(covariates=(("binary", 0.5),), lam_left=((0.0,),),
                    lam_right=((0.1, float("nan")),)),
    "lam_scalar": dict(covariates=(("binary", 0.5),), lam_left=5,
                       lam_right=((0.0,),)),
}


@pytest.mark.parametrize("name", sorted(MALFORMED_COEFFICIENTS))
def test_malformed_coefficients_raise_invalid_setting(name):
    given = MALFORMED_COEFFICIENTS[name]
    field = name.partition("_")[0]
    with pytest.raises(InvalidSetting, match=f"^{field}_(left|right)"):
        DgpConfig(**given)


# ---------------------------------------------------------------------------
# true effects


def test_true_cate_zero_when_sides_equal():
    cfg = DgpConfig(
        alpha_left=(0.4, 1.2),
        alpha_right=(0.4, 1.2),
        lam_left=((0.3, 0.1),),
        lam_right=((0.3, 0.1),),
        covariates=(("binary", 0.5),),
    )
    for w in ([0.0], [1.0], [5.0]):
        assert true_cate(cfg, w) == 0.0


def test_true_cate_linear_arithmetic():
    cfg = DgpConfig(
        alpha_left=(0.0,),
        alpha_right=(1.0,),
        lam_left=((0.0,),),
        lam_right=((2.0,),),
        covariates=(("uniform", 0.0, 1.0),),
    )
    assert true_cate(cfg, [3.0]) == pytest.approx(7.0)


def test_true_cate_ignores_higher_coefficients_at_cutoff():
    cfg = DgpConfig(alpha_left=(0.0, 4.0, -7.0), alpha_right=(0.5, 1.3, 9.0))
    assert true_cate(cfg, []) == pytest.approx(0.5)


def test_preset_truths():
    for cfg in (canonical_preset(), inflated_curvature_preset()):
        assert true_cate(cfg, [0.0]) == pytest.approx(0.5)
        assert true_cate(cfg, [1.0]) == pytest.approx(0.9)


# ---------------------------------------------------------------------------
# independent least squares oracle


def test_oracle_identity_design_returns_y():
    y = np.array([3.0, -1.0, 0.5, 2.0])
    beta = oracle_wls(np.eye(4), np.ones(4), y)
    assert beta == pytest.approx(y, rel=1e-12)


def test_oracle_duplicate_column_rejected():
    rng = np.random.default_rng(15)
    col = rng.standard_normal(20)
    design = np.column_stack([col, col, rng.standard_normal(20)])
    with pytest.raises(RankDeficient):
        oracle_wls(design, np.ones(20), rng.standard_normal(20))


def test_oracle_random_instance_matches_lstsq():
    rng = np.random.default_rng(16)
    design = rng.standard_normal((30, 4))
    weights = rng.uniform(0.5, 2.0, 30)
    y = rng.standard_normal(30)
    beta = oracle_wls(design, weights, y)
    sq = np.sqrt(weights)
    expect, *_ = np.linalg.lstsq(design * sq[:, None], y * sq, rcond=None)
    assert beta == pytest.approx(expect, rel=1e-10)


def test_oracle_agrees_with_side_fits():
    for seed in range(10):
        sample = random_instance(seed, n=150, d=1)
        for side in ("left", "right"):
            fit = fit_side(sample, side, 0.7, 1, 1, "triangular")
            beta = oracle_wls(fit.design, fit.kvals, sample.y[fit.idx])
            scale = max(np.max(np.abs(fit.theta_norm)), 1e-300)
            assert np.max(np.abs(beta - fit.theta_norm)) / scale < 1e-9


# ---------------------------------------------------------------------------
# Monte Carlo driver


def test_monte_carlo_exact_dgp_degenerates():
    cfg = DgpConfig(
        alpha_left=(0.2, 0.7),
        alpha_right=(0.9, -0.4),
        lam_left=((0.1, 0.3),),
        lam_right=((0.5, -0.2),),
        covariates=(("binary", 0.5),),
        noise=("constant", 0.0),
    )
    report = monte_carlo(
        cfg,
        FitSpec(bandwidth=Common(0.5)),
        reps=20,
        n=200,
        seed=17,
        targets=[(np.array([1.0]), true_cate(cfg, [1.0]))],
    )
    target = report.targets[0]
    assert abs(target.mean_bias) < 1e-10
    assert target.rmse < 1e-10
    assert target.degenerate


def test_monte_carlo_is_deterministic():
    cfg = canonical_preset()
    spec = FitSpec(bandwidth=Common(0.3))
    kwargs = dict(reps=30, n=300, seed=18, targets=[(np.array([0.0]), 0.5)])
    a = monte_carlo(cfg, spec, **kwargs)
    b = monte_carlo(cfg, spec, **kwargs)
    assert a.to_dict() == b.to_dict()


def test_monte_carlo_report_serializes():
    cfg = canonical_preset()
    report = monte_carlo(
        cfg,
        FitSpec(bandwidth=Common(0.3)),
        reps=10,
        n=300,
        seed=19,
        targets=[(np.array([0.0]), 0.5)],
    )
    payload = report.to_dict()
    assert payload["schema"] == "rdhte/1"
    body = payload["monte_carlo"]
    assert body["reps"] == 10
    assert body["failures"] == 0
    parsed = json.loads(json.dumps(payload))
    assert parsed == payload


def test_doubling_noise_roughly_doubles_rmse_at_fixed_h():
    base = canonical_preset()
    loud = DgpConfig(
        alpha_left=base.alpha_left,
        alpha_right=base.alpha_right,
        lam_left=base.lam_left,
        lam_right=base.lam_right,
        covariates=base.covariates,
        noise=("constant", 1.0),
    )
    spec = FitSpec(bandwidth=Common(0.25))
    kwargs = dict(reps=400, n=600, seed=20, targets=[(np.array([0.0]), 0.5)])
    r1 = monte_carlo(base, spec, **kwargs).targets[0].rmse
    r2 = monte_carlo(loud, spec, **kwargs).targets[0].rmse
    assert r2 / r1 == pytest.approx(2.0, rel=0.15)


def test_monte_carlo_counts_per_replication_failures():
    cfg = canonical_preset()
    # tiny samples: some replications leave one side under the pilot minimum
    report = monte_carlo(
        cfg,
        FitSpec(),
        reps=60,
        n=25,
        seed=21,
        targets=[(np.array([0.0]), 0.5)],
    )
    assert report.failures > 0
    assert report.failure_rate == report.failures / 60
    assert report.targets[0].reps_ok == 60 - report.failures
    assert np.isfinite(report.targets[0].mean_bias)


def test_monte_carlo_all_failures_raises():
    cfg = canonical_preset()
    with pytest.raises(AllReplicationsFailed):
        monte_carlo(
            cfg,
            FitSpec(),
            reps=5,
            n=8,
            seed=22,
            targets=[(np.array([0.0]), 0.5)],
        )


def test_monte_carlo_validates_reps():
    with pytest.raises(ValueError):
        monte_carlo(
            canonical_preset(),
            FitSpec(),
            reps=0,
            n=100,
            seed=1,
            targets=[(np.array([0.0]), 0.5)],
        )


@pytest.mark.parametrize(
    "bad",
    [dict(reps=2.5), dict(reps="3"), dict(reps=-1), dict(n=2.5), dict(n=0),
     dict(seed=1.0), dict(seed=-1)],
    ids=["reps_float", "reps_str", "reps_negative", "n_float", "n_zero",
         "seed_float", "seed_negative"],
)
def test_monte_carlo_rejects_bad_counts(bad):
    args = dict(reps=3, n=100, seed=1)
    args.update(bad)
    with pytest.raises(InvalidSetting):
        monte_carlo(canonical_preset(), FitSpec(bandwidth=Common(0.5)),
                    targets=[(np.array([0.0]), 0.5)], **args)


@pytest.mark.parametrize(
    "target, truth, error",
    [
        (np.array([0.0, 1.0]), 0.5, DimensionMismatch),
        (np.array([np.nan]), 0.5, NonFinite),
        (Selector(np.array([1.0])), 0.5, DimensionMismatch),
        (Selector(np.array([1.0, np.inf])), 0.5, NonFinite),
        (np.array([0.0]), float("nan"), InvalidSetting),
        (np.array([0.0]), float("-inf"), InvalidSetting),
        (np.array([0.0]), "0.5", InvalidSetting),
        (np.array([0.0]), None, InvalidSetting),
    ],
    ids=["short_point", "nan_point", "short_selector", "inf_selector",
         "nan_truth", "inf_truth", "text_truth", "none_truth"],
)
def test_monte_carlo_checks_targets_before_any_replication(
    monkeypatch, target, truth, error
):
    def no_replication(*args, **kwargs):
        raise AssertionError("a replication or a fork ran first")

    monkeypatch.setattr(simulate, "gen_sample", no_replication)
    monkeypatch.setattr(simulate, "_run_forked", no_replication)
    good = (np.array([1.0]), 0.9)
    with pytest.raises(error):
        monte_carlo(canonical_preset(), FitSpec(bandwidth=Common(0.5)),
                    reps=50, n=2000, seed=1, targets=[good, (target, truth)])


def test_monte_carlo_stores_plain_ints():
    report = monte_carlo(
        canonical_preset(),
        FitSpec(bandwidth=Common(0.5)),
        reps=True,
        n=np.int32(200),
        seed=np.int64(3),
        targets=[(np.array([0.0]), 0.5)],
    )
    assert [type(v) for v in (report.reps, report.n, report.seed)] == [int] * 3
    assert (report.reps, report.n, report.seed) == (1, 200, 3)
    assert json.loads(json.dumps(report.to_dict()))["monte_carlo"]["seed"] == 3
