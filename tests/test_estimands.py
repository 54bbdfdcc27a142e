from __future__ import annotations

import dataclasses
import importlib
import math
import pickle
import sys

import numpy as np
import pytest
from conftest import random_instance
from oracles import long_regression, oracle_wls

import rdhte.inference
from rdhte.basis import extractor_vector, scaling_diag
from rdhte.errors import (
    DimensionMismatch,
    InvalidSetting,
    LeverageOne,
    NonFinite,
    NuOutOfRange,
    SingularGram,
    TooFewClusters,
    TooFewObservations,
)
from rdhte.estimands import (
    EstimandRecord,
    Selector,
    _default_plan,
    _point_term,
    _selector_term,
    cate_at,
    contrast,
    fit_hte,
)
from rdhte.fitting import fit_side
from rdhte.inference import ContrastForms, ci_pvalue
from rdhte.model import (
    ColumnSpec,
    Common,
    CovariateSpec,
    Fixed,
    FitSpec,
    Select,
    expand_covariates,
    validate_sample,
)
from rdhte.simulate import canonical_preset, monte_carlo


# ---------------------------------------------------------------------------
# extractor and the long-form map


def test_extractor_binary_cate():
    assert np.array_equal(extractor_vector(0, 1, 1, [1.0]), [1, 0, 1, 0])


def test_extractor_baseline_two_covariates():
    assert np.array_equal(extractor_vector(0, 1, 1, [0.0, 0.0]), [1, 0, 0, 0, 0, 0])


def test_extractor_slope_target():
    w0 = 0.37
    assert np.array_equal(extractor_vector(1, 1, 1, [w0]), [0, 1, 0, w0])


def test_extractor_rejects_out_of_range_order():
    with pytest.raises(NuOutOfRange):
        extractor_vector(2, 1, 1, [1.0])
    with pytest.raises(NuOutOfRange):
        extractor_vector(-1, 1, 1, [1.0])


def _long_form(result, left, right):
    """The long-form vector of right minus left, entry j read by the
    extractor of the unit selector j on each side's theta."""
    spec = result.spec
    rows = [
        extractor_vector(spec.nu, spec.p, spec.s, unit[1:], lead=unit[0])
        for unit in np.eye(1 + result.sample.d)
    ]
    return np.array([e @ right.theta - e @ left.theta for e in rows])


def test_long_map_reproduces_varsigma():
    sample = random_instance(30)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    expect = _long_form(result, result.left, result.right)
    assert result.varsigma == pytest.approx(expect, rel=1e-14)


def test_varsigma_follows_replaced_side_fits():
    # varsigma is derived from the side fits, so a copy with another left
    # fit reports that fit's jumps, not the original's
    spec = FitSpec(p=2, s=2, nu=1, bandwidth=Common(0.6))
    result = fit_hte(random_instance(30), spec)
    other = fit_hte(random_instance(33), spec)
    assert result.varsigma.tolist() != other.varsigma.tolist()
    swapped = dataclasses.replace(result, left=other.left)
    expect = _long_form(result, other.left, result.right)
    np.testing.assert_array_equal(swapped.varsigma, expect)


def test_replaced_side_is_swapped_whole():
    # a side's stage carries its fit, pilot stage and share of the
    # contrast, so a copy with another left side reads all three from it
    spec = FitSpec(p=2, s=2, nu=1, bandwidth=Common(0.6))
    result = fit_hte(random_instance(30), spec, at=[(0.5,)])
    other = fit_hte(random_instance(33), spec)
    swapped = dataclasses.replace(result, left=other.left)
    assert swapped.left.bias.pilot_fit is other.left.bias.pilot_fit
    expect = other.left.forms + result.right.forms
    for name in ("jump", "bias", "plugin", "rbc"):
        np.testing.assert_array_equal(
            getattr(swapped.forms, name), getattr(expect, name)
        )
    plugin = other.left.forms.plugin + result.right.forms.plugin
    for rec in swapped.records:
        evec = extractor_vector(rec.nu, 2, 2, np.array(rec.w), lead=rec.lead)
        assert rec.se == math.sqrt(float(evec @ plugin @ evec))


def test_records_follow_replaced_side_fits():
    # records are built with the result, so a copy with another left fit
    # reports that fit's records: each is the one contrast or cate_at
    # gives on the copy at the same label, lead, w and nu
    spec = FitSpec(p=2, s=2, nu=1, bandwidth=Common(0.6))
    result = fit_hte(random_instance(30), spec, at=[(0.5,)])
    other = fit_hte(random_instance(33), spec)
    swapped = dataclasses.replace(result, left=other.left)
    assert swapped.records != result.records
    *plan, at_point = swapped.records
    assert at_point == cate_at(swapped, [0.5])
    for rec in plan:
        vec = np.array([rec.lead, *rec.w])
        assert rec == contrast(swapped, Selector(vec, rec.nu, rec.label))


def test_varsigma_contracts_match_extractor_differences():
    sample = random_instance(31, d=2, binary=False)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.7)))
    delta = result.right.theta - result.left.theta
    rng = np.random.default_rng(32)
    for _ in range(5):
        w = rng.uniform(-1, 1, 2)
        lhs = float(np.concatenate([[1.0], w]) @ result.varsigma)
        rhs = float(extractor_vector(0, 1, 1, w) @ delta)
        assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-12)


# ---------------------------------------------------------------------------
# fit_hte


def test_no_covariates_reduces_to_classical_rd():
    for seed in range(3):
        sample = random_instance(seed, d=0)
        result = fit_hte(sample, FitSpec(bandwidth=Common(0.65)))
        assert result.labels == ()
        assert len(result.records) == 1
        rec = result.records[0]
        assert rec.label == "RD effect"
        jump = result.right.theta[0] - result.left.theta[0]
        assert rec.point == pytest.approx(jump, rel=1e-14)
        # independent solver route for the same classical estimand
        expect = 0.0
        for side, sgn in (("left", -1.0), ("right", 1.0)):
            fit = fit_side(sample, side, 0.65, 1, 1, "triangular")
            beta = oracle_wls(fit.design, fit.kvals, sample.y[fit.idx])
            expect += sgn * beta[0]
        assert rec.point == pytest.approx(expect, rel=1e-9)


def test_derivative_order_record_label_and_point():
    sample = random_instance(33, d=0)
    result = fit_hte(sample, FitSpec(nu=1, bandwidth=Common(0.7)))
    rec = result.record("RD derivative (order 1)")
    slope_jump = result.right.theta[1] - result.left.theta[1]
    assert rec.point == pytest.approx(slope_jump, rel=1e-12)


def test_noiseless_groupwise_linear_recovers_exact_jumps():
    rng = np.random.default_rng(34)
    n = 300
    x = rng.uniform(-1, 1, n)
    g = rng.binomial(1, 0.5, n).astype(float)
    t = (x >= 0).astype(float)
    y = np.where(
        g == 0,
        0.2 + 0.5 * x + t * (0.9 - 0.3 * x),
        -0.1 + 0.8 * x + t * (0.4 + 0.6 * x),
    )
    sample = validate_sample(y, x, 0.0, g[:, None])
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.8)), labels=["grp"])
    assert result.record("Baseline (w=0)").point == pytest.approx(0.9, abs=1e-10)
    assert result.record("CATE: grp").point == pytest.approx(0.4, abs=1e-10)
    assert result.record("Diff: grp").point == pytest.approx(-0.5, abs=1e-10)


def test_fit_hte_matches_long_regression_oracle():
    sample = random_instance(35, n=200, d=2)
    h = 0.7
    result = fit_hte(sample, FitSpec(bandwidth=Common(h)))
    beta = oracle_wls(*long_regression(sample, result.left, result.right))
    delta = beta[result.left.n_coef :] / scaling_diag(h, 1, 1, sample.d)
    for w in (np.zeros(2), np.array([1.0, 0.0]), np.array([1.0, 1.0])):
        expect = float(extractor_vector(0, 1, 1, w) @ delta)
        assert cate_at(result, w).point == pytest.approx(expect, rel=1e-9)


def test_subgroup_dummies_equal_per_group_classical_fits():
    rng = np.random.default_rng(36)
    n = 400
    x = rng.uniform(-1, 1, n)
    g = rng.integers(0, 3, n)
    w = np.column_stack([(g == 1).astype(float), (g == 2).astype(float)])
    t = (x >= 0).astype(float)
    jumps = (0.9, 0.4, -0.5)
    y = 0.3 * x + t * np.choose(g, jumps) + 0.2 * rng.standard_normal(n)
    sample = validate_sample(y, x, 0.0, w)
    h = 0.75
    result = fit_hte(sample, FitSpec(bandwidth=Common(h)), labels=["g1", "g2"])

    def group_jump(mask):
        sub = validate_sample(y[mask], x[mask], 0.0)
        l = fit_side(sub, "left", h, 1, 1, "triangular")
        r = fit_side(sub, "right", h, 1, 1, "triangular")
        return r.theta[0] - l.theta[0]

    assert result.record("Baseline (w=0)").point == pytest.approx(
        group_jump(g == 0), abs=1e-10
    )
    assert result.record("CATE: g1").point == pytest.approx(
        group_jump(g == 1), abs=1e-10
    )
    assert result.record("CATE: g2").point == pytest.approx(
        group_jump(g == 2), abs=1e-10
    )


def test_label_and_kind_length_validation():
    sample = random_instance(37)
    spec = FitSpec(bandwidth=Common(0.6))
    with pytest.raises(DimensionMismatch):
        fit_hte(sample, spec, labels=["a", "b"])
    with pytest.raises(DimensionMismatch):
        fit_hte(sample, spec, kinds=["indicator", "indicator"])
    with pytest.raises(DimensionMismatch):
        fit_hte(sample, spec, at=[(0.5, 0.5)])


@pytest.mark.parametrize(
    "given",
    [{"kinds": ["foo"]}, {"kinds": ["Indicator"]}, {"kinds": [None]},
     {"labels": [5]}, {"labels": [None]}, {"labels": [b"w1"]},
     {"labels": "w"}],
)
def test_label_and_kind_values_are_checked(given):
    sample = random_instance(37)
    with pytest.raises(InvalidSetting):
        fit_hte(sample, FitSpec(bandwidth=Common(0.6)), **given)


def test_result_record_lookup_and_counts():
    sample = random_instance(38)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    with pytest.raises(KeyError):
        result.record("nope")
    assert result.eff_n == result.left.eff_n + result.right.eff_n
    assert result.h_left == result.h_right == 0.6
    for rec in result.records:
        assert rec.ci_low <= rec.rbc_point <= rec.ci_high
        assert 0.0 <= rec.p_value <= 1.0


# ---------------------------------------------------------------------------
# cate_at


def test_cate_at_zero_returns_baseline():
    sample = random_instance(39)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    rec = cate_at(result, [0.0])
    assert rec.point == pytest.approx(
        result.record("Baseline (w=0)").point, rel=1e-14
    )


def test_cate_at_one_adds_group_difference():
    sample = random_instance(40)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    base = result.record("Baseline (w=0)").point
    diff = [r for r in result.records if r.label.startswith("Diff")][0].point
    assert cate_at(result, [1.0]).point == pytest.approx(base + diff, rel=1e-12)


def test_cate_selector_arithmetic_on_published_pair():
    # intercept 0.471, slope -0.217, evaluated one unit above baseline
    varsigma = np.array([0.471, -0.217])
    point = float(np.array([1.0, 1.0]) @ varsigma)
    assert point == pytest.approx(0.254, abs=1e-12)


def test_cate_at_wrong_dimension():
    sample = random_instance(41)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    with pytest.raises(DimensionMismatch):
        cate_at(result, [0.5, 0.5])


def test_wrong_dimension_names_the_shape():
    # a 2-D point or selector has as many entries as d asks for, so the
    # message gives shapes, not entry counts
    sample = random_instance(41)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    with pytest.raises(DimensionMismatch) as info:
        cate_at(result, [[0.5]])
    assert str(info.value) == (
        "evaluation point has shape (1, 1), expected (1,)"
    )
    with pytest.raises(DimensionMismatch) as info:
        contrast(result, Selector(np.array([[1.0, 0.5]])))
    assert str(info.value) == "selector has shape (1, 2), expected (2,)"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_points_and_selectors_are_rejected(bad):
    sample = random_instance(41)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    with pytest.raises(NonFinite, match=f"{bad:g}"):
        cate_at(result, [bad])
    with pytest.raises(NonFinite, match=f"{bad:g}"):
        contrast(result, Selector(np.array([1.0, bad])))
    with pytest.raises(NonFinite, match=f"{bad:g}"):
        fit_hte(sample, FitSpec(bandwidth=Common(0.6)), at=[(bad,)])


def _fitted(seed=41):
    return fit_hte(random_instance(seed), FitSpec(bandwidth=Common(0.6)))


def _point_error(value):
    return f"evaluation point must be real numbers, got {value!r}"


@pytest.mark.parametrize("call, message", [
    (lambda: cate_at(_fitted(), "a"), _point_error("a")),
    (lambda: cate_at(_fitted(), [1 + 2j]), _point_error([1 + 2j])),
    (lambda: cate_at(_fitted(), {"a": 1}), _point_error({"a": 1})),
    (lambda: cate_at(_fitted(), None), _point_error(None)),
    (lambda: cate_at(_fitted(), [0.5, None]), _point_error([0.5, None])),
    (lambda: cate_at(_fitted(), [[1.0], [1.0, 2.0]]),
     _point_error([[1.0], [1.0, 2.0]])),
    (lambda: fit_hte(random_instance(41), FitSpec(bandwidth=Common(0.6)),
                     at=[["a"]]), _point_error(["a"])),
    (lambda: fit_hte(random_instance(41), FitSpec(bandwidth=Common(0.6)),
                     at=5), "at must be a sequence of covariate points, got 5"),
    (lambda: monte_carlo(canonical_preset(), FitSpec(), reps=1, n=100,
                         seed=1, targets=[("a", 0.5)]), _point_error("a")),
    (lambda: Selector("ab"), "selector must be real numbers, got 'ab'"),
    (lambda: Selector([1.0, 1j]),
     "selector must be real numbers, got [1.0, 1j]"),
], ids=["text", "complex", "mapping", "none", "none-entry", "ragged",
        "at-text", "at-int", "mc-target", "selector-text",
        "selector-complex"])
def test_non_numeric_points_and_selectors_are_typed(call, message):
    # numpy raised an untyped ValueError or TypeError here, or read None as
    # nan and reported it as NonFinite
    with pytest.raises(InvalidSetting) as info:
        call()
    assert str(info.value) == message


def test_real_number_objects_are_points():
    # entries numpy holds as objects are read when each is a real number
    from fractions import Fraction

    result = _fitted()
    assert cate_at(result, [Fraction(1, 2)]) == cate_at(result, [0.5])
    assert cate_at(result, np.float32(0.5)) == cate_at(result, [0.5])
    assert cate_at(result, [True]) == cate_at(result, [1.0])


def test_requested_points_become_records():
    sample = random_instance(42)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)), at=[(0.5,)])
    rec = result.record("CATE at w=(0.5)")
    assert rec.point == pytest.approx(cate_at(result, [0.5]).point, rel=1e-14)


@pytest.mark.parametrize("points", [[[0.0]], [[0.3], [0.6]]],
                         ids=["one", "two"])
def test_at_takes_an_array_of_points(points):
    sample = random_instance(42)
    spec = FitSpec(bandwidth=Common(0.6))
    listed = fit_hte(sample, spec, at=points)
    arrayed = fit_hte(sample, spec, at=np.array(points))
    assert len(listed.records) == 3 + len(points)
    assert arrayed.records == listed.records


@pytest.mark.parametrize("w", [(0.25, -0.5), (0.25, 1.5)],
                         ids=["inside", "extrapolated"])
def test_at_cate_at_and_contrast_build_one_record(w):
    # at=, cate_at and contrast take one path to a record: the same point
    # gives the same record, and its selector the same numbers
    sample = random_instance(46, n=400, d=2, binary=False)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)), at=[w])
    at_rec = result.records[-1]
    assert at_rec.label == f"CATE at w=(0.25, {w[1]:g})"
    assert at_rec.extrapolated == (w[1] > 1)
    assert cate_at(result, w) == at_rec
    sel = contrast(result, Selector([1.0, *w], label="at w"))
    assert (sel.label, sel.extrapolated) == ("at w", False)
    assert dataclasses.replace(
        sel, label=at_rec.label, extrapolated=at_rec.extrapolated
    ) == at_rec


# ---------------------------------------------------------------------------
# contrast


def test_contrast_unit_selectors_match_records():
    sample = random_instance(43)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    theta_hat = contrast(result, Selector(np.array([1.0, 0.0]), label="level"))
    assert theta_hat.point == pytest.approx(
        result.record("Baseline (w=0)").point, rel=1e-14
    )
    xi_hat = contrast(result, Selector(np.array([0.0, 1.0]), label="difference"))
    diff = [r for r in result.records if r.label.startswith("Diff")][0]
    assert xi_hat.point == pytest.approx(diff.point, rel=1e-14)
    assert xi_hat.se == pytest.approx(diff.se, rel=1e-12)


def test_contrast_is_linear_in_the_selector():
    sample = random_instance(44)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    s1 = np.array([1.0, 0.0])
    s2 = np.array([0.0, 1.0])
    combo = contrast(result, Selector(2.0 * s1 - 3.0 * s2, label="combo"))
    p1 = contrast(result, Selector(s1, label="a")).point
    p2 = contrast(result, Selector(s2, label="b")).point
    assert combo.point == pytest.approx(2.0 * p1 - 3.0 * p2, rel=1e-12)


def test_null_selector_degenerates_cleanly():
    sample = random_instance(45)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    rec = contrast(result, Selector(np.zeros(2), label="null"))
    assert rec.point == 0.0
    assert rec.variance == 0.0
    assert rec.zero_se
    assert rec.p_value == 1.0
    assert rec.ci_low == rec.ci_high == rec.rbc_point


def test_contrast_wrong_dimension():
    sample = random_instance(46)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.6)))
    with pytest.raises(DimensionMismatch):
        contrast(result, Selector(np.array([1.0, 0.0, 0.0]), label="bad"))


def test_selector_label_must_be_nonempty():
    with pytest.raises(ValueError):
        Selector(np.array([1.0, 0.0]), label="")


# ---------------------------------------------------------------------------
# extrapolation flag


def test_extrapolation_flagged_outside_observed_range():
    rng = np.random.default_rng(47)
    n = 250
    x = rng.uniform(-1, 1, n)
    w = rng.uniform(0.0, 1.0, (n, 1))
    y = 0.5 * x + (x >= 0) * (0.7 + 0.2 * w[:, 0]) + 0.3 * rng.standard_normal(n)
    sample = validate_sample(y, x, 0.0, w)
    result = fit_hte(
        sample,
        FitSpec(bandwidth=Common(0.7)),
        labels=["inc"],
        kinds=["continuous"],
        at=[(0.5,), (2.0,)],
    )
    assert result.record("Slope: inc") is not None
    assert not result.record("CATE at w=(0.5)").extrapolated
    assert result.record("CATE at w=(2)").extrapolated
    assert not cate_at(result, [0.25]).extrapolated
    assert cate_at(result, [-0.5]).extrapolated
    # the observed range is closed: its ends are in, the next floats out
    lo, hi = float(w.min()), float(w.max())
    assert not cate_at(result, [lo]).extrapolated
    assert not cate_at(result, [hi]).extrapolated
    assert cate_at(result, [np.nextafter(lo, -np.inf)]).extrapolated
    assert cate_at(result, [np.nextafter(hi, np.inf)]).extrapolated

    # d = 2: one coordinate out of range is enough
    w2 = np.column_stack([w[:, 0], rng.uniform(-1.0, 1.0, n)])
    result2 = fit_hte(
        validate_sample(y, x, 0.0, w2), FitSpec(bandwidth=Common(0.7))
    )
    (lo1, lo2), (hi1, hi2) = w2.min(axis=0), w2.max(axis=0)
    assert not cate_at(result2, [lo1, hi2]).extrapolated
    assert not cate_at(result2, [0.5, 0.0]).extrapolated
    assert cate_at(result2, [0.5, np.nextafter(hi2, np.inf)]).extrapolated
    assert cate_at(result2, [np.nextafter(lo1, -np.inf), 0.0]).extrapolated
    assert cate_at(result2, [2.0, 0.0]).extrapolated


def _count_calls(monkeypatch, module, name):
    """Wrap rdhte.<module>.<name> in every rdhte namespace holding it."""
    original = getattr(importlib.import_module(f"rdhte.{module}"), name)
    calls = []

    def wrapper(*args, **kwargs):
        calls.append(name)
        return original(*args, **kwargs)

    for modname, mod in list(sys.modules.items()):
        in_package = modname.split(".")[0] == "rdhte"
        if in_package and getattr(mod, name, None) is original:
            monkeypatch.setattr(mod, name, wrapper)
    return calls


@pytest.mark.parametrize(
    "bandwidth, fits",
    [(Select(), 4), (Select("one_sided"), 4), (Common(0.5), 4)],
)
def test_each_fit_computed_once(monkeypatch, bandwidth, fits):
    sample = random_instance(41, n=400)
    side_fits = _count_calls(monkeypatch, "fitting", "fit_side")
    nested = _count_calls(monkeypatch, "fitting", "nested_fit")
    moments = _count_calls(monkeypatch, "bandwidth", "moment_vectors")
    pilots = _count_calls(monkeypatch, "bandwidth", "pilot_bandwidth")
    biases = _count_calls(monkeypatch, "bandwidth", "bias_constants")
    fit_hte(sample, FitSpec(bandwidth=bandwidth), at=[(0.5,)])
    # a pilot and a main-order fit per side; the selector's main-order fit
    # at the pilot bandwidth is read off the pilot's factorization, and a
    # fixed-bandwidth fit never builds it
    assert len(side_fits) == fits
    assert len(nested) == (2 if isinstance(bandwidth, Select) else 0)
    assert moments == []
    # one pilot stage per side, whatever the bandwidth rule
    assert len(pilots) == 2
    assert len(biases) == 2


# ---------------------------------------------------------------------------
# the sample keeps each side's pilot stage per (side, p, s, kernel)

REFITS = {
    "select": FitSpec(bandwidth=Select()),
    "one_sided": FitSpec(bandwidth=Select("one_sided")),
    "fixed": FitSpec(bandwidth=Fixed(0.4, 0.6)),
    "hc1": FitSpec(bandwidth=Common(0.5), vce="hc1"),
    "cluster": FitSpec(bandwidth=Common(0.5), vce="cluster"),
    "nu": FitSpec(bandwidth=Common(0.5), nu=1),
    "level": FitSpec(bandwidth=Common(0.5), level=0.9),
}


@pytest.mark.parametrize("name", sorted(REFITS))
def test_refit_reads_the_stored_pilot_stage(monkeypatch, name):
    base = random_instance(47, n=500)
    labels = np.random.default_rng(47).integers(0, 30, base.n)
    sample = validate_sample(base.y, base.x, 0.0, base.w, labels)
    first = fit_hte(sample, FitSpec(bandwidth=Common(0.5)))
    side_fits = _count_calls(monkeypatch, "fitting", "fit_side")
    pilots = _count_calls(monkeypatch, "bandwidth", "pilot_bandwidth")
    biases = _count_calls(monkeypatch, "bandwidth", "bias_constants")
    spec = REFITS[name]
    again = fit_hte(sample, spec, at=[(0.5,)])
    # the two main-order fits only
    assert (len(pilots), len(biases), len(side_fits)) == (0, 0, 2)
    assert again.left.bias is first.left.bias
    assert again.right.bias is first.right.bias
    cold = fit_hte(dataclasses.replace(sample), spec, at=[(0.5,)])
    assert len(pilots) == 2
    assert again.records == cold.records


@pytest.mark.parametrize("change", [{"kernel": "uniform"}, {"p": 2},
                                    {"s": 2}, {"p": 2, "s": 2}])
def test_another_kernel_or_order_fits_its_own_pilot(monkeypatch, change):
    sample = random_instance(48, n=500)
    spec = FitSpec(bandwidth=Common(0.5))
    first = fit_hte(sample, spec)
    pilots = _count_calls(monkeypatch, "bandwidth", "pilot_bandwidth")
    biases = _count_calls(monkeypatch, "bandwidth", "bias_constants")
    other = fit_hte(sample, dataclasses.replace(spec, **change))
    assert (len(pilots), len(biases)) == (2, 2)
    assert other.left.bias is not first.left.bias
    assert other.right.bias is not first.right.bias
    # the first key's stages are still there
    again = fit_hte(sample, spec)
    assert (len(pilots), len(biases)) == (2, 2)
    assert again.left.bias is first.left.bias
    assert again.right.bias is first.right.bias


def _failing_pilot(case):
    rng = np.random.default_rng(5)
    if case == "singular":
        # w is 1 on every left row: collinear with the intercept there
        x = rng.uniform(-1.0, 1.0, 400)
        w = np.where(x < 0.0, 1.0, rng.binomial(1, 0.5, x.size))
    else:
        few, many = (5, 400) if case == "too_few_left" else (400, 5)
        x = np.concatenate([-rng.uniform(0.01, 1.0, few),
                            rng.uniform(0.0, 1.0, many)])
        w = rng.binomial(1, 0.5, x.size).astype(float)
    return validate_sample(x + rng.normal(size=x.size), x, 0.0, w)


@pytest.mark.parametrize("case, kind, side", [
    ("too_few_left", TooFewObservations, "left"),
    ("too_few_right", TooFewObservations, "right"),
    ("singular", SingularGram, "left"),
])
def test_failed_pilot_is_not_stored(case, kind, side):
    sample = _failing_pilot(case)
    errors = []
    for _ in range(2):
        with pytest.raises(kind) as info:
            fit_hte(sample, FitSpec(bandwidth=Common(0.5)))
        errors.append(str(info.value))
    assert errors[0] == errors[1]
    assert f"{side} side" in errors[0]
    # the left side's stage is kept when only the right one fails
    stored = {key[0] for key in sample._pilot_stages}
    assert stored == ({"left"} if side == "right" else set())


def test_stored_pilot_arrays_are_read_only():
    sample = random_instance(49, n=400)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.5)))
    for stage in (result.left, result.right):
        bias, pilot = stage.bias, stage.bias.pilot_fit
        arrays = [bias.routes, bias.bias, pilot.theta] + [
            value for value in (
                getattr(pilot, f.name) for f in dataclasses.fields(pilot)
            ) if isinstance(value, np.ndarray)
        ]
        assert len(arrays) == 13
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0
    # the main fits are the result's own
    result.left.residuals[0] = 0.0


@pytest.mark.parametrize("mode", ["two_sided", "one_sided"])
@pytest.mark.parametrize("vce", ["hc3", "hc1"])
def test_selected_fit_equals_fixed_fit_at_its_bandwidths(mode, vce):
    sample = random_instance(42, n=500)
    selected = fit_hte(
        sample, FitSpec(bandwidth=Select(mode), vce=vce), at=[(0.5,)]
    )
    fixed = fit_hte(
        sample,
        FitSpec(bandwidth=Fixed(selected.h_left, selected.h_right), vce=vce),
        at=[(0.5,)],
    )
    assert fixed.records == selected.records
    assert fixed.left.bias.pilot_fit.h == selected.left.bias.pilot_fit.h
    assert fixed.right.bias.pilot_fit.h == selected.right.bias.pilot_fit.h


# ---------------------------------------------------------------------------
# the record builder against a restatement of the per-record path


def _reference_record(result, term) -> EstimandRecord:
    """The record of term as built without a record context: a fresh
    extractor_vector, the same four contractions on result.forms, the
    observed range read off the sample, and EstimandRecord(**fields)."""
    label, lead, w, nu, at_point = term
    spec = result.spec
    evec = extractor_vector(nu, spec.p, spec.s, w, lead=lead)
    forms = result.forms
    point = float(evec @ forms.jump)
    var = float(evec @ forms.plugin @ evec)
    bias_term = float(evec @ forms.bias)
    rbc = point - bias_term
    rbc_var = float(evec @ forms.rbc @ evec)
    rbc_se = math.sqrt(max(rbc_var, 0.0))
    lo, hi, z, p_val, zero = ci_pvalue(rbc, rbc_se, spec.level)
    extrapolated = False
    if at_point and result.sample.w_range is not None:
        low, high = (bound.tolist() for bound in result.sample.w_range)
        extrapolated = any(
            v < a or v > b
            for v, a, b in zip(w.tolist(), low, high, strict=True)
        )
    return EstimandRecord(
        label=label, lead=float(lead), w=tuple(w.tolist()), nu=nu,
        point=point, se=math.sqrt(max(var, 0.0)), variance=var,
        bias_estimate=bias_term, rbc_point=rbc, rbc_se=rbc_se,
        rbc_variance=rbc_var, ci_low=lo, ci_high=hi, z=z, p_value=p_val,
        level=spec.level, zero_se=zero, extrapolated=extrapolated,
        eff_n=result.eff_n, h_left=result.h_left, h_right=result.h_right,
    )


def _layout_sample(d):
    """d = 0: no covariate; d = 1: an indicator; d = 3: a uniform
    covariate and a three-level categorical."""
    if d < 3:
        return random_instance(48, n=400, d=d)
    rng = np.random.default_rng(48)
    n = 400
    x = rng.uniform(-1, 1, n)
    raw = {"u": rng.uniform(0, 1, n),
           "g": rng.choice(["a", "b", "c"], n).tolist()}
    w, _, kinds = expand_covariates(raw, CovariateSpec((
        ColumnSpec("u", "continuous"), ColumnSpec("g", "categorical"),
    )))
    assert kinds == ["continuous", "indicator", "indicator"]
    y = x + w @ [0.4, -0.3, 0.2] + (x >= 0) * (0.5 + w @ [0.5, 0.25, -0.2])
    return validate_sample(y + 0.3 * rng.standard_normal(n), x, 0.0, w)


def _assert_same_record(rec, ref):
    assert dataclasses.asdict(rec) == dataclasses.asdict(ref)
    assert repr(rec) == repr(ref)
    assert rec == ref and hash(rec) == hash(ref)
    # the same fields in the same order, each of the same type
    assert [(k, type(v)) for k, v in vars(rec).items()] == [
        (k, type(v)) for k, v in vars(ref).items()
    ]


@pytest.mark.parametrize("p, s, nu", [(1, 1, 0), (2, 2, 1), (2, 1, 0)])
@pytest.mark.parametrize("d", [0, 1, 3])
def test_records_match_the_reference_builder(d, p, s, nu):
    sample = _layout_sample(d)
    spec = FitSpec(p=p, s=s, nu=nu, bandwidth=Common(0.7))
    inside, outside = [0.5] * d, [0.5] * (d - 1) + [2.0] if d else []
    result = fit_hte(sample, spec, at=[inside])
    labels = tuple(f"w{ell + 1}" for ell in range(d))
    plan = _default_plan(d, nu, labels, sample.w_kinds)
    terms = plan + [_point_term(d, nu, inside)]
    assert len(result.records) == len(terms)
    for rec, term in zip(result.records, terms, strict=True):
        _assert_same_record(rec, _reference_record(result, term))

    other = (nu + 1) % (min(p, s) + 1)
    checked = [
        (cate_at(result, inside), _point_term(d, nu, inside)),
        (cate_at(result, outside), _point_term(d, nu, outside)),
    ]
    for sel in (Selector(np.zeros(1 + d), label="null"),
                Selector([1.0] + [0.5] * d, nu=other, label="other nu")):
        checked.append((contrast(result, sel), _selector_term(d, nu, sel)))
    for rec, term in checked:
        _assert_same_record(rec, _reference_record(result, term))
    assert checked[1][0].extrapolated == (d > 0)
    assert checked[2][0].zero_se and checked[3][0].nu == other

    too_high = Selector([1.0] * (1 + d), nu=min(p, s) + 1)
    with pytest.raises(NuOutOfRange) as got:
        contrast(result, too_high)
    with pytest.raises(NuOutOfRange) as expected:
        _reference_record(result, _selector_term(d, nu, too_high))
    assert str(got.value) == str(expected.value)

    rec = checked[1][0]
    copy = pickle.loads(pickle.dumps(rec))
    _assert_same_record(copy, rec)
    moved = dataclasses.replace(rec, point=rec.point + 1.0)
    assert moved.point == rec.point + 1.0
    assert dataclasses.replace(moved, point=rec.point) == rec
    with pytest.raises(dataclasses.FrozenInstanceError):
        rec.point = 0.0
    with pytest.raises(dataclasses.FrozenInstanceError):
        del rec.label


# ---------------------------------------------------------------------------
# records contract the per-side forms stored on the result

PER_RECORD_WORK = (
    ("fitting", "fit_side"),
    ("basis", "design_rows"),
    ("inference", "meat_matrix"),
    ("inference", "cluster_meat"),
    ("inference", "hc_weights"),
    ("inference", "_cluster_sums"),
)


@pytest.mark.parametrize("vce", ["hc3", "hc1", "cluster"])
def test_records_cost_no_window_work(monkeypatch, vce):
    base = random_instance(43, n=400, binary=False)
    labels = np.random.default_rng(44).integers(0, 30, base.n)
    sample = validate_sample(base.y, base.x, 0.0, base.w, labels)
    form_calls = {
        name: _count_calls(monkeypatch, "inference", name)
        for name in ("plugin_form", "rbc_form", "side_forms", "_bias_scales")
    }
    contexts = _count_calls(monkeypatch, "estimands", "_record_context")
    adds = []
    add = ContrastForms.__add__

    def counting_add(self, other):
        adds.append(1)
        return add(self, other)

    monkeypatch.setattr(ContrastForms, "__add__", counting_add)
    # once per side, however many records the fit reports; each side's
    # share reads its bias scales once
    at = [(v,) for v in np.linspace(-1.0, 1.0, 25)]
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.5), vce=vce), at=at)
    assert len(result.records) == 27
    assert {name: len(c) for name, c in form_calls.items()} == dict.fromkeys(
        form_calls, 2
    )

    work = [
        _count_calls(monkeypatch, mod, name) for mod, name in PER_RECORD_WORK
    ]
    for w in np.linspace(-1.0, 1.0, 50):
        cate_at(result, [w])
    contrast(result, Selector(np.array([0.0, 1.0]), nu=1))
    # the two shares serve the fit's 27 records, every cate_at and every
    # derivative order
    assert all(calls == [] for calls in work)
    assert all(len(c) == 2 for c in form_calls.values())
    # and are summed once, into the one record context that every record
    # of the result reads
    assert (len(contexts), len(adds)) == (1, 1)
    # a replaced result is another result, with its own context
    cate_at(dataclasses.replace(result), [0.3])
    assert (len(contexts), len(adds)) == (2, 2)


def test_side_views_run_no_quantile(monkeypatch):
    sample = random_instance(46, n=400)
    quantiles = []
    quantile = np.quantile

    def counting_quantile(*args, **kwargs):
        quantiles.append(args)
        return quantile(*args, **kwargs)

    monkeypatch.setattr(np, "quantile", counting_quantile)
    fit_hte(sample, FitSpec(bandwidth=Select()))
    assert np.isfinite(sample.side_view("left").iqr)
    assert np.isfinite(sample.side_view("right").iqr)
    assert quantiles == []


def test_select_cluster_fit_runs_no_full_sample_unique(monkeypatch):
    base = random_instance(45, n=400)
    labels = np.random.default_rng(45).integers(0, 30, base.n)
    sample = validate_sample(base.y, base.x, 0.0, base.w, labels)
    full_sample_uniques, windows = [], []
    unique = np.unique
    cluster_sums = rdhte.inference._cluster_sums

    def counting_unique(ar, *args, **kwargs):
        full_sample_uniques.append(ar is sample.cluster)
        return unique(ar, *args, **kwargs)

    def recording_sums(side, cluster, idx, values):
        windows.append(idx.size)
        return cluster_sums(side, cluster, idx, values)

    monkeypatch.setattr(np, "unique", counting_unique)
    monkeypatch.setattr(rdhte.inference, "_cluster_sums", recording_sums)
    fit_hte(sample, FitSpec(bandwidth=Select(), vce="cluster"))
    # the cluster sums group each window's labels only
    assert windows and max(windows) < sample.n
    assert sum(full_sample_uniques) == 0


def test_clusters_outside_every_window_leave_the_fit_unchanged():
    base = random_instance(49, n=2000)
    labels = np.random.default_rng(50).integers(0, 30, base.n)
    sample = validate_sample(base.y, base.x, 0.0, base.w, labels)
    specs = [
        FitSpec(bandwidth=Common(0.3), vce="cluster"),
        FitSpec(bandwidth=Select(), vce="cluster"),
    ]
    before = [fit_hte(sample, spec, at=[(0.5,)]) for spec in specs]
    # rows in no main or pilot window become clusters of their own
    inside = np.zeros(sample.n, dtype=bool)
    for res in before:
        pilots = (res.left.bias.pilot_fit, res.right.bias.pilot_fit)
        for fit in (res.left, res.right, *pilots):
            inside[fit.idx] = True
    outside = np.flatnonzero(~inside)
    assert outside.size > sample.n // 5
    labels = labels.copy()
    labels[outside] = 30 + np.arange(outside.size)
    relabeled = validate_sample(base.y, base.x, 0.0, base.w, labels)
    for spec, old in zip(specs, before):
        new = fit_hte(relabeled, spec, at=[(0.5,)])
        assert new.selection == old.selection
        assert [rec.variance for rec in new.records] == [
            rec.variance for rec in old.records
        ]
        assert new.records == old.records


def test_missing_cluster_labels_raise_from_fit_hte():
    sample = random_instance(46, n=300)
    with pytest.raises(TooFewClusters):
        fit_hte(sample, FitSpec(bandwidth=Common(0.5), vce="cluster"))


def test_single_cluster_window_raises_from_fit_hte():
    base = random_instance(47, n=300)
    labels = np.where(base.x >= 0, 1, np.arange(base.n))
    sample = validate_sample(base.y, base.x, 0.0, base.w, labels)
    with pytest.raises(TooFewClusters):
        fit_hte(sample, FitSpec(bandwidth=Common(0.5), vce="cluster"))


@pytest.mark.parametrize("vce", ["hc2", "hc3"])
def test_pilot_leverage_one_raises_from_fit_hte(vce):
    # on the right, the covariate is 1 for three observations only: the
    # pilot's three interaction columns fit them exactly (leverage 1), the
    # main fit's two do not
    rng = np.random.default_rng(48)
    n = 400
    x = rng.uniform(-1, 1, n)
    w = np.where(x < 0, rng.binomial(1, 0.5, n), 0.0)
    w[np.argsort(np.where(x >= 0, x, np.inf))[:3]] = 1.0
    y = 0.3 + 0.8 * x + (x >= 0) * 0.5 + 0.4 * w + 0.5 * rng.standard_normal(n)
    sample = validate_sample(y, x, 0.0, w[:, None])
    spec = FitSpec(bandwidth=Common(1.0), vce=vce)
    with pytest.raises(LeverageOne, match="pilot"):
        fit_hte(sample, spec)
    fit_hte(sample, FitSpec(bandwidth=Common(1.0), vce="hc0"))
