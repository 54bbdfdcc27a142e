"""Inputs outside the canonical preset: each gives a typed error or the
same numbers as its well-placed twin."""

from __future__ import annotations

import dataclasses
import re

import numpy as np
import pytest

from rdhte.errors import (
    BiasDegenerate,
    FormsDegenerate,
    SingularGram,
    TooFewObservations,
)
from rdhte.estimands import Selector, contrast, fit_hte
from rdhte.model import Common, Fixed, FitSpec, Select, validate_sample
from rdhte.simulate import canonical_preset, gen_sample


@pytest.fixture(scope="module")
def sample():
    return gen_sample(canonical_preset(), 4000, 3)


@pytest.mark.parametrize("bandwidth", [Common(0.3), Select()])
def test_covariate_constant_inside_the_window_is_singular(sample, bandwidth):
    w = (np.abs(sample.x) > 0.9).astype(float)
    with pytest.raises(SingularGram):
        fit_hte(validate_sample(sample.y, sample.x, 0.0, w),
                FitSpec(bandwidth=bandwidth))


@pytest.mark.parametrize("bandwidth", [Common(0.5), Select()])
def test_rows_on_one_side_are_too_few(sample, bandwidth):
    right = sample.x >= 0.0
    with pytest.raises(TooFewObservations):
        fit_hte(validate_sample(sample.y[right], sample.x[right], 0.0),
                FitSpec(bandwidth=bandwidth))


@pytest.mark.parametrize("scale", [1e-160, 1e-300])
@pytest.mark.parametrize("mode", ["two_sided", "one_sided"])
def test_selector_on_tiny_x_raises_bias_degenerate(mode, scale):
    # the canonical draw with x shrunk so far that the bias contraction is
    # NaN, and at 1e-300 a pilot h squared underflows to 0: the error must
    # name the first constant that is not finite, the left side's bias, not
    # a ZeroDivisionError from a reference bandwidth of 0 or a later stage
    # of the solve. ROADMAP item 1a (a scale-aware regularizer) may turn
    # these inputs into fits and replace this pin.
    # Under the suite's warnings-as-errors filter: the divide by a power of
    # h that underflows to 0 in SideFit.theta must not escape ahead of it
    draw = gen_sample(canonical_preset(), 4000, 0)
    with pytest.raises(
        BiasDegenerate, match=r"^left bias constant non-finite \(nan\)$"
    ):
        fit_hte(validate_sample(draw.y, scale * draw.x, 0.0, draw.w),
                FitSpec(bandwidth=Select(mode)))


@pytest.mark.parametrize("scale, iqr", [(1e155, "5.08775e+154"),
                                        (1e200, "5.08775e+199")])
@pytest.mark.parametrize("rule", ["two_sided", "one_sided", "common"])
def test_spread_of_huge_x_raises_bias_degenerate(rule, scale, iqr):
    # the squares of x overflow, so the sd of the left side's x is inf:
    # the pilot bandwidth, which every fit reads, names the side and the
    # spread, not numpy's overflow warning or a later stage
    draw = gen_sample(canonical_preset(), 4000, 0)
    bandwidth = Common(0.3 * scale) if rule == "common" else Select(rule)
    with pytest.raises(
        BiasDegenerate,
        match=rf"^left side spread of x non-finite \(sd inf, IQR "
        rf"{re.escape(iqr)}\)$",
    ):
        fit_hte(validate_sample(draw.y, scale * draw.x, 0.0, draw.w),
                FitSpec(bandwidth=bandwidth))


@pytest.mark.parametrize(
    "scale, mode", [(1e-100, "two_sided"), (1e-120, "two_sided"),
                    (1e-120, "one_sided")]
)
def test_selector_on_small_x_raises_when_the_squared_bias_overflows(
    scale, mode
):
    # the bias constant is finite, but its square is not a float
    draw = gen_sample(canonical_preset(), 4000, 0)
    sides = "left and right" if mode == "two_sided" else "left"
    with pytest.raises(
        BiasDegenerate, match=f"^{sides} squared bias constant overflows"
    ):
        fit_hte(validate_sample(draw.y, scale * draw.x, 0.0, draw.w),
                FitSpec(bandwidth=Select(mode)))


SHARE_FAILURES = {
    1e110: r"a power of h = 3e\+109 overflows",
    1e120: r"a power of h = 3e\+119 overflows",
    1e-110: r"a power of h = 3e-111 underflows to 0",
    1e-120: r"a power of h = 3e-121 underflows to 0",
}


@pytest.mark.parametrize("scale", list(SHARE_FAILURES))
def test_side_share_out_of_float_range_raises_forms_degenerate(scale):
    # x and h scaled together: the fit in u = x/h is the same, but the
    # powers of h that put the share in raw units leave the float range
    draw = gen_sample(canonical_preset(), 4000, 0)
    sample = validate_sample(draw.y, scale * draw.x, 0.0, draw.w)
    spec = FitSpec(bandwidth=Common(0.3 * scale), vce="hc3")
    # under the suite's warnings-as-errors filter: numpy's overflow in a
    # power of h must not escape ahead of the typed error
    with pytest.raises(
        FormsDegenerate, match=f"^left side: {SHARE_FAILURES[scale]}$"
    ):
        fit_hte(sample, spec)


@pytest.mark.parametrize("scale", [1e100, 1e-100])
def test_side_share_near_the_float_range_matches_unit_scale(scale):
    # x and h scaled together, as above, but the powers of h the share
    # needs stay floats: the fit in u = x/h is the unit-scale fit up to the
    # rounding of u, and every nu = 0 record matches it. Under the suite's
    # warnings-as-errors filter no overflow of the RBC form may escape
    draw = gen_sample(canonical_preset(), 4000, 0)
    base = fit_hte(validate_sample(draw.y, draw.x, 0.0, draw.w),
                   FitSpec(bandwidth=Common(0.3), vce="hc3"))
    moved = fit_hte(validate_sample(draw.y, scale * draw.x, 0.0, draw.w),
                    FitSpec(bandwidth=Common(0.3 * scale), vce="hc3"))
    assert len(base.records) == len(moved.records) == 3
    for r0, r1 in zip(base.records, moved.records):
        for fld in dataclasses.fields(r0):
            v0, v1 = getattr(r0, fld.name), getattr(r1, fld.name)
            if fld.name in ("h_left", "h_right"):
                assert v1 == 0.3 * scale, fld.name
            elif not isinstance(v0, float):
                assert v1 == v0, fld.name
            elif fld.name in RESCALE_POINT:
                assert abs(v1 - v0) <= 1e-12 * r0.rbc_se, fld.name
            elif fld.name in ("z", "p_value"):
                assert abs(v1 - v0) <= 1e-12, fld.name
            else:
                assert v1 == pytest.approx(v0, rel=1e-12, abs=0), fld.name


@pytest.mark.parametrize("bandwidth", [Common(0.5), Select()])
def test_exact_shift_of_x_and_cutoff(sample, bandwidth):
    # x on a 2^-20 grid: adding 2^30 keeps 50 significant bits, so the
    # shift and every distance to the cutoff are exact
    x = np.round(sample.x * 2.0**20) / 2.0**20
    shift = 2.0**30
    base = fit_hte(validate_sample(sample.y, x, 0.0, sample.w),
                   FitSpec(bandwidth=bandwidth))
    moved = fit_hte(validate_sample(sample.y, x + shift, shift, sample.w),
                    FitSpec(bandwidth=bandwidth))
    # the main fit sees the same distances; the pilot bandwidth reads the
    # sd and IQR of x, which round differently near 2^30
    exact = ("point", "se", "variance", "eff_n")
    if isinstance(bandwidth, Select):
        exact = ()
    assert len(base.records) == len(moved.records) == 3
    for a, b in zip(base.records, moved.records):
        for f in dataclasses.fields(a):
            va, vb = getattr(a, f.name), getattr(b, f.name)
            if f.name in exact or not isinstance(va, float):
                assert va == vb, f.name
            else:
                assert vb == pytest.approx(va, rel=1e-9, abs=0), f.name


RESCALE_SPECS = {
    "common_hc3": FitSpec(bandwidth=Common(0.4), vce="hc3"),
    "fixed_hc2_p2_s2_nu1": FitSpec(
        p=2, s=2, nu=1, bandwidth=Fixed(0.5, 0.6), vce="hc2"
    ),
    "common_cluster": FitSpec(bandwidth=Common(0.4), vce="cluster"),
}
#: record fields that scale as a coefficient of power nu, and its square
RESCALE_POINT = ("point", "bias_estimate", "rbc_point", "ci_low", "ci_high")
RESCALE_SPREAD = ("se", "rbc_se")
RESCALE_VARIANCE = ("variance", "rbc_variance")


def _rescale_records(sample, x, spec):
    """Records of one fit on running variable x, cutoff 0, plus one
    at point and one contrast at derivative order 1."""
    cluster = np.arange(sample.n) % 80
    result = fit_hte(
        validate_sample(sample.y, x, 0.0, sample.w, cluster), spec,
        at=[(0.5,)],
    )
    extra = contrast(result, Selector(np.array([1.0, 0.5]), nu=1))
    return list(result.records) + [extra]


@pytest.mark.parametrize("k", [-20, 20, 3, 41])
@pytest.mark.parametrize(
    "name",
    sorted(RESCALE_SPECS) + [pytest.param("select", marks=pytest.mark.xfail(
        strict=True,
        reason="ROADMAP item 1: the selected bandwidth does not scale "
        "with x (h/8 moves by -20% at x*8, SingularGram at x*2^20)",
    ))],
)
def test_exact_rescale_of_x(sample, name, k):
    # x -> 2^k x and h -> 2^k h leave every u = x/h as it was, so a
    # coefficient of power nu moves to 2^(-k nu) times itself, exactly at
    # k = +-20 and to rounding at k = 3 and 41
    spec, a = RESCALE_SPECS.get(name, FitSpec()), 2.0**k
    moved_spec = spec
    if not isinstance(spec.bandwidth, Select):
        h_left, h_right = spec.bandwidth.h_left, spec.bandwidth.h_right
        moved_spec = dataclasses.replace(
            spec, bandwidth=Fixed(a * h_left, a * h_right)
        )
    base = _rescale_records(sample, sample.x, spec)
    moved = _rescale_records(sample, a * sample.x, moved_spec)
    assert len(base) == len(moved) == 5
    exact = k in (-20, 20)
    for r0, r1 in zip(base, moved):
        f = 2.0 ** (-k * r0.nu)
        want = {"h_left": a * r0.h_left, "h_right": a * r0.h_right}
        for n in RESCALE_POINT + RESCALE_SPREAD:
            want[n] = f * getattr(r0, n)
        for n in RESCALE_VARIANCE:
            want[n] = f * f * getattr(r0, n)
        for fld in dataclasses.fields(r0):
            v0 = want.get(fld.name, getattr(r0, fld.name))
            v1 = getattr(r1, fld.name)
            exact_field = exact or fld.name in ("h_left", "h_right")
            if exact_field or not isinstance(v0, float):
                assert v1 == v0, fld.name
            elif fld.name in RESCALE_POINT:
                assert abs(v1 - v0) <= 1e-12 * want["rbc_se"], fld.name
            else:
                assert v1 == pytest.approx(v0, rel=1e-11, abs=0), fld.name


AFFINE_SPECS = {
    "select": FitSpec(),
    "one_sided_hc2": FitSpec(bandwidth=Select("one_sided"), vce="hc2"),
    "common_hc1": FitSpec(bandwidth=Common(0.4), vce="hc1"),
    "p2_s2_nu1": FitSpec(p=2, s=2, nu=1),
    "cluster": FitSpec(vce="cluster"),
}


@pytest.mark.parametrize("a,b", [(3.7, -1.2), (-0.25, 5.0), (2.0**10, 0.0)])
@pytest.mark.parametrize("name", sorted(AFFINE_SPECS))
def test_affine_change_of_outcome(sample, name, a, b):
    # y -> a y + b leaves h alone, moves every estimate to a times itself
    # and every standard error to |a| times itself; the intercepts absorb b
    cluster = np.arange(sample.n) % 80
    spec = AFFINE_SPECS[name]
    base = fit_hte(
        validate_sample(sample.y, sample.x, 0.0, sample.w, cluster), spec
    )
    moved = fit_hte(
        validate_sample(a * sample.y + b, sample.x, 0.0, sample.w, cluster),
        spec,
    )
    for h0, h1 in ((base.h_left, moved.h_left), (base.h_right, moved.h_right)):
        assert h1 == pytest.approx(h0, rel=1e-9, abs=0.0)
    assert len(moved.records) == len(base.records)
    for r0, r1 in zip(base.records, moved.records):
        assert r1.label == r0.label
        tol = 1e-8 * abs(a) * r0.rbc_se
        lo, hi = sorted((a * r0.ci_low, a * r0.ci_high))
        for got, want in (
            (r1.point, a * r0.point),
            (r1.rbc_point, a * r0.rbc_point),
            (r1.bias_estimate, a * r0.bias_estimate),
            (r1.ci_low, lo),
            (r1.ci_high, hi),
        ):
            assert abs(got - want) <= tol
        for got, want in ((r1.se, r0.se), (r1.rbc_se, r0.rbc_se)):
            assert got == pytest.approx(abs(a) * want, rel=1e-9, abs=0.0)
        assert r1.p_value == pytest.approx(r0.p_value, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("p,s", [(1, 1), (2, 1), (2, 2), (1, 2)])
def test_shift_of_a_covariate_moves_the_slope_only_when_s_exceeds_p(p, s):
    # w -> w + 1: for p >= s the intercepts absorb the shift, but for s > p
    # the column (W + 1) u^j with p < j <= s adds u^j, which is not a basis
    # column, so the model changes; the README states this property
    draw = gen_sample(canonical_preset(), 4000, 0)
    spec = FitSpec(p=p, s=s, bandwidth=Common(0.5))
    slopes = []
    for shift in (0.0, 1.0):
        result = fit_hte(validate_sample(draw.y, draw.x, 0.0, draw.w + shift),
                         spec, kinds=["continuous"])
        slopes += [rec for rec in result.records if rec.label == "Slope: w1"]
    assert len(slopes) == 2
    for field in ("point", "se", "rbc_point", "rbc_se"):
        a, b = (getattr(rec, field) for rec in slopes)
        moved = abs(b - a) / abs(a)
        assert moved > 1e-3 if s > p else moved <= 1e-11, field
