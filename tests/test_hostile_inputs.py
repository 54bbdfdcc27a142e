"""Inputs outside the canonical preset: each gives a typed error or the
same numbers as its well-placed twin."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from rdhte.errors import SingularGram, TooFewObservations
from rdhte.estimands import fit_hte
from rdhte.model import Common, FitSpec, Select, validate_sample
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
