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
