"""Windows read from the sorted side views against a full scan of the rows."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from conftest import random_instance
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import full_scan_window

import rdhte.fitting
import rdhte.inference
from rdhte.basis import n_params
from rdhte.estimands import fit_hte
from rdhte.fitting import fit_side, side_design
from rdhte.kernels import KERNELS
from rdhte.model import (
    Common,
    Fixed,
    FitSpec,
    RdSample,
    Select,
    validate_sample,
)

SIDES = ("left", "right")


def _sample(x, cutoff, w=None):
    rng = np.random.default_rng(x.size)
    return validate_sample(rng.standard_normal(x.size), x, cutoff, w)


def _boundary(side):
    # rows exactly at |x - c| = h on both sides, h and c exact in binary
    rng = np.random.default_rng(1)
    x = np.concatenate([[0.75, 1.25, 0.75, 1.0], rng.uniform(0.0, 2.0, 60)])
    return _sample(x, 1.0), 0.25


def _duplicates(side):
    rng = np.random.default_rng(2)
    grid = np.array([-0.75, -0.5, -0.25, 0.0, 0.25, 0.5, 0.75])
    return _sample(rng.choice(grid, 200), 0.0), 0.5


def _large_offset(side):
    rng = np.random.default_rng(3)
    x = 1e9 + rng.uniform(-1e-3, 1e-3, 300)
    return _sample(x, 1e9), 4e-4


def _empty(side):
    rng = np.random.default_rng(4)
    far = rng.uniform(0.5, 1.0, 40)
    return _sample(np.concatenate([-far, far]), 0.0), 0.1


def _beyond_range(side):
    rng = np.random.default_rng(5)
    return _sample(rng.uniform(-1.0, 1.0, 100), 0.0), 50.0


def _exactly_k(side):
    rng = np.random.default_rng(6)
    x = rng.uniform(-1.0, 1.0, 100)
    sample = _sample(x, 0.0, rng.uniform(-1.0, 1.0, (100, 1)))
    k = n_params(1, 1, 1)
    on_side = (x >= 0.0) if side == "right" else (x < 0.0)
    dist = np.sort(np.abs(x[on_side]))
    return sample, 0.5 * (dist[k - 1] + dist[k])


CASES = {
    "boundary": _boundary,
    "duplicates": _duplicates,
    "large_offset": _large_offset,
    "empty": _empty,
    "beyond_range": _beyond_range,
    "exactly_k": _exactly_k,
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("side", SIDES)
@pytest.mark.parametrize("kernel", KERNELS)
def test_window_equals_full_scan(case, side, kernel):
    sample, h = CASES[case](side)
    got = side_design(sample, side, h, 1, 1, kernel)
    idx, weights, u, kvals = full_scan_window(sample, side, h, kernel)
    np.testing.assert_array_equal(got.idx, idx)
    np.testing.assert_array_equal(got.kvals / h, weights)
    np.testing.assert_array_equal((sample.x[got.idx] - sample.cutoff) / h, u)
    np.testing.assert_array_equal(got.kvals, kvals)
    assert got.rows.shape[0] == idx.size
    if case == "exactly_k":
        assert idx.size == n_params(1, 1, 1)
        fit = fit_side(sample, side, h, 1, 1, kernel)
        assert fit.eff_n == idx.size
        assert np.max(np.abs(fit.residuals)) < 1e-8


@pytest.mark.parametrize("side", SIDES)
def test_boundary_rows_follow_kernel(side):
    sample, h = _boundary(side)
    at_h = np.flatnonzero(np.abs(sample.x - sample.cutoff) == h)
    at_h = at_h[sample.side_mask(side)[at_h]]
    assert at_h.size > 0
    uniform = side_design(sample, side, h, 1, 1, "uniform").idx
    assert np.isin(at_h, uniform).all()
    for kernel in ("triangular", "epanechnikov"):
        idx = side_design(sample, side, h, 1, 1, kernel).idx
        assert not np.isin(at_h, idx).any()


def test_side_view_sorts_each_side():
    sample = random_instance(8, n=500, d=1)
    for side in SIDES:
        view = sample.side_view(side)
        assert view is sample.side_view(side)
        rows = np.flatnonzero(sample.side_mask(side))
        x_side = sample.x[rows]
        assert view.order.dtype == np.int32
        np.testing.assert_array_equal(np.sort(view.order), rows)
        np.testing.assert_array_equal(
            view.dist, np.abs(sample.x[view.order] - sample.cutoff)
        )
        assert np.all(np.diff(view.dist) >= 0)
        assert view.sd == float(np.std(x_side, ddof=1))
        assert view.iqr == float(
            np.quantile(x_side, 0.75) - np.quantile(x_side, 0.25)
        )


# values from a small pool of anchors and their next few floats, so most
# rows tie and many differ by an ulp; x - c then often rounds distinct
# values to one distance
_anchored = st.tuples(
    st.floats(-10.0, 10.0, allow_nan=False), st.integers(0, 3)
).map(lambda t: float(t[0] + t[1] * np.spacing(t[0])))
_pools = st.lists(_anchored, min_size=1, max_size=6)
_values = _pools.flatmap(
    lambda pool: st.lists(st.sampled_from(pool), min_size=2, max_size=60)
)


@settings(max_examples=300, deadline=None)
@given(
    cutoff=st.one_of(
        st.sampled_from([0.0, 0.1, -2.5]),
        st.floats(-10.0, 10.0, allow_nan=False),
    ),
    left=_values,
    right=_values,
)
def test_side_view_quartiles_equal_np_quantile_bitwise(cutoff, left, right):
    # a left and a right draw, each put on its side of the cutoff
    left, right = np.array(left), np.array(right)
    x = np.concatenate([
        np.where(left < cutoff, left, 2 * cutoff - left - 1.0),
        np.where(right >= cutoff, right, 2 * cutoff - right + 1.0),
    ])
    sample = _sample(np.random.default_rng(0).permutation(x), cutoff)
    for side in SIDES:
        view = sample.side_view(side)
        x_side = sample.x[sample.side_mask(side)]
        if x_side.size < 2:
            assert np.isnan(view.iqr) and np.isnan(view.sd)
            continue
        q25, q75 = np.quantile(x_side, [0.25, 0.75])
        assert np.float64(view.iqr).tobytes() == (q75 - q25).tobytes()
        assert view.sd == float(np.std(x_side, ddof=1))
        # the order sorts x away from the cutoff and the distances upward
        away = sample.x[view.order] * (1.0 if side == "right" else -1.0)
        assert np.all(np.diff(away) >= 0)
        assert np.all(np.diff(view.dist) >= 0)


@pytest.fixture(scope="module")
def clustered_sample():
    base = random_instance(9, n=20_000, d=1)
    labels = np.random.default_rng(9).integers(0, 400, base.n)
    return validate_sample(base.y, base.x, 0.0, base.w, labels)


@pytest.mark.parametrize(
    "bandwidth", [Common(0.1), Fixed(0.08, 0.12), Select()],
    ids=["common", "fixed", "select"],
)
@pytest.mark.parametrize("kernel", KERNELS)
@pytest.mark.parametrize("vce", ["hc0", "hc1", "hc2", "hc3", "cluster"])
def test_fit_evaluates_kernel_and_basis_on_window_rows(
    monkeypatch, clustered_sample, vce, kernel, bandwidth
):
    sample = clustered_sample
    spec = FitSpec(kernel=kernel, bandwidth=bandwidth, vce=vce)
    fit_hte(sample, spec)

    seen, built = [], []
    kernel_eval = rdhte.fitting.kernel_eval

    def counting(u, kind="triangular"):
        seen.append(np.asarray(u).size)
        return kernel_eval(u, kind)

    def counting_rows(module):
        design_rows = module.design_rows

        def rows(u, w, p, s):
            built.append((module, np.asarray(u).size))
            return design_rows(u, w, p, s)
        return rows

    monkeypatch.setattr(rdhte.fitting, "kernel_eval", counting)
    for module in (rdhte.fitting, rdhte.inference):
        monkeypatch.setattr(module, "design_rows", counting_rows(module))
    result = fit_hte(sample, spec)
    windows = sorted(
        f.eff_n for f in (result.left, result.right,
                          result.left.bias.pilot_fit,
                          result.right.bias.pilot_fit)
    )
    # one kernel evaluation and one set of basis rows per window, on its
    # rows only; the RBC form builds the pilot's rows on the larger main
    # window, once per side at most
    assert sorted(seen) == windows
    assert sorted(m for mod, m in built if mod is rdhte.fitting) == windows
    assert all(m in windows for _, m in built)
    assert len(built) <= len(windows) + 2
    assert sum(windows) < sample.n


def test_refit_does_not_scan_the_sample(monkeypatch):
    sample = random_instance(10, n=4_000, d=1)
    spec = FitSpec(bandwidth=Select("two_sided"), vce="hc3")
    first = fit_hte(sample, spec)

    calls = []
    side_mask = RdSample.side_mask

    def counting(self, side):
        calls.append(side)
        return side_mask(self, side)

    monkeypatch.setattr(RdSample, "side_mask", counting)
    again = fit_hte(sample, spec)
    assert calls == []
    assert again.records == first.records


def test_sample_arrays_are_read_only():
    x = np.linspace(-1.0, 1.0, 50)
    w = np.ones((50, 1))
    sample = validate_sample(np.zeros(50), x, 0.0, w)
    for arr in (sample.y, sample.x, sample.w):
        with pytest.raises(ValueError):
            arr[0] = 1.0
    # the caller's own arrays stay writable
    x[0] = -2.0
    w[0, 0] = 2.0


def test_replaced_sample_gets_fresh_windows():
    sample = random_instance(11, n=300, d=1)
    before = side_design(sample, "right", 0.3, 1, 1, "triangular").idx
    shifted = dataclasses.replace(sample, x=sample.x - 0.2)
    assert shifted.side_view("right") is not sample.side_view("right")
    got = side_design(shifted, "right", 0.3, 1, 1, "triangular").idx
    np.testing.assert_array_equal(
        got, full_scan_window(shifted, "right", 0.3, "triangular")[0]
    )
    assert not np.array_equal(got, before)
