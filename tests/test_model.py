from __future__ import annotations

import numpy as np
import pytest

from rdhte.errors import (
    BandwidthUnresolved,
    DegenerateQuantiles,
    LengthMismatch,
    NonFinite,
    NonPositiveBandwidth,
    NuOutOfRange,
    UnknownLevel,
)
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


def _clean_sample():
    y = np.array([1.0, 2.0, 3.0, 4.0])
    x = np.array([-1.0, -0.5, 0.5, 1.0])
    return validate_sample(y, x, 0.0, np.array([[0.0], [1.0], [0.0], [1.0]]))


def test_validate_clean_sample():
    sample = _clean_sample()
    assert sample.n == 4
    assert sample.d == 1
    assert sample.side_mask("right").tolist() == [False, False, True, True]
    assert sample.side_mask("left").tolist() == [True, True, False, False]


def test_cutoff_point_counts_as_right():
    sample = validate_sample(np.zeros(2), np.array([0.0, -0.1]), 0.0)
    assert sample.side_mask("right").tolist() == [True, False]


def test_nan_located():
    y = np.array([1.0, 2.0, np.nan, 4.0])
    x = np.linspace(-1, 1, 4)
    with pytest.raises(NonFinite) as err:
        validate_sample(y, x, 0.0)
    assert err.value.row == 2
    assert err.value.column == "y"


def test_length_mismatch():
    with pytest.raises(LengthMismatch):
        validate_sample(np.zeros(5), np.zeros(4), 0.0)


def test_cluster_relabeled_to_codes():
    sample = validate_sample(
        np.zeros(4),
        np.array([-1.0, -0.5, 0.5, 1.0]),
        0.0,
        cluster=np.array(["b", "a", "b", "c"]),
    )
    assert sample.cluster.tolist() == [1, 0, 1, 2]


def test_cluster_count_same_for_integer_and_text_labels():
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 40, 300)
    x = rng.uniform(-1, 1, 300)
    counts = [
        validate_sample(np.zeros(300), x, 0.0, cluster=labels).n_clusters
        for labels in (ids, ids.astype(str), [f"s{i}" for i in ids])
    ]
    assert counts == [np.unique(ids).size] * 3
    assert validate_sample(np.zeros(300), x, 0.0).n_clusters is None


def test_categorical_expansion():
    w, labels, kinds = expand_covariates(
        {"g": ["a", "b", "c"]},
        CovariateSpec((ColumnSpec("g", "categorical"),)),
    )
    assert labels == ["g=b", "g=c"]
    assert kinds == ["indicator", "indicator"]
    np.testing.assert_array_equal(w, [[0, 0], [1, 0], [0, 1]])


def test_categorical_baseline_override():
    w, labels, _ = expand_covariates(
        {"g": ["a", "b", "a"]},
        CovariateSpec((ColumnSpec("g", "categorical", baseline="b"),)),
    )
    assert labels == ["g=a"]
    np.testing.assert_array_equal(w[:, 0], [1, 0, 1])


def test_categorical_unknown_baseline():
    with pytest.raises(UnknownLevel):
        expand_covariates(
            {"g": ["a", "b"]},
            CovariateSpec((ColumnSpec("g", "categorical", baseline="z"),)),
        )


def test_categorical_exclusive_indicators():
    rng = np.random.default_rng(3)
    values = rng.choice(list("abcd"), size=50).tolist()
    w, _, _ = expand_covariates(
        {"g": values}, CovariateSpec((ColumnSpec("g", "categorical"),))
    )
    assert np.all(w.sum(axis=1) <= 1)


def test_continuous_powers():
    income = [1.0, 2.0, 3.0]
    w, labels, kinds = expand_covariates(
        {"income": income},
        CovariateSpec((ColumnSpec("income", "continuous", power_max=2),)),
    )
    assert labels == ["income", "income^2"]
    assert kinds == ["continuous", "continuous"]
    np.testing.assert_array_equal(w, [[1, 1], [2, 4], [3, 9]])


def test_binary_passthrough_and_rejection():
    w, labels, kinds = expand_covariates(
        {"t": [0.0, 1.0, 1.0]},
        CovariateSpec((ColumnSpec("t", "binary"),)),
    )
    assert labels == ["t"] and kinds == ["indicator"]
    np.testing.assert_array_equal(w[:, 0], [0, 1, 1])
    with pytest.raises(UnknownLevel):
        expand_covariates(
            {"t": [0.0, 2.0]}, CovariateSpec((ColumnSpec("t", "binary"),))
        )


def test_quantile_bins_frozen_quartiles():
    # quartiles of 1..8 under linear interpolation: 2.75, 4.5, 6.25
    vals = list(map(float, range(1, 9)))
    np.testing.assert_allclose(
        np.quantile(vals, [0.25, 0.5, 0.75], method="linear"),
        [2.75, 4.5, 6.25],
    )
    w, labels, _ = expand_covariates(
        {"v": vals},
        CovariateSpec((ColumnSpec("v", "quantile_bins", bins=4),)),
    )
    assert labels == ["v:q2", "v:q3", "v:q4"]
    # value 1 sits in the dropped lowest bin
    np.testing.assert_array_equal(w[0], [0, 0, 0])
    # direct enumeration against the cut points
    for row, v in zip(w, vals):
        expect = [
            float(2.75 <= v < 4.5),
            float(4.5 <= v < 6.25),
            float(v >= 6.25),
        ]
        assert row.tolist() == expect


def test_quantile_bins_degenerate():
    with pytest.raises(DegenerateQuantiles):
        expand_covariates(
            {"v": [1.0, 1.0, 1.0, 2.0]},
            CovariateSpec((ColumnSpec("v", "quantile_bins", bins=4),)),
        )


def test_expand_row_permutation_equivariance():
    vals = [3.0, 1.0, 2.0, 5.0, 4.0, 8.0, 7.0, 6.0]
    spec = CovariateSpec((ColumnSpec("v", "quantile_bins", bins=2),))
    w, _, _ = expand_covariates({"v": vals}, spec)
    perm = [4, 2, 0, 7, 1, 3, 6, 5]
    w_perm, _, _ = expand_covariates(
        {"v": [vals[i] for i in perm]}, spec
    )
    np.testing.assert_array_equal(w[perm], w_perm)


def test_fitspec_validation():
    with pytest.raises(NuOutOfRange):
        FitSpec(p=1, s=1, nu=2)
    with pytest.raises(ValueError):
        FitSpec(kernel="gaussian")
    with pytest.raises(ValueError):
        FitSpec(vce="hc9")
    with pytest.raises(ValueError):
        FitSpec(level=1.0)
    with pytest.raises(NonPositiveBandwidth):
        FitSpec(bandwidth=Common(0.0))


@pytest.mark.parametrize(
    "bandwidth",
    [
        Common(float("nan")),
        Common(float("inf")),
        Fixed(0.3, float("inf")),
        Fixed(float("nan"), 0.3),
        Fixed(0.3, -0.1),
    ],
)
def test_fitspec_rejects_non_finite_bandwidths(bandwidth):
    with pytest.raises(NonPositiveBandwidth, match="finite and > 0"):
        FitSpec(bandwidth=bandwidth)


def test_fitspec_bandwidth_resolution():
    assert FitSpec(bandwidth=Common(0.4)).resolved_bandwidths() == (0.4, 0.4)
    assert FitSpec(bandwidth=Fixed(0.3, 0.5)).resolved_bandwidths() == (
        0.3,
        0.5,
    )
    with pytest.raises(BandwidthUnresolved):
        FitSpec(bandwidth=Select()).resolved_bandwidths()
