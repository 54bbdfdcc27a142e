from __future__ import annotations

import json
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rdhte.errors import (
    DegenerateQuantiles,
    EmptySample,
    InputError,
    InvalidSetting,
    LengthMismatch,
    MissingLabel,
    NonFinite,
    NonPositiveBandwidth,
    NuOutOfRange,
    TooFewObservations,
    UnknownLevel,
)
from conftest import random_instance

from rdhte.estimands import Selector, contrast, fit_hte
from rdhte.kernels import resolve_kernel
from rdhte.model import (
    CodedLabels,
    ColumnSpec,
    Common,
    CovariateSpec,
    Fixed,
    FitSpec,
    Select,
    expand_covariates,
    is_binary,
    label_codes,
    validate_sample,
)
from rdhte.render import render_json
from rdhte.simulate import DgpConfig


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


@pytest.mark.parametrize(
    "cluster",
    [np.zeros((5, 1)), np.zeros((5, 2)), 3],
    ids=["n_by_1", "n_by_2", "scalar"],
)
def test_badly_shaped_cluster_is_length_mismatch(cluster):
    with pytest.raises(LengthMismatch, match="cluster must be one-dim"):
        validate_sample(np.zeros(5), np.zeros(5), 0.0, cluster=cluster)


def test_three_dimensional_w_is_length_mismatch():
    with pytest.raises(LengthMismatch, match="w must be"):
        validate_sample(np.zeros(5), np.zeros(5), 0.0, np.zeros((5, 1, 1)))


def test_cluster_relabeled_to_codes():
    sample = validate_sample(
        np.zeros(4),
        np.array([-1.0, -0.5, 0.5, 1.0]),
        0.0,
        cluster=np.array(["b", "a", "b", "c"]),
    )
    assert sample.cluster.tolist() == [1, 0, 1, 2]


def test_integer_and_text_cluster_labels_give_the_same_fit():
    rng = np.random.default_rng(3)
    ids = rng.integers(0, 40, 300)
    x = rng.uniform(-1, 1, 300)
    y = x + (x >= 0) + rng.standard_normal(300)
    spec = FitSpec(bandwidth=Select(), vce="cluster")
    fits = [
        fit_hte(validate_sample(y, x, 0.0, cluster=labels), spec)
        for labels in (ids, ids.astype(str), [f"s{i}" for i in ids])
    ]
    for other in fits[1:]:
        assert other.selection == fits[0].selection
        assert other.records == fits[0].records


@pytest.mark.parametrize(
    "labels",
    [
        [1.0, 2.0, np.nan, 3.0, 1.0, 2.0],
        ["a", "b", None, "c", "a", "b"],
        np.array(["a", "b", np.nan, "c", "a", "b"], dtype=object),
        [1, 2, None, 3, 1, 2],
        np.array(["a", "b", "", "c", "a", "b"]),
        ["a", "b", float("nan"), "c", "a", "b"],
    ],
    ids=["float_nan", "text_none", "text_nan", "int_none", "text_empty",
         "text_list_nan"],
)
def test_missing_cluster_label_is_input_error(labels):
    with pytest.raises(MissingLabel) as err:
        validate_sample(np.zeros(6), np.linspace(-1, 1, 6), 0, cluster=labels)
    assert (err.value.row, err.value.column) == (2, "cluster")


@pytest.mark.parametrize(
    "labels",
    [np.array([1, "a", 2, "b", 1, "a"], dtype=object), [1, "a", 2, "b", 1, "a"]],
    ids=["array", "list"],
)
def test_cluster_labels_mixing_numbers_and_text_are_input_error(labels):
    with pytest.raises(InputError, match="column 'cluster'"):
        validate_sample(np.zeros(6), np.linspace(-1, 1, 6), 0, cluster=labels)


def test_categorical_expansion():
    w, labels, kinds = expand_covariates(
        {"g": ["a", "b", "c"] * 4},
        CovariateSpec((ColumnSpec("g", "categorical"),)),
    )
    assert labels == ["g=b", "g=c"]
    assert kinds == ["indicator", "indicator"]
    np.testing.assert_array_equal(w, [[0, 0], [1, 0], [0, 1]] * 4)


def test_categorical_baseline_override():
    w, labels, _ = expand_covariates(
        {"g": ["a", "b", "a"] * 3},
        CovariateSpec((ColumnSpec("g", "categorical", baseline="b"),)),
    )
    assert labels == ["g=a"]
    np.testing.assert_array_equal(w[:, 0], [1, 0, 1] * 3)


def test_categorical_unknown_baseline():
    with pytest.raises(UnknownLevel):
        expand_covariates(
            {"g": ["a", "b"]},
            CovariateSpec((ColumnSpec("g", "categorical", baseline="z"),)),
        )


@pytest.mark.parametrize("baseline", [None, "a"])
def test_empty_categorical_column_is_an_empty_sample(baseline):
    with pytest.raises(EmptySample, match="column 'g' has no rows"):
        column = ColumnSpec("g", "categorical", baseline=baseline)
        expand_covariates({"g": []}, CovariateSpec((column,)))


def test_expansion_needs_4_plus_4d_rows():
    # three levels and a 0/1 column: d = 3, so a fit needs 16 rows; the
    # error names the widest column
    spec = CovariateSpec((ColumnSpec("t", "binary"),
                          ColumnSpec("g", "categorical")))
    raw = {"t": [0.0, 1.0] * 8, "g": list("abca" * 4)}
    w, _, _ = expand_covariates(raw, spec)
    assert w.shape == (16, 3)
    raw = {name: values[:-1] for name, values in raw.items()}
    with pytest.raises(TooFewObservations, match=(
        r"^column 'g' expands to 2 of 3 covariate columns, more than a fit "
        r"on 15 rows can use \(at most 2\)$"
    )):
        expand_covariates(raw, spec)


@pytest.mark.parametrize(
    "labels",
    [["c", "a", "c", "b"], np.array(["c", "a", "c", "b"]),
     np.array(["c", "a", "c", "b"], dtype=object), [3, 1, 3, 2],
     np.array([3.0, 1.0, 3.0, 2.0]), np.array([30, 10, 30, 20])],
    ids=["text_list", "text_array", "object_array", "int_list",
         "float_array", "int_array"],
)
def test_label_codes_match_np_unique(labels):
    levels, codes = label_codes(labels)
    uniq, inverse = np.unique(np.asarray(labels), return_inverse=True)
    assert levels == uniq.tolist()
    assert codes.dtype == np.intp
    assert codes.tolist() == inverse.tolist() == [2, 0, 2, 1]


def test_label_codes_reject_numbers_mixed_with_text():
    with pytest.raises(TypeError):
        label_codes([1, "a", 2])


def _coded_forms(labels, cut):
    """CodedLabels of labels as load_csv makes them, the levels of each
    block in first-appearance order: one block, two blocks cut at row cut
    (a label in both is a level twice), and one block with two levels no
    code uses, one of them missing."""
    def block(rows):
        levels = list(dict.fromkeys(rows))
        index = {label: j for j, label in enumerate(levels)}
        return levels, np.array([index[v] for v in rows], dtype=np.int32)

    levels, codes = block(labels)
    head, head_codes = block(labels[:cut])
    tail, tail_codes = block(labels[cut:])
    return [
        CodedLabels(levels, codes),
        CodedLabels(head + tail,
                    np.concatenate([head_codes, tail_codes + len(head)])),
        CodedLabels(["unused", *levels, ""], codes + 1),
    ]


def _outcome(call, *args):
    """("ok", value) of call(*args), or the type and message it raises."""
    try:
        return "ok", call(*args)
    except Exception as exc:  # compared, not handled
        return type(exc), str(exc)


LABEL_CELLS = st.sampled_from(["a", "b", "10", "2", "", "b c", None, 3, 1.5,
                               float("nan")])


@settings(max_examples=300, deadline=None)
@given(labels=st.lists(LABEL_CELLS, min_size=1, max_size=14),
       cut=st.integers(0, 14), baseline=st.sampled_from([None, "b", "3"]))
def test_coded_labels_read_as_the_labels(labels, cut, baseline):
    # same cluster codes, W, labels and kinds, or the same error and
    # message (a MissingLabel at the same row), from coded and plain labels
    n = len(labels)
    y, x = np.arange(n, dtype=float), np.linspace(-1.0, 1.0, n)
    spec = CovariateSpec((ColumnSpec("g", "categorical", baseline=baseline),))

    def cluster(values):
        return validate_sample(y, x, 0.0, None, values).cluster.tolist()

    def expanded(values):
        w, names, kinds = expand_covariates({"g": values}, spec)
        return w.tobytes(), w.shape, names, kinds

    want = [_outcome(cluster, labels), _outcome(expanded, labels)]
    for coded in _coded_forms(labels, min(cut, n)):
        assert coded.tolist()[:n] == labels or coded.levels[0] == "unused"
        assert [_outcome(cluster, coded), _outcome(expanded, coded)] == want
        if want[0][0] == "ok":
            assert label_codes(coded)[0] == label_codes(labels)[0]


def test_coded_labels_of_numeric_kinds_read_as_their_text():
    coded = CodedLabels(["0.5", "1", "0"], np.tile([0, 1, 2, 1, 0, 2], 3))
    spec = CovariateSpec((ColumnSpec("q", "continuous", power_max=2),
                          ColumnSpec("b", "quantile_bins", bins=2)))
    got = expand_covariates({"q": coded, "b": coded}, spec)
    text = coded.tolist()
    want = expand_covariates({"q": text, "b": text}, spec)
    assert got[0].tobytes() == want[0].tobytes() and got[1:] == want[1:]
    with pytest.raises(UnknownLevel, match="binary column 'q'"):
        expand_covariates({"q": coded},
                          CovariateSpec((ColumnSpec("q", "binary"),)))


@pytest.mark.parametrize("levels, codes, match", [
    (["a"], np.array([0, 1]), r"codes must lie in \[0, 1\)"),
    (["a"], np.array([-1, 0]), r"codes must lie in \[0, 1\)"),
    (["a"], np.array([0.0, 0.0]), "one-dimensional integer array"),
    (["a"], np.zeros((2, 1), dtype=int), "one-dimensional integer array"),
])
def test_coded_labels_reject_codes_that_index_no_level(levels, codes, match):
    with pytest.raises(InputError, match=match):
        CodedLabels(levels, codes)


def test_coded_labels_length_is_checked_against_the_sample():
    with pytest.raises(LengthMismatch, match="cluster has length 2"):
        validate_sample([1.0, 2.0, 3.0], [0.1, 0.2, 0.3], 0.0, None,
                        CodedLabels(("a", "b"), np.array([0, 1])))


def test_categorical_levels_are_the_values_text():
    # numbers are coded by their text, which sorts "10" before "2"
    w, labels, _ = expand_covariates(
        {"g": [10, 2, 10, 1.5] * 4, "h": [1, "a", 1, "a"] * 4},
        CovariateSpec((ColumnSpec("g", "categorical"),
                       ColumnSpec("h", "categorical"))),
    )
    assert labels == ["g=10", "g=2", "h=a"]
    np.testing.assert_array_equal(
        w, [[1, 0, 0], [0, 1, 1], [1, 0, 0], [0, 0, 1]] * 4
    )


@pytest.mark.parametrize(
    "values, row",
    [
        (["a", "", "b", None, float("nan")], 1),
        (["a", "b", None], 2),
        (["a", float("nan"), "b"], 1),
        ([1, "a", None], 2),
        (np.array([1.0, 2.0, 1.0, np.nan]), 3),
        (np.array(["x", "y", ""]), 2),
    ],
)
def test_categorical_missing_label_is_rejected(values, row):
    # the rule validate_sample applies to cluster labels
    with pytest.raises(MissingLabel) as info:
        expand_covariates(
            {"g": values}, CovariateSpec((ColumnSpec("g", "categorical"),))
        )
    assert (info.value.row, info.value.column) == (row, "g")


def test_categorical_exclusive_indicators():
    rng = np.random.default_rng(3)
    values = rng.choice(list("abcd"), size=50).tolist()
    w, _, _ = expand_covariates(
        {"g": values}, CovariateSpec((ColumnSpec("g", "categorical"),))
    )
    assert np.all(w.sum(axis=1) <= 1)


def test_continuous_powers():
    income = [1.0, 2.0, 3.0] * 4
    w, labels, kinds = expand_covariates(
        {"income": income},
        CovariateSpec((ColumnSpec("income", "continuous", power_max=2),)),
    )
    assert labels == ["income", "income^2"]
    assert kinds == ["continuous", "continuous"]
    np.testing.assert_array_equal(w, [[1, 1], [2, 4], [3, 9]] * 4)


def test_power_overflow_is_non_finite_at_the_power():
    spec = CovariateSpec((ColumnSpec("inc", "continuous", power_max=3),))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NonFinite) as err:
            expand_covariates({"inc": [2.0, 1e120, 1e200, 3.0]}, spec)
    assert (err.value.row, err.value.column) == (2, "inc^2")


def test_binary_passthrough_and_rejection():
    w, labels, kinds = expand_covariates(
        {"t": [0.0, 1.0, 1.0] * 3},
        CovariateSpec((ColumnSpec("t", "binary"),)),
    )
    assert labels == ["t"] and kinds == ["indicator"]
    np.testing.assert_array_equal(w[:, 0], [0, 1, 1] * 3)
    with pytest.raises(UnknownLevel):
        expand_covariates(
            {"t": [0.0, 2.0]}, CovariateSpec((ColumnSpec("t", "binary"),))
        )


@pytest.mark.parametrize(
    "values, expected",
    [
        ([0.0, 1.0, 1.0, 0.0], True),
        ([-0.0, 1.0], True),
        ([-0.0], True),
        (np.empty(0), True),
        (np.array([0, 1, 1]), True),
        ([np.nan], False),
        ([0.0, 1.0, np.nan], False),
        ([0.0, 0.5], False),
        ([2.0, 1.0], False),
    ],
)
def test_is_binary_matches_the_sorted_set_test(values, expected):
    # the one-pass test agrees with membership of the sorted distinct values
    assert is_binary(values) is expected
    assert bool(np.isin(np.unique(values), (0.0, 1.0)).all()) is expected


def test_quantile_bins_frozen_quartiles():
    # quartiles of 1..8 twice under linear interpolation: 2.75, 4.5, 6.25
    vals = list(map(float, range(1, 9))) * 2
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


@pytest.mark.parametrize("bins", [2, 4])
def test_quantile_bins_reject_non_finite(bins):
    vals = [1.0, 2.0, 3.0, 4.0, np.nan, 5.0, 6.0, 7.0]
    with pytest.raises(NonFinite) as err:
        expand_covariates(
            {"v": vals},
            CovariateSpec((ColumnSpec("v", "quantile_bins", bins=bins),)),
        )
    assert (err.value.row, err.value.column) == (4, "v")


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
    "make",
    [
        lambda: FitSpec(level=1.5),
        lambda: ColumnSpec("a", "continuous", power_max=0),
        lambda: resolve_kernel("gauss"),
    ],
    ids=["level", "power", "kernel"],
)
def test_invalid_settings_are_input_errors(make):
    with pytest.raises(InputError):
        make()



_VEC = np.array([0.0, 1.0])
_XY = (np.zeros(4), np.array([-0.5, -0.2, 0.2, 0.5]))


@pytest.mark.parametrize(
    "make,name,stored",
    [
        (lambda: FitSpec(p=1.5), "p", None),
        (lambda: FitSpec(s=2.0), "s", None),
        (lambda: FitSpec(p="1"), "p", None),
        (lambda: FitSpec(nu=None), "nu", None),
        (lambda: FitSpec(level="0.95"), "level", None),
        (lambda: FitSpec(bandwidth=Common("0.5")), "h", None),
        (lambda: Fixed(0.3, None), "h_right", None),
        (lambda: Selector(_VEC, nu=1.5), "nu", None),
        (lambda: Selector(_VEC, label=""), "selector label", None),
        (lambda: Selector(_VEC, label=5), "selector label", None),
        (lambda: validate_sample(*_XY, cutoff="0"), "cutoff", None),
        (lambda: DgpConfig(cutoff="a"), "cutoff", None),
        (lambda: DgpConfig(cutoff=float("nan")), "cutoff", None),
        (lambda: DgpConfig(cutoff=float("inf")), "cutoff", None),
        (lambda: DgpConfig(cutoff=np.float32(0.25)), "cutoff", 0.25),
        (lambda: FitSpec(p=np.int64(2)), "p", 2),
        (lambda: FitSpec(level=np.float32(0.95)), "level",
         float(np.float32(0.95))),
        (lambda: Common(np.float32(0.5)), "h", 0.5),
        (lambda: Selector(_VEC, nu=np.int64(1)), "nu", 1),
        (lambda: ColumnSpec("v", "continuous", power_max=2.5), "power_max",
         None),
        (lambda: ColumnSpec("v", "quantile_bins", bins=2.5), "bins", None),
        (lambda: ColumnSpec("v", "continuous", power_max="2"), "power_max",
         None),
        (lambda: ColumnSpec("v", "quantile_bins", bins=np.int64(3)), "bins",
         3),
        (lambda: ColumnSpec("v", "continuous", power_max=np.int64(2)),
         "power_max", 2),
    ],
    ids=[
        "p_float", "s_float", "p_text", "nu_none", "level_text",
        "common_text", "fixed_none", "selector_nu_float", "selector_label",
        "selector_label_int",
        "cutoff_text", "dgp_cutoff_text", "dgp_cutoff_nan", "dgp_cutoff_inf",
        "dgp_cutoff_float32", "p_int64", "level_float32", "common_float32",
        "selector_nu_int64", "power_max_float", "bins_float",
        "power_max_text", "bins_int64", "power_max_int64",
    ],
)
def test_scalar_settings_are_typed(make, name, stored):
    # orders pass operator.index and become int, reals become float; any
    # other value, or a DgpConfig cutoff that is not finite, is an
    # InvalidSetting that names the field
    if stored is None:
        with pytest.raises(InvalidSetting, match=f"^{name} must"):
            make()
        return
    made = make()
    value = getattr(made, name)
    assert type(value) is type(stored) and value == stored
    if isinstance(made, FitSpec):
        result = fit_hte(random_instance(5), made)
        assert json.loads(render_json(result))["estimands"]
    if isinstance(made, Selector):
        result = fit_hte(random_instance(5), FitSpec(bandwidth=Common(0.8)))
        assert contrast(result, made).nu == 1

@pytest.mark.parametrize(
    "bandwidth",
    [
        partial(Common, float("nan")),
        partial(Common, float("inf")),
        partial(Fixed, 0.3, float("inf")),
        partial(Fixed, float("nan"), 0.3),
        partial(Fixed, 0.3, -0.1),
    ],
)
def test_fitspec_rejects_non_finite_bandwidths(bandwidth):
    # the fixed rules check their bandwidths when they are built
    with pytest.raises(NonPositiveBandwidth, match="finite and > 0"):
        bandwidth()


def test_fitspec_bandwidth_resolution():
    assert (Common(0.4).h_left, Common(0.4).h_right) == (0.4, 0.4)
    assert (Fixed(0.3, 0.5).h_left, Fixed(0.3, 0.5).h_right) == (0.3, 0.5)
    assert Common(0.4).mode == Fixed(0.3, 0.5).mode == "fixed"
    assert Select().mode == "two_sided"
    assert Select("one_sided").mode == "one_sided"
