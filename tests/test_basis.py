from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import interacted_basis

from rdhte.basis import (
    design_rows,
    extractor_vector,
    n_params,
    poly_basis,
    scaling_diag,
)
from rdhte.errors import NonPositiveBandwidth, NuOutOfRange


def test_poly_basis_examples():
    assert poly_basis(2.0, 2).tolist() == [1.0, 2.0, 4.0]
    assert poly_basis(0.0, 3).tolist() == [1.0, 0.0, 0.0, 0.0]
    assert poly_basis(-1.0, 1).tolist() == [1.0, -1.0]


def test_poly_basis_running_products_match_powers():
    rng = np.random.default_rng(12)
    u = np.concatenate(
        [rng.uniform(-1, 1, 20_000), rng.normal(0, 100, 20_000), [0.0, -0.0]]
    )
    got = poly_basis(u, 4)
    powers = u[:, None] ** np.arange(5, dtype=float)
    np.testing.assert_array_equal(got[:, :2], powers[:, :2])
    ulps = np.abs(got - powers) / np.spacing(np.abs(powers))
    assert ulps.max() <= 2.0
    np.testing.assert_array_equal(poly_basis(u[7], 4), got[7])


def test_interacted_basis_examples():
    assert interacted_basis(1.0, [3.0], 1, 1).tolist() == [1, 1, 3, 3]
    got = interacted_basis(0.0, [2.0, 5.0], 1, 1)
    assert got.tolist() == [1, 0, 2, 0, 5, 0]
    assert interacted_basis(2.0, [1.0], 2, 0).tolist() == [1, 2, 4, 1]


def test_interacted_basis_zero_w_kills_interactions():
    vec = interacted_basis(0.7, np.zeros(3), 2, 1)
    assert np.all(vec[3:] == 0.0)


def test_design_rows_match_single_rows():
    rng = np.random.default_rng(0)
    u = rng.normal(size=9)
    w = rng.normal(size=(9, 2))
    rows = design_rows(u, w, 2, 1)
    assert rows.shape == (9, n_params(2, 1, 2))
    for i in range(9):
        np.testing.assert_allclose(rows[i], interacted_basis(u[i], w[i], 2, 1))


def test_scaling_matrix_examples():
    np.testing.assert_array_equal(
        np.diag(scaling_diag(1.0, 2, 1, 3)), np.eye(n_params(2, 1, 3))
    )
    np.testing.assert_array_equal(
        scaling_diag(2.0, 1, 1, 1), [1, 2, 1, 2]
    )
    np.testing.assert_array_equal(
        scaling_diag(0.5, 1, 0, 2), [1, 0.5, 1, 1]
    )


def test_scaling_matrix_inverse_pair():
    fwd = scaling_diag(3.0, 2, 1, 2)
    back = scaling_diag(1 / 3.0, 2, 1, 2)
    np.testing.assert_allclose(fwd * back, 1.0, rtol=1e-15)


def test_scaling_rejects_nonpositive_h():
    with pytest.raises(NonPositiveBandwidth):
        scaling_diag(0.0, 1, 1, 1)
    with pytest.raises(NonPositiveBandwidth):
        scaling_diag(-1.0, 1, 1, 1)


def test_extractor_examples():
    assert extractor_vector(0, 1, 1, np.array([1.0])).tolist() == [1, 0, 1, 0]
    got = extractor_vector(0, 1, 1, np.array([0.0, 0.0]))
    assert got.tolist() == [1, 0, 0, 0, 0, 0]
    got = extractor_vector(1, 1, 1, np.array([0.3]))
    assert got.tolist() == [0, 1, 0, 0.3]


def test_extractor_factorial_scaling():
    # order-2 entries carry 2! so the contraction undoes the 1/2! in the
    # fitted quadratic coefficient
    got = extractor_vector(2, 2, 2, np.array([2.0]))
    assert got.tolist() == [0, 0, 2, 0, 0, 4]


def test_extractor_nu_out_of_range():
    with pytest.raises(NuOutOfRange):
        extractor_vector(2, 1, 1, np.array([1.0]))
    with pytest.raises(NuOutOfRange):
        extractor_vector(-1, 1, 1, np.array([1.0]))


@given(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=3),
)
def test_extractor_positions(p, s, d):
    nu_max = min(p, s)
    w = np.arange(1.0, d + 1.0)
    for nu in range(nu_max + 1):
        vec = extractor_vector(nu, p, s, w)
        assert vec.shape == (n_params(p, s, d),)
        nonzero = np.nonzero(vec)[0].tolist()
        expect = [nu] + [1 + p + ell * (1 + s) + nu for ell in range(d)]
        assert nonzero == expect
