"""Polynomial and interacted regression bases, scaling matrices, extractors.

The interacted basis stacks a main polynomial block of order p with one
order-s polynomial block per heterogeneity covariate:

    r(u, w) = (1, u, ..., u^p,  w_1*(1, u, ..., u^s),  ...,  w_d*(...))'

so its length is 1 + p + d*(1 + s). All downstream index arithmetic
(extractors, bias-channel positions) follows this layout.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import NonPositiveBandwidth, NuOutOfRange

__all__ = [
    "poly_basis",
    "design_rows",
    "column_powers",
    "scaling_diag",
    "extractor_vector",
    "n_params",
]


def n_params(p: int, s: int, d: int) -> int:
    """Length of the interacted basis vector."""
    return 1 + p + d * (1 + s)


def poly_basis(u, q: int):
    """Polynomial basis (1, u, ..., u^q)'.

    Parameters
    ----------
    u : float or array-like
        Evaluation point(s).
    q : int
        Polynomial order, >= 0.

    Returns
    -------
    ndarray
        Shape (q+1,) for scalar input, (len(u), q+1) for vector input.

    Column j is column j-1 times u, a running product: the powers 0 and 1
    are exact and u^j is within j-1 rounding errors of the true power.
    """
    if q < 0:
        raise ValueError("polynomial order must be >= 0")
    arr = np.asarray(u, dtype=float)
    out = np.empty(arr.shape + (q + 1,))
    out[..., 0] = 1.0
    for j in range(1, q + 1):
        np.multiply(out[..., j - 1], arr, out=out[..., j])
    return out


def design_rows(u, w, p: int, s: int) -> np.ndarray:
    """Interacted basis rows for many observations at once.

    Parameters
    ----------
    u : ndarray, shape (m,)
        Scaled running-variable distances.
    w : ndarray, shape (m, d)
        Heterogeneity covariates (d may be 0).
    p, s : int
        Main and interaction polynomial orders.

    Returns
    -------
    ndarray, shape (m, 1 + p + d*(1+s))
    """
    u = np.asarray(u, dtype=float)
    w = np.asarray(w, dtype=float)
    if w.ndim == 1:
        w = w[:, None]
    m, d = w.shape[0], w.shape[1]
    if d == 0:
        return poly_basis(u, p)
    powers = poly_basis(u, max(p, s))
    out = np.empty((m, n_params(p, s, d)))
    out[:, : p + 1] = powers[:, : p + 1]
    # row-wise Kronecker of w (m,d) with the powers (m,s+1), block by block
    for ell in range(d):
        start = 1 + p + ell * (1 + s)
        block = out[:, start : start + s + 1]
        np.multiply(w[:, ell, None], powers[:, : s + 1], out=block)
    return out


def column_powers(p: int, s: int, d: int) -> tuple[int, ...]:
    """Power of u in each column of the interacted basis."""
    return tuple(range(p + 1)) + tuple(range(s + 1)) * d


def scaling_diag(h: float, p: int, s: int, d: int) -> np.ndarray:
    """Diagonal of H(h) = blockdiag(diag(h^0..h^p), I_d x diag(h^0..h^s)).

    Multiplying a coefficient vector in normalized powers u = (x-c)/h by
    H(h)^{-1} converts it to raw (x-c) powers.
    """
    if h <= 0:
        raise NonPositiveBandwidth(f"bandwidth must be > 0, got {h}")
    return h ** np.array(column_powers(p, s, d), dtype=float)


def extractor_vector(nu: int, p: int, s: int, w, lead: float = 1.0) -> np.ndarray:
    """Extractor contracting a coefficient vector to a scalar estimand.

    Entries are nu!*lead at position nu of the main block and nu!*w_l at
    position nu of covariate block l; zero elsewhere. Contracting the
    unscaled coefficients of a side fit yields the nu-th derivative of the
    fitted conditional-mean surface at the cutoff, evaluated at covariate
    value w (with lead=1), or any linear functional (s0, sw) via lead=s0,
    w=sw.

    Parameters
    ----------
    nu : int
        Derivative order, 0 <= nu <= min(p, s).
    p, s : int
        Polynomial orders of the fit being contracted.
    w : array-like, shape (d,)
        Covariate evaluation point (or the covariate part of a selector).
    lead : float
        Weight on the main block (the intercept part of a selector).

    Returns
    -------
    ndarray, shape (1 + p + d*(1+s),)
    """
    if not 0 <= nu <= min(p, s):
        raise NuOutOfRange(f"nu={nu} outside [0, min(p,s)={min(p, s)}]")
    w = np.atleast_1d(np.asarray(w, dtype=float))
    d = w.size
    fact = float(math.factorial(nu))
    vec = np.zeros(n_params(p, s, d))
    vec[nu] = fact * lead
    for ell in range(d):
        vec[1 + p + ell * (1 + s) + nu] = fact * w[ell]
    return vec
