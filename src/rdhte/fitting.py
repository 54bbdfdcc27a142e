"""One-sided kernel-weighted least squares on the interacted basis.

Conventions shared by every formula downstream:

    u_i  = (x_i - c) / h
    Gram = (1/(n h)) sum_i 1(side) K(u_i) r(u_i, W_i) r(u_i, W_i)'

with n the TOTAL sample size (both sides), so constants match across the
bias, variance, and bandwidth formulas. Each side fit factors the
square-root-weighted design A = sqrt(K(u_i)/(n h)) r(u_i, W_i) once by
Householder QR, A = QR, keeping R and R^-1 (numpy's raw mode skips
forming Q). That one factorization gives
  - the coefficients R^-1 (Q' sqrt(w) y), with Q' sqrt(w) y formed by
    applying the k reflectors to the vector in O(m k), so they have the
    accuracy of Householder least squares (Bjorck 1996, Numerical Methods
    for Least Squares Problems, sec. 2.4), not of the normal equations;
  - the Gram's reciprocal condition number (sigma_min/sigma_max of R,
    squared);
  - the leverages as the squared row norms of A R^-1, which is Q;
  - every product with Gram^-1 downstream, as R^-1 R^-T (SideFit.solve_gram
    and the plug-in sandwich), so no linear system is solved against a Gram.
The Gram itself is never formed: it is R'R, and any block of it that a
formula needs is a product of columns of R.

A fit may factor its columns in any order. Householder QR factors the
leading columns first, so when the columns of a sub-basis lead, the
leading block of R is the sub-basis fit's own R on the same window, and
nested_fit reads that fit off the factorization with no second QR: the
pilot fit of order (p+1, s+1) at the pilot bandwidth serves the
main-order fit at that bandwidth this way.

Windows are found without scanning the sample. RdSample.side_view holds
each side's rows sorted by d = |x - c|, built once per sample, so the rows
with d <= h WINDOW_SLACK (1 + 1e-9) are a prefix found by one binary
search. The kernel runs on that prefix only, the rows with K(u) > 0 form
the window, and they are put back in ascending row order, so every sum
over a window runs in the same order as a full scan would. A side fit
costs O(m k^2) for a window of m rows and k coefficients, independent of
n.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import NamedTuple, Optional

import numpy as np

from .basis import design_rows, n_params, scaling_diag
from .errors import NonPositiveBandwidth, SingularGram
from .kernels import kernel_eval
from .model import WINDOW_SLACK, RdSample

__all__ = [
    "SideFit",
    "SideDesign",
    "side_design",
    "fit_side",
    "nested_fit",
]

#: Gram reciprocal-condition threshold below which the fit is refused
RCOND_MIN = 1e-12


@dataclass(frozen=True)
class SideFit:
    """Result of a one-sided weighted least squares fit.

    Attributes
    ----------
    side : str
        "left" or "right".
    h : float
        Bandwidth used.
    order : ndarray (k,)
        Order in which the QR factored the basis columns: A[:, order] = QR
        with R upper triangular.
    r : ndarray (k, k)
        R with its columns put back in basis order, so A = Q r and the
        scaled Gram (see module docstring) is r'r; r[:, order] is upper
        triangular.
    r_inv : ndarray (k, k)
        r^-1, which is R^-1 with its rows in basis order. It serves every
        product with the Gram's inverse, Gram^-1 = r_inv r_inv'; it gives
        theta_norm = r_inv qty and the leverages, the squared row norms of
        A r_inv = Q.
    qty : ndarray (k,)
        Q' sqrt(w) y, the weighted outcome rotated by the QR's reflectors;
        its first j entries belong to the first j factored columns.
    theta_norm : ndarray (k,)
        Coefficients on normalized powers u = (x-c)/h.
    residuals : ndarray (m,)
        In-window residuals y_i - r(x_i - c, W_i)' theta.
    leverages : ndarray (m,)
        Diagonal of the weighted projection matrix for in-window rows: the
        squared row norms of A r_inv, the thin QR factor Q.
    idx : ndarray (m,)
        Row indices of in-window observations in the original sample.
    kvals : ndarray (m,)
        Kernel values K(u_i) (without the 1/h factor).
    design : ndarray (m, k)
        Basis rows r(u_i, W_i) for in-window observations.
    n_total : int
        Full sample size entering the 1/(n h) normalizations.
    p, s, d : int
        Basis layout parameters.

    theta, eff_n and n_coef are derived from the fields above, so a copy
    made by dataclasses.replace keeps them in step.
    """

    side: str
    h: float
    order: np.ndarray
    r: np.ndarray
    r_inv: np.ndarray
    qty: np.ndarray
    theta_norm: np.ndarray
    residuals: np.ndarray
    leverages: np.ndarray
    idx: np.ndarray
    kvals: np.ndarray
    design: np.ndarray
    n_total: int
    p: int
    s: int
    d: int

    @cached_property
    def theta(self) -> np.ndarray:
        """Coefficients on raw powers of (x - c) and their covariate
        interactions: theta_norm / scaling_diag(h). A power of a tiny or
        huge h may leave the float range, so an entry may be inf or nan;
        the selector's and the forms' finiteness checks raise the typed
        error."""
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            return self.theta_norm / scaling_diag(
                self.h, self.p, self.s, self.d
            )

    @property
    def eff_n(self) -> int:
        """Number of observations with positive kernel weight."""
        return self.idx.size

    @property
    def n_coef(self) -> int:
        return self.qty.size

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Gram^-1 rhs (rhs may be a matrix), as r_inv r_inv' rhs."""
        return self.r_inv @ (self.r_inv.T @ rhs)


class SideDesign(NamedTuple):
    """Design rows and kernel values of one side's window.

    rows : ndarray (m, k), interacted basis at (u_i, W_i)
    kvals : ndarray (m,), kernel values K(u_i) (strictly positive)
    idx : ndarray (m,), original row indices, ascending
    """

    rows: np.ndarray
    kvals: np.ndarray
    idx: np.ndarray


def _window(sample: RdSample, side: str, h: float, kernel: str):
    """Indices, scaled distances, and kernel values of one side's window."""
    view = sample.side_view(side)
    # |(x - c)/h| <= 1 implies |x - c| <= h, so this prefix holds the window
    stop = np.searchsorted(view.dist, h * WINDOW_SLACK, side="right")
    rows = np.sort(view.order[:stop])
    u = (sample.x[rows] - sample.cutoff) / h
    kv = kernel_eval(u, kernel)
    keep = kv > 0.0
    return rows[keep], u[keep], kv[keep]


def side_design(
    sample: RdSample, side: str, h: float, p: int, s: int, kernel: str
) -> SideDesign:
    """Design rows and kernel values for one side's window.

    Returns
    -------
    SideDesign
        (rows, kvals, idx); see SideDesign.

    A bandwidth that is not finite and > 0 raises NonPositiveBandwidth.
    The window may be empty (zero rows). A boundary observation with
    |x - c| = h is included iff its kernel weight is strictly positive,
    so the triangular kernel excludes it while the uniform includes it.
    """
    if not 0.0 < h < np.inf:
        raise NonPositiveBandwidth(f"bandwidth must be finite and > 0, got {h}")
    idx, u, kv = _window(sample, side, h, kernel)
    rows = design_rows(u, sample.w[idx], p, s)
    return SideDesign(rows, kv, idx)


def _apply_qt(hh: np.ndarray, tau: np.ndarray, b: np.ndarray):
    """Overwrite b with Q' b for the QR from numpy.linalg.qr(mode="raw").

    Row j of hh holds reflector j's vector v_j below position j (v_j[j] = 1
    implied), and Q' = H_{k-1} ... H_0 with H_j = I - tau_j v_j v_j'.
    """
    for j in range(tau.size):
        v = hh[j, j + 1:]
        scale = tau[j] * (b[j] + v @ b[j + 1:])
        b[j] -= scale
        b[j + 1:] -= scale * v
    return b


def fit_side(
    sample: RdSample,
    side: str,
    h: float,
    p: int,
    s: int,
    kernel: str,
    order: Optional[np.ndarray] = None,
) -> SideFit:
    """Fit the one-sided interacted local polynomial by weighted least squares.

    Parameters
    ----------
    sample : RdSample
    side : {"left", "right"}
    h : float
        Bandwidth (> 0).
    p, s : int
        Main and interaction polynomial orders.
    kernel : str
        Kernel name.
    order : ndarray of int, optional
        A permutation of the basis columns: the order in which the QR
        factors them (default: basis order). Putting a sub-basis first lets
        nested_fit read that sub-basis fit off this one.

    Returns
    -------
    SideFit

    The weighted design is factored by one Householder QR (numpy's "raw"
    mode, which skips forming Q). R gives the conditioning check and its
    triangular inverse R^-1; the reflectors, applied to the weighted
    outcome, give Q' sqrt(w) y, which R^-1 carries to the coefficients; and
    the leverages are the squared row norms of A R^-1 (one matrix product
    with a k x k inverse).

    Raises
    ------
    SingularGram
        If the window holds fewer observations than coefficients, or the
        Gram's reciprocal condition number falls below 1e-12 (collinear
        covariates within the window).
    """
    rows, kv, idx = side_design(sample, side, h, p, s, kernel)
    n = sample.n
    k = rows.shape[1]
    if idx.size < k:
        raise SingularGram(side, 0.0)

    order = np.arange(k) if order is None else order
    # gathered straight into a column-major a, so the reflectors come back
    # as contiguous rows of hh, with no m x k temporary
    a = np.take(rows, order, axis=1, out=np.empty_like(rows, order="F"),
                mode="clip")
    sqw = np.sqrt(kv / (n * h))
    a *= sqw[:, None]
    hh, tau = np.linalg.qr(a, mode="raw")
    r = np.triu(hh[:, :k].T)
    sv = np.linalg.svd(r, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) ** 2 if sv[0] > 0 else 0.0
    if rcond < RCOND_MIN:
        raise SingularGram(side, rcond)

    y = sample.y[idx]
    # a copy, so the fit does not hold the m-vector it was rotated in
    qty = _apply_qt(hh, tau, sqw * y)[:k].copy()
    # R is upper triangular, so the LU inside inv pivots on its diagonal
    # and reduces to back substitution
    r_inv = np.linalg.inv(r)
    # the reflectors are spent: A R^-1, which is Q, overwrites them
    q = np.matmul(a, r_inv, out=hh.T)
    # back to basis order: the columns of R, the rows of R^-1
    back = np.argsort(order)
    r, r_inv = r[:, back], r_inv[back]
    beta = r_inv @ qty
    # the gathered outcome becomes the residuals in place
    y -= rows @ beta

    return SideFit(
        side=side,
        h=float(h),
        order=order,
        r=r,
        r_inv=r_inv,
        qty=qty,
        theta_norm=beta,
        residuals=y,
        leverages=np.einsum("ij,ij->i", q, q),
        idx=idx,
        kvals=kv,
        design=rows,
        n_total=n,
        p=p,
        s=s,
        d=sample.d,
    )


def nested_fit(sample: RdSample, fit: SideFit, p: int, s: int) -> SideFit:
    """The order-(p, s) fit on fit's window, read off fit's factorization.

    fit must have factored the order-(p, s) basis columns first: fit.order
    starts with their positions in fit's basis. Householder QR factors the
    leading columns on their own, so the leading k x k block of fit's R is
    the order-(p, s) design's R, and the first k entries of fit.qty are its
    Q' sqrt(w) y. The result equals fit_side(sample, fit.side, fit.h, p, s,
    kernel) up to rounding, on the same window, with no QR, window search
    or basis evaluation of its own.
    """
    k = n_params(p, s, sample.d)
    cols = fit.order[:k]
    r_inv = fit.r_inv[cols, :k]
    qty = fit.qty[:k]
    beta = r_inv @ qty
    rows = fit.design[:, cols]
    sqw = np.sqrt(fit.kvals / (fit.n_total * fit.h))
    q = (rows * sqw[:, None]) @ r_inv
    return replace(
        fit,
        order=np.arange(k),
        r=fit.r[:k, cols],
        r_inv=r_inv,
        qty=qty,
        theta_norm=beta,
        residuals=sample.y[fit.idx] - rows @ beta,
        leverages=np.einsum("ij,ij->i", q, q),
        design=rows,
        p=p,
        s=s,
    )
