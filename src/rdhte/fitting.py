"""One-sided kernel-weighted least squares on the interacted basis.

Conventions shared by every formula downstream:

    u_i  = (x_i - c) / h
    Gram = (1/(n h)) sum_i 1(side) K(u_i) r(u_i, W_i) r(u_i, W_i)'

with n the TOTAL sample size (both sides), so constants match across the
bias, variance, and bandwidth formulas. Each side fit factors the
square-root-weighted design A = sqrt(K(u_i)/(n h)) r(u_i, W_i) once by
Householder QR, A = QR, keeping R and the k reflectors but never forming Q.
That one factorization gives
  - the coefficients R^-1 (Q' sqrt(w) y), with Q' sqrt(w) y formed by
    applying the k reflectors to the vector in O(m k), so the solve has
    the accuracy of Householder least squares (Bjorck 1996, Numerical
    Methods for Least Squares Problems, sec. 2.4), not of the normal
    equations;
  - the Gram's reciprocal condition number (sigma_min/sigma_max of R,
    squared);
  - the leverages as the squared row norms of A R^-1, which is Q.
The Gram itself is summed directly, never inverted, so the Gram of a
sub-basis on the same window is an exact block of it.

Windows are found without scanning the sample. RdSample.side_view holds
each side's rows sorted by d = |x - c|, built once per sample, so the rows
with d <= h(1 + 1e-9) are a prefix found by one binary search. The kernel
runs on that prefix only, the rows with K(u) > 0 form the window, and they
are put back in ascending row order, so every sum over a window runs in
the same order as a full scan would. A side fit costs O(m k^2) for a
window of m rows and k coefficients, independent of n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .basis import design_rows, scaling_diag
from .errors import NonPositiveBandwidth, SingularGram
from .kernels import kernel_eval
from .model import RdSample

__all__ = [
    "SideFit",
    "SideDesign",
    "side_design",
    "fit_side",
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
    gram : ndarray (k, k)
        Scaled Gram matrix (see module docstring); equal to R'R for the
        thin QR factor R of the square-root-weighted design.
    theta : ndarray (k,)
        Coefficients on raw powers of (x - c) and their covariate
        interactions (the scaling matrix is already applied).
    theta_norm : ndarray (k,)
        Coefficients on normalized powers u = (x-c)/h; theta_norm equals
        scaling_diag(h) * theta.
    residuals : ndarray (m,)
        In-window residuals y_i - r(x_i - c, W_i)' theta.
    leverages : ndarray (m,)
        Diagonal of the weighted projection matrix for in-window rows: the
        squared row norms of A R^-1, the thin QR factor Q.
    eff_n : int
        Number of observations with positive kernel weight.
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
    """

    side: str
    h: float
    gram: np.ndarray
    theta: np.ndarray
    theta_norm: np.ndarray
    residuals: np.ndarray
    leverages: np.ndarray
    eff_n: int
    idx: np.ndarray
    kvals: np.ndarray
    design: np.ndarray
    n_total: int
    p: int
    s: int
    d: int

    @property
    def n_coef(self) -> int:
        return self.theta.shape[0]

    def solve_gram(self, rhs: np.ndarray) -> np.ndarray:
        """Solve gram @ z = rhs (rhs may be a matrix)."""
        return np.linalg.solve(self.gram, rhs)


class SideDesign(NamedTuple):
    """Design rows and kernel values of one side's window.

    rows : ndarray (m, k), interacted basis at (u_i, W_i)
    weights : ndarray (m,), K(u_i)/h (strictly positive)
    idx : ndarray (m,), original row indices, ascending
    u : ndarray (m,), scaled distances (x_i - c)/h
    kvals : ndarray (m,), kernel values K(u_i)
    """

    rows: np.ndarray
    weights: np.ndarray
    idx: np.ndarray
    u: np.ndarray
    kvals: np.ndarray


def _window(sample: RdSample, side: str, h: float, kernel: str):
    """Indices, scaled distances, and kernel values of one side's window."""
    view = sample.side_view(side)
    # |(x - c)/h| <= 1 implies |x - c| <= h, so this prefix holds the window
    stop = np.searchsorted(view.dist, h * (1.0 + 1e-9), side="right")
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
        (rows, weights, idx, u, kvals); see SideDesign.

    A bandwidth that is not finite and > 0 raises NonPositiveBandwidth.
    The window may be empty (zero rows). A boundary observation with
    |x - c| = h is included iff its kernel weight is strictly positive,
    so the triangular kernel excludes it while the uniform includes it.
    """
    if not 0.0 < h < np.inf:
        raise NonPositiveBandwidth(f"bandwidth must be finite and > 0, got {h}")
    idx, u, kv = _window(sample, side, h, kernel)
    rows = design_rows(u, sample.w[idx], p, s)
    return SideDesign(rows, kv / h, idx, u, kv)


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
    sample: RdSample, side: str, h: float, p: int, s: int, kernel: str
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

    Returns
    -------
    SideFit

    The weighted design is factored by one Householder QR (numpy's "raw"
    mode, which skips forming Q). R gives the conditioning check; the
    reflectors, applied to the weighted outcome, give Q' sqrt(w) y for a
    back substitution on R; and the leverages are the squared row norms
    of A R^-1 (one matrix product with a k x k inverse).

    Raises
    ------
    SingularGram
        If the window holds fewer observations than coefficients, or the
        Gram's reciprocal condition number falls below 1e-12 (collinear
        covariates within the window).
    """
    rows, _, idx, _, kv = side_design(sample, side, h, p, s, kernel)
    n = sample.n
    k = rows.shape[1]
    if idx.size < k:
        raise SingularGram(side, 0.0)

    wts = kv / (n * h)
    sqw = np.sqrt(wts)
    # column-major, so the reflectors come back as contiguous rows of hh
    a = np.multiply(rows, sqw[:, None], order="F")
    hh, tau = np.linalg.qr(a, mode="raw")
    r = np.triu(hh[:, :k].T)
    sv = np.linalg.svd(r, compute_uv=False)
    rcond = float(sv[-1] / sv[0]) ** 2 if sv[0] > 0 else 0.0
    if rcond < RCOND_MIN:
        raise SingularGram(side, rcond)

    qty = _apply_qt(hh, tau, sqw * sample.y[idx])[:k]
    # R is upper triangular, so the LU inside solve and inv pivots on its
    # diagonal and reduces to back substitution
    beta = np.linalg.solve(r, qty)
    # the reflectors are spent: A R^-1, which is Q, overwrites them
    q = np.matmul(a, np.linalg.inv(r), out=hh.T)
    theta = beta / scaling_diag(h, p, s, sample.d)
    resid = sample.y[idx] - rows @ beta

    return SideFit(
        side=side,
        h=float(h),
        gram=(rows * wts[:, None]).T @ rows,
        theta=theta,
        theta_norm=beta,
        residuals=resid,
        leverages=np.einsum("ij,ij->i", q, q),
        eff_n=int(idx.size),
        idx=idx,
        kvals=kv,
        design=rows,
        n_total=n,
        p=p,
        s=s,
        d=sample.d,
    )
