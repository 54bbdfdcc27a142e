"""Sandwich variance estimation and robust bias-corrected inference.

Meat matrices weight squared residuals by the SQUARED kernel value,

    V = (1/(n h)) sum_i w_i K(u_i)^2 r_i r_i' u_hat_i^2,

matching the first-order variance of the kernel-weighted score (the score
itself carries one kernel factor, so its variance carries two) and making
the all-singleton cluster meat coincide with the HC0 meat exactly.

The bias-corrected variance writes the corrected contrast as one linear
functional of the outcome vector per side (main-fit influence minus the
bandwidth-power-scaled pilot-coefficient influence composed through the
bias-constant formula) and applies the selected weighting to the combined
influence, with residuals and leverages taken from the higher-order pilot
fit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.special import ndtr, ndtri

from .bandwidth import BiasConstants
from .basis import design_rows, scaling_diag
from .errors import LeverageOne, TooFewClusters
from .fitting import SideFit
from .model import RdSample

__all__ = [
    "VarianceEstimate",
    "hc_weights",
    "meat_matrix",
    "cluster_meat",
    "coef_variance",
    "rbc_point",
    "rbc_variance",
    "ci_pvalue",
]

#: numerical reading of "leverage equals one" (exact-fit observation)
LEVERAGE_TOL = 1e-10


def hc_weights(kind: str, fit: SideFit) -> np.ndarray:
    """Per-observation heteroskedasticity weights for one side's window.

    HC0: 1. HC1: the scalar N/(N - 2 tr(Q) + tr(QQ)) with N the effective
    (kernel-positive) count and Q the weighted projection matrix; Q is
    idempotent with trace k, the number of coefficients, so this is
    N/(N - k) and no N x N matrix is formed. HC2: 1/(1 - L_i). HC3:
    1/(1 - L_i)^2.

    Raises
    ------
    LeverageOne
        For HC2/HC3 when some leverage reaches 1 (exact-fit observation),
        and for HC1 when the window holds no more observations than
        coefficients (every leverage is then 1).
    """
    m = fit.eff_n
    if kind == "hc0":
        return np.ones(m)
    if kind == "hc1":
        if m <= fit.n_coef:
            raise LeverageOne(
                f"{fit.side} side has no residual degrees of freedom; "
                "HC1 undefined"
            )
        return np.full(m, m / (m - fit.n_coef))
    if kind in ("hc2", "hc3"):
        lev = fit.leverages
        if np.any(lev >= 1.0 - LEVERAGE_TOL):
            raise LeverageOne(
                f"{fit.side} side has leverage at 1; HC2/HC3 undefined"
            )
        base = 1.0 / (1.0 - lev)
        return base if kind == "hc2" else base**2
    raise ValueError(f"unknown HC kind {kind!r}")


def meat_matrix(fit: SideFit, weights: np.ndarray) -> np.ndarray:
    """Heteroskedasticity-weighted meat matrix for one side."""
    scale = weights * fit.kvals**2 * fit.residuals**2
    return (fit.design * scale[:, None]).T @ fit.design / (
        fit.n_total * fit.h
    )


def cluster_meat(fit: SideFit, cluster: Optional[np.ndarray]):
    """Cluster-robust meat matrix for one side.

    Sums kernel-weighted score cross-products within clusters:

        V = (1/(G h)) sum_g (sum_{i in g} K_i r_i u_hat_i)
                            (sum_{i in g} K_i r_i u_hat_i)'

    with G the number of distinct clusters in the full sample. The
    small-sample degrees-of-freedom factor is applied later, at
    contraction.

    Returns
    -------
    (meat, G)

    Raises
    ------
    TooFewClusters
        If cluster labels are missing or the side's window holds
        observations from fewer than 2 distinct clusters.
    """
    scores = fit.design * (fit.kvals * fit.residuals)[:, None]
    sums = _cluster_sums(fit.side, cluster, fit.idx, scores)
    g_total = int(np.unique(cluster).size)
    meat = sums.T @ sums / (g_total * fit.h)
    return meat, g_total


def _cluster_sums(
    side: str,
    cluster: Optional[np.ndarray],
    idx: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Sums of values over the clusters of the window rows idx.

    Clusters are ordered by first appearance in the window, which depends
    only on the row order and not on how the labels were coded, so integer
    and text cluster ids give bit-identical sums.

    Raises
    ------
    TooFewClusters
        If labels are missing or the window spans fewer than 2 clusters.
    """
    if cluster is None:
        raise TooFewClusters("cluster variance requested without labels")
    uniq, first, codes = np.unique(
        cluster[idx], return_index=True, return_inverse=True
    )
    if uniq.size < 2:
        raise TooFewClusters(
            f"{side} side window has {uniq.size} cluster(s); need >= 2"
        )
    rank = np.empty(uniq.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(uniq.size)
    sums = np.zeros((uniq.size,) + values.shape[1:])
    np.add.at(sums, rank[codes], values)
    return sums


def _df_factor(fit: SideFit) -> float:
    # (G-1)n/((G-1)(n-p-1-d)) as stated; the cluster count cancels
    return fit.n_total / (fit.n_total - fit.p - 1 - fit.d)


@dataclass(frozen=True)
class VarianceEstimate:
    """Variance of a selector contrast of the two side fits."""

    kind: str
    contraction_left: float
    contraction_right: float
    variance: float
    se: float
    n_clusters: Optional[int] = None


def _side_contraction(
    fit: SideFit,
    extractor: np.ndarray,
    vce: str,
    cluster: Optional[np.ndarray],
):
    if vce == "cluster":
        meat, g = cluster_meat(fit, cluster)
        factor = _df_factor(fit)
    else:
        meat = meat_matrix(fit, hc_weights(vce, fit))
        g, factor = None, 1.0
    bread_vec = fit.solve_gram(extractor)
    return factor * float(bread_vec @ meat @ bread_vec), g


def coef_variance(
    left: SideFit,
    right: SideFit,
    extractor: np.ndarray,
    nu: int,
    vce: str,
    cluster: Optional[np.ndarray] = None,
) -> VarianceEstimate:
    """Plug-in sandwich variance of extractor'(theta_right - theta_left).

    The two sides use disjoint samples, so the variance is the sum of the
    one-sided contractions, each scaled by 1/(n h^(2 nu + 1)).
    """
    c_left, g_l = _side_contraction(left, extractor, vce, cluster)
    c_right, g_r = _side_contraction(right, extractor, vce, cluster)
    var = c_left / (
        left.n_total * left.h ** (2 * nu + 1)
    ) + c_right / (right.n_total * right.h ** (2 * nu + 1))
    g = g_l if g_l is not None else g_r
    return VarianceEstimate(
        kind=vce,
        contraction_left=c_left,
        contraction_right=c_right,
        variance=var,
        se=float(np.sqrt(max(var, 0.0))),
        n_clusters=g,
    )


def rbc_point(
    point: float,
    bias_contrast: float,
    h: float,
    nu: int = 0,
    p: int = 1,
    s: int = 1,
) -> float:
    """Bias-corrected point estimate.

    Subtracts h^(1 + min(p,s) - nu) times the bias contraction; at the
    default level-effect local-linear orders this is the familiar
    point - h^2 * bias.
    """
    return point - h ** (1 + min(p, s) - nu) * bias_contrast


def _influence_pieces(
    sample: RdSample,
    fit: SideFit,
    pilot: SideFit,
    bias: BiasConstants,
    extractor: np.ndarray,
    nu: int,
):
    """Combined influence weights and pilot residuals for one side.

    Returns (rows, omega, resid, lev) over the union of the main and pilot
    windows: omega are the weights of the linear functional
    extractor'theta_hat - h^(1+q-nu) * bias-contraction applied to Y,
    resid are residuals from the pilot coefficient surface, lev the pilot
    leverages (zero outside the pilot window).
    """
    p, s, d = fit.p, fit.s, fit.d
    q = min(p, s)
    n, h, b = fit.n_total, fit.h, pilot.h
    union = np.union1d(fit.idx, pilot.idx)

    omega = np.zeros(union.size)
    # main-fit influence of extractor'theta
    g_main = fit.solve_gram(extractor / scaling_diag(h, p, s, d))
    a_vals = (fit.design @ g_main) * fit.kvals / (n * h)
    main_pos = np.searchsorted(union, fit.idx)
    omega[main_pos] += a_vals

    # pilot-coefficient influence scaled through the bias channels
    g0, g1 = bias.channel_weights(extractor)
    k_pilot = pilot.n_coef
    rhs = np.zeros((k_pilot, 1 + d))
    rhs[p + 1, 0] = g0 * b ** (-(p + 1))
    for ell in range(d):
        rhs[(p + 2) + ell * (s + 2) + (s + 1), 1 + ell] = (
            g1[ell] * b ** (-(s + 1))
        )
    g_pilot = pilot.solve_gram(rhs)
    c_vals = (pilot.design @ g_pilot) * (pilot.kvals / (n * b))[:, None]
    pilot_pos = np.searchsorted(union, pilot.idx)
    omega[pilot_pos] -= h ** (1 + q - nu) * c_vals.sum(axis=1)

    # pilot-surface residuals for every union row
    u_b = (sample.x[union] - sample.cutoff) / b
    rows_b = design_rows(u_b, sample.w[union], p + 1, s + 1)
    resid = sample.y[union] - rows_b @ pilot.theta_norm

    lev = np.zeros(union.size)
    lev[pilot_pos] = pilot.leverages
    return union, omega, resid, lev


def _pilot_hc_weights(kind: str, pilot: SideFit, lev: np.ndarray) -> np.ndarray:
    if kind == "hc0":
        return np.ones_like(lev)
    if kind == "hc1":
        return np.full_like(lev, float(hc_weights("hc1", pilot)[0]))
    if np.any(lev >= 1.0 - LEVERAGE_TOL):
        raise LeverageOne(
            f"{pilot.side} side pilot fit has leverage at 1; "
            "HC2/HC3 undefined"
        )
    base = 1.0 / (1.0 - lev)
    return base if kind == "hc2" else base**2


def rbc_variance(
    sample: RdSample,
    left: SideFit,
    right: SideFit,
    pilot_left: SideFit,
    pilot_right: SideFit,
    bias_left: BiasConstants,
    bias_right: BiasConstants,
    extractor: np.ndarray,
    nu: int,
    vce: str,
    cluster: Optional[np.ndarray] = None,
) -> float:
    """Variance of the bias-corrected contrast.

    Both sides' corrected functionals are represented by combined influence
    weights; the selected weighting is applied with pilot-fit residuals.
    Cluster aggregation stays within sides (the two windows are disjoint)
    and carries the same degrees-of-freedom factor as the uncorrected
    cluster variance.
    """
    total = 0.0
    for fit, pilot, bias in (
        (left, pilot_left, bias_left),
        (right, pilot_right, bias_right),
    ):
        union, omega, resid, lev = _influence_pieces(
            sample, fit, pilot, bias, extractor, nu
        )
        if vce == "cluster":
            sums = _cluster_sums(fit.side, cluster, union, omega * resid)
            total += _df_factor(fit) * float(np.sum(sums**2))
        else:
            w = _pilot_hc_weights(vce, pilot, lev)
            total += float(np.sum(w * omega**2 * resid**2))
    return total


def ci_pvalue(rbc_point_val: float, rbc_se: float, level: float):
    """Gaussian confidence interval, z statistic, and two-sided p-value.

    A zero standard error yields a point-mass interval and the convention
    p = 0 when the point is nonzero, p = 1 otherwise; the zero_se flag in
    the returned tuple marks this case.

    Returns
    -------
    (ci_low, ci_high, z, p_value, zero_se)
    """
    if rbc_se < 0:
        raise ValueError("standard error must be >= 0")
    if rbc_se == 0.0:
        p_val = 0.0 if rbc_point_val != 0.0 else 1.0
        return rbc_point_val, rbc_point_val, float("inf") if rbc_point_val else 0.0, p_val, True
    crit = float(ndtri(1.0 - (1.0 - level) / 2.0))
    z = rbc_point_val / rbc_se
    p_val = 2.0 * float(ndtr(-abs(z)))
    return (
        rbc_point_val - crit * rbc_se,
        rbc_point_val + crit * rbc_se,
        float(z),
        p_val,
        False,
    )
