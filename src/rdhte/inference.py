"""Sandwich variance estimation and robust bias-corrected inference.

Meat matrices weight squared residuals by the SQUARED kernel value,

    V = (1/(n h)) sum_i w_i K(u_i)^2 r_i r_i' u_hat_i^2,

matching the first-order variance of the kernel-weighted score (the score
itself carries one kernel factor, so its variance carries two). The
cluster meat sums the scores s_i = K(u_i) r_i u_hat_i within each cluster
g first, V = (1/(n h)) sum_g s_g s_g', so singleton clusters give the HC0
meat; its sandwich carries the degrees-of-freedom factor n/(n - p - 1 - d).

Every estimand is a linear functional e'theta of the side fits, and each
side's estimate of it, plain or bias-corrected, is linear in the
outcomes: sum_i omega_i y_i with weights omega_i that are linear in e.
A sandwich variance sums the squares of omega_i u_hat_i (of their
within-cluster sums for cluster variance), so e enters it only through a
quadratic form e' Sigma e whose matrix does not depend on e. Each side's
variances are therefore two small matrices, built once per fit:

    plug-in  P = f Gram^-1 V Gram^-1    (k x k)
    RBC      R = A' D A                 (2k x 2k)

with f the cluster degrees-of-freedom factor (1 for HC kinds). Row i of A
holds observation i's influence on theta and, through the higher-order
pilot fit's top coefficients, on the bias contraction; D weights squared
pilot-surface residuals by the selected HC weights of the pilot
leverages (cluster: the rows of A are summed within clusters instead).
A coefficient of power j scales as h^-j and its bias correction as
c_j = h^(1+q-j) whatever order nu an extractor reads, so side_forms
states both forms in raw-coefficient units, one k x k pair per side that
serves every nu, and with them the side's share of the jump and the bias.
A result's ContrastForms are the sum of its two sides' shares, made once
per fit; each record is then four dot products, O(k^2) whatever the
sample size.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, fields
from statistics import NormalDist
from typing import TYPE_CHECKING, Optional

import numpy as np

from .basis import column_powers, design_rows, scaling_diag
from .errors import FormsDegenerate, LeverageOne, TooFewClusters
from .fitting import SideFit
from .model import RdSample

if TYPE_CHECKING:
    from .bandwidth import BiasConstants

__all__ = [
    "SideStage",
    "ContrastForms",
    "VarianceEstimate",
    "hc_weights",
    "meat_matrix",
    "cluster_meat",
    "plugin_form",
    "rbc_form",
    "side_forms",
    "coef_variance",
    "rbc_variance",
    "ci_pvalue",
]

#: numerical reading of "leverage equals one" (exact-fit observation)
LEVERAGE_TOL = 1e-10

_STD_NORMAL = NormalDist()


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
    return _leverage_weights(kind, fit, fit.leverages, f"{fit.side} side")


def _leverage_weights(
    kind: str, fit: SideFit, lev: np.ndarray, name: str
) -> np.ndarray:
    """The HC weights of hc_weights at leverages lev of fit's projection.

    lev may cover rows outside fit's window, with leverage 0 there; name
    describes the fit in error messages.
    """
    if kind == "hc0":
        return np.ones_like(lev)
    if kind == "hc1":
        m, k = fit.eff_n, fit.n_coef
        if m <= k:
            raise LeverageOne(
                f"{name} has no residual degrees of freedom; HC1 undefined"
            )
        return np.full_like(lev, m / (m - k))
    if kind in ("hc2", "hc3"):
        if np.any(lev >= 1.0 - LEVERAGE_TOL):
            raise LeverageOne(f"{name} has leverage at 1; HC2/HC3 undefined")
        base = 1.0 / (1.0 - lev)
        return base if kind == "hc2" else base**2
    raise ValueError(f"unknown HC kind {kind!r}")


def meat_matrix(fit: SideFit, weights: np.ndarray) -> np.ndarray:
    """Heteroskedasticity-weighted meat matrix for one side."""
    scale = weights * fit.kvals**2 * fit.residuals**2
    return (fit.design * scale[:, None]).T @ fit.design / (
        fit.n_total * fit.h
    )


def cluster_meat(fit: SideFit, cluster: Optional[np.ndarray]) -> np.ndarray:
    """Cluster-robust meat matrix for one side.

    The HC0 meat of meat_matrix with the kernel-weighted scores summed
    within clusters:

        V = (1/(n h)) sum_g (sum_{i in g} K_i r_i u_hat_i)
                            (sum_{i in g} K_i r_i u_hat_i)'

    with n the full sample size. The degrees-of-freedom factor
    n/(n - p - 1 - d) is applied at contraction (plugin_form).

    Raises
    ------
    TooFewClusters
        If cluster labels are missing or the side's window holds
        observations from fewer than 2 distinct clusters.
    """
    scores = fit.design * (fit.kvals * fit.residuals)[:, None]
    sums = _cluster_sums(fit.side, cluster, fit.idx, scores)
    return sums.T @ sums / (fit.n_total * fit.h)


def _cluster_sums(
    side: str,
    cluster: Optional[np.ndarray],
    idx: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Sums of values (m or m x k) over the clusters of the window rows
    idx, one row per cluster; cluster holds non-negative integer codes,
    as RdSample.cluster does.

    Clusters are ordered by first appearance in the window, which depends
    only on the row order and not on how the labels were coded, so integer
    and text cluster ids give bit-identical sums. The ranking takes
    O(m + G) for the largest code G in the window and sorts nothing. All
    columns are summed by one np.bincount over (cluster, column) bins; it
    adds each bin's values in row order, as np.add.at does, so the sums
    are bit-identical to np.add.at's.

    Raises
    ------
    TooFewClusters
        If labels are missing or the window spans fewer than 2 clusters.
    """
    if cluster is None:
        raise TooFewClusters("cluster variance requested without labels")
    codes = cluster[idx]
    m = codes.size
    size = int(codes.max()) + 1 if m else 0
    # each code's first row: np.put writes in index order, so of a code's
    # rows, written last to first, the first one stays
    first = np.full(size, m, dtype=np.intp)
    np.put(first, codes[::-1], np.arange(m - 1, -1, -1))
    is_first = np.zeros(m, dtype=bool)
    is_first[first[first < m]] = True
    firsts = np.flatnonzero(is_first)
    groups = firsts.size
    if groups < 2:
        raise TooFewClusters(
            f"{side} side window has {groups} cluster(s); need >= 2"
        )
    rank = np.empty(size, dtype=np.intp)
    rank[codes[firsts]] = np.arange(groups)
    flat = values.reshape(m, -1)
    k = flat.shape[1]
    bins = (rank[codes] * k)[:, None] + np.arange(k)
    sums = np.bincount(bins.ravel(), weights=flat.ravel(),
                       minlength=groups * k)
    return sums.reshape((groups,) + values.shape[1:])


def _df_factor(fit: SideFit) -> float:
    """Cluster degrees-of-freedom factor n/(n - p - 1 - d)."""
    return fit.n_total / (fit.n_total - fit.p - 1 - fit.d)


def plugin_form(
    fit: SideFit, vce: str, cluster: Optional[np.ndarray]
) -> np.ndarray:
    """Plug-in quadratic form of one side.

    Returns the k x k matrix P = f Gram^-1 meat Gram^-1: cluster_meat and
    the degrees-of-freedom factor f for vce "cluster", else the HC meat and
    f = 1. Gram^-1 is applied as fit.r_inv fit.r_inv', the fit's own
    factorization. The side's plug-in contraction of an extractor e is
    e' P e.
    """
    if vce == "cluster":
        meat, factor = cluster_meat(fit, cluster), _df_factor(fit)
    else:
        meat, factor = meat_matrix(fit, hc_weights(vce, fit)), 1.0
    return factor * fit.solve_gram(fit.solve_gram(meat).T).T


def rbc_form(
    sample: RdSample,
    fit: SideFit,
    bias: BiasConstants,
    vce: str,
) -> np.ndarray:
    """Bias-corrected quadratic form of one side.

    Returns the 2k x 2k matrix R = A' D A. Row i of A holds, for the i-th
    observation of the larger of the main and pilot windows, the
    main-fit influence on theta (first k columns) and the influence on the
    bias contraction through the top coefficients of the pilot fit
    bias.pilot_fit (last k columns); D holds the squared pilot-surface
    residuals times the HC weights of the pilot leverages. For vce
    "cluster" the rows of A, scaled by the residuals, are summed within
    sample.cluster before the product and R carries the degrees-of-freedom
    factor. The side's bias-corrected variance of an extractor e is
    e~' R e~ with e~ = [e; -c o e] and c_j = h^(1+q-j) for the power j of
    column j.

    Raises
    ------
    LeverageOne, TooFewClusters
        As the pilot-fit weighting or the cluster aggregation require.
    ValueError
        If the main and pilot windows do not nest.
    """
    p, s, d, k = fit.p, fit.s, fit.d, fit.n_coef
    pilot = bias.pilot_fit
    n, h, b = fit.n_total, fit.h, pilot.h

    # |x - c|/h is monotone in h and every kernel's support is a threshold
    # on it, so the smaller window is a subset of the larger one
    pilot_larger = pilot.idx.size >= fit.idx.size
    outer, inner = (pilot, fit) if pilot_larger else (fit, pilot)
    rows = outer.idx
    pos = np.searchsorted(rows, inner.idx)
    if not np.array_equal(np.take(rows, pos, mode="clip"), inner.idx):
        raise ValueError("main and pilot windows do not nest")

    # pilot-surface residuals and pilot leverages on every row
    if outer is pilot:
        resid, lev = pilot.residuals, pilot.leverages
    else:
        u_b = (sample.x[rows] - sample.cutoff) / b
        rows_b = design_rows(u_b, sample.w[rows], pilot.p, pilot.s)
        resid = sample.y[rows] - rows_b @ pilot.theta_norm
        del rows_b  # m x k_pilot; not needed while A is built
        lev = np.zeros(rows.size)
        lev[pos] = pilot.leverages

    # a design row's influence on a fit's theta = S^-1 theta_norm is
    # row' Gram^-1 S^-1; the bias reads the pilot's theta through the routes
    main_route = fit.solve_gram(np.diag(1.0 / scaling_diag(h, p, s, d)))
    pilot_unscale = 1.0 / scaling_diag(b, pilot.p, pilot.s, d)[:, None]
    pilot_route = pilot.solve_gram(pilot_unscale * bias.routes)

    a = np.zeros((rows.size, 2 * k))
    for cols, src, route, bw in (
        (a[:, :k], fit, main_route, h),
        (a[:, k:], pilot, pilot_route, b),
    ):
        weight = (src.kvals / (n * bw))[:, None]
        if src is outer:
            np.matmul(src.design, route, out=cols)
            cols *= weight
        else:
            cols[pos] = (src.design @ route) * weight

    if vce == "cluster":
        a *= resid[:, None]
        sums = _cluster_sums(fit.side, sample.cluster, rows, a)
        return _df_factor(fit) * (sums.T @ sums)
    name = f"{pilot.side} side pilot fit"
    weights = _leverage_weights(vce, pilot, lev, name)
    a *= (np.sqrt(weights) * resid)[:, None]
    return a.T @ a


def _rbc_block_sum(rbc: np.ndarray, c: np.ndarray) -> np.ndarray:
    """R11 - R12 C - C R21 + C R22 C with C = diag(c): the k x k form whose
    contraction e' (.) e is that of [e; -c o e] against the 2k x 2k form R.
    The cross term, as written, is exactly c_i (R12 + R21) where c_i = c_j."""
    k = rbc.shape[0] // 2
    r12, ci, cj = rbc[:k, k:], c[:, None], c[None, :]
    cross = ci * (r12 + rbc[k:, :k]) + (cj - ci) * r12
    return rbc[:k, :k] - cross + ci * cj * rbc[k:, k:]


def _bias_scales(fit: SideFit) -> np.ndarray:
    """c_j = h^(1+q-j) for the power j of each basis column of fit."""
    q, powers = min(fit.p, fit.s), column_powers(fit.p, fit.s, fit.d)
    return np.array([fit.h ** (1 + q - j) for j in powers])


@dataclass(frozen=True)
class SideStage(SideFit):
    """One side's main fit, extended with its pilot stage (bias, whose
    pilot_fit is the pilot fit) and its share of the contrast (forms, see
    side_forms). It serves wherever a SideFit does, and
    dataclasses.replace copies the whole side. The share is built with the
    stage: replacing theta_norm or bias in a built stage does not move it."""

    bias: BiasConstants
    forms: ContrastForms

    @classmethod
    def of(cls, fit: SideFit, bias, forms) -> SideStage:
        """The stage of fit; it shares the fit's arrays."""
        own = {name: getattr(fit, name) for name in _SIDE_FIT_FIELDS}
        return cls(**own, bias=bias, forms=forms)


_SIDE_FIT_FIELDS = tuple(f.name for f in fields(SideFit))


@dataclass(frozen=True)
class ContrastForms:
    """Contraction forms in raw-coefficient units, for every derivative
    order: one side's share of the right-minus-left contrast, or the sum
    of both sides' shares.

    For an extractor e: the point estimate is e' jump, the bias estimate
    e' bias, the plug-in variance e' plugin e and the bias-corrected
    variance e' rbc e. Shares add field by field, so left + right has
    jump theta_right - theta_left and bias c_R o bias_R - c_L o bias_L,
    with c the side's _bias_scales.
    """

    jump: np.ndarray
    bias: np.ndarray
    plugin: np.ndarray
    rbc: np.ndarray

    def __add__(self, other: ContrastForms) -> ContrastForms:
        return ContrastForms(*(
            getattr(self, f.name) + getattr(other, f.name)
            for f in fields(self)
        ))


def side_forms(
    sample: RdSample, fit: SideFit, bias: BiasConstants, vce: str
) -> ContrastForms:
    """One side's share of the contrast, with the sample's cluster labels:
    jump theta and bias c o bias.bias, both negated on the left side;
    plugin, plugin_form's entry (i, j) over n h^(i+j+1) for the column
    powers i and j; and rbc, rbc_form's matrix reduced at c, where
    c = _bias_scales(fit).

    numpy's floating-point warnings are silenced while the share is built,
    so its finiteness checks give the verdict, also under warnings as
    errors.

    Raises
    ------
    FormsDegenerate
        If a power of h overflows or underflows to 0, or an entry of the
        share is not finite; the message names the side and the quantity.
    LeverageOne, TooFewClusters
        As plugin_form and rbc_form raise them.
    """
    n, h, powers = fit.n_total, fit.h, column_powers(fit.p, fit.s, fit.d)
    # float ** int raises on overflow, but n times a power may still be inf
    try:
        scale = np.array([[n * h ** (i + j + 1) for j in powers]
                          for i in powers])
        c = _bias_scales(fit)
        if not np.isfinite(scale).all():
            raise OverflowError
    except OverflowError:
        raise FormsDegenerate(
            f"{fit.side} side: a power of h = {h:g} overflows"
        ) from None
    if not (scale.all() and c.all()):
        raise FormsDegenerate(
            f"{fit.side} side: a power of h = {h:g} underflows to 0"
        )
    # numpy's overflow and invalid warnings would escape ahead of the typed
    # error under warnings-as-errors: the finiteness checks below decide
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        plugin = plugin_form(fit, vce, sample.cluster)
        # in place, so plugin keeps plugin_form's memory layout and with it
        # the order in which a contraction e' plugin e sums
        plugin /= scale
        rbc = _rbc_block_sum(rbc_form(sample, fit, bias, vce), c)
        sign = -1.0 if fit.side == "left" else 1.0
        share = ContrastForms(
            jump=sign * fit.theta, bias=sign * (c * bias.bias),
            plugin=plugin, rbc=rbc,
        )
    for f in fields(share):
        if not np.isfinite(getattr(share, f.name)).all():
            raise FormsDegenerate(
                f"{fit.side} side: the {f.name} share is not finite"
            )
    return share


@dataclass(frozen=True)
class VarianceEstimate:
    """Variance of a selector contrast of the two side fits."""

    kind: str
    contraction_left: float
    contraction_right: float
    variance: float
    se: float
    n_clusters: Optional[int] = None


def coef_variance(
    left: SideFit,
    right: SideFit,
    extractor: np.ndarray,
    nu: int,
    vce: str,
    cluster: Optional[np.ndarray] = None,
) -> VarianceEstimate:
    """Plug-in sandwich variance of extractor'(theta_right - theta_left).

    Each side's contraction is e' P e with P its plug-in form (see
    plugin_form). The two sides use disjoint samples, so the variance is
    the sum of the contractions, each scaled by 1/(n h^(2 nu + 1)).
    For vce "cluster", n_clusters reports the number of distinct labels
    in cluster.
    """
    g = None
    if vce == "cluster" and cluster is not None:
        g = int(np.unique(cluster).size)
    p_left, p_right = (plugin_form(fit, vce, cluster) for fit in (left, right))
    c_left = float(extractor @ p_left @ extractor)
    c_right = float(extractor @ p_right @ extractor)
    var = c_left / (
        left.n_total * left.h ** (2 * nu + 1)
    ) + c_right / (right.n_total * right.h ** (2 * nu + 1))
    return VarianceEstimate(
        kind=vce,
        contraction_left=c_left,
        contraction_right=c_right,
        variance=var,
        se=float(np.sqrt(max(var, 0.0))),
        n_clusters=g,
    )


def rbc_variance(
    sample: RdSample,
    left: SideFit,
    right: SideFit,
    bias_left: BiasConstants,
    bias_right: BiasConstants,
    extractor: np.ndarray,
    nu: int,
    vce: str,
) -> float:
    """Variance of the bias-corrected contrast.

    Each side contributes e~' R e~ with R its bias-corrected form (see
    rbc_form) and e~ = [e; -h^(1+q-nu) e], with each side's pilot fit read
    from its bias constants. Cluster aggregation, over sample.cluster,
    stays within sides (the two windows are disjoint) and carries the
    same degrees-of-freedom factor as the uncorrected cluster variance.
    """
    total = 0.0
    for fit, bias in ((left, bias_left), (right, bias_right)):
        c = np.full(fit.n_coef, fit.h ** (1 + min(fit.p, fit.s) - nu))
        block = _rbc_block_sum(rbc_form(sample, fit, bias, vce), c)
        total += float(extractor @ block @ extractor)
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
        z = math.copysign(math.inf, rbc_point_val) if rbc_point_val else 0.0
        return rbc_point_val, rbc_point_val, z, p_val, True
    crit = _critical_value(level)
    z = rbc_point_val / rbc_se
    # 2 Phi(-|z|) = erfc(|z|/sqrt 2), without the cancellation of 1 - Phi
    p_val = math.erfc(abs(z) / math.sqrt(2.0))
    return (
        rbc_point_val - crit * rbc_se,
        rbc_point_val + crit * rbc_se,
        float(z),
        p_val,
        False,
    )


@functools.lru_cache(maxsize=64)
def _critical_value(level: float) -> float:
    """Two-sided standard normal critical value of a confidence level."""
    return _STD_NORMAL.inv_cdf(1.0 - (1.0 - level) / 2.0)
