"""Bias and variance constants and MSE-optimal bandwidth selection.

The selection pipeline per side is:

    pilot bandwidth b (rule of thumb, clamped)
      -> pilot fit of order (p+1, s+1) at b, giving the curvature
         coefficients that enter the bias formula
      -> Gram and kernel moment vectors of the main-order basis at b, read
         off as blocks of the pilot Gram
      -> bias constants (two channels: running-variable curvature and
         covariate-coefficient curvature)
      -> variance constants: sandwich contraction of the main-order fit
         at b with the requested heteroskedasticity weighting

and the optimal bandwidth trades the squared bias contraction against the
variance contraction at the rate implied by the polynomial orders.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .basis import extractor_vector, n_params
from .errors import BiasDegenerate, TooFewObservations
from .fitting import SideFit, fit_side, side_design
from .model import FitSpec, RdSample, Select

__all__ = [
    "BiasConstants",
    "VarianceConstants",
    "BandwidthSelection",
    "moment_vectors",
    "pilot_bandwidth",
    "bias_constants",
    "variance_constants",
    "mse_bandwidth",
]

#: minimum observations per side before any pilot fit is attempted
MIN_SIDE_OBS = 10

#: relative weight of the variance-based regularizer guarding near-zero bias
BIAS_REG_EPS = 1e-2


def moment_vectors(
    sample: RdSample,
    side: str,
    h: float,
    p: int,
    s: int,
    a: int,
    kernel: str,
):
    """Kernel moment vectors of the interacted basis against powers of u.

    Returns the pair

        zeta = (1/(n h)) sum_i 1(side) K(u_i) r(u_i, W_i) u_i^(a+1)
        phi  = (1/(n h)) sum_i 1(side) K(u_i) r(u_i, W_i) W_i' u_i^(a+1)

    with u_i = (x_i - c)/h and n the total sample size. Empty windows give
    zero arrays.

    Returns
    -------
    (zeta, phi) : (ndarray (k,), ndarray (k, d))
    """
    if a < 0:
        raise ValueError("moment order a must be >= 0")
    rows, _, idx, u, kv = side_design(sample, side, h, p, s, kernel)
    k_dim = n_params(p, s, sample.d)
    n = sample.n
    if idx.size == 0:
        return np.zeros(k_dim), np.zeros((k_dim, sample.d))
    common = kv / (n * h) * u ** (a + 1)
    zeta = rows.T @ common
    phi = (rows * common[:, None]).T @ sample.w[idx]
    return zeta, phi


def pilot_bandwidth(sample: RdSample, side: str, p: int, s: int) -> float:
    """Rule-of-thumb pilot bandwidth for one side.

    b = 2.576 * min(sd(X_side), IQR(X_side)/1.349) * n_side^(-1/(2 max(p,s)+5)),
    then raised if necessary so the pilot window holds at least
    min(5*(p+2), n_side) observations. The spread and the distance order
    statistics come from the sample's cached side view.

    Raises
    ------
    TooFewObservations
        If the side holds fewer than 10 observations.
    """
    view = sample.side_view(side)
    n_side = view.n
    if n_side < MIN_SIDE_OBS:
        raise TooFewObservations(
            f"{side} side has {n_side} observations; need >= {MIN_SIDE_OBS}"
        )
    spread = min(view.sd, view.iqr / 1.349)
    b = 2.576 * spread * n_side ** (-1.0 / (2 * max(p, s) + 5))
    # clamp from below so the window keeps enough points for the pilot fit
    m_min = min(5 * (p + 2), n_side)
    b_floor = view.dist[m_min - 1] * (1.0 + 1e-9)
    return max(b, b_floor)


@dataclass(frozen=True)
class BiasConstants:
    """Estimated smoothing-bias constants for one side.

    routes is the (k_pilot, k) matrix that carries the higher-order pilot
    fit's coefficients to the main-order bias vector, bias = routes'
    pilot_fit.theta. Its row for the top main power u^(p+1), whose
    coefficient estimates the (p+1)-th derivative of the main regression
    function over (p+1)!, is (Gram^-1 zeta)' when p <= s; its rows for the
    top covariate powers W_l u^(s+1), whose coefficients estimate the
    (s+1)-th derivatives of the covariate coefficient functions over
    (s+1)!, are the columns of Gram^-1 phi when p >= s; every other row is
    zero. Gram, zeta and phi are the main-order quantities at the pilot
    bandwidth, all blocks of pilot_fit.gram.
    """

    side: str
    pilot_fit: SideFit
    routes: np.ndarray

    @cached_property
    def bias(self) -> np.ndarray:
        """Main-order bias vector routes' pilot_fit.theta."""
        return self.routes.T @ self.pilot_fit.theta

    def contraction(self, extractor: np.ndarray) -> float:
        """Bias contraction for a given extractor vector."""
        return float(extractor @ self.bias)


def bias_constants(
    sample: RdSample,
    side: str,
    p: int,
    s: int,
    kernel: str,
    pilot_b: float,
    pilot_fit: Optional[SideFit] = None,
) -> BiasConstants:
    """Estimate the smoothing-bias constants for one side.

    A pilot fit of order (p+1, s+1) at the pilot bandwidth supplies the
    curvature coefficients. The main-order basis is a subset of the pilot
    basis on the same window, so the main-order Gram and the moment vectors
    of moment_vectors (zeta at a=p, phi at a=s) are blocks of the pilot
    Gram: zeta is its u^(p+1) column and phi its W_l u^(s+1) columns,
    restricted to the main-order rows. No main-order fit is run.

    Parameters
    ----------
    pilot_fit : SideFit, optional
        Reuse an existing pilot fit of order (p+1, s+1) at pilot_b.

    Raises
    ------
    SingularGram
        If the pilot fit at pilot_b is singular (the main-order Gram, a
        principal block of the pilot Gram, is then no worse conditioned).
    """
    d = sample.d
    if pilot_fit is None:
        pilot_fit = fit_side(sample, side, pilot_b, p + 1, s + 1, kernel)
    if pilot_fit.p != p + 1 or pilot_fit.s != s + 1 or pilot_fit.h != pilot_b:
        raise ValueError("pilot fit must have orders (p+1, s+1) at pilot_b")

    # positions in the pilot basis: the main-order basis, and the top
    # powers the bias reads: u^(p+1) for the running-variable channel
    # (p <= s) and W_l u^(s+1) for the covariate channel (p >= s); both
    # channels fire at p = s
    cov_start = (p + 2) + (s + 2) * np.arange(d)
    main = np.concatenate(
        [np.arange(p + 1)] + [start + np.arange(s + 1) for start in cov_start]
    )
    top = ([p + 1] if p <= s else []) + (
        (cov_start + s + 1).tolist() if p >= s else []
    )

    gram = pilot_fit.gram
    routes = np.zeros((pilot_fit.n_coef, main.size))
    routes[top] = np.linalg.solve(
        gram[np.ix_(main, main)], gram[np.ix_(main, top)]
    ).T
    return BiasConstants(side=side, pilot_fit=pilot_fit, routes=routes)


@dataclass(frozen=True)
class VarianceConstants:
    """Sandwich variance pieces for one side at a given bandwidth."""

    side: str
    h: float
    bread_meat_bread: np.ndarray

    def contraction(self, extractor: np.ndarray) -> float:
        return float(extractor @ self.bread_meat_bread @ extractor)


def variance_constants(
    sample: RdSample,
    side: str,
    h: float,
    p: int,
    s: int,
    kernel: str,
    vce: str,
    fit: Optional[SideFit] = None,
) -> VarianceConstants:
    """Sandwich variance constants for one side at bandwidth h.

    The meat uses the requested HC or cluster weighting on the residuals of
    the main-order fit at h; the result's contraction method evaluates
    extractor' Gram^-1 meat Gram^-1' extractor.
    """
    from .inference import _sandwich, _side_meat

    if fit is None:
        fit = fit_side(sample, side, h, p, s, kernel)
    meat = _side_meat(fit, vce, sample.cluster, sample.n_clusters)
    return VarianceConstants(
        side=side, h=float(h), bread_meat_bread=_sandwich(fit.gram, meat)
    )


@dataclass(frozen=True)
class BandwidthSelection:
    """Outcome of MSE-optimal bandwidth selection.

    Carries the selected bandwidths, the pilot bandwidths they were derived
    from, the estimated constants (whose bias constants hold the pilot
    fits), and a degeneracy flag set when the bias denominator needed
    regularization.
    """

    mode: str
    h_left: float
    h_right: float
    pilot_left: float
    pilot_right: float
    v_left: float
    v_right: float
    b_left: float
    b_right: float
    bias_degenerate: bool
    bias_const_left: BiasConstants
    bias_const_right: BiasConstants


def _h_bounds(sample: RdSample, side: str, k_dim: int):
    dist = sample.side_view(side).dist
    m = min(k_dim + 2, dist.size)
    h_min = dist[m - 1] * (1.0 + 1e-9)
    h_max = dist[-1] * (1.0 + 1e-9)
    return h_min, h_max


def mse_bandwidth(
    sample: RdSample,
    spec: FitSpec,
    target=None,
    mode: Optional[str] = None,
) -> BandwidthSelection:
    """MSE-optimal bandwidth(s) for a selector target.

    Parameters
    ----------
    sample : RdSample
    spec : FitSpec
        Supplies p, s, nu, kernel, and the variance kind.
    target : tuple (lead, w), optional
        The linear functional whose MSE drives the choice: lead weights the
        main block, w the covariate blocks. Defaults to (1, all-ones), the
        natural evaluation point when covariates are orthogonal indicators.
    mode : {"one_sided", "two_sided"}, optional
        Defaults to the mode in spec.bandwidth when that is Select, else
        "two_sided".

    Returns
    -------
    BandwidthSelection

    Raises
    ------
    TooFewObservations, SingularGram, BiasDegenerate
    """
    p, s, nu, kernel = spec.p, spec.s, spec.nu, spec.kernel
    d = sample.d
    if mode is None:
        mode = (
            spec.bandwidth.mode
            if isinstance(spec.bandwidth, Select)
            else "two_sided"
        )
    if target is None:
        target = (1.0, np.ones(d))
    lead, w_t = float(target[0]), np.atleast_1d(np.asarray(target[1], float))
    extractor = extractor_vector(nu, p, s, w_t, lead=lead)

    n = sample.n
    q = min(p, s)
    sides = ("left", "right")
    pilots, bconsts, vconsts = {}, {}, {}
    for side in sides:
        b = pilot_bandwidth(sample, side, p, s)
        pilots[side] = b
        bconsts[side] = bias_constants(sample, side, p, s, kernel, b)
        vconsts[side] = variance_constants(
            sample, side, b, p, s, kernel, spec.vce
        )

    v_val = {sd: vconsts[sd].contraction(extractor) for sd in sides}
    b_val = {sd: bconsts[sd].contraction(extractor) for sd in sides}

    factor = (1 + 2 * nu) / (2.0 * (1 + q - nu) * n)
    expo = 1.0 / (3 + 2 * q)
    k_dim = n_params(p, s, d)
    bounds = {sd: _h_bounds(sample, sd, k_dim) for sd in sides}

    def _solve(v_sum: float, b_sq: float, h_ref: float) -> tuple[float, bool]:
        if v_sum == 0.0:
            return 0.0, True
        reg = BIAS_REG_EPS * v_sum / (n * h_ref) if h_ref > 0 else 0.0
        denom = b_sq + reg
        degenerate = b_sq < reg
        if denom <= 0.0:
            raise BiasDegenerate(
                "bias denominator non-positive after regularization"
            )
        raw = (factor * v_sum / denom) ** expo
        if not np.isfinite(raw):
            raise BiasDegenerate(
                "bandwidth non-finite after regularization"
            )
        return raw, degenerate

    if mode == "one_sided":
        h_out, degen = {}, False
        for side in sides:
            raw, dg = _solve(v_val[side], b_val[side] ** 2, pilots[side])
            degen = degen or dg
            lo, hi = bounds[side]
            h_out[side] = float(np.clip(raw, lo, hi))
        h_left, h_right = h_out["left"], h_out["right"]
    else:
        v_sum = v_val["left"] + v_val["right"]
        b_diff = b_val["right"] - b_val["left"]
        h_ref = float(np.sqrt(pilots["left"] * pilots["right"]))
        raw, degen = _solve(v_sum, b_diff**2, h_ref)
        lo = max(bounds["left"][0], bounds["right"][0])
        hi = max(bounds["left"][1], bounds["right"][1])
        h_common = float(np.clip(raw, lo, hi))
        h_left = h_right = h_common

    return BandwidthSelection(
        mode=mode,
        h_left=h_left,
        h_right=h_right,
        pilot_left=pilots["left"],
        pilot_right=pilots["right"],
        v_left=v_val["left"],
        v_right=v_val["right"],
        b_left=b_val["left"],
        b_right=b_val["right"],
        bias_degenerate=degen,
        bias_const_left=bconsts["left"],
        bias_const_right=bconsts["right"],
    )
