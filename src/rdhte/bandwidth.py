"""Bias and variance constants and MSE-optimal bandwidth selection.

fit_hte runs the first four steps per side for every bandwidth rule, once
per sample, (p, s) and kernel: the sample keeps each side's bias
constants, so a refit reads them. MSE-optimal selection takes them and
adds the last:

    pilot bandwidth b (rule of thumb, clamped)
      -> pilot fit of order (p+1, s+1) at b, its QR factoring the
         main-order (p, s) columns first, giving the curvature
         coefficients that enter the bias formula
      -> the main-order fit at b, read off that factorization: with the
         pilot's R split as [[R11, R12], [0, R22]], its R is R11, its Gram
         R11'R11 and its kernel moment vectors R11' times columns of R12
      -> bias constants (two channels: running-variable curvature and
         covariate-coefficient curvature)
      -> variance constants: plug-in sandwich contraction of the
         main-order fit at b with the requested variance kind

and the optimal bandwidth trades the squared bias contraction against the
variance contraction at the rate implied by the polynomial orders. No
main-order fit is run at b: one QR per side serves the pilot and the
main order, and a fixed-bandwidth fit never builds the main-order fit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .basis import extractor_vector, n_params
from .errors import BiasDegenerate, TooFewObservations
from .fitting import SideFit, fit_side, nested_fit, side_design
from .inference import plugin_form
from .model import FitSpec, RdSample

__all__ = [
    "BiasConstants",
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
    rows, kv, idx = side_design(sample, side, h, p, s, kernel)
    k_dim = n_params(p, s, sample.d)
    n = sample.n
    if idx.size == 0:
        return np.zeros(k_dim), np.zeros((k_dim, sample.d))
    u = (sample.x[idx] - sample.cutoff) / h
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
    BiasDegenerate
        If the sd or the IQR of the side's x is not finite, as when the
        squares of x overflow.
    """
    view = sample.side_view(side)
    n_side = view.n
    if n_side < MIN_SIDE_OBS:
        raise TooFewObservations(
            f"{side} side has {n_side} observations; need >= {MIN_SIDE_OBS}"
        )
    if not (math.isfinite(view.sd) and math.isfinite(view.iqr)):
        raise BiasDegenerate(
            f"{side} side spread of x non-finite (sd {view.sd:g}, IQR "
            f"{view.iqr:g})"
        )
    spread = min(view.sd, view.iqr / 1.349)
    b = 2.576 * spread * n_side ** (-1.0 / (2 * max(p, s) + 5))
    # clamp from below so the window keeps enough points for the pilot fit
    return max(b, view.radius(min(5 * (p + 2), n_side)))


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
    bandwidth.

    The pilot's QR factored the main-order columns first, so with its R
    split as [[R11, R12], [0, R22]] the main-order Gram is R11'R11 and
    [zeta, phi] is R11' times the top columns of R12: the routes are
    R11^-1 R12 there, a product with the stored R^-1, and no Gram is
    formed or solved. An extractor e contracts the bias as e' bias.
    """

    pilot_fit: SideFit
    routes: np.ndarray

    @cached_property
    def bias(self) -> np.ndarray:
        """Main-order bias vector routes' pilot_fit.theta."""
        return self.routes.T @ self.pilot_fit.theta


def bias_constants(
    sample: RdSample,
    side: str,
    p: int,
    s: int,
    kernel: str,
    pilot_b: float,
) -> BiasConstants:
    """Estimate the smoothing-bias constants for one side.

    A pilot fit of order (p+1, s+1) at the pilot bandwidth supplies the
    curvature coefficients. The main-order basis is a subset of the pilot
    basis on the same window, and the pilot's QR factors those columns
    first, so the main-order quantities at the pilot bandwidth are read off
    the pilot fit's R: the main-order Gram is R11'R11, and the moment
    vectors of moment_vectors (zeta at a=p, phi at a=s) are R11' times the
    u^(p+1) and W_l u^(s+1) columns of R12, so the routes are R11^-1 R12
    (see BiasConstants). No main-order fit is run.

    Raises
    ------
    SingularGram
        If the pilot fit at pilot_b is singular (the main-order Gram
        R11'R11 is then no worse conditioned).
    """
    d = sample.d
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
    # the QR factors the main-order columns first, then the top powers
    order = np.concatenate([main, [p + 1], cov_start + s + 1])
    pilot_fit = fit_side(sample, side, pilot_b, p + 1, s + 1, kernel, order)

    k = main.size
    routes = np.zeros((order.size, k))
    routes[top] = (pilot_fit.r_inv[main, :k] @ pilot_fit.r[:k, top]).T
    return BiasConstants(pilot_fit=pilot_fit, routes=routes)


def variance_constants(
    sample: RdSample, bias: BiasConstants, vce: str
) -> np.ndarray:
    """Plug-in variance matrix of one side at its pilot bandwidth.

    Returns inference.plugin_form of the main-order fit at the pilot
    bandwidth, read off the pilot's factorization by nested_fit: the k x k
    matrix f Gram^-1 meat Gram^-1, its meat weighted by the requested HC
    kind or summed within the sample's clusters, so the selector and the
    reported plug-in variances share one definition. An extractor e
    contracts it as e' M e.
    """
    pilot = bias.pilot_fit
    main = nested_fit(sample, pilot, pilot.p - 1, pilot.s - 1)
    return plugin_form(main, vce, sample.cluster)


@dataclass(frozen=True)
class BandwidthSelection:
    """Outcome of MSE-optimal bandwidth selection.

    Carries the selected bandwidths, the variance and bias contractions
    they were derived from (pilot stage and mode are the caller's), and a
    degeneracy flag set when the bias denominator needed regularization.
    """

    h_left: float
    h_right: float
    v_left: float
    v_right: float
    b_left: float
    b_right: float
    bias_degenerate: bool


def mse_bandwidth(
    sample: RdSample,
    spec: FitSpec,
    bias_left: BiasConstants,
    bias_right: BiasConstants,
) -> BandwidthSelection:
    """MSE-optimal bandwidth(s) for the target (1, all-ones).

    The target is the linear functional whose MSE drives the choice: the
    effect at w = all-ones, the natural evaluation point when covariates
    are orthogonal indicators.

    One rule serves both modes, which only group the sides: "one_sided"
    solves each side alone, "two_sided" the jump across the cutoff for one
    bandwidth on both. A group sums its sides' v = e' V e and takes its
    bias b (the side's own e' bias, or b_right - b_left) and reference
    h_ref (the side's own pilot h, or sqrt(h_left h_right)); with
    q = min(p, s) it solves

        h = (C v / (b^2 + reg))^(1/(3 + 2q)),
        C = (1 + 2nu) / (2(1 + q - nu) n),  reg = BIAS_REG_EPS v / (n h_ref),

    sets bias_degenerate when b^2 < reg, and clips h to the group's largest
    per-side bounds: the radii holding k + 2 rows and every row.

    Parameters
    ----------
    sample : RdSample
    spec : FitSpec
        Supplies p, s, nu, the variance kind, and the mode ("one_sided" or
        "two_sided"); spec.bandwidth must be a Select.
    bias_left, bias_right : BiasConstants
        Each side's pilot stage; the variance is that of the main-order
        fit at pilot_fit.h (variance_constants).

    Returns
    -------
    BandwidthSelection

    Raises
    ------
    SingularGram, LeverageOne, TooFewClusters
    BiasDegenerate
        If a side's v or b is not finite (the message names the side and
        the constant), its squared bias term overflows, or the regularized
        rule has no finite solution.
    """
    p, s, nu, vce = spec.p, spec.s, spec.nu, spec.vce
    n = sample.n
    q = min(p, s)
    k_dim = n_params(p, s, sample.d)
    extractor = extractor_vector(nu, p, s, np.ones(sample.d))
    factor = (1 + 2 * nu) / (2.0 * (1 + q - nu) * n)
    expo = 1.0 / (3 + 2 * q)

    v, b, h_pilot, lo, hi = {}, {}, {}, {}, {}
    for side, bias in (("left", bias_left), ("right", bias_right)):
        vmat = variance_constants(sample, bias, vce)
        # theta may hold inf at extreme scales: the check below decides
        with np.errstate(over="ignore", invalid="ignore"):
            v[side] = float(extractor @ vmat @ extractor)
            b[side] = float(extractor @ bias.bias)
        for constant, value in (("variance", v[side]), ("bias", b[side])):
            if not np.isfinite(value):
                raise BiasDegenerate(
                    f"{side} {constant} constant non-finite ({value})"
                )
        h_pilot[side] = bias.pilot_fit.h
        view = sample.side_view(side)
        lo[side] = view.radius(min(k_dim + 2, view.n))
        hi[side] = view.radius(view.n)

    if spec.bandwidth.mode == "one_sided":
        groups = (("left",), ("right",))
    else:
        groups = (("left", "right"),)
    h, degen = {}, False
    for group in groups:
        v_sum = sum(v[sd] for sd in group)
        if len(group) == 1:
            # the side's own h, not sqrt(h * h), which underflows to 0
            b_term, h_ref = b[group[0]], h_pilot[group[0]]
        else:
            b_term = b["right"] - b["left"]
            h_ref = float(np.sqrt(h_pilot["left"] * h_pilot["right"]))
        try:
            b_sq = b_term ** 2
        except OverflowError:
            raise BiasDegenerate(
                f"{' and '.join(group)} squared bias constant overflows "
                f"({b_term:g})"
            ) from None
        raw, dg = 0.0, True
        if v_sum != 0.0:
            reg = BIAS_REG_EPS * v_sum / (n * h_ref) if h_ref > 0 else 0.0
            denom, dg = b_sq + reg, b_sq < reg
            if denom <= 0.0:
                raise BiasDegenerate(
                    "bias denominator non-positive after regularization"
                )
            raw = (factor * v_sum / denom) ** expo
            if not np.isfinite(raw):
                raise BiasDegenerate(
                    "bandwidth non-finite after regularization"
                )
        degen = degen or dg
        bounds = max(lo[sd] for sd in group), max(hi[sd] for sd in group)
        h.update(dict.fromkeys(group, float(np.clip(raw, *bounds))))

    return BandwidthSelection(
        h_left=h["left"],
        h_right=h["right"],
        v_left=v["left"],
        v_right=v["right"],
        b_left=b["left"],
        b_right=b["right"],
        bias_degenerate=degen,
    )
