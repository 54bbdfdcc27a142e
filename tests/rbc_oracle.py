"""Per-record variance path, kept as the oracle for the quadratic forms.

Before the per-side forms, every estimand record rebuilt the plug-in meat
and the RBC combined influence over the union of the main and pilot
windows. ``_influence_pieces`` is that per-record construction, reading
the bias through the route matrix of the bias constants;
``per_record_variances`` contracts it (and the plug-in sandwich) the way
each record used to, so the forms can be checked against it.
"""

from __future__ import annotations

import numpy as np

from rdhte.bandwidth import BiasConstants
from rdhte.basis import design_rows, scaling_diag
from rdhte.errors import LeverageOne
from rdhte.fitting import SideFit
from rdhte.inference import LEVERAGE_TOL, _cluster_sums, _df_factor, hc_weights
from rdhte.model import RdSample


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
    chan = (bias.routes @ extractor) / scaling_diag(b, p + 1, s + 1, d)
    c_vals = (pilot.design @ pilot.solve_gram(chan)) * pilot.kvals / (n * b)
    pilot_pos = np.searchsorted(union, pilot.idx)
    omega[pilot_pos] -= h ** (1 + q - nu) * c_vals

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


def _plugin_contraction(fit, extractor, vce, cluster):
    if vce == "cluster":
        scores = fit.design * (fit.kvals * fit.residuals)[:, None]
        sums = _cluster_sums(fit.side, cluster, fit.idx, scores)
        meat = sums.T @ sums / (fit.n_total * fit.h)
        factor = _df_factor(fit)
    else:
        scale = hc_weights(vce, fit) * fit.kvals**2 * fit.residuals**2
        meat = (fit.design * scale[:, None]).T @ fit.design / (
            fit.n_total * fit.h
        )
        factor = 1.0
    bread_vec = fit.solve_gram(extractor)
    return factor * float(bread_vec @ meat @ bread_vec)


def per_record_variances(sample, sides, extractor, nu, vce, cluster=None):
    """(plug-in variance, RBC variance) of one extractor, rebuilt per call.

    sides is a pair of (main fit, pilot fit, bias constants), left first.
    """
    var, rbc = 0.0, 0.0
    for fit, pilot, bias in sides:
        var += _plugin_contraction(fit, extractor, vce, cluster) / (
            fit.n_total * fit.h ** (2 * nu + 1)
        )
        union, omega, resid, lev = _influence_pieces(
            sample, fit, pilot, bias, extractor, nu
        )
        if vce == "cluster":
            sums = _cluster_sums(fit.side, cluster, union, omega * resid)
            rbc += _df_factor(fit) * float(np.sum(sums**2))
        else:
            w = _pilot_hc_weights(vce, pilot, lev)
            rbc += float(np.sum(w * omega**2 * resid**2))
    return var, rbc
