"""Treatment-effect estimands built from paired side fits.

The two one-sided fits are mapped to the long-form coefficient vector
(baseline jump, per-covariate coefficient jumps) through an explicit
mapping matrix; every reported estimand is a linear functional of that
vector, carrying a plug-in standard error and a robust bias-corrected
point estimate, interval, and p-value.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Optional, Sequence

import numpy as np

from .bandwidth import (
    BandwidthSelection,
    BiasConstants,
    bias_constants,
    mse_bandwidth,
    pilot_bandwidth,
)
from .basis import extractor_vector
from .errors import DimensionMismatch, NonFinite
from .fitting import SideFit, fit_side
from .inference import SideForms, ci_pvalue, side_forms
from .model import FitSpec, RdSample, Select

__all__ = [
    "Selector",
    "EstimandRecord",
    "HteResult",
    "long_map_matrix",
    "fit_hte",
    "cate_at",
    "contrast",
]


def long_map_matrix(p: int, s: int, d: int, nu: int) -> np.ndarray:
    """Matrix sending stacked side coefficients to the long-form vector.

    Row j is [-e_j, e_j], with e_j the extractor of the unit selector j:
    row 0 is the baseline jump, row 1+l the jump in covariate l's
    coefficient, each nu! times the order-nu entry, right side minus left.
    """
    ext = np.array([
        extractor_vector(nu, p, s, unit[1:], lead=unit[0])
        for unit in np.eye(1 + d)
    ])
    return np.hstack([-ext, ext])


@dataclass(frozen=True)
class Selector:
    """Linear functional of the long-form vector (theta, xi')'.

    vector has length 1+d: the first entry weights the baseline jump, the
    rest weight the covariate-coefficient jumps. nu picks the derivative
    order; None defers to the fitted specification.
    """

    vector: np.ndarray
    nu: Optional[int] = None
    label: str = "contrast"

    def __post_init__(self):
        vec = np.atleast_1d(np.asarray(self.vector, dtype=float))
        object.__setattr__(self, "vector", vec)
        if not self.label:
            raise ValueError("selector label must be nonempty")


@dataclass(frozen=True)
class EstimandRecord:
    """One reported estimand with plug-in and bias-corrected inference."""

    label: str
    lead: float
    w: tuple
    nu: int
    point: float
    se: float
    variance: float
    bias_estimate: float
    rbc_point: float
    rbc_se: float
    rbc_variance: float
    ci_low: float
    ci_high: float
    z: float
    p_value: float
    level: float
    zero_se: bool
    extrapolated: bool
    eff_n: int
    h_left: float
    h_right: float


@dataclass(frozen=True)
class HteResult:
    """Paired side fits with the derived heterogeneity estimands.

    varsigma stacks the baseline jump and the covariate-coefficient jumps
    at the requested derivative order; records hold the default report set
    plus any requested evaluation points. The pilot fits are those of the
    bias constants. forms_left/forms_right hold each side's variance
    quadratic forms; with them every further record costs O(k^2).
    """

    sample: RdSample
    spec: FitSpec
    left: SideFit
    right: SideFit
    bias_left: BiasConstants
    bias_right: BiasConstants
    forms_left: SideForms
    forms_right: SideForms
    selection: Optional[BandwidthSelection]
    varsigma: np.ndarray
    records: tuple[EstimandRecord, ...] = field(default_factory=tuple)
    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()

    @property
    def pilot_left(self) -> SideFit:
        return self.bias_left.pilot_fit

    @property
    def pilot_right(self) -> SideFit:
        return self.bias_right.pilot_fit

    @property
    def h_left(self) -> float:
        return self.left.h

    @property
    def h_right(self) -> float:
        return self.right.h

    @property
    def eff_n(self) -> int:
        return self.left.eff_n + self.right.eff_n

    def record(self, label: str) -> EstimandRecord:
        """Look up a record by its label."""
        for rec in self.records:
            if rec.label == label:
                return rec
        raise KeyError(label)


def _make_record(
    result: HteResult,
    label: str,
    lead: float,
    w: np.ndarray,
    nu: int,
    extrapolated: bool,
) -> EstimandRecord:
    spec, left, right = result.spec, result.left, result.right
    forms = (result.forms_left, result.forms_right)
    p, s = spec.p, spec.s
    evec = extractor_vector(nu, p, s, w, lead=lead)
    point = float(evec @ (right.theta - left.theta))
    var = sum(side.variance(evec, nu) for side in forms)
    power = 1 + min(p, s) - nu
    bias_term = right.h**power * result.bias_right.contraction(
        evec
    ) - left.h**power * result.bias_left.contraction(evec)
    rbc = point - bias_term
    rbc_var = sum(side.rbc_variance(evec, nu) for side in forms)
    rbc_se = float(np.sqrt(max(rbc_var, 0.0)))
    lo, hi, z, p_val, zero = ci_pvalue(rbc, rbc_se, spec.level)
    return EstimandRecord(
        label=label,
        lead=float(lead),
        w=tuple(float(v) for v in np.atleast_1d(w)),
        nu=nu,
        point=point,
        se=float(np.sqrt(max(var, 0.0))),
        variance=var,
        bias_estimate=bias_term,
        rbc_point=rbc,
        rbc_se=rbc_se,
        rbc_variance=rbc_var,
        ci_low=lo,
        ci_high=hi,
        z=z,
        p_value=p_val,
        level=spec.level,
        zero_se=zero,
        extrapolated=extrapolated,
        eff_n=result.eff_n,
        h_left=left.h,
        h_right=right.h,
    )


def _default_plan(d, nu, labels, kinds):
    """Default report set: (label, lead, w) triples."""
    if d == 0:
        name = "RD effect" if nu == 0 else f"RD derivative (order {nu})"
        return [(name, 1.0, np.zeros(0))]
    plan = [("Baseline (w=0)", 1.0, np.zeros(d))]
    for ell in range(d):
        unit = np.zeros(d)
        unit[ell] = 1.0
        if kinds[ell] == "indicator":
            plan.append((f"CATE: {labels[ell]}", 1.0, unit))
            plan.append((f"Diff: {labels[ell]}", 0.0, unit))
        else:
            plan.append((f"Slope: {labels[ell]}", 0.0, unit))
    return plan


def _cate_point(d: int, w) -> tuple[str, np.ndarray]:
    """Record label and validated array of a covariate evaluation point."""
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    if w_arr.shape != (d,):
        raise DimensionMismatch(
            f"evaluation point has {w_arr.size} entries, expected {d}"
        )
    pretty = ", ".join(f"{v:g}" for v in w_arr)
    if not np.isfinite(w_arr).all():
        raise NonFinite(-1, f"evaluation point w=({pretty})")
    return f"CATE at w=({pretty})", w_arr


def _is_extrapolated(sample: RdSample, w: np.ndarray) -> bool:
    if sample.w_range is None:
        return False
    lo, hi = sample.w_range
    return bool(np.any(w < lo) or np.any(w > hi))


def fit_hte(
    sample: RdSample,
    spec: FitSpec,
    at: Optional[Sequence] = None,
    labels: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
) -> HteResult:
    """Estimate heterogeneous RD effects on both sides of the cutoff.

    Resolves bandwidths (running MSE-optimal selection when the
    specification asks for it), fits the interacted local polynomial on
    each side, and builds the default estimand report plus any requested
    covariate evaluation points.

    Parameters
    ----------
    sample : RdSample
    spec : FitSpec
        Orders, kernel, bandwidth rule, variance kind, and level.
    at : sequence of covariate vectors, optional
        Extra CATE evaluation points; each must have length d. Points
        outside the observed covariate range are flagged, not rejected.
    labels : sequence of str, optional
        Display names of the covariate columns; defaults to w1..wd.
    kinds : sequence of str, optional
        "indicator" or "continuous" per column, controlling the default
        report set; inferred from the data when omitted.

    Returns
    -------
    HteResult

    Raises
    ------
    TooFewObservations, SingularGram, BiasDegenerate, DimensionMismatch,
    NonFinite, LeverageOne, TooFewClusters
    """
    p, s, nu, kernel, vce = spec.p, spec.s, spec.nu, spec.kernel, spec.vce
    d = sample.d
    if labels is None:
        labels = tuple(f"w{ell + 1}" for ell in range(d))
    else:
        labels = tuple(labels)
    if len(labels) != d:
        raise DimensionMismatch(f"expected {d} labels, got {len(labels)}")
    if kinds is None:
        kinds = sample.w_kinds
    else:
        kinds = tuple(kinds)
    if len(kinds) != d:
        raise DimensionMismatch(f"expected {d} kinds, got {len(kinds)}")

    selection: Optional[BandwidthSelection] = None
    if isinstance(spec.bandwidth, Select):
        selection = mse_bandwidth(sample, spec)
        h_left, h_right = selection.h_left, selection.h_right
        bias_left = selection.bias_const_left
        bias_right = selection.bias_const_right
    else:
        h_left, h_right = spec.resolved_bandwidths()
        bias_left, bias_right = (
            bias_constants(
                sample, side, p, s, kernel,
                pilot_bandwidth(sample, side, p, s),
            )
            for side in ("left", "right")
        )

    left = fit_side(sample, "left", h_left, p, s, kernel)
    right = fit_side(sample, "right", h_right, p, s, kernel)

    stacked = np.concatenate([left.theta, right.theta])
    varsigma = long_map_matrix(p, s, d, nu) @ stacked

    plan = [
        (label, lead, w, False)
        for label, lead, w in _default_plan(d, nu, labels, kinds)
    ]
    for w_pt in at or ():
        label, w_arr = _cate_point(d, w_pt)
        plan.append((label, 1.0, w_arr, _is_extrapolated(sample, w_arr)))

    result = HteResult(
        sample=sample,
        spec=spec,
        left=left,
        right=right,
        bias_left=bias_left,
        bias_right=bias_right,
        forms_left=side_forms(sample, left, bias_left, vce),
        forms_right=side_forms(sample, right, bias_right, vce),
        selection=selection,
        varsigma=varsigma,
        labels=labels,
        kinds=kinds,
    )

    records = tuple(
        _make_record(result, label, lead, w, nu, extrap)
        for label, lead, w, extrap in plan
    )
    return replace(result, records=records)


def cate_at(result: HteResult, w) -> EstimandRecord:
    """CATE record at a covariate point, with full inference.

    The point estimate is the baseline jump plus the coefficient jumps
    contracted with w; variance, bias correction, and interval come from
    the fits and variance forms stored on the result, so a call costs
    O(k^2) whatever the sample size. Points outside the observed covariate
    range are flagged as extrapolated; non-finite ones raise NonFinite.
    """
    label, w_arr = _cate_point(result.sample.d, w)
    return _make_record(
        result, label, 1.0, w_arr, result.spec.nu,
        _is_extrapolated(result.sample, w_arr),
    )


def contrast(result: HteResult, selector: Selector) -> EstimandRecord:
    """Estimand record for an arbitrary long-form selector.

    The selector's first entry weights the baseline jump and the rest
    weight the covariate-coefficient jumps; a selector of zeros yields a
    zero point estimate with zero variance, a non-finite one NonFinite.
    """
    d = result.sample.d
    vec = selector.vector
    if vec.shape != (1 + d,):
        raise DimensionMismatch(
            f"selector has {vec.size} entries, expected {1 + d}"
        )
    if not np.isfinite(vec).all():
        pretty = ", ".join(f"{v:g}" for v in vec)
        raise NonFinite(-1, f"selector ({pretty})")
    nu = result.spec.nu if selector.nu is None else int(selector.nu)
    return _make_record(
        result, selector.label, float(vec[0]), vec[1:].copy(), nu, False
    )
