"""Treatment-effect estimands built from paired side fits.

Every reported estimand reads the right-minus-left difference of the two
one-sided fits' coefficients through an extractor vector (the long-form
vector of baseline and covariate-coefficient jumps reads it through those
of the unit selectors) and carries a plug-in standard error and a robust
bias-corrected point estimate, interval, and p-value.

The two sides meet only in bandwidth selection and in the final contrast,
so on large samples fit_hte runs each side's stages on its own thread
(numpy releases the GIL in the heavy calls); both paths run the same
per-side code, so results are bit-identical.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass, field
from functools import cached_property
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
from .errors import DimensionMismatch, InvalidSetting, NonFinite
from .fitting import fit_side
from .inference import (
    ContrastForms,
    SideStage,
    ci_pvalue,
    contrast_forms,
    side_forms,
)
from .model import FitSpec, RdSample, Select, _as_order

__all__ = [
    "Selector",
    "EstimandRecord",
    "HteResult",
    "fit_hte",
    "cate_at",
    "contrast",
]

#: rows the smaller side must hold for fit_hte to fit the two sides on two
#: threads; on smaller windows the GIL handoffs between many short numpy
#: calls cost more than the overlap saves
PARALLEL_MIN_SIDE_ROWS = 200_000


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
        if self.nu is not None:
            object.__setattr__(self, "nu", _as_order("nu", self.nu))
        if not self.label:
            raise InvalidSetting("selector label must be nonempty")


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

    left and right are the side stages (inference.SideStage): each is the
    side's main fit with its pilot stage (bias.pilot_fit is the pilot fit)
    and variance forms, so dataclasses.replace(result, left=...) swaps a
    whole side. forms combines both stages once (inference.ContrastForms)
    and serves every derivative order, so each record costs four dot
    products, O(k^2). varsigma, read off forms on first use, stacks the
    baseline and covariate-coefficient jumps at the requested derivative
    order. records, built with the result, hold the default report set
    plus the evaluation points, given as (label, lead, w, extrapolated).
    """

    sample: RdSample
    spec: FitSpec
    left: SideStage
    right: SideStage
    selection: Optional[BandwidthSelection]
    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    points: tuple[tuple[str, float, np.ndarray, bool], ...] = ()
    records: tuple[EstimandRecord, ...] = field(init=False)

    def __post_init__(self):
        nu, d = self.spec.nu, self.sample.d
        plan = _default_plan(d, nu, self.labels, self.kinds)
        object.__setattr__(self, "records", tuple(
            _make_record(self, label, lead, w, nu, extrap)
            for label, lead, w, extrap in plan + list(self.points)
        ))

    @property
    def h_left(self) -> float:
        return self.left.h

    @property
    def h_right(self) -> float:
        return self.right.h

    @property
    def eff_n(self) -> int:
        return self.left.eff_n + self.right.eff_n

    @cached_property
    def varsigma(self) -> np.ndarray:
        spec = self.spec
        return np.array([
            extractor_vector(spec.nu, spec.p, spec.s, unit[1:], lead=unit[0])
            for unit in np.eye(1 + self.sample.d)
        ]) @ self.forms.jump

    @cached_property
    def forms(self) -> ContrastForms:
        return contrast_forms(self.left, self.right)

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
    spec = result.spec
    evec = extractor_vector(nu, spec.p, spec.s, w, lead=lead)
    forms = result.forms
    point = float(evec @ forms.jump)
    var = float(evec @ forms.plugin @ evec)
    bias_term = float(evec @ forms.bias)
    rbc = point - bias_term
    rbc_var = float(evec @ forms.rbc @ evec)
    rbc_se = math.sqrt(max(rbc_var, 0.0))
    lo, hi, z, p_val, zero = ci_pvalue(rbc, rbc_se, spec.level)
    return EstimandRecord(
        label=label,
        lead=float(lead),
        w=tuple(w.tolist()),
        nu=nu,
        point=point,
        se=math.sqrt(max(var, 0.0)),
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
        h_left=result.h_left,
        h_right=result.h_right,
    )


def _default_plan(d, nu, labels, kinds):
    """Default report set: (label, lead, w, extrapolated) rows."""
    if d == 0:
        name = "RD effect" if nu == 0 else f"RD derivative (order {nu})"
        return [(name, 1.0, np.zeros(0), False)]
    plan = [("Baseline (w=0)", 1.0, np.zeros(d), False)]
    for ell in range(d):
        unit = np.zeros(d)
        unit[ell] = 1.0
        if kinds[ell] == "indicator":
            plan.append((f"CATE: {labels[ell]}", 1.0, unit, False))
            plan.append((f"Diff: {labels[ell]}", 0.0, unit, False))
        else:
            plan.append((f"Slope: {labels[ell]}", 0.0, unit, False))
    return plan


def _cate_point(d: int, w) -> tuple[str, np.ndarray]:
    """Record label and validated array of a covariate evaluation point."""
    w_arr = np.atleast_1d(np.array(w, dtype=float))
    if w_arr.shape != (d,):
        raise DimensionMismatch(
            f"evaluation point has {w_arr.size} entries, expected {d}"
        )
    vals = w_arr.tolist()
    pretty = ", ".join(f"{v:g}" for v in vals)
    if not all(map(math.isfinite, vals)):
        raise NonFinite(-1, f"evaluation point w=({pretty})")
    return f"CATE at w=({pretty})", w_arr


def _selector_terms(d: int, selector: Selector) -> tuple[float, np.ndarray]:
    """Validated lead and covariate weights of a long-form selector."""
    vec = selector.vector
    if vec.shape != (1 + d,):
        raise DimensionMismatch(
            f"selector has {vec.size} entries, expected {1 + d}"
        )
    if not np.isfinite(vec).all():
        pretty = ", ".join(f"{v:g}" for v in vec)
        raise NonFinite(-1, f"selector ({pretty})")
    return float(vec[0]), vec[1:].copy()


def _is_extrapolated(sample: RdSample, w: np.ndarray) -> bool:
    """True iff some coordinate of w lies outside the observed [min, max]."""
    if sample.w_range is None:
        return False
    lo, hi = (bound.tolist() for bound in sample.w_range)
    return any(
        v < a or v > b for v, a, b in zip(w.tolist(), lo, hi, strict=True)
    )


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _both_sides(fn, threaded: bool) -> tuple:
    """(fn("left"), fn("right")). Threaded, the right side runs on a worker
    thread that is joined before anything returns or raises; the left
    side's error wins, as in a left-then-right loop."""
    if not threaded:
        return fn("left"), fn("right")
    right = []

    def work():
        try:
            right.append((fn("right"), None))
        except BaseException as exc:
            right.append((None, exc))

    worker = threading.Thread(target=work, name="rdhte-right-side")
    worker.start()
    try:
        left = fn("left")
    finally:
        worker.join()
    value, exc = right[0]
    if exc is not None:
        raise exc
    return left, value


def fit_hte(
    sample: RdSample,
    spec: FitSpec,
    at: Optional[Sequence] = None,
    labels: Optional[Sequence[str]] = None,
    kinds: Optional[Sequence[str]] = None,
) -> HteResult:
    """Estimate heterogeneous RD effects on both sides of the cutoff.

    Runs each side's pilot stage, resolves bandwidths (MSE-optimal
    selection when the specification asks for it), fits the interacted
    local polynomial on each side with its variance forms, and builds the
    default estimand report plus any requested covariate evaluation points.

    When the smaller side holds at least PARALLEL_MIN_SIDE_ROWS rows and
    the process may use two or more CPUs, each stage runs the right side on
    a worker thread, joined before the stage ends. The result is
    bit-identical to the serial one, and the left side's error wins.

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
    NonFinite, InvalidSetting, LeverageOne, TooFewClusters
    """
    p, s, kernel, vce = spec.p, spec.s, spec.kernel, spec.vce
    d = sample.d
    if labels is None:
        labels = tuple(f"w{ell + 1}" for ell in range(d))
    elif isinstance(labels, str):
        raise InvalidSetting(f"labels must be one text per column, "
                             f"got {labels!r}")
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
    for kind in kinds:
        if kind not in ("indicator", "continuous"):
            raise InvalidSetting(f"unknown covariate kind {kind!r}")
    for label in labels:
        if not isinstance(label, str):
            raise InvalidSetting(f"covariate label {label!r} is not text")

    # reading SideView.n builds both side views on this thread before any
    # worker starts: cached_property takes no lock from Python 3.12 on
    threaded = (
        min(sample.side_view(side).n for side in ("left", "right"))
        >= PARALLEL_MIN_SIDE_ROWS
        and _usable_cpus() >= 2
    )

    def pilot_stage(side: str) -> BiasConstants:
        b = pilot_bandwidth(sample, side, p, s)
        return bias_constants(sample, side, p, s, kernel, b)

    bias_left, bias_right = _both_sides(pilot_stage, threaded)
    selection: Optional[BandwidthSelection] = None
    # a fixed rule and a selection both answer h_left and h_right
    rule = spec.bandwidth
    if isinstance(rule, Select):
        rule = selection = mse_bandwidth(sample, spec, bias_left, bias_right)
    stage = {"left": (rule.h_left, bias_left),
             "right": (rule.h_right, bias_right)}

    def main_stage(side: str) -> SideStage:
        h, bias = stage[side]
        fit = fit_side(sample, side, h, p, s, kernel)
        return SideStage.of(fit, bias, side_forms(sample, fit, bias, vce))

    left, right = _both_sides(main_stage, threaded)

    points = []
    for w_pt in at or ():
        label, w_arr = _cate_point(d, w_pt)
        points.append((label, 1.0, w_arr, _is_extrapolated(sample, w_arr)))
    return HteResult(
        sample=sample,
        spec=spec,
        left=left,
        right=right,
        selection=selection,
        labels=labels,
        kinds=kinds,
        points=tuple(points),
    )


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
    lead, w = _selector_terms(result.sample.d, selector)
    nu = result.spec.nu if selector.nu is None else selector.nu
    return _make_record(result, selector.label, lead, w, nu, False)
