"""Treatment-effect estimands built from paired side fits.

Every reported estimand reads the right-minus-left difference of the two
one-sided fits' coefficients through an extractor vector (the long-form
vector of baseline and covariate-coefficient jumps reads it through those
of the unit selectors) and carries a plug-in standard error and a robust
bias-corrected point estimate, interval, and p-value.

Each side's pilot stage is fitted once per sample, order pair and kernel:
the sample keeps it, so a refit runs only the main-order fits. The two
sides meet only in bandwidth selection and in the final contrast, so on
large samples fit_hte runs each side's stages on its own thread
(numpy releases the GIL in the heavy calls); both paths run the same
per-side code, so results are bit-identical. The fork scheduler that
monte_carlo and the CLI's CSV reader share lives here too
(_process_count and _run_forked).
"""

from __future__ import annotations

import math
import numbers
import os
import threading
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Callable, NamedTuple, Optional, Sequence

import numpy as np

from .bandwidth import (
    BandwidthSelection,
    BiasConstants,
    bias_constants,
    mse_bandwidth,
    pilot_bandwidth,
)
from .basis import extractor_positions, n_params
from .errors import DimensionMismatch, InvalidSetting, NonFinite
from .fitting import fit_side
from .inference import ContrastForms, SideStage, ci_pvalue, side_forms
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
        object.__setattr__(self, "vector", _as_vector("selector",
                                                      self.vector))
        if self.nu is not None:
            object.__setattr__(self, "nu", _as_order("nu", self.nu))
        if not (isinstance(self.label, str) and self.label):
            raise InvalidSetting(
                f"selector label must be non-empty text, got {self.label!r}"
            )


class Term(NamedTuple):
    """One requested estimand, checked: the long-form selector (lead
    weights the baseline jump, w the covariate-coefficient jumps) at
    derivative order nu. at_point marks a covariate evaluation point,
    which _make_record flags when it lies outside the observed range."""

    label: str
    lead: float
    w: np.ndarray
    nu: int
    at_point: bool


@dataclass(frozen=True)
class EstimandRecord:
    """One reported estimand with plug-in and bias-corrected inference.

    _make_record fills a new record's __dict__ in field order without
    calling __init__, which would pay one frozen assignment a field; ==,
    hash, repr, pickling, dataclasses.replace and asdict read the fields
    as for any instance, and assigning a field raises FrozenInstanceError.
    """

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
    and its share of the contrast, so dataclasses.replace(result,
    left=...) swaps a whole side. forms, left.forms + right.forms
    (inference.ContrastForms), is summed once and serves every derivative
    order, so each record costs four dot products, O(k^2). varsigma, read
    off forms on first use, stacks the baseline and covariate-coefficient
    jumps at the requested derivative order. points holds the Terms of the
    requested evaluation points; records, built with the result, hold the
    default report set and then one record per point.

    __post_init__ builds the result's record context (_RecordContext) once,
    on the calling thread, before the records: forms, each derivative
    order's extractor positions, the level, eff_n, h_left, h_right and the
    observed covariate bounds. Every record of the result, from the
    default plan, at=, cate_at, contrast or a Monte Carlo target, reads
    it, so a record pays only its extractor fill and its four
    contractions. dataclasses.replace(result, ...) builds a new context.
    """

    sample: RdSample
    spec: FitSpec
    left: SideStage
    right: SideStage
    selection: Optional[BandwidthSelection]
    labels: tuple[str, ...] = ()
    kinds: tuple[str, ...] = ()
    points: tuple[Term, ...] = ()
    records: tuple[EstimandRecord, ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "_context", _record_context(self))
        plan = _default_plan(self.sample.d, self.spec.nu, self.labels,
                             self.kinds)
        object.__setattr__(self, "records", tuple(
            _make_record(self, term) for term in plan + list(self.points)
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
        fact, pos = self._context.extractors[self.spec.nu]
        return fact * self.forms.jump[pos]

    @cached_property
    def forms(self) -> ContrastForms:
        return self.left.forms + self.right.forms

    def record(self, label: str) -> EstimandRecord:
        """Look up a record by its label."""
        for rec in self.records:
            if rec.label == label:
                return rec
        raise KeyError(label)


class _RecordContext(NamedTuple):
    """What every record of one result reads, built once per result by
    _record_context: forms, the basis length k, per valid derivative order
    nu the pair (nu!, extractor_positions(nu, p, s, d)), and level, eff_n,
    h_left, h_right and the observed covariate bounds (lists, None
    without covariates) as the records hold them."""

    forms: ContrastForms
    k: int
    extractors: dict
    level: float
    eff_n: int
    h_left: float
    h_right: float
    w_low: Optional[list]
    w_high: Optional[list]


def _record_context(result: HteResult) -> _RecordContext:
    """The record context of result."""
    spec, sample = result.spec, result.sample
    p, s, d = spec.p, spec.s, sample.d
    bounds = sample.w_range
    low, high = (None, None) if bounds is None else (
        bound.tolist() for bound in bounds
    )
    return _RecordContext(
        forms=result.forms,
        k=n_params(p, s, d),
        extractors={
            nu: (float(math.factorial(nu)), extractor_positions(nu, p, s, d))
            for nu in range(min(p, s) + 1)
        },
        level=spec.level,
        eff_n=result.eff_n,
        h_left=result.h_left,
        h_right=result.h_right,
        w_low=low,
        w_high=high,
    )


def _make_record(result: HteResult, term: Term) -> EstimandRecord:
    """The record of term on result. Every record is built here, from the
    result's record context, so equal terms give equal records; a
    covariate point outside the observed covariate range is flagged
    extrapolated.

    The extractor is extractor_vector(nu, p, s, w, lead=lead), filled at
    the context's positions for nu; a nu outside [0, min(p, s)] raises
    NuOutOfRange.
    """
    label, lead, w, nu, at_point = term
    forms, k, extractors, level, eff_n, h_left, h_right, low, high = (
        result._context
    )
    if nu not in extractors:  # extractor_positions raises NuOutOfRange
        extractor_positions(nu, result.spec.p, result.spec.s, w.size)
    fact, pos = extractors[nu]
    evec = np.zeros(k)
    evec[pos[0]] = fact * lead
    evec[pos[1:]] = fact * w
    point = float(evec @ forms.jump)
    var = float(evec @ forms.plugin @ evec)
    bias_term = float(evec @ forms.bias)
    rbc = point - bias_term
    rbc_var = float(evec @ forms.rbc @ evec)
    rbc_se = math.sqrt(max(rbc_var, 0.0))
    lo, hi, z, p_val, zero = ci_pvalue(rbc, rbc_se, level)
    w_list = w.tolist()
    rec = object.__new__(EstimandRecord)
    rec.__dict__.update(
        label=label,
        lead=float(lead),
        w=tuple(w_list),
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
        level=level,
        zero_se=zero,
        extrapolated=at_point and low is not None and any(
            v < a or v > b for v, a, b in zip(w_list, low, high)
        ),
        eff_n=eff_n,
        h_left=h_left,
        h_right=h_right,
    )
    return rec


def _default_plan(d, nu, labels, kinds) -> list[Term]:
    """Default report set."""
    if d == 0:
        name = "RD effect" if nu == 0 else f"RD derivative (order {nu})"
        return [Term(name, 1.0, np.zeros(0), nu, False)]
    plan = [Term("Baseline (w=0)", 1.0, np.zeros(d), nu, False)]
    for ell in range(d):
        unit = np.zeros(d)
        unit[ell] = 1.0
        if kinds[ell] == "indicator":
            plan.append(Term(f"CATE: {labels[ell]}", 1.0, unit, nu, False))
            plan.append(Term(f"Diff: {labels[ell]}", 0.0, unit, nu, False))
        else:
            plan.append(Term(f"Slope: {labels[ell]}", 0.0, unit, nu, False))
    return plan


def _as_vector(what: str, value) -> np.ndarray:
    """value as a new float array, a scalar as one entry, else
    InvalidSetting naming it: text, None, complex numbers, mappings,
    ragged nesting and any other entry that is not a real number are
    refused, where numpy would raise an untyped error or read None as
    nan."""
    try:
        arr = np.array(value)
        if arr.dtype.kind == "O" and all(
            isinstance(v, numbers.Real) for v in arr.flat
        ):
            arr = arr.astype(float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or arr.dtype.kind not in "biuf":
        raise InvalidSetting(f"{what} must be real numbers, got {value!r}")
    if arr.dtype != np.float64:
        arr = arr.astype(np.float64)
    return np.atleast_1d(arr)


def _point_term(d: int, nu: int, w) -> Term:
    """The checked term of a covariate evaluation point."""
    w_arr = _as_vector("evaluation point", w)
    if w_arr.shape != (d,):
        raise DimensionMismatch(
            f"evaluation point has shape {w_arr.shape}, expected {(d,)}"
        )
    vals = w_arr.tolist()
    pretty = ", ".join(f"{v:g}" for v in vals)
    if not all(map(math.isfinite, vals)):
        raise NonFinite(-1, f"evaluation point w=({pretty})")
    return Term(f"CATE at w=({pretty})", 1.0, w_arr, nu, True)


def _selector_term(d: int, nu: int, selector: Selector) -> Term:
    """The checked term of a long-form selector; its own nu, if set,
    overrides nu."""
    vec = selector.vector
    if vec.shape != (1 + d,):
        raise DimensionMismatch(
            f"selector has shape {vec.shape}, expected {(1 + d,)}"
        )
    if not np.isfinite(vec).all():
        pretty = ", ".join(f"{v:g}" for v in vec)
        raise NonFinite(-1, f"selector ({pretty})")
    nu = nu if selector.nu is None else selector.nu
    return Term(selector.label, float(vec[0]), vec[1:].copy(), nu, False)


def _usable_cpus() -> int:
    """CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _process_count(tasks: int, size: int, min_size: int) -> int:
    """Processes to run tasks on, the caller included: one per usable CPU,
    at most tasks, when size is at least min_size, else 1.

    A fork copies only the forking thread, so a lock another thread holds
    stays locked in the child: any live thread keeps the run serial, as
    does a daemonic caller, which may not start children, and a platform
    without os.sched_getaffinity. multiprocessing is imported only for a
    run that may fork.
    """
    if (
        size < min_size
        or not hasattr(os, "sched_getaffinity")
        or threading.active_count() != 1
    ):
        return 1
    procs = min(_usable_cpus(), tasks)
    if procs < 2:
        return 1
    import multiprocessing

    return 1 if multiprocessing.current_process().daemon else procs


def _run_forked(fn: Callable, tasks: int, procs: int) -> dict:
    """{i: fn(i)} from the caller and procs - 1 forked children, each
    pulling the next task index below tasks from one shared counter.

    A process whose fn raises stops the counter for all and keeps no
    outcome for that task; every task left out is for the caller to run,
    in order, so that it raises what a serial loop raises. Every child is
    joined before this returns or raises.
    """
    # fork, not spawn: a spawned worker re-imports numpy and rdhte, which
    # costs more than the tasks it would take over
    import multiprocessing

    ctx = multiprocessing.get_context("fork")
    lock = ctx.Lock()
    counter = ctx.RawValue("l", 0)

    def stop() -> None:
        with lock:
            counter.value = tasks

    def pull() -> dict:
        done = {}
        while True:
            with lock:
                i = counter.value
                counter.value = i + 1
            if i >= tasks:
                return done
            try:
                done[i] = fn(i)
            except Exception:
                # the caller re-runs this task and raises the real exception
                stop()
                return done

    def child(conn) -> None:
        conn.send(pull())
        conn.close()

    outcomes = {}
    children = []
    try:
        for _ in range(procs - 1):
            recv_end, send_end = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=child, args=(send_end,),
                               name="rdhte-worker")
            proc.start()
            send_end.close()
            children.append((proc, recv_end))
        outcomes.update(pull())
    finally:
        stop()  # if the caller raised, the children end after their task
        for proc, recv_end in children:
            try:
                outcomes.update(recv_end.recv())
            except EOFError:  # the child died; its tasks are left out
                pass
            recv_end.close()
            proc.join()
    return outcomes


def _both_sides(fn, threaded: bool) -> tuple:
    """(fn("left"), fn("right")). Threaded, the right side runs on a worker
    thread that is joined before anything returns or raises; the left
    side's error wins, as in a left-then-right loop."""
    if not threaded:
        return fn("left"), fn("right")
    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(1, thread_name_prefix="rdhte-right-side") as pool:
        right = pool.submit(fn, "right")
        left = fn("left")
    return left, right.result()


def _read_only_stage(bias: BiasConstants) -> BiasConstants:
    """bias, with its arrays and its pilot fit's made read-only and its
    derived vectors computed: the sample keeps it, and every result of
    the sample at its (p, s, kernel) shares it."""
    pilot = bias.pilot_fit
    # bias (which computes pilot.theta) may hold inf at extreme scales, as
    # mse_bandwidth, which reads it under the same guard, allows
    with np.errstate(over="ignore", invalid="ignore"):
        vector = bias.bias
    for arr in (vector, pilot.theta, bias.routes,
                *(getattr(pilot, f.name) for f in fields(pilot))):
        if isinstance(arr, np.ndarray):
            arr.flags.writeable = False
    return bias


def _per_column(what: str, values, d: int, default) -> tuple:
    """values (default if None) as a tuple of one entry per covariate
    column: a lone text raises InvalidSetting, as it would otherwise be
    read as one entry per character, and a length other than d raises
    DimensionMismatch."""
    if values is None:
        return default
    if isinstance(values, str):
        raise InvalidSetting(f"{what} must be one text per column, "
                             f"got {values!r}")
    values = tuple(values)
    if len(values) != d:
        raise DimensionMismatch(f"expected {d} {what}, got {len(values)}")
    return values


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
    local polynomial on each side with its share of the contrast, and
    builds the default estimand report plus any requested covariate
    evaluation points.

    The pilot stage depends only on the sample, the side, p, s and the
    kernel, so the sample keeps it, read-only, per (side, p, s, kernel):
    a refit of the sample under another bandwidth rule, variance kind,
    nu, level or set of points runs only the two main-order fits, and its
    left.bias and right.bias are the first fit's. A failed pilot is not
    kept, so a refit raises the same error. dataclasses.replace(sample)
    gives a sample with no stored stages.

    When the smaller side holds at least PARALLEL_MIN_SIDE_ROWS rows and
    the process may use two or more CPUs, each stage runs the right side on
    a worker thread, joined before the stage ends; a pilot stage with both
    sides stored starts no thread. The result is bit-identical to the
    serial one, and the left side's error wins.

    Parameters
    ----------
    sample : RdSample
    spec : FitSpec
        Orders, kernel, bandwidth rule, variance kind, and level.
    at : sequence of covariate vectors, optional
        Extra CATE evaluation points, such as a list of tuples or an array
        of shape (points, d); each must have length d and hold real
        numbers. Points outside the observed covariate range are flagged,
        not rejected.
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
    TooFewObservations, SingularGram, BiasDegenerate, FormsDegenerate,
    DimensionMismatch, NonFinite, InvalidSetting, LeverageOne,
    TooFewClusters
    """
    p, s, kernel, vce = spec.p, spec.s, spec.kernel, spec.vce
    d = sample.d
    if at is None:
        at = ()
    labels = _per_column("labels", labels, d, tuple(
        f"w{ell + 1}" for ell in range(d)
    ))
    kinds = _per_column("kinds", kinds, d, sample.w_kinds)
    for kind in kinds:
        if kind not in ("indicator", "continuous"):
            raise InvalidSetting(f"unknown covariate kind {kind!r}")
    for label in labels:
        if not isinstance(label, str):
            raise InvalidSetting(f"covariate label {label!r} is not text")

    # reading SideView.n builds both side views, and reading _pilot_stages
    # makes the sample's pilot cache, on this thread before any worker
    # starts: cached_property takes no lock from Python 3.12 on
    threaded = (
        min(sample.side_view(side).n for side in ("left", "right"))
        >= PARALLEL_MIN_SIDE_ROWS
        and _usable_cpus() >= 2
    )
    stages = sample._pilot_stages

    def pilot_stage(side: str) -> BiasConstants:
        # a pure function of its key, so a refit reads the stored stage; a
        # failed pilot stores nothing and raises again on the next fit
        key = (side, p, s, kernel)
        if key not in stages:
            b = pilot_bandwidth(sample, side, p, s)
            stages[key] = _read_only_stage(
                bias_constants(sample, side, p, s, kernel, b)
            )
        return stages[key]

    # a worker thread only when both sides have a pilot to fit
    cold = not any((side, p, s, kernel) in stages
                   for side in ("left", "right"))
    bias_left, bias_right = _both_sides(pilot_stage, threaded and cold)
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
    try:
        at_points = iter(at)
    except TypeError:
        raise InvalidSetting(
            f"at must be a sequence of covariate points, got {at!r}"
        ) from None
    return HteResult(
        sample=sample,
        spec=spec,
        left=left,
        right=right,
        selection=selection,
        labels=labels,
        kinds=kinds,
        points=tuple(_point_term(d, spec.nu, w) for w in at_points),
    )


def cate_at(result: HteResult, w) -> EstimandRecord:
    """CATE record at a covariate point, with full inference.

    The point estimate is the baseline jump plus the coefficient jumps
    contracted with w; variance, bias correction, and interval come from
    the contrast forms in the result's record context (see HteResult),
    built with the result, so a call costs its extractor fill and four
    contractions, O(k^2) whatever the sample size, and builds nothing
    else the result already holds. Points outside the observed covariate
    range are flagged as extrapolated; non-finite ones raise NonFinite,
    and a point that is not real numbers (text, None, complex, a mapping)
    InvalidSetting.
    """
    term = _point_term(result.sample.d, result.spec.nu, w)
    return _make_record(result, term)


def contrast(result: HteResult, selector: Selector) -> EstimandRecord:
    """Estimand record for an arbitrary long-form selector.

    The selector's first entry weights the baseline jump and the rest
    weight the covariate-coefficient jumps; a selector of zeros yields a
    zero point estimate with zero variance, a non-finite one NonFinite.
    The record reads the result's record context, as cate_at's does.
    """
    term = _selector_term(result.sample.d, result.spec.nu, selector)
    return _make_record(result, term)
