"""Domain types, input validation, and heterogeneity-design expansion.

RdSample is the validated in-memory representation of an RD dataset. It
is immutable: validate_sample stores read-only views of y, x and w, and
each side's rows sorted by distance to the cutoff (SideView), like the
covariate kinds and ranges, are built once per sample, on first use, and
shared by every later fit.
CovariateSpec describes how raw columns become the heterogeneity matrix W:
categorical columns expand into one indicator per non-baseline level,
continuous columns into powers, quantile_bins columns into indicators for
empirical-quantile bins with the lowest bin as the dropped baseline.
"""

from __future__ import annotations

import itertools
import math
import numbers
import operator
from dataclasses import dataclass, field
from functools import cached_property
from typing import ClassVar, Optional, Sequence

import numpy as np

from .errors import (
    DegenerateQuantiles,
    EmptySample,
    InputError,
    InvalidSetting,
    LengthMismatch,
    MissingLabel,
    NonFinite,
    NonPositiveBandwidth,
    NuOutOfRange,
    TooFewObservations,
    UnknownLevel,
)
from .kernels import resolve_kernel

__all__ = [
    "RdSample",
    "SideView",
    "ColumnSpec",
    "CovariateSpec",
    "FitSpec",
    "Fixed",
    "Common",
    "Select",
    "CodedLabels",
    "validate_sample",
    "expand_covariates",
    "label_codes",
]

#: relative widening of a window's radius, so rounding in |x - c| and in
#: (x - c) / h cannot drop a row from the window
WINDOW_SLACK = 1.0 + 1e-9


def _as_order(name: str, value) -> int:
    """An integer setting as an int (operator.index), else InvalidSetting."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidSetting(
            f"{name} must be an integer, got {value!r}"
        ) from None


def _as_real(name: str, value) -> float:
    """A real-valued setting as a float, else InvalidSetting."""
    if not isinstance(value, numbers.Real):
        raise InvalidSetting(f"{name} must be a real number, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class SideView:
    """One side's rows ordered by their distance d = |x - c| to the cutoff.

    Attributes
    ----------
    order : ndarray of int, shape (n_side,)
        Row positions of the side's observations, ascending in d, ties in d
        by x moving away from the cutoff, so order also sorts x (ascending
        on the right, descending on the left); int32 when the sample has
        fewer than 2^31 rows.
    dist : ndarray, shape (n_side,)
        Those distances, sorted.
    sd, iqr : float
        Standard deviation (ddof 1) and interquartile range of the side's
        x values; nan when the side holds fewer than two observations, and
        inf or nan when the spread of x leaves the float range (the pilot
        bandwidth, which reads them, then raises BiasDegenerate).
    """

    order: np.ndarray
    dist: np.ndarray
    sd: float
    iqr: float

    @property
    def n(self) -> int:
        return self.dist.size

    def radius(self, m: int) -> float:
        """Bandwidth whose window holds the side's m nearest rows: the m-th
        distance widened by WINDOW_SLACK, as a Python float, so flags
        compared against it are bools that JSON accepts."""
        return float(self.dist[m - 1] * WINDOW_SLACK)


@dataclass(frozen=True)
class RdSample:
    """A sharp RD dataset: outcome, running variable, cutoff, covariates.

    Attributes
    ----------
    y : ndarray, shape (n,)
        Outcome.
    x : ndarray, shape (n,)
        Running variable; treatment is 1(x >= cutoff).
    cutoff : float
        Threshold c.
    w : ndarray, shape (n, d)
        Heterogeneity covariates (d may be 0).
    cluster : ndarray of int, shape (n,), optional
        Cluster codes 0..G-1 for cluster-robust variance (validate_sample
        relabels any labels to these dense codes).

    The per-side views, the covariate kinds and ranges and each side's
    pilot stage (one per (side, p, s, kernel), filled by fit_hte) are
    cached on the instance, so its arrays must not change after
    construction; dataclasses.replace gives a new sample with fresh caches.
    The pilot stages are not bounded: each (p, s, kernel) a sample is
    fitted at adds its pilot windows (about 8.7 MB at n = 1e6, p = s = 1,
    d = 1) until the sample is dropped or replaced.
    """

    y: np.ndarray
    x: np.ndarray
    cutoff: float
    w: np.ndarray
    cluster: Optional[np.ndarray] = None

    @property
    def n(self) -> int:
        return self.y.shape[0]

    @property
    def d(self) -> int:
        return self.w.shape[1]

    @cached_property
    def w_kinds(self) -> tuple[str, ...]:
        """Per covariate column, "indicator" if it is 0/1, else "continuous"."""
        return tuple(
            "indicator" if is_binary(col) else "continuous" for col in self.w.T
        )

    @cached_property
    def w_range(self) -> Optional[tuple[np.ndarray, np.ndarray]]:
        """Observed covariate (min, max) per column; None without covariates."""
        if self.d == 0 or self.n == 0:
            return None
        # column by column: numpy's axis-0 reduction over a few columns is
        # several times slower than one pass per column
        cols = self.w.T
        return (
            _read_only(np.array([col.min() for col in cols])),
            _read_only(np.array([col.max() for col in cols])),
        )

    @cached_property
    def _side_views(self) -> dict:
        return {}

    @cached_property
    def _pilot_stages(self) -> dict:
        return {}

    def side_view(self, side: str) -> SideView:
        """The side's rows sorted by distance to the cutoff, built once."""
        views = self._side_views
        if side not in views:
            pos = np.flatnonzero(self.side_mask(side))
            x_side = self.x[pos]
            # x - c rounds monotonically in x, so sorting x away from the
            # cutoff sorts the distances too, and the quartiles of x are
            # reads; a prefix cut by value never splits ties, so no stable
            # sort
            sorter = np.argsort(x_side)
            sd = iqr = float("nan")
            if pos.size >= 2:
                # the squares of huge x overflow: left to the pilot's check
                with np.errstate(over="ignore", invalid="ignore"):
                    sd = float(np.std(x_side, ddof=1))
                    iqr = _quantile(x_side, sorter, 0.75) - _quantile(
                        x_side, sorter, 0.25
                    )
            if side == "left":
                sorter = sorter[::-1]
            dist = np.subtract(x_side, self.cutoff, out=x_side)
            np.abs(dist, out=dist)
            if self.n < 2**31:
                pos = pos.astype(np.int32)
            views[side] = SideView(pos[sorter], dist[sorter], sd, iqr)
        return views[side]

    def side_mask(self, side: str) -> np.ndarray:
        """Boolean mask for one side: right is x >= cutoff, left is x < cutoff."""
        if side == "right":
            return self.x >= self.cutoff
        if side == "left":
            return self.x < self.cutoff
        raise ValueError(f"side must be 'left' or 'right', got {side!r}")


def _quantile(x: np.ndarray, sorter: np.ndarray, q: float) -> float:
    """np.quantile(x, q) of at least two values, read through x's argsort.

    Numpy's default (linear) method, operation for operation, so the
    result is numpy's bit for bit; it reads two elements where
    np.quantile copies and partitions x.
    """
    n = x.size
    virtual = n * q + (1 - q) - 1
    j = math.floor(virtual)
    gamma = virtual - j
    lo, hi = x[sorter[j]], x[sorter[min(j + 1, n - 1)]]
    diff = hi - lo
    if gamma >= 0.5:
        return float(hi - diff * (1 - gamma))
    return float(lo + diff * gamma)


def is_binary(values) -> bool:
    """True iff every value is 0 or 1: -0.0 counts as 0, NaN as neither,
    and an empty column is binary."""
    v = np.asarray(values)
    return bool(((v == 0) | (v == 1)).all())


def _read_only(arr: np.ndarray) -> np.ndarray:
    view = arr.view()
    view.flags.writeable = False
    return view


def _is_missing(label) -> bool:
    """None, NaN (the one label unequal to itself) or empty text."""
    return label is None or label != label or label == ""


@dataclass(frozen=True, eq=False)
class CodedLabels:
    """A column of labels as levels and one integer code a row: row i
    holds levels[codes[i]].

    validate_sample (cluster) and expand_covariates (any column kind) read
    it as the labels it stands for, with the same results and errors, but
    look at each level once; cli.load_csv returns text columns in this
    form. A level may repeat, and a level no code uses is not a label of
    the column.

    Raises
    ------
    InputError
        Unless codes is one-dimensional and of integers that index levels.
    """

    levels: Sequence
    codes: np.ndarray

    def __post_init__(self):
        if not isinstance(self.levels, list):
            object.__setattr__(self, "levels", list(self.levels))
        codes = np.asarray(self.codes)
        if codes.ndim != 1 or codes.dtype.kind not in "iu":
            raise InputError("codes must be a one-dimensional integer array")
        if codes.size and not 0 <= codes.min() <= codes.max() < len(
            self.levels
        ):
            raise InputError(
                f"codes must lie in [0, {len(self.levels)}), the positions "
                "of the levels"
            )
        object.__setattr__(self, "codes", codes)

    def __len__(self) -> int:
        return self.codes.size

    def tolist(self) -> list:
        """The labels, one a row."""
        return list(map(self.levels.__getitem__, self.codes.tolist()))


def _check_labels(column: str, levels, labels) -> None:
    """MissingLabel at the first missing label when levels, the distinct
    labels (None if they could not be sorted), hold one."""
    if levels is not None and not any(map(_is_missing, levels)):
        return
    if isinstance(labels, CodedLabels):
        missing = np.fromiter(map(_is_missing, labels.levels), bool,
                              len(labels.levels))[labels.codes]
        if missing.any():
            raise MissingLabel(int(missing.argmax()), column)
        return
    for row, label in enumerate(labels):
        if _is_missing(label):
            raise MissingLabel(row, column)


def label_codes(labels) -> tuple[list, np.ndarray]:
    """Sorted distinct labels, and each label's position among them.

    Numeric arrays are coded by np.unique; anything else by a set and a
    dict lookup per label, which beats np.unique's sort of every label on
    text and objects; an object array is read as it is. CodedLabels are
    coded by their levels that some code uses, as a list is, and each
    code is then mapped through that coding: O(n + L + G log G) for n
    rows, L levels and G distinct labels, with no work per row in Python.

    Raises
    ------
    TypeError
        If the labels cannot be ordered, e.g. numbers mixed with text.
    """
    if isinstance(labels, CodedLabels):
        used = np.zeros(len(labels.levels), dtype=bool)
        used[labels.codes] = True
        levels, ranks = label_codes(
            labels.levels if used.all()
            else list(itertools.compress(labels.levels, used.tolist()))
        )
        remap = np.empty(len(labels.levels), dtype=np.intp)
        remap[used] = ranks
        return levels, remap[labels.codes]
    if isinstance(labels, np.ndarray):
        if labels.dtype.kind in "biufc":
            levels, codes = np.unique(labels, return_inverse=True)
            return levels.tolist(), codes
        if labels.dtype.kind != "O":
            labels = labels.tolist()
    levels = sorted(set(labels))
    index = dict(zip(levels, range(len(levels))))
    codes = np.fromiter(map(index.__getitem__, labels), np.intp, len(labels))
    return levels, codes


def _check_finite(name: str, arr: np.ndarray) -> None:
    bad = ~np.isfinite(arr)
    if bad.any():
        if arr.ndim == 1:
            row = int(np.argmax(bad))
            raise NonFinite(row, name)
        rows, cols = np.nonzero(bad)
        raise NonFinite(int(rows[0]), f"{name}[{int(cols[0])}]")


def validate_sample(
    y,
    x,
    cutoff: float,
    w=None,
    cluster=None,
) -> RdSample:
    """Build a validated RdSample from array-likes.

    Parameters
    ----------
    y, x : array-like, shape (n,)
        Outcome and running variable.
    cutoff : float
        Threshold; must be a finite real number.
    w : array-like, shape (n, d), optional
        Heterogeneity covariates; omitted or empty means d = 0.
    cluster : array-like or CodedLabels, shape (n,), optional
        Cluster labels, numbers or text; a None, NaN or empty-text label
        is missing and rejected, as are labels that mix numbers and text.

    Returns
    -------
    RdSample
        Holds read-only views of y, x and w. A caller who changes an input
        array afterwards must call validate_sample again.

    Raises
    ------
    EmptySample, LengthMismatch, NonFinite, MissingLabel, InvalidSetting,
    InputError
    """
    y = np.ascontiguousarray(np.asarray(y, dtype=float))
    x = np.ascontiguousarray(np.asarray(x, dtype=float))
    if y.ndim != 1 or x.ndim != 1:
        raise LengthMismatch("y and x must be one-dimensional")
    n = y.shape[0]
    if n == 0:
        raise EmptySample("sample has no observations")
    if x.shape[0] != n:
        raise LengthMismatch(f"y has length {n}, x has length {x.shape[0]}")
    if w is None:
        w_arr = np.empty((n, 0))
    else:
        w_arr = np.asarray(w, dtype=float)
        if w_arr.ndim == 1:
            w_arr = w_arr[:, None]
        if w_arr.ndim != 2:
            raise LengthMismatch("w must be one- or two-dimensional")
        if w_arr.shape[0] != n:
            raise LengthMismatch(
                f"y has length {n}, w has {w_arr.shape[0]} rows"
            )
    cl = None
    if cluster is not None:
        cl_raw = cluster
        if not isinstance(cluster, CodedLabels):
            # a sequence is read as objects, or None and NaN among text
            # would become the labels 'None' and 'nan'
            obj = None if isinstance(cluster, np.ndarray) else object
            cl_raw = np.asarray(cluster, dtype=obj)
            if cl_raw.ndim != 1:
                raise LengthMismatch("cluster must be one-dimensional")
        if len(cl_raw) != n:
            raise LengthMismatch(
                f"y has length {n}, cluster has length {len(cl_raw)}"
            )
        # relabel to dense integer codes; preserves grouping only. None
        # cannot be ordered, so a failed sort may still be a missing label
        try:
            levels, cl = label_codes(cl_raw)
        except TypeError:
            levels = None
        _check_labels("cluster", levels, cl_raw)
        if levels is None:
            raise InputError("column 'cluster' mixes numbers and text")
    cutoff = _as_real("cutoff", cutoff)
    if not math.isfinite(cutoff):
        raise NonFinite(-1, "cutoff")
    _check_finite("y", y)
    _check_finite("x", x)
    _check_finite("w", w_arr)
    return RdSample(
        y=_read_only(y),
        x=_read_only(x),
        cutoff=cutoff,
        w=_read_only(w_arr),
        cluster=cl,
    )


# -- covariate expansion -------------------------------------------------------

@dataclass(frozen=True)
class ColumnSpec:
    """Expansion rule for one raw covariate column.

    kind:
        "continuous"    -> columns value, value^2, ..., value^power_max
        "binary"        -> single 0/1 column, passed through
        "categorical"   -> one indicator per non-baseline level
        "quantile_bins" -> indicators for empirical-quantile bins, lowest
                           bin dropped as baseline
    """

    name: str
    kind: str
    power_max: int = 1
    baseline: Optional[str] = None
    bins: int = 0

    def __post_init__(self):
        kinds = ("continuous", "binary", "categorical", "quantile_bins")
        if self.kind not in kinds:
            raise InvalidSetting(f"unknown column kind {self.kind!r}")
        for name in ("power_max", "bins"):
            value = _as_order(name, getattr(self, name))
            object.__setattr__(self, name, value)
        if self.kind == "continuous" and self.power_max < 1:
            raise InvalidSetting("continuous power_max must be >= 1")
        if self.kind == "quantile_bins" and self.bins < 2:
            raise InvalidSetting("quantile_bins requires bins >= 2")


@dataclass(frozen=True)
class CovariateSpec:
    """Ordered expansion rules for the heterogeneity covariates."""

    columns: tuple[ColumnSpec, ...]


def _expand_categorical(name: str, values, baseline: Optional[str]):
    """The labels of the column's levels, each value's level code and the
    baseline level's position."""
    if len(values) == 0:
        raise EmptySample(f"column {name!r} has no rows")
    # levels are the values' text; text values are coded as they are
    try:
        levels, codes = label_codes(values)
    except TypeError:
        levels = None
    _check_labels(name, levels, values)
    if levels is None or not all(isinstance(lev, str) for lev in levels):
        if isinstance(values, CodedLabels):
            text = CodedLabels([str(v) for v in values.levels], values.codes)
        else:
            text = [str(v) for v in values]
        levels, codes = label_codes(text)
    base = levels[0] if baseline is None else str(baseline)
    if base not in levels:
        raise UnknownLevel(
            f"baseline level {base!r} not observed in column {name!r}"
        )
    return [f"{name}={lev}" for lev in levels], codes, levels.index(base)


def _expand_quantile_bins(name: str, values, k: int):
    """The labels of the k bins, each value's bin and the baseline bin's
    position (the lowest)."""
    vals = np.asarray(values, dtype=float)
    _check_finite(name, vals)
    if np.unique(vals).size < k:
        raise DegenerateQuantiles(
            f"column {name!r}: need >= {k} distinct values for {k} bins"
        )
    probs = np.arange(1, k) / k
    cuts = np.quantile(vals, probs, method="linear")
    if np.unique(cuts).size < k - 1:
        raise DegenerateQuantiles(
            f"column {name!r}: fewer distinct cut points than bins"
        )
    # left-closed bins: bin j iff cuts[j-1] <= v < cuts[j]; bin 0 (baseline)
    # is v < cuts[0]
    assignment = np.searchsorted(cuts, vals, side="right")
    return [f"{name}:q{j + 1}" for j in range(k)], assignment, 0


def expand_covariates(raw: dict, spec: CovariateSpec):
    """Expand raw columns into the heterogeneity design W.

    Parameters
    ----------
    raw : dict
        Maps column name to a sequence of raw values (numeric for
        continuous/binary/quantile_bins, anything string-codeable for
        categorical, where a None, NaN or empty-text label is missing), or
        to CodedLabels, read as the values they stand for.
    spec : CovariateSpec
        Per-column expansion rules; output columns follow spec order.

    Returns
    -------
    (w, labels, kinds) : (ndarray (n, d_expanded), list of str, list of str)
        The design matrix, one label per expanded column, and the source
        kind of each expanded column ("indicator" for categorical/
        quantile_bins/binary columns, "continuous" for power columns).

    Raises
    ------
    UnknownLevel, DegenerateQuantiles, LengthMismatch, NonFinite,
    MissingLabel
    TooFewObservations
        Before W is allocated, if it has d >= 1 columns but 0 < n < 4 + 4d
        rows: each side's pilot fit needs n_params(p + 1, s + 1, d) >=
        2 + 2d rows, so no fit on these rows can use W.
    """
    labels: list[str] = []
    kinds: list[str] = []
    # every column is checked before W is allocated, and kept as (name,
    # width, its columns of W): indicators still to be made from level
    # codes, or the checked powers of its values
    parts = []
    n_ref = None
    for cs in spec.columns:
        if cs.name not in raw:
            raise LengthMismatch(f"column {cs.name!r} missing from raw table")
        values = raw[cs.name]
        if isinstance(values, CodedLabels) and cs.kind != "categorical":
            values = values.tolist()
        n_here = len(values)
        if n_ref is None:
            n_ref = n_here
        elif n_here != n_ref:
            raise LengthMismatch(
                f"column {cs.name!r} has {n_here} rows, expected {n_ref}"
            )
        if cs.kind in ("categorical", "quantile_bins"):
            if cs.kind == "categorical":
                levels, codes, base = _expand_categorical(
                    cs.name, values, cs.baseline
                )
            else:
                levels, codes, base = _expand_quantile_bins(
                    cs.name, values, cs.bins
                )
            keys = [j for j in range(len(levels)) if j != base]
            labels += [levels[j] for j in keys]
            kinds += ["indicator"] * len(keys)
            parts.append((cs.name, len(keys), map(codes.__eq__, keys)))
        elif cs.kind == "binary":
            vals = np.asarray(values, dtype=float)
            _check_finite(cs.name, vals)
            if not is_binary(vals):
                raise UnknownLevel(
                    f"binary column {cs.name!r} has values outside {{0, 1}}"
                )
            labels.append(cs.name)
            kinds.append("indicator")
            parts.append((cs.name, 1, [vals]))
        else:
            vals = np.asarray(values, dtype=float)
            _check_finite(cs.name, vals)
            powers = [vals]
            labels.append(cs.name)
            for power in range(2, cs.power_max + 1):
                labels.append(f"{cs.name}^{power}")
                # a finite value may overflow once raised to the power
                with np.errstate(over="ignore"):
                    powers.append(vals**power)
                _check_finite(labels[-1], powers[-1])
            kinds += ["continuous"] * cs.power_max
            parts.append((cs.name, cs.power_max, powers))
    n, d = n_ref or 0, len(labels)
    # no rows at all is an EmptySample, raised by validate_sample
    if d and 0 < n < 4 + 4 * d:
        name, width, _ = max(parts, key=lambda part: part[1])
        raise TooFewObservations(
            f"column {name!r} expands to {width} of {d} covariate columns, "
            f"more than a fit on {n} rows can use (at most "
            f"{max(n - 4, 0) // 4})"
        )
    w = np.empty((n, d))
    columns = itertools.chain.from_iterable(part[2] for part in parts)
    for j, column in enumerate(columns):
        w[:, j] = column
    return w, labels, kinds


# -- fit specification ---------------------------------------------------------

def _as_bandwidth(name: str, value) -> float:
    """A bandwidth as a float; NonPositiveBandwidth unless 0 < h < inf."""
    h = _as_real(name, value)
    # false for nan too
    if not 0.0 < h < math.inf:
        raise NonPositiveBandwidth(
            f"bandwidths must be finite and > 0, got {h}"
        )
    return h


@dataclass(frozen=True)
class Fixed:
    """Per-side fixed bandwidths."""

    h_left: float
    h_right: float
    mode: ClassVar[str] = "fixed"

    def __post_init__(self):
        for name in ("h_left", "h_right"):
            value = _as_bandwidth(name, getattr(self, name))
            object.__setattr__(self, name, value)


@dataclass(frozen=True)
class Common:
    """One bandwidth shared by both sides."""

    h: float
    mode: ClassVar[str] = "fixed"

    def __post_init__(self):
        object.__setattr__(self, "h", _as_bandwidth("h", self.h))

    @property
    def h_left(self) -> float:
        return self.h

    @property
    def h_right(self) -> float:
        return self.h


@dataclass(frozen=True)
class Select:
    """Data-driven MSE-optimal selection: one bandwidth per side or a
    single two-sided bandwidth."""

    mode: str = "two_sided"

    def __post_init__(self):
        if self.mode not in ("one_sided", "two_sided"):
            raise InvalidSetting(f"unknown selection mode {self.mode!r}")


@dataclass(frozen=True)
class FitSpec:
    """Estimation settings for an interacted local polynomial RD fit.

    Attributes
    ----------
    p : int
        Main polynomial order (>= 0).
    s : int
        Interaction polynomial order (>= 0).
    nu : int
        Derivative order of the target, 0 <= nu <= min(p, s); 0 for level
        effects, 1 for kink designs.
    kernel : str
        "triangular" (default), "uniform", or "epanechnikov".
    bandwidth : Fixed | Common | Select
    vce : str
        "hc0" | "hc1" | "hc2" | "hc3" | "cluster".
    level : float
        Confidence level in (0, 1).
    """

    p: int = 1
    s: int = 1
    nu: int = 0
    kernel: str = "triangular"
    bandwidth: Fixed | Common | Select = field(default_factory=Select)
    vce: str = "hc3"
    level: float = 0.95

    def __post_init__(self):
        for name in ("p", "s", "nu"):
            value = _as_order(name, getattr(self, name))
            object.__setattr__(self, name, value)
        object.__setattr__(self, "level", _as_real("level", self.level))
        if self.p < 0 or self.s < 0:
            raise InvalidSetting("polynomial orders must be >= 0")
        if not 0 <= self.nu <= min(self.p, self.s):
            raise NuOutOfRange(
                f"nu={self.nu} outside [0, min(p,s)={min(self.p, self.s)}]"
            )
        object.__setattr__(self, "kernel", resolve_kernel(self.kernel))
        if self.vce not in ("hc0", "hc1", "hc2", "hc3", "cluster"):
            raise InvalidSetting(f"unknown vce {self.vce!r}")
        if not 0.0 < self.level < 1.0:
            raise InvalidSetting("level must be in (0, 1)")
