"""Independent oracles the tests check the estimator against.

Each takes a different route to a quantity the package computes: a
single-point basis builder, a window found by scanning every row, a side
fit's Gram summed over its rows, weighted least squares through the
normal equations, a side fit through scipy's QR with an explicit Q, the
long interacted regression whose blocks the two one-sided fits must
reproduce, a CSV reader that takes every row through csv.reader, and
within-cluster sums by np.add.at.
"""

from __future__ import annotations

import csv

import numpy as np
import scipy.linalg

from rdhte.basis import design_rows, poly_basis
from rdhte.errors import InputError, MissingColumn
from rdhte.fitting import SideFit, fit_side
from rdhte.kernels import kernel_eval
from rdhte.model import RdSample


class RankDeficient(Exception):
    """The weighted design does not have full column rank."""


def interacted_basis(u: float, w, p: int, s: int) -> np.ndarray:
    """Interacted basis vector r(u, w) at a single point.

    Concatenates poly_basis(u, p) with w_l * poly_basis(u, s) for each
    covariate l in order. Length 1 + p + d*(1+s).
    """
    w = np.atleast_1d(np.asarray(w, dtype=float))
    main = poly_basis(u, p)
    if w.size == 0:
        return main
    inter = np.kron(w, poly_basis(u, s))
    return np.concatenate([main, inter])


def full_scan_window(sample: RdSample, side: str, h: float, kernel: str):
    """One side's window from the kernel evaluated on every row.

    Returns (idx, weights, u, kvals): the rows on the side with
    K((x - c)/h) > 0 in ascending order, K/h, the scaled distances and K.
    """
    u_all = (sample.x - sample.cutoff) / h
    k_all = kernel_eval(u_all, kernel)
    idx = np.flatnonzero(sample.side_mask(side) & (k_all > 0.0))
    return idx, k_all[idx] / h, u_all[idx], k_all[idx]


def gram(fit: SideFit) -> np.ndarray:
    """The fit's scaled Gram (1/(n h)) sum_i K(u_i) r_i r_i', summed
    directly over its window rows; fit_side never forms it (it is r'r)."""
    wts = fit.kvals / (fit.n_total * fit.h)
    return (fit.design * wts[:, None]).T @ fit.design


def oracle_wls(design: np.ndarray, weights: np.ndarray, y: np.ndarray):
    """Weighted least squares by pivoted LU on the normal equations.

    Deliberately a different dense route than the estimator's solver so
    the two can cross-check each other.

    Raises
    ------
    RankDeficient
        If the weighted design does not have full column rank.
    """
    design = np.asarray(design, dtype=float)
    weights = np.asarray(weights, dtype=float)
    y = np.asarray(y, dtype=float)
    sqw = np.sqrt(weights)
    wd = design * sqw[:, None]
    if np.linalg.matrix_rank(wd) < design.shape[1]:
        raise RankDeficient(
            f"weighted design has rank < {design.shape[1]}"
        )
    xtwx = wd.T @ wd
    xtwy = wd.T @ (y * sqw)
    return scipy.linalg.solve(xtwx, xtwy, assume_a="sym")


def householder_fit(sample: RdSample, side: str, h: float, p: int, s: int,
                    kernel: str):
    """Side-fit coefficients and leverages through an explicit thin Q.

    scipy's economic QR of the same weighted design as fit_side, then
    beta = R^-1 Q' sqrt(w) y by a triangular solve and the leverages as
    the squared row norms of Q.
    """
    idx, _, u, kvals = full_scan_window(sample, side, h, kernel)
    design = design_rows(u, sample.w[idx], p, s)
    sqw = np.sqrt(kvals / (sample.n * h))
    q, r = scipy.linalg.qr(design * sqw[:, None], mode="economic")
    beta = scipy.linalg.solve_triangular(r, q.T @ (sqw * sample.y[idx]))
    return beta, np.einsum("ij,ij->i", q, q)


def long_regression(sample: RdSample, left: SideFit, right: SideFit):
    """Design, kernel weights and outcomes of the long interacted regression.

    The long regression puts Y on (r(u, W)', T r(u, W)') over both windows
    with their kernel weights, T the treatment indicator. By the
    partitioned regression theorem its non-T blocks equal the left fit and
    its T-interacted blocks the right-minus-left coefficient differences.
    """
    idx = np.concatenate([left.idx, right.idx])
    u = np.concatenate(
        [(sample.x[fit.idx] - sample.cutoff) / fit.h for fit in (left, right)]
    )
    t = np.concatenate([np.zeros(left.idx.size), np.ones(right.idx.size)])
    base = design_rows(u, sample.w[idx], left.p, left.s)
    kv = np.concatenate([left.kvals, right.kvals])
    return np.hstack([base, base * t[:, None]]), kv, sample.y[idx]


def long_short_max_relative_error(
    sample: RdSample, h: float, p: int, s: int, kernel: str
) -> float:
    """Max relative gap between the long interacted regression, solved by
    lstsq, and the two short one-sided fits.

    Raises SingularGram if either short fit fails.
    """
    left = fit_side(sample, "left", h, p, s, kernel)
    right = fit_side(sample, "right", h, p, s, kernel)
    design, kv, y = long_regression(sample, left, right)
    sqw = np.sqrt(kv)
    coef, *_ = np.linalg.lstsq(design * sqw[:, None], y * sqw, rcond=None)
    short = np.concatenate(
        [left.theta_norm, right.theta_norm - left.theta_norm]
    )
    scale = max(float(np.max(np.abs(short))), 1e-300)
    return float(np.max(np.abs(coef - short))) / scale


def reference_load_csv(path, columns) -> dict[str, list[str]]:
    """The named columns of a headered CSV, every row through csv.reader.

    Short rows are padded with empty cells and extra cells are ignored, as
    in rdhte.cli.load_csv, which must return the same lists.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required")
        for name in columns:
            if name not in header:
                raise MissingColumn(name)
            if header.count(name) > 1:
                raise InputError(f"{path}: column {name!r} appears more "
                                 "than once in the header")
        out = {name: [] for name in columns}
        want = [(name, header.index(name)) for name in out]
        for row in reader:
            for name, j in want:
                out[name].append(row[j] if j < len(row) else "")
    return out


def decoded(text) -> dict[str, list[str]]:
    """The text columns load_csv returns, each as the list of its cells."""
    return {name: column.tolist() for name, column in text.items()}


def add_at_cluster_sums(cluster, idx, values) -> np.ndarray:
    """Sums of values over the clusters of rows idx by np.add.at, one row
    per cluster in order of first appearance in idx."""
    labels = cluster[idx]
    uniq, first, codes = np.unique(
        labels, return_index=True, return_inverse=True
    )
    rank = np.empty(uniq.size, dtype=np.intp)
    rank[np.argsort(first)] = np.arange(uniq.size)
    sums = np.zeros((uniq.size,) + values.shape[1:])
    np.add.at(sums, rank[codes], values)
    return sums
