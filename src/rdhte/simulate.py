"""Data generation and the Monte Carlo harness.

Outcomes are generated with a cutoff-side-specific conditional mean that
is linear in the covariates with polynomial-in-x coefficient functions,
so the fitted model is correctly specified by construction and every
preset has a closed-form true effect at the cutoff.

Replication r of a run seeded with s draws from
numpy.random.default_rng((s, r)), so replications can be re-ordered or
partitioned across workers without changing any drawn value; reports
aggregate the records of the successful replications in replication
order, which makes them bit-for-bit reproducible for a given (seed, reps).
Large runs use that to split their replications across forked workers
(see monte_carlo).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import asdict, dataclass, field, replace
from typing import Optional, Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import AllReplicationsFailed, EstimationError, InvalidSetting
from .estimands import (
    EstimandRecord,
    Selector,
    _make_record,
    _point_term,
    _process_count,
    _run_forked,
    _selector_term,
    fit_hte,
)
from .model import FitSpec, RdSample, _as_order, _as_real, validate_sample

__all__ = [
    "DgpConfig",
    "gen_sample",
    "true_cate",
    "TargetReport",
    "McReport",
    "monte_carlo",
    "canonical_preset",
    "inflated_curvature_preset",
]

#: a run drawing at least this many rows in all (reps * n) splits its
#: replications between the calling process and forked workers
PARALLEL_MIN_DRAWS = 50_000

#: (law, kind) -> (parameter count, domain of the finite parameters); a
#: categorical law's one parameter holds its categories' probabilities
_LAWS = {
    ("running", "uniform"): (2, lambda lo, hi: lo < hi),
    ("running", "beta"): (2, lambda a, b: a > 0 and b > 0),
    ("noise", "constant"): (1, lambda sd: sd >= 0),
    ("noise", "affine"): (2, lambda a, b: a >= 0 and b >= 0),
    ("covariate", "binary"): (1, lambda p: 0 <= p <= 1),
    ("covariate", "uniform"): (2, lambda lo, hi: lo < hi),
    ("covariate", "categorical"):
        (1, lambda *p: len(p) > 1 and min(p) >= 0 and sum(p) > 0),
}


def _check_law(what: str, law) -> None:
    """InvalidSetting unless law is a known (kind, parameters...) law of
    its kind's arity with finite real parameters inside its domain."""
    kind = law[0] if isinstance(law, (tuple, list)) and law else law
    if not isinstance(kind, str) or (what, kind) not in _LAWS:
        raise InvalidSetting(f"unknown {what} law {kind!r}")
    count, domain = _LAWS[what, kind]
    if len(law) - 1 != count:
        raise InvalidSetting(
            f"{what} law {kind!r} takes {count} parameter(s), got {law!r}"
        )
    params = np.ravel(law[1]).tolist() if kind == "categorical" else law[1:]
    values = [_as_real(f"{what} law {kind!r} parameter", v) for v in params]
    if not (all(map(math.isfinite, values)) and domain(*values)):
        raise InvalidSetting(f"{what} law {law!r} is outside its domain")


def _check_coefficients(name: str, coefs) -> None:
    """InvalidSetting unless coefs is a non-empty sequence of finite reals."""
    try:
        values = list(coefs)
    except TypeError:
        values = []
    if not values or not all(
        isinstance(v, numbers.Real) and math.isfinite(v) for v in values
    ):
        raise InvalidSetting(
            f"{name} must be a non-empty sequence of finite real numbers, "
            f"got {coefs!r}"
        )


@dataclass(frozen=True)
class DgpConfig:
    """Sharp RD data-generating process with linear-in-w heterogeneity.

    Polynomial coefficient tuples are ascending in x. lam_left/lam_right
    hold one coefficient tuple per generated covariate column: covariates
    holds ("binary", p), ("uniform", lo, hi) and ("categorical", (p_0, ...,
    p_{k-1})) laws, a categorical one generating k-1 indicator columns
    (category 0 is the omitted baseline). noise is ("constant", sigma) or
    ("affine", a, b) for sd a + b|x|, all >= 0; running is ("uniform", lo,
    hi) with lo < hi or ("beta", a, b) with a, b > 0 mapped onto [-1, 1].
    A malformed law, a coefficient tuple that is empty or holds an entry
    that is not a finite real number, or a cutoff that is not one, raises
    InvalidSetting; the cutoff is stored as a float.
    """

    alpha_left: tuple = (0.0,)
    alpha_right: tuple = (0.0,)
    lam_left: tuple = ()
    lam_right: tuple = ()
    covariates: tuple = ()
    noise: tuple = ("constant", 1.0)
    running: tuple = ("uniform", -1.0, 1.0)
    cutoff: float = 0.0

    def __post_init__(self):
        cutoff = _as_real("cutoff", self.cutoff)
        if not math.isfinite(cutoff):
            raise InvalidSetting(f"cutoff must be finite, got {cutoff!r}")
        object.__setattr__(self, "cutoff", cutoff)
        _check_law("running", self.running)
        _check_law("noise", self.noise)
        for law in self.covariates:
            _check_law("covariate", law)
        _check_coefficients("alpha_left", self.alpha_left)
        _check_coefficients("alpha_right", self.alpha_right)
        d = self.n_columns
        try:
            counts = len(self.lam_left), len(self.lam_right)
        except TypeError:
            raise InvalidSetting(
                "lam_left and lam_right must be sequences of coefficient "
                "tuples"
            ) from None
        if counts != (d, d):
            raise InvalidSetting(
                f"need {d} coefficient tuples per side for the generated "
                f"covariate columns, got {counts[0]} left / {counts[1]} right"
            )
        for side in ("left", "right"):
            for ell, coefs in enumerate(getattr(self, f"lam_{side}")):
                _check_coefficients(f"lam_{side}[{ell}]", coefs)

    @property
    def n_columns(self) -> int:
        return sum(
            np.size(law[1]) - 1 if law[0] == "categorical" else 1
            for law in self.covariates
        )


def _draw_running(rng: np.random.Generator, law, n: int) -> np.ndarray:
    if law[0] == "uniform":
        return rng.uniform(law[1], law[2], size=n)
    return 2.0 * rng.beta(law[1], law[2], size=n) - 1.0


def _draw_covariates(rng, laws, n: int) -> np.ndarray:
    cols = []
    for law in laws:
        if law[0] == "binary":
            cols.append(rng.binomial(1, law[1], size=n).astype(float))
        elif law[0] == "uniform":
            cols.append(rng.uniform(law[1], law[2], size=n))
        else:
            probs = np.asarray(law[1], dtype=float)
            cats = rng.choice(probs.size, size=n, p=probs / probs.sum())
            for level in range(1, probs.size):
                cols.append((cats == level).astype(float))
    if not cols:
        return np.empty((n, 0))
    return np.column_stack(cols)


def _noise_sd(noise, x: np.ndarray) -> np.ndarray:
    if noise[0] == "constant":
        return np.full_like(x, float(noise[1]))
    return noise[1] + noise[2] * np.abs(x)


def conditional_mean(config: DgpConfig, x: np.ndarray, w: np.ndarray):
    """E[Y | X=x, W=w] under the config, by side of the cutoff."""
    right = x >= config.cutoff
    mu = np.where(
        right,
        npoly.polyval(x, config.alpha_right),
        npoly.polyval(x, config.alpha_left),
    )
    for ell in range(config.n_columns):
        lam = np.where(
            right,
            npoly.polyval(x, config.lam_right[ell]),
            npoly.polyval(x, config.lam_left[ell]),
        )
        mu = mu + lam * w[:, ell]
    return mu


def gen_sample(config: DgpConfig, n: int, seed) -> RdSample:
    """Draw one sample; deterministic given (config, n, seed).

    Draw order is fixed (running variable, covariates, then noise), so any
    two calls with equal arguments produce identical arrays. n must be an
    integer >= 1, else InvalidSetting.
    """
    n = _as_order("n", n)
    if n < 1:
        raise InvalidSetting(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)
    x = _draw_running(rng, config.running, n)
    w = _draw_covariates(rng, config.covariates, n)
    mu = conditional_mean(config, x, w)
    y = mu + _noise_sd(config.noise, x) * rng.standard_normal(n)
    return validate_sample(y, x, config.cutoff, w if w.shape[1] else None)


def true_cate(config: DgpConfig, w) -> float:
    """True effect at the cutoff for covariate value w."""
    c = config.cutoff
    theta = float(
        npoly.polyval(c, config.alpha_right)
        - npoly.polyval(c, config.alpha_left)
    )
    w_arr = np.atleast_1d(np.asarray(w, dtype=float))
    for ell in range(config.n_columns):
        xi = float(
            npoly.polyval(c, config.lam_right[ell])
            - npoly.polyval(c, config.lam_left[ell])
        )
        theta += xi * w_arr[ell]
    return theta


@dataclass(frozen=True)
class TargetReport:
    """Monte Carlo summary for one estimand target."""

    label: str
    truth: float
    reps_ok: int
    mean_bias: float
    mean_bias_rbc: float
    rmse: float
    rmse_rbc: float
    sd: float
    sd_rbc: float
    mean_se_plugin: float
    mean_se_rbc: float
    coverage: float
    level: float
    mean_h: float
    degenerate: bool

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class McReport:
    """Aggregate Monte Carlo report."""

    reps: int
    n: int
    seed: int
    failures: int
    targets: tuple[TargetReport, ...] = field(default_factory=tuple)

    @property
    def failure_rate(self) -> float:
        return self.failures / self.reps

    def to_dict(self) -> dict:
        return {
            "schema": "rdhte/1",
            "monte_carlo": {
                "reps": self.reps,
                "n": self.n,
                "seed": self.seed,
                "failures": self.failures,
                "failure_rate": self.failure_rate,
                "targets": [t.to_dict() for t in self.targets],
            },
        }


def _target_plan(config: DgpConfig, spec: FitSpec, targets) -> list:
    """(Term, truth) of each (target, truth), checked once against the
    config's covariate columns, as cate_at and contrast check them; a
    truth must be a finite real number."""
    d = config.n_columns
    plan = []
    for target, truth in targets:
        truth = _as_real("truth", truth)
        if not math.isfinite(truth):
            raise InvalidSetting(f"truth must be finite, got {truth}")
        make = _selector_term if isinstance(target, Selector) else _point_term
        plan.append((make(d, spec.nu, target), truth))
    return plan


def monte_carlo(
    config: DgpConfig,
    spec: FitSpec,
    reps: int,
    n: int,
    seed: int,
    targets: Sequence[tuple],
) -> McReport:
    """Run the estimator over repeated draws and summarize per target.

    Parameters
    ----------
    reps, n, seed : int
        Replications, sample size of each, and the run's seed (>= 0).
    targets : sequence of (target, truth)
        target is a covariate vector (effect at that point) or a Selector;
        truth is the value bias and coverage are measured against. Each
        target is checked against the config's covariate columns, and
        each truth for being a finite real number, before the first
        replication.

    Replications that fail estimation are counted and excluded from the
    summaries.

    When reps * n is at least PARALLEL_MIN_DRAWS, the process may use two
    or more CPUs, no other thread is alive and the caller is not a
    daemonic process, the replications are shared between the caller and
    forked worker processes, one per further CPU (at most reps in all).
    Each process pulls the next replication index from a shared counter,
    so faster CPUs run more replications. Every replication draws from its
    own (seed, rep) stream and the records are aggregated in replication
    order, so the report is bit-identical to the serial one. Any other
    error is raised at the replication the serial loop would raise at,
    and no worker outlives the call. The gate and the scheduler are the
    ones the CLI's CSV reader forks with (estimands._process_count and
    _run_forked); only the size test differs.

    Raises
    ------
    InvalidSetting
        If reps, n or seed is not an integer, reps or n is below 1, seed
        is negative, a truth is not a finite real number, or a target is
        not real numbers, as in cate_at and Selector.
    DimensionMismatch, NonFinite
        If a target does not fit the covariate columns, as in cate_at and
        contrast.
    AllReplicationsFailed
        If no replication produces estimates.
    """
    reps = _as_order("reps", reps)
    n = _as_order("n", n)
    seed = _as_order("seed", seed)
    if reps < 1:
        raise InvalidSetting(f"reps must be >= 1, got {reps}")
    if n < 1:
        raise InvalidSetting(f"n must be >= 1, got {n}")
    if seed < 0:
        raise InvalidSetting(f"seed must be >= 0, got {seed}")

    plan = _target_plan(config, spec, targets)

    def replicate(rep: int) -> Optional[list[EstimandRecord]]:
        """The target records of one replication, None if it fails."""
        sample = gen_sample(config, n, (seed, rep))
        try:
            result = fit_hte(sample, spec)
            return [_make_record(result, term) for term, _ in plan]
        except EstimationError:
            return None

    procs = _process_count(reps, reps * n, PARALLEL_MIN_DRAWS)
    outcomes = _run_forked(replicate, reps, procs) if procs > 1 else {}
    kept = []  # the target records of each successful replication, in order
    for rep in range(reps):
        # the serial loop, and after a forked run the reps it left out: the
        # first of those that raises is the one the serial loop raises at
        records = outcomes[rep] if rep in outcomes else replicate(rep)
        if records is not None:
            kept.append(records)

    n_ok = len(kept)
    if n_ok == 0:
        raise AllReplicationsFailed(
            f"all {reps} replications failed estimation"
        )

    out = []
    # zip(*kept) regroups the records by target
    for (_, truth), recs in zip(plan, zip(*kept)):
        pt = np.array([rec.point for rec in recs])
        rb = np.array([rec.rbc_point for rec in recs])
        h = np.array([0.5 * (rec.h_left + rec.h_right) for rec in recs])
        err = pt - truth
        err_rbc = rb - truth
        out.append(
            TargetReport(
                label=recs[0].label,
                truth=truth,
                reps_ok=n_ok,
                mean_bias=float(np.mean(err)),
                mean_bias_rbc=float(np.mean(err_rbc)),
                rmse=float(np.sqrt(np.mean(err**2))),
                rmse_rbc=float(np.sqrt(np.mean(err_rbc**2))),
                sd=float(np.std(pt, ddof=1)) if n_ok > 1 else 0.0,
                sd_rbc=float(np.std(rb, ddof=1)) if n_ok > 1 else 0.0,
                mean_se_plugin=float(np.mean([rec.se for rec in recs])),
                mean_se_rbc=float(np.mean([rec.rbc_se for rec in recs])),
                coverage=float(np.mean(
                    [rec.ci_low <= truth <= rec.ci_high for rec in recs]
                )),
                level=spec.level,
                mean_h=float(np.mean(h)),
                # numerically-zero intervals (exact-fit DGPs leave float-noise
                # residuals) make coverage meaningless just like exact zeros
                degenerate=any(
                    rec.zero_se
                    or rec.rbc_se <= 1e-12 * max(1.0, abs(rec.rbc_point))
                    for rec in recs
                ),
            )
        )
    return McReport(
        reps=reps,
        n=n,
        seed=seed,
        failures=reps - n_ok,
        targets=tuple(out),
    )


def canonical_preset() -> DgpConfig:
    """Reference DGP: one symmetric binary covariate, curvature on both
    sides, constant noise. True effects at the cutoff: 0.5 at w=0, 0.9 at
    w=1."""
    return DgpConfig(
        alpha_left=(0.5, 0.8, -0.6),
        alpha_right=(1.0, 0.6, 0.9),
        lam_left=((0.3, 0.2),),
        lam_right=((0.7, -0.1),),
        covariates=(("binary", 0.5),),
        noise=("constant", 0.5),
        running=("uniform", -1.0, 1.0),
        cutoff=0.0,
    )


def inflated_curvature_preset() -> DgpConfig:
    """Canonical preset with quadratic terms scaled up fourfold, so the
    leading smoothing bias is large enough to dominate the noise."""
    return replace(
        canonical_preset(),
        alpha_left=(0.5, 0.8, -2.4),
        alpha_right=(1.0, 0.6, 3.6),
    )
