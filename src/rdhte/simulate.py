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
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field, replace
from typing import Sequence

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import AllReplicationsFailed, EstimationError
from .estimands import HteResult, Selector, cate_at, contrast, fit_hte
from .model import FitSpec, RdSample, validate_sample

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

#: running-variable laws: ("uniform", lo, hi) or ("beta", a, b) rescaled
#: to [-1, 1]
_RUNNING_KINDS = ("uniform", "beta")


# covariate laws: ("binary", p), ("uniform", lo, hi),
# ("categorical", p_0..p_{k-1}) which expands to k-1 indicator columns
# (category 0 is the omitted baseline); an unknown law raises here
def _law_columns(law) -> int:
    kind = law[0]
    if kind in ("binary", "uniform"):
        return 1
    if kind == "categorical":
        return len(law[1]) - 1
    raise ValueError(f"unknown covariate law {kind!r}")


@dataclass(frozen=True)
class DgpConfig:
    """Sharp RD data-generating process with linear-in-w heterogeneity.

    Polynomial coefficient tuples are ascending in x. lam_left/lam_right
    hold one coefficient tuple per generated covariate column (a
    categorical law generates one column per non-baseline category).

    noise is ("constant", sigma) or ("affine", a, b) for sd a + b|x|;
    running is ("uniform", lo, hi) or ("beta", a, b) mapped onto [-1, 1].
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
        d = self.n_columns
        if len(self.lam_left) != d or len(self.lam_right) != d:
            raise ValueError(
                f"need {d} coefficient tuples per side for the generated "
                f"covariate columns, got {len(self.lam_left)} left / "
                f"{len(self.lam_right)} right"
            )
        if self.running[0] not in _RUNNING_KINDS:
            raise ValueError(f"unknown running law {self.running[0]!r}")
        if self.noise[0] not in ("constant", "affine"):
            raise ValueError(f"unknown noise law {self.noise[0]!r}")
        if any(v < 0 for v in self.noise[1:]):
            raise ValueError("noise sd parameters must be >= 0")

    @property
    def n_columns(self) -> int:
        return sum(_law_columns(law) for law in self.covariates)


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
    two calls with equal arguments produce identical arrays.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
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


def _target_record(result: HteResult, target):
    if isinstance(target, Selector):
        return contrast(result, target)
    return cate_at(result, target)


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
    targets : sequence of (target, truth)
        target is a covariate vector (effect at that point) or a Selector;
        truth is the value bias and coverage are measured against.

    Replications that fail estimation are counted and excluded from the
    summaries.

    Raises
    ------
    AllReplicationsFailed
        If no replication produces estimates.
    """
    if reps < 1:
        raise ValueError("reps must be >= 1")
    kept = []  # the target records of each successful replication, in order
    for rep in range(reps):
        sample = gen_sample(config, n, (seed, rep))
        try:
            result = fit_hte(sample, spec)
            kept.append([_target_record(result, t) for t, _ in targets])
        except EstimationError:
            pass

    n_ok = len(kept)
    if n_ok == 0:
        raise AllReplicationsFailed(
            f"all {reps} replications failed estimation"
        )

    out = []
    # zip(*kept) regroups the records by target
    for (_, truth), recs in zip(targets, zip(*kept)):
        pt = np.array([rec.point for rec in recs])
        rb = np.array([rec.rbc_point for rec in recs])
        h = np.array([0.5 * (rec.h_left + rec.h_right) for rec in recs])
        err = pt - truth
        err_rbc = rb - truth
        out.append(
            TargetReport(
                label=recs[0].label,
                truth=float(truth),
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
