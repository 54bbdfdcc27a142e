"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload stresses a different regime of the same pipeline (pilot and
bandwidth selection, side fits, per-estimand inference), so that a change
to one layer shows on the workload that exercises it and not on the
others:

- ``fit_1e6``: one ``fit_hte`` at n = 1e6.  The window holds about 5% of
  the rows, but every side fit scans all of them, so ``fitting``,
  ``kernels`` and ``basis`` bound the op.
- ``grid_2e4``: ``fit_hte`` plus 200 ``cate_at`` points on a continuous
  covariate at n = 2e4.  Per-record inference (``inference.rbc_variance``)
  is nearly the whole op; the fit is small.
- ``cli_200k``: one in-process ``rdhte.cli.main`` call on a 200k-row CSV
  with a fixed bandwidth, quantile and categorical covariates (k = 12) and
  cluster variance.  The only workload that runs ``cli``, covariate
  expansion, cluster aggregation and ``render``.
- ``mc_hc1``: 50-replication Monte Carlo batches at n = 2000 with HC1.
  Many small fits, so per-call overhead, ``simulate`` and the HC1 weights
  dominate; the only workload that runs HC1.

``fit_1e6`` and ``grid_2e4`` use a fixed bandwidth near the typical
selected one (0.1 at n = 1e6, 0.2 at n = 2e4).  On the canonical preset
the selected bandwidth ranges over 0.07-0.25 between seeds at n = 1e6 and
over 0.13-0.62 at n = 2e4; the window, the op time and the peak memory grow
with it, so with selection these workloads would measure the seed more
than the code.  Bandwidth selection is measured by ``mc_hc1``, which
averages 50 selections per op.

Inputs are drawn from the benchmark's seed by the benchmark itself; the
library only receives the arrays or the CSV (the Monte Carlo harness
draws its own replications from the seed by design).
"""

import contextlib
import dataclasses
import io
import json

import numpy as np
from numpy.polynomial import polynomial as npoly

# Coefficients of rdhte's canonical preset (ascending powers of x), copied
# so that the inputs stay fixed when the library's generators change.
ALPHA_LEFT = (0.5, 0.8, -0.6)
ALPHA_RIGHT = (1.0, 0.6, 0.9)
LAM_LEFT = (0.3, 0.2)
LAM_RIGHT = (0.7, -0.1)
NOISE_SD = 0.5

#: relative tolerance of the independent WLS solve against the fit
WLS_RTOL = 1e-8
#: tolerance of cate_at points against the varsigma contraction
CATE_TOL = 1e-10


def canonical_draw(rng, n, covariate):
    """(y, x, w) under the canonical preset with the given covariate law."""
    x = rng.uniform(-1.0, 1.0, n)
    if covariate == "binary":
        w = rng.binomial(1, 0.5, n).astype(float)
    else:
        w = rng.uniform(0.0, 1.0, n)
    right = x >= 0.0
    mu = np.where(right, npoly.polyval(x, ALPHA_RIGHT),
                  npoly.polyval(x, ALPHA_LEFT))
    mu += np.where(right, npoly.polyval(x, LAM_RIGHT),
                   npoly.polyval(x, LAM_LEFT)) * w
    return mu + NOISE_SD * rng.standard_normal(n), x, w


def finite_records(records):
    """None if every reported number of every record is finite."""
    for rec in records:
        values = (rec.point, rec.se, rec.rbc_point, rec.rbc_se, rec.ci_low,
                  rec.ci_high, rec.p_value)
        if not np.all(np.isfinite(values)):
            return f"record {rec.label!r} has a non-finite value"
    return None


class FitHuge:
    """fit_hte on the canonical preset at n = 1e6 with a fixed bandwidth."""

    def __init__(self, rd, seed, small, workdir):
        self.rd = rd
        n, h = (4_000, 0.3) if small else (1_000_000, 0.1)
        y, x, w = canonical_draw(np.random.default_rng([seed, 1]), n, "binary")
        self.sample = rd.validate_sample(y, x, 0.0, w)
        self.spec = rd.FitSpec(p=1, s=1, kernel="triangular",
                               bandwidth=rd.Common(h), vce="hc3")

    def op(self):
        return self.rd.fit_hte(self.sample, self.spec)

    @staticmethod
    def _wls(sample, side, h):
        """Triangular-kernel WLS on one side's window by normal equations."""
        x, y, w = sample.x, sample.y, sample.w[:, 0]
        u = x / h
        kv = np.maximum(0.0, 1.0 - np.abs(u))
        keep = (kv > 0.0) & ((x >= 0.0) if side == "right" else (x < 0.0))
        u, kv, w = u[keep], kv[keep], w[keep]
        design = np.column_stack([np.ones_like(u), u, w, w * u])
        gram = design.T @ (design * kv[:, None])
        return np.linalg.solve(gram, design.T @ (kv * y[keep])), keep

    def check(self, result):
        for fit in (result.left, result.right):
            ref, keep = self._wls(result.sample, fit.side, fit.h)
            if fit.eff_n != int(keep.sum()):
                return f"{fit.side} window has {fit.eff_n} rows, expected " \
                       f"{int(keep.sum())}"
            err = np.max(np.abs(fit.theta_norm - ref)) / np.max(np.abs(ref))
            if not err <= WLS_RTOL:
                return f"{fit.side} theta_norm off the WLS solve by {err:.3g}"
        return finite_records(result.records)

    def corrupt(self, result):
        left = dataclasses.replace(
            result.left, theta_norm=result.left.theta_norm * (1 + 1e-6))
        return dataclasses.replace(result, left=left)


class CateGrid:
    """fit_hte plus cate_at on an evenly spaced grid of a uniform covariate."""

    def __init__(self, rd, seed, small, workdir):
        self.rd = rd
        n, points = (2_000, 5) if small else (20_000, 200)
        y, x, w = canonical_draw(
            np.random.default_rng([seed, 2]), n, "uniform")
        self.sample = rd.validate_sample(y, x, 0.0, w)
        self.spec = rd.FitSpec(bandwidth=rd.Common(0.2), vce="hc3")
        self.grid = np.linspace(0.0, 1.0, points)

    def op(self):
        result = self.rd.fit_hte(self.sample, self.spec)
        return result, [self.rd.cate_at(result, [g]) for g in self.grid]

    def check(self, out):
        result, records = out
        vs = result.varsigma
        for g, rec in zip(self.grid, records, strict=True):
            expected = vs[0] + g * vs[1]
            if not abs(rec.point - expected) <= CATE_TOL * max(1.0,
                                                               abs(expected)):
                return f"cate_at({g:g}) = {rec.point!r}, expected {expected!r}"
            if not (np.isfinite(rec.rbc_se) and rec.rbc_se > 0.0):
                return f"cate_at({g:g}) has rbc_se {rec.rbc_se!r}"
        return finite_records(result.records)

    def corrupt(self, out):
        result, records = out
        bad = dataclasses.replace(records[-1], point=records[-1].point + 1e-6)
        return result, records[:-1] + [bad]


class CliCsv:
    """One in-process CLI call on a CSV, compared with the library path."""

    REGIONS = np.array(["north", "south", "west"])

    def __init__(self, rd, seed, small, workdir):
        self.rd = rd
        rows, schools = (3_000, 30) if small else (200_000, 400)
        rng = np.random.default_rng([seed, 3])
        score = rng.uniform(-1.0, 1.0, rows)
        log_income = rng.normal(10.5, 0.6, rows)
        income = np.exp(log_income)
        region = self.REGIONS[rng.choice(3, rows, p=[0.4, 0.35, 0.25])]
        school = rng.integers(0, schools, rows)
        school_effect = rng.normal(0.0, 0.3, schools)
        right = score >= 0.0
        earnings = (
            np.where(right, npoly.polyval(score, ALPHA_RIGHT),
                     npoly.polyval(score, ALPHA_LEFT))
            + right * (0.4 * (log_income - 10.5) / 0.6
                       + 0.3 * (region == "south") - 0.2 * (region == "west"))
            + school_effect[school]
            + NOISE_SD * rng.standard_normal(rows)
        )

        path = workdir / "cli.csv"
        # repr(float(v)) round-trips exactly; repr of a numpy scalar does not
        # parse as a number under numpy 2.
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write("earnings,score,income,region,school\n")
            for e, s, i, r, c in zip(earnings, score, income, region, school):
                fh.write(f"{repr(float(e))},{repr(float(s))},"
                         f"{repr(float(i))},{r},{int(c)}\n")
        self.argv = [
            "--data", str(path), "--outcome", "earnings", "--running",
            "score", "--cutoff", "0", "--hetero", "income:q4", "--hetero",
            "region:cat", "--cluster", "school", "--vce", "cluster", "--bw",
            "0.25", "--format", "json",
        ]

        w, labels, kinds = rd.expand_covariates(
            {"income": income, "region": list(region)},
            rd.CovariateSpec((
                rd.ColumnSpec("income", "quantile_bins", bins=4),
                rd.ColumnSpec("region", "categorical"),
            )),
        )
        # Cluster ids go in as the text the CSV holds: cluster codes follow
        # the sort order of the labels, and integer and text labels sort
        # differently, which reorders the cluster sums in the last digits.
        sample = rd.validate_sample(earnings, score, 0.0, w,
                                    school.astype(str))
        spec = rd.FitSpec(bandwidth=rd.Common(0.25), vce="cluster")
        self.expected = rd.render_json(
            rd.fit_hte(sample, spec, labels=labels, kinds=kinds))

    def op(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.rd.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, out):
        code, text, err = out
        if code != 0:
            return f"exit code {code}: {err.strip()}"
        if text != self.expected:
            return "CLI output differs from the library's render_json"
        return None

    def corrupt(self, out):
        code, text, err = out
        return code, text + " ", err


class MonteCarloHc1:
    """Monte Carlo batches with HC1 variance on the canonical preset.

    The cost of a batch depends on its draws (the selected bandwidths set
    the window sizes, and HC1 is quadratic in them), by about 10% between
    batch seeds.  So ops cycle through a pool of batch seeds derived from
    the run's seed, and the run's median is taken over several batches.
    Every report must equal the first report of the same batch seed.
    """

    #: batch seeds per run; odd, so traced and untraced ops both see all
    POOL = 7

    def __init__(self, rd, seed, small, workdir):
        self.rd = rd
        self.pool = 1 if small else self.POOL
        self.seeds = [seed * self.POOL + j for j in range(self.pool)]
        self.ops = 0
        self.reps, self.n = (3, 600) if small else (50, 2_000)
        self.targets = [(np.array([0.0]), 0.5), (np.array([1.0]), 0.9)]
        self.reports = {}

    def op(self):
        rd = self.rd
        seed = self.seeds[self.ops % self.pool]
        self.ops += 1
        return rd.monte_carlo(rd.canonical_preset(), rd.FitSpec(vce="hc1"),
                              reps=self.reps, n=self.n, seed=seed,
                              targets=self.targets)

    def check(self, report):
        text = json.dumps(report.to_dict(), sort_keys=True)
        if text != self.reports.setdefault(report.seed, text):
            return f"McReport of batch seed {report.seed} is not reproduced"
        return None

    def corrupt(self, report):
        return dataclasses.replace(report, failures=report.failures + 1)


WORKLOADS = {
    "fit_1e6": FitHuge,
    "grid_2e4": CateGrid,
    "cli_200k": CliCsv,
    "mc_hc1": MonteCarloHc1,
}
