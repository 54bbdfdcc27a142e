"""Per-side variance forms against the per-record oracle.

Every record's plug-in and bias-corrected variance is a contraction of
the quadratic forms that fit_hte stores on the result. The oracle in
``rbc_oracle`` rebuilds both variances from scratch for each record, over
the union of the main and pilot windows; the two routes reorder floating
point work only, so they must agree to 1e-12 relative.
"""

from __future__ import annotations

import numpy as np
import pytest
from rbc_oracle import per_record_variances

from rdhte.bandwidth import pilot_bandwidth
from rdhte.basis import extractor_vector
from rdhte.estimands import Selector, cate_at, contrast, fit_hte
from rdhte.inference import coef_variance, rbc_variance
from rdhte.model import Fixed, FitSpec, validate_sample

TOL = 1e-12


def oracle_sample(d, seed, n=500):
    """d = 0: no covariate; 1: continuous; 3: four-level categorical."""
    rng = np.random.default_rng(seed)
    x = rng.uniform(-1, 1, n)
    if d == 0:
        w = np.empty((n, 0))
    elif d == 1:
        w = rng.normal(size=(n, 1))
    else:
        level = rng.integers(0, 4, n)
        w = (level[:, None] == np.arange(1, 4)).astype(float)
    t = (x >= 0).astype(float)
    y = 0.3 + 0.8 * x - 0.6 * x**2 + t * (0.5 + 0.2 * x)
    y = y + w @ np.linspace(0.2, 0.5, d) * (1.0 + x + 0.5 * t)
    y = y + (0.4 + 0.3 * np.abs(x)) * rng.standard_normal(n)
    cluster = rng.integers(0, 40, n)
    return validate_sample(y, x, 0.0, w if d else None, cluster)


@pytest.mark.parametrize("d", [0, 1, 3])
@pytest.mark.parametrize("kernel", ["triangular", "uniform", "epanechnikov"])
@pytest.mark.parametrize("vce", ["hc0", "hc1", "hc2", "hc3", "cluster"])
def test_forms_match_per_record_oracle(vce, kernel, d):
    sample = oracle_sample(d, seed=31 + d)
    pilots = [pilot_bandwidth(sample, side, 1, 1) for side in ("left", "right")]
    w_pt = np.full(d, 0.5)
    for nu in (0, 1):
        for ratio in (0.6, 1.6):
            spec = FitSpec(
                nu=nu, kernel=kernel, vce=vce,
                bandwidth=Fixed(ratio * pilots[0], ratio * pilots[1]),
            )
            result = fit_hte(sample, spec, at=[w_pt] if d else None)
            sides = (
                (result.left, result.pilot_left, result.bias_left),
                (result.right, result.pilot_right, result.bias_right),
            )
            for main, pilot, _ in sides:
                assert (main.eff_n > pilot.eff_n) == (ratio > 1)

            # a selector whose derivative order is not the spec's
            vec = np.concatenate([[1.0], np.linspace(-0.5, 0.5, d)])
            records = list(result.records) + [
                contrast(result, Selector(vec, nu=1 - nu, label="other nu")),
            ]
            if d:
                records.append(cate_at(result, -w_pt))
            for rec in records:
                evec = extractor_vector(
                    rec.nu, 1, 1, np.array(rec.w), lead=rec.lead
                )
                var, rbc = per_record_variances(
                    sample, sides, evec, rec.nu, vce, sample.cluster
                )
                assert rec.variance == pytest.approx(var, rel=TOL, abs=0)
                assert rec.rbc_variance == pytest.approx(rbc, rel=TOL, abs=0)
                public = (
                    coef_variance(
                        result.left, result.right, evec, rec.nu, vce,
                        sample.cluster,
                    ).variance,
                    rbc_variance(
                        sample, result.left, result.right,
                        result.bias_left, result.bias_right,
                        evec, rec.nu, vce, sample.cluster,
                    ),
                )
                assert public == pytest.approx((var, rbc), rel=TOL, abs=0)
