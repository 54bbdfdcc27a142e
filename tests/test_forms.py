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
from rdhte.basis import column_powers, extractor_vector
from rdhte.estimands import Selector, cate_at, contrast, fit_hte
from rdhte.inference import coef_variance, plugin_form, rbc_form, rbc_variance
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


# uneven (p, s) make the pilot order (p+1, s+1) uneven too, so the bias
# routes and the RBC form's blocks differ from the (1, 1) layout; the
# (1, 1) cases keep the bare d ids they had before the orders were added
ORDERS = [(d, p, s) for p, s in ((1, 1), (2, 1), (1, 2)) for d in (0, 1, 3)]


@pytest.mark.parametrize(
    "d, p, s",
    ORDERS,
    ids=[str(d) if p == s == 1 else f"{d}-p{p}s{s}" for d, p, s in ORDERS],
)
@pytest.mark.parametrize("kernel", ["triangular", "uniform", "epanechnikov"])
@pytest.mark.parametrize("vce", ["hc0", "hc1", "hc2", "hc3", "cluster"])
def test_forms_match_per_record_oracle(vce, kernel, d, p, s):
    sample = oracle_sample(d, seed=31 + d)
    pilots = [pilot_bandwidth(sample, side, p, s) for side in ("left", "right")]
    w_pt = np.full(d, 0.5)
    for nu in (0, 1):
        for ratio in (0.6, 1.6):
            spec = FitSpec(
                p=p, s=s, nu=nu, kernel=kernel, vce=vce,
                bandwidth=Fixed(ratio * pilots[0], ratio * pilots[1]),
            )
            result = fit_hte(sample, spec, at=[w_pt] if d else None)
            sides = (
                (result.left, result.left.bias.pilot_fit, result.left.bias),
                (result.right, result.right.bias.pilot_fit, result.right.bias),
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
                    rec.nu, p, s, np.array(rec.w), lead=rec.lead
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
                        result.left.bias, result.right.bias,
                        evec, rec.nu, vce,
                    ),
                )
                assert public == pytest.approx((var, rbc), rel=TOL, abs=0)


@pytest.mark.parametrize("vce", ["hc2", "cluster"])
def test_side_forms_serve_mixed_orders(vce):
    # the stored forms are in raw-coefficient units: an extractor that
    # mixes derivative orders reads them as the normalized forms scaled
    # column by column, h^-j for the plug-in and c_j = h^(1+q-j) for the
    # bias channel of a column of power j
    sample = oracle_sample(1, seed=35)
    spec = FitSpec(p=2, s=2, vce=vce, bandwidth=Fixed(0.5, 0.7))
    result = fit_hte(sample, spec)
    powers = np.array(column_powers(2, 2, 1))
    e = np.random.default_rng(36).normal(size=powers.size)
    for fit, bias, forms in (
        (result.left, result.left.bias, result.left.forms),
        (result.right, result.right.bias, result.right.forms),
    ):
        h = fit.h
        raw = e / h**powers
        plugin = raw @ plugin_form(fit, vce, sample.cluster) @ raw
        tilde = np.concatenate([e, -(h ** (3 - powers)) * e])
        rbc = tilde @ rbc_form(sample, fit, bias, vce) @ tilde
        assert e @ forms.plugin @ e == pytest.approx(
            plugin / (fit.n_total * h), rel=TOL, abs=0
        )
        assert e @ forms.rbc @ e == pytest.approx(rbc, rel=TOL, abs=0)
