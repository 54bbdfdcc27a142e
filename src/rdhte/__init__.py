"""Heterogeneous treatment effects in sharp regression discontinuity
designs.

Interacted local polynomial estimation of conditional effects at a
cutoff, with MSE-optimal bandwidth selection, heteroskedasticity- and
cluster-robust sandwich variances, and robust bias-corrected confidence
intervals. Supports level (sharp) and derivative (kink) estimands.

Typical use::

    from rdhte import FitSpec, fit_hte, validate_sample

    sample = validate_sample(y, x, cutoff, w)
    result = fit_hte(sample, FitSpec())
    for rec in result.records:
        print(rec.label, rec.point, (rec.ci_low, rec.ci_high))

The names below are the documented API (see README.md); everything else
stays importable from its submodule.
"""

from .errors import EstimationError, InputError, RdhteError
from .estimands import Selector, cate_at, contrast, fit_hte
from .model import (
    CodedLabels,
    ColumnSpec,
    Common,
    CovariateSpec,
    Fixed,
    FitSpec,
    Select,
    expand_covariates,
    validate_sample,
)
from .render import render_csv, render_json, render_table
from .simulate import DgpConfig, canonical_preset, gen_sample, monte_carlo

__version__ = "0.1.0"

__all__ = [
    "CodedLabels",
    "ColumnSpec",
    "Common",
    "CovariateSpec",
    "DgpConfig",
    "EstimationError",
    "Fixed",
    "FitSpec",
    "InputError",
    "RdhteError",
    "Select",
    "Selector",
    "canonical_preset",
    "cate_at",
    "contrast",
    "expand_covariates",
    "fit_hte",
    "gen_sample",
    "monte_carlo",
    "render_csv",
    "render_json",
    "render_table",
    "validate_sample",
]
