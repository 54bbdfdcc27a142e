"""Full fits against stored payloads.

``tests/data/golden_fit.json`` holds ``result_payload`` of each case below
as computed before side fits moved to a single QR factorization and the
bias constants to blocks of the pilot Gram. Those changes reorder floating
point work only, so every number must agree to 1e-10: relative for scale
quantities, and relative to the record's ``rbc_se`` for point-like ones.
``cluster_nu1`` was recomputed when the plug-in cluster meat took the HC0
scaling 1/(n h) in place of 1/(G h).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from rdhte.estimands import fit_hte
from rdhte.model import Fixed, FitSpec, Select, validate_sample
from rdhte.render import result_payload
from rdhte.simulate import canonical_preset, gen_sample

GOLDEN = Path(__file__).parent / "data" / "golden_fit.json"
TOL = 1e-10
POINT_FIELDS = ("point", "bias_estimate", "rbc_point", "ci")


def golden_cases():
    """name -> (sample, spec, extra evaluation points)."""
    base = gen_sample(canonical_preset(), 1500, 7)
    clusters = np.random.default_rng(8).integers(0, 60, base.n)
    clustered = validate_sample(base.y, base.x, base.cutoff, base.w, clusters)
    return {
        "select_hc3": (base, FitSpec(), [(0.5,)]),
        "fixed_hc1": (
            base, FitSpec(bandwidth=Fixed(0.35, 0.45), vce="hc1"), [(0.5,)]
        ),
        "cluster_nu1": (
            clustered,
            FitSpec(nu=1, bandwidth=Select("one_sided"), vce="cluster"),
            [],
        ),
    }


def _close(got, want, scale):
    assert abs(got - want) <= TOL * scale, (got, want)


@pytest.mark.parametrize("name", sorted(golden_cases()))
def test_fit_matches_golden_payload(name):
    sample, spec, at = golden_cases()[name]
    got = result_payload(fit_hte(sample, spec, at=at))
    want = json.loads(GOLDEN.read_text())[name]

    assert set(got["bandwidth"]) == set(want["bandwidth"])
    for key, val in want["bandwidth"].items():
        if isinstance(val, float):
            _close(got["bandwidth"][key], val, abs(val))
        else:
            assert got["bandwidth"][key] == val, key
    for key in ("n", "cutoff", "p", "s", "deriv", "kernel", "vce", "level",
                "eff_n", "covariates"):
        assert got[key] == want[key], key

    assert len(got["estimands"]) == len(want["estimands"])
    for rec, ref in zip(got["estimands"], want["estimands"]):
        assert set(rec) == set(ref)
        for key, val in ref.items():
            if key in POINT_FIELDS:
                for g, w in zip(np.atleast_1d(rec[key]), np.atleast_1d(val)):
                    _close(g, w, ref["rbc_se"])
            elif isinstance(val, float):
                _close(rec[key], val, abs(val))
            else:
                assert rec[key] == val, key
