"""SHA-256 fingerprint of rdhte's numbers over a grid of 720 fits.

Usage: python tests/fingerprint.py SRC [--cold]

SRC is the ``src`` directory whose ``rdhte`` is imported. The script
draws two seeded canonical-preset samples (n = 1500, 60 cluster labels)
and fits each in two covariate layouts: the preset's one binary column
(``w=binary``, k = 4 to 7), and a uniform covariate with a three-level
categorical (``w=uniform+3-level``, d = 3, k = 8 to 12), whose records
include continuous "Slope" records and an extrapolation flag set by the
third column alone. Each layout is fitted under every variance kind,
four bandwidth rules, three (p, s, nu) settings and the three kernels.
Each fit contributes the bytes of its result_payload (with one ``at``
point), one cate_at record, one contrast record at the other derivative
order, 1 - nu, its long-form vector varsigma and the arrays of its
combined forms (jump, bias, plugin, rbc); an estimation error
contributes its type and message instead. The script prints one digest
per (seed, layout, vce, bandwidth) group, then the digest of the whole
grid.

Each sample serves every spec of the grid, so most fits read the pilot
stages that the sample keeps from an earlier fit. With ``--cold`` every
fit runs on a fresh copy of its sample (``dataclasses.replace``), which
holds no stored stage; the two outputs must be identical.

To check that a change keeps every number bit for bit, run the script
on the ``src`` of both trees and diff the two outputs. pytest does not
collect it; it runs in about 2 s and needs only numpy.
"""

import dataclasses
import hashlib
import json
import sys

sys.path.insert(0, sys.argv[1])

import numpy as np  # noqa: E402

from rdhte import (  # noqa: E402
    ColumnSpec,
    Common,
    CovariateSpec,
    Fixed,
    FitSpec,
    Select,
    Selector,
    canonical_preset,
    cate_at,
    contrast,
    expand_covariates,
    fit_hte,
    gen_sample,
    validate_sample,
)
from rdhte.errors import RdhteError  # noqa: E402
from rdhte.render import result_payload  # noqa: E402

SEEDS = (1, 2)
VCES = ("hc0", "hc1", "hc2", "hc3", "cluster")
BANDWIDTHS = {
    "select": Select(),
    "one_sided": Select("one_sided"),
    "common_0.5": Common(0.5),
    "fixed_0.3_0.7": Fixed(0.3, 0.7),
}
ORDERS = ((1, 1, 0), (2, 2, 1), (2, 1, 0))
KERNELS = ("triangular", "uniform", "epanechnikov")
#: per covariate layout: the at points, the cate_at point and the
#: contrast selector of each fit; the d = 3 cate_at point lies outside
#: the observed range in its third (indicator) column only
PROBES = {
    "binary": ([(0.5,)], [0.3], [1.0, 0.5]),
    "uniform+3-level": (
        [(0.5, 1.0, 0.0)], [0.3, 0.0, 2.0], [1.0, 0.5, -0.25, 0.75],
    ),
}


def samples(seed):
    """{layout: sample} of one seed: the canonical draw with its binary
    column, and the same x with a uniform covariate and a three-level
    categorical that shift y on both sides and the effect."""
    base = gen_sample(canonical_preset(), 1500, seed)
    cluster = np.arange(base.n) % 60
    rng = np.random.default_rng([seed, 3])
    raw = {"u": rng.uniform(0.0, 1.0, base.n),
           "g": rng.choice(["a", "b", "c"], base.n).tolist()}
    w3, _, _ = expand_covariates(raw, CovariateSpec((
        ColumnSpec("u", "continuous"), ColumnSpec("g", "categorical"),
    )))
    treated = base.x >= base.cutoff
    y3 = (base.y + w3 @ np.array([0.4, -0.3, 0.2])
          + treated * (w3 @ np.array([0.5, 0.25, -0.2])))
    return {
        "binary": validate_sample(base.y, base.x, base.cutoff, base.w,
                                  cluster=cluster),
        "uniform+3-level": validate_sample(y3, base.x, base.cutoff, w3,
                                           cluster=cluster),
    }


def fit_bytes(sample, spec, layout) -> bytes:
    """Every number one fit reports, or the error it raises, as bytes."""
    at, point, selector = PROBES[layout]
    try:
        result = fit_hte(sample, spec, at=at)
        extra = [
            cate_at(result, point),
            contrast(result, Selector(np.array(selector), nu=1 - spec.nu)),
        ]
        forms = result.forms
        doc = {
            "payload": result_payload(result),
            "extra": [dataclasses.asdict(rec) for rec in extra],
            "varsigma": result.varsigma.tolist(),
            "forms": {
                name: getattr(forms, name).tolist()
                for name in ("jump", "bias", "plugin", "rbc")
            },
        }
    except RdhteError as exc:
        doc = {"error": type(exc).__name__, "message": str(exc)}
    return json.dumps(doc, sort_keys=True).encode()


def main() -> None:
    cold = "--cold" in sys.argv[2:]
    total = hashlib.sha256()
    for seed in SEEDS:
        for layout, sample in samples(seed).items():
            for vce in VCES:
                for bw_name, bandwidth in BANDWIDTHS.items():
                    group = hashlib.sha256()
                    for p, s, nu in ORDERS:
                        for kernel in KERNELS:
                            spec = FitSpec(p=p, s=s, nu=nu, kernel=kernel,
                                           vce=vce, bandwidth=bandwidth)
                            data = fit_bytes(
                                dataclasses.replace(sample) if cold
                                else sample,
                                spec, layout,
                            )
                            group.update(data)
                            total.update(data)
                    print(f"seed={seed} w={layout} vce={vce} "
                          f"bandwidth={bw_name} {group.hexdigest()}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
