"""SHA-256 fingerprint of rdhte's numbers over a grid of 360 fits.

Usage: python tests/fingerprint.py SRC [--cold]

SRC is the ``src`` directory whose ``rdhte`` is imported. The script fits
two seeded canonical-preset samples (n = 1500, 60 cluster labels) under
every variance kind, four bandwidth rules, three (p, s, nu) settings and
the three kernels. Each fit contributes the bytes of its result_payload
(with one ``at`` point), one cate_at record, one contrast record at the
other derivative order, 1 - nu, its long-form vector varsigma and the
arrays of its combined forms (jump, bias, plugin, rbc); an estimation
error contributes its type and message instead. The script prints one
digest per (seed, vce, bandwidth) group, then the digest of the whole
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
    Common,
    Fixed,
    FitSpec,
    Select,
    Selector,
    canonical_preset,
    cate_at,
    contrast,
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


def fit_bytes(sample, spec) -> bytes:
    """Every number one fit reports, or the error it raises, as bytes."""
    try:
        result = fit_hte(sample, spec, at=[(0.5,)])
        extra = [
            cate_at(result, [0.3]),
            contrast(result, Selector(np.array([1.0, 0.5]), nu=1 - spec.nu)),
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
        base = gen_sample(canonical_preset(), 1500, seed)
        sample = validate_sample(base.y, base.x, base.cutoff, base.w,
                                 cluster=np.arange(base.n) % 60)
        for vce in VCES:
            for bw_name, bandwidth in BANDWIDTHS.items():
                group = hashlib.sha256()
                for p, s, nu in ORDERS:
                    for kernel in KERNELS:
                        spec = FitSpec(p=p, s=s, nu=nu, kernel=kernel,
                                       vce=vce, bandwidth=bandwidth)
                        data = fit_bytes(
                            dataclasses.replace(sample) if cold else sample,
                            spec,
                        )
                        group.update(data)
                        total.update(data)
                print(f"seed={seed} vce={vce} bandwidth={bw_name} "
                      f"{group.hexdigest()}")
    print(f"total {total.hexdigest()}")


if __name__ == "__main__":
    main()
