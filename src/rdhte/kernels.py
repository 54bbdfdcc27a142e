# Kernel weights for one-sided local polynomial fits.
# Conventions:
#   u = (x - c) / h
#   weights enter Gram/score sums as K(u)/h, the 1/h carried by the caller
#   K is the symmetrized kernel K(u) = 1(u<0) k(-u) + 1(u>=0) k(u), so every
#   kind below is even with support [-1, 1]

from __future__ import annotations

import numpy as np

from .errors import InvalidSetting

__all__ = ["KERNELS", "kernel_eval"]

#: canonical kernel names, also accepted from the CLI in abbreviated form
KERNELS = ("triangular", "uniform", "epanechnikov")

_ALIASES = {
    "tri": "triangular",
    "uni": "uniform",
    "epa": "epanechnikov",
}


def resolve_kernel(kind: str) -> str:
    """Map a kernel name or its three-letter form to the canonical name."""
    name = _ALIASES.get(kind, kind)
    if name not in KERNELS:
        raise InvalidSetting(
            f"unknown kernel {kind!r}; expected one of {KERNELS}"
        )
    return name


def kernel_eval(u, kind: str = "triangular"):
    """Evaluate the symmetrized kernel K(u).

    Parameters
    ----------
    u : array-like
        Scaled distances (x - c) / h.
    kind : {"triangular", "uniform", "epanechnikov"}
        Kernel shape. Three-letter abbreviations are accepted.

    Returns
    -------
    ndarray or float
        K(u), zero outside [-1, 1]. Scalar input returns a scalar.
    """
    name = resolve_kernel(kind)
    arr = np.asarray(u, dtype=float)
    a = np.abs(arr)
    if name == "triangular":
        out = np.maximum(0.0, 1.0 - a)
    elif name == "uniform":
        out = np.where(a <= 1.0, 0.5, 0.0)
    else:
        out = np.where(a <= 1.0, 0.75 * (1.0 - arr * arr), 0.0)
    if np.isscalar(u) or arr.ndim == 0:
        return float(out)
    return out
