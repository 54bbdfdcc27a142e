"""Exception types shared across the package.

EstimationError subclasses signal recoverable statistical failures (too little
usable data, degenerate designs); InputError subclasses signal malformed input.
The Monte Carlo driver catches EstimationError per replication; the CLI maps
InputError to exit code 2 and EstimationError to exit code 3.
"""

from __future__ import annotations


class RdhteError(Exception):
    """Base class for all package errors."""

    def __reduce__(self):
        # subclasses build their message from other constructor arguments,
        # so unpickling restores args and attributes without calling __init__
        return _restore, (type(self), self.args), self.__dict__


def _restore(cls, args):
    return cls.__new__(cls, *args)


class InputError(RdhteError):
    """Malformed or inconsistent input."""


class InvalidSetting(InputError, ValueError):
    """A setting outside its domain: order, kernel, vce, level, ..."""


class EstimationError(RdhteError):
    """Estimation failed on statistically degenerate data."""


# -- input validation ---------------------------------------------------------

class NonFinite(InputError):
    def __init__(self, row: int, column: str):
        self.row = row
        self.column = column
        # row -1: not a data cell; column names the value in full
        where = column if row < 0 else f"row {row}, column {column!r}"
        super().__init__(f"non-finite value at {where}")


class MissingLabel(InputError):
    def __init__(self, row: int, column: str):
        self.row = row
        self.column = column
        super().__init__(f"missing label at row {row}, column {column!r}")


class LengthMismatch(InputError):
    pass


class EmptySample(InputError):
    pass


class UnknownLevel(InputError):
    pass


class DegenerateQuantiles(InputError):
    pass


class NonPositiveBandwidth(InputError):
    pass


class NuOutOfRange(InputError):
    pass


class DimensionMismatch(InputError):
    pass


# -- estimation failures ------------------------------------------------------

class SingularGram(EstimationError):
    """Gram matrix numerically singular: too few effective observations or
    collinear heterogeneity covariates within the bandwidth window."""

    def __init__(self, side: str, rcond: float):
        self.side = side
        self.rcond = rcond
        super().__init__(
            f"singular Gram matrix on the {side} side (rcond {rcond:.2e}): "
            "too few observations or collinear heterogeneity covariates "
            "within bandwidth"
        )


class TooFewObservations(EstimationError):
    pass


class BiasDegenerate(EstimationError):
    pass


class FormsDegenerate(EstimationError):
    """A side's share of the contrast leaves the floating-point range: a
    power of its bandwidth overflows or underflows to 0, or an entry is not
    finite. The message names the side and the quantity."""


class LeverageOne(EstimationError):
    """Some leverage reached 1: an observation is fit exactly and HC2/HC3
    weights are undefined."""


class TooFewClusters(EstimationError):
    pass


class AllReplicationsFailed(EstimationError):
    pass


# -- CLI / file I/O ------------------------------------------------------------

class ParseError(InputError):
    def __init__(self, row: int, column: str, value: str):
        self.row = row
        self.column = column
        self.value = value
        super().__init__(
            f"cannot parse {value!r} at row {row}, column {column!r}"
        )


class MissingColumn(InputError):
    def __init__(self, column: str):
        self.column = column
        super().__init__(f"column {column!r} not found in header")
