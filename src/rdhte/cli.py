"""Command line front end: CSV in, estimates out.

Exit codes: 0 success, 2 malformed input or usage, 3 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EstimationError,
    InputError,
    MissingColumn,
    ParseError,
)
from .estimands import fit_hte
from .kernels import resolve_kernel
from .model import (
    ColumnSpec,
    Common,
    CovariateSpec,
    Fixed,
    FitSpec,
    Select,
    expand_covariates,
    is_binary,
    validate_sample,
)
from .render import render_csv, render_json, render_table

__all__ = ["RunConfig", "parse_config", "load_csv", "run", "main"]


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs."""

    data: str
    outcome: str
    running: str
    cutoff: float
    hetero: tuple[tuple[str, Optional[ColumnSpec]], ...] = ()
    cluster: Optional[str] = None
    kernel: str = "triangular"
    p: int = 1
    s: int = 1
    deriv: int = 0
    bandwidth: Fixed | Common | Select = field(default_factory=Select)
    vce: str = "hc3"
    level: float = 0.95
    at: tuple[tuple[float, ...], ...] = ()
    fmt: str = "table"


def _hetero_token(token: str):
    """Parse one --hetero flag: name[:cat|:bin|:cont[^k]|:q<k>].

    A bare name defers the kind to the loaded data: non-numeric columns
    become categorical, numeric 0/1 columns binary, other numeric columns
    continuous.
    """
    name, _, suffix = token.partition(":")
    if not name:
        raise argparse.ArgumentTypeError(f"empty column name in {token!r}")
    if not suffix:
        return name, None
    if suffix == "cat":
        return name, ColumnSpec(name, "categorical")
    if suffix == "bin":
        return name, ColumnSpec(name, "binary")
    if suffix == "cont":
        return name, ColumnSpec(name, "continuous")
    if suffix.startswith("cont^"):
        try:
            power = int(suffix[5:])
        except ValueError:
            power = 0
        if power < 1:
            raise argparse.ArgumentTypeError(
                f"bad power in {token!r}; expected cont^<k> with k >= 1"
            )
        return name, ColumnSpec(name, "continuous", power_max=power)
    if suffix.startswith("q"):
        try:
            bins = int(suffix[1:])
        except ValueError:
            bins = 0
        if bins < 2:
            raise argparse.ArgumentTypeError(
                f"bad bin count in {token!r}; expected q<k> with k >= 2"
            )
        return name, ColumnSpec(name, "quantile_bins", bins=bins)
    raise argparse.ArgumentTypeError(
        f"unknown column specifier {suffix!r} in {token!r}"
    )


def _at_points(token: str):
    """Parse --at: comma-separated points, colon-separated coordinates."""
    points = []
    for part in token.split(","):
        try:
            points.append(tuple(float(v) for v in part.split(":")))
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"bad evaluation point {part!r} in --at"
            )
    return tuple(points)


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="rdhte",
        description=(
            "Heterogeneous treatment effects in sharp regression "
            "discontinuity designs: interacted local polynomial "
            "estimates with robust bias-corrected inference."
        ),
    )
    ap.add_argument("--data", required=True, help="input CSV path")
    ap.add_argument("--outcome", required=True, help="outcome column")
    ap.add_argument("--running", required=True, help="running-variable column")
    ap.add_argument("--cutoff", required=True, type=float, help="cutoff c")
    ap.add_argument(
        "--hetero",
        action="append",
        default=[],
        type=_hetero_token,
        metavar="COL[:cat|:bin|:cont[^k]|:q<k>]",
        help="heterogeneity column (repeatable); bare names infer their "
        "kind from the data",
    )
    ap.add_argument("--cluster", default=None, help="cluster id column")
    ap.add_argument(
        "--kernel", choices=("tri", "uni", "epa"), default="tri"
    )
    ap.add_argument("--p", type=int, default=1, help="main polynomial order")
    ap.add_argument(
        "--s", type=int, default=1, help="interaction polynomial order"
    )
    ap.add_argument(
        "--deriv", type=int, default=0, help="derivative order of the estimand"
    )
    bw = ap.add_mutually_exclusive_group()
    bw.add_argument("--bw", type=float, help="common bandwidth on both sides")
    bw.add_argument(
        "--bw-side",
        nargs=2,
        type=float,
        metavar=("H_LEFT", "H_RIGHT"),
        help="side-specific bandwidths",
    )
    bw.add_argument(
        "--bw-select",
        choices=("one", "two"),
        default=None,
        help="MSE-optimal selection, one- or two-sided (default: two)",
    )
    ap.add_argument(
        "--vce",
        choices=("hc0", "hc1", "hc2", "hc3", "cluster"),
        default="hc3",
    )
    ap.add_argument("--level", type=float, default=0.95)
    ap.add_argument(
        "--at",
        type=_at_points,
        default=(),
        metavar="W1,W2,...",
        help="extra CATE evaluation points; coordinates within a point "
        "separated by ':'",
    )
    ap.add_argument(
        "--format",
        dest="fmt",
        choices=("table", "json", "csv"),
        default="table",
    )
    return ap


def parse_config(argv: Sequence[str]) -> RunConfig:
    """Turn an argument vector into a RunConfig (argparse exits 2 on usage
    errors)."""
    ns = _build_parser().parse_args(argv)
    if ns.bw is not None:
        bandwidth = Common(ns.bw)
    elif ns.bw_side is not None:
        bandwidth = Fixed(ns.bw_side[0], ns.bw_side[1])
    else:
        mode = "one_sided" if ns.bw_select == "one" else "two_sided"
        bandwidth = Select(mode=mode)
    return RunConfig(
        data=ns.data,
        outcome=ns.outcome,
        running=ns.running,
        cutoff=ns.cutoff,
        hetero=tuple(ns.hetero),
        cluster=ns.cluster,
        kernel=resolve_kernel(ns.kernel),
        p=ns.p,
        s=ns.s,
        deriv=ns.deriv,
        bandwidth=bandwidth,
        vce=ns.vce,
        level=ns.level,
        at=ns.at,
        fmt=ns.fmt,
    )


def load_csv(path: str, columns: Sequence[str]) -> dict[str, list[str]]:
    """Read the named columns from a headered CSV (UTF-8, BOM tolerated).

    Values come back as strings; numeric parsing happens per binding so
    parse errors can cite the exact cell.

    Raises
    ------
    MissingColumn
    InputError
        If the file has no header row, or a requested column appears more
        than once in it.
    """
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise InputError(f"{path}: empty file, header row required")
        index = {}
        for j, name in enumerate(header):
            index.setdefault(name, j)
        for name in columns:
            if name not in index:
                raise MissingColumn(name)
            if header.count(name) > 1:
                raise InputError(
                    f"{path}: column {name!r} appears more than once in "
                    "the header"
                )
        out: dict[str, list[str]] = {name: [] for name in columns}
        want = [(name, index[name]) for name in columns]
        for row in reader:
            for name, j in want:
                out[name].append(row[j] if j < len(row) else "")
    return out


def _parse_numeric(name: str, values: list[str]) -> np.ndarray:
    try:
        return np.fromiter(map(float, values), float, len(values))
    except ValueError:
        # a second pass only to name the first bad cell
        for i, v in enumerate(values):
            try:
                float(v)
            except ValueError:
                raise ParseError(i + 1, name, v) from None
        raise


def build_result(config: RunConfig):
    """Load, validate, and fit; shared by run() and the tests."""
    try:
        spec = FitSpec(
            p=config.p,
            s=config.s,
            nu=config.deriv,
            kernel=config.kernel,
            bandwidth=config.bandwidth,
            vce=config.vce,
            level=config.level,
        )
    except ValueError as exc:
        raise InputError(str(exc)) from None

    names = [config.outcome, config.running]
    names += [name for name, _ in config.hetero]
    if config.cluster is not None:
        names.append(config.cluster)
    raw = load_csv(config.data, names)

    y = _parse_numeric(config.outcome, raw[config.outcome])
    x = _parse_numeric(config.running, raw[config.running])

    # a bare name is parsed once: as numbers when every cell parses (0/1
    # columns are binary, others continuous), else kept as categorical text
    col_specs, expand_raw = [], {}
    for name, col in config.hetero:
        values = raw[name]
        if col is None or col.kind != "categorical":
            try:
                values = _parse_numeric(name, values)
            except ParseError:
                if col is not None:
                    raise
                col = ColumnSpec(name, "categorical")
        if col is None:
            kind = "binary" if is_binary(values) else "continuous"
            col = ColumnSpec(name, kind)
        col_specs.append(col)
        expand_raw[name] = values
    w, labels, kinds = expand_covariates(
        expand_raw, CovariateSpec(tuple(col_specs))
    )

    cluster = (
        np.asarray(raw[config.cluster]) if config.cluster is not None else None
    )
    sample = validate_sample(
        y, x, config.cutoff, w if w.shape[1] else None, cluster
    )
    return fit_hte(sample, spec, at=config.at, labels=labels, kinds=kinds)


def run(config: RunConfig) -> tuple[str, int]:
    """Execute one configured run; returns (output text, exit code)."""
    try:
        result = build_result(config)
    except InputError as exc:
        return f"error: {exc}\n", 2
    except EstimationError as exc:
        return f"error: {exc}\n", 3
    except OSError as exc:
        return f"error: {exc}\n", 2
    if config.fmt == "json":
        return render_json(result), 0
    if config.fmt == "csv":
        return render_csv(result), 0
    return render_table(result), 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    config = parse_config(sys.argv[1:] if argv is None else list(argv))
    text, code = run(config)
    if code == 0:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
