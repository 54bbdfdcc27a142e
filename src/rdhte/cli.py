"""Command line front end: CSV in, estimates out.

It only turns argument and CSV text into values and leaves every check to
the library; errors about a data cell cite its 1-based row and CSV header.

Exit codes: 0 success, 2 malformed input or usage, 3 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import sys
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .errors import (
    EstimationError,
    InputError,
    MissingColumn,
    MissingLabel,
    NonFinite,
    ParseError,
    TooFewObservations,
)
from .estimands import fit_hte
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

_HETERO_SYNTAX = "COL[:cat|:bin|:cont[^k]|:q<k>]"
_HETERO_KINDS = {"cat": "categorical", "bin": "binary", "cont": "continuous"}
#: load_csv reads whole lines until a block holds at least this many chars
_BLOCK_CHARS = 1 << 20


@dataclass(frozen=True)
class RunConfig:
    """Everything one CLI invocation needs; spec holds the fit settings."""

    data: str
    outcome: str
    running: str
    cutoff: float
    hetero: tuple[tuple[str, Optional[ColumnSpec]], ...] = ()
    cluster: Optional[str] = None
    spec: FitSpec = field(default_factory=FitSpec)
    at: tuple[tuple[float, ...], ...] = ()
    fmt: str = "table"


def _hetero_token(token: str):
    """Parse one --hetero flag: COL[:cat|:bin|:cont[^k]|:q<k>].

    A bare name defers the kind to the loaded data: non-numeric columns
    become categorical, numeric 0/1 columns binary, other numeric columns
    continuous. ColumnSpec checks k; a bad token is a usage error.
    """
    name, _, suffix = token.partition(":")
    if name and not suffix:
        return name, None
    try:
        if not name:
            raise ValueError("empty column name")
        if suffix in _HETERO_KINDS:
            return name, ColumnSpec(name, _HETERO_KINDS[suffix])
        if suffix.startswith("cont^"):
            power = int(suffix[5:])
            return name, ColumnSpec(name, "continuous", power_max=power)
        if suffix.startswith("q"):
            bins = int(suffix[1:])
            return name, ColumnSpec(name, "quantile_bins", bins=bins)
        raise ValueError(f"unknown column specifier {suffix!r}")
    except ValueError as exc:
        raise argparse.ArgumentTypeError(
            f"bad value {token!r} ({exc}); expected {_HETERO_SYNTAX}"
        ) from None


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
        metavar=_HETERO_SYNTAX,
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
    errors); the FitSpec raises InputError for an invalid setting."""
    parser = _build_parser()
    ns = parser.parse_args(argv)
    if ns.vce == "cluster" and ns.cluster is None:
        parser.error("--vce cluster requires --cluster")
    if ns.bw is not None:
        bandwidth = Common(ns.bw)
    elif ns.bw_side is not None:
        bandwidth = Fixed(ns.bw_side[0], ns.bw_side[1])
    else:
        mode = "one_sided" if ns.bw_select == "one" else "two_sided"
        bandwidth = Select(mode=mode)
    spec = FitSpec(p=ns.p, s=ns.s, nu=ns.deriv, kernel=ns.kernel,
                   bandwidth=bandwidth, vce=ns.vce, level=ns.level)
    return RunConfig(
        data=ns.data,
        outcome=ns.outcome,
        running=ns.running,
        cutoff=ns.cutoff,
        hetero=tuple(ns.hetero),
        cluster=ns.cluster,
        spec=spec,
        at=ns.at,
        fmt=ns.fmt,
    )


def load_csv(
    path: str, columns: Sequence[str], numeric: Sequence[str] = ()
) -> tuple[dict[str, list[str]], dict[str, np.ndarray]]:
    """Read the named columns from a headered CSV (UTF-8, BOM tolerated).

    Returns (text, numbers): text maps each name in columns to its cells
    as strings, numbers each name in numeric to its cells parsed by
    float() as a float64 array. A name in both lists is read once and
    comes back in both forms. Every line after the header is one row: a
    blank line is a row of empty cells, missing trailing cells are empty
    and extra cells are ignored.

    The file is read in blocks of whole lines, about 1 MiB each, so no
    file-sized text is held, and a numeric column is parsed block by block,
    so none of its cells outlives its block as text unless the column is
    in columns too. Equal cells of a text column in one block are one
    string object, so a column of few distinct labels holds about one
    pointer a row. Quote-free blocks are split column-wise in one pass;
    from the first quote on, csv.reader parses RFC 4180 quoting.

    Raises
    ------
    MissingColumn
    InputError
        If the file has no header row, a requested column appears more
        than once in it, the file is not UTF-8 (with the decoder's
        message), or csv.reader rejects a line, such as one with a field
        longer than csv.field_size_limit() (citing the file's line).
    ParseError
        Once the whole file is read, for the first bad cell of the first
        column in numeric order that has one, citing its 1-based data row.
    """
    names = list(dict.fromkeys([*numeric, *columns]))
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise InputError(f"{path}: empty file, header row required")
            except csv.Error as exc:
                raise csv.Error(f"line {reader.line_num}: {exc}") from None
            index = {}
            for j, name in enumerate(header):
                index.setdefault(name, j)
            for name in names:
                if name not in index:
                    raise MissingColumn(name)
                if header.count(name) > 1:
                    raise InputError(
                        f"{path}: column {name!r} appears more than once in "
                        "the header"
                    )
            # a numeric column collects one array per block and, after its
            # first bad cell, none
            text = {name: [] for name in columns}
            parts = {name: [] for name in numeric}
            bad: dict[str, ParseError] = {}
            nrows, ncol = 0, len(header)
            blocks = _cell_blocks(fh, ncol, reader.line_num) if names else ()
            for block_rows, cells in blocks:
                for name in names:
                    column = cells[index[name]::ncol]
                    if name in text:
                        # a pool of this block's labels: equal cells share
                        # its first copy and the rest die with cells
                        text[name] += map({}.setdefault, column, column)
                    if name in parts and name not in bad:
                        try:
                            parts[name].append(
                                _parse_numeric(name, column, nrows))
                        except ParseError as exc:
                            bad[name] = exc
                nrows += block_rows
                del cells, column  # before the next block is read
    except csv.Error as exc:
        raise InputError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(str(exc)) from None
    for name in numeric:
        if name in bad:
            raise bad[name]
    numbers = {name: np.concatenate(arrays) if arrays else np.empty(0)
               for name, arrays in parts.items()}
    return text, numbers


def _cell_blocks(fh, ncol: int, line: int):
    """The data rows after the header in blocks of about _BLOCK_CHARS, as
    (nrows, cells): cells is row-major, ncol a row, short rows padded with
    empty cells and long ones cut.

    Quote-free blocks of whole lines go through _split_block; from the
    first block with a quote on, csv.reader parses the rest of the file,
    in batches of as many rows as that block has lines. line is the count
    of the file's lines before fh's position, so that a csv.Error cites
    the file's line it was raised on.
    """
    # each block's text is dropped before it is handed on and its cells
    # before the next block is read, so one block is held at a time
    while lines := fh.readlines(_BLOCK_CHARS):
        text = "".join(lines)
        if '"' in text:
            break
        nrows = len(lines)
        line += nrows
        del lines
        cells = _split_block(text, nrows, ncol)
        del text
        yield nrows, cells
        del cells
    else:
        return
    del text
    rows = csv.reader(itertools.chain(lines, fh))
    size, fill = len(lines), [""] * ncol
    del lines
    try:
        while batch := list(itertools.islice(rows, size)):
            cells = []
            for row in batch:
                cells += row[:ncol]
                cells += fill[len(row):]
            nrows = len(batch)
            del batch
            yield nrows, cells
            del cells
    except csv.Error as exc:
        raise csv.Error(f"line {line + rows.line_num}: {exc}") from None


def _split_block(text: str, nrows: int, ncol: int) -> list[str]:
    """The cells of nrows unquoted lines as one row-major list, ncol a row.

    Each line ends at one line end (LF, CRLF or CR), save perhaps the
    file's last. Lines with fewer cells are padded with empty ones and
    lines with more are cut to ncol.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    # every line end is followed by a comma, so each cell holds at most one
    # line end, at its end: the block is regular iff it has nrows * ncol
    # cells and all nrows line ends sit in the cells of the last column
    cells = text.replace("\n", "\n,").split(",")
    cells.pop()
    last = "".join(cells[ncol - 1::ncol])
    if len(cells) == nrows * ncol and last.count("\n") == nrows:
        cells[ncol - 1::ncol] = last.split("\n")[:-1]
        return cells
    # some line is blank, short or long: pad or cut each line to ncol
    fill = "," * (ncol - 1)
    cells = []
    for row in text.split("\n")[:-1]:
        cells += (row + fill).split(",")[:ncol]
    return cells


def _parse_numeric(
    name: str, values: list[str], start: int = 0
) -> np.ndarray:
    """values as float64 by float(); values[0] is data row start + 1, the
    row a ParseError for it cites."""
    try:
        return np.fromiter(map(float, values), float, len(values))
    except ValueError:
        # a second pass only to name the first bad cell
        for row, v in enumerate(values, start + 1):
            try:
                float(v)
            except ValueError:
                raise ParseError(row, name, v) from None
        raise


def build_result(config: RunConfig):
    """Load, validate, and fit; shared by run() and the tests.

    A NonFinite or MissingLabel cites its cell as ParseError does: by
    1-based data row and CSV header."""
    sample, labels, kinds = _load_sample(config)
    return fit_hte(sample, config.spec, at=config.at, labels=labels,
                   kinds=kinds)


def _load_sample(config: RunConfig):
    """The validated sample, covariate labels and kinds of the CSV input.

    The CSV is read once: the numeric roles (outcome, running variable,
    --hetero declared :cont, :cont^k, :bin or :q<k>) as numbers, in the
    order their parse errors are raised, and the text roles (--cluster,
    :cat and bare --hetero names of no numeric role) as text. The text
    columns die when this returns, so they are not held while the sample
    is fitted."""
    numeric = [config.outcome, config.running]
    numeric += [name for name, col in config.hetero
                if col is not None and col.kind != "categorical"]
    text_roles = [name for name, col in config.hetero
                  if (name not in numeric if col is None
                      else col.kind == "categorical")]
    if config.cluster is not None:
        text_roles.append(config.cluster)
    text, numbers = load_csv(config.data, text_roles, numeric)

    # a bare name takes the numbers of its numeric role, if it has one;
    # else its text is parsed once and kept as categorical text if a cell
    # does not parse. Numbers make 0/1 columns binary, others continuous
    col_specs, expand_raw = [], {}
    for name, col in config.hetero:
        if col is not None and col.kind == "categorical":
            values = text[name]
        elif name in numbers:
            values = numbers[name]
        else:
            try:
                values = _parse_numeric(name, text[name])
            except ParseError:
                values, col = text[name], ColumnSpec(name, "categorical")
        if col is None:
            kind = "binary" if is_binary(values) else "continuous"
            col = ColumnSpec(name, kind)
        col_specs.append(col)
        expand_raw[name] = values

    y, x = numbers[config.outcome], numbers[config.running]
    cluster = None if config.cluster is None else text[config.cluster]
    roles = {"y": config.outcome, "x": config.running,
             "cluster": config.cluster}
    headers = {}  # expand_covariates names columns by their headers
    try:
        try:
            w, labels, kinds = expand_covariates(
                expand_raw, CovariateSpec(tuple(col_specs))
            )
        except TooFewObservations:
            # no fit can use this W, but a bad cell of y, x or the cluster
            # is still cited first
            headers = roles
            validate_sample(y, x, config.cutoff, None, cluster)
            raise
        headers = roles
        sample = validate_sample(y, x, config.cutoff,
                                 w if w.shape[1] else None, cluster)
    except (NonFinite, MissingLabel) as exc:
        if exc.row < 0:
            raise
        column = headers.get(exc.column, exc.column)
        raise type(exc)(exc.row + 1, column) from None
    return sample, labels, kinds


def run(config: RunConfig) -> tuple[str, int]:
    """Execute one configured run; returns (output text, exit code)."""
    try:
        result = build_result(config)
    except (InputError, OSError) as exc:
        return f"error: {exc}\n", 2
    except EstimationError as exc:
        return f"error: {exc}\n", 3
    if config.fmt == "json":
        return render_json(result), 0
    if config.fmt == "csv":
        return render_csv(result), 0
    return render_table(result), 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        text, code = run(parse_config(sys.argv[1:] if argv is None else argv))
    except InputError as exc:
        text, code = f"error: {exc}\n", 2
    if code == 0:
        sys.stdout.write(text)
    else:
        sys.stderr.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
