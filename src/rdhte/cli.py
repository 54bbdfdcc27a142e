"""Command line front end: CSV in, estimates out.

It only turns argument and CSV text into values and leaves every check to
the library; errors about a data cell cite its 1-based row and CSV header.

Exit codes: 0 success, 2 malformed input or usage, 3 estimation failure.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import re
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
from .estimands import _process_count, _run_forked, fit_hte
from .model import (
    CodedLabels,
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
#: load_csv cuts the data into ranges of whole lines of at least this many
#: bytes, and _cell_blocks sizes its batches of rows by this many chars
_BLOCK_CHARS = 1 << 20
#: a quote-free CSV with at least this many bytes after its header is read
#: by the caller and forked workers together (see load_csv); below it the
#: fork and the worker's first, slower range cost more than they save
PARALLEL_MIN_BYTES = 4 << 20
_LINE_END = re.compile(rb"\r\n?|\n")


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
    for name, _ in ns.hetero:
        # in a window x is affine in u, and a level or bin indicator of x
        # is constant on one side: every kind is singular
        if name == ns.running:
            parser.error(f"--hetero {name!r} is the --running column; as "
                         "a covariate it is collinear with the local "
                         "polynomial in it")
        # y then fits itself exactly in every window, and the effects
        # printed are rounding noise
        if name == ns.outcome:
            parser.error(f"--hetero {name!r} is the --outcome column; a "
                         "covariate must not be the outcome it explains")
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
) -> tuple[dict[str, CodedLabels], dict[str, np.ndarray]]:
    """Read the named columns from a headered CSV (UTF-8, BOM tolerated).

    Returns (text, numbers): text maps each name in columns to its cells
    as CodedLabels (levels of text, int32 codes), numbers each name in
    numeric to its cells parsed by float() as a float64 array. A name in
    both lists is read once and comes back in both forms. Every line after
    the header is one row: a blank line is a row of empty cells, missing
    trailing cells are empty and extra cells are ignored. Lines end in LF,
    CRLF or CR.

    The data after the header is cut into ranges of whole lines of about
    _BLOCK_CHARS bytes each, so no file-sized text is held. Each range is
    read and split column-wise in one pass; its numeric columns are parsed
    there, and its text columns coded there: the range's distinct cells
    in first-appearance order and each cell's position among them. So no
    cell outlives its range as text unless it is the first of its label in
    the range, and a column of few labels holds a few bytes a row. The
    ranges are joined in file order: a column's levels are its ranges'
    levels one after another, so a label that recurs in a later range is
    a level once for each range it appears in, and each range's codes are
    shifted past the levels before it. From the first range with a quote
    on, csv.reader parses RFC 4180 quoting, as it does all rows of a file
    that cannot seek, such as a pipe.

    A file of at least PARALLEL_MIN_BYTES after its header, with no quote
    there, is parsed by the caller and forked worker processes together,
    one per further usable CPU, under the gate monte_carlo forks under
    (two or more CPUs on Linux, no other live thread, a caller that is
    not daemonic); each process takes the next range from one shared
    counter, and a worker sends back arrays and each range's distinct
    labels only. The ranges are joined in file order, so the columns
    equal the serial ones bit for bit, errors are those of the serial
    read, and no worker outlives the call.

    Raises
    ------
    MissingColumn
    InputError
        If the file has no header row, a requested column appears more
        than once in it, the file is not UTF-8 (with the decoder's
        message, citing the file's line and the byte within it), or
        csv.reader rejects a line, such as one with a field
        longer than csv.field_size_limit() (citing the file's line).
    ParseError
        Once the whole file is read, for the first bad cell of the first
        column in numeric order that has one, citing its 1-based data row.
    """
    names = list(dict.fromkeys([*numeric, *columns]))
    # per text column, its levels so far and each range's codes with the
    # count of levels before the range
    levels = {name: [] for name in columns}
    codes = {name: [] for name in columns}
    parts = {name: [] for name in numeric}
    bad: dict[str, ParseError] = {}
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            header, line, start = _read_header(fh, path)
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
            ncol = len(header)
            wanted = [(name, index[name]) for name in names]

            def take(cells: list[str]) -> tuple[dict, dict]:
                """A block's text columns, each coded by _code_cells, and
                its numeric columns, each an array or the ParseError of its
                first bad cell, the row counted from the block's start."""
                texts, numbers = {}, {}
                for name, j in wanted:
                    column = cells[j::ncol]
                    if name in levels:
                        texts[name] = _code_cells(column)
                    if name in parts:
                        try:
                            numbers[name] = _parse_numeric(name, column)
                        except ParseError as exc:
                            numbers[name] = exc
                return texts, numbers

            if not names:
                blocks = ()
            elif fh.seekable():
                blocks = _blocks(path, start, line, ncol, take)
            else:  # a pipe: csv.reader reads on from the header
                blocks = ((nrows, take(cells))
                          for nrows, cells in _cell_blocks(fh, ncol, line))
            nrows = 0
            for block_rows, (texts, numbers) in blocks:
                for name, (block_levels, block_codes) in texts.items():
                    codes[name].append((len(levels[name]), block_codes))
                    levels[name] += block_levels
                for name, got in numbers.items():
                    if isinstance(got, ParseError):
                        bad.setdefault(name, ParseError(
                            nrows + got.row, name, got.value))
                    elif name not in bad:
                        parts[name].append(got)
                nrows += block_rows
    except csv.Error as exc:
        raise InputError(f"{path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise InputError(_decode_error(path, exc)) from None
    for name in numeric:
        if name in bad:
            raise bad[name]
    numbers = {name: np.concatenate(arrays) if arrays else np.empty(0)
               for name, arrays in parts.items()}
    text = {name: CodedLabels(held, _join_codes(codes[name], len(held)))
            for name, held in levels.items()}
    return text, numbers


def _code_cells(cells: list[str]) -> tuple[list[str], np.ndarray]:
    """(levels, codes): the distinct cells in first-appearance order, and
    each cell's position among them as int32 (a block holds fewer than
    2^31 cells)."""
    # the first row of each cell's label, in one dict lookup or insert a
    # cell; first keeps the labels in first-appearance order
    first = {}
    rows = np.fromiter(map(first.setdefault, cells, itertools.count()),
                       np.intp, len(cells))
    rank = np.empty(len(cells), np.int32)
    rank[np.fromiter(first.values(), np.intp, len(first))] = np.arange(
        len(first), dtype=np.int32)
    return list(first), rank[rows]


def _join_codes(parts: list[tuple[int, np.ndarray]], levels: int):
    """One array of the codes of parts, each (offset, codes) of a block
    in file order, shifted by its offset; int32 unless levels, the count
    of levels they index, needs more."""
    total = sum(part.size for _, part in parts)
    joined = np.empty(total, np.int32 if levels <= 1 << 31 else np.int64)
    end = 0
    for offset, part in parts:
        start, end = end, end + part.size
        np.add(part, offset, out=joined[start:end], dtype=joined.dtype)
    return joined


def _read_header(fh, path: str) -> tuple[list[str], int, int]:
    """(header, lines, start): the header row of the CSV open as the text
    file fh (UTF-8, newline=""), the count of the file's lines it spans
    and the byte offset where the line after it starts. A BOM that starts
    the file is not text, as utf-8-sig decodes it; fh is left at the line
    after the header."""
    head = []  # the header's lines as read, with their line ends

    def lines():
        while line := fh.readline():
            head.append(line)
            if len(head) == 1:
                line = line.removeprefix("\ufeff")
            if line:
                yield line

    reader = csv.reader(lines())
    try:
        header = next(reader)
    except StopIteration:
        raise InputError(f"{path}: empty file, header row required")
    except csv.Error as exc:
        raise csv.Error(f"line {reader.line_num}: {exc}") from None
    return header, reader.line_num, len("".join(head).encode("utf-8"))


def _blocks(path: str, start: int, line: int, ncol: int, take):
    """(nrows, take(cells)) for each block of the data rows from byte
    start on, in file order, with cells row-major, ncol a row; line is the
    count of the file's lines before start.

    The blocks are the ranges of _range_cuts, read and split by
    _split_block, until the first range with a quote; that range and the
    rest of the file go through _cell_blocks. When the gate allows and
    the data holds no quote, the ranges are read by the caller and forked
    workers first, and each range is read here only if its process failed.
    """
    cuts = _range_cuts(path, start)
    tasks = len(cuts) - 1

    def read_range(i: int):
        """(nrows, take(cells)) of range i, or None if it holds a quote."""
        with open(path, "rb") as fb:
            fb.seek(cuts[i])
            raw = fb.read(cuts[i + 1] - cuts[i])
        if b'"' in raw:
            return None
        text = raw.decode("utf-8")
        del raw
        nrows, cells = _split_block(text, ncol)
        del text
        return nrows, take(cells)

    procs = _process_count(tasks, cuts[-1] - start, PARALLEL_MIN_BYTES)
    if procs > 1 and _has_quote(path, start):
        procs = 1
    done = _run_forked(read_range, tasks, procs) if procs > 1 else {}
    for i in range(tasks):
        block = done.pop(i) if i in done else read_range(i)
        if block is None:
            break
        line += block[0]
        yield block
    else:
        return
    with open(path, "rb") as fb:
        fb.seek(cuts[i])
        with io.TextIOWrapper(fb, encoding="utf-8", newline="") as fh:
            for nrows, cells in _cell_blocks(fh, ncol, line):
                yield nrows, take(cells)


def _range_cuts(path: str, start: int) -> list[int]:
    """Byte offsets that cut the file at path, from start to its end, into
    ranges of whole lines: start, then after each cut the first line start
    at least _BLOCK_CHARS bytes later, and the file's size."""
    with open(path, "rb") as fb:
        size = fb.seek(0, io.SEEK_END)
        cuts = [start]
        while cuts[-1] < size:
            cuts.append(_line_start(fb, cuts[-1] + _BLOCK_CHARS, size))
    return cuts


def _line_start(fb, pos: int, size: int) -> int:
    """The offset of the first line start at or after pos in the binary
    file fb of size bytes, or size; a line ends in LF, CRLF or CR."""
    if pos >= size:
        return size
    fb.seek(pos - 1)
    at, buf = pos - 1, b""
    while more := fb.read(1 << 12):
        buf += more
        end = _LINE_END.search(buf)
        if end is None:
            at, buf = at + len(buf), b""
        elif end.end() < len(buf):  # a CR that ends buf may start a CRLF
            return at + end.end()
    return size


def _has_quote(path: str, start: int) -> bool:
    """Whether the file at path holds a double quote at or after byte
    start."""
    buf = bytearray(1 << 20)
    with open(path, "rb") as fb:
        fb.seek(start)
        while n := fb.readinto(buf):
            if buf.find(b'"', 0, n) >= 0:
                return True
    return False


def _decode_error(path: str, exc: UnicodeDecodeError) -> str:
    """The message of exc, raised on the file at path: the decoder's text,
    its position (which counts within the decoder's chunk) replaced by the
    file's 1-based line and byte within that line of the first bad byte.

    The file is read again in binary, line by line (lines end at LF); no
    multi-byte UTF-8 sequence holds a newline byte, so a line fails to
    decode exactly where the whole file does."""
    with open(path, "rb") as fh:
        for line, raw in enumerate(fh, 1):
            try:
                raw.decode(exc.encoding)
            except UnicodeDecodeError as bad:
                head = str(bad).partition(" in position ")[0]
                return (f"{head}: {bad.reason} ({path}, line {line}, "
                        f"byte {bad.start + 1})")
    return str(exc)


def _cell_blocks(fh, ncol: int, line: int):
    """The data rows from fh's position on, parsed by csv.reader (RFC 4180
    quoting), as (nrows, cells): cells is row-major, ncol a row, short
    rows padded with empty cells and long ones cut.

    The rows come in batches of as many rows as the first _BLOCK_CHARS
    chars of whole lines hold lines, so one batch is held at a time. line
    is the count of the file's lines before fh's position, so that a
    csv.Error cites the file's line it was raised on.
    """
    lines = fh.readlines(_BLOCK_CHARS)
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


def _split_block(text: str, ncol: int) -> tuple[int, list[str]]:
    """(nrows, cells): the count of unquoted lines in text and their cells
    as one row-major list, ncol a row.

    Each line ends at one line end (LF, CRLF or CR), save perhaps the
    text's last. Lines with fewer cells are padded with empty ones and
    lines with more are cut to ncol.
    """
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    if not text.endswith("\n"):
        text += "\n"
    nrows = text.count("\n")
    # every line end is followed by a comma, so each cell holds at most one
    # line end, at its end: the block is regular iff it has nrows * ncol
    # cells and all nrows line ends sit in the cells of the last column
    cells = text.replace("\n", "\n,").split(",")
    cells.pop()
    last = "".join(cells[ncol - 1::ncol])
    if len(cells) == nrows * ncol and last.count("\n") == nrows:
        cells[ncol - 1::ncol] = last.split("\n")[:-1]
        return nrows, cells
    # some line is blank, short or long: pad or cut each line to ncol
    fill = "," * (ncol - 1)
    cells = []
    for row in text.split("\n")[:-1]:
        cells += (row + fill).split(",")[:ncol]
    return nrows, cells


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
    :cat and bare --hetero names of no numeric role) as coded text. The
    text columns die when this returns, so they are not held while the
    sample is fitted."""
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
    # else each of its levels is parsed once, and the column is kept as
    # categorical text if a level does not parse. Numbers make 0/1 columns
    # binary, others continuous
    col_specs, expand_raw = [], {}
    for name, col in config.hetero:
        if col is not None and col.kind == "categorical":
            values = text[name]
        elif name in numbers:
            values = numbers[name]
        else:
            coded = text[name]
            try:
                values = _parse_numeric(name, coded.levels)[coded.codes]
            except ParseError:
                values, col = coded, ColumnSpec(name, "categorical")
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
