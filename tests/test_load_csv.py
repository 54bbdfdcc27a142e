"""cli.load_csv against a reader that takes every row through csv.reader.

load_csv splits quote-free ranges of lines itself and hands the rest of
the file to csv.reader from the first range with a quote on (and all of a
pipe's data); on every input it must return the lists the reference
reader returns, and float() of those lists for the columns it parses as
numbers.
"""

from __future__ import annotations

import dataclasses
import os
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rdhte.cli
from rdhte.cli import build_result, load_csv, parse_config
from rdhte.errors import ParseError
from rdhte.model import (
    ColumnSpec,
    CovariateSpec,
    expand_covariates,
    validate_sample,
)

from oracles import reference_load_csv

NAMES = ("a", "b", "c", "d")
LINE_ENDS = ("\n", "\r\n", "\r")

# unquoted cells hold no quote, comma or line end; quoted ones hold anything
plain_cells = st.text(alphabet="01.-e xé \t;", max_size=5)
quoted_cells = st.text(alphabet='0a ,"\n\ré', max_size=6).map(
    lambda s: '"' + s.replace('"', '""') + '"'
)
# cells float() reads, so that whole numeric columns parse
number_cells = st.one_of(
    st.floats().map(repr),
    st.sampled_from(["nan", "-nan", "-inf", " 1_0 ", "1e999", "-0", "0x1"]),
)
rows = st.lists(
    st.one_of(plain_cells, plain_cells, quoted_cells, number_cells),
    max_size=len(NAMES) + 2,
)


@st.composite
def csv_texts(draw):
    """A CSV file's text: header, then blank, short, regular and long rows
    with mixed line ends, optionally a BOM and no final line end."""
    header = [draw(st.sampled_from(['a', '"a"']))] + list(NAMES[1:])
    body = draw(st.lists(rows, max_size=12))
    ends = draw(st.lists(st.sampled_from(LINE_ENDS), min_size=len(body) + 1,
                         max_size=len(body) + 1))
    lines = [",".join(header)] + [",".join(row) for row in body]
    text = "".join(line + end for line, end in zip(lines, ends))
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    if draw(st.booleans()):
        text = "\ufeff" + text
    return text


def _write(tmp_path, text, name="t.csv"):
    path = tmp_path / name
    path.write_bytes(text.encode("utf-8"))
    return str(path)


def _assert_same_parse_errors(got, expected):
    for name in expected:
        outcomes = []
        for values in (got[name], expected[name]):
            try:
                rdhte.cli._parse_numeric(name, values)
                outcomes.append(None)
            except ParseError as exc:
                outcomes.append((exc.row, exc.value))
        assert outcomes[0] == outcomes[1]


def _first_bad_cell(name, values):
    """(1-based row, name, value) of the first cell float() rejects."""
    for row, value in enumerate(values, 1):
        try:
            float(value)
        except ValueError:
            return row, name, value
    return None


@settings(max_examples=300, deadline=None)
@given(text=csv_texts(), block=st.sampled_from([1, 7, 40, 1 << 20]),
       columns=st.sampled_from([NAMES, ("d", "a"), ("c",), ("b", "b")]),
       numeric=st.lists(st.sampled_from(NAMES), min_size=1, unique=True))
def test_load_csv_equals_the_reference_reader(
    tmp_path_factory, text, block, columns, numeric
):
    # small blocks put block boundaries and the quote handoff anywhere;
    # numeric names may or may not be text columns too
    path = _write(tmp_path_factory.mktemp("csv"), text)
    expected = reference_load_csv(path, NAMES)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rdhte.cli, "_BLOCK_CHARS", block)
        got, untyped = load_csv(path, columns)
        try:
            (same, typed), error = load_csv(path, columns, numeric), None
        except ParseError as exc:
            error = (exc.row, exc.column, exc.value)
    reference = reference_load_csv(path, columns)
    assert got == reference and untyped == {}
    _assert_same_parse_errors(got, reference)

    # the first numeric column, in numeric order, with a bad cell raises
    bad = (_first_bad_cell(name, expected[name]) for name in numeric)
    assert error == next(filter(None, bad), None)
    if error is not None:
        return
    assert same == got
    assert typed.keys() == set(numeric)
    for name in numeric:
        # bit for bit, NaN payloads and signed zeros included
        ref = np.array([float(v) for v in expected[name]], dtype=np.float64)
        assert typed[name].dtype == np.float64
        assert typed[name].tobytes() == ref.tobytes()


@pytest.mark.parametrize(
    "text, expected",
    [
        ("a,b\n1,2\n\n3\n4,5,6\n", {"a": ["1", "", "3", "4"],
                                   "b": ["2", "", "", "5"]}),
        ("a,b\n1\n2,3,4\n", {"a": ["1", "2"], "b": ["", "3"]}),
        ("a,b\r\n1,2\r\n3,4", {"a": ["1", "3"], "b": ["2", "4"]}),
        ("a,b\r1,2\r3,4\r", {"a": ["1", "3"], "b": ["2", "4"]}),
        ('"a",b\r\n"x,y",2\r\n"q""r","s\nt"\r\n',
         {"a": ["x,y", 'q"r'], "b": ["2", "s\nt"]}),
    ],
    ids=["blank_short_long", "short_then_long", "crlf_no_final_end", "lone_cr", "quoted"],
)
def test_load_csv_dialect(tmp_path, text, expected):
    path = _write(tmp_path, text)
    assert load_csv(path, ["a", "b"]) == (expected, {})
    assert reference_load_csv(path, ["a", "b"]) == expected


def test_load_csv_reads_a_pipe(tmp_path, monkeypatch):
    # a pipe cannot be cut into byte ranges: csv.reader reads on from the
    # header (as for `--data <(command)`), to the same columns
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", 1 << 10)
    text = "a,b\n" + "".join(f"{i},x{i % 3}\n" for i in range(2000))
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)

    def feed():
        with open(fifo, "w") as fh:
            fh.write(text)

    writer = threading.Thread(target=feed)
    writer.start()
    try:
        got = load_csv(str(fifo), ["b"], ["a"])
    finally:
        writer.join(timeout=10)
    path = _write(tmp_path, text)
    assert got[0] == reference_load_csv(path, ["b"])
    np.testing.assert_array_equal(got[1]["a"], np.arange(2000.0))


def test_a_crlf_across_the_cut_scan_is_one_line_end(tmp_path, monkeypatch):
    # the first cut is sought from byte 5 + 1 KiB - 1 in 4 KiB reads; a
    # line long enough puts its CR last in the first read and its LF first
    # in the next, and a cut between them would add a blank row
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", 1 << 10)
    path = _write(tmp_path, "a,b\r\n1," + "2" * 5116 + "\r\n3,4\r\n" * 300)
    assert rdhte.cli._range_cuts(path, 5)[:2] == [5, 5125]
    assert load_csv(path, ["a", "b"]) == (
        reference_load_csv(path, ["a", "b"]), {})


def test_load_csv_across_blocks_and_the_quote_handoff(tmp_path):
    # about 2.5 MB in 1 MiB blocks: blank, short and long rows and a bad
    # number in the first two blocks, the first quote in the third
    rng = np.random.default_rng(17)
    cells = [[repr(float(v)) for v in rng.standard_normal(40_000)]
             for _ in range(3)]
    lines = [f"{y},{x},{g}" for y, x, g in zip(*cells)]
    for first in (10, 20_000):
        lines[first] = ""
        lines[first + 1] = lines[first + 1].rsplit(",", 1)[0]
        lines[first + 2] += ",extra,cells"
    lines[5] = "oops," + lines[5].split(",", 1)[1]
    lines[20_003] = "1.5,nope," + lines[20_003].rsplit(",", 1)[1]
    lines[38_000] = '"2.5",' + lines[38_000].split(",", 1)[1]
    lines[38_001] = '3,"4,5",' + lines[38_001].rsplit(",", 1)[1]
    lines[38_002] = '"",0.1,"two\nlines"'
    text = "y,x,g\r\n" + "\r\n".join(lines) + "\r\n"
    starts = np.cumsum([len(line) + 2 for line in lines]) + 7
    assert starts[13] < 1 << 20
    assert 1 << 20 < starts[19_999] < starts[20_003] < 2 << 20
    assert text.index('"') > 2 << 20
    path = _write(tmp_path, text)

    expected = reference_load_csv(path, ["y", "x", "g"])
    got, _ = load_csv(path, ["y", "x", "g"])
    assert got == expected
    assert [got[name][20_000] for name in "yxg"] == ["", "", ""]
    assert got["g"][20_001] == "" and got["x"][20_003] == "nope"
    assert got["x"][38_001] == "4,5" and got["g"][38_002] == "two\nlines"
    _assert_same_parse_errors(got, expected)

    # the CLI cites the 1-based data row of the first bad cell
    for name, row, value in (("y", 6, "oops"), ("x", 11, "")):
        config = parse_config(["--data", path, "--outcome", name,
                               "--running", "g", "--cutoff", "0"])
        with pytest.raises(ParseError) as exc:
            build_result(config)
        assert (exc.value.row, exc.value.column, exc.value.value) == (
            row, name, value
        )


#: flags, and --hetero tokens added past parse_config (which refuses a
#: --hetero column that is the --outcome one), that give a column a second,
#: text role, by test id
DUAL_ROLES = {
    "": ((), ()),
    "outcome_cluster": (("--cluster", "y"), ()),
    "outcome_cat": ((), ("y:cat",)),
    "outcome_bare": ((), ("y",)),
    "bin_cluster": (("--hetero", "b:bin", "--cluster", "b"), ()),
}


@pytest.mark.parametrize("quoted, roles", [
    pytest.param(quoted, roles, id="-".join(filter(None, (path, name))))
    for quoted, path in ((False, "split"), (True, "csv_reader"))
    for name, roles in DUAL_ROLES.items()
])
def test_cli_cites_the_outcome_before_an_earlier_running_cell(
    tmp_path, monkeypatch, quoted, roles
):
    # a bad 0/1 cell and a bad running-variable cell in the first block and
    # a bad outcome cell in the last: parse errors follow the roles, not
    # the file order, also when a numeric column has a text role too
    rng = np.random.default_rng(5)
    lines = [f"{float(y)!r},{float(x)!r},{b}" for (y, x), b in
             zip(rng.standard_normal((400, 2)), rng.integers(0, 2, 400))]
    lines[1] = lines[1].rsplit(",", 1)[0] + ",b?"
    lines[2] = lines[2].split(",")[0] + ",x?,1"
    lines[-1] = "y?," + lines[-1].split(",", 1)[1]
    if quoted:
        lines[0] = '"' + lines[0].replace(",", '","') + '"'
    path = _write(tmp_path, "y,x,b\n" + "\n".join(lines) + "\n")
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", 1 << 10)
    assert len(lines[0]) + len(lines[1]) + len(lines[2]) < 1 << 10
    assert sum(map(len, lines[:-1])) > 10 << 10

    flags, tokens = roles
    config = parse_config(["--data", path, "--outcome", "y",
                           "--running", "x", "--cutoff", "0", *flags])
    config = dataclasses.replace(config, hetero=config.hetero + tuple(
        map(rdhte.cli._hetero_token, tokens)))
    with pytest.raises(ParseError) as exc:
        build_result(config)
    assert (exc.value.row, exc.value.column, exc.value.value) == (
        400, "y", "y?"
    )
    text, code = rdhte.cli.run(config)
    assert code == 2 and "row 400" in text and "'y'" in text


def _write_study_csv(path, rows):
    """A CSV shaped like the benchmark's: three numeric columns (outcome,
    running variable, income) and two text columns (region, school)."""
    rng = np.random.default_rng(rows)
    score = rng.uniform(-1.0, 1.0, rows)
    income = np.exp(rng.normal(10.5, 0.6, rows))
    region = np.array(["north", "south", "west"])[rng.choice(3, rows)]
    school = rng.integers(0, 400, rows)
    earnings = score + (score >= 0) + rng.standard_normal(rows)
    with open(path, "w", newline="") as fh:
        fh.write("earnings,score,income,region,school\n")
        for e, s, i, r, c in zip(earnings, score, income, region, school):
            fh.write(f"{float(e)!r},{float(s)!r},{float(i)!r},{r},{c}\n")


def test_load_sample_memory_grows_at_most_300_bytes_a_row(
    tmp_path, monkeypatch
):
    # the traced peak of one ingest, 20k rows against 80k: a probe read
    # 434-453 B/row while every cell was held as text until the whole file
    # was read, and 208-227 B/row with numeric columns parsed block by
    # block (the text columns alone hold about 124 B/row). An outcome that
    # is also the cluster is held as text and as numbers: 278 B/row, where
    # parsing it only after the whole file was read took 428
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", 64 << 10)
    flags = ["--outcome", "earnings", "--running", "score", "--cutoff", "0",
             "--hetero", "income:q4", "--hetero", "region:cat",
             "--vce", "cluster"]
    for cluster in ("school", "earnings"):
        peaks = {}
        for rows in (20_000, 20_000, 80_000):  # the first run warms up
            path = tmp_path / f"study_{rows}.csv"
            if not path.exists():
                _write_study_csv(path, rows)
            config = parse_config(["--data", str(path), *flags,
                                   "--cluster", cluster])
            tracemalloc.start()
            try:
                rdhte.cli._load_sample(config)
                peaks[rows] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        per_row = (peaks[80_000] - peaks[20_000]) / 60_000
        assert per_row <= 300, (cluster, per_row)


def _traced_slope(tmp_path, measure):
    """Bytes a row of the traced peak of measure(path), 20k rows against
    80k of the study CSV; the first of two 20k runs warms up."""
    peaks = {}
    for rows in (20_000, 20_000, 80_000):
        path = tmp_path / f"study_{rows}.csv"
        if not path.exists():
            _write_study_csv(path, rows)
        peaks[rows] = measure(str(path))
    return (peaks[80_000] - peaks[20_000]) / 60_000


def _traced_peak(call, *args, **kwargs):
    """The traced peak of call(*args, **kwargs) above what was allocated
    before it."""
    tracemalloc.start()
    try:
        call(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_text_columns_hold_one_string_per_label(tmp_path):
    # a probe at the default block size: region + school read 126 B/row
    # with one str a cell and 20 with a pool per block; an all-distinct
    # column 79 and 80, and 112 with one pool for the whole file
    labels = _traced_slope(
        tmp_path, lambda path: _traced_peak(load_csv, path,
                                            ["region", "school"]))
    assert labels <= 32, labels
    distinct = _traced_slope(
        tmp_path, lambda path: _traced_peak(load_csv, path, ["earnings"]))
    assert distinct <= 90, distinct

    path = tmp_path / "study_20000.csv"
    assert 1 << 20 < path.stat().st_size < 2 << 20  # two blocks
    text, _ = load_csv(str(path), ["region", "school"])
    assert len(set(map(id, text["region"]))) <= 3 * 2
    assert text == reference_load_csv(str(path), ["region", "school"])


def test_expand_covariates_writes_w_once(tmp_path):
    # a probe read 8d + 43 B/row above the inputs while every column was
    # built and then stacked, 8d + 18 with W allocated once
    spec = CovariateSpec((ColumnSpec("income", "quantile_bins", bins=4),
                          ColumnSpec("region", "categorical")))

    def measure(path):
        text, numbers = load_csv(path, ["region"], ["income"])
        raw = {"income": numbers["income"], "region": text["region"]}
        return _traced_peak(expand_covariates, raw, spec)

    d = 3 + 2
    assert _traced_slope(tmp_path, measure) <= 8 * d + 32


def test_validate_sample_codes_a_text_cluster_without_a_list_copy(tmp_path):
    # a probe read 24 B/row above the inputs while label_codes listed the
    # object array of labels, and 18 with the array coded as it is
    def measure(path):
        text, numbers = load_csv(path, ["school"], ["earnings", "score"])
        return _traced_peak(validate_sample, numbers["earnings"],
                            numbers["score"], 0.0, None, text["school"])

    assert _traced_slope(tmp_path, measure) <= 21
