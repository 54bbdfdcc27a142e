from __future__ import annotations

import csv
import dataclasses
import io
import json
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest

import rdhte.cli
from rdhte.cli import RunConfig, build_result, load_csv, main, parse_config, run
from rdhte.errors import InputError, InvalidSetting, MissingColumn, ParseError
from rdhte.estimands import EstimandRecord, fit_hte
from rdhte.model import (
    ColumnSpec,
    Common,
    CovariateSpec,
    Fixed,
    FitSpec,
    Select,
    expand_covariates,
    validate_sample,
)
from rdhte.render import render_json, render_table
from rdhte.simulate import canonical_preset, gen_sample

BASE = ["--data", "f.csv", "--outcome", "y", "--running", "x", "--cutoff", "0"]


def write_sample_csv(path, n=600, seed=5, income=False):
    sample = gen_sample(canonical_preset(), n, seed)
    rng = np.random.default_rng(seed + 1)
    inc = rng.uniform(0.0, 10.0, n)
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        header = ["y", "x", "w0", "cid"] + (["income"] if income else [])
        wtr.writerow(header)
        for i in range(n):
            row = [
                repr(float(sample.y[i])),
                repr(float(sample.x[i])),
                repr(float(sample.w[i, 0])),
                f"g{i % 25}",
            ]
            if income:
                row.append(repr(float(inc[i])))
            wtr.writerow(row)
    return sample


# ---------------------------------------------------------------------------
# argument parsing


def test_parse_config_full_flag_set():
    cfg = parse_config(
        BASE[:-1]
        + ["0.5"]
        + [
            "--hetero", "income:q4",
            "--hetero", "age:cont^2",
            "--cluster", "cid",
            "--kernel", "epa",
            "--p", "2",
            "--s", "1",
            "--deriv", "1",
            "--bw", "0.3",
            "--vce", "hc1",
            "--level", "0.9",
            "--at", "0.5,0.75",
            "--format", "json",
        ]
    )
    assert cfg.cutoff == 0.5
    assert cfg.hetero == (
        ("income", ColumnSpec("income", "quantile_bins", bins=4)),
        ("age", ColumnSpec("age", "continuous", power_max=2)),
    )
    assert cfg.cluster == "cid"
    assert cfg.spec.kernel == "epanechnikov"
    assert (cfg.spec.p, cfg.spec.s, cfg.spec.nu) == (2, 1, 1)
    assert cfg.spec.bandwidth == Common(0.3)
    assert cfg.spec.vce == "hc1"
    assert cfg.spec.level == 0.9
    assert cfg.at == ((0.5,), (0.75,))
    assert cfg.fmt == "json"


def test_parse_config_bandwidth_variants():
    assert parse_config(BASE).spec.bandwidth == Select(mode="two_sided")
    assert parse_config(
        BASE + ["--bw-select", "one"]
    ).spec.bandwidth == Select(mode="one_sided")
    assert parse_config(
        BASE + ["--bw-side", "0.2", "0.3"]
    ).spec.bandwidth == Fixed(0.2, 0.3)


def test_parse_config_multicoordinate_at():
    cfg = parse_config(BASE + ["--at", "0.5:1,0.75:0"])
    assert cfg.at == ((0.5, 1.0), (0.75, 0.0))


def test_parse_config_bare_hetero_defers_kind():
    cfg = parse_config(BASE + ["--hetero", "income"])
    assert cfg.hetero == (("income", None),)


@pytest.mark.parametrize(
    "argv",
    [
        ["--data", "f.csv", "--running", "x", "--cutoff", "0"],  # no outcome
        BASE + ["--frobnicate"],
        BASE + ["--bw", "0.2", "--bw-side", "0.1", "0.3"],
        BASE + ["--hetero", "income:q1"],
        BASE + ["--hetero", "income:cont^0"],
        BASE + ["--hetero", ":q4"],
        BASE + ["--hetero", "income:zzz"],
        BASE + ["--at", "a,b"],
        BASE + ["--kernel", "gauss"],
        BASE + ["--vce", "cluster"],  # no --cluster column
    ],
)
def test_usage_errors_exit_2(argv):
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2


@pytest.mark.parametrize("token", ["income:q1", "income:cont^0", ":q4",
                                   "income:zzz", "income:qx"])
def test_bad_hetero_token_states_the_syntax(capsys, token):
    with pytest.raises(SystemExit):
        parse_config(BASE + ["--hetero", token])
    err = capsys.readouterr().err
    assert f"argument --hetero: bad value {token!r}" in err
    assert "expected COL[:cat|:bin|:cont[^k]|:q<k>]" in err


def test_parse_config_rejects_invalid_settings_before_reading_data():
    # BASE names a file that does not exist
    with pytest.raises(InvalidSetting, match="level"):
        parse_config(BASE + ["--level", "1.5"])


# ---------------------------------------------------------------------------
# CSV loading


def test_load_csv_three_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x\n1,0.1\n2,0.2\n3,0.3\n")
    text, numbers = load_csv(str(path), ["y", "x"])
    assert text == {"y": ["1", "2", "3"], "x": ["0.1", "0.2", "0.3"]}
    assert numbers == {}


def test_load_csv_strips_bom(tmp_path):
    path = tmp_path / "bom.csv"
    path.write_text("y,x\n1,0.1\n", encoding="utf-8-sig")
    text, _ = load_csv(str(path), ["y", "x"])
    assert text["y"] == ["1"]


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x\n1,0.1\n")
    with pytest.raises(MissingColumn):
        load_csv(str(path), ["y", "z"])


def test_load_csv_empty_file(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text("")
    with pytest.raises(InputError):
        load_csv(str(path), ["y"])


def test_load_csv_pads_short_rows(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x\n1\n2,0.2\n")
    text, _ = load_csv(str(path), ["y", "x"])
    assert text["x"] == ["", "0.2"]


def test_parse_error_cites_cell(tmp_path):
    path = tmp_path / "t.csv"
    rows = "\n".join(f"{v},0.{i}" for i, v in enumerate(["1", "abc", "3"], 1))
    path.write_text("y,x\n" + rows + "\n")
    config = parse_config(["--data", str(path), "--outcome", "y",
                           "--running", "x", "--cutoff", "0"])
    with pytest.raises(ParseError) as exc:
        build_result(config)
    assert exc.value.row == 2
    assert exc.value.column == "y"
    assert exc.value.value == "abc"
    text, code = run(config)
    assert code == 2
    assert "abc" in text


@pytest.mark.parametrize("bad_row", [1, 3, 5])
def test_parse_error_cites_cell_in_any_row(tmp_path, bad_row):
    xs = ["-0.2", "-0.1", "0.1", "0.2", "0.3"]
    xs[bad_row - 1] = "0x10"
    path = tmp_path / "t.csv"
    path.write_text("y,x\n" + "".join(f"1,{v}\n" for v in xs))
    with pytest.raises(ParseError) as exc:
        build_result(parse_config(cli_args(path)))
    assert (exc.value.row, exc.value.column, exc.value.value) == (
        bad_row, "x", "0x10"
    )


def test_parse_numeric_accepts_what_float_accepts():
    good = [" 1.5 ", "1_000", "nan", "-inf", "\uff11\uff12", "1e-3"]
    got = rdhte.cli._parse_numeric("v", good)
    np.testing.assert_array_equal(got, [float(v) for v in good])
    for bad in ("", "0x10", "1,5"):
        with pytest.raises(ParseError) as exc:
            rdhte.cli._parse_numeric("v", ["1", bad])
        assert (exc.value.row, exc.value.value) == (2, bad)


def test_bare_numeric_hetero_is_parsed_once(tmp_path, monkeypatch):
    path = tmp_path / "d.csv"
    write_sample_csv(path, n=200, income=True)
    parsed = []
    original = rdhte.cli._parse_numeric

    def counting(name, values, *start):
        parsed.append(name)
        return original(name, values, *start)

    monkeypatch.setattr(rdhte.cli, "_parse_numeric", counting)
    result = build_result(parse_config(
        cli_args(path, "--hetero", "income", "--bw", "0.5")
    ))
    assert parsed == ["y", "x", "income"]
    assert result.kinds == ("continuous",)


@pytest.mark.parametrize(
    "flag, value, message",
    [
        ("--level", "1.5", "level"),
        ("--level", "0", "level"),
        ("--p", "-1", "orders"),
        ("--s", "-1", "orders"),
        ("--at", "nan", "w=(nan)"),
        ("--at", "inf", "w=(inf)"),
        ("--bw", "nan", "nan"),
        ("--bw", "inf", "inf"),
        ("--bw-side", "0.3 nan", "nan"),
    ],
)
def test_invalid_fit_settings_exit_2(tmp_path, capsys, flag, value, message):
    path = tmp_path / "d.csv"
    write_sample_csv(path, n=100)
    argv = cli_args(path, "--hetero", "w0", "--format", "json", flag)
    assert main(argv + value.split()) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: ")
    assert message in out.err


# ---------------------------------------------------------------------------
# end-to-end runs


def cli_args(path, *extra):
    return ["--data", str(path), "--outcome", "y", "--running", "x",
            "--cutoff", "0", *extra]


def test_table_output(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path)
    config = parse_config(cli_args(path, "--hetero", "w0", "--bw", "0.25"))
    text, code = run(config)
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("Estimand")
    assert "RBC 95% CI" in lines[0]
    assert any(line.startswith("Baseline (w=0)") for line in lines)
    assert any(line.startswith("CATE: w0") for line in lines)
    assert any(line.startswith("Diff: w0") for line in lines)


def test_json_round_trip_and_determinism(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path)
    config = parse_config(
        cli_args(path, "--hetero", "w0", "--bw", "0.25", "--format", "json")
    )
    text, code = run(config)
    assert code == 0
    payload = json.loads(text)
    assert payload["schema"] == "rdhte/1"
    assert payload["bandwidth"]["mode"] == "fixed"
    assert [c["label"] for c in payload["covariates"]] == ["w0"]
    assert len(payload["estimands"]) == 3
    text2, _ = run(config)
    assert text2 == text


def test_json_of_one_sided_selection_at_the_pilot_floor(tmp_path):
    # at n = 30 the left pilot bandwidth sits on its floor, the side's
    # largest distance to the cutoff, where the selected h is clipped too,
    # and the regularized bias denominator engages
    path = tmp_path / "d.csv"
    write_sample_csv(path, n=30, seed=4)
    config = parse_config(cli_args(
        path, "--hetero", "w0", "--bw-select", "one", "--format", "json"
    ))
    text, code = run(config)
    assert code == 0
    bandwidth = json.loads(text)["bandwidth"]
    assert bandwidth["mode"] == "one_sided"
    assert bandwidth["bias_degenerate"] is True
    assert bandwidth["pilot_left"] == bandwidth["h_left"]


def test_cli_numbers_equal_library_api(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path)
    config = parse_config(cli_args(path, "--bw", "0.3", "--format", "json"))
    payload = json.loads(run(config)[0])

    text, _ = load_csv(str(path), ["y", "x"])
    y = np.array([float(v) for v in text["y"]])
    x = np.array([float(v) for v in text["x"]])
    sample = validate_sample(y, x, 0.0)
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.3)))
    rec = result.records[0]
    got = payload["estimands"][0]
    assert len(payload["estimands"]) == 1
    assert got["point"] == rec.point
    assert got["rbc_point"] == rec.rbc_point
    assert got["rbc_se"] == rec.rbc_se
    assert got["ci"] == [rec.ci_low, rec.ci_high]
    assert got["p_value"] == rec.p_value


def test_csv_output_full_precision(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path)
    config = parse_config(
        cli_args(path, "--hetero", "w0", "--bw", "0.25", "--format", "csv")
    )
    text, code = run(config)
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0][0] == "Estimand"
    assert len(rows) == 4
    payload = json.loads(
        run(
            parse_config(
                cli_args(path, "--hetero", "w0", "--bw", "0.25",
                         "--format", "json")
            )
        )[0]
    )
    assert float(rows[1][1]) == payload["estimands"][0]["point"]


def test_quartile_discretization_labels(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path, income=True)
    config = parse_config(
        cli_args(path, "--hetero", "income:q4", "--bw", "0.3",
                 "--format", "json")
    )
    payload = json.loads(run(config)[0])
    assert [c["label"] for c in payload["covariates"]] == [
        "income:q2", "income:q3", "income:q4",
    ]
    assert all(c["kind"] == "indicator" for c in payload["covariates"])


def test_continuous_power_expansion_labels(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path, income=True)
    config = parse_config(
        cli_args(path, "--hetero", "income:cont^2", "--bw", "0.3",
                 "--format", "json")
    )
    payload = json.loads(run(config)[0])
    assert [c["label"] for c in payload["covariates"]] == ["income", "income^2"]
    labels = [e["label"] for e in payload["estimands"]]
    assert "Slope: income" in labels
    assert "Slope: income^2" in labels


def test_cluster_flag_reaches_inference(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path)
    config = parse_config(
        cli_args(path, "--hetero", "w0", "--cluster", "cid",
                 "--vce", "cluster", "--bw", "0.3", "--format", "json")
    )
    text, code = run(config)
    assert code == 0
    assert json.loads(text)["vce"] == "cluster"


def _set_cell(path, row, col, value):
    """Overwrite one cell; row 1 is the first data row."""
    lines = path.read_text().splitlines()
    cells = lines[row].split(",")
    cells[col] = value
    lines[row] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def test_empty_cluster_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_sample_csv(path)
    _set_cell(path, 7, 3, "")
    argv = cli_args(path, "--cluster", "cid", "--vce", "cluster", "--bw", "0.3")
    assert main(argv) == 2
    assert "missing label at row 7, column 'cid'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "hetero, col", [("w0:cat", 2), ("income:cat", 4), ("income", 4)]
)
def test_empty_hetero_cell_exits_2(tmp_path, capsys, hetero, col):
    # a bare numeric column with a blank cell falls back to categorical,
    # where the blank is a missing label, not a level of its own
    path = tmp_path / "d.csv"
    write_sample_csv(path, income=True)
    _set_cell(path, 8, col, "")
    assert main(cli_args(path, "--hetero", hetero, "--bw", "0.3")) == 2
    name = hetero.partition(":")[0]
    assert capsys.readouterr().err == (
        f"error: missing label at row 8, column {name!r}\n"
    )


@pytest.mark.parametrize("column", ["earn", "score", "y"])
def test_non_finite_cell_cites_csv_row_and_header(tmp_path, capsys, column):
    # a covariate named y: the outcome's library name is no CSV header
    path = tmp_path / "d.csv"
    rows = [["earn", "score", "y"]]
    rows += [[f"{i % 3}", f"{(i - 20) / 20}", f"{i % 2}"] for i in range(40)]
    rows[3][rows[0].index(column)] = "nan"
    path.write_text("".join(",".join(r) + "\n" for r in rows))
    argv = ["--data", str(path), "--outcome", "earn", "--running", "score",
            "--cutoff", "0", "--hetero", "y", "--bw", "0.5"]
    assert main(argv) == 2
    assert capsys.readouterr().err == (
        f"error: non-finite value at row 3, column {column!r}\n"
    )


def test_power_overflow_cites_csv_row_and_power(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_sample_csv(path, income=True)
    _set_cell(path, 4, 4, "1e200")
    argv = cli_args(path, "--hetero", "income:cont^2", "--bw", "0.3")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    assert capsys.readouterr().err == (
        "error: non-finite value at row 4, column 'income^2'\n"
    )


def test_quantile_bins_nan_cell_exits_2(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_sample_csv(path, income=True)
    _set_cell(path, 5, 4, "nan")
    assert main(cli_args(path, "--hetero", "income:q2", "--bw", "0.3")) == 2
    err = capsys.readouterr().err
    assert "non-finite value" in err and "column 'income'" in err


def test_estimation_failure_exits_3(tmp_path):
    path = tmp_path / "one_sided.csv"
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["y", "x"])
        for i in range(12):
            wtr.writerow([repr(0.1 * i), repr(0.05 * (i + 1))])
    config = parse_config(cli_args(path))
    text, code = run(config)
    assert code == 3
    assert text.startswith("error:")


@pytest.mark.parametrize("bandwidth", [["--bw", "0.3"], []])
def test_covariate_constant_inside_the_window_exits_3(
    tmp_path, capsys, bandwidth
):
    path = tmp_path / "d.csv"
    sample = gen_sample(canonical_preset(), 600, 5)
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["y", "x", "far"])
        for y, x in zip(sample.y, sample.x):
            wtr.writerow([repr(float(y)), repr(float(x)), int(abs(x) > 0.9)])
    assert main(cli_args(path, "--hetero", "far", *bandwidth)) == 3
    assert "singular Gram matrix" in capsys.readouterr().err


def test_missing_file_exits_2(tmp_path):
    config = parse_config(cli_args(tmp_path / "nope.csv"))
    text, code = run(config)
    assert code == 2
    assert text.startswith("error:")


def test_header_only_categorical_exits_2(tmp_path, capsys):
    path = tmp_path / "h.csv"
    path.write_text("y,x,g\n")
    assert main(cli_args(path, "--hetero", "g:cat")) == 2
    assert capsys.readouterr().err == "error: column 'g' has no rows\n"


def test_expansion_wider_than_any_fit_exits_3(tmp_path, capsys):
    # a continuous column declared :cat has a level a row; its W of
    # 2000 x 1999 (32 MB) is refused before it is allocated
    path = tmp_path / "d.csv"
    write_sample_csv(path, n=2000, income=True)
    tracemalloc.start()
    try:
        code = main(cli_args(path, "--hetero", "income:cat"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 3 and peak < 4 << 20, peak
    assert capsys.readouterr().err == (
        "error: column 'income' expands to 1999 of 1999 covariate columns, "
        "more "
        "than a fit on 2000 rows can use (at most 499)\n"
    )


@pytest.mark.parametrize("n, bad, flags, err", [
    (12, None, (), "left side has 6 observations; need >= 10"),
    (7, None, (), "column 'w0' expands to 1 of 1 covariate columns, more "
                  "than a fit on 7 rows can use (at most 0)"),
    (7, "y", (), "non-finite value at row 3, column 'y'"),
    (7, "cid", ("--cluster", "cid", "--vce", "cluster"),
     "missing label at row 3, column 'cid'"),
], ids=["too_few_per_side", "too_wide", "bad_outcome", "missing_cluster"])
def test_small_file_errors(tmp_path, capsys, n, bad, flags, err):
    # too few rows stay an estimation error (exit 3), and a bad cell of y
    # or the cluster is still cited before a W too wide for the rows
    path = tmp_path / "small.csv"
    rows = ["y,x,w0,cid"]
    for i in range(n):
        x = (i + 1) / (n + 1) * 2 - 1
        y = "inf" if bad == "y" and i == 2 else repr(0.5 * x + i % 3)
        cid = "" if bad == "cid" and i == 2 else f"c{i % 3}"
        rows.append(f"{y},{x!r},{i % 2},{cid}")
    path.write_text("\n".join(rows) + "\n")
    code = main(cli_args(path, "--hetero", "w0:bin", *flags))
    assert (code, capsys.readouterr().err) == (
        3 if bad is None else 2, f"error: {err}\n"
    )


@pytest.mark.parametrize("bare, roles, parsed", [
    ("y", (), ["y", "x"]),
    ("income", ("--hetero", "income:q4"), ["y", "x", "income"]),
], ids=["outcome", "declared"])
def test_bare_hetero_on_a_numeric_role_is_parsed_once(
    tmp_path, monkeypatch, bare, roles, parsed
):
    # the bare name takes the numbers of its numeric role and is not read
    # as text again; it then expands as its declared continuous twin
    path = tmp_path / "d.csv"
    write_sample_csv(path, income=True)
    names = []

    def parse(name, values, start=0):
        names.append(name)
        return parse_numeric(name, values, start)

    def config(token):
        # parse_config refuses --hetero on the outcome, a RunConfig does not
        base = parse_config(cli_args(path, "--bw", "0.5", "--format", "json",
                                     *roles))
        hetero = base.hetero + (rdhte.cli._hetero_token(token),)
        return dataclasses.replace(base, hetero=hetero)

    parse_numeric = rdhte.cli._parse_numeric
    monkeypatch.setattr(rdhte.cli, "_parse_numeric", parse)
    got = run(config(bare))
    assert names == parsed
    assert got == run(config(f"{bare}:cont"))


def test_non_utf8_file_exits_2(tmp_path, capsys):
    path = tmp_path / "latin.csv"
    path.write_bytes(b"y,x\n1,0.1\n2,\xff\xfe\n")
    assert main(cli_args(path)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error: 'utf-8' codec can't decode byte 0xff")


def test_non_utf8_byte_late_in_a_large_file_cites_its_line(tmp_path, capsys):
    # the decoder reads the file in chunks, so its own position counts
    # within the last chunk; the message cites the file's line and byte
    rng = np.random.default_rng(9)
    cells = rng.uniform(-1, 1, (40_000, 2)).tolist()
    data = ("y,x\n" + "".join(f"{y!r},{x!r}\n" for y, x in cells)).encode()
    bad = len(data) - 5
    data = data[:bad] + b"\xff" + data[bad + 1:]
    assert len(data) > 1 << 20
    path = tmp_path / "late.csv"
    path.write_bytes(data)
    line = data.count(b"\n", 0, bad) + 1
    byte = bad - data.rfind(b"\n", 0, bad)
    assert main(cli_args(path)) == 2
    err = capsys.readouterr().err
    assert err == (
        "error: 'utf-8' codec can't decode byte 0xff: invalid start byte "
        f"({path}, line {line}, byte {byte})\n"
    )


@pytest.mark.parametrize("token", ["y", "y:cont", "y:bin", "y:cat", "y:q4"])
def test_hetero_naming_the_outcome_column_is_a_usage_error(capsys, token):
    # y would fit itself exactly in every window: the effects printed were
    # rounding noise with exit 0; the file is never opened
    argv = cli_args("missing.csv", "--hetero", token)
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2
    assert "--hetero 'y' is the --outcome column" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["x", "x:cont", "x:cont^2", "x:bin",
                                   "x:cat", "x:q4"])
def test_hetero_naming_the_running_column_is_a_usage_error(capsys, token):
    # x is affine in u inside a window and an indicator of x is constant on
    # one side, so every kind is singular; the file is never opened
    argv = cli_args("missing.csv", "--hetero", token)
    with pytest.raises(SystemExit) as exc:
        parse_config(argv)
    assert exc.value.code == 2
    assert "--hetero 'x' is the --running column" in capsys.readouterr().err


@pytest.mark.parametrize("block", [1 << 20, 1 << 10])
def test_overlong_quoted_field_exits_2(tmp_path, monkeypatch, capsys, block):
    # once a file has a quote, csv.reader parses the rest of it, and a
    # field over csv.field_size_limit() stops it, in any column. At 1 KiB
    # blocks the quote is a few blocks in, so the cited line counts the
    # quote-free blocks before it too
    rng = np.random.default_rng(8)
    cells = rng.uniform(-1, 1, (200, 2)).tolist()
    lines = [f"{y!r},{x!r},z" for y, x in cells]
    lines[150] += "a" * 200_000
    plain = tmp_path / "plain.csv"
    plain.write_text("y,x,note\n" + "\n".join(lines) + "\n")
    lines[100] = '"' + lines[100].replace(",", '","') + '"'
    quoted = tmp_path / "quoted.csv"
    quoted.write_text("y,x,note\n" + "\n".join(lines) + "\n")
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", block)
    assert main(cli_args(plain)) == 0
    capsys.readouterr()
    assert main(cli_args(quoted)) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err == (f"error: {quoted}: line 152: field larger than "
                       f"field limit ({csv.field_size_limit()})\n")


def test_main_writes_streams(tmp_path, capsys):
    path = tmp_path / "d.csv"
    write_sample_csv(path, n=400)
    assert main(cli_args(path, "--bw", "0.3", "--format", "json")) == 0
    out = capsys.readouterr()
    assert json.loads(out.out)["schema"] == "rdhte/1"
    assert out.err == ""
    assert main(cli_args(tmp_path / "nope.csv")) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert out.err.startswith("error:")


# ---------------------------------------------------------------------------
# fixed-row rendering


def fixture_result():
    rec = EstimandRecord(
        label="Overall",
        lead=1.0,
        w=(),
        nu=0,
        point=0.275,
        se=0.046,
        variance=0.046**2,
        bias_estimate=0.37,
        rbc_point=0.2665,
        rbc_se=0.0462,
        rbc_variance=0.0462**2,
        ci_low=0.176,
        ci_high=0.357,
        z=5.768,
        p_value=0.0000000081,
        level=0.95,
        zero_se=False,
        extrapolated=False,
        eff_n=14622,
        h_left=0.151,
        h_right=0.151,
    )
    return SimpleNamespace(records=[rec], spec=SimpleNamespace(level=0.95))


def test_fixture_row_formats_like_published_layout():
    text = render_table(fixture_result())
    lines = text.splitlines()
    row = lines[2]
    assert row.startswith("Overall")
    for piece in ("0.275", "[0.176; 0.357]", "0.000", "14,622", "0.151"):
        assert piece in row
    assert "RBC 95% CI" in lines[0]


def test_differing_bandwidths_render_as_pair():
    stub = fixture_result()
    rec = stub.records[0]
    import dataclasses

    stub.records = [dataclasses.replace(rec, h_left=0.1, h_right=0.2)]
    text = render_table(stub)
    assert "0.100/0.200" in text


def test_extrapolated_rows_are_footnoted():
    stub = fixture_result()
    import dataclasses

    stub.records = [dataclasses.replace(stub.records[0], extrapolated=True)]
    text = render_table(stub)
    assert "Overall *" in text
    assert text.rstrip().endswith("* outside the observed covariate range")


def test_load_csv_duplicate_requested_column(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x,y\n1,0.1,2\n")
    with pytest.raises(InputError, match="'y'"):
        load_csv(str(path), ["x", "y"])
    assert load_csv(str(path), ["x"]) == ({"x": ["0.1"]}, {})
    with pytest.raises(InputError, match="'y'"):
        load_csv(str(path), ["x"], ["y"])
    text, code = run(parse_config(cli_args(path)))
    assert code == 2
    assert "'y'" in text


def test_cli_json_equals_library_with_integer_cluster_ids(tmp_path):
    # integer ids sort differently as text ("10" < "2") than as numbers,
    # so the two routes code the clusters differently
    path = tmp_path / "d.csv"
    sample = gen_sample(canonical_preset(), 600, 5)
    ids = np.arange(sample.n) % 25
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["y", "x", "w0", "cid"])
        for i in range(sample.n):
            wtr.writerow([repr(float(sample.y[i])), repr(float(sample.x[i])),
                          repr(float(sample.w[i, 0])), int(ids[i])])
    text, code = run(parse_config(cli_args(
        path, "--hetero", "w0", "--cluster", "cid", "--vce", "cluster",
        "--bw", "0.3", "--format", "json",
    )))
    assert code == 0

    lib = fit_hte(
        validate_sample(sample.y, sample.x, 0.0, sample.w, ids),
        FitSpec(bandwidth=Common(0.3), vce="cluster"),
        labels=["w0"],
    )
    assert text == render_json(lib)


def test_load_csv_reads_a_repeated_column_once(tmp_path):
    path = tmp_path / "t.csv"
    path.write_text("y,x\n1,0.1\n2,0.2\n3,0.3\n")
    text, numbers = load_csv(str(path), ["y", "x", "y"], ["x", "y", "x"])
    assert text == {"y": ["1", "2", "3"], "x": ["0.1", "0.2", "0.3"]}
    assert numbers.keys() == {"x", "y"}
    np.testing.assert_array_equal(numbers["y"], [1.0, 2.0, 3.0])
    np.testing.assert_array_equal(numbers["x"], [0.1, 0.2, 0.3])


def test_cli_heterogeneity_by_the_cluster_column(tmp_path):
    path = tmp_path / "d.csv"
    sample = gen_sample(canonical_preset(), 600, 5)
    ids = np.arange(sample.n) % 25
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh)
        wtr.writerow(["y", "x", "c"])
        for i in range(sample.n):
            wtr.writerow([repr(float(sample.y[i])), repr(float(sample.x[i])),
                          int(ids[i])])
    text, code = run(parse_config(cli_args(
        path, "--hetero", "c", "--cluster", "c", "--vce", "cluster",
        "--bw", "0.3", "--format", "json",
    )))
    assert code == 0

    lib = fit_hte(
        validate_sample(sample.y, sample.x, 0.0, ids.astype(float), ids),
        FitSpec(bandwidth=Common(0.3), vce="cluster"),
        labels=["c"],
        kinds=["continuous"],
    )
    assert text == render_json(lib)


def test_cli_repeated_hetero_column_is_collinear(tmp_path):
    path = tmp_path / "d.csv"
    write_sample_csv(path)
    text, code = run(parse_config(cli_args(
        path, "--hetero", "w0", "--hetero", "w0", "--bw", "0.3",
    )))
    assert code == 3
    assert "singular Gram matrix" in text


def test_quoted_crlf_csv_equals_library(tmp_path):
    # quoted header and text cells, CRLF line ends, a level with a comma
    sample = gen_sample(canonical_preset(), 600, 9)
    groups = np.array(["a", "b,c", 'd "e"'])[np.arange(sample.n) % 3]
    path = tmp_path / "q.csv"
    with open(path, "w", newline="") as fh:
        wtr = csv.writer(fh, lineterminator="\r\n",
                         quoting=csv.QUOTE_NONNUMERIC)
        wtr.writerow(["y", "x", "g"])
        for y, x, g in zip(sample.y, sample.x, groups):
            wtr.writerow([float(y), float(x), str(g)])
    head = path.read_bytes()[:40]
    assert head.startswith(b'"y","x","g"\r\n') and b'"b,c"' in path.read_bytes()
    text, code = run(parse_config(cli_args(
        path, "--hetero", "g:cat", "--bw", "0.4", "--format", "json",
    )))
    assert code == 0

    w, labels, kinds = expand_covariates(
        {"g": groups.tolist()}, CovariateSpec((ColumnSpec("g", "categorical"),))
    )
    assert labels == ["g=b,c", 'g=d "e"']
    lib = fit_hte(validate_sample(sample.y, sample.x, 0.0, w),
                  FitSpec(bandwidth=Common(0.4)), labels=labels, kinds=kinds)
    assert text == render_json(lib)
