"""Runtime smoke checks of rdhte without scipy.

Usage: python tests/runtime_smoke.py TMPDIR

The script blocks scipy before it imports rdhte, so a lazy scipy import
anywhere on the paths below fails the run. It fits seeded samples through
the library API and runs the command line in process, through
rdhte.cli.main, on CSV files that it writes to TMPDIR: small ones, one
of at least rdhte.cli.PARALLEL_MIN_BYTES with a :cat and a text --cluster
column, which the CLI reads on forked range readers where two CPUs are
usable (block by block in one process otherwise), and one that is not
UTF-8. It prints "ok" and exits 0 when every check passes. It
imports no test framework, so it runs in an environment that holds only
the package and numpy; the tier-1 suite runs it too
(test_pipeline_runs_with_scipy_blocked).
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.modules["scipy"] = None  # any import of scipy now raises ImportError

import numpy as np  # noqa: E402

import rdhte.cli  # noqa: E402
from rdhte import (  # noqa: E402
    ColumnSpec,
    Common,
    CovariateSpec,
    FitSpec,
    Select,
    Selector,
    canonical_preset,
    cate_at,
    contrast,
    expand_covariates,
    fit_hte,
    gen_sample,
    render_json,
    validate_sample,
)


def run_cli(*argv):
    """(exit code, stdout, stderr) of one in-process CLI run."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = rdhte.cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


def check_library():
    sample = gen_sample(canonical_preset(), 2000, 1)
    assert np.isfinite(fit_hte(sample, FitSpec()).records[0].p_value)

    spec = FitSpec(p=2, s=1, vce="hc2", bandwidth=Select("one_sided"))
    result = fit_hte(sample, spec)
    assert result.selection.h_left > 0 and result.selection.h_right > 0

    # each cate_at point is the varsigma contraction at that point
    result = fit_hte(sample, FitSpec(bandwidth=Common(0.3)))
    vs = result.varsigma
    for g in np.linspace(-1, 1, 200).tolist():
        point = cate_at(result, [g]).point
        tol = 1e-10 * max(1.0, abs(point))
        assert abs(point - (vs[0] + g * vs[1])) <= tol
    rec = contrast(result, Selector(np.array([0.0, 1.0]), nu=1))
    assert rec.nu == 1 and rec.rbc_se > 0


def check_pipeline(tmp):
    sample = gen_sample(canonical_preset(), 1500, 3)
    result = fit_hte(sample, FitSpec(bandwidth=Select(), vce="hc3"))
    assert np.isfinite(cate_at(result, [1.0]).p_value)
    json.loads(render_json(result))

    cluster = np.arange(sample.n) % 60
    clustered = validate_sample(sample.y, sample.x, sample.cutoff, sample.w,
                                cluster=cluster)
    fit = fit_hte(clustered, FitSpec(bandwidth=Common(0.5), vce="cluster"))
    assert all(np.isfinite(rec.rbc_se) for rec in fit.records)

    path = tmp / "sample.csv"
    with open(path, "w") as fh:
        fh.write("y,x,w,g\n")
        for row in zip(sample.y, sample.x, sample.w[:, 0], cluster):
            fh.write(",".join(repr(float(v)) for v in row[:3]))
            fh.write(f",{row[3]}\n")
    code, out, _ = run_cli(
        "--data", path, "--outcome", "y", "--running", "x",
        "--cutoff", repr(sample.cutoff), "--hetero", "w", "--cluster", "g",
        "--vce", "cluster", "--bw", "0.5", "--format", "json",
    )
    assert code == 0
    assert json.loads(out)["estimands"]


def check_cli(tmp):
    rng = np.random.default_rng(0)
    x = rng.uniform(-1, 1, 400)
    y = x + (x >= 0) + rng.normal(size=400)
    tiny = tmp / "tiny.csv"
    np.savetxt(tiny, np.column_stack([y, x, rng.integers(0, 20, 400)]),
               fmt="%.17g", delimiter=",", header="y,x,g", comments="")
    rows = tiny.read_text().splitlines()
    flags = ("--outcome", "y", "--running", "x", "--cutoff", "0")
    cluster = ("--vce", "cluster", "--cluster", "g")

    # every cell quoted and CRLF line ends read as the plain file
    quoted = tmp / "tiny_crlf.csv"
    with open(quoted, "w", newline="") as fh:
        for row in rows:
            fh.write(",".join(f'"{cell}"' for cell in row.split(",")))
            fh.write("\r\n")
    code, plain, _ = run_cli("--data", tiny, *flags, *cluster,
                             "--format", "json")
    assert code == 0
    assert run_cli("--data", quoted, *flags, *cluster,
                   "--format", "json") == (0, plain, "")

    assert run_cli("--data", tiny, *flags, "--level", "1.5") == (
        2, "", "error: level must be in (0, 1)\n"
    )

    # an empty cluster cell in data row 5
    gap = tmp / "tiny_gap.csv"
    rows[5] = rows[5].rsplit(",", 1)[0] + ","
    gap.write_text("\n".join(rows) + "\n")
    code, out, err = run_cli("--data", gap, *flags, *cluster)
    assert code == 2 and out == ""
    assert "missing label at row 5, column 'g'" in err, err


def check_blocks(tmp):
    # at least PARALLEL_MIN_BYTES of quote-free data, so where two CPUs
    # are usable the CLI reads its ranges of about 1 MiB on forked range
    # readers, which code the text columns; the quoted copy is read in one
    # process and goes to csv.reader at its only quoted cell, in the last
    # row
    sample = gen_sample(canonical_preset(), 80_000, 4)
    # g: a text column of few labels, each shared by many rows of a block;
    # c: a text cluster id of 300 schools
    groups = [f"site{k}" for k in np.arange(sample.n) * 7 % 12]
    schools = [f"school{k}" for k in
               np.random.default_rng(4).integers(0, 300, sample.n)]
    rows = [f"{float(y)!r},{float(x)!r},{float(w)!r},{g},{c}\n"
            for y, x, w, g, c in zip(sample.y, sample.x, sample.w[:, 0],
                                     groups, schools)]
    header = "y,x,w,g,c\n"
    plain = tmp / "blocks.csv"
    plain.write_text(header + "".join(rows))
    data = plain.stat().st_size - len(header)
    assert data >= rdhte.cli.PARALLEL_MIN_BYTES, data
    y, rest = rows[-1].split(",", 1)
    rows[-1] = f'"{y}",{rest}'
    quoted = tmp / "blocks_quoted.csv"
    quoted.write_text(header + "".join(rows))
    text = quoted.read_text()
    assert text.index('"') > 4 << 20 and text.count('"') == 2

    flags = ("--outcome", "y", "--running", "x", "--cutoff", "0",
             "--hetero", "w:bin", "--bw", "0.4", "--format", "json")
    code, out, err = run_cli("--data", plain, *flags)
    assert code == 0 and err == "", err
    assert run_cli("--data", quoted, *flags) == (0, out, "")

    # the outcome is also the cluster, so it is read as numbers and as text
    labels = [row.split(",", 1)[0] for row in rows[:-1]] + [y]
    lib = fit_hte(
        validate_sample(sample.y, sample.x, 0.0, sample.w[:, :1], labels),
        FitSpec(bandwidth=Common(0.4), vce="cluster"),
        labels=["w"],
    )
    assert run_cli("--data", plain, *flags, "--cluster", "y", "--vce",
                   "cluster") == (0, render_json(lib), "")

    # a categorical covariate and a text cluster, as the library codes
    # them from the labels; then the label column as both roles
    w, names, kinds = expand_covariates(
        {"w": sample.w[:, 0], "g": groups},
        CovariateSpec((ColumnSpec("w", "binary"),
                       ColumnSpec("g", "categorical"))),
    )
    spec = FitSpec(bandwidth=Common(0.4), vce="cluster")
    for cluster, column in ((schools, "c"), (groups, "g")):
        lib = fit_hte(validate_sample(sample.y, sample.x, 0.0, w, cluster),
                      spec, labels=names, kinds=kinds)
        for path in (plain, quoted):
            assert run_cli("--data", path, *flags, "--hetero", "g:cat",
                           "--cluster", column, "--vce", "cluster") == (
                0, render_json(lib), ""
            )


def check_encoding(tmp):
    latin = tmp / "latin.csv"
    latin.write_bytes(b"y,x\n1,0.5\n2,\xff\xfe\n")
    code, out, err = run_cli("--data", latin, "--outcome", "y",
                             "--running", "x", "--cutoff", "0")
    assert (code, out) == (2, "") and err.startswith("error: "), err


def main(argv):
    if len(argv) != 2:
        raise SystemExit("usage: python runtime_smoke.py TMPDIR")
    tmp = Path(argv[1])
    check_library()
    check_pipeline(tmp)
    check_cli(tmp)
    check_blocks(tmp)
    check_encoding(tmp)
    print("ok")


if __name__ == "__main__":
    main(sys.argv)
