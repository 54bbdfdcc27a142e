"""Result serialization shared by the command line and the library API.

Both front ends call the same functions on the same result object, so a
JSON document produced through the CLI is byte-identical to one produced
directly. The human table rounds to 3 decimals; JSON and CSV keep full
float precision (shortest round-trip representation).
"""

from __future__ import annotations

import csv
import io
import json

from .estimands import EstimandRecord, HteResult

__all__ = [
    "SCHEMA",
    "result_payload",
    "render_json",
    "render_table",
    "render_csv",
]

SCHEMA = "rdhte/1"


def _record_dict(rec: EstimandRecord) -> dict:
    return {
        "label": rec.label,
        "lead": rec.lead,
        "w": list(rec.w),
        "deriv": rec.nu,
        "point": rec.point,
        "se": rec.se,
        "variance": rec.variance,
        "bias_estimate": rec.bias_estimate,
        "rbc_point": rec.rbc_point,
        "rbc_se": rec.rbc_se,
        "rbc_variance": rec.rbc_variance,
        "ci": [rec.ci_low, rec.ci_high],
        "z": rec.z,
        "p_value": rec.p_value,
        "level": rec.level,
        "zero_se": rec.zero_se,
        "extrapolated": rec.extrapolated,
        "eff_n": rec.eff_n,
        "h_left": rec.h_left,
        "h_right": rec.h_right,
    }


def result_payload(result: HteResult) -> dict:
    """Full-precision dictionary form of a result."""
    spec = result.spec
    bw = {
        "mode": spec.bandwidth.mode,
        "h_left": result.h_left,
        "h_right": result.h_right,
        "pilot_left": result.left.bias.pilot_fit.h,
        "pilot_right": result.right.bias.pilot_fit.h,
    }
    if result.selection is not None:
        bw["bias_degenerate"] = result.selection.bias_degenerate
    return {
        "schema": SCHEMA,
        "n": result.sample.n,
        "cutoff": result.sample.cutoff,
        "p": spec.p,
        "s": spec.s,
        "deriv": spec.nu,
        "kernel": spec.kernel,
        "vce": spec.vce,
        "level": spec.level,
        "bandwidth": bw,
        "eff_n": {
            "left": result.left.eff_n,
            "right": result.right.eff_n,
            "total": result.eff_n,
        },
        "covariates": [
            {"label": lab, "kind": kind}
            for lab, kind in zip(result.labels, result.kinds)
        ],
        "estimands": [_record_dict(rec) for rec in result.records],
    }


def render_json(result: HteResult) -> str:
    """Serialize a result as the versioned JSON document."""
    return json.dumps(result_payload(result), indent=2) + "\n"


def _headers(result: HteResult) -> list[str]:
    """Column headers shared by the table and the CSV."""
    level = f"{result.spec.level * 100:g}"
    return [
        "Estimand",
        "Point Estimate",
        f"RBC {level}% CI",
        "RBC p-value",
        "Sample Size",
        "h",
    ]


def _h_cell(h_left: float, h_right: float, fmt: str) -> str:
    if h_left == h_right:
        return format(h_left, fmt)
    return f"{format(h_left, fmt)}/{format(h_right, fmt)}"


def _table_cells(rec: EstimandRecord) -> list[str]:
    label = rec.label + (" *" if rec.extrapolated else "")
    return [
        label,
        f"{rec.point:.3f}",
        f"[{rec.ci_low:.3f}; {rec.ci_high:.3f}]",
        f"{rec.p_value:.3f}",
        f"{rec.eff_n:,}",
        _h_cell(rec.h_left, rec.h_right, ".3f"),
    ]


def render_table(result: HteResult) -> str:
    """Fixed-width human-readable table, 3-decimal display rounding."""
    headers = _headers(result)
    rows = [_table_cells(rec) for rec in result.records]
    widths = [
        max(len(headers[j]), *(len(r[j]) for r in rows)) if rows
        else len(headers[j])
        for j in range(len(headers))
    ]

    def fmt_row(cells):
        # first column left-aligned, the rest right-aligned
        parts = [cells[0].ljust(widths[0])]
        parts += [c.rjust(widths[j + 1]) for j, c in enumerate(cells[1:])]
        return "  ".join(parts).rstrip()

    lines = [fmt_row(headers), "  ".join("-" * wd for wd in widths)]
    lines += [fmt_row(r) for r in rows]
    if any(rec.extrapolated for rec in result.records):
        lines.append("* outside the observed covariate range")
    return "\n".join(lines) + "\n"


def render_csv(result: HteResult) -> str:
    """CSV with the table's columns at full precision."""
    headers = _headers(result)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(headers)
    for rec in result.records:
        writer.writerow(
            [
                rec.label,
                repr(rec.point),
                f"[{rec.ci_low!r}; {rec.ci_high!r}]",
                repr(rec.p_value),
                rec.eff_n,
                # format(h, "") is repr(h) for a float: full precision
                _h_cell(rec.h_left, rec.h_right, ""),
            ]
        )
    return buf.getvalue()
