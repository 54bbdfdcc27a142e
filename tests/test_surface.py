"""The package surface: the top-level API and the traced functions.

Every name rdhte exports must be documented in the README, and every
function a per-layer benchmark metric names must stay a public function
of its module, or the benchmark's tracer cannot find it. The tracer's
counters also read results by position, so those positions stay put.
"""

from __future__ import annotations

import importlib
import importlib.util
import inspect
import json
import re
from pathlib import Path

from conftest import random_instance

import rdhte
from rdhte.fitting import SideDesign, side_design

ROOT = Path(__file__).resolve().parents[1]


def test_every_export_resolves_and_is_documented():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    assert len(rdhte.__all__) <= 30
    for name in rdhte.__all__:
        assert getattr(rdhte, name) is not None
        assert re.search(rf"\b{re.escape(name)}\b", readme), name


def test_traced_functions_exist():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    # "<module>.<function>.<stat>"; two-part names are counters and ratios
    traced = {
        tuple(metric["name"].split(".")[:2])
        for metric in bench["per_layer"]
        if metric["name"].count(".") >= 2
        and not metric["name"].startswith("trace.")
    }
    assert ("fitting", "fit_side") in traced
    for module, name in sorted(traced):
        mod = importlib.import_module(f"rdhte.{module}")
        fn = getattr(mod, name, None)
        assert inspect.isfunction(fn), f"rdhte.{module}.{name}"
        assert not name.startswith("_")
        assert fn.__module__ == mod.__name__, f"rdhte.{module}.{name}"


def test_side_design_keeps_idx_at_position_2():
    # the benchmark's tracer counts fitting.rows_in_window as out[2].size
    loader = importlib.util.spec_from_file_location(
        "bench_spans", ROOT / "bench" / "spans.py"
    )
    spans = importlib.util.module_from_spec(loader)
    loader.loader.exec_module(spans)
    counter, amount = spans.COUNTERS["fitting.side_design"]
    assert counter == "fitting.rows_in_window"

    sample = random_instance(7, n=300)
    out = side_design(sample, "right", 0.4, 1, 1, "triangular")
    assert SideDesign._fields[2] == "idx"
    assert out[2] is out.idx
    assert amount((), {}, out) == out.idx.size > 0
