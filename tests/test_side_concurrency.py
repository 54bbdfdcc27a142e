"""fit_hte's two-sided concurrency: same numbers, same errors, no leftovers.

Most tests force the threaded path by setting
estimands.PARALLEL_MIN_SIDE_ROWS to 0. The gate also needs two usable
CPUs, so in a process pinned to one CPU those tests run the serial branch
and must pass all the same; test_threads_follow_the_usable_cpus checks
which branch ran.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import threading

import numpy as np
import pytest

from rdhte import estimands, model
from rdhte.errors import SingularGram, TooFewObservations
from rdhte.estimands import fit_hte
from rdhte.model import Common, Fixed, FitSpec, Select, validate_sample
from rdhte.render import render_json
from rdhte.simulate import canonical_preset, gen_sample

#: relative tolerances of the row-permutation test, fixed before its first run
PERM_H_RTOL = 1e-12
PERM_RECORD_RTOL = 1e-10


@pytest.fixture
def threaded(monkeypatch):
    """Let every fit take the threaded path (given two usable CPUs)."""
    monkeypatch.setattr(estimands, "PARALLEL_MIN_SIDE_ROWS", 0)


@pytest.fixture
def thread_starts(monkeypatch):
    """Names of the threads started while the test runs."""
    started = []
    real_start = threading.Thread.start

    def start(self):
        started.append(self.name)
        real_start(self)

    monkeypatch.setattr(threading.Thread, "start", start)
    return started


def _per_stage() -> int:
    """Worker threads a forced-threaded fit starts in each of its stages."""
    return 1 if estimands._usable_cpus() >= 2 else 0


def _clustered(n: int, seed: int):
    base = gen_sample(canonical_preset(), n, seed)
    labels = np.random.default_rng([seed, 1]).integers(0, 200, n)
    return validate_sample(base.y, base.x, base.cutoff, base.w, labels)


@pytest.fixture(scope="module")
def sample():
    return _clustered(50_000, 3)


SPECS = {
    "hc0": FitSpec(vce="hc0"),
    "hc1": FitSpec(vce="hc1"),
    "hc2": FitSpec(vce="hc2"),
    "hc3": FitSpec(vce="hc3"),
    "cluster": FitSpec(vce="cluster"),
    "select_one_sided": FitSpec(bandwidth=Select("one_sided")),
    "select_two_sided": FitSpec(bandwidth=Select("two_sided")),
    "common_epa": FitSpec(kernel="epanechnikov", bandwidth=Common(0.25)),
    "fixed_uni": FitSpec(kernel="uniform", bandwidth=Fixed(0.3, 0.4)),
    "p2_s2_nu1": FitSpec(p=2, s=2, nu=1),
}


@pytest.mark.parametrize("name", sorted(SPECS))
def test_threaded_json_is_byte_identical(sample, monkeypatch, thread_starts,
                                        name):
    spec = SPECS[name]
    # fresh copies: each fit runs its own pilot stage, so the threaded
    # pilot and selection are compared with the serial ones too
    serial = render_json(fit_hte(dataclasses.replace(sample), spec,
                                 at=[[0.5]]))
    assert thread_starts == []
    monkeypatch.setattr(estimands, "PARALLEL_MIN_SIDE_ROWS", 0)
    threaded = fit_hte(dataclasses.replace(sample), spec, at=[[0.5]])
    assert render_json(threaded) == serial
    assert len(thread_starts) == 2 * _per_stage()


def _error(sample, spec):
    with pytest.raises(Exception) as info:
        fit_hte(sample, spec)
    return info.value


def _two_sided(n_left: int, n_right: int):
    rng = np.random.default_rng(5)
    x = np.concatenate([-rng.uniform(0.01, 1, n_left),
                        rng.uniform(0, 1, n_right)])
    w = rng.binomial(1, 0.5, x.size).astype(float)
    return validate_sample(x + rng.normal(size=x.size), x, 0.0, w)


# (side sizes, spec, expected error, side it names): a failure in the pilot
# stage (too few rows on a side) and in the fit stage (a window too narrow
# to hold the coefficients); in "pilot_left" the left side fails at once
# while the right side's pilot fit is still running
FAILURES = {
    "pilot_both": ((5, 5), FitSpec(), TooFewObservations, "left"),
    "pilot_left": ((5, 100_000), FitSpec(), TooFewObservations, "left"),
    "pilot_right": ((400, 5), FitSpec(), TooFewObservations, "right"),
    "fit_both": ((400, 400), FitSpec(bandwidth=Fixed(1e-9, 1e-9)),
                 SingularGram, "left"),
    "fit_right": ((400, 400), FitSpec(bandwidth=Fixed(0.5, 1e-9)),
                  SingularGram, "right"),
}


@pytest.mark.parametrize("case", sorted(FAILURES))
def test_threaded_errors_match_serial(monkeypatch, thread_starts, case):
    sizes, spec, kind, side = FAILURES[case]
    data = _two_sided(*sizes)
    serial = _error(data, spec)
    assert thread_starts == []
    monkeypatch.setattr(estimands, "PARALLEL_MIN_SIDE_ROWS", 0)
    before = threading.active_count()
    # a fresh copy: the serial fit stored the pilots that did not fail
    err = _error(dataclasses.replace(data), spec)
    assert threading.active_count() == before
    assert type(err) is type(serial) is kind
    assert str(err) == str(serial)
    assert f"{side} side" in str(err)
    # a pilot-stage failure ends the fit before the second stage
    stages = 1 if case.startswith("pilot") else 2
    assert len(thread_starts) == stages * _per_stage()


def test_stored_pilot_stage_starts_no_thread(sample, threaded, monkeypatch):
    from concurrent.futures import ThreadPoolExecutor

    submits = []
    real_submit = ThreadPoolExecutor.submit

    def submit(self, fn, *args, **kwargs):
        submits.append(fn)
        return real_submit(self, fn, *args, **kwargs)

    monkeypatch.setattr(ThreadPoolExecutor, "submit", submit)
    fresh = dataclasses.replace(sample)
    cold = fit_hte(fresh, FitSpec(bandwidth=Common(0.2)))
    assert len(submits) == 2 * _per_stage()
    # both pilots stored: only the main stage runs a worker
    submits.clear()
    warm = fit_hte(fresh, FitSpec(bandwidth=Common(0.3), vce="hc1"))
    assert len(submits) == _per_stage()
    assert warm.left.bias is cold.left.bias
    # one pilot stored: the other runs on the caller's thread, and a fit
    # that fails there starts no thread at all
    data = _two_sided(5, 400)
    _error(data, FitSpec())
    assert {key[0] for key in data._pilot_stages} == (
        {"right"} if _per_stage() else set()
    )
    submits.clear()
    assert type(_error(data, FitSpec())) is TooFewObservations
    assert submits == []


def test_no_thread_outlives_a_fit(sample, threaded, thread_starts):
    before = threading.active_count()
    # a fresh copy runs both stages: the module's sample holds its pilots
    fit_hte(dataclasses.replace(sample), FitSpec(bandwidth=Common(0.2)))
    assert threading.active_count() == before
    assert len(thread_starts) == 2 * _per_stage()


def test_threads_follow_the_usable_cpus(threaded, thread_starts):
    fit_hte(gen_sample(canonical_preset(), 2_000, 1), FitSpec())
    usable = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else os.cpu_count()
    )
    assert len(thread_starts) == (2 if usable >= 2 else 0)


def test_one_cpu_starts_no_thread(monkeypatch, threaded, thread_starts):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                        raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 1)
    result = fit_hte(gen_sample(canonical_preset(), 2_000, 1), FitSpec())
    assert thread_starts == []
    assert np.isfinite(result.records[0].rbc_se)


@pytest.mark.parametrize(
    "n, spec",
    [
        (2_000, FitSpec(vce="hc1")),  # an mc_hc1 replication
        (20_000, FitSpec(bandwidth=Common(0.2))),  # grid_2e4
        (200_000, FitSpec(vce="cluster", bandwidth=Common(0.1))),  # cli_200k
    ],
    ids=["n2000", "n20000", "n200000"],
)
def test_small_samples_stay_serial(thread_starts, n, spec):
    data = _clustered(n, 4)
    assert min(data.side_view(s).n for s in ("left", "right")) < (
        estimands.PARALLEL_MIN_SIDE_ROWS
    )
    fit_hte(data, spec)
    assert thread_starts == []


def test_side_views_built_once_on_the_calling_thread(monkeypatch, threaded):
    built = []
    real = model.SideView

    def counting(*args):
        built.append(threading.current_thread())
        return real(*args)

    monkeypatch.setattr(model, "SideView", counting)
    interval = sys.getswitchinterval()
    # frequent thread switches, so a race on the sample's caches would show
    sys.setswitchinterval(1e-6)
    try:
        for seed in range(20):
            built.clear()
            data = gen_sample(canonical_preset(), 2_000, seed)
            views = data._side_views
            fit_hte(data, FitSpec(bandwidth=Select("one_sided")))
            assert built == [threading.main_thread()] * 2
            assert data._side_views is views
            assert sorted(views) == ["left", "right"]
    finally:
        sys.setswitchinterval(interval)


def _permuted(data, seed):
    perm = np.random.default_rng(seed).permutation(data.n)
    return validate_sample(data.y[perm], data.x[perm], data.cutoff,
                           data.w[perm], data.cluster[perm])


@pytest.mark.parametrize("path", ["serial", "threaded"])
@pytest.mark.parametrize(
    "spec",
    [FitSpec(), FitSpec(p=2, s=1, vce="cluster", bandwidth=Select("one_sided"))],
    ids=["default", "p2_s1_cluster_one_sided"],
)
def test_row_permutation_invariance(monkeypatch, path, spec):
    data = _clustered(6_000, 9)
    if path == "threaded":
        monkeypatch.setattr(estimands, "PARALLEL_MIN_SIDE_ROWS", 0)
    ref = fit_hte(data, spec)
    out = fit_hte(_permuted(data, 10), spec)
    for h, h_ref in ((out.h_left, ref.h_left), (out.h_right, ref.h_right)):
        assert h == pytest.approx(h_ref, rel=PERM_H_RTOL, abs=0)
    assert [r.label for r in out.records] == [r.label for r in ref.records]
    for rec, rec_ref in zip(out.records, ref.records):
        for attr in ("point", "se", "rbc_se"):
            assert getattr(rec, attr) == pytest.approx(
                getattr(rec_ref, attr), rel=PERM_RECORD_RTOL, abs=0
            ), (rec.label, attr)
