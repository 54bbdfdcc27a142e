"""monte_carlo's forked workers: same reports, same errors, no leftovers.

Most tests force the forked path by setting simulate.PARALLEL_MIN_DRAWS
to 0. The gate also needs two usable CPUs, so in a process pinned to one
CPU those tests run the serial branch and must pass all the same;
test_forks_follow_the_usable_cpus checks which branch ran.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import subprocess
import sys
import threading
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import rdhte
from rdhte import estimands, simulate
from rdhte.errors import AllReplicationsFailed, TooFewObservations
from rdhte.estimands import Selector, _usable_cpus
from rdhte.model import Common, FitSpec, Select, validate_sample
from rdhte.simulate import canonical_preset, gen_sample, monte_carlo

CATE = [(np.array([0.0]), 0.5), (np.array([1.0]), 0.9)]
SELECTORS = [
    (Selector(np.array([0.0, 1.0]), label="slope"), 0.4),
    (Selector(np.array([1.0, 0.5]), nu=1, label="first_derivative"), 0.0),
]


@pytest.fixture
def forked(monkeypatch):
    """Let every run take the forked path (given two usable CPUs)."""
    monkeypatch.setattr(simulate, "PARALLEL_MIN_DRAWS", 0)


@pytest.fixture
def forks(monkeypatch):
    """Pids of the processes forked while the test runs."""
    pids = []
    real_fork = os.fork

    def fork():
        pid = real_fork()
        if pid:
            pids.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", fork)
    return pids


def _forks_per_run(reps: int) -> int:
    """Children a forced-forked run of reps replications starts."""
    procs = min(_usable_cpus(), reps)
    return procs - 1 if procs >= 2 else 0


def _reaped(pids) -> bool:
    """True when none of pids is a child still to be waited for."""
    for pid in pids:
        try:
            os.waitpid(pid, os.WNOHANG)
        except ChildProcessError:
            continue
        return False
    return True


def _clustered(config, n, seed):
    """gen_sample with cluster labels drawn from the replication's stream."""
    base = gen_sample(config, n, seed)
    labels = np.random.default_rng([*seed, 1]).integers(0, 30, n)
    return validate_sample(base.y, base.x, base.cutoff, base.w, labels)


def _failing_at(bad_reps):
    """gen_sample raising a non-estimation error at the given reps."""

    def draw(config, n, seed):
        if seed[1] in bad_reps:
            raise RuntimeError(f"no draw for replication {seed[1]}")
        return gen_sample(config, n, seed)

    return draw


# name: (spec, reps, n, targets, clustered); "failed_reps" leaves one side
# of some samples under the pilot minimum
CASES = {
    "hc1_select": (FitSpec(vce="hc1"), 12, 600, CATE, False),
    "hc3_common": (FitSpec(vce="hc3", bandwidth=Common(0.4)), 10, 500,
                   CATE + SELECTORS, False),
    "cluster_one_sided": (
        FitSpec(vce="cluster", bandwidth=Select("one_sided")), 10, 800,
        SELECTORS, True,
    ),
    "failed_reps": (FitSpec(), 60, 25, CATE[:1], False),
}


def _run(case, seed=41):
    spec, reps, n, targets, _ = CASES[case]
    report = monte_carlo(canonical_preset(), spec, reps=reps, n=n,
                         seed=seed, targets=targets)
    return json.dumps(report.to_dict())


@pytest.mark.parametrize("case", sorted(CASES))
def test_forked_report_is_byte_identical(monkeypatch, forks, case):
    if CASES[case][4]:
        monkeypatch.setattr(simulate, "gen_sample", _clustered)
    serial = _run(case)
    assert forks == []
    monkeypatch.setattr(simulate, "PARALLEL_MIN_DRAWS", 0)
    assert _run(case) == serial
    assert len(forks) == _forks_per_run(CASES[case][1])
    assert _reaped(forks)
    if case == "failed_reps":
        assert json.loads(serial)["monte_carlo"]["failures"] > 0


def _error(monkeypatch, case, bad_reps):
    monkeypatch.setattr(simulate, "gen_sample", _failing_at(bad_reps))
    with pytest.raises(Exception) as info:
        _run(case)
    return info.value


@pytest.mark.parametrize("bad_reps", [{9, 14}, {0}, {11}],
                         ids=["late", "first", "last"])
def test_forked_errors_match_serial(monkeypatch, forks, bad_reps):
    serial = _error(monkeypatch, "hc1_select", bad_reps)
    monkeypatch.setattr(simulate, "PARALLEL_MIN_DRAWS", 0)
    err = _error(monkeypatch, "hc1_select", bad_reps)
    assert type(err) is type(serial) is RuntimeError
    assert str(err) == str(serial)
    assert str(err) == f"no draw for replication {min(bad_reps)}"
    assert len(forks) == _forks_per_run(12)
    assert multiprocessing.active_children() == []
    assert _reaped(forks)


def test_all_failed_matches_serial(forked, forks):
    with pytest.raises(AllReplicationsFailed) as info:
        monte_carlo(canonical_preset(), FitSpec(), reps=6, n=8, seed=22,
                    targets=CATE)
    assert str(info.value) == "all 6 replications failed estimation"
    assert multiprocessing.active_children() == []
    assert _reaped(forks)


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_a_failing_worker_leaves_its_reps_to_the_caller(monkeypatch, forks,
                                                        how):
    # a child fails at the first rep it pulls, the caller never: the
    # caller runs every rep the child left out and reports as if serial
    serial = _run("hc1_select")
    caller = os.getpid()

    def draw(config, n, seed):
        if os.getpid() != caller:
            if how == "exit":
                os._exit(1)
            raise RuntimeError("worker failure")
        return gen_sample(config, n, seed)

    monkeypatch.setattr(simulate, "gen_sample", draw)
    monkeypatch.setattr(simulate, "PARALLEL_MIN_DRAWS", 0)
    assert _run("hc1_select") == serial
    assert len(forks) == _forks_per_run(12)
    assert multiprocessing.active_children() == []
    assert _reaped(forks)


def test_every_rep_is_pulled_once_with_more_workers_than_cpus(
        monkeypatch, forked, forks, tmp_path):
    # six processes race for the counter over replications that take
    # microseconds, so an unguarded read-modify-write would hand some
    # replication to two of them
    reps = 20_000
    monkeypatch.setattr(estimands, "_usable_cpus", lambda: 6)
    fd = os.open(tmp_path / "pulls", os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def draw(config, n, seed):
        os.write(fd, f"{seed[1]}\n".encode())

    def fit(sample, spec):
        raise TooFewObservations("no fit")

    monkeypatch.setattr(simulate, "gen_sample", draw)
    monkeypatch.setattr(simulate, "fit_hte", fit)
    try:
        with pytest.raises(AllReplicationsFailed):
            monte_carlo(canonical_preset(), FitSpec(), reps=reps, n=100,
                        seed=0, targets=CATE)
    finally:
        os.close(fd)
    pulled = sorted(map(int, (tmp_path / "pulls").read_text().split()))
    assert pulled == list(range(reps))
    assert len(forks) == 5
    assert _reaped(forks)


def test_forks_follow_the_usable_cpus(forked, forks):
    monte_carlo(canonical_preset(), FitSpec(), reps=5, n=500, seed=3,
                targets=CATE)
    usable = (
        len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
        else 1
    )
    assert len(forks) == (min(usable, 5) - 1 if usable >= 2 else 0)


@pytest.mark.parametrize("gate", ["thread", "one_cpu", "daemon"])
def test_gate_keeps_the_run_in_the_caller(monkeypatch, forked, forks, gate):
    if gate == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if gate == "daemon":
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if gate == "thread":
        thread.start()
    try:
        report = monte_carlo(canonical_preset(), FitSpec(), reps=5, n=500,
                             seed=3, targets=CATE)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    assert report.failures == 0


@pytest.mark.parametrize(
    "reps, n, parallel",
    [(3, 600, False), (10, 300, False), (50, 2_000, True)],
    ids=["self_check", "small", "mc_hc1"],
)
def test_gate_follows_the_draw_count(reps, n, parallel):
    procs = min(_usable_cpus(), reps)
    expect = procs if parallel and procs >= 2 else 1
    assert estimands._process_count(
        reps, reps * n, simulate.PARALLEL_MIN_DRAWS) == expect


def test_serial_runs_never_import_multiprocessing():
    # the import costs 10-14 ms, several percent of a cold `import rdhte`
    code = (
        "import sys, numpy as np, rdhte, rdhte.cli; "
        "rdhte.monte_carlo(rdhte.canonical_preset(), rdhte.FitSpec(), "
        "reps=3, n=600, seed=1, targets=[(np.array([0.0]), 0.5)]); "
        "print('multiprocessing' in sys.modules)"
    )
    src = Path(rdhte.__file__).resolve().parents[1]
    path = os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])
    out = subprocess.run(
        [sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
