"""load_csv's forked range reads: same columns, same errors, no leftovers.

Most tests force the forked path by setting cli.PARALLEL_MIN_BYTES to 0
and cut the data into small ranges. The gate also needs two usable CPUs,
so in a process pinned to one CPU those tests run the serial branch and
must pass all the same; the fork counts they assert follow the usable
CPUs.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
from types import SimpleNamespace

import numpy as np
import pytest

import rdhte.cli
import test_load_csv as serial
from rdhte.cli import load_csv, parse_config, run
from rdhte.errors import InputError, ParseError
from rdhte.estimands import _usable_cpus

from oracles import reference_load_csv

HEADER = "y,x,w,g"


@pytest.fixture
def forked(monkeypatch):
    """Let every read of two or more ranges take the forked path (given
    two usable CPUs)."""
    monkeypatch.setattr(rdhte.cli, "PARALLEL_MIN_BYTES", 0)


@pytest.fixture
def small_ranges(monkeypatch):
    """Ranges of about 1 KiB, so a few hundred rows make a dozen."""
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", 1 << 10)


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


def _forks_per_read(path) -> int:
    """Children a forced-forked read of the file at path, whose header
    is its first LF-ended line, starts."""
    with open(path, "rb") as fb:
        start = len(fb.readline())
    ranges = len(rdhte.cli._range_cuts(str(path), start)) - 1
    procs = min(_usable_cpus(), ranges)
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


def _lines(rows: int, seed: int = 0) -> list[str]:
    """Data lines of three numeric columns and one label column."""
    rng = np.random.default_rng(seed)
    labels = np.array(["north", "south", "west"])[rng.integers(0, 3, rows)]
    return [f"{y!r},{x!r},{w!r},{g}" for (y, x, w), g in
            zip(rng.standard_normal((rows, 3)).tolist(), labels)]


def _write(tmp_path, lines, name="d.csv"):
    path = tmp_path / name
    path.write_bytes((HEADER + "\n" + "\n".join(lines) + "\n").encode())
    return str(path)


def _assert_equals_reference(path, got, columns, numeric):
    text, numbers = got
    expected = reference_load_csv(path, [*columns, *numeric])
    assert text == {name: expected[name] for name in columns}
    for name in numeric:
        ref = np.array([float(v) for v in expected[name]], dtype=np.float64)
        assert numbers[name].tobytes() == ref.tobytes()


def test_forked_load_csv_equals_the_reference_reader(tmp_path_factory,
                                                     forked, forks):
    # the serial property, every example read through the forked path
    # wherever its data is quote-free and spans two or more ranges
    serial.test_load_csv_equals_the_reference_reader(
        tmp_path_factory=tmp_path_factory)
    assert bool(forks) == (_usable_cpus() >= 2)
    assert multiprocessing.active_children() == []
    assert _reaped(forks)


def test_a_late_bad_cell_cites_its_file_row(tmp_path, forked, small_ranges,
                                           forks):
    # an x cell in the second range and a y cell in one of the last: the
    # first column in numeric order with a bad cell wins, wherever it is
    lines = _lines(400)
    lines[30] = lines[30].split(",")[0] + ",x?," + lines[30].split(",", 2)[2]
    lines[370] = "y?," + lines[370].split(",", 1)[1]
    path = _write(tmp_path, lines)
    cuts = rdhte.cli._range_cuts(path, len(HEADER) + 1)
    assert len(cuts) > 12 and cuts[1] < 1 << 11 < 19 << 10 < cuts[-2]
    for numeric, cited in ((["y", "x"], (371, "y", "y?")),
                           (["x", "y"], (31, "x", "x?"))):
        with pytest.raises(ParseError) as exc:
            load_csv(path, ["g"], numeric)
        assert (exc.value.row, exc.value.column, exc.value.value) == cited
    assert len(forks) == 2 * _forks_per_read(path)
    assert multiprocessing.active_children() == []
    assert _reaped(forks)


def test_bad_utf8_in_a_late_range_gives_the_serial_message(
        tmp_path, monkeypatch, forks):
    # 4 KiB ranges put range 3 past the 8 KiB the header's reader decodes
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", 4 << 10)
    data = bytearray((HEADER + "\n" + "\n".join(_lines(400)) + "\n").encode())
    path = tmp_path / "latin.csv"
    path.write_bytes(data)
    cuts = rdhte.cli._range_cuts(str(path), len(HEADER) + 1)
    assert len(cuts) > 5 and cuts[3] > 8 << 10
    bad = cuts[3] + 5  # a digit of range 3's first line
    data[bad] = 0xFF
    path.write_bytes(data)
    line = data.count(b"\n", 0, bad) + 1
    byte = bad - data.rfind(b"\n", 0, bad)
    messages = []
    for threshold in (1 << 62, 0):
        monkeypatch.setattr(rdhte.cli, "PARALLEL_MIN_BYTES", threshold)
        with pytest.raises(InputError) as exc:
            load_csv(str(path), ["g"], ["y", "x"])
        messages.append(str(exc.value))
    assert messages == 2 * [
        "'utf-8' codec can't decode byte 0xff: invalid start byte "
        f"({path}, line {line}, byte {byte})"
    ]
    assert len(forks) == _forks_per_read(path)
    assert multiprocessing.active_children() == []
    assert _reaped(forks)


@pytest.mark.parametrize("gate", ["quote", "thread", "daemon", "one_cpu"])
def test_gate_keeps_the_read_in_the_caller(tmp_path, monkeypatch, forked,
                                           small_ranges, forks, gate):
    lines = _lines(400)
    if gate == "quote":
        # one quoted cell near the end: the whole read stays serial, and
        # csv.reader parses from its range on
        lines[390] = '"' + lines[390].replace(",", '",', 1)
    if gate == "one_cpu":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 1)
    if gate == "daemon":
        monkeypatch.setattr(multiprocessing, "current_process",
                            lambda: SimpleNamespace(daemon=True))
    path = _write(tmp_path, lines)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    if gate == "thread":
        thread.start()
    try:
        got = load_csv(path, ["g", "y"], ["y", "x"])
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=10)
    assert not thread.is_alive()
    assert forks == []
    _assert_equals_reference(path, got, ["g", "y"], ["y", "x"])


@pytest.mark.parametrize("how", ["raise", "exit"])
def test_a_failing_worker_leaves_its_ranges_to_the_caller(
        tmp_path, monkeypatch, forked, small_ranges, forks, how):
    # a child fails at the first range it reads, the caller never: the
    # caller reads every range the child left out
    path = _write(tmp_path, _lines(400))
    caller = os.getpid()
    split = rdhte.cli._split_block

    def split_in_caller(text, ncol):
        if os.getpid() != caller:
            if how == "exit":
                os._exit(1)
            raise RuntimeError("worker failure")
        return split(text, ncol)

    monkeypatch.setattr(rdhte.cli, "_split_block", split_in_caller)
    got = load_csv(path, ["g"], ["y", "w"])
    _assert_equals_reference(path, got, ["g"], ["y", "w"])
    assert len(forks) == _forks_per_read(path)
    assert multiprocessing.active_children() == []
    assert _reaped(forks)


def test_forked_cli_output_is_byte_identical(tmp_path, monkeypatch, forks):
    # the benchmark's shape at 20k rows in 64 KiB ranges
    path = tmp_path / "study.csv"
    serial._write_study_csv(path, 20_000)
    config = parse_config([
        "--data", str(path), "--outcome", "earnings", "--running", "score",
        "--cutoff", "0", "--hetero", "income:q4", "--hetero", "region:cat",
        "--cluster", "school", "--vce", "cluster", "--bw", "0.25",
        "--format", "json",
    ])
    monkeypatch.setattr(rdhte.cli, "_BLOCK_CHARS", 64 << 10)
    expected = run(config)
    assert forks == []
    monkeypatch.setattr(rdhte.cli, "PARALLEL_MIN_BYTES", 0)
    assert run(config) == expected
    assert expected[1] == 0
    assert len(forks) == _forks_per_read(path)
    assert _reaped(forks)


def test_forked_load_sample_memory_grows_at_most_300_bytes_a_row(
        tmp_path, monkeypatch, forked, forks):
    # tracemalloc sees the caller only: its ranges, and the columns the
    # worker sends back
    serial.test_load_sample_memory_grows_at_most_300_bytes_a_row(
        tmp_path, monkeypatch)
    assert bool(forks) == (_usable_cpus() >= 2)
    assert _reaped(forks)
