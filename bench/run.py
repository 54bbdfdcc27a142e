"""Benchmark of rdhte: seeded workloads, end-to-end metrics, per-layer trace.

Run one workload from the root of a checkout:

    python3 bench/run.py --workload fit_1e6 --seed 1 --seconds 20 --trace 0

The workload runs in this process as a closed loop with one caller: each
operation starts when the previous one has returned and been checked.
After one untimed warm-up operation, operations run until ``--seconds``
have passed.  Every output is checked; an operation that raises or fails
its check counts as failed.  ``--trace 0`` reports the end-to-end metrics
of BENCHMARK.json; ``--trace 1`` alternates untraced and traced operations
and reports the per-layer metrics (see spans.py).  The last line of
standard output is the result object; the line before it holds the
details (sample counts, tail percentile, machine, measurement limits).

    python3 bench/run.py --self-check

runs every workload at tiny sizes through the same code paths and output
checks, and checks that each check rejects a corrupted output.
"""

import os

# One caller thread and tiny k x k solves: pin BLAS to one thread (at most
# nproc) so that runs on a shared machine stay comparable.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKDIR = ROOT / ".bench_work"

#: fresh-process imports timed per run; setup_s is their median
SETUP_REPS = 3
#: the tail percentile must leave at least this many samples above it
TAIL_ABOVE = 10

IMPORT_TIMER = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import rdhte; print(time.perf_counter() - t)"
)

LIMITS = (
    "Only the benchmark's own processes are measured: wall time from "
    "perf_counter, peak RSS from getrusage of the workload process. No "
    "machine-wide tracing and no page-cache drops."
)


def import_rdhte():
    """Import rdhte from this checkout's src/, or exit without a result."""
    sys.path.insert(0, str(SRC))
    try:
        import rdhte
        import rdhte.cli  # noqa: F401
    except ImportError as exc:
        raise SystemExit(f"bench: cannot import rdhte from {SRC}: {exc}")
    if not Path(rdhte.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"bench: rdhte imported from {rdhte.__file__}, "
                         f"not from {SRC}")
    return rdhte


@contextlib.contextmanager
def scratch_dir(tag):
    """A private directory under WORKDIR, removed with its contents."""
    path = WORKDIR / f"{tag}-{os.getpid()}"
    path.mkdir(parents=True)
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        with contextlib.suppress(OSError):  # other runs may still use it
            WORKDIR.rmdir()


def import_seconds(reps):
    """Seconds of `import rdhte` in each of `reps` fresh processes."""
    out = []
    for _ in range(reps):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_TIMER, str(SRC)],
            capture_output=True, text=True, timeout=120, check=True,
        )
        out.append(float(proc.stdout))
    return out


def blas_threads():
    """Thread count reported by the loaded OpenBLAS, or None."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def machine_info():
    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": blas_threads(),
        "machine": platform.machine(),
    }


def tail(samples):
    """(value, percentile): the highest nearest-rank percentile with at
    least TAIL_ABOVE samples above it, never below the median.

    Up to 2 * TAIL_ABOVE samples that is the median itself.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 2 * TAIL_ABOVE:
        return statistics.median(ordered), 50.0
    return ordered[n - 1 - TAIL_ABOVE], 100.0 * (n - TAIL_ABOVE) / n


def run_op(workload, tracer=None):
    """Run and check one operation: (seconds, problem or None)."""
    if tracer is not None:
        tracer.op += 1
        tracer.install()
    try:
        start = time.perf_counter()
        out = workload.op()
        seconds = time.perf_counter() - start
    except Exception as exc:  # a raising operation is a failed operation
        return None, f"{type(exc).__name__}: {exc}"
    finally:
        if tracer is not None:
            tracer.uninstall()
    return seconds, workload.check(out)


def measure(workload, seconds, tracer):
    """Warm up once, then run operations for `seconds`.

    With a tracer, untraced and traced operations alternate.  Returns
    (untraced op seconds, traced op seconds, attempted, problems).
    """
    samples = {False: [], True: []}
    problems = []
    _, problem = run_op(workload)
    attempted = 1
    if problem:
        problems.append(problem)
    traced = False
    deadline = time.perf_counter() + seconds
    while True:
        dt, problem = run_op(workload, tracer if traced else None)
        attempted += 1
        if problem:
            problems.append(problem)
        else:
            samples[traced].append(dt)
        if tracer is not None:
            traced = not traced
        if time.perf_counter() >= deadline and not traced:
            break
    return samples[False], samples[True], attempted, problems


def end_to_end(name, op_s, setup_s, attempted, failed):
    if name == "op_s.p50":
        return statistics.median(op_s)
    if name == "op_s.tail":
        return tail(op_s)[0]
    if name == "setup_s":
        return statistics.median(setup_s)
    if name == "peak_rss_mb":
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6
    if name == "ok_rate":
        return (attempted - failed) / attempted
    raise KeyError(f"no rule for end-to-end metric {name!r}")


def run(args, bench):
    rd = import_rdhte()
    import spans
    import workloads

    setup_s = [] if args.trace else import_seconds(SETUP_REPS)
    tracer = spans.Tracer() if args.trace else None
    with scratch_dir(args.workload) as workdir:
        workload = workloads.WORKLOADS[args.workload](
            rd, args.seed, False, workdir)
        op_s, traced_s, attempted, problems = measure(
            workload, args.seconds, tracer)
    for problem in sorted(set(problems)):
        print(f"bench: failed operation: {problem}", file=sys.stderr)
    if not op_s or (tracer is not None and not traced_s):
        raise SystemExit("bench: no operation succeeded")

    failed = len(problems)
    value, percentile = tail(op_s)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, one caller",
        "op_s": {
            "samples": len(op_s),
            "p50": statistics.median(op_s),
            "tail": value,
            "tail_percentile": percentile,
        },
        "setup_s_samples": setup_s,
        "machine": machine_info(),
        "limits": LIMITS,
    }
    if tracer is None:
        metric_list = bench["end_to_end"]
        values = {
            m["name"]: end_to_end(m["name"], op_s, setup_s, attempted, failed)
            for m in metric_list
        }
    else:
        metric_list = bench["per_layer"]
        values = spans.layer_metrics(
            tracer, [m["name"] for m in metric_list], traced_s, op_s)
        detail["traced_ops"] = len(traced_s)
        detail["functions_per_op"] = {
            fn: {key: row[key] / len(traced_s)
                 for key in ("calls", "s", "self_s")}
            for fn, row in sorted(tracer.summary().items())
        }
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in metric_list
        },
    }))


def self_check(bench):
    """Tiny-size pass over every workload; returns a list of problems."""
    rd = import_rdhte()
    import spans
    import workloads

    names = [m["name"] for m in bench["per_layer"]]
    problems = []
    for name in (w["name"] for w in bench["workloads"]):
        tracer = spans.Tracer()
        with scratch_dir("self-check") as workdir:
            workload = workloads.WORKLOADS[name](rd, 0, True, workdir)
            plain_s, problem = run_op(workload)
            traced_s, traced_problem = run_op(workload, tracer)
            corrupted = workload.check(workload.corrupt(workload.op()))
        for p in (problem, traced_problem):
            if p:
                problems.append(f"{name}: {p}")
        if corrupted is None:
            problems.append(f"{name}: check accepts a corrupted output")
        if problem or traced_problem:
            continue
        values = spans.layer_metrics(tracer, names, [traced_s], [plain_s])
        if not all(math.isfinite(v) for v in values.values()):
            problems.append(f"{name}: non-finite per-layer metric")
        # fit_side and kernel_eval are reached only through names imported
        # into other modules, so seeing them shows that rebinding works
        for metric in ("fitting.fit_side.calls", "kernels.kernel_eval.rows"):
            if not values[metric] > 0:
                problems.append(f"{name}: tracer saw no {metric}")
    return problems


def main():
    # exit through SystemExit on SIGTERM so that scratch files are removed
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(143))
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload",
                    choices=[w["name"] for w in bench["workloads"]])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=bench["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true")
    args = ap.parse_args()
    if args.self_check:
        problems = self_check(bench)
        for problem in problems:
            print(f"bench: self-check: {problem}", file=sys.stderr)
        print("self-check", "failed" if problems else "ok")
        return 1 if problems else 0
    if args.workload is None:
        ap.error("--workload is required")
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    run(args, bench)
    return 0


if __name__ == "__main__":
    sys.exit(main())
