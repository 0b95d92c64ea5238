#!/usr/bin/env python3
"""lpcoreset benchmark: one named workload per run.

    python3 perfbench/run.py --workload tall-p1.5 --seed 1 --seconds 30 --trace 0

Load model: closed loop, one caller in one process making sequential
library calls; BLAS runs one thread.  A run sets the
workload up several times (set-up time is the median), makes one untimed
warm-up iteration, then repeats timed iterations for --seconds (at least
three).  An iteration is the user-facing call, then the direct full solve
(repeated on cli-csv, where it takes about 10 ms), then the
output checks.

--trace 0 prints the end-to-end metrics.  --trace 1 alternates untraced
and traced iterations and prints the per-layer metrics, taken from spans
that perfbench/tracing.py records around the library's functions.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it holds the
details (environment, sample counts and quartiles, derived values).
"""
import argparse
import contextlib
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

# One BLAS thread, set before numpy loads.  On a 2-vCPU VM shared with
# other tenants, two OpenBLAS threads made the 50,000 x 8 lstsq of cli-csv
# both slower and bimodal (interquartile range 70-100% of the median,
# against 4-10% with one thread).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)
WORKLOADS = ("tall-p1.5", "tall-p2", "cli-csv")

SETUP_MIN, SETUP_MAX, SETUP_WINDOW_S = 3, 1000, 1.0
MIN_TIMED = 3
KAPPA_TOL = 0.05  # well_conditioned_basis's default rounding tolerance


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Run:
    """Samples and failures of one benchmark run."""

    def __init__(self):
        self.setup_s = []
        self.solve_s = []
        self.traced_solve_s = []
        self.direct_s = []
        self.approx_ratio = []
        self.coreset_rows = []
        self.attempted = 0
        self.failed = 0
        self.failures = []

    def fail(self, messages):
        """Count one failed call with its failure messages."""
        self.failed += 1
        self.failures.extend(messages)


def setup_phase(workload, seed, tracer, run):
    state = None
    while len(run.setup_s) < SETUP_MIN or (
        sum(run.setup_s) < SETUP_WINDOW_S and len(run.setup_s) < SETUP_MAX
    ):
        state = None  # release the previous instance before building the next
        if tracer is not None:
            tracer.install()
        try:
            with _span(tracer, "bench.setup"):
                state, seconds = workload.setup(seed)
            run.setup_s.append(seconds)
        finally:
            if tracer is not None:
                tracer.uninstall()
    return state


def iteration(workload, state, k, tracer, run, timed):
    """The k-th user-facing call plus the direct solve; False on failure."""
    run.attempted += 1
    try:  # per-call inputs, made untimed and untraced
        workload.prepare(state, k)
    except Exception:
        run.fail([traceback.format_exc(limit=3)])
        return False
    if tracer is not None:
        tracer.install()
    try:
        with _span(tracer, "bench.iteration"):
            with _span(tracer, "bench.solve"):
                t0 = time.perf_counter()
                out = workload.solve(state, k)
                t_solve = time.perf_counter() - t0
            t_direct = []
            with _span(tracer, "bench.direct"):
                for _ in range(workload.direct_calls):
                    t0 = time.perf_counter()
                    z_direct = workload.direct(state)
                    t_direct.append(time.perf_counter() - t0)
    except Exception:
        run.fail([traceback.format_exc(limit=3)])
        return False
    finally:
        if tracer is not None:
            tracer.uninstall()
    try:  # the checks run untraced, outside the timed calls
        outcome = workload.outcome(state, out, z_direct)
    except Exception:
        run.fail([traceback.format_exc(limit=3)])
        return False
    if outcome.failures:
        run.fail(outcome.failures)
        return False
    if timed:
        (run.traced_solve_s if tracer is not None else run.solve_s).append(t_solve)
        if tracer is None:
            run.direct_s.extend(t_direct)
        run.approx_ratio.append(outcome.approx_ratio)
        run.coreset_rows.append(outcome.coreset_rows)
    return True


def rounding_failures(tracer):
    """kappa_cert <= sqrt(d) (1 + tol) whenever every rounding converged."""
    from tracing import layer_metrics

    m = layer_metrics(tracer)
    kappa, converged = m["conditioning.kappa_over_sqrt_d"][0], m["conditioning.converged"][0]
    if converged == 1.0 and kappa > (1.0 + KAPPA_TOL) * (1.0 + 1e-12):
        return [f"kappa_cert / sqrt(d) = {kappa} > 1 + tol with converged rounding"]
    return []


def measure(workload, seed, seconds, trace):
    """Run one workload; returns (Run, tracer or None)."""
    import tracing

    run = Run()
    tracer = tracing.Tracer(workload.n) if trace else None
    state = setup_phase(workload, seed, tracer, run)

    # warm-up: lazy imports and first-touch costs; its trace checks kappa
    warm = tracing.Tracer(workload.n)
    if iteration(workload, state, 0, warm, run, timed=False):
        kappa = rounding_failures(warm)
        if kappa:
            run.fail(kappa)

    # Untraced runs give every call its own pipeline seed, so the medians
    # cover many samples.  Traced runs repeat the warm-up's call, so counts
    # repeat exactly and the overhead compares identical work.
    deadline = time.perf_counter() + seconds
    minimum = 2 * MIN_TIMED if trace else MIN_TIMED
    i = 0
    while i < minimum or time.perf_counter() < deadline:
        traced = tracer if trace and i % 2 == 1 else None
        iteration(workload, state, 0 if trace else i + 1, traced, run, timed=True)
        i += 1
    return run, tracer


def _blas_threads():
    """Thread count of each OpenBLAS loaded in this process, by library file."""
    names = ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
             "openblas_get_num_threads64_", "openblas_get_num_threads")
    found = {}
    try:
        with open("/proc/self/maps", encoding="utf-8") as f:
            paths = {line.split()[-1] for line in f if "openblas" in line.lower()}
    except OSError:
        return found
    for path in sorted(paths):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in names:
            fn = getattr(lib, name, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[os.path.basename(path)] = fn()
                break
    return found


def environment():
    import numpy
    import scipy

    import lpcoreset

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "kernel_backend": lpcoreset.KERNEL_BACKEND,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": _blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
    }


def describe(values):
    """Sample count, median and quartiles; the highest percentile with at
    least ten samples beyond it, once there are enough samples."""
    if not values:
        return {"n": 0}
    out = {"n": len(values), "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3)
    if len(values) >= 20:
        pct = int(100 * (len(values) - 10) / len(values))
        out[f"p{pct}"] = statistics.quantiles(values, n=100)[pct - 1]
    return out


def _median(values):
    return statistics.median(values) if values else 0.0


def end_to_end(run):
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": (_median(run.setup_s), "s"),
        "solve_s": (_median(run.solve_s), "s"),
        "direct_s": (_median(run.direct_s), "s"),
        "approx_ratio": (_median(run.approx_ratio), "ratio"),
        "coreset_rows": (_median(run.coreset_rows), "count"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_share": (1.0 - run.failed / max(1, run.attempted), "share"),
    }


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be nonnegative")

    if not os.path.isfile(os.path.join(SRC, "lpcoreset", "__init__.py")):
        print(f"error: lpcoreset sources not found under {SRC}", file=sys.stderr)
        return 2
    import lpcoreset

    if not os.path.abspath(lpcoreset.__file__).startswith(SRC + os.sep):
        print(f"error: imported lpcoreset from {lpcoreset.__file__}", file=sys.stderr)
        return 2
    import tracing
    from workloads import make_workloads

    before = tracing.original_bindings()
    workdir = tempfile.mkdtemp(prefix="work-", dir=os.path.join(ROOT, "perfbench"))
    try:
        workload = make_workloads(workdir)[args.workload]
        run, tracer = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    restored = tracing.original_bindings() == before
    if not restored:
        run.failures.append("tracer left a wrapper installed")

    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": environment(),
        "samples": {
            "setup_s": describe(run.setup_s),
            "solve_s": describe(run.solve_s),
            "direct_s": describe(run.direct_s),
        },
        "failures": run.failures[:5],
    }
    if args.trace:
        metrics = tracing.layer_metrics(tracer)
        overhead = _median(run.traced_solve_s) / _median(run.solve_s) if run.solve_s else 0.0
        metrics["derived.trace_overhead"] = (overhead, "ratio")
        detail["samples"]["traced_solve_s"] = describe(run.traced_solve_s)
        detail["self_s"] = tracing.self_seconds(tracer)
    else:
        metrics = end_to_end(run)
        solve = metrics["solve_s"][0]
        detail["derived"] = {
            "speedup_vs_direct": metrics["direct_s"][0] / solve if solve else 0.0
        }
    print(json.dumps({"detail": detail}))
    print(
        json.dumps(
            {
                "correct": run.failed == 0 and restored,
                "attempted": run.attempted,
                "failed": run.failed,
                "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
