"""The benchmark's workloads: inputs made from a seed, the timed calls, and
the checks on their outputs.

Every workload calls the library through module attributes
(``pipeline.two_stage_solve``, ``cli.run_cli`` ...) so that the tracer's
wrappers see the calls when they are installed.

Instances are the reference family (sparse-gross noise, 10% corrupted
rows).  For the in-memory workloads the seed picks row orders and signs
of one fixed family member, plus the pipeline seeds.  Neither changes the
lp problem; a fresh generator seed per run would change the problem and
the work with it (at 20,000 x 8, p=1.5, the direct solve took 0.31 to
0.62 s over eight generator seeds).
"""
import contextlib
import io as _stdio
import json
import math
import os
import time
from dataclasses import dataclass

import numpy as np

from lpcoreset import cli, pipeline, sampling, solver

RESOLVE_RTOL = 1e-9


def scaled_config(p, d, epsilon, stage1_target, stage2_target):
    """Config whose formula sizes hit the requested expected sample sizes
    (the rule of ``scaled_config`` in tests/test_acceptance.py)."""
    unit = sampling.SamplerConfig(p=p, d=d, epsilon=epsilon)
    return sampling.SamplerConfig(
        p=p,
        d=d,
        epsilon=epsilon,
        r1_scale=stage1_target / sampling.r1_default(unit),
        r2_scale=stage2_target / sampling.r2_default(unit, strict=False),
    )


def call_seed(st, k):
    """Pipeline seed of the k-th call on one set-up."""
    return pipeline.derive_seed(st["seed"], f"call:{k}")


def orient(A, b, seed):
    """The rows of (A, b) permuted and signed by seed: the same lp problem
    in another row order and orientation."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(A.shape[0])
    signs = rng.choice([-1.0, 1.0], size=A.shape[0])
    A = A[order]
    A *= signs[:, None]
    return A, b[order] * signs


def resolve_objective(A, b, p, indices, scales):
    """Objective of the subproblem built from a reported coreset."""
    idx = np.asarray(indices, dtype=np.intp)
    s = np.asarray(scales, dtype=np.float64)
    return solver.solve_lp_regression(A[idx] * s[:, None], b[idx] * s, p).objective


def _close(a, b, rtol=RESOLVE_RTOL):
    return abs(a - b) <= rtol * max(abs(a), abs(b), 1e-300)


def ratio_failures(ratio, epsilon):
    """approx_ratio must lie in [1, 1 + 7 eps] (the optimum is a lower bound)."""
    if ratio is None or not math.isfinite(ratio):
        return [f"approx_ratio is {ratio}"]
    out = []
    if ratio > 1.0 + 7.0 * epsilon:
        out.append(f"approx_ratio {ratio} > 1 + 7 eps = {1.0 + 7.0 * epsilon}")
    if ratio < 1.0 - 1e-9:
        out.append(f"approx_ratio {ratio} < 1: direct solve is not optimal")
    return out


@dataclass
class Outcome:
    """What one timed call produced, as the metrics and checks need it."""

    approx_ratio: float | None
    coreset_rows: float
    failures: list


class TallWorkload:
    """two_stage_solve on a tall instance, then the direct full solve."""

    direct_calls = 1  # direct solves per iteration

    def __init__(self, name, n, d, p, epsilon, targets, base_seed=1):
        self.name = name
        self.n, self.d, self.p = n, d, float(p)
        self.epsilon = epsilon
        self.targets = targets
        self.base_seed = base_seed

    def setup(self, seed):
        """State of one set-up, and the seconds that count as set-up time:
        generating the instance and constructing the RegressionInstance,
        not the benchmark's own reordering of the rows."""
        t0 = time.perf_counter()
        A, b, _ = pipeline.make_instance_arrays(self.n, self.d, seed=self.base_seed)
        seconds = time.perf_counter() - t0
        state = {"seed": pipeline.derive_seed(seed, "pipeline")}
        if self.p != 2.0:
            state["base"] = (A, b)
        A, b = orient(A, b, seed)
        t0 = time.perf_counter()
        state["inst"] = pipeline.RegressionInstance(A=A, b=b, p=self.p)
        seconds += time.perf_counter() - t0
        state["cfg"] = scaled_config(self.p, state["inst"].d, self.epsilon, *self.targets)
        return state, seconds

    def prepare(self, st, k):
        """Inputs of the k-th call.  The rounding (p != 2) takes a path
        that depends on the row order and signs: over three orders of the
        20,000 x 8 instance it made 3,199 to 4,642 pnorm calls.  So every
        call gets its own order, and a run's median covers many of them
        rather than the one its seed picked.  At p = 2 the work does not
        depend on the order, and one order per set-up is kept."""
        if self.p != 2.0:
            A, b = orient(*st["base"], pipeline.derive_seed(st["seed"], f"order:{k}"))
            st["inst"] = pipeline.RegressionInstance(A=A, b=b, p=self.p)

    def solve(self, st, k):
        return pipeline.two_stage_solve(st["inst"], st["cfg"], call_seed(st, k))

    def direct(self, st):
        inst = st["inst"]
        return solver.solve_lp_regression(inst.A, inst.b, self.p).objective

    def outcome(self, st, report, z_direct):
        if report.status != "ok":
            return Outcome(None, 0, [f"status {report.status}: {report.error}"])
        inst = st["inst"]
        ratio = report.final_objective / z_direct
        failures = ratio_failures(ratio, self.epsilon)
        z_core = resolve_objective(
            inst.A, inst.b, self.p, report.coreset_indices, report.coreset_scales
        )
        if not _close(z_core, report.stage2.sampled_objective):
            failures.append(
                f"coreset re-solve {z_core} != sampled objective "
                f"{report.stage2.sampled_objective}"
            )
        return Outcome(ratio, int(report.stage2.plan.actual_count), failures)


class CliCsvWorkload:
    """``lpcoreset solve`` on CSV files written by ``lpcoreset gen``."""

    direct_calls = 10  # a direct p=2 solve takes ~10 ms

    def __init__(self, name, n, d, p, epsilon, targets, workdir):
        self.name = name
        self.n, self.d, self.p = n, d, float(p)
        self.epsilon = epsilon
        self.targets = targets
        self.workdir = workdir

    def _run(self, argv):
        with contextlib.redirect_stdout(_stdio.StringIO()):
            return cli.run_cli(argv)

    def setup(self, seed):
        gen_seed = int(seed) % 2**32
        out = os.path.join(self.workdir, "instance")
        t0 = time.perf_counter()
        code = self._run(
            ["gen", "--n", str(self.n), "--d", str(self.d), "--p", repr(self.p),
             "--seed", str(gen_seed), "--out", out]
        )
        seconds = time.perf_counter() - t0
        if code != 0:
            raise RuntimeError(f"lpcoreset gen exited with {code}")
        cfg = scaled_config(self.p, self.d, self.epsilon, *self.targets)
        state = {
            "dir": out,
            "gen_seed": gen_seed,
            "cfg": cfg,
            "seed": pipeline.derive_seed(seed, "pipeline"),
            "report": os.path.join(self.workdir, "report.json"),
        }
        return state, seconds

    def prepare(self, st, k):
        """Every call reads the files written at set-up."""

    def solve(self, st, k):
        cfg = st["cfg"]
        if os.path.exists(st["report"]):
            os.remove(st["report"])
        return self._run(
            ["solve",
             "--input", os.path.join(st["dir"], "A.csv"),
             "--rhs", os.path.join(st["dir"], "b.csv"),
             "--p", repr(self.p), "--epsilon", repr(self.epsilon),
             "--seed", str(call_seed(st, k)),
             "--r1-scale", repr(cfg.r1_scale), "--r2-scale", repr(cfg.r2_scale),
             "--exact", "--output", st["report"]]
        )

    def direct(self, st):
        A, b = self._arrays(st)
        return solver.solve_lp_regression(A, b, self.p).objective

    def _arrays(self, st):
        # generated on first use, which is the untimed warm-up iteration
        if "A" not in st:
            A, b, _ = pipeline.make_instance_arrays(self.n, self.d, seed=st["gen_seed"])
            st["A"], st["b"] = A, b
        return st["A"], st["b"]

    def outcome(self, st, code, z_direct):
        if code != 0:
            return Outcome(None, 0, [f"exit code {code}"])
        try:
            with open(st["report"], encoding="utf-8") as f:
                doc = json.load(f)
        except (OSError, ValueError) as exc:
            return Outcome(None, 0, [f"report does not parse: {exc}"])
        if "approx_ratio" not in doc or "stage2" not in doc:
            return Outcome(None, 0, ["report lacks approx_ratio or stage2"])
        ratio = doc["approx_ratio"]
        failures = ratio_failures(ratio, self.epsilon)
        if not _close(doc["Z_exact"], z_direct):
            failures.append(f"Z_exact {doc['Z_exact']} != direct optimum {z_direct}")
        A, b = self._arrays(st)
        st2 = doc["stage2"]
        z_core = resolve_objective(A, b, self.p, st2["coreset_indices"], st2["scales"])
        if not _close(z_core, st2["objective_sampled"]):
            failures.append(
                f"coreset re-solve {z_core} != sampled objective {st2['objective_sampled']}"
            )
        return Outcome(ratio, st2["actual_count"], failures)


def make_workloads(workdir):
    """The named workloads at benchmark size."""
    return {
        w.name: w
        for w in (
            TallWorkload("tall-p1.5", n=20_000, d=8, p=1.5, epsilon=0.1, targets=(200.0, 400.0)),
            TallWorkload(
                "tall-p2", n=1_000_000, d=10, p=2.0, epsilon=0.1, targets=(2000.0, 4000.0)
            ),
            CliCsvWorkload(
                "cli-csv", n=50_000, d=8, p=2.0, epsilon=0.1, targets=(2000.0, 4000.0),
                workdir=workdir,
            ),
        )
    }
