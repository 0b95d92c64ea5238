"""Two-stage row-sampling solves with verifiable statistics.

Stage 1 samples rows by the p-norm leverage of a well-conditioned basis
and solves the sampled subproblem (a constant-factor approximation);
stage 2 resamples using the stage-1 residual and solves again (a
relative-error approximation).  two_stage_solve is the one entry point
for the paper's algorithm: a weighted instance is stored row-scaled by
w_i^(1/p), so it is a plain instance to every stage, and a matrix
right-hand side changes only the residual norm (solve_lp_regression
solves it column by column).  The single-stage variants run on the same
machinery: the oracle's probabilities are stage 2's rule with a
reference solution's residual, and augmented sampling is stage 1's rule
on a basis for [A b].  Each RegressionInstance keeps what every stage and
statistic of it shares: its own column-major copy of A, the R factor of
A (no Q), the well-conditioned basis (with its leverage), ||b||_p and
the full problem's optimum, each made once; the copy is written by the
same pass that factors A, and at p = 2 that pass also sums A^T b.  So
the caller may change A after construction, but not b, which the
instance keeps as given.

Past conditioning, a stage reads A at most once, in row blocks.  Its
probabilities are a chunk rule (sampling.stage1_rule, stage2_rule), and
its plan is drawn against it: each chunk's probabilities are formed just
before its draws and summed into the expected count as they go
(kernels.counter_bernoulli).  A stage 1 that stage 2 follows then forms
the full residual A x - b, one GEMV per block of the column-major A,
whose blocks give the full objective and the sum of the residual's p-th
powers (kernels.residual_pnorm), and keeps it, because stage 2's rule
reads it and the sum.  Every other stage keeps no residual and takes
both numbers from RegressionInstance.residual_pnorm: at p = 2 from the
Gram identity ||A x - b||^2 = ||R x||^2 - 2 x^T A^T b + ||b||^2, with no
pass over A, unless it could cancel; else from the same pass with no
n-length array built.  The sampled rows are factored once: the solve's
QR of [SA | Sb] gives SA's rank too.  No stage keeps an n-length array
of probabilities.

All randomness flows from one master seed through labeled derivations,
so every report is reproducible end to end.
"""
import hashlib
import math
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .conditioning import well_conditioned_basis
from .errors import InvalidConfigError, StageFailureError, ZeroRankError
from .kernels import _SQ_HI, _SQ_LO, residual_pnorm
from .linalg import (
    RFactors, _as_2d, _check_exponent, _r_factors, as_matrix, as_vector, vec_p_norm
)
# kept only as a binding that perfbench's tracer wraps; no code of this
# module calls it, since each sample's rank comes from its solve's QR
from .linalg import numeric_rank  # noqa: F401
from .sampling import apply_plan, r1_default, r2_default, realize_sample
# A stage's probabilities are its chunk rule, built by the rule builders
# under the names that perfbench's tracer wraps to time them and to learn
# each draw's stage; they form no n-vector.
from .sampling import stage1_rule as stage1_probabilities
from .sampling import stage2_rule as stage2_probabilities
from .solver import row_scaled, solve_lp_regression

_MASK64 = (1 << 64) - 1
_EXACT_CELL_CAP = 10**7
_ZERO_RESIDUAL_RTOL = 1e-12
_MAX_SAMPLE_ATTEMPTS = 6  # first try plus five derived-seed retries
# At p = 2 an instance takes S = ||A x - b||^2 as t1 - t2 + ||b||^2, with
# t1 = ||R x||^2 and t2 = 2 x^T A^T b (RegressionInstance.residual_pnorm),
# only where S * _GRAM_CANCEL >= t1 + |t2| + ||b||^2 + a (sqrt(t1) + ||b||),
# a = ||R||_F ||x|| >= || |A| |x| ||; elsewhere one residual pass over A
# gives S.  The right side over S, the cancel factor, scales the
# identity's rounding: its first three terms that of the sum, the last
# that of R and of A^T b, which grows with A's condition.  Against S in
# extended precision, at 200,000 x 8 with Gaussian and heavy-tailed rows
# and Gaussian noise of seven sizes (cancel factors 2 to 1e6), the
# identity erred by at most 3.0e-16 times the cancel factor, and the pass
# by at most 3.3e-16, so this bound keeps S within 1e-13.
# Sparse-gross noise puts the factor near 1.2.  Without its last term,
# A of condition 1e6 to 1e12 read a factor of 1.03 where the identity
# erred by up to 9e-11; with it, 5.8e3 to 4e7.
_GRAM_CANCEL = 2.0 ** 8
# make_instance_arrays' row designs; heavy-tailed rows are multivariate t
# with _T_DOF degrees of freedom
DESIGNS = ("gaussian", "heavy-tailed")
_T_DOF = 1.0  # T1, the heaviest of the T designs


def derive_seed(master, label):
    """Derive a child seed from a master seed and a fixed label."""
    h = int.from_bytes(hashlib.blake2b(label.encode(), digest_size=8).digest(), "little")
    x = (int(master) ^ h) & _MASK64
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9 & _MASK64
    x = (x ^ (x >> 27)) * 0x94D049BB133111EB & _MASK64
    return (x ^ (x >> 31)) & _MASK64


@dataclass(eq=False)
class RegressionInstance:
    """An overconstrained lp regression problem.

    b may be a vector or a matrix (generalized, multiple right-hand
    sides); weights, when present, define the weighted p-norm objective,
    and A and b are then stored row-scaled by w_i^(1/p) (see
    solver.row_scaled), so every solve and report of the instance is of
    the weighted problem.
    A is factored once, at construction, by one R-only blocked QR:
    factors holds R, the numeric rank d = factors.rank and the m x d
    column map C (see linalg.r_factors); no Q is formed or kept.  The
    same pass checks A finite and writes the instance's A, a
    column-major (F-ordered) copy, so every pass over all rows reads A
    column by column and the caller's A may change afterwards.  b is
    kept as given (row-scaled when weighted), so it must not change.
    basis (A's well-conditioned basis, which reads A through C), b_norm
    (||b||_p) and exact_result (the full problem's solve) are
    computed on first use and then kept, so every solve and statistic
    of the instance shares them.  Once conditioned, the instance holds
    the basis's leverage, one n-vector, and at every p no n x d array
    besides A, and so no U: the basis forms U, G and tau from A when
    they are first read.  A two-stage report holds stage 1's
    residual, n entries, but no stage-2 residual and no probabilities:
    each plan forms its n probabilities from its rule when they are
    first read.
    exact_result, the full problem's SolveResult, is kept the same way;
    optimum is its (x, objective).

    At p = 2 the QR pass also sums atb = A^T b (A^T B for a matrix b), and
    the instance keeps it with b_sq = ||b||_2^2 (||B||_F^2), which may be
    inf.  With R^T R = A^T A these give ||A x - b||_2^2 for any x in
    O(m^2) (residual_pnorm), so a stage that keeps no residual reads no
    row of A for its objective.  Both are None at p != 2.
    """

    A: np.ndarray
    b: np.ndarray
    p: float
    weights: np.ndarray | None = None
    d: int = field(init=False)
    factors: RFactors = field(init=False, repr=False)
    atb: np.ndarray | None = field(init=False, repr=False, default=None)
    b_sq: float | None = field(init=False, repr=False, default=None)

    def __post_init__(self):
        A = _as_2d(self.A)
        self.b = as_matrix(self.b) if np.ndim(self.b) == 2 else as_vector(self.b)
        if self.b.shape[0] != A.shape[0]:
            raise ValueError("A and b row counts differ")
        _check_exponent(self.p)
        if self.weights is not None:
            self.weights = as_vector(self.weights)
            A, self.b = row_scaled(A, self.b, self.weights, self.p)
        # the QR pass checks A finite and copies it column-major block by
        # block, and at p = 2 sums A^T b
        self.A = np.empty(A.shape, order="F")
        if self.p == 2.0:
            self.atb = np.zeros(A.shape[1:] + self.b.shape[1:])
            v = self.b.reshape(-1)
            with np.errstate(over="ignore"):
                self.b_sq = float(v @ v)
        try:
            self.factors = _r_factors(A, copy=self.A, b=self.b, atb=self.atb)
        except ZeroRankError:
            raise InvalidConfigError("A must have numeric rank >= 1") from None
        self.d = self.factors.rank

    @cached_property
    def b_norm(self):
        return vec_p_norm(self.b, self.p)

    @cached_property
    def basis(self):
        return well_conditioned_basis(self.A, self.p, factors=self.factors)

    @cached_property
    def exact_result(self):
        """The full problem's SolveResult, with its Newton steps and
        converged flag."""
        return solve_lp_regression(self.A, self.b, self.p)

    def residual_pnorm(self, x):
        """(||A x - b||_p, total) for a solution x, as
        kernels.residual_pnorm returns them without out.  At p = 2 they
        come from the Gram identity ||A x - b||^2 = ||R x||^2 - 2 x^T atb
        + b_sq where its rounding stays small (_GRAM_CANCEL), and from one
        pass over A elsewhere."""
        if self.atb is not None:
            R = self.factors.R
            with np.errstate(over="ignore", invalid="ignore"):
                Rx = R @ x
                t1 = float(np.vdot(Rx, Rx))
                t2 = 2.0 * float(np.vdot(x, self.atb))
                total = t1 - t2 + self.b_sq
                a = math.sqrt(float(np.vdot(R, R)) * float(np.vdot(x, x)))
                scale = t1 + abs(t2) + self.b_sq
                scale += a * (math.sqrt(t1) + math.sqrt(self.b_sq))
            if _SQ_LO <= total <= _SQ_HI and total * _GRAM_CANCEL >= scale:
                return math.sqrt(total), total
        return residual_pnorm(self.A, x, self.b, self.p)

    @property
    def optimum(self):
        return self.exact_result.x, self.exact_result.objective

    @property
    def n(self):
        return self.A.shape[0]

    @property
    def m(self):
        return self.A.shape[1]

    @property
    def is_generalized(self):
        return self.b.ndim == 2


@dataclass(eq=False)
class StageOutcome:
    """One sampling stage: the realized plan, the subproblem solution,
    and its objective evaluated on the full data.  residual, A x_hat - b
    on the full data, is kept by a stage 1 that stage 2 follows, for stage
    2 to sample by; it is None on every other outcome.  residual_powsum
    is the unscaled sum of the residual's p-th powers, which stage 2
    divides by.  full_objective and residual_powsum come from the pass
    that forms the residual, or, on an outcome with no residual, from
    RegressionInstance.residual_pnorm: at p = 2 from the Gram identity,
    with no pass over A, where it cannot cancel.  solver_iterations and
    solver_converged are the sampled solve's Newton steps and converged
    flag (summed and and-ed over the columns of a matrix right-hand
    side).  The last three are None on a passthrough stage, which solves
    nothing."""

    stage: int
    plan: object
    x_hat: np.ndarray
    residual: np.ndarray | None
    sampled_objective: float
    full_objective: float
    exact_passthrough: bool = False
    attempts: int = 1
    residual_powsum: float | None = None
    solver_iterations: int | None = None
    solver_converged: bool | None = None


@dataclass(eq=False)
class SolveReport:
    """End-to-end record of one pipeline run.  With compute_exact,
    Z_exact is the full problem's optimum, and exact_solver_iterations
    and exact_solver_converged are its solve's Newton steps and
    converged flag; all three are None otherwise."""

    n: int
    m: int
    d: int
    p: float
    epsilon: float
    seed: int
    stage1: StageOutcome | None = None
    stage2: StageOutcome | None = None
    coreset_indices: np.ndarray | None = None
    coreset_scales: np.ndarray | None = None
    Z_exact: float | None = None
    exact_solver_iterations: int | None = None
    exact_solver_converged: bool | None = None
    approx_ratio: float | None = None
    timings_ms: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None

    @property
    def final_objective(self):
        out = self.stage2 if self.stage2 is not None else self.stage1
        return None if out is None else out.full_objective


def _sample_and_solve(inst, rule, stage, seed, keep_residual=False):
    """Realize a plan against the chunk rule (retrying on rank-deficient
    samples), solve it, and evaluate the solution on the full data:
    with keep_residual by one pass that keeps the full residual, else by
    inst.residual_pnorm.  A sample's rank comes from its own solve, so a
    rank-deficient sample is solved before it is retried."""
    diag = {"stage": stage, "seed": int(seed), "attempts": []}
    for attempt in range(_MAX_SAMPLE_ATTEMPTS):
        plan_seed = seed if attempt == 0 else derive_seed(seed, f"retry:{attempt}")
        plan = realize_sample(rule, inst.p, plan_seed)
        if plan.actual_count < inst.d:
            diag["attempts"].append({"count": plan.actual_count, "rank": 0})
            continue
        SA, Sb = apply_plan(plan, inst.A, inst.b)
        try:
            res = solve_lp_regression(SA, Sb, inst.p)
        except ZeroRankError:  # an all-zero sample
            rank = 0
        else:
            rank = res.rank
        if rank < inst.d:
            diag["attempts"].append({"count": plan.actual_count, "rank": rank})
            continue
        if keep_residual:
            residual = np.empty(inst.b.shape)
            full_obj, total = residual_pnorm(inst.A, res.x, inst.b, inst.p, out=residual)
        else:
            residual = None
            full_obj, total = inst.residual_pnorm(res.x)
        return StageOutcome(
            stage=stage,
            plan=plan,
            x_hat=res.x,
            residual=residual,
            sampled_objective=res.objective,
            full_objective=full_obj,
            attempts=attempt + 1,
            residual_powsum=total,
            solver_iterations=res.iterations,
            solver_converged=res.converged,
        )
    raise StageFailureError(
        f"stage {stage}: sampled matrix rank-deficient after "
        f"{_MAX_SAMPLE_ATTEMPTS} attempts (need rank {inst.d})",
        diagnostics=diag,
    )


def stage_one(inst, cfg, seed, keep_residual=True):
    """Leverage-based sampling stage at size r1 on inst.basis.

    The min(1, .) clamp already bounds every probability, so oversized r1
    (the default formula at desk scale) degenerates to full sampling.
    keep_residual keeps the full residual, which only stage 2 reads.
    """
    rule = stage1_probabilities(inst.basis, r1_default(cfg))
    return _sample_and_solve(inst, rule, 1, seed, keep_residual)


def stage_two(inst, stage1_out, cfg, seed):
    """Residual-refined resampling stage at size r2 (capped at n).

    The rule reads stage 1's rule, residual and power sum, so stage 2
    makes no pass of its own over the residual.  A stage-1 objective at
    most 1e-12 ||b||_p short-circuits: the stage-1 solution is already
    exact and no sampling is performed.
    """
    if stage1_out.full_objective <= _ZERO_RESIDUAL_RTOL * inst.b_norm:
        return StageOutcome(
            stage=2,
            plan=None,
            x_hat=stage1_out.x_hat,
            residual=None,
            sampled_objective=stage1_out.full_objective,
            full_objective=stage1_out.full_objective,
            exact_passthrough=True,
        )
    r2 = r2_default(cfg, strict=False)
    rule = stage2_probabilities(
        stage1_out.plan.rule, stage1_out.residual, inst.p, r2, stage1_out.residual_powsum
    )
    return _sample_and_solve(inst, rule, 2, seed)


def _exact_result(inst):
    """The full problem's SolveResult, or None above _EXACT_CELL_CAP cells."""
    cols = inst.b.shape[1] if inst.is_generalized else 1
    if inst.n * inst.m * cols > _EXACT_CELL_CAP:
        return None
    return inst.exact_result


def _ratio(final_obj, Z, b_norm):
    """final_obj / Z, by stage 2's zero test (an objective at most
    _ZERO_RESIDUAL_RTOL * ||b||_p is exact): 1.0 when both are zero, as on
    a consistent system, where both are rounding noise, and None when Z
    alone is."""
    if Z is None:
        return None
    zero = _ZERO_RESIDUAL_RTOL * b_norm
    if Z > zero:
        return final_obj / Z
    return 1.0 if final_obj <= zero else None


def _base_report(inst, cfg, seed, variant, extra_config=None):
    if cfg.p != inst.p or cfg.d != inst.d:
        raise InvalidConfigError(
            f"config (p={cfg.p:g}, d={cfg.d}) does not match the instance "
            f"(p={inst.p:g}, d={inst.d})"
        )
    config = {
        "variant": variant,
        "r1_scale": cfg.r1_scale,
        "r2_scale": cfg.r2_scale,
    }
    if extra_config:
        config.update(extra_config)
    return SolveReport(
        n=inst.n,
        m=inst.m,
        d=inst.d,
        p=inst.p,
        epsilon=cfg.epsilon,
        seed=int(seed),
        config=config,
    )


@contextmanager
def _timed(report, key):
    """Record the wall time of the block under report.timings_ms[key]
    (nothing is recorded when the block raises)."""
    t0 = time.perf_counter()
    yield
    report.timings_ms[key] = (time.perf_counter() - t0) * 1000.0


def _run_stages(report, inst, seed, stages, compute_exact):
    """The pipeline body every variant shares.

    Runs the stages in order: each (seed label, step) calls step(previous
    outcome, derived seed) for its StageOutcome.  Stage failures produce
    a status="failed" report, never an exception.
    """
    try:
        out = None
        for k, (label, step) in enumerate(stages, start=1):
            with _timed(report, f"stage{k}"):
                out = step(out, derive_seed(seed, label))
            setattr(report, f"stage{k}", out)
    except StageFailureError as exc:
        report.status = "failed"
        report.error = f"{exc} | diagnostics: {exc.diagnostics}"
        return report
    if out.plan is not None:
        report.coreset_indices = out.plan.realized_indices
        report.coreset_scales = out.plan.scales
    else:
        report.coreset_indices = np.array([], dtype=np.intp)
        report.coreset_scales = np.array([])
    if compute_exact:
        with _timed(report, "exact"):
            exact = _exact_result(inst)
        if exact is not None:
            report.Z_exact = exact.objective
            report.exact_solver_iterations = exact.iterations
            report.exact_solver_converged = exact.converged
            report.approx_ratio = _ratio(out.full_objective, exact.objective, inst.b_norm)
    return report


def _one_shot(inst, rule):
    """A single-stage step: sample against the chunk rule and solve."""
    return lambda _, seed: _sample_and_solve(inst, rule, 1, seed)


def two_stage_solve(inst, cfg, seed, compute_exact=False, stages=2):
    """Run the sampling pipeline end to end and assemble a report.

    Serves vector and matrix right-hand sides and weighted instances
    alike; config["variant"] names which ("weighted", "generalized" or
    "two-stage").  stages=1 stops after the constant-factor stage.  Both
    stages sample from inst.basis, so only an instance's first run
    conditions A.  compute_exact adds inst.exact_result's objective,
    Newton steps and converged flag and the approximation ratio when the
    instance is small enough
    (n*m*columns <= 10^7).  cfg must have the instance's p and d.  Stage
    failures produce a status="failed" report, never an exception.
    """
    if stages not in (1, 2):
        raise InvalidConfigError("stages must be 1 or 2")
    if inst.weights is not None:
        variant = "weighted"
    elif inst.is_generalized:
        variant = "generalized"
    else:
        variant = "two-stage"
    report = _base_report(inst, cfg, seed, variant, {"stages": stages})
    with _timed(report, "conditioning"):
        inst.basis  # conditioned on the instance's first run, then kept
    steps = [
        ("stage1", lambda _, s: stage_one(inst, cfg, s, stages == 2)),
        ("stage2", lambda st1, s: stage_two(inst, st1, cfg, s)),
    ]
    return _run_stages(report, inst, seed, steps[:stages], compute_exact)


def single_stage_oracle_solve(inst, x_ref, cfg, r, seed, compute_exact=False):
    """One-shot sampling from reference-solution probabilities.

    x_ref is a reference solution, and its residual plays stage 2's
    residual at size r: row i is kept with probability min(1, r *
    max(leverage_i, |rho_i|^p / ||rho||_p^p)), by stage1_rule and then
    stage2_rule, or by the leverage alone when x_ref's residual is 0.
    x_ref=None takes inst.optimum's minimizer, the same optimum
    compute_exact reads.
    """
    if inst.is_generalized:
        raise InvalidConfigError("oracle sampling expects a vector right-hand side")
    report = _base_report(inst, cfg, seed, "oracle", {"r": float(r)})
    x_ref = inst.optimum[0] if x_ref is None else np.asarray(x_ref, dtype=np.float64)
    rho_ref = np.empty(inst.n)
    norm, total = residual_pnorm(inst.A, x_ref, inst.b, inst.p, out=rho_ref)
    with _timed(report, "conditioning"):
        basis = inst.basis
    rule = stage1_probabilities(basis, float(r))
    if norm > 0.0:
        rule = stage2_probabilities(rule, rho_ref, inst.p, float(r), total)
    step = _one_shot(inst, rule)
    return _run_stages(report, inst, seed, [("oracle", step)], compute_exact)


def single_stage_augmented_solve(inst, cfg, r, seed, compute_exact=False):
    """One-shot sampling by row norms of a basis for the stacked [A b].

    Conditioning the augmented matrix folds the right-hand side's
    positional information into a single sampling pass.  Each call
    conditions [A b] afresh; A alone is never conditioned here.
    """
    if inst.is_generalized:
        raise InvalidConfigError("augmented sampling expects a vector right-hand side")
    report = _base_report(inst, cfg, seed, "augmented", {"r": float(r)})
    with _timed(report, "conditioning"):
        basis = well_conditioned_basis(np.column_stack([inst.A, inst.b]), inst.p)
    step = _one_shot(inst, stage1_probabilities(basis, float(r)))
    return _run_stages(report, inst, seed, [("augmented", step)], compute_exact)


GUARANTEE_LEGEND = {
    "a": "sampled optimal residual within 3Z at stage 1",
    "b": "stage-1 full objective within 8Z",
    "c": "resampled optimal residual within (1+eps)Z at stage 2",
    "d": "stage-2 vs stage-1 prediction drift within 12Z",
    "e": "final full objective within (1+7eps)Z",
}


def guarantee_statistics(inst, cfg, n_seeds, master_seed=0):
    """Empirical frequencies of the stagewise approximation guarantees.

    Runs two_stage_solve for n_seeds seeds derived from master_seed on
    one instance, so inst.basis and inst.optimum are each computed once,
    and records how often each of the events in GUARANTEE_LEGEND holds.
    Requires the instance to be small enough to solve exactly.  A run
    whose report failed raises StageFailureError.
    """
    if inst.is_generalized:
        raise InvalidConfigError("guarantee statistics expect a vector right-hand side")
    if n_seeds < 1:
        raise InvalidConfigError(f"guarantee statistics need n_seeds >= 1, got {n_seeds}")
    x_opt, Z = inst.optimum
    rho_opt = inst.A @ x_opt - inst.b
    pad = 1.0 + 1e-12

    def run(k):
        rep = two_stage_solve(inst, cfg, derive_seed(master_seed, f"seed:{k}"))
        if rep.status != "ok":
            raise StageFailureError(f"guarantee statistics, seed {k}: {rep.error}")
        st1, st2 = rep.stage1, rep.stage2
        ev_a = vec_p_norm(apply_plan(st1.plan, rho_opt), inst.p) <= 3.0 * Z * pad
        ev_b = st1.full_objective <= 8.0 * Z * pad
        ev_c = st2.plan is None or (
            vec_p_norm(apply_plan(st2.plan, rho_opt), inst.p) <= (1.0 + cfg.epsilon) * Z * pad
        )
        drift = vec_p_norm(inst.A @ (st2.x_hat - st1.x_hat), inst.p)
        ev_d = drift <= 12.0 * Z * pad
        ev_e = st2.full_objective <= (1.0 + 7.0 * cfg.epsilon) * Z * pad
        return {
            "events": (ev_a, ev_b, ev_c, ev_d, ev_e),
            "ratio2": _ratio(st2.full_objective, Z, inst.b_norm),
            "count1": st1.plan.actual_count,
            "count2": 0 if st2.plan is None else st2.plan.actual_count,
        }

    rows = [run(k) for k in range(n_seeds)]

    freqs = {
        key: sum(r["events"][i] for r in rows) / n_seeds
        for i, key in enumerate("abcde")
    }
    ratios2 = [r["ratio2"] for r in rows if r["ratio2"] is not None]
    return {
        "n_seeds": n_seeds,
        "p": inst.p,
        "epsilon": cfg.epsilon,
        "Z_exact": Z,
        "frequencies": freqs,
        "legend": GUARANTEE_LEGEND,
        "median_final_ratio": float(np.median(ratios2)) if ratios2 else None,
        "mean_stage1_count": float(np.mean([r["count1"] for r in rows])),
        "mean_stage2_count": float(np.mean([r["count2"] for r in rows])),
    }


def make_instance_arrays(
    n, d, noise_model="sparse-gross", corruption_rho=0.1, seed=0, design="gaussian"
):
    """Reference-family generator: planted x* = 1, rows by design.

    design "gaussian" draws i.i.d. unit normal rows.  "heavy-tailed" draws
    multivariate-t rows with _T_DOF degrees of freedom and covariance
    2 * 0.5^|i-j|, the T designs of Ma, Mahoney & Yu (arXiv:1306.5362):
    a few rows carry most of the leverage, so uniform row sampling misses
    them.  sparse-gross plants small dense noise plus floor(rho*n) rows
    corrupted by +-10*max|Ax*| (where l1 and l2 behavior visibly differ);
    gaussian is plain unit-variance dense noise.  Returns (A, b, meta).
    """
    if not (n > d >= 1):
        raise InvalidConfigError(f"need n > d >= 1, got n={n}, d={d}")
    if not (0.0 <= corruption_rho < 1.0):
        raise InvalidConfigError("corruption_rho must lie in [0, 1)")
    if design not in DESIGNS:
        raise InvalidConfigError(f"unknown design {design!r}")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
    if design == "heavy-tailed":
        i = np.arange(d)
        A = A @ np.linalg.cholesky(2.0 * 0.5 ** np.abs(i[:, None] - i[None, :])).T
        A /= np.sqrt(rng.chisquare(_T_DOF, n) / _T_DOF)[:, None]
    x_star = np.ones(d)
    ax = A @ x_star
    if noise_model == "gaussian":
        b = ax + rng.standard_normal(n)
        corrupted = np.array([], dtype=int)
    elif noise_model == "sparse-gross":
        b = ax + 0.01 * rng.standard_normal(n)
        k = int(math.floor(corruption_rho * n))
        corrupted = np.sort(rng.choice(n, size=k, replace=False))
        signs = rng.choice([-1.0, 1.0], size=k)
        b[corrupted] += signs * 10.0 * float(np.max(np.abs(ax)))
    else:
        raise InvalidConfigError(f"unknown noise model {noise_model!r}")
    meta = {
        "n": n,
        "d": d,
        "design": design,
        "noise_model": noise_model,
        "corruption_rho": corruption_rho,
        "seed": int(seed),
        "x_star": x_star.tolist(),
        "corrupted_rows": corrupted.tolist(),
    }
    return A, b, meta


def reference_instance(n=2000, d=4, p=1.0, corruption_rho=0.1, seed=0):
    """The in-code reference family as a ready RegressionInstance."""
    A, b, _ = make_instance_arrays(
        n, d, noise_model="sparse-gross", corruption_rho=corruption_rho, seed=seed
    )
    return RegressionInstance(A=A, b=b, p=float(p))
