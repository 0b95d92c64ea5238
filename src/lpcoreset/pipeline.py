"""Two-stage row-sampling solves with verifiable statistics.

Stage 1 samples rows by the p-norm leverage of a well-conditioned basis
and solves the sampled subproblem (a constant-factor approximation);
stage 2 resamples using the stage-1 residual and solves again (a
relative-error approximation).  two_stage_solve is the one entry point
for the paper's algorithm: a weighted instance is stored row-scaled by
w_i^(1/p), so it is a plain instance to every stage, and a matrix
right-hand side changes only the residual norm.  The single-stage
variants (oracle probabilities, augmented-matrix sampling) run on the
same machinery.  Each RegressionInstance keeps what every stage and
statistic of it shares: the QR of A, the well-conditioned basis and the
full problem's optimum, each made once; so neither A nor b may be
changed after construction.

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
from .linalg import (
    QRFactors,
    _qr_factors,
    as_matrix,
    as_vector,
    numeric_rank,
    vec_p_norm,
)
from .sampling import (
    apply_plan,
    oracle_probabilities,
    r1_default,
    r2_default,
    realize_sample,
    stage1_probabilities,
    stage2_probabilities,
)
from .solver import row_scaled, solve_lp_regression, solve_multi_rhs

_MASK64 = (1 << 64) - 1
_EXACT_CELL_CAP = 10**7
_ZERO_RESIDUAL_RTOL = 1e-12
_MAX_SAMPLE_ATTEMPTS = 6  # first try plus five derived-seed retries


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
    A is factored once, at construction: factors is its thin QR (see
    linalg.qr_thin) and d = factors.rank its numeric rank.  basis (A's
    well-conditioned basis, conditioned from factors) and optimum (the
    full problem's (x, objective)) are computed on first use and then
    kept, so every solve and statistic of the instance shares them.  The
    instance holds Q (and, once conditioned at p != 2, U), n x d doubles
    each, and neither A nor b may be changed after construction.
    """

    A: np.ndarray
    b: np.ndarray
    p: float
    weights: np.ndarray | None = None
    d: int = field(init=False)
    factors: QRFactors = field(init=False, repr=False)

    def __post_init__(self):
        self.A = as_matrix(self.A)
        self.b = as_matrix(self.b) if np.ndim(self.b) == 2 else as_vector(self.b)
        if self.b.shape[0] != self.A.shape[0]:
            raise ValueError("A and b row counts differ")
        if not (self.p >= 1.0):
            raise InvalidConfigError(f"p must be >= 1, got {self.p}")
        if self.weights is not None:
            self.weights = as_vector(self.weights)
            self.A, self.b = row_scaled(self.A, self.b, self.weights, self.p)
        try:
            self.factors = _qr_factors(self.A)
        except ZeroRankError:
            raise InvalidConfigError("A must have numeric rank >= 1") from None
        self.d = self.factors.rank

    @cached_property
    def basis(self):
        return well_conditioned_basis(self.A, self.p, factors=self.factors)

    @cached_property
    def optimum(self):
        return _solve_subproblem(self.A, self.b, self.p)

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
    and its residual/objective evaluated on the full data."""

    stage: int
    plan: object
    x_hat: np.ndarray
    residual: np.ndarray
    sampled_objective: float
    full_objective: float
    exact_passthrough: bool = False
    attempts: int = 1


@dataclass(eq=False)
class SolveReport:
    """End-to-end record of one pipeline run."""

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
    approx_ratio: float | None = None
    timings_ms: dict = field(default_factory=dict)
    config: dict = field(default_factory=dict)
    status: str = "ok"
    error: str | None = None

    @property
    def final_objective(self):
        out = self.stage2 if self.stage2 is not None else self.stage1
        return None if out is None else out.full_objective


def _solve_subproblem(SA, Sb, p):
    if Sb.ndim == 2:
        X = solve_multi_rhs(SA, Sb, p)
        return X, vec_p_norm(SA @ X - Sb, p)
    res = solve_lp_regression(SA, Sb, p)
    return res.x, res.objective


def _sample_and_solve(inst, probs, stage, seed):
    """Realize a plan (retrying on rank-deficient samples), solve it, and
    evaluate the solution on the full data."""
    diag = {"stage": stage, "seed": int(seed), "attempts": []}
    for attempt in range(_MAX_SAMPLE_ATTEMPTS):
        plan_seed = seed if attempt == 0 else derive_seed(seed, f"retry:{attempt}")
        plan = realize_sample(probs, inst.p, plan_seed)
        if plan.actual_count < inst.d:
            diag["attempts"].append({"count": plan.actual_count, "rank": 0})
            continue
        SA, Sb = apply_plan(plan, inst.A, inst.b)
        rank = numeric_rank(SA)
        if rank < inst.d:
            diag["attempts"].append({"count": plan.actual_count, "rank": rank})
            continue
        x, sampled_obj = _solve_subproblem(SA, Sb, inst.p)
        residual = inst.A @ x
        residual -= inst.b
        return StageOutcome(
            stage=stage,
            plan=plan,
            x_hat=x,
            residual=residual,
            sampled_objective=sampled_obj,
            full_objective=vec_p_norm(residual, inst.p),
            attempts=attempt + 1,
        )
    raise StageFailureError(
        f"stage {stage}: sampled matrix rank-deficient after "
        f"{_MAX_SAMPLE_ATTEMPTS} attempts (need rank {inst.d})",
        diagnostics=diag,
    )


def stage_one(inst, cfg, seed):
    """Leverage-based sampling stage at size r1 on inst.basis.

    The min(1, .) clamp already bounds every probability, so oversized r1
    (the default formula at desk scale) degenerates to full sampling.
    """
    probs = stage1_probabilities(inst.basis, r1_default(cfg))
    return _sample_and_solve(inst, probs, 1, seed)


def stage_two(inst, stage1_out, cfg, seed):
    """Residual-refined resampling stage at size r2 (capped at n).

    A stage-1 objective at most 1e-12 ||b||_p short-circuits: the stage-1
    solution is already exact and no sampling is performed.
    """
    rho = stage1_out.residual
    threshold = _ZERO_RESIDUAL_RTOL * vec_p_norm(inst.b, inst.p)
    if stage1_out.full_objective <= threshold:
        return StageOutcome(
            stage=2,
            plan=None,
            x_hat=stage1_out.x_hat,
            residual=rho,
            sampled_objective=stage1_out.full_objective,
            full_objective=stage1_out.full_objective,
            exact_passthrough=True,
        )
    r2 = r2_default(cfg, strict=False)
    probs = stage2_probabilities(stage1_out.plan.probs, rho, inst.p, r2)
    return _sample_and_solve(inst, probs, 2, seed)


def _exact_objective(inst):
    """The full problem's optimum, or None above _EXACT_CELL_CAP cells."""
    cols = inst.b.shape[1] if inst.is_generalized else 1
    if inst.n * inst.m * cols > _EXACT_CELL_CAP:
        return None
    return inst.optimum[1]


def _ratio(final_obj, Z):
    if Z is None:
        return None
    if Z > 0.0:
        return final_obj / Z
    return 1.0 if final_obj <= _ZERO_RESIDUAL_RTOL else None


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
            Z = _exact_objective(inst)
        if Z is not None:
            report.Z_exact = Z
            report.approx_ratio = _ratio(out.full_objective, Z)
    return report


def _one_shot(inst, probabilities):
    """A single-stage step: sample by probabilities() and solve."""
    return lambda _, seed: _sample_and_solve(inst, probabilities(), 1, seed)


def two_stage_solve(inst, cfg, seed, compute_exact=False, stages=2):
    """Run the sampling pipeline end to end and assemble a report.

    Serves vector and matrix right-hand sides and weighted instances
    alike; config["variant"] names which ("weighted", "generalized" or
    "two-stage").  stages=1 stops after the constant-factor stage.  Both
    stages sample from inst.basis, so only an instance's first run
    conditions A.  compute_exact adds inst.optimum's objective and the
    approximation ratio when the instance is small enough
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
        ("stage1", lambda _, s: stage_one(inst, cfg, s)),
        ("stage2", lambda st1, s: stage_two(inst, st1, cfg, s)),
    ]
    return _run_stages(report, inst, seed, steps[:stages], compute_exact)


def single_stage_oracle_solve(inst, x_ref, cfg, r, seed, compute_exact=False):
    """One-shot sampling from reference-solution probabilities.

    x_ref is a reference solution; its residual and norm feed the
    combined leverage/residual probabilities on inst.basis.  x_ref=None
    takes inst.optimum's minimizer, the same optimum compute_exact reads.
    """
    if inst.is_generalized:
        raise InvalidConfigError("oracle sampling expects a vector right-hand side")
    report = _base_report(inst, cfg, seed, "oracle", {"r": float(r)})
    if x_ref is None:
        x_ref = inst.optimum[0]
    rho_ref = inst.A @ np.asarray(x_ref, dtype=np.float64) - inst.b
    Z_ref = vec_p_norm(rho_ref, inst.p)
    with _timed(report, "conditioning"):
        basis = inst.basis
    step = _one_shot(inst, lambda: oracle_probabilities(basis, rho_ref, Z_ref, float(r)))
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
    step = _one_shot(inst, lambda: stage1_probabilities(basis, float(r)))
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
            "ratio2": _ratio(st2.full_objective, Z),
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


def make_instance_arrays(n, d, noise_model="sparse-gross", corruption_rho=0.1, seed=0):
    """Reference-family generator: Gaussian design, planted x* = 1.

    sparse-gross plants small dense noise plus floor(rho*n) rows corrupted
    by +-10*max|Ax*| (where l1 and l2 behavior visibly differ); gaussian
    is plain unit-variance dense noise.  Returns (A, b, meta).
    """
    if not (n > d >= 1):
        raise InvalidConfigError(f"need n > d >= 1, got n={n}, d={d}")
    if not (0.0 <= corruption_rho < 1.0):
        raise InvalidConfigError("corruption_rho must lie in [0, 1)")
    rng = np.random.default_rng(seed)
    A = rng.standard_normal((n, d))
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
        "noise_model": noise_model,
        "corruption_rho": corruption_rho,
        "seed": int(seed),
        "x_star": x_star.tolist(),
        "corrupted_rows": [int(i) for i in corrupted],
    }
    return A, b, meta


def reference_instance(n=2000, d=4, p=1.0, corruption_rho=0.1, seed=0):
    """The in-code reference family as a ready RegressionInstance."""
    A, b, _ = make_instance_arrays(
        n, d, noise_model="sparse-gross", corruption_rho=corruption_rho, seed=seed
    )
    return RegressionInstance(A=A, b=b, p=float(p))
