"""Row-sampling probabilities and realized diagonal sampling operators.

Row i is kept independently with probability p_i and, when kept, its row
(and right-hand-side entry) is rescaled by p_i^(-1/p), which makes
||S A x||_p^p an unbiased estimator of ||A x||_p^p.  Draws come from a
counter-based generator keyed by (seed, row), so plans are reproducible
and the draw at row i never depends on the probability at row j.

Stage 1 reads the basis's leverage, the row shares
||u_i||_p^p / |||U|||_p^p that well_conditioned_basis computes once per
basis, so its probabilities are one pass over an n-vector.  Stage 2 takes
the p-th powers of the stage-1 residual with kernels.row_powsums and
mixes them with the stage-1 probabilities in one clip pass, and a
plan's draws are compared with their probabilities chunk by chunk as the
counter stream is mixed.
"""
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidConfigError
from .kernels import counter_bernoulli, powsum_shares, row_powsums
# kept only as bindings that perfbench's tracer counts kernel calls at;
# no code of this module calls them
from .kernels import counter_uniforms, powsum_ratios, row_pnorms

EPSILON_GUARANTEE_LIMIT = 1.0 / 7.0


@dataclass(frozen=True)
class SamplerConfig:
    """Exponent, rank, and target-accuracy knobs for the sample-size formulas.

    k = max(p/2 + 1, p) drives the d-dependence of both stage sizes.
    epsilon may exceed 1/7 for experiments, but the relative-error
    guarantee regime (and the strict form of the stage-2 formula) requires
    epsilon < 1/7.  r1_scale/r2_scale are oversampling multipliers applied
    to the theoretical sizes, which are astronomically large at desk scale.
    The failure probability is not a setting: the ln 200 terms of both
    formulas fix it.
    """

    p: float
    d: int
    epsilon: float = 0.1
    r1_scale: float = 1.0
    r2_scale: float = 1.0

    def __post_init__(self):
        if not (self.p >= 1.0):
            raise InvalidConfigError(f"p must be >= 1, got {self.p}")
        if self.d < 1:
            raise InvalidConfigError(f"d must be >= 1, got {self.d}")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if self.r1_scale < 0.0 or self.r2_scale < 0.0:
            raise InvalidConfigError("scale multipliers must be nonnegative")

    @property
    def k(self):
        return max(self.p / 2.0 + 1.0, self.p)


def r1_default(cfg):
    """Stage-1 sample-size formula: 8^2 * 36^p * d^k * (d ln(288) + ln 200)."""
    return (
        cfg.r1_scale
        * 64.0
        * 36.0**cfg.p
        * float(cfg.d) ** cfg.k
        * (cfg.d * math.log(288.0) + math.log(200.0))
    )


def r2_default(cfg, strict=True):
    """Stage-2 formula: 36^p * d^k * (d ln(36/eps) + ln 200) / eps^2.

    With strict=True (the guarantee regime) epsilon >= 1/7 is rejected;
    experiment drivers pass strict=False to evaluate the same formula at
    larger epsilon.
    """
    if strict and cfg.epsilon >= EPSILON_GUARANTEE_LIMIT:
        raise InvalidConfigError(
            f"epsilon must be < 1/7 in the guarantee regime, got {cfg.epsilon}"
        )
    return (
        cfg.r2_scale
        * 36.0**cfg.p
        * float(cfg.d) ** cfg.k
        * (cfg.d * math.log(36.0 / cfg.epsilon) + math.log(200.0))
        / cfg.epsilon**2
    )


@dataclass(frozen=True, eq=False)
class SamplingPlan:
    """A realized Bernoulli row sample.

    scales[j] = probs[realized_indices[j]]^(-1/p); rows with probability 1
    are always present.
    """

    probs: np.ndarray
    realized_indices: np.ndarray
    scales: np.ndarray
    seed: int
    expected_count: float
    actual_count: int
    p: float = field(default=2.0)

    def __len__(self):
        return self.probs.shape[0]


def stage1_probabilities(basis, r1):
    """p_i = min(1, r1 * ||row_i(U)||_p^p / |||U|||_p^p); zero rows get 0.

    The shares are basis.leverage, kept with the basis, so this is one
    pass over an n-vector.
    """
    if r1 < 0.0:
        raise ValueError("r1 must be nonnegative")
    probs = np.multiply(basis.leverage, r1)
    return np.minimum(probs, 1.0, out=probs)


def stage2_probabilities(p1, residual, p, r2):
    """q_i = min(1, max(p_i, r2 * |rho_i|^p / ||rho||_p^p)).

    residual may be a matrix, in which case the row sums of |rho_ij|^p
    replace |rho_i|^p (the multi-column generalization); the
    single-column case reduces bitwise to the vector case.  A zero
    residual is a caller contract violation (the pipeline short-circuits
    it first).
    """
    p1 = np.asarray(p1, dtype=np.float64)
    rho = np.asarray(residual, dtype=np.float64)
    rho = rho.reshape(rho.shape[0], -1)
    sums = row_powsums(rho, p)
    if sums.max(initial=0.0) <= 0.0 and not np.any(rho):
        raise ValueError("stage-2 probabilities are undefined for a zero residual")
    q = powsum_shares(rho, p, sums, r2)
    return np.clip(q, p1, 1.0, out=q)


def oracle_probabilities(basis, rho_opt, Z, r):
    """Single-stage probabilities mixing leverage and optimal-residual mass.

    p_i = min(1, max(||row_i(U)||_p^p / |||U|||_p^p, |rho_i|^p / Z^p) * r),
    with the 0/0 = 0 convention: Z = 0 drops the residual term entirely.
    """
    if Z < 0.0:
        raise ValueError("Z must be nonnegative")
    lev = basis.leverage
    if Z == 0.0:
        combined = lev
    else:
        mags = np.abs(np.asarray(rho_opt, dtype=np.float64))
        with np.errstate(over="ignore"):
            res = (mags / Z) ** basis.p
        combined = np.maximum(lev, res)
    return np.minimum(1.0, combined * r)


def realize_sample(probs, p, seed):
    """Independent Bernoulli draws at the given probabilities.

    Deterministic in (probs, seed); the draw at row i is a pure function
    of (seed, i).
    """
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("probs must be a vector")
    # NaN fails both comparisons, since min and max propagate it
    if not (probs.min(initial=0.0) >= 0.0 and probs.max(initial=1.0) <= 1.0):
        raise ValueError("probabilities must lie in [0, 1]")
    idx = counter_bernoulli(int(seed), probs)
    scales = probs[idx] ** (-1.0 / p)
    return SamplingPlan(
        probs=probs,
        realized_indices=idx,
        scales=scales,
        seed=int(seed),
        expected_count=float(probs.sum()),
        actual_count=int(idx.shape[0]),
        p=float(p),
    )


def apply_plan(plan, M, v=None):
    """Extract and rescale the realized rows; never materializes n x n.

    M may be a matrix or a vector; v (vector or matrix) is transformed
    alongside when given.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] != len(plan):
        raise ValueError(
            f"plan built for {len(plan)} rows, got {M.shape[0]}"
        )
    idx = plan.realized_indices
    SM = M[idx] * (plan.scales[:, None] if M.ndim == 2 else plan.scales)
    if v is None:
        return SM
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != len(plan):
        raise ValueError("right-hand side length does not match the plan")
    Sv = v[idx] * (plan.scales[:, None] if v.ndim == 2 else plan.scales)
    return SM, Sv
