"""Row-sampling probabilities and realized diagonal sampling operators.

Row i is kept independently with probability p_i and, when kept, its row
(and right-hand-side entry) is rescaled by p_i^(-1/p), which makes
||S A x||_p^p an unbiased estimator of ||A x||_p^p.  Draws come from a
counter-based generator keyed by (seed, row), so plans are reproducible
and the draw at row i never depends on the probability at row j.

Each stage's probabilities are a chunk rule (kernels.ChunkRule), the
one form of a sampling probability, formed a block of rows of
kernels.row_blocks at a time inside the loop that draws against them
(kernels.counter_bernoulli), so no stage makes an n-length array of
probabilities.  Stage 1's rule scales the basis's leverage, the row
shares ||u_i||_p^p / |||U|||_p^p that well_conditioned_basis computes
once per basis.  Stage 2's rule forms each block's p-th power row sums
of the stage-1 residual, divides them by the total that the residual's
own pass summed, and takes the max with stage 1's rule
(kernels.ClippedShares), so it makes no pass over the residual of its
own.  The oracle variant's probabilities are these two rules with a
reference residual in place of stage 1's.  A plan keeps its rule, and
its scales are formed from the probabilities of its realized rows; all
n probabilities are formed, by the rule's whole(), when first read.
realize_sample and stage2_rule's floor also take a caller's n-vector,
which is checked chunk by chunk.
"""
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import InvalidConfigError
from .kernels import ArrayRule, ChunkRule, ClippedShares, ScaledShares, counter_bernoulli
from .linalg import _check_exponent
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
        _check_exponent(self.p)
        if self.d < 1:
            raise InvalidConfigError(f"d must be >= 1, got {self.d}")
        if not (0.0 < self.epsilon < 1.0):
            raise InvalidConfigError(f"epsilon must lie in (0, 1), got {self.epsilon}")
        if not all(0.0 <= c < math.inf for c in (self.r1_scale, self.r2_scale)):
            raise InvalidConfigError("scale multipliers must be nonnegative and finite")

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
    """A realized Bernoulli row sample of n rows, drawn against rule.

    scales[j] = q^(-1/p), where q is the probability of row
    realized_indices[j]; rows with probability 1 are always present.
    probs, the probabilities of all n rows, is formed from the rule when
    first read, and only then kept.
    """

    n: int
    rule: ChunkRule = field(repr=False)
    realized_indices: np.ndarray
    scales: np.ndarray
    seed: int
    expected_count: float
    actual_count: int
    p: float = field(default=2.0)

    def __len__(self):
        return self.n

    @cached_property
    def probs(self):
        return self.rule.whole()


def stage1_rule(basis, r1):
    """The chunk rule p_i = min(1, r1 * ||row_i(U)||_p^p / |||U|||_p^p);
    zero rows get 0.  The shares are basis.leverage, kept with the basis."""
    if r1 < 0.0:
        raise ValueError("r1 must be nonnegative")
    return ScaledShares(basis.leverage, r1)


def stage2_rule(floor, residual, p, r2, total):
    """The chunk rule q_i = min(1, max(p_i, r2 * |rho_i|^p / ||rho||_p^p)),
    with p_i from floor, a chunk rule or an n-vector, and total =
    ||rho||_p^p, the unscaled sum of |rho|^p that the residual's own pass
    added (kernels.residual_pnorm), so the rule makes no pass over rho.

    residual may be a matrix, in which case the row sums of |rho_ij|^p
    replace |rho_i|^p (the multi-column generalization); the
    single-column case reduces bitwise to the vector case.  A zero
    residual is a caller contract violation (ValueError; the pipeline
    short-circuits it first).
    """
    return ClippedShares(residual, p, r2, _as_rule(floor), total)


def _as_rule(probs):
    """probs itself if it is a ChunkRule, else a checked kernels.ArrayRule
    over the vector probs."""
    if isinstance(probs, ChunkRule):
        return probs
    probs = np.asarray(probs, dtype=np.float64)
    if probs.ndim != 1:
        raise ValueError("probs must be a vector")
    return ArrayRule(probs)


def realize_sample(probs, p, seed):
    """Independent Bernoulli draws at the given probabilities: a chunk
    rule (stage1_rule, stage2_rule) or an n-vector.

    Deterministic in (probabilities, seed); the draw at row i is a pure
    function of (seed, i).  kernels.counter_bernoulli forms each chunk's
    probabilities just before its draws and sums the expected count as it
    goes.  A probability that is NaN or outside [0, 1] raises ValueError.
    """
    rule = _as_rule(probs)
    idx, kept, expected = counter_bernoulli(int(seed), rule)
    return SamplingPlan(
        n=len(rule),
        rule=rule,
        realized_indices=idx,
        scales=kept ** (-1.0 / p),
        seed=int(seed),
        expected_count=expected,
        actual_count=int(idx.shape[0]),
        p=float(p),
    )


def apply_plan(plan, M, v=None):
    """Extract and rescale the realized rows; never materializes n x n.

    M may be a matrix or a vector; v (vector or matrix) is transformed
    alongside when given.  A column-major M, as a RegressionInstance's A,
    gives column-major rows, so that a plan keeping every row at scale 1
    hands the solver the very array, layout included, of the full solve.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.shape[0] != len(plan):
        raise ValueError(
            f"plan built for {len(plan)} rows, got {M.shape[0]}"
        )
    idx = plan.realized_indices
    if M.ndim == 2:
        # gathered straight into the layout of M: a column-major M's rows
        # are taken along the columns of its row-major transpose
        SM = np.take(M.T, idx, axis=1).T if M.flags.f_contiguous else M[idx]
        SM *= plan.scales[:, None]
    else:
        SM = M[idx] * plan.scales
    if v is None:
        return SM
    v = np.asarray(v, dtype=np.float64)
    if v.shape[0] != len(plan):
        raise ValueError("right-hand side length does not match the plan")
    Sv = v[idx] * (plan.scales[:, None] if v.ndim == 2 else plan.scales)
    return SM, Sv
