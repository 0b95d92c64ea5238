"""lp regression subproblem solvers, p in [1, inf).

One solver covers all exponents: the p = 2 path is a direct QR
least-squares solve, everything else minimizes the smoothed objective
f = sum_i (rho_i^2 + mu^2)^(p/2) by damped Newton steps, driving mu down
a geometric continuation ladder.  Each step is one weighted least-squares
solve; a step is accepted by the Armijo test and a rung of the ladder
ends when the Newton decrement falls below a fixed share of f (Boyd &
Vandenberghe, Convex Optimization, 9.5), taking whole the step it has
just solved for.  The problem is internally
normalized by ||b||_p so tolerances and smoothing levels are scale-free.
The ladder's ends and the step cap on each rung are fixed constants
(_MU_FIRST, _MU_LAST, _MAX_ITERS).

Every least-squares solve, the p = 2 one, the warm start and each Newton
step, is one linalg.BlockedLstsq solve: a Householder QR of the augmented
system [A | b] in row blocks, whose m x m triangle goes to gelsy with
cond = DEFAULT_RANK_TOL, so gelsy's rank rule and minimum-norm answer
hold.  Its buffers and workspace sizes are made once per solve.  A Newton
step writes its weighted rows and right-hand side block by block straight
into the kernel's buffer, read from A when it is Fortran-ordered (a
RegressionInstance's A is) and else from one Fortran-ordered copy, and
sums the gradient from each block before the QR overwrites it.  Every
other product with A at p != 2 (residuals, line-search trials, the
gradient) reads that column-major A too, so a row-major A and its
column-major copy give bitwise the same result.  The caller's A and b
are never overwritten.  The first QR, of [A | b], also gives A's numeric
rank (SolveResult.rank), which the pipeline reads to reject a
rank-deficient sample.

At p = 2 the solve reads A twice: the QR pass, then one pass of
kernels.residual_pnorm that forms each row block's residual while the
block is in cache and sums from it the objective, the gradient
A^T (Ax - b) and A^T b, with no n-length array built.  No pass over A
exists only to validate it, at any p: the QR's block check finds a
non-finite entry of A or b (ValueError) and its R's rank 0 an all-zero A
(ZeroRankError).  A solve started from x0 makes no first QR, so its
first residual pass over A makes both checks block by block.
"""
import math
from dataclasses import dataclass

import numpy as np

from .errors import ZeroRankError
from .kernels import residual_pnorm, row_blocks, smoothed_power_weights
from .linalg import (
    BlockedLstsq,
    _as_1d,
    _as_2d,
    _check_exponent,
    _check_finite,
    as_vector,
    numeric_rank,
    vec_p_norm,
)
# the triangle solve of BlockedLstsq; tests pin it to scipy's gelsy
from .linalg import _lstsq  # noqa: F401

_MAX_HALVINGS = 40
# a rung of the mu ladder ends once the Newton decrement -grad.dx falls
# to this share of the smoothed objective
_DECREMENT_TOL = 2e-12
# sets the converged flag of a p = 2 solve
_GRAD_TOL = 1e-8
# ratio between successive rungs of the mu ladder
_SMOOTHING_SHRINK = 0.1
# cap on the Newton steps of one rung of the mu ladder at p != 2
_MAX_ITERS = 500
# first and last rung of the mu ladder, in units of ||b||_p / sqrt(n);
# p >= 2 runs the last rung alone
_MU_FIRST = 0.1
_MU_LAST = 1e-8


@dataclass(frozen=True, eq=False)
class SolveResult:
    """converged: at p != 2, the last rung of the mu ladder ended by the
    Newton decrement test; kkt_residual is the smoothed gradient norm at
    that rung's last point, relative to max(1, ||A^T b||) after
    normalizing b.  At p = 2, kkt_residual is ||A^T (Ax - b)|| relative
    to max(1, ||A^T b||), both read from the data A and b by the
    objective's blocked pass, not from the QR's R, so converged
    (kkt_residual <= _GRAD_TOL) checks the QR's answer.  rank: A's
    numeric rank, read by linalg's rank rule
    from the solver's first QR, of [A | b], so the rank costs no QR of
    its own; None when a solve at p != 2 starts from x0 and so makes no
    QR of [A | b]."""

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float
    rank: int | None


def _smoothed_objective(rho, mu, p, out=None):
    """sum_i (rho_i^2 + mu^2)^(p/2), worked out in out when it is given."""
    out = np.multiply(rho, rho, out=out)
    out += mu * mu
    out **= p / 2.0
    return float(np.sum(out))


def _smoothed_gradient(A, rho, mu, p):
    w = smoothed_power_weights(rho, mu, p)
    w *= rho
    return p * (A.T @ w)


def _residual(A, x, b, out):
    """A @ x - b, written into out."""
    np.matmul(A, x, out=out)
    out -= b
    return out


def _checked_residual(A, x, b, out):
    """A @ x - b written into out in the blocks of row_blocks, each bitwise
    that block of A @ x - b (see kernels._ROW_BLOCK), with A's checks made
    on each block while it is in cache: ValueError for a non-finite entry,
    ZeroRankError when every block is zero.  The first pass over A of a
    solve started from x0, which makes no QR of [A | b] to check A."""
    nonzero = False
    for blk in row_blocks(A.shape[0]):
        a = A[blk]
        _check_finite(a)
        nonzero = nonzero or bool(a.any())
        r = out[blk]
        np.matmul(a, x, out=r)
        r -= b[blk]
    if not nonzero:
        raise ZeroRankError("coefficient matrix is identically zero")


def _nonzero_rank(rank):
    """rank, a numeric rank of A; ZeroRankError when it is 0, for A is then
    identically zero."""
    if rank == 0:
        raise ZeroRankError("coefficient matrix is identically zero")
    return rank


def solve_lp_regression(A, b, p, x0=None):
    """Minimize ||Ax - b||_p.

    p = 2 solves in closed form and ignores x0; otherwise damped Newton on
    the smoothed objective with mu-continuation, started from x0 (m
    finite entries) or from the least-squares solution.  For p = 1 the
    minimizer may be any point of the optimal face; the objective is what
    is controlled.

    A non-finite entry of A or b raises ValueError and an all-zero A
    ZeroRankError, both before any result; the blocked passes that read
    A anyway make these checks (see the module docstring).
    """
    A = _as_2d(A)
    b = _as_1d(b)
    _check_exponent(p)
    n, m = A.shape
    if b.shape[0] != n:
        raise ValueError(f"A has {n} rows but b has {b.shape[0]} entries")
    if x0 is not None:
        try:
            x0 = as_vector(x0)
        except ValueError as exc:
            raise ValueError(f"x0: {exc}") from None
        if x0.shape[0] != m:
            raise ValueError(f"x0 has {x0.shape[0]} entries but A has {m} columns")

    ls = BlockedLstsq(n, m)
    if p == 2.0:
        x = ls.solve_rows(A, b)
        rank = _nonzero_rank(ls.rank())
        # columns A^T (Ax - b) and A^T b, summed by the residual's pass;
        # hypot's norms do not overflow where the squares of data near
        # 1e200 would
        at = np.zeros((m, 2))
        objective = residual_pnorm(A, x, b, 2.0, at=at)
        kkt = math.hypot(*at[:, 0]) / max(1.0, math.hypot(*at[:, 1]))
        return SolveResult(
            x=x,
            objective=objective,
            iterations=1,
            converged=kkt <= _GRAD_TOL,
            kkt_residual=kkt,
            rank=rank,
        )

    s = vec_p_norm(b, p)
    if not math.isfinite(s):
        # b holds inf or NaN, or its finite entries' norm overflowed
        as_vector(b)
    if s == 0.0:
        return SolveResult(
            x=np.zeros(m),
            objective=0.0,
            iterations=0,
            converged=True,
            kkt_residual=0.0,
            rank=_nonzero_rank(numeric_rank(A)),
        )
    bs = b / s

    mu_min = _MU_LAST / math.sqrt(n)
    if p >= 2.0:
        ladder = [mu_min]  # objective already smooth; no continuation needed
    else:
        ladder = [_MU_FIRST / math.sqrt(n)]
        while ladder[-1] > mu_min:
            ladder.append(max(ladder[-1] * _SMOOTHING_SHRINK, mu_min))

    # every product with A reads a column-major A: a copy made once per
    # solve (none if A is F-ordered already), which the weighted rows are
    # read from column by column
    AF = np.asfortranarray(A)
    # working arrays, allocated once per solve: allocating n-length arrays
    # afresh on every iteration costs minor page faults once glibc hands
    # the freed pages back to the system
    bw = np.empty(n)
    rho = np.empty(n)
    rho_try = np.empty(n)
    scratch = np.empty(n)
    grad = np.empty(m)

    if x0 is None:
        x = ls.solve_rows(AF, bs)
        rank = _nonzero_rank(ls.rank())
        _residual(AF, x, bs, rho)
    else:
        x, rank = x0 / s, None
        _checked_residual(AF, x, bs, rho)
    gscale = max(1.0, float(np.linalg.norm(AF.T @ bs)))
    best_x = x.copy()
    best_true = vec_p_norm(rho, p)

    def weighted_rows(blk, out):
        # row i is sqrt(phi''/p) a_i (scratch holds sqrt(phi''/p) when the
        # step solves) with right-hand side (phi'/p) / sqrt(phi''/p) in bw;
        # their products sum to A^T phi' / p
        np.multiply(AF[blk], scratch[blk, None], out=out[:, :m])
        out[:, m] = bw[blk]
        grad[:] += out[:, :m].T @ out[:, m]

    total_iters = 0
    for mu in ladder:
        # rho holds A x - bs throughout: each accepted step swaps in its
        # trial residual
        mu2 = mu * mu
        f = _smoothed_objective(rho, mu, p, scratch)
        converged = False
        for _ in range(_MAX_ITERS):
            total_iters += 1
            # phi' = p*r*w and phi'' = p*w*h/q with q = r^2 + mu^2,
            # w = q^((p-2)/2) and h = (p-1)*r^2 + mu^2, formed directly
            # because q - (2-p)*r^2 cancels to 0 at p = 1.  The Newton step
            # solves sqrt(phi'')*A dx = -phi'/sqrt(phi'') in least squares;
            # the common factor p cancels from it.
            sw = smoothed_power_weights(rho, mu, p)
            np.multiply(rho, rho, out=scratch)
            np.add(scratch, mu2, out=rho_try)
            scratch *= p - 1.0
            scratch += mu2
            scratch /= rho_try
            np.sqrt(scratch, out=scratch)  # sqrt(h/q)
            np.sqrt(sw, out=sw)
            np.multiply(rho, sw, out=bw)
            bw /= scratch  # (phi'/p) / sqrt(phi''/p)
            scratch *= sw  # sqrt(phi''/p)
            grad[:] = 0.0
            dx = -ls.solve(weighted_rows)
            decrement = -float((p * grad) @ dx)
            if decrement <= _DECREMENT_TOL * f:
                # the step is solved for already: taking it whole squares
                # the error the stop leaves, unless rounding makes f rise
                x_try = x + dx
                if _smoothed_objective(_residual(AF, x_try, bs, rho_try), mu, p, scratch) <= f:
                    x = x_try
                    rho, rho_try = rho_try, rho
                converged = True
                break
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                x_try = x + t * dx
                f_try = _smoothed_objective(_residual(AF, x_try, bs, rho_try), mu, p, scratch)
                if f_try <= f - 0.25 * t * decrement:
                    x, f = x_try, f_try
                    rho, rho_try = rho_try, rho
                    break
                t *= 0.5
            else:
                break
        true_obj = vec_p_norm(rho, p)
        if true_obj < best_true:
            best_true, best_x = true_obj, x.copy()
    kkt = float(np.linalg.norm(_smoothed_gradient(AF, rho, mu, p))) / gscale

    x_out = s * best_x
    return SolveResult(
        x=x_out,
        objective=vec_p_norm(AF @ x_out - b, p),
        iterations=total_iters,
        converged=converged,
        kkt_residual=kkt,
        rank=rank,
    )


def row_scaled(A, b, weights, p):
    """A and b (a vector or a matrix) with row i scaled by w_i^(1/p).

    The plain p-norm objective of the scaled problem is the weighted
    objective (sum_i w_i |rho_i|^p)^(1/p) of the original one, so every
    unweighted solver and sampler serves weighted problems through it.
    Unit weights leave A and b bitwise unchanged.
    """
    w = as_vector(weights)
    if w.shape != (A.shape[0],):
        raise ValueError("weights length does not match A")
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValueError("at least one weight must be positive")
    scale = w ** (1.0 / p)
    return A * scale[:, None], b * (scale[:, None] if b.ndim == 2 else scale)


def solve_multi_rhs(A, B, p):
    """Minimize the entrywise p-norm of AX - B, column by column.

    The objective decouples: |||AX - B|||_p^p is the sum over columns of
    ||A X_j - B_j||_p^p, so each column is an independent vector solve.
    """
    A = _as_2d(A)
    B = _as_2d(B)
    if B.shape[0] != A.shape[0]:
        raise ValueError("A and B row counts differ")
    return np.column_stack([res.x for res in _column_solves(A, B, p)])


def _column_solves(A, B, p):
    """The SolveResult of each column of B, in order."""
    return [solve_lp_regression(A, B[:, j], p) for j in range(B.shape[1])]
