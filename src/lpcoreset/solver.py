"""lp regression subproblem solver, p in [1, inf).

One solver covers all exponents and both shapes of right-hand side: a
matrix b is solved one column at a time.  The p = 2 path is a direct QR
least-squares solve, everything else minimizes the smoothed objective
f = sum_i (rho_i^2 + mu^2)^(p/2) by damped Newton steps, driving mu down
a geometric continuation ladder.  Each step is one weighted least-squares
solve; a step is accepted by the Armijo test and a rung of the ladder
ends when the Newton decrement falls below a share of f (Boyd &
Vandenberghe, Convex Optimization, 9.5), taking whole the step it has
just solved for.  The problem is internally
normalized by ||b||_p so tolerances and smoothing levels are scale-free.
The ladder's ends and the step cap on each rung are fixed constants
(_MU_FIRST, _MU_LAST, _MAX_ITERS).  Below p = 2 the ladder has 8 rungs,
mu = 0.1 down to 1e-8 in units of ||b||_p / sqrt(n), the last exactly
_MU_LAST; only the last rung's point is returned, the point converged
describes, so only the last rung stops at _DECREMENT_TOL, and every
other rung is a centering step that stops once the decrement falls to
mu * sqrt(n) times f, its own smoothing in those units (Boyd &
Vandenberghe, 11.3).  p >= 2 runs the last rung alone (_mu_ladder).
The Newton steps' gradient is the only gradient formed at p != 2, and
no KKT residual is reported there.

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
objective) reads that column-major A too, so a row-major A and its
column-major copy give bitwise the same result.  The caller's A and b
are never overwritten.  The first QR, of [A | b], also gives A's numeric
rank (SolveResult.rank), which the pipeline reads to reject a
rank-deficient sample; a zero b, whose answer is 0, makes that QR for
the rank alone.

Every objective a solve returns, at any p and for a vector or a matrix
b, is one pass of kernels.residual_pnorm, which forms each row block's
residual while the block is in cache and sums its powers, with no
n-length array built.  At p = 2 the solve reads A twice: the QR pass,
then that pass, which also sums the gradient A^T (Ax - b) and A^T b.
No pass over A exists only to validate it, at any p: the QR's block
check finds a non-finite entry of A or b (ValueError) and its R's rank
0 an all-zero A (ZeroRankError).  A solve started from x0 with a
nonzero b makes no first QR, so its first residual pass over A makes
both checks block by block.
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
    vec_p_norm,
)
# the triangle solve of BlockedLstsq; tests pin it to scipy's gelsy
from .linalg import _lstsq  # noqa: F401

_MAX_HALVINGS = 40
# the last rung of the mu ladder ends once the Newton decrement -grad.dx
# falls to this share of the smoothed objective
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
    """x: at p != 2, the point where the last rung of the mu ladder
    ended; converged: that rung ended by the Newton decrement test.
    objective: ||Ax - b||_p of the returned x, from one residual_pnorm
    pass.  kkt_residual: p = 2 only, None at p != 2; it is
    ||A^T (Ax - b)|| relative to max(1, ||A^T b||), both read from the
    data A and b by the objective's blocked pass, not from the QR's R,
    so converged (kkt_residual <= _GRAD_TOL) checks the QR's answer.
    rank: A's numeric rank, read by linalg's rank rule from the solver's
    first QR, of [A | b], so the rank costs no QR of its own; None when a
    solve at p != 2 with a nonzero b starts from x0 and so makes no QR of
    [A | b]."""

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float | None
    rank: int | None


def _smoothed_objective(rho, mu, p, out=None):
    """sum_i (rho_i^2 + mu^2)^(p/2), worked out in out when it is given."""
    out = np.multiply(rho, rho, out=out)
    out += mu * mu
    out **= p / 2.0
    return float(np.sum(out))


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


def _mu_ladder(n, p):
    """The rungs (mu, stop) of the smoothing ladder, in order: a rung ends
    once the Newton decrement falls to stop * f (see the module
    docstring).  p >= 2 runs the last rung alone, for its objective is
    smooth already."""
    root = math.sqrt(n)
    rungs = []
    if p < 2.0:
        # the rung count is rounded, since 0.1 * 0.1**7 is a hair above 1e-8
        mu = _MU_FIRST / root
        for _ in range(round(math.log(_MU_LAST / _MU_FIRST, _SMOOTHING_SHRINK))):
            rungs.append((mu, mu * root))
            mu *= _SMOOTHING_SHRINK
    rungs.append((_MU_LAST / root, _DECREMENT_TOL))
    return rungs


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

    A matrix b is solved column by column, since |||AX - B|||_p^p is the
    sum over columns of ||A X_j - B_j||_p^p, and x0 goes only with a
    vector b.  The result joins the column solves: X, the entrywise
    objective, the first column's rank, the summed Newton steps, the and
    of the converged flags and, at p = 2, the largest kkt_residual.
    """
    A = _as_2d(A)
    if np.ndim(b) == 2:
        if x0 is not None:
            raise ValueError("x0 goes only with a vector b")
        b = _as_2d(b)
        cols = [solve_lp_regression(A, b[:, j], p) for j in range(b.shape[1])]
        X = np.column_stack([res.x for res in cols])
        return SolveResult(
            x=X,
            objective=residual_pnorm(A, X, b, p)[0],
            iterations=sum(res.iterations for res in cols),
            converged=all(res.converged for res in cols),
            kkt_residual=max(res.kkt_residual for res in cols) if p == 2.0 else None,
            rank=cols[0].rank,
        )
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
        objective, _ = residual_pnorm(A, x, b, 2.0, at=at)
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
        ls.solve_rows(A, b)
        return SolveResult(
            x=np.zeros(m),
            objective=0.0,
            iterations=0,
            converged=True,
            kkt_residual=None,
            rank=_nonzero_rank(ls.rank()),
        )
    bs = b / s

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
    sw = np.empty(n)
    grad = np.empty(m)

    if x0 is None:
        x = ls.solve_rows(AF, bs)
        rank = _nonzero_rank(ls.rank())
        _residual(AF, x, bs, rho)
    else:
        x, rank = x0 / s, None
        _checked_residual(AF, x, bs, rho)

    def weighted_rows(blk, out):
        # row i is sqrt(phi''/p) a_i (scratch holds sqrt(phi''/p) when the
        # step solves) with right-hand side (phi'/p) / sqrt(phi''/p) in bw;
        # their products sum to A^T phi' / p
        np.multiply(AF[blk], scratch[blk, None], out=out[:, :m])
        out[:, m] = bw[blk]
        grad[:] += out[:, :m].T @ out[:, m]

    total_iters = 0
    for mu, stop in _mu_ladder(n, p):
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
            smoothed_power_weights(rho, mu, p, out=sw)
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
            if decrement <= stop * f:
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

    x = s * x
    return SolveResult(
        x=x,
        objective=residual_pnorm(AF, x, b, p)[0],
        iterations=total_iters,
        converged=converged,
        kkt_residual=None,
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
