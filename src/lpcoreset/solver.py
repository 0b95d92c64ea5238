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
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ZeroRankError
from .kernels import smoothed_power_weights
from .linalg import DEFAULT_RANK_TOL, as_matrix, as_vector, vec_p_norm, _check_exponent

_MAX_HALVINGS = 40
# a rung of the mu ladder ends once the Newton decrement -grad.dx falls
# to this share of the smoothed objective
_DECREMENT_TOL = 2e-12
# sets the converged flag of a p = 2 solve and the stall test of
# solve_constrained
_GRAD_TOL = 1e-8
# ratio between successive rungs of the mu ladder
_SMOOTHING_SHRINK = 0.1


@dataclass(frozen=True)
class SolverOptions:
    """Iteration and smoothing knobs.

    At p != 2, max_iters caps the Newton steps on each rung of the mu
    ladder, which runs from smoothing_mu0 down to mu_min by factors of 10
    (one rung at mu_min for p > 2); a rung ends by the Newton decrement
    test.  smoothing_mu0 / mu_min default to 0.1*||b||_p/sqrt(n) and
    1e-8*||b||_p/sqrt(n) when None.
    """

    max_iters: int = 500
    smoothing_mu0: float | None = None
    mu_min: float | None = None

    def __post_init__(self):
        if self.max_iters < 1:
            raise ValueError("max_iters must be positive")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class SolveResult:
    """converged: at p != 2, the last rung of the mu ladder ended by the
    Newton decrement test; kkt_residual is the smoothed gradient norm at
    that rung's last point, relative to max(1, ||A^T b||) after
    normalizing b."""

    x: np.ndarray
    objective: float
    iterations: int
    converged: bool
    kkt_residual: float


def _residual_subgradient(rho, p):
    """Subgradient of ||rho||_p with respect to rho (zero at p=1 kinks)."""
    nrm = vec_p_norm(rho, p)
    if nrm == 0.0:
        return np.zeros_like(rho)
    if p == 1.0:
        return np.sign(rho)
    return np.sign(rho) * (np.abs(rho) / nrm) ** (p - 1.0)


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


def _lstsq(A, b, check_finite=False):
    """Least squares by gelsy.  Callers pass arrays that as_matrix and
    as_vector have validated; the Newton steps, whose weights are
    computed, ask for scipy's finiteness check."""
    x, _, _, _ = scipy.linalg.lstsq(
        A, b, cond=DEFAULT_RANK_TOL, lapack_driver="gelsy", check_finite=check_finite
    )
    return x


def solve_lp_regression(A, b, p, opts=DEFAULT_OPTIONS, x0=None):
    """Minimize ||Ax - b||_p.

    p = 2 solves in closed form; otherwise damped Newton on the smoothed
    objective with mu-continuation.  For p = 1 the minimizer may be any
    point of the optimal face; the objective is what is controlled.
    """
    A = as_matrix(A)
    b = as_vector(b)
    _check_exponent(p)
    n, m = A.shape
    if b.shape[0] != n:
        raise ValueError(f"A has {n} rows but b has {b.shape[0]} entries")
    if not A.any():
        raise ZeroRankError("coefficient matrix is identically zero")

    if p == 2.0:
        x = _lstsq(A, b)
        rho = A @ x - b
        grad = A.T @ rho
        scale = max(1.0, float(np.linalg.norm(A.T @ b)))
        kkt = float(np.linalg.norm(grad)) / scale
        return SolveResult(
            x=x,
            objective=vec_p_norm(rho, 2.0),
            iterations=1,
            converged=kkt <= _GRAD_TOL,
            kkt_residual=kkt,
        )

    s = vec_p_norm(b, p)
    if s == 0.0:
        return SolveResult(
            x=np.zeros(m), objective=0.0, iterations=0, converged=True, kkt_residual=0.0
        )
    bs = b / s
    gscale = max(1.0, float(np.linalg.norm(A.T @ bs)))

    mu0 = opts.smoothing_mu0 / s if opts.smoothing_mu0 is not None else 0.1 / math.sqrt(n)
    mu_min = opts.mu_min / s if opts.mu_min is not None else 1e-8 / math.sqrt(n)
    mu_min = max(mu_min, 1e-300)
    if p >= 2.0:
        ladder = [mu_min]  # objective already smooth; no continuation needed
    else:
        ladder = [mu0]
        while ladder[-1] > mu_min:
            ladder.append(max(ladder[-1] * _SMOOTHING_SHRINK, mu_min))

    x = x0 / s if x0 is not None else _lstsq(A, bs)
    x = np.asarray(x, dtype=np.float64)
    best_x = x.copy()
    best_true = vec_p_norm(A @ x - bs, p)

    # working arrays, allocated once per solve: allocating them afresh on
    # every iteration costs ~380 minor page faults per iteration at
    # 20,000 x 8 once glibc hands the freed pages back to the system
    Aw = np.empty((n, m), order="F")
    bw = np.empty(n)
    rho = np.empty(n)
    rho_try = np.empty(n)
    scratch = np.empty(n)

    total_iters = 0
    for mu in ladder:
        mu2 = mu * mu
        _residual(A, x, bs, rho)
        f = _smoothed_objective(rho, mu, p, scratch)
        converged = False
        for _ in range(opts.max_iters):
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
            np.multiply(A, scratch[:, None], out=Aw)
            grad = p * (Aw.T @ bw)  # A^T phi'
            dx = -_lstsq(Aw, bw, check_finite=True)
            decrement = -float(grad @ dx)
            if decrement <= _DECREMENT_TOL * f:
                # the step is solved for already: taking it whole squares
                # the error the stop leaves, unless rounding makes f rise
                x_try = x + dx
                if _smoothed_objective(_residual(A, x_try, bs, rho_try), mu, p, scratch) <= f:
                    x = x_try
                    rho, rho_try = rho_try, rho
                converged = True
                break
            t = 1.0
            for _ in range(_MAX_HALVINGS):
                x_try = x + t * dx
                f_try = _smoothed_objective(_residual(A, x_try, bs, rho_try), mu, p, scratch)
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
    kkt = float(np.linalg.norm(_smoothed_gradient(A, rho, mu, p))) / gscale

    x_out = s * best_x
    return SolveResult(
        x=x_out,
        objective=vec_p_norm(A @ x_out - b, p),
        iterations=total_iters,
        converged=converged,
        kkt_residual=kkt,
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


def solve_weighted(A, b, p, weights, opts=DEFAULT_OPTIONS):
    """Minimize the weighted norm (sum_i w_i |rho_i|^p)^(1/p) by solving
    the row-scaled problem (see row_scaled)."""
    return solve_lp_regression(*row_scaled(as_matrix(A), as_vector(b), weights, p), p, opts)


def solve_multi_rhs(A, B, p, opts=DEFAULT_OPTIONS):
    """Minimize the entrywise p-norm of AX - B, column by column.

    The objective decouples: |||AX - B|||_p^p is the sum over columns of
    ||A X_j - B_j||_p^p, so each column is an independent vector solve.
    """
    A = as_matrix(A)
    B = as_matrix(B)
    if B.shape[0] != A.shape[0]:
        raise ValueError("A and B row counts differ")
    cols = [solve_lp_regression(A, B[:, j], p, opts).x for j in range(B.shape[1])]
    return np.column_stack(cols)


def solve_constrained(A, b, p, project, opts=DEFAULT_OPTIONS):
    """Minimize ||Ax - b||_p over a convex set given by its projection map.

    Projected subgradient descent with adaptively diminishing steps from a
    projected warm start; returns the best feasible point found.  The
    projection must be idempotent (checked) and non-expansive (assumed).
    """
    A = as_matrix(A)
    b = as_vector(b)
    _check_exponent(p)

    x = project(np.asarray(solve_lp_regression(A, b, p, opts).x, dtype=np.float64))
    x = np.asarray(x, dtype=np.float64)
    x2 = np.asarray(project(x), dtype=np.float64)
    if np.linalg.norm(x2 - x) > 1e-8 * (1.0 + np.linalg.norm(x)):
        raise ValueError("projection map is not idempotent")
    x = x2

    best_x = x.copy()
    best_f = vec_p_norm(A @ x - b, p)
    step = 0.5 * max(1.0, float(np.linalg.norm(x)))
    window = []
    converged = False
    iters = 0
    budget = 20 * opts.max_iters
    for iters in range(1, budget + 1):
        rho = A @ x - b
        g = A.T @ _residual_subgradient(rho, p)
        gn = float(np.linalg.norm(g))
        if gn == 0.0:
            converged = True
            break
        x_try = np.asarray(project(x - (step / gn) * g), dtype=np.float64)
        f_try = vec_p_norm(A @ x_try - b, p)
        if f_try < best_f:
            best_f, best_x = f_try, x_try.copy()
            x = x_try
            step *= 1.2
        else:
            x = x_try  # subgradient steps may pass through worse points
            step *= 0.7
        window.append(best_f)
        if len(window) > 20:
            window.pop(0)
            if window[0] - window[-1] <= _GRAD_TOL * max(1.0, best_f):
                converged = True
                break
        if step < 1e-15 * max(1.0, np.linalg.norm(best_x)):
            converged = True
            break
    return SolveResult(
        x=best_x,
        objective=best_f,
        iterations=iters,
        converged=converged,
        kkt_residual=0.0 if converged else math.inf,
    )


def objective_gradient_check(A, b, p, x, h=1e-5, mu=0.0):
    """Max relative error between the analytic smoothed gradient and
    central finite differences at step h.

    Requires p > 1; for p < 2 a positive smoothing mu must be supplied.
    Errors are measured relative to the gradient's max magnitude.
    """
    A = as_matrix(A)
    b = as_vector(b)
    x = as_vector(x)
    if not p > 1.0:
        raise ValueError("gradient check requires p > 1")
    if p < 2.0 and mu <= 0.0:
        raise ValueError("p < 2 requires a positive smoothing mu")
    rho = A @ x - b
    g = _smoothed_gradient(A, rho, mu, p)
    fd = np.empty_like(g)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        f_plus = _smoothed_objective(A @ (x + e) - b, mu, p)
        f_minus = _smoothed_objective(A @ (x - e) - b, mu, p)
        fd[i] = (f_plus - f_minus) / (2.0 * h)
    scale = max(float(np.max(np.abs(g))), 1e-300)
    return float(np.max(np.abs(g - fd)) / scale)
