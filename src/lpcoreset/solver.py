"""lp regression subproblem solvers, p in [1, inf).

One solver covers all exponents: the p = 2 path is a direct QR
least-squares solve, everything else minimizes the smoothed objective
sum_i (rho_i^2 + mu^2)^(p/2) by damped iteratively reweighted least
squares, driving mu down a geometric continuation ladder.  The problem
is internally normalized by ||b||_p so tolerances and smoothing levels
are scale-free.
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ZeroRankError
from .kernels import smoothed_power_weights
from .linalg import DEFAULT_RANK_TOL, as_matrix, as_vector, vec_p_norm, _check_exponent

_MAX_HALVINGS = 40


@dataclass(frozen=True)
class SolverOptions:
    """Iteration and smoothing knobs.

    smoothing_mu0 / mu_min default to 0.1*||b||_p/sqrt(n) and
    1e-8*||b||_p/sqrt(n) when None.
    """

    max_iters: int = 500
    grad_tol: float = 1e-8
    smoothing_mu0: float | None = None
    smoothing_shrink: float = 0.1
    mu_min: float | None = None

    def __post_init__(self):
        if self.max_iters < 1 or self.grad_tol <= 0.0:
            raise ValueError("max_iters and grad_tol must be positive")
        if not (0.0 < self.smoothing_shrink < 1.0):
            raise ValueError("smoothing_shrink must lie in (0, 1)")


DEFAULT_OPTIONS = SolverOptions()


@dataclass(frozen=True, eq=False)
class SolveResult:
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


def _lstsq(A, b):
    x, _, _, _ = scipy.linalg.lstsq(A, b, cond=DEFAULT_RANK_TOL, lapack_driver="gelsy")
    return x


def solve_lp_regression(A, b, p, opts=DEFAULT_OPTIONS, x0=None):
    """Minimize ||Ax - b||_p.

    p = 2 solves in closed form; otherwise smoothed IRLS with
    mu-continuation and step halving.  For p = 1 the minimizer may be any
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
            converged=kkt <= opts.grad_tol,
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
            ladder.append(max(ladder[-1] * opts.smoothing_shrink, mu_min))

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
    converged = False
    kkt = math.inf
    for mu in ladder:
        _residual(A, x, bs, rho)
        f = _smoothed_objective(rho, mu, p, scratch)
        for _ in range(opts.max_iters):
            total_iters += 1
            sw = smoothed_power_weights(rho, mu, p)
            np.sqrt(sw, out=sw)
            np.multiply(A, sw[:, None], out=Aw)
            np.multiply(bs, sw, out=bw)
            dx = _lstsq(Aw, bw) - x
            t = 1.0
            accepted = False
            for _ in range(_MAX_HALVINGS):
                x_try = x + t * dx
                f_try = _smoothed_objective(_residual(A, x_try, bs, rho_try), mu, p, scratch)
                if f_try < f:
                    x, f = x_try, f_try
                    rho, rho_try = rho_try, rho
                    accepted = True
                    break
                t *= 0.5
            grad = _smoothed_gradient(A, rho, mu, p)
            kkt = float(np.linalg.norm(grad)) / gscale
            if kkt <= opts.grad_tol:
                break
            if not accepted:
                break
        true_obj = vec_p_norm(rho, p)
        if true_obj < best_true:
            best_true, best_x = true_obj, x.copy()
    converged = kkt <= opts.grad_tol

    x_out = s * best_x
    return SolveResult(
        x=x_out,
        objective=vec_p_norm(A @ x_out - b, p),
        iterations=total_iters,
        converged=converged,
        kkt_residual=kkt,
    )


def solve_weighted(A, b, p, weights, opts=DEFAULT_OPTIONS):
    """Minimize the weighted norm (sum_i w_i |rho_i|^p)^(1/p).

    Row-scales A and b by w_i^(1/p) and delegates; unit weights reduce
    exactly to the unweighted solve.
    """
    w = as_vector(weights)
    if np.any(w < 0.0):
        raise ValueError("weights must be nonnegative")
    if not np.any(w > 0.0):
        raise ValueError("at least one weight must be positive")
    A = as_matrix(A)
    b = as_vector(b)
    scale = w ** (1.0 / p)
    return solve_lp_regression(A * scale[:, None], b * scale, p, opts)


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
            if window[0] - window[-1] <= opts.grad_tol * max(1.0, best_f):
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
