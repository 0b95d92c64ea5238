"""Verification oracles that only the tests run: probe-based checks of a
basis's spanning coefficients, of a sampling plan's subspace distortion
and of the solver's analytic gradient."""
import numpy as np

from lpcoreset.conditioning import _PROBE_SEED
from lpcoreset.errors import ZeroRankError
from lpcoreset.kernels import row_pnorms
from lpcoreset.linalg import as_matrix, as_vector
from lpcoreset.sampling import apply_plan
from lpcoreset.solver import _smoothed_gradient, _smoothed_objective


def spanner_coefficients(basis, A, z_samples=1000, seed=_PROBE_SEED):
    """Max l2 coefficient norm when expressing sampled z with ||Az||_p <= 1.

    Samples directions g, rescales to the boundary z = g / ||Ag||_p, maps
    to coefficients nu = tau z (so that U nu = A z), and returns the
    largest ||nu||_2 observed.  Contract: <= sqrt(d) * slack_cert.
    """
    A = as_matrix(A)
    m = A.shape[1]
    rng = np.random.default_rng(seed)
    worst = 0.0
    remaining = int(z_samples)
    while remaining > 0:
        k = min(remaining, 512)
        Gd = rng.standard_normal((k, m))
        norms = row_pnorms(Gd @ A.T, basis.p)
        ok = norms > 0
        Z = Gd[ok] / norms[ok][:, None]
        if Z.size:
            coef = np.linalg.norm(Z @ basis.tau.T, axis=1)
            worst = max(worst, float(coef.max()))
        remaining -= k
    return worst


def measure_distortion(A, plan, p, x_samples=100, seed=0):
    """max_x | ||SAx||_p - ||Ax||_p | / ||Ax||_p over random directions x.

    Raises ZeroRankError for an identically zero A, where every direction
    has ||Ax||_p = 0 and the ratio is undefined.
    """
    A = as_matrix(A)
    if not np.any(A):
        raise ZeroRankError("coefficient matrix is identically zero")
    rng = np.random.default_rng(seed)
    SA = apply_plan(plan, A)
    worst = 0.0
    drawn = 0
    while drawn < x_samples:
        k = min(x_samples - drawn, 256)
        X = rng.standard_normal((k, A.shape[1]))
        full = row_pnorms(X @ A.T, p)
        ok = full > 0.0
        if not np.all(ok):
            X, full = X[ok], full[ok]  # measure-zero draws: redraw
        if X.shape[0] == 0:
            continue
        sampled = row_pnorms(X @ SA.T, p) if SA.shape[0] else np.zeros(X.shape[0])
        worst = max(worst, float(np.max(np.abs(sampled - full) / full)))
        drawn += X.shape[0]
    return worst


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
