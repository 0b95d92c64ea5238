"""Verification oracles that only the tests run: probe-based checks of a
basis's certificates and spanning coefficients, of a sampling plan's
subspace distortion and of the solver's analytic gradient, and the
whole-array sampling path that the chunked draws must reproduce."""
import math

import numpy as np

from lpcoreset import kernels
from lpcoreset.errors import ZeroRankError
from lpcoreset.kernels import row_pnorms
from lpcoreset.linalg import as_matrix, as_vector, dual_exponent, vec_p_norm
from lpcoreset.sampling import apply_plan
from lpcoreset.solver import _smoothed_objective

_PROBE_SEED = 0x5EEDB0B
_ASCENT_ITERS = 60
_REFINE_TOP = 6
# Probe directions scored per block in probe_certificates: each block
# costs about three _PROBE_BLOCK x n arrays (the product and two working
# copies in row_pnorms), 61 MB at n = 10,000.
_PROBE_BLOCK = 256


def probe_certificates(basis, n_probes=2048, seed=_PROBE_SEED):
    """Measure the conditioning constants a basis achieves, by probes.

    Returns (alpha_measured, beta_measured_lower): the exact entrywise
    p-norm of U, and a lower bound on the true beta obtained by
    maximizing ||z||_q / ||Uz||_p over the coordinate directions,
    n_probes random ones and ascents refined from the best of them.
    """
    U, p = basis.U, basis.p
    d = U.shape[1]
    q = dual_exponent(p)
    alpha_measured = vec_p_norm(U, p)

    rng = np.random.default_rng(seed)
    dirs = np.vstack([np.eye(d), rng.standard_normal((max(1, n_probes), d))])
    blocks = [dirs[i : i + _PROBE_BLOCK] for i in range(0, len(dirs), _PROBE_BLOCK)]
    ratios = np.concatenate([row_pnorms(B, q) / row_pnorms(B @ U.T, p) for B in blocks])
    top = dirs[np.argsort(ratios)[::-1][:_REFINE_TOP]]
    refined, _ = _ratio_ascent(top, np.eye(d), q, U, p)
    return alpha_measured, max(float(ratios.max()), float(refined.max()))


def _row_subgradients(Y, norms, p):
    """Subgradients of ||.||_p at the rows of Y, whose p-norms are given.

    p in [1, inf]; zero entries get zero at kinks, zero rows get zero.
    """
    if math.isinf(p):
        g = np.zeros_like(Y)
        rows = np.arange(Y.shape[0])
        cols = np.argmax(np.abs(Y), axis=1)
        g[rows, cols] = np.sign(Y[rows, cols])
    elif p == 1.0:
        g = np.sign(Y)
    else:
        g = np.abs(Y)
        g /= np.where(norms > 0.0, norms, 1.0)[:, None]
        g **= p - 1.0
        np.copysign(g, Y, out=g)
    g[norms == 0.0] = 0.0
    return g


def _ratio_ascent(U0, N, a, M, b, iters=_ASCENT_ITERS):
    """Maximize ||N u||_a / ||M u||_b over unit u from each row of U0.

    All rows move in lockstep, one matrix product per step for the whole
    block, but each row follows its own subgradient ascent on the log
    ratio: its own step size (grown by 1.5 on success, halved on failure
    down to 1e-9), stopping when its projected gradient vanishes, when no
    step improves it, or after iters steps.  Returns (ratios, U).
    """
    U = U0 / np.linalg.norm(U0, axis=1)[:, None]
    Ym = U @ M.T
    den = row_pnorms(Ym, b)
    f = np.log(row_pnorms(U @ N.T, a)) - np.log(den)
    step = np.full(U.shape[0], 0.5)
    live = np.ones(U.shape[0], dtype=bool)
    for _ in range(iters):
        idx = np.flatnonzero(live)
        if not idx.size:
            break
        Yn = U[idx] @ N.T
        num = row_pnorms(Yn, a)
        g = _row_subgradients(Yn, num, a) @ N / num[:, None]
        g -= _row_subgradients(Ym[idx], den[idx], b) @ M / den[idx, None]
        g -= np.einsum("ij,ij->i", g, U[idx])[:, None] * U[idx]
        gn = np.linalg.norm(g, axis=1)
        flat = gn < 1e-14
        live[idx[flat]] = False
        idx, g, gn = idx[~flat], g[~flat], gn[~flat]
        moved = np.zeros(idx.size, dtype=bool)
        pending = np.flatnonzero(step[idx] > 1e-9)
        while pending.size:
            rows = idx[pending]
            U2 = U[rows] + (step[rows] / gn[pending])[:, None] * g[pending]
            U2 /= np.linalg.norm(U2, axis=1)[:, None]
            Y2 = U2 @ M.T
            den2 = row_pnorms(Y2, b)
            f2 = np.log(row_pnorms(U2 @ N.T, a)) - np.log(den2)
            up = f2 > f[rows] + 1e-15
            won = rows[up]
            U[won], Ym[won], den[won], f[won] = U2[up], Y2[up], den2[up], f2[up]
            step[won] = np.minimum(step[won] * 1.5, 1.0)
            moved[pending[up]] = True
            lost = pending[~up]
            step[idx[lost]] *= 0.5
            pending = lost[step[idx[lost]] > 1e-9]
        live[idx[~moved]] = False
    return np.exp(f), U


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
    w = kernels.smoothed_power_weights(rho, mu, p)
    w *= rho
    g = p * (A.T @ w)
    fd = np.empty_like(g)
    for i in range(x.shape[0]):
        e = np.zeros_like(x)
        e[i] = h
        f_plus = _smoothed_objective(A @ (x + e) - b, mu, p)
        f_minus = _smoothed_objective(A @ (x - e) - b, mu, p)
        fd[i] = (f_plus - f_minus) / (2.0 * h)
    scale = max(float(np.max(np.abs(g))), 1e-300)
    return float(np.max(np.abs(g - fd)) / scale)


def whole_array_stage1(leverage, r1):
    """Stage-1 probabilities formed over all rows at once:
    min(1, r1 * leverage)."""
    probs = np.multiply(leverage, r1)
    return np.minimum(probs, 1.0, out=probs)


def whole_array_stage2(p1, residual, p, r2, total):
    """Stage-2 probabilities formed over all rows at once, with the power
    sum total given (the residual pass's own): every row's unscaled sum
    of |rho_ij|^p into one n-vector, divided by total / r2 and clipped to
    [p1_i, 1]; a total outside [_SQ_LO, _SQ_HI] takes the max-scaled
    shares instead."""
    M = np.asarray(residual, dtype=np.float64)
    M = M.reshape(M.shape[0], -1)
    if kernels._SQ_LO <= total <= kernels._SQ_HI:
        s = np.empty(M.shape[0])
        with np.errstate(over="ignore"):
            kernels._block_powsums(M, p, s, np.empty(M.shape, order="F"))
        s /= total / r2
    else:
        s = kernels.powsum_ratios(row_pnorms(M, p), p) * r2
    return np.clip(s, p1, 1.0, out=s)


def whole_array_draws(probs, p, seed):
    """(indices, scales, expected count) of a Bernoulli plan drawn over the
    whole counter stream at once."""
    idx = np.flatnonzero(kernels.counter_uniforms(seed, probs.shape[0]) < probs)
    return idx, probs[idx] ** (-1.0 / p), float(probs.sum())
