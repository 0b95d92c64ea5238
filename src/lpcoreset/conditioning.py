"""Well-conditioned bases for the column span of A under a p-norm.

Construction: thin QR gives an orthonormal Q, then an ellipsoidal
rounding of the norm ball C = {z : ||Qz||_p <= 1} produces G such that
U = Q G^-1 satisfies, for all w,

    ||w||_2 / slack  <=  ||U w||_p  <=  kappa * ||w||_2,

from which the (alpha, beta, p) conditioning certificates follow.  The
upper factor kappa is rigorous by construction; the lower slack is
certified against adaptively refined probe directions (and confirmed by
brute-force direction nets in the test suite for d <= 2).

The rounding itself is a cutting scheme: Frank-Wolfe iterations compute
the minimum-volume ellipsoid of a finite symmetric point set on the
boundary of C; subgradient ascent hunts for directions of C sticking out
of the current ellipsoid, and any violators are added to the point set
until none are found.

The hunt runs on a proxy: a fixed row sample Qs of Q, drawn once per
call by p-norm importance with the library's own sampler, so that
||Qs z||_p estimates ||Qz||_p at a fraction of the cost.  Only the
directions it finds are scored on Q itself (one product per round), and
only exact violators, scaled onto the boundary of C, join the point set,
so kappa stays rigorous.  A round declares convergence only after an
ascent on the exact norm, started from those directions, finds no
violator either, which keeps the slack certified on C rather than on
the proxy.
"""
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ZeroRankError
from .kernels import pnorm, powsum_ratios, row_pnorms
from .linalg import as_matrix, dual_exponent, mat_entrywise_p_norm, qr_thin
from .sampling import apply_plan, realize_sample

_PROBE_SEED = 0x5EEDB0B
_ASCENT_ITERS = 60
# Expected rows of the search proxy per column of Q.  Rounding the
# 20,000 x 8, p=1.5 reference instance in six row orders took a median of
# 0.39, 0.43, 0.36, 0.53 and 0.75 s at 125, 250, 500, 1000 and 2000 rows
# per column, against 0.91 s for the serial search on Q itself (one BLAS
# thread, 2 vCPUs): fewer rows miss violators that the exact search must
# then find, more rows cost more per step.
_PROXY_ROWS = 500
_REFINE_TOP = 6
_MAX_ROUNDS = 80


@dataclass(frozen=True)
class RoundingResult:
    """Ellipsoidal rounding of {z : ||Qz||_p <= 1}.

    kappa:  rigorous factor with ||Q G^-1 w||_p <= kappa ||w||_2 for all w
            (<= sqrt(d)*(1+tol) when converged); every point behind it is
            an exact boundary point of the ball, even when the search for
            them ran on a row sample of Q.
    kappa_slack: certified slack for the reverse direction; no probed w
            violated ||w||_2 <= kappa_slack * ||Q G^-1 w||_p, where the
            final probes are ascents on the exact norm of Q.
    """

    G: np.ndarray
    kappa: float
    kappa_slack: float
    iterations: int
    converged: bool


@dataclass(frozen=True)
class WellConditionedBasis:
    """U = Q G^-1 spanning col(A), with certified conditioning constants.

    tau = G R reconstructs A = U tau.  alpha_cert bounds the entrywise
    p-norm of U; beta_cert bounds ||z||_q / ||Uz||_p (q dual to p).
    """

    U: np.ndarray
    G: np.ndarray
    tau: np.ndarray
    p: float
    alpha_cert: float
    beta_cert: float
    kappa_cert: float
    slack_cert: float

    @property
    def d(self):
        return self.U.shape[1]


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


def _mvee_fw(points, d, kappa_target, weights, budget):
    """Frank-Wolfe pass for the min-volume ellipsoid of a symmetric point set.

    points: (k, d) rows on the boundary of C (signs irrelevant).  Returns
    (weights, S, kappa_max, iterations) where S = sum_i w_i x_i x_i^T and
    kappa_max = max_i x_i^T S^-1 x_i.  Terminates when kappa_max <=
    kappa_target or the iteration budget runs out.
    """
    X = points
    k = X.shape[0]
    w = weights
    iters = 0
    while True:
        S = X.T @ (w[:, None] * X)
        try:
            Sinv_Xt = np.linalg.solve(S, X.T)
        except np.linalg.LinAlgError:
            S = S + (1e-14 * np.trace(S) / d) * np.eye(d)
            Sinv_Xt = np.linalg.solve(S, X.T)
        g = np.einsum("ij,ji->i", X, Sinv_Xt)
        kappa_max = float(g.max())
        if kappa_max <= kappa_target or iters >= budget:
            return w, S, kappa_max, iters
        j = int(np.argmax(g))
        lam = (kappa_max / d - 1.0) / (kappa_max - 1.0)
        w = (1.0 - lam) * w
        w[j] += lam
        iters += 1


def _search_proxy(Q, p):
    """Row sample of Q on which the rounding searches for violators.

    Rows are kept by p-norm importance, ||row_i(Q)||_p^p, at an expected
    count of at most _PROXY_ROWS * d, with the library's own sampler under
    _PROBE_SEED and the usual p_i^(-1/p) rescaling, so ||Qs u||_p^p
    estimates ||Q u||_p^p without bias.  Returns Q itself when the sample
    would keep every row or would lose rank.
    """
    d = Q.shape[1]
    probs = np.minimum(1.0, _PROXY_ROWS * d * powsum_ratios(row_pnorms(Q, p), p))
    if np.all(probs >= 1.0):
        return Q
    Qs = apply_plan(realize_sample(probs, p, _PROBE_SEED), Q)
    if np.linalg.matrix_rank(Qs) < d:
        return Q
    return Qs


def _exact_violators(dirs, G, Q, p, inner_tol):
    """Boundary points of C along the rows of dirs whose exact ratio
    ||Gu||_2 / ||Qu||_p exceeds inner_tol (one product with Q)."""
    den = row_pnorms(dirs @ Q.T, p)
    hit = np.linalg.norm(dirs @ G.T, axis=1) / den > inner_tol
    return dirs[hit] / den[hit, None]


def lowner_john_round(Q, p, tol=0.05, max_iters=None):
    """Round the unit ball of ||Qz||_p by an ellipsoid {z : ||Gz||_2 <= 1}.

    Q must have orthonormal columns.  p = 2 returns G = I immediately;
    d = 1 is an interval and is rounded exactly.  Otherwise runs the
    cutting scheme described in the module docstring, searching on the
    row-sample proxy and certifying on Q, until neither search finds a
    direction of C outside the ellipsoid (converged) or
    the iteration budget is exhausted (converged=False, best factors
    reported).
    """
    Q = as_matrix(Q)
    d = Q.shape[1]
    if d == 0:
        raise ZeroRankError("cannot round an empty basis")
    if not (0.0 < tol < 1.0):
        raise ValueError("tol must lie in (0, 1)")
    if p == 2.0:
        return RoundingResult(
            G=np.eye(d), kappa=1.0, kappa_slack=1.0, iterations=0, converged=True
        )
    if d == 1:
        g = pnorm(Q[:, 0], p)
        return RoundingResult(
            G=np.array([[g]]), kappa=1.0, kappa_slack=1.0, iterations=0, converged=True
        )

    if max_iters is None:
        max_iters = int(math.ceil(10.0 * d * d * math.log(d + 1.0) * math.log(1.0 / tol)))
    # FW stop so that sqrt(kappa_max) <= sqrt(d)*(1+tol)
    kappa_target = d * (1.0 + tol) ** 2
    inner_tol = 1.0 + 0.5 * tol

    rng = np.random.default_rng(_PROBE_SEED)
    Qs = _search_proxy(Q, p)

    Z = np.vstack([np.eye(d), rng.standard_normal((4 * d, d))])
    X = Z / row_pnorms(Z @ Q.T, p)[:, None]
    w = np.full(X.shape[0], 1.0 / X.shape[0])

    used = 0
    converged = False
    S = None
    kappa_max = float(d)
    for _ in range(_MAX_ROUNDS):
        w, S, kappa_max, it = _mvee_fw(X, d, kappa_target, w, max_iters - used)
        used += it
        # E = {z^T F z <= 1}, F = S^-1 / kappa_max, certifies
        # ||U w||_p <= sqrt(kappa_max) ||w||_2 unconditionally.
        F = np.linalg.inv(S) / kappa_max
        F = 0.5 * (F + F.T)
        G = scipy.linalg.cholesky(F, lower=False)

        # hunt for directions of C outside E: maximize ||Gu||_2 / ||Qu||_p,
        # searching on the proxy and keeping what is exact on Q
        cand = [G[i] / np.linalg.norm(G[i]) for i in range(d)]
        evals, evecs = np.linalg.eigh(F)
        cand.extend(evecs.T)
        cand.append(rng.standard_normal(d))
        cand = np.vstack([np.asarray(cand), rng.standard_normal((32 * d, d))])
        ratios = np.linalg.norm(cand @ G.T, axis=1) / row_pnorms(cand @ Qs.T, p)
        top = cand[np.argsort(ratios)[::-1][:_REFINE_TOP]]
        _, dirs = _ratio_ascent(top, G, 2.0, Qs, p)
        violators = _exact_violators(dirs, G, Q, p, inner_tol)
        if not len(violators) and Qs is not Q:
            # nothing found on the proxy: only an ascent on the exact norm
            # may declare convergence
            _, dirs = _ratio_ascent(dirs, G, 2.0, Q, p)
            violators = _exact_violators(dirs, G, Q, p, inner_tol)
        if not len(violators):
            converged = kappa_max <= kappa_target
            if converged:
                return RoundingResult(
                    G=G,
                    kappa=math.sqrt(kappa_max),
                    kappa_slack=1.0 + tol,
                    iterations=used,
                    converged=True,
                )
            break
        X = np.vstack([X, violators])
        w = np.concatenate([w, np.zeros(len(violators))])
        if used >= max_iters:
            break

    # budget exhausted: report the best rigorous upper factor and the
    # worst probe slack actually observed
    F = np.linalg.inv(S) / kappa_max
    F = 0.5 * (F + F.T)
    G = scipy.linalg.cholesky(F, lower=False)
    Uc = np.linalg.solve(G.T, Q.T).T
    probe = rng.standard_normal((64 * d, d))
    slack = float(np.max(np.linalg.norm(probe, axis=1) / row_pnorms(probe @ Uc.T, p)))
    return RoundingResult(
        G=G,
        kappa=math.sqrt(kappa_max),
        kappa_slack=max(slack, 1.0 + tol),
        iterations=used,
        converged=False,
    )


def well_conditioned_basis(A, p, tol=0.05, max_iters=None):
    """Construct U = Q G^-1 and tau = G R with conditioning certificates.

    alpha_cert = kappa * d^(1/p) bounds the entrywise p-norm of U;
    beta_cert = slack for p <= 2 and slack * d^(1/q - 1/2) for p > 2.
    For p = 2 the rounding is bypassed and the certificates are exactly
    (sqrt(d), 1).  Non-convergence of the rounding downgrades to a
    warning, with the certificates inflated to the achieved factors.
    """
    A = as_matrix(A)
    factors = qr_thin(A)
    d = factors.rank
    rounding = lowner_john_round(factors.Q, p, tol, max_iters=max_iters)
    if not rounding.converged:
        warnings.warn(
            "ellipsoidal rounding did not converge; certificates inflated "
            f"(kappa={rounding.kappa:.3g}, slack={rounding.kappa_slack:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    G = rounding.G
    if p == 2.0:
        U = factors.Q
        tau = factors.R
        alpha = math.sqrt(d)
        beta = 1.0
    else:
        U = np.linalg.solve(G.T, factors.Q.T).T
        tau = G @ factors.R
        alpha = rounding.kappa * d ** (1.0 / p)
        q = dual_exponent(p)
        beta = rounding.kappa_slack
        if p > 2.0:
            beta *= d ** (1.0 / q - 0.5)
    return WellConditionedBasis(
        U=U,
        G=G,
        tau=tau,
        p=float(p),
        alpha_cert=float(alpha),
        beta_cert=float(beta),
        kappa_cert=float(rounding.kappa),
        slack_cert=float(rounding.kappa_slack),
    )


def certify_basis(basis, n_probes=2048, seed=_PROBE_SEED):
    """Measure the conditioning constants actually achieved by a basis.

    Returns (alpha_measured, beta_measured_lower): the exact entrywise
    p-norm of U, and a certified lower bound on the true beta obtained by
    maximizing ||z||_q / ||Uz||_p over random, coordinate, and
    ascent-refined directions.
    """
    U, p = basis.U, basis.p
    d = U.shape[1]
    q = dual_exponent(p)
    alpha_measured = mat_entrywise_p_norm(U, p)

    rng = np.random.default_rng(seed)
    dirs = np.vstack([np.eye(d), rng.standard_normal((max(1, n_probes), d))])
    ratios = row_pnorms(dirs, q) / row_pnorms(dirs @ U.T, p)
    top = dirs[np.argsort(ratios)[::-1][:_REFINE_TOP]]
    refined, _ = _ratio_ascent(top, np.eye(d), q, U, p)
    return alpha_measured, max(float(ratios.max()), float(refined.max()))


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
