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
"""
import math
import warnings
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import ZeroRankError
from .kernels import pnorm, row_pnorms
from .linalg import as_matrix, dual_exponent, mat_entrywise_p_norm, qr_thin

_PROBE_SEED = 0x5EEDB0B
_ASCENT_ITERS = 60
_REFINE_TOP = 6
_MAX_ROUNDS = 80


@dataclass(frozen=True)
class RoundingResult:
    """Ellipsoidal rounding of {z : ||Qz||_p <= 1}.

    kappa:  rigorous factor with ||Q G^-1 w||_p <= kappa ||w||_2 for all w
            (<= sqrt(d)*(1+tol) when converged).
    kappa_slack: certified slack for the reverse direction; no probed w
            violated ||w||_2 <= kappa_slack * ||Q G^-1 w||_p.
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


def _p_norm_subgradient(y, p):
    """A subgradient of ||.||_p at y (zero rows at kinks), p in [1, inf]."""
    nrm = pnorm(y, p)
    if nrm == 0.0:
        return np.zeros_like(y)
    if math.isinf(p):
        g = np.zeros_like(y)
        i = int(np.argmax(np.abs(y)))
        g[i] = np.sign(y[i])
        return g
    if p == 1.0:
        return np.sign(y)
    return np.sign(y) * (np.abs(y) / nrm) ** (p - 1.0)


def _ratio_ascent(u0, num_val, num_grad, den_val, den_grad, iters=_ASCENT_ITERS):
    """Maximize log num(u) - log den(u) over the unit sphere from u0."""
    u = u0 / np.linalg.norm(u0)
    f = math.log(num_val(u)) - math.log(den_val(u))
    step = 0.5
    for _ in range(iters):
        g = num_grad(u) / num_val(u) - den_grad(u) / den_val(u)
        g = g - (g @ u) * u
        gn = np.linalg.norm(g)
        if gn < 1e-14:
            break
        moved = False
        while step > 1e-9:
            u2 = u + (step / gn) * g
            u2 /= np.linalg.norm(u2)
            f2 = math.log(num_val(u2)) - math.log(den_val(u2))
            if f2 > f + 1e-15:
                u, f = u2, f2
                step = min(step * 1.5, 1.0)
                moved = True
                break
            step *= 0.5
        if not moved:
            break
    return math.exp(f), u


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


def lowner_john_round(Q, p, tol=0.05, max_iters=None):
    """Round the unit ball of ||Qz||_p by an ellipsoid {z : ||Gz||_2 <= 1}.

    Q must have orthonormal columns.  p = 2 returns G = I immediately;
    d = 1 is an interval and is rounded exactly.  Otherwise runs the
    cutting scheme described in the module docstring until the probe
    search finds no direction of C outside the ellipsoid (converged) or
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

    def boundary(z):
        return z / pnorm(Q @ z, p)

    pts = [boundary(e) for e in np.eye(d)]
    raw = rng.standard_normal((4 * d, d))
    pts.extend(boundary(z) for z in raw)
    X = np.array(pts)
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

        # hunt for directions of C outside E: maximize ||Gu||_2 / ||Qu||_p
        cand = [G[i] / np.linalg.norm(G[i]) for i in range(d)]
        evals, evecs = np.linalg.eigh(F)
        cand.extend(evecs.T)
        cand.append(rng.standard_normal(d))
        cand = np.vstack([np.asarray(cand), rng.standard_normal((32 * d, d))])
        num = np.linalg.norm(cand @ G.T, axis=1)
        den = row_pnorms(cand @ Q.T, p)
        ratios = num / den
        order = np.argsort(ratios)[::-1][:_REFINE_TOP]

        def nv(u):
            return float(np.linalg.norm(G @ u))

        def ng(u):
            return G.T @ (G @ u) / nv(u)

        def dv(u):
            return pnorm(Q @ u, p)

        def dg(u):
            return Q.T @ _p_norm_subgradient(Q @ u, p)

        worst = 0.0
        violators = []
        for j in order:
            r, u = _ratio_ascent(cand[j], nv, ng, dv, dg)
            worst = max(worst, r)
            if r > inner_tol:
                violators.append(boundary(u))
        if not violators:
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
    num = row_pnorms(dirs, q) if not math.isinf(q) else np.max(np.abs(dirs), axis=1)
    den = row_pnorms(dirs @ U.T, p)
    ratios = num / den
    best = float(ratios.max())
    order = np.argsort(ratios)[::-1][:_REFINE_TOP]

    def nv(z):
        return pnorm(z, q)

    def ng(z):
        return _p_norm_subgradient(z, q)

    def dv(z):
        return pnorm(U @ z, p)

    def dg(z):
        return U.T @ _p_norm_subgradient(U @ z, p)

    for j in order:
        r, _ = _ratio_ascent(dirs[j], nv, ng, dv, dg)
        best = max(best, r)
    return alpha_measured, best


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
