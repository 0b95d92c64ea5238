"""Well-conditioned bases for the column span of A under a p-norm.

Construction: the R-only QR of A (linalg.r_factors) gives R and a column
map C with T = A C a basis of col(A); for a full-rank A, C = R^-1 and T
is Householder's Q up to rounding, but no Q is formed or kept.  An
ellipsoidal rounding of the norm ball C_p = {z : ||Tz||_p <= 1} produces
G such that U = T G^-1 satisfies, for all w,

    ||w||_2 / slack  <=  ||U w||_p  <=  kappa * ||w||_2,

from which the (alpha, beta, p) conditioning certificates follow.  Both
factors are rigorous, up to floating-point rounding, with no probes, and
hold for any T of full column rank.

The rounding uses lp Lewis weights (D. Lewis, Studia Math. 1978; Cohen &
Peng, arXiv:1412.0588).  For any positive row weights w, with
M = T^T W^(1-2/p) T = G^T G, tau_i = t_i^T M^-1 t_i, c = max_i
tau_i / w_i^(2/p), S = sum_i w_i and e = |1/p - 1/2|, the Hoelder and
Cauchy-Schwarz inequalities bound ||Tz||_p against ||Gz||_2 from both
sides with product (S c)^e.  At the exact Lewis weights c = 1 and S = d,
so the product is d^e <= sqrt(d).

The weights come from the fixed point w <- tau(w)^(p/2), swept on a
proxy: a fixed row sample Ts of T, drawn once per call by p-norm
importance with the library's own sampler.  Two passes over T then give
every row its weight from the proxy's M and compute the exact M, c and S,
so the certificates hold on T itself, whatever the proxy missed.

At p != 2 the basis U = T G^-1 comes from the rounding's last pass over
T: block by block, that pass forms T G^-1 for the unscaled G, one matrix
product with the inverse of the d x d triangular G, and writes it over T
itself, which is column-major (F-order); U is that product divided by
the scalar that scales G.  So T's storage becomes U's, and conditioning
holds one n x d array, not two.  Row passes over U took 2.1 to 3.4
times as long on a row-major n x d U (20,000 and 200,000 rows, d = 8, p
in {1, 1.5, 3}, one BLAS thread, 2 vCPUs).  The basis keeps U's
normalized row sums of |u_ij|^p, its lp leverage, which is all that
stage-1 sampling reads of it.

At p = 2 no rounding runs and the certificates are exactly (sqrt(d), 1).
The leverage comes from one pass over row blocks of T, and no n x d
array is formed.  U, when read, is T made orthonormal by one Cholesky
step, U = T G^-1 with G = chol(T^T T): T's columns are orthonormal only
up to about cond(A) * eps, and the step brings that to rounding.
"""
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .kernels import pnorm, powsum_shares, row_blocks, row_pnorms, row_powsums
from .linalg import _as_2d, _r_factors, as_matrix, dual_exponent, numeric_rank, vec_p_norm
# no function here calls qr_thin; perfbench/tracing.py wraps the name
# conditioning.qr_thin, so it stays importable from this module
from .linalg import qr_thin  # noqa: F401
from .sampling import apply_plan, realize_sample

_PROBE_SEED = 0x5EEDB0B
_ASCENT_ITERS = 60
# Expected rows of the sweep proxy per column of Q.  Rounding the
# 20,000 x 8 reference instance at p=1.5 took a median of 5.9, 6.3, 6.9,
# 7.1 and 9.2 ms at 125, 250, 500, 1000 and 2000 rows per column, for a
# distortion kappa * slack of 1.440, 1.436, 1.425, 1.422 and 1.417
# against d^e = 1.414 at the exact weights; at p=1 it was 2.99, 2.97,
# 2.91, 2.87 and 2.85 against 2.83, and 3.12 is the converged bound (one
# BLAS thread, 2 vCPUs).  Fewer rows loosen the certificates, more rows
# cost more per sweep.
_PROXY_ROWS = 500
_REFINE_TOP = 6
# Probe directions scored per block in certify_basis: each block costs
# about three _PROBE_BLOCK x n arrays (the product and two working copies
# in row_pnorms), 61 MB at n = 10,000.
_PROBE_BLOCK = 256
# Lewis sweeps stop at a relative weight change below _SWEEP_RTOL or after
# _MAX_SWEEPS sweeps.
_SWEEP_RTOL = 1e-3
_MAX_SWEEPS = 100
# The rounding scales G so that the slack is 1 + _TOL.
_TOL = 0.05


@dataclass(frozen=True)
class RoundingResult:
    """Ellipsoidal rounding of {z : ||Qz||_p <= 1}.

    kappa:  rigorous factor with ||Q G^-1 w||_p <= kappa ||w||_2 for all w
            (<= sqrt(d)*(1+_TOL) when converged).
    kappa_slack: rigorous factor for the reverse direction,
            ||w||_2 <= kappa_slack ||Q G^-1 w||_p for all w; G is scaled
            so that it is 1 + _TOL.
    iterations: Lewis-weight sweeps on the row-sample proxy.
    U:      Q G^-1 for the returned G, column-major (written over Q
            when the call may overwrite it).
    Both factors follow in closed form from the row weights (module
    docstring) and hold on Q itself, converged or not.
    """

    G: np.ndarray
    kappa: float
    kappa_slack: float
    iterations: int
    converged: bool
    U: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class WellConditionedBasis:
    """U = T G^-1 spanning col(A), T = A C, with certified conditioning
    constants.

    tau = G R reconstructs A = U tau (R and C from linalg.r_factors).
    alpha_cert bounds the entrywise p-norm of U; beta_cert bounds
    ||z||_q / ||Uz||_p (q dual to p).  leverage holds the n row shares
    ||u_i||_p^p / |||U|||_p^p that stage-1 sampling reads, computed once
    with the basis.  At p = 2 they are T's shares, which are U's up to T's
    departure from orthonormal columns, and U, G and tau are formed from
    A when first read (module docstring), so A must not change before.
    At p != 2 the basis keeps U, n x d doubles.
    """

    p: float
    d: int
    alpha_cert: float
    beta_cert: float
    kappa_cert: float
    slack_cert: float
    leverage: np.ndarray = field(repr=False)
    # () -> (U, G, tau), called once, on the first read of any of them
    form: object = field(repr=False)

    @cached_property
    def _formed(self):
        return self.form()

    @property
    def U(self):
        return self._formed[0]

    @property
    def G(self):
        return self._formed[1]

    @property
    def tau(self):
        return self._formed[2]


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


def _search_proxy(Q, p):
    """Row sample of Q on which the rounding sweeps for Lewis weights.

    Rows are kept by p-norm importance, ||row_i(Q)||_p^p, at an expected
    count of at most _PROXY_ROWS * d, with the library's own sampler under
    _PROBE_SEED and the usual p_i^(-1/p) rescaling, so ||Qs u||_p^p
    estimates ||Q u||_p^p without bias.  Returns Q itself when the sample
    would keep every row or would lose rank by the library's rank rule
    (linalg.numeric_rank).
    """
    d = Q.shape[1]
    probs = powsum_shares(Q, p, row_powsums(Q, p))
    probs *= _PROXY_ROWS * d
    np.minimum(probs, 1.0, out=probs)
    if np.all(probs >= 1.0):
        return Q
    Qs = apply_plan(realize_sample(probs, p, _PROBE_SEED), Q)
    if numeric_rank(Qs) < d:
        return Q
    return Qs


def _lewis_factor(Q, w, p):
    """Upper Cholesky factor G of M = Q^T W^(1-2/p) Q, rows with w = 0 left out."""
    s = np.zeros_like(w)
    pos = w > 0.0
    s[pos] = w[pos] ** (0.5 - 1.0 / p)
    X = Q * s[:, None]
    return scipy.linalg.cholesky(X.T @ X, lower=False)


def _leverages(Q, G, out=None):
    """(tau, T): tau_i = q_i^T M^-1 q_i for M = G^T G, i.e. ||t_i||_2^2
    for T = Q G^-1, taken block by block.  With out (n x d, and Q itself
    allowed), T is written into it block by block and returned; else T
    is None.

    tau is summed on each block's row-major product, because einsum adds
    a row's squares in another order on a column-major array, and the
    certificates read tau's last bits.
    """
    n, d = Q.shape
    Ginv = scipy.linalg.solve_triangular(G, np.eye(d))
    tau = np.empty(n)
    for blk in row_blocks(n):
        Y = Q[blk] @ Ginv
        np.einsum("ij,ij->i", Y, Y, out=tau[blk])
        if out is not None:
            out[blk] = Y
    return tau, out


def lowner_john_round(Q, p, *, overwrite=False):
    """Round the unit ball of ||Qz||_p by an ellipsoid {z : ||Gz||_2 <= 1}.

    Q must have full column rank.  Its columns need not be orthonormal:
    the factors are closed-form on Q itself, and a Q near orthonormal
    (A R^-1, say) keeps the proxy's sample representative.  d = 1 is an
    interval and is rounded exactly.  Otherwise sweeps the Lewis-weight
    fixed point on the row-sample proxy for at most _MAX_SWEEPS sweeps,
    weights every row of Q from the proxy's M, and takes G from the exact
    M on Q, scaled so that kappa_slack = 1 + _TOL.  Both factors hold for
    any weights; converged says that
    kappa * kappa_slack <= sqrt(d) * (1+_TOL)^2.  At p = 2 the weights
    leave M = Q^T Q, so the sweeps stop after two and kappa = 1 / (1+_TOL).

    overwrite lets the last pass write U = Q G^-1 over Q, a column-major
    float64 Q that the caller made for the rounding and reads no more;
    well_conditioned_basis passes its T so, which keeps one n x d array
    fewer alive.  Otherwise U is a new column-major array.
    """
    Q = as_matrix(Q)
    d = Q.shape[1]
    if d == 1:
        g = pnorm(Q[:, 0], p)
        return RoundingResult(
            G=np.array([[g]]), kappa=1.0, kappa_slack=1.0, iterations=0, converged=True, U=Q / g
        )

    # Cohen-Peng fixed point w <- tau(w)^(p/2); for p >= 4 the damped
    # w <- w^(1-2/p) tau(w), which has the same fixed point
    Qs = _search_proxy(Q, p)
    w = np.full(Qs.shape[0], d / Qs.shape[0])
    Gs = None
    sweeps = 0
    while sweeps < _MAX_SWEEPS:
        Gs = _lewis_factor(Qs, w, p)
        tau = _leverages(Qs, Gs)[0]
        new = w ** (1.0 - 2.0 / p) * tau if p >= 4.0 else tau ** (p / 2.0)
        pos = w > 0.0
        change = float(np.max(np.abs(new[pos] - w[pos]) / w[pos]))
        w = new
        sweeps += 1
        if change < _SWEEP_RTOL:
            break

    # every row of Q weighted from the last sweep's M (uniformly when no
    # sweep ran), then the exact M on Q
    n = Q.shape[0]
    w = np.full(n, d / n) if Gs is None else _leverages(Q, Gs)[0] ** (p / 2.0)
    G = _lewis_factor(Q, w, p)
    tau, U = _leverages(Q, G, out=Q if overwrite else np.empty((n, d), order="F"))
    pos = w > 0.0
    c = float(np.max(tau[pos] / w[pos] ** (2.0 / p)))
    S = float(w.sum())

    # with N(z) = ||Gz||_2, Hoelder and Cauchy-Schwarz give, for p <= 2,
    # ||Qz||_p <= S^e N(z) and N(z) <= c^e ||Qz||_p, and for p >= 2 the
    # same with S and c swapped; G is scaled to put 1 + _TOL on the
    # slack, and Q G^-1 by the inverse scalar
    e = abs(1.0 / p - 0.5)
    scale = (1.0 + _TOL) / (c if p < 2.0 else S) ** e
    G *= scale
    U /= scale
    kappa = (S * c) ** e / (1.0 + _TOL)
    return RoundingResult(
        G=G,
        kappa=kappa,
        kappa_slack=1.0 + _TOL,
        iterations=sweeps,
        converged=kappa <= math.sqrt(d) * (1.0 + _TOL),
        U=U,
    )


def well_conditioned_basis(A, p, *, factors=None):
    """Construct U = T G^-1 (T = A C) and tau = G R with conditioning
    certificates.

    At p != 2, U is the rounding's column-major product (see the module
    docstring), and leverage its normalized row sums of |u_ij|^p from one
    kernels.row_powsums pass.  At p = 2 the rounding is bypassed, the
    certificates are exactly (sqrt(d), 1), and leverage comes from one
    pass over row blocks of T; U, G and tau are formed when first read.

    alpha_cert = kappa * d^(1/p) bounds the entrywise p-norm of U;
    beta_cert = slack for p <= 2 and slack * d^(1/q - 1/2) for p > 2.
    Both are rigorous.  Non-convergence of the rounding downgrades to a
    warning; the certificates are then the looser factors it achieved.

    factors, when given, must be linalg.r_factors(A), and A is then
    neither validated nor factored again.  RegressionInstance passes its
    own, with its own column-major copy of A, which nothing changes.
    """
    if factors is None:
        A = _as_2d(A)
        factors = _r_factors(A)
    d, R = factors.rank, factors.R
    if p == 2.0:
        # T's columns are orthonormal up to rounding, so the total is
        # about d, far from where powsum_shares would need to rescale
        sums = row_powsums(A, 2.0, factors.C)
        sums /= sums.sum()
        return WellConditionedBasis(
            p=2.0,
            d=d,
            alpha_cert=math.sqrt(d),
            beta_cert=1.0,
            kappa_cert=1.0,
            slack_cert=1.0,
            leverage=sums,
            form=lambda: _orthonormal_basis(A, factors),
        )
    rounding = lowner_john_round(_column_basis(A, factors.C), p, overwrite=True)
    if not rounding.converged:
        warnings.warn(
            "ellipsoidal rounding did not converge; certificates inflated "
            f"(kappa={rounding.kappa:.3g}, slack={rounding.kappa_slack:.3g})",
            RuntimeWarning,
            stacklevel=2,
        )
    G, U = rounding.G, rounding.U
    alpha = rounding.kappa * d ** (1.0 / p)
    beta = rounding.kappa_slack
    if p > 2.0:
        beta *= d ** (1.0 / dual_exponent(p) - 0.5)
    tau = G @ R
    return WellConditionedBasis(
        p=float(p),
        d=d,
        alpha_cert=float(alpha),
        beta_cert=float(beta),
        kappa_cert=float(rounding.kappa),
        slack_cert=float(rounding.kappa_slack),
        leverage=powsum_shares(U, p, row_powsums(U, p)),
        form=lambda: (U, G, tau),
    )


def _column_basis(A, C):
    """T = A C, written column-major as the transpose of the row-major
    C^T A^T: at 1,000,000 x 10 that took 34 ms, and np.matmul into an
    F-ordered out 37 ms (medians of 9, one BLAS thread)."""
    return (C.T @ A.T).T


def _orthonormal_basis(A, factors):
    """(U, G, tau) of the p = 2 basis: T = A C made orthonormal by one
    Cholesky step, G = chol(T^T T) (_lewis_factor at w = 1), U = T G^-1
    written column-major, and tau = G R."""
    T = _column_basis(A, factors.C)
    G = scipy.linalg.cholesky(T.T @ T, lower=False)
    U = _column_basis(T, scipy.linalg.solve_triangular(G, np.eye(factors.rank)))
    return U, G, G @ factors.R


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
    alpha_measured = vec_p_norm(U, p)

    rng = np.random.default_rng(seed)
    dirs = np.vstack([np.eye(d), rng.standard_normal((max(1, n_probes), d))])
    blocks = [dirs[i : i + _PROBE_BLOCK] for i in range(0, len(dirs), _PROBE_BLOCK)]
    ratios = np.concatenate([row_pnorms(B, q) / row_pnorms(B @ U.T, p) for B in blocks])
    top = dirs[np.argsort(ratios)[::-1][:_REFINE_TOP]]
    refined, _ = _ratio_ascent(top, np.eye(d), q, U, p)
    return alpha_measured, max(float(ratios.max()), float(refined.max()))
