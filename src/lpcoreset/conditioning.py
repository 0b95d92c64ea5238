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

At p != 2 the rounding's last pass forms T G^-1 block by block, for the
unscaled G, and takes from each block both tau and each row's sum of
|t_ij|^p; it keeps no block.  Scaling G scales every row of U = T G^-1
alike, so the normalized sums are U's lp leverage, all that stage-1
sampling reads of U.  At p = 2 no rounding runs, the certificates are
exactly (sqrt(d), 1), and the leverage comes from one pass over row
blocks of T.

At every p, U, G and tau are formed from A when first read (lpcoreset
certify, the tests): T = A C again, at p = 2 G = chol(T^T T) (T's
columns are orthonormal only up to about cond(A) * eps, and this
Cholesky step brings that to rounding), U = T G^-1 and tau = G R.  So a
basis keeps no n x d array, and A must not change before they are read.
T and U are column-major (F-order): a row pass, such as the proxy's
power sums over T, took 2.1 to 3.4 times as long on a row-major n x d
array (20,000 and 200,000 rows, d = 8, p in {1, 1.5, 3}, one BLAS
thread, 2 vCPUs).
"""
import math
import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.linalg

from .kernels import _pow_inplace, pnorm, powsum_shares, row_blocks, row_pnorms, row_powsums
from .linalg import (
    _as_2d, _check_exponent, _check_finite, _r_factors, dual_exponent, numeric_rank, vec_p_norm
)
# no function here calls qr_thin; perfbench/tracing.py wraps the name
# conditioning.qr_thin, so it stays importable from this module
from .linalg import qr_thin  # noqa: F401
from .sampling import apply_plan, realize_sample

_PROXY_SEED = 0x5EEDB0B
# Expected rows of the sweep proxy per column of Q.  Rounding the
# 20,000 x 8 reference instance at p=1.5 took a median of 5.9, 6.3, 6.9,
# 7.1 and 9.2 ms at 125, 250, 500, 1000 and 2000 rows per column, for a
# distortion kappa * slack of 1.440, 1.436, 1.425, 1.422 and 1.417
# against d^e = 1.414 at the exact weights; at p=1 it was 2.99, 2.97,
# 2.91, 2.87 and 2.85 against 2.83, and 3.12 is the converged bound (one
# BLAS thread, 2 vCPUs).  Fewer rows loosen the certificates, more rows
# cost more per sweep.
_PROXY_ROWS = 500
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
    leverage: each row's share ||u_i||_p^p / |||U|||_p^p of U = Q G^-1,
            from the last pass's block products; U itself is not kept.
    Both factors follow in closed form from the row weights (module
    docstring) and hold on Q itself, converged or not.
    """

    G: np.ndarray
    kappa: float
    kappa_slack: float
    iterations: int
    converged: bool
    leverage: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class WellConditionedBasis:
    """U = T G^-1 spanning col(A), T = A C, with certified conditioning
    constants.

    tau = G R reconstructs A = U tau (R and C from linalg.r_factors).
    alpha_cert bounds the entrywise p-norm of U; beta_cert bounds
    ||z||_q / ||Uz||_p (q dual to p).  leverage holds the n row shares
    ||u_i||_p^p / |||U|||_p^p that stage-1 sampling reads, computed once
    with the basis; at p = 2 they are T's shares, which are U's up to T's
    departure from orthonormal columns.  At every p, U, G and tau are
    formed from A when first read (module docstring), so A must not
    change before; the basis keeps no U, nor any other n x d array.
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


def _search_proxy(Q, p, sums):
    """Row sample of Q on which the rounding sweeps for Lewis weights.

    Rows are kept by p-norm importance, ||row_i(Q)||_p^p, given as sums =
    row_powsums(Q, p) and overwritten, at an expected count of at most
    _PROXY_ROWS * d, with the library's own sampler under _PROXY_SEED and
    the usual p_i^(-1/p) rescaling, so ||Qs u||_p^p estimates ||Q u||_p^p
    without bias.  Returns Q itself when the sample would keep every row
    or would lose rank by the library's rank rule (linalg.numeric_rank).
    """
    d = Q.shape[1]
    probs = powsum_shares(Q, p, sums)
    probs *= _PROXY_ROWS * d
    np.minimum(probs, 1.0, out=probs)
    if np.all(probs >= 1.0):
        return Q
    Qs = apply_plan(realize_sample(probs, p, _PROXY_SEED), Q)
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


def _leverages(Q, G, p=None):
    """(tau, sums): tau_i = q_i^T M^-1 q_i for M = G^T G, i.e. ||t_i||_2^2
    for T = Q G^-1, taken block by block.  With p, sums holds each row's
    sum_j |t_ij|^p, taken from the same block products; else sums is
    None.  No block is kept.

    tau is summed on each block's row-major product, because einsum adds
    a row's squares in another order on a column-major array, and the
    certificates read tau's last bits.  The power sums need no such care:
    |Y|^p is formed in the block itself and summed by one GEMV, which
    took 10.8 ms of conditioning against 12.3 ms for kernels.row_powsums'
    column-major work array (20,000 x 8, p=1.5, medians of 150 calls,
    one BLAS thread, 2 vCPUs), mostly in the page faults of that array.
    """
    n, d = Q.shape
    Ginv = scipy.linalg.solve_triangular(G, np.eye(d))
    tau = np.empty(n)
    sums = None if p is None else np.empty(n)
    for blk in row_blocks(n):
        Y = Q[blk] @ Ginv
        np.einsum("ij,ij->i", Y, Y, out=tau[blk])
        if sums is not None:
            np.matmul(_pow_inplace(np.abs(Y, out=Y), p), np.ones(d), out=sums[blk])
    return tau, sums


def lowner_john_round(Q, p):
    """Round the unit ball of ||Qz||_p by an ellipsoid {z : ||Gz||_2 <= 1}.

    Q must be finite, or ValueError is raised, and of full column rank.
    Its columns need not be orthonormal: the factors are closed-form on Q
    itself, and a Q near orthonormal (A R^-1, say) keeps the proxy's
    sample representative.  d = 1 is an interval and is rounded exactly.
    Otherwise sweeps the Lewis-weight fixed point on the row-sample proxy
    for at most _MAX_SWEEPS sweeps, weights every row of Q from the
    proxy's M, and takes G from the exact M on Q, scaled so that
    kappa_slack = 1 + _TOL.  Both factors hold for any weights; converged
    says that kappa * kappa_slack <= sqrt(d) * (1+_TOL)^2.  At p = 2 the
    weights leave M = Q^T Q, so the sweeps stop after two and
    kappa = 1 / (1+_TOL).
    The last pass over Q also gives the leverage of U = Q G^-1 (module
    docstring); U itself is neither formed nor kept.
    """
    Q = _as_2d(Q)
    d = Q.shape[1]
    sums = row_powsums(Q, p)
    if not math.isfinite(float(sums.sum())):
        # Q holds inf or NaN, or its finite entries' powers overflowed
        _check_finite(Q)
    if d == 1:
        G, lev = np.array([[pnorm(Q[:, 0], p)]]), powsum_shares(Q, p, sums)
        return RoundingResult(
            G=G, kappa=1.0, kappa_slack=1.0, iterations=0, converged=True, leverage=lev
        )

    # Cohen-Peng fixed point w <- tau(w)^(p/2); for p >= 4 the damped
    # w <- w^(1-2/p) tau(w), which has the same fixed point
    Qs = _search_proxy(Q, p, sums)
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
    tau, sums = _leverages(Q, G, p)
    pos = w > 0.0
    c = float(np.max(tau[pos] / w[pos] ** (2.0 / p)))
    S = float(w.sum())

    # with N(z) = ||Gz||_2, Hoelder and Cauchy-Schwarz give, for p <= 2,
    # ||Qz||_p <= S^e N(z) and N(z) <= c^e ||Qz||_p, and for p >= 2 the
    # same with S and c swapped; G is scaled to put 1 + _TOL on the
    # slack.  The scale multiplies every row of U = Q G^-1 alike, so the
    # sums' shares are U's; they need no max-scaled fallback, since
    # |||U|||_p^p lies between d / slack^p and kappa^p d
    e = abs(1.0 / p - 0.5)
    G *= (1.0 + _TOL) / (c if p < 2.0 else S) ** e
    sums /= sums.sum()
    kappa = (S * c) ** e / (1.0 + _TOL)
    return RoundingResult(
        G=G,
        kappa=kappa,
        kappa_slack=1.0 + _TOL,
        iterations=sweeps,
        converged=kappa <= math.sqrt(d) * (1.0 + _TOL),
        leverage=sums,
    )


def well_conditioned_basis(A, p, *, factors=None):
    """Construct U = T G^-1 (T = A C) and tau = G R with conditioning
    certificates, for a finite p >= 1.

    At p != 2, G and the leverage come from the rounding; at p = 2 the
    certificates are exactly (sqrt(d), 1), and the leverage comes from
    one pass over row blocks of T.  U, G and tau are formed when first
    read (see the module docstring).

    alpha_cert = kappa * d^(1/p) bounds the entrywise p-norm of U;
    beta_cert = slack for p <= 2 and slack * d^(1/q - 1/2) for p > 2.
    Both are rigorous.  Non-convergence of the rounding downgrades to a
    warning; the certificates are then the looser factors it achieved.

    factors, when given, must be linalg.r_factors(A), and A is then
    neither validated nor factored again.  RegressionInstance passes its
    own, with its own column-major copy of A, which nothing changes.
    """
    _check_exponent(p)
    if factors is None:
        A = _as_2d(A)
        factors = _r_factors(A)
    d = factors.rank
    if p == 2.0:
        # T's columns are orthonormal up to rounding, so the total is
        # about d, far from where powsum_shares would need to rescale
        G, kappa, slack, alpha, beta = None, 1.0, 1.0, math.sqrt(d), 1.0
        leverage = row_powsums(A, 2.0, factors.C)
        leverage /= leverage.sum()
    else:
        rounding = lowner_john_round(_column_basis(A, factors.C), p)
        if not rounding.converged:
            warnings.warn(
                "ellipsoidal rounding did not converge; certificates inflated "
                f"(kappa={rounding.kappa:.3g}, slack={rounding.kappa_slack:.3g})",
                RuntimeWarning,
                stacklevel=2,
            )
        G, kappa, slack = rounding.G, rounding.kappa, rounding.kappa_slack
        alpha = kappa * d ** (1.0 / p)
        beta = slack * d ** (1.0 / dual_exponent(p) - 0.5) if p > 2.0 else slack
        leverage = rounding.leverage
    return WellConditionedBasis(
        p=float(p),
        d=d,
        alpha_cert=float(alpha),
        beta_cert=float(beta),
        kappa_cert=float(kappa),
        slack_cert=float(slack),
        leverage=leverage,
        form=lambda: _form_basis(A, factors, G),
    )


def _column_basis(A, C):
    """T = A C, written column-major as the transpose of the row-major
    C^T A^T: at 1,000,000 x 10 that took 34 ms, and np.matmul into an
    F-ordered out 37 ms (medians of 9, one BLAS thread)."""
    return (C.T @ A.T).T


def _form_basis(A, factors, G=None):
    """(U, G, tau) of a basis, formed from A: T = A C, G = chol(T^T T)
    when no rounding gave G (p = 2), U = T G^-1 written column-major,
    and tau = G R."""
    T = _column_basis(A, factors.C)
    if G is None:
        G = scipy.linalg.cholesky(T.T @ T, lower=False)
    U = _column_basis(T, scipy.linalg.solve_triangular(G, np.eye(factors.rank)))
    return U, G, G @ factors.R


def certify_basis(basis):
    """Measure the conditioning constants a basis achieves, with no probes.

    Returns (alpha_measured, beta_measured_lower): the exact entrywise
    p-norm of U, and max_j 1 / ||U e_j||_p over U's d columns, an exact
    lower bound on beta = max_z ||z||_q / ||Uz||_p because every
    coordinate vector has ||e_j||_q = 1.
    """
    U, p = basis.U, basis.p
    return vec_p_norm(U, p), float(1.0 / row_pnorms(U.T, p).min())
