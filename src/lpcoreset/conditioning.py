"""Well-conditioned bases for the column span of A under a p-norm.

Construction: the R-only QR of A (linalg.r_factors) gives R and a column
map C with T = A C a basis of col(A); for a full-rank A, C = R^-1 and T
is Householder's Q up to rounding, but no Q is formed or kept.  An
ellipsoidal rounding of the norm ball {z : ||Tz||_p <= 1} produces G
such that U = T G^-1 satisfies, for all z,

    ||z||_2 / slack  <=  ||U z||_p  <=  kappa * ||z||_2,

and gives alpha = |||U|||_p, U's entrywise p-norm, from which the
(alpha, beta, p) certificates follow.  All are rigorous, up to rounding,
with no probes, and hold for any T of full column rank.

The rounding uses lp Lewis weights (D. Lewis, Studia Math. 1978; Cohen &
Peng, arXiv:1412.0588).  For any positive row weights w, with
M = T^T W^(1-2/p) T, N(x) = (x^T M x)^(1/2), c = max_i t_i^T M^-1 t_i /
w_i^(2/p), S = sum_i w_i and e = |1/p - 1/2|, Hoelder and Cauchy-Schwarz
give ||Tx||_p <= S^e N(x) and N(x) <= c^e ||Tx||_p for p <= 2, and the
same with S and c swapped for p >= 2.  At the Lewis weights c = 1, S = d.

A pass over row blocks Y = T_blk Gs^-1, for a factor Gs, takes tau_i =
||y_i||_2^2, w_i = tau_i^(p/2), S = sum_i w_i and M' = sum_i w_i^(1-2/p)
y_i y_i^T = Gs^-T M Gs^-1, and Gs <- chol(M') Gs is one sweep of the fixed
point w <- tau(w)^(p/2).  The sweeps run on a proxy, a fixed row sample of
T drawn by p-norm importance with the library's own sampler, from its Gram
factor until M' is flat; a pass over all of T, which also takes each row's
sum_j |y_ij|^p, certifies Gs.  With lambda = 1 / lambda_min(M'),
M >= Gs^T Gs / lambda, so c <= lambda, and for z = Gs x, ||z||_2 <=
sqrt(lambda) N(x) and N(x) <= sqrt(lambda_max(M')) ||z||_2.  Hence,

    p <= 2:  ||z||_2 <= lambda^(1/p) ||Yz||_p,
             ||Yz||_p <= S^e sqrt(lambda_max(M')) ||z||_2;
    p >= 2:  ||z||_2 <= sqrt(lambda) S^e ||Yz||_p,
             ||Yz||_p <= lambda^e sqrt(lambda_max(M')) ||z||_2,

whatever the proxy missed; near the Lewis weights lambda and
lambda_max(M') are near 1.  G is Gs scaled to put 1 + _TOL on the slack,
alpha is the sums' total to the 1/p over that scale, and the sums' shares
are U's lp leverage, all that stage-1 sampling reads of U.  T is read
only as A's row blocks times C, C Gs^-1 in the passes over all of T
(_block_pass, the one code that forms T's blocks), and a first such pass
gives the proxy's importance sums.  At p = 2 no rounding runs, the
certificates are exactly (sqrt(d), 1), and that first pass alone gives
the leverage.  So conditioning writes no n x d array.

At every p, U, G and tau are formed from A when first read (lpcoreset
certify, the tests): T = A C again, at p = 2 G = chol(T^T T) (T's
columns are orthonormal only up to about cond(A) * eps, and this step
brings that to rounding), U = T G^-1 and tau = G R.  So a basis keeps
no n x d array, and A must not change before they are read.  T, U and
the last pass's blocks are column-major (F-order): a row pass, such as
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
from scipy.linalg.blas import dgemm

from .kernels import (
    _SQ_HI, _SQ_LO, ScaledShares, _block_powsums, pnorm, powsum_shares, row_blocks, row_pnorms
)
from .linalg import (
    _as_2d, _check_exponent, _check_finite, _r_factors, dual_exponent, numeric_rank, vec_p_norm
)
# no function here calls qr_thin; perfbench/tracing.py wraps the name
# conditioning.qr_thin, so it stays importable from this module
from .linalg import qr_thin  # noqa: F401
from .sampling import apply_plan, realize_sample

_PROXY_SEED = 0x5EEDB0B
# Expected rows of the sweep proxy per column of T.  Rounding the
# 20,000 x 8 reference instance at p=1.5 took a median of 3.2, 3.3, 3.8,
# 4.5 and 7.1 ms at 125, 250, 500, 1000 and 2000 rows per column, for a
# certified alpha * beta of 5.60, 5.57, 5.37, 5.31 and 5.24; at p=1,
# kappa * slack was 3.10 at 500 rows against the converged bound 3.12
# (d^e = 2.83), and 125 and 250 rows took a sweep on all rows to reach
# 2.88 and 2.87 (100 alternating calls, one BLAS thread, 2 vCPUs).
_PROXY_ROWS = 500
# The proxy's sweeps stop once lambda_max(M') < lambda_min(M') (1 + _SWEEP_RTOL),
# a rule free of the scale of T and of the weights, and all stop after
# _MAX_SWEEPS sweeps, those on all rows (_FULL_SWEEPS at most, below p = 4,
# each one more pass, when a last pass does not converge) included.
_SWEEP_RTOL = 1e-3
_MAX_SWEEPS = 100
_FULL_SWEEPS = 2
# The rounding scales G so that the slack is 1 + _TOL.
_TOL = 0.05
# Rows per block of the rounding's passes (kernels.row_blocks).
# Conditioning the 20,000 x 8 reference instance at p=1.5 took a median
# of 4.04, 4.24 and 4.23 ms at 3,072, 4,096 and 6,144 rows (300
# alternating calls), and 4.59 ms in one block of all rows against
# 2.84 ms at 3,072 in another run of 150; at 1,000,000 x 10 every height
# from 2,048 to 8,192 took 120-123 ms (12 calls; one BLAS thread, 2 vCPUs).
_BLOCK = 3072


@dataclass(frozen=True)
class RoundingResult:
    """Ellipsoidal rounding of {z : ||Tz||_p <= 1}, T = Q cols (Q without
    cols), certified on T itself by the rounding's last pass (module
    docstring), converged or not.

    kappa:  rigorous factor with ||T G^-1 z||_p <= kappa ||z||_2 for all z
            (<= sqrt(d)*(1+_TOL) when converged).
    kappa_slack: rigorous factor for the reverse direction,
            ||z||_2 <= kappa_slack ||T G^-1 z||_p for all z; G, the proxy's
            Lewis factor scaled, puts it at 1 + _TOL.
    iterations: Lewis sweeps Gs <- chol(M') Gs, on the proxy, then on all rows.
    norm:   |||U|||_p, the entrywise p-norm of U = T G^-1.
    leverage: each row's share ||u_i||_p^p / |||U|||_p^p, from the last
            pass's block products; U itself is not formed.
    """

    G: np.ndarray
    kappa: float
    kappa_slack: float
    iterations: int
    converged: bool
    norm: float
    leverage: np.ndarray = field(repr=False)


@dataclass(frozen=True, eq=False)
class WellConditionedBasis:
    """U = T G^-1 spanning col(A), T = A C, with certified conditioning
    constants.

    tau = G R reconstructs A = U tau (R and C from linalg.r_factors).
    alpha_cert bounds the entrywise p-norm of U (at p != 2 it is that
    norm, from the rounding's last pass); beta_cert bounds
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


def _search_proxy(Q, p, sums, cols):
    """Row sample Ts of T = Q cols on which the rounding sweeps for Lewis
    weights, or Q itself when the sample would keep every row or would
    lose rank by the library's rank rule (linalg.numeric_rank).

    Rows are kept by p-norm importance, given as sums, each row's
    sum_j |t_ij|^p, and overwritten, at an expected count of at most
    _PROXY_ROWS * d, with the library's own sampler and chunk rule
    (ScaledShares) under _PROXY_SEED and the usual p_i^(-1/p) rescaling,
    so ||Ts u||_p^p estimates ||T u||_p^p without bias.  Only the kept
    rows of T are formed, so sums' total must lie in [_SQ_LO, _SQ_HI],
    where powsum_shares reads no T.
    """
    d = cols.shape[1]
    shares, scale = powsum_shares(Q, p, sums), _PROXY_ROWS * d
    if shares.min() * scale >= 1.0:
        return Q
    plan = realize_sample(ScaledShares(shares, scale), p, _PROXY_SEED)
    Qs = _column_basis(apply_plan(plan, Q), cols)
    return Q if numeric_rank(Qs) < d else Qs


def _gram(X):
    # one GEMM: 14 us at 4,000 x 8, against 38-41 us by np.matmul's SYRK
    return dgemm(1.0, X, X, trans_a=1)


def _workspace(n, d, work=None):
    """Buffers for _block_pass over n rows' tallest block: work, if as tall."""
    h = n - row_blocks(n, _BLOCK)[-1].start
    fits = work is not None and work[2].size >= h
    return work if fits else (np.empty(h * d), np.empty(h * d), np.empty(h), np.empty(h))


def _block_pass(Q, K, p, sums, work, lewis=False, w=None):
    """One pass over the row blocks of Y = Q K, _BLOCK rows each, read
    into work: sums, unless None, gets each row's sum_j |y_ij|^p, and with
    lewis, (S, M') of the module docstring are returned, or given w, S = 0
    and the M' of the damped weights w^(1-2/p) tau, written into w.  A tau
    below _SQ_LO (a zero row) is raised to it, which only lowers its
    tau_i(M) / w_i^(2/p).  Y is column-major: tau, the row scaling and the
    row sums took 19, 27 and 6 us on a 4,000 x 8 block so, against 29, 40
    and 14 us row-major."""
    Yf, Xf, tau, sq = work
    d = Yf.size // tau.size
    S, Mp = 0.0, np.zeros((d, d))
    for blk in row_blocks(Q.shape[0], _BLOCK):
        h = blk.stop - blk.start
        y, x = (B[:h * d].reshape((h, d), order="F") for B in (Yf, Xf))
        np.matmul(Q[blk], K, out=y)
        if lewis:
            t, s = tau[:h], sq[:h]
            np.maximum(np.einsum("ij,ij->i", y, y, out=t), _SQ_LO, out=t)
            if w is None:
                # s = w^(1/2 - 1/p) scales M's rows, and w = s^2 tau
                np.power(t, p / 4.0 - 0.5, out=s)
                S += float((s * s) @ t)
            else:
                v = np.multiply(w[blk] ** (1.0 - 2.0 / p), t, out=w[blk])
                np.power(v, 0.5 - 1.0 / p, out=s)
            Mp += _gram(np.multiply(y, s[:, None], out=x))
        if sums is not None:
            _block_powsums(y, p, sums[blk], y)
    return S, Mp


def lowner_john_round(Q, p, cols=None):
    """Round the unit ball of ||Tz||_p, T = Q cols (Q without cols), by an
    ellipsoid {z : ||Gz||_2 <= 1}, certified on T (module docstring).

    Q must be finite, or ValueError is raised, and T of full column rank.
    Its columns need not be orthonormal: the factors are closed-form on T
    itself, and near-orthonormal columns (A R^-1, say) keep the proxy's
    sample representative.  d = 1 is an interval and is rounded exactly.
    Otherwise sweeps Gs <- chol(M') Gs on the row-sample proxy, from its
    Gram factor until M' is flat, and certifies Gs on all of T by the last
    pass, at most _FULL_SWEEPS times more after a sweep on all rows; G is
    Gs scaled so that kappa_slack = 1 + _TOL.  At p = 2 the weights leave
    M = T^T T, so M' is flat at the first sweep, and the factors are the
    extreme singular values of T Gs^-1, rescaled.  T is formed whole only
    at d = 1, when the proxy is all of T, or when the powers overflow.
    """
    Q = _as_2d(Q)
    cols = np.eye(Q.shape[1]) if cols is None else cols
    n, d = Q.shape[0], cols.shape[1]
    sums, work = np.empty(n), _workspace(n, d)
    with np.errstate(over="ignore", invalid="ignore"):
        _block_pass(Q, cols, p, sums, work)
    total = float(sums.sum())
    if not math.isfinite(total):
        # Q holds inf or NaN, or its finite entries' powers overflowed
        _check_finite(Q)
    if d == 1 or not _SQ_LO <= total <= _SQ_HI:
        # T is formed whole for an interval, and where powsum_shares reads it
        Q, cols = _column_basis(Q, cols), np.eye(d)
    if d == 1:
        G, lev = np.array([[pnorm(Q[:, 0], p)]]), powsum_shares(Q, p, sums)
        return RoundingResult(
            G=G, kappa=1.0, kappa_slack=1.0, iterations=0, converged=True, norm=1.0,
            leverage=lev,
        )
    Qs = _search_proxy(Q, p, sums, cols)
    if Qs is Q:
        Qs = _column_basis(Q, cols)
    work = _workspace(Qs.shape[0], d, work)

    # Gs starts as the factor of the proxy's uniform weights w = 1 (not I,
    # whose S overflows for a T with huge rows).  Each pass but the last is
    # a sweep, for p >= 4 of the damped w <- w^(1-2/p) tau(w) on the proxy,
    # which has the same fixed point.  The scale puts 1 + _TOL on the
    # slack, and multiplies every row of U alike, so the sums' shares are U's
    w = np.ones(Qs.shape[0]) if p >= 4.0 else None
    Gs = scipy.linalg.cholesky(_gram(Qs), lower=False)
    e, bound = abs(1.0 / p - 0.5), math.sqrt(d) * (1.0 + _TOL)
    sweeps, full, proxy = 0, 0, _MAX_SWEEPS > 0
    while True:
        Ginv = scipy.linalg.solve_triangular(Gs, np.eye(d))
        if proxy:
            _, Mp = _block_pass(Qs, Ginv, p, None, work, lewis=True, w=w)
        else:
            S, Mp = _block_pass(Q, cols @ Ginv, p, sums, work, lewis=True)
        lo, hi = (float(v) for v in scipy.linalg.eigvalsh(Mp)[[0, -1]])
        if not proxy:
            slack = lo ** -0.5 * (1.0 / lo if p <= 2.0 else S) ** e
            kappa = hi ** 0.5 * (S if p <= 2.0 else 1.0 / lo) ** e * slack / (1.0 + _TOL)
            if kappa <= bound or p >= 4.0 or sweeps >= _MAX_SWEEPS or full == _FULL_SWEEPS:
                break
            full += 1
        sweeps += 1
        proxy = proxy and hi >= lo * (1.0 + _SWEEP_RTOL) and sweeps < _MAX_SWEEPS
        Gs = scipy.linalg.cholesky(Mp, lower=False) @ Gs
    total, scale = float(sums.sum()), (1.0 + _TOL) / slack
    sums /= total
    return RoundingResult(
        G=Gs * scale,
        kappa=kappa,
        kappa_slack=1.0 + _TOL,
        iterations=sweeps,
        converged=kappa <= bound,
        norm=total ** (1.0 / p) / scale,
        leverage=sums,
    )


def well_conditioned_basis(A, p, *, factors=None):
    """Construct U = T G^-1 (T = A C) and tau = G R with conditioning
    certificates, for a finite p >= 1.

    At p != 2, G, the leverage and alpha_cert, U's entrywise p-norm, come
    from the rounding, and beta_cert = slack for p < 2 and
    slack * d^(1/q - 1/2) for p > 2; at p = 2 the certificates are exactly
    (sqrt(d), 1), and the leverage comes from the rounding's first pass
    over T's row blocks, with no sweeps.  All are rigorous; a rounding
    that did not converge warns, and its looser factors stand.  U, G and
    tau are formed when first read.

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
        leverage = np.empty(A.shape[0])
        _block_pass(A, factors.C, 2.0, leverage, _workspace(A.shape[0], d))
        leverage /= leverage.sum()
    else:
        rounding = lowner_john_round(A, p, factors.C)
        if not rounding.converged:
            warnings.warn(
                "ellipsoidal rounding did not converge; certificates inflated "
                f"(kappa={rounding.kappa:.3g}, slack={rounding.kappa_slack:.3g})",
                RuntimeWarning,
                stacklevel=2,
            )
        G, kappa, slack, alpha = rounding.G, rounding.kappa, rounding.kappa_slack, rounding.norm
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
