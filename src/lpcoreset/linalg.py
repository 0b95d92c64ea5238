"""Dense matrix/vector kernels and the norm family everything else uses.

All operations are pure functions of immutable inputs; p is a runtime
real with fast paths for p=1 and p=2.

The library factors A by an R-only QR.  BlockedR is the R half of a
tall-skinny QR (TSQR; Demmel, Grigori, Hoemmen & Langou,
arXiv:0808.2664): each row block of kernels.row_blocks, the blocks every
loop over n rows walks, is written into one reused
Fortran-ordered buffer and factored in place by LAPACK's geqrf, and the
triangles of several blocks are stacked and factored once more, so no Q
is ever formed.  Its R has A's singular values up to rounding.
r_factors reads A's numeric rank from them, and a column map C with
A C = T, a basis of col(A): C = R^-1, or V_d / s_d from the SVD of R
when A is rank-deficient.  numeric_rank and every RegressionInstance
factor A this way; the pass checks each block finite as it reads it, and
for an instance also writes the block into the instance's column-major
copy of A and, at p = 2, adds the block's part of A^T b.  qr_thin, one
Householder QR that forms Q, is the tests' reference; no library path
calls it.

Every least-squares solve of the library, min ||M x - c||_2, goes through
BlockedLstsq: the BlockedR pass over the augmented matrix [M | c].  The
last column of the final triangle is Q^T c (its last entry is the
residual norm up to sign), so c needs no pass of its own.  The m x m
triangle and the top m entries of that column then go to LAPACK's
pivoted-QR driver gelsy with cond = DEFAULT_RANK_TOL (_lstsq), which
keeps gelsy's rank rule and its minimum-norm answer on rank-deficient or
underdetermined systems.  The M-columns of that R are M's R, so
BlockedLstsq.rank reads M's numeric rank by r_factors' rule without a
QR of M alone.
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import get_lapack_funcs

from . import kernels
from .kernels import row_blocks
from .errors import InvalidExponentError, ZeroRankError

DEFAULT_RANK_TOL = 1e-10


def _check_exponent(p):
    if not (1.0 <= p < math.inf):
        raise InvalidExponentError(f"p must be a finite number >= 1, got {p}")


def as_matrix(M):
    """Validate and return a finite 2-D float64 array (n >= 1, m >= 1)."""
    A = _as_2d(M)
    _check_finite(A)
    return A


def _as_2d(M):
    """M as a 2-D float64 array (n >= 1, m >= 1), not checked finite."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    return A


def _check_finite(A):
    if not np.isfinite(A).all():
        raise ValueError("matrix contains non-finite entries")


def as_vector(v):
    """Validate and return a finite 1-D float64 array."""
    x = _as_1d(v)
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains non-finite entries")
    return x


def _as_1d(v):
    """v as a 1-D float64 array, not checked finite."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    return x


def vec_p_norm(v, p):
    """(sum_i |v_i|^p)^(1/p), scaled by max|v_i| so large p cannot overflow.

    v may be a matrix: its norm is then the entrywise p-norm, the norm of
    its flattened entries.

    p = inf is accepted so dual-norm evaluations can dispatch to the
    max-norm; any finite p must satisfy p >= 1.
    """
    if p != math.inf:
        _check_exponent(p)
    return kernels.pnorm(np.asarray(v, dtype=np.float64), float(p))


def dual_exponent(p):
    """q with 1/p + 1/q = 1; p = 1 maps to +inf (max-norm dispatch) and
    p = inf to 1."""
    if p == math.inf:
        return 1.0
    _check_exponent(p)
    if p == 1.0:
        return math.inf
    return p / (p - 1.0)


@dataclass(frozen=True)
class QRFactors:
    """Thin QR of A with numeric rank detection.

    Q has d orthonormal columns and R is d x m with Q @ R ~= A.  For
    full-rank inputs R is upper-trapezoidal and Q is Fortran-ordered; for
    rank-deficient inputs Q spans the top d left singular vectors of A and
    R = Q.T @ A.
    """

    Q: np.ndarray
    R: np.ndarray
    rank: int


def qr_thin(A):
    """Economic QR with numeric rank detection: the tests' reference QR.

    One Householder QR of A (scipy.linalg.qr).  rank = number of singular
    values of R (which are those of A) exceeding DEFAULT_RANK_TOL *
    sigma_1.  A rank-deficient Q is rotated onto the leading left
    singular vectors of R, so one factorization of A serves every case.
    Raises ZeroRankError for an all-zero matrix.
    """
    A = as_matrix(A)
    Q, R = scipy.linalg.qr(A, mode="economic", check_finite=False)
    U_R, sv, _ = np.linalg.svd(R, full_matrices=False)
    d = _rank(sv)
    if d < min(A.shape):
        Q = Q @ U_R[:, :d]
        R = Q.T @ A
    return QRFactors(Q=Q, R=R, rank=d)


def _rank(sv):
    """Count of the singular values sv (descending) above DEFAULT_RANK_TOL
    * sv[0]; ZeroRankError when sv[0] is 0."""
    if sv[0] == 0.0:
        raise ZeroRankError("matrix has numeric rank 0")
    return int(np.sum(sv > DEFAULT_RANK_TOL * sv[0]))


_GEQRF, _GEQRF_LWORK, _GELSY, _GELSY_LWORK = get_lapack_funcs(
    ("geqrf", "geqrf_lwork", "gelsy", "gelsy_lwork"), dtype=np.float64
)


class BlockedR:
    """The R factor of an n x k matrix by a Householder QR in TSQR row
    blocks, with no Q formed (see the module docstring).

    The block buffer and geqrf's workspace size are made once, at
    construction, so one instance serves every factorization of the same
    shape.  factor(fill) lets fill(blk, out) write rows blk of the matrix
    into the F-ordered buffer out (rows x k), which its QR then
    overwrites, so fill may read it first.  It returns geqrf's output for
    the whole matrix: R on and above the diagonal of its first min(n, k)
    rows, Householder vectors below.  buffer, an F-ordered n x k array,
    serves a matrix of one block (n below 2 * kernels._ROW_BLOCK) as its
    block buffer.
    """

    def __init__(self, n, k, buffer=None):
        self.k = k
        # _ROW_BLOCK rows but at least k, so that each block has a k x k R
        self.blocks = row_blocks(n, max(kernels._ROW_BLOCK, k))
        rows = [blk.stop - blk.start for blk in self.blocks]
        if buffer is not None:
            self._outs = [buffer]
        else:
            buf = np.empty(max(rows) * k)
            # each block's F-ordered view of the one buffer
            self._outs = [buf[:r * k].reshape(k, r).T for r in rows]
        b = len(self.blocks)
        self._stacked = np.empty((b * k, k), order="F") if b > 1 else None
        work, info = _GEQRF_LWORK(max(max(rows), b * k), k)
        if info != 0:
            raise ValueError(f"geqrf workspace query failed: info={info}")
        self._lwork = int(work)

    def _geqrf(self, a):
        """a, F-ordered, overwritten by its geqrf QR."""
        qr, _, _, info = _GEQRF(a, lwork=self._lwork, overwrite_a=True)
        if info != 0:
            raise ValueError(f"illegal value in argument {-info} of geqrf")
        return qr

    def factor(self, fill):
        k = self.k
        for i, (blk, out) in enumerate(zip(self.blocks, self._outs)):
            fill(blk, out)
            R = self._geqrf(out)
            if self._stacked is not None:
                self._stacked[i * k:(i + 1) * k] = np.triu(R[:k])
        if self._stacked is not None:
            R = self._geqrf(self._stacked)
        return R


@dataclass(frozen=True)
class RFactors:
    """R factor of A with numeric rank detection, and a column map.

    R is d x m and C is m x d, d = rank, with T = A C a basis of col(A)
    and T R ~= A.  For a full-rank A, R is BlockedR's upper-triangular R
    and C = R^-1, so T = Q up to rounding.  For a rank-deficient A, with
    R's SVD U_R S V^T, C = V_d / s_d and R = S_d V_d^T over the d leading
    singular triplets, so T is A's top d left singular vectors.
    """

    R: np.ndarray
    C: np.ndarray
    rank: int


def r_factors(A):
    """R factor, numeric rank and column map of A (see RFactors), from one
    R-only QR by BlockedR.

    rank reads R's singular values by qr_thin's rule.  Raises
    ZeroRankError for an all-zero matrix.
    """
    return _r_factors(_as_2d(A))


def _r_factors(A, copy=None, b=None, atb=None):
    """r_factors of a 2-D float64 A (n >= 1, m >= 1), whose row blocks are
    checked finite, as as_matrix checks a whole A, while the QR pass
    reads them.

    copy, an n x m F-ordered array, receives each block as well, so it
    ends a column-major copy of A with no second pass over A.  An A of
    one block is factored in copy itself, which is then filled from A
    again: at 20,000 x 8 that second copy took 0.15 ms, where the fresh
    pages of a block buffer as large as A took about 1 ms (313 minor
    faults).

    With b (n rows, finite) and atb, a zero array of shape (m,) +
    b.shape[1:], each block also adds A[blk]^T b[blk] into atb while it
    is in cache, before its QR overwrites it, so atb ends A^T b with no
    pass of its own.  A product that overflows leaves inf or NaN in atb,
    with no warning.
    """
    n, m = A.shape
    in_copy = copy is not None and len(row_blocks(n, max(kernels._ROW_BLOCK, m))) == 1

    def copy_rows(blk, out):
        out[:] = A[blk]
        _check_finite(out)
        if copy is not None and not in_copy:
            copy[blk] = out
        if atb is not None:
            atb[...] += out.T @ b[blk]

    qr = BlockedR(n, m, buffer=copy if in_copy else None)
    with np.errstate(over="ignore", invalid="ignore"):
        R = np.triu(qr.factor(copy_rows)[:min(n, m)])
    if in_copy:
        copy[:] = A
    _, sv, Vt = np.linalg.svd(R, full_matrices=False)
    d = _rank(sv)
    if d == m:
        return RFactors(R=R, C=scipy.linalg.solve_triangular(R, np.eye(m)), rank=d)
    return RFactors(R=sv[:d, None] * Vt[:d], C=Vt[:d].T / sv[:d], rank=d)


def numeric_rank(A):
    """Numeric rank as read by r_factors; 0 for an all-zero matrix."""
    try:
        return r_factors(A).rank
    except ZeroRankError:
        return 0


def _gelsy_workspace(n, m):
    """Optimal gelsy workspace length for an n x m system with one
    right-hand side."""
    work, info = _GELSY_LWORK(n, m, 1, DEFAULT_RANK_TOL)
    if info != 0:
        raise ValueError(f"gelsy workspace query failed: info={info}")
    return int(work)


def _lstsq(A, b, lwork=None, overwrite=False):
    """min ||Ax - b||_2 by gelsy with cond = DEFAULT_RANK_TOL: the triangle
    solve of BlockedLstsq, which calls it on its min(n, m) x m triangle
    only.

    For a given A and b it returns bitwise what
    scipy.linalg.lstsq(lapack_driver="gelsy") does, but without that
    wrapper's validation and copies.  A (n x m) and b (n) must be finite
    float64.  lwork defaults to a fresh workspace query.
    overwrite lets gelsy factor A and b in place (A must then be
    F-ordered to avoid a copy).  The returned x may be a view of b's
    storage.
    """
    n, m = A.shape
    if lwork is None:
        lwork = _gelsy_workspace(n, m)
    if n < m:
        # gelsy writes the m-entry solution into b's storage
        b = np.concatenate([b, np.zeros(m - n)])
    _, x, _, _, info = _GELSY(
        A,
        b,
        np.zeros(m, dtype=np.int32),
        DEFAULT_RANK_TOL,
        lwork,
        overwrite_a=overwrite,
        overwrite_b=overwrite,
    )
    if info < 0:
        raise ValueError(f"illegal value in argument {-info} of gelsy")
    return x[:m]


class BlockedLstsq:
    """min ||M x - c||_2 for an n x m M, by a blocked QR of [M | c] (see
    the module docstring).

    Buffers and LAPACK workspace sizes are made once, at construction, so
    one instance serves every solve of the same shape.  solve(fill) lets
    fill(blk, out) write [M[blk] | c[blk]] into the F-ordered buffer out
    (rows x (m+1)); out is checked for finiteness and then overwritten by
    its QR, so fill may read it first.  solve_rows(M, c) copies the rows
    of given arrays.  Neither modifies M or c, and both raise ValueError
    on non-finite entries.  rank() reads M's numeric rank from the R of
    the last solve, so the rank costs no QR of its own.
    """

    def __init__(self, n, m):
        self.m = m
        self._qr = BlockedR(n, m + 1)
        self.blocks = self._qr.blocks
        # the triangle gelsy solves: min(n, m) rows of the final R
        t = min(n, m)
        self._tri = np.empty((t, m), order="F")
        self._below = np.tri(t, m, -1, dtype=bool)
        self._rhs = np.empty(t)
        self._gelsy_lwork = _gelsy_workspace(t, m)

    def solve(self, fill):
        def checked(blk, out):
            fill(blk, out)
            if not np.isfinite(out).all():
                raise ValueError("least-squares system contains non-finite entries")

        R = self._R = self._qr.factor(checked)
        tri, rhs = self._tri, self._rhs
        t = tri.shape[0]
        np.copyto(tri, R[:t, :self.m])
        tri[self._below] = 0.0
        np.copyto(rhs, R[:t, self.m])
        return _lstsq(tri, rhs, self._gelsy_lwork, overwrite=True).copy()

    def rank(self):
        """Numeric rank of the last solve's M, by r_factors' rule on the
        M-columns of its R, which are M's R: 0 for an all-zero M."""
        sv = np.linalg.svd(np.triu(self._R[:self._tri.shape[0], :self.m]), compute_uv=False)
        return 0 if sv[0] == 0.0 else _rank(sv)

    def solve_rows(self, M, c):
        m = self.m

        def copy_rows(blk, out):
            out[:, :m] = M[blk]
            out[:, m] = c[blk]

        return self.solve(copy_rows)
