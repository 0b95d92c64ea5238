"""Dense matrix/vector kernels and the norm family everything else uses.

All operations are pure functions of immutable inputs; p is a runtime
real with fast paths for p=1 and p=2.

The thin QR of a tall A is a tall-skinny QR (TSQR; Demmel, Grigori,
Hoemmen & Langou, arXiv:0808.2664): each cache-sized row block is
factored on its own, then the stacked block R factors once, and each
block's Q is multiplied by its slice of that small Q.  It is as backward
stable as one Householder QR of A, and its R has the same singular values
up to rounding, which the rank rule reads.  An A with fewer than two
blocks of rows takes one Householder QR.
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
from .errors import InvalidExponentError, ZeroRankError

DEFAULT_RANK_TOL = 1e-10
# Rows per TSQR block; the tail below one block joins the last block.
# Householder QR took 408 ms at 1,000,000 x 10 and 44 ms at 200,000 x 8;
# TSQR took 166, 169, 165 and 185 ms there, and 28, 26, 27 and 29 ms, at
# 2,048, 4,096, 8,192 and 16,384 rows per block.  An A that fits in the
# L2 cache (2 MB per core) gains nothing from blocks and pays two more
# passes over Q: at 20,000 x 8 Householder took 3.8-4.3 ms, blocks of
# 2,048 rows 3.9-4.6 ms and of 4,096 rows 4.2-5.3 ms.  At 16,384 rows such
# an A stays one block.  (Medians of alternating runs on fresh arrays,
# one BLAS thread, 2 vCPUs.)
_TSQR_ROWS = 16384


def _check_exponent(p):
    if not (p >= 1.0):
        raise InvalidExponentError(f"norm exponent must satisfy p >= 1, got {p}")


def as_matrix(M):
    """Validate and return a finite 2-D float64 array (n >= 1, m >= 1)."""
    A = np.asarray(M, dtype=np.float64)
    if A.ndim != 2 or A.shape[0] < 1 or A.shape[1] < 1:
        raise ValueError(f"expected a 2-D matrix, got shape {A.shape}")
    if not np.all(np.isfinite(A)):
        raise ValueError("matrix contains non-finite entries")
    return A


def as_vector(v):
    """Validate and return a finite 1-D float64 array."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError(f"expected a 1-D vector, got shape {x.shape}")
    if not np.all(np.isfinite(x)):
        raise ValueError("vector contains non-finite entries")
    return x


def vec_p_norm(v, p):
    """(sum_i |v_i|^p)^(1/p), scaled by max|v_i| so large p cannot overflow.

    v may be a matrix: its norm is then the entrywise p-norm, the norm of
    its flattened entries.

    p = inf is accepted so dual-norm evaluations can dispatch to the
    max-norm; any finite p must satisfy p >= 1.
    """
    if not math.isinf(p):
        _check_exponent(p)
    return kernels.pnorm(np.asarray(v, dtype=np.float64), float(p))


def dual_exponent(p):
    """q with 1/p + 1/q = 1; p = 1 maps to +inf (max-norm dispatch)."""
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
    """Economic QR with numeric rank detection.

    A has one Householder QR, or a TSQR of its row blocks when it has at
    least two blocks of _TSQR_ROWS rows (see the module docstring).
    rank = number of singular values of the small factor R (which are
    those of A) exceeding DEFAULT_RANK_TOL * sigma_1.  A rank-deficient
    Q is rotated onto the leading left singular vectors of R, so one
    factorization of A serves every case.  Raises ZeroRankError for an
    all-zero matrix.
    """
    return _qr_factors(as_matrix(A))


def _qr_factors(A):
    """qr_thin of an A that as_matrix has already validated."""
    Q, R = _economic_qr(A)
    U_R, sv, _ = np.linalg.svd(R, full_matrices=False)
    if sv[0] == 0.0:
        raise ZeroRankError("matrix has numeric rank 0")
    d = int(np.sum(sv > DEFAULT_RANK_TOL * sv[0]))
    if d < min(A.shape):
        Q = Q @ U_R[:, :d]
        R = Q.T @ A
    return QRFactors(Q=Q, R=R, rank=d)


def _economic_qr(A):
    """(Q, R) of A: one scipy.linalg.qr call below two blocks of rows,
    else a TSQR that writes Q into one Fortran-ordered n x m array."""
    n, m = A.shape
    rows = max(_TSQR_ROWS, m)  # a block needs m rows for an m x m R
    k = n // rows
    if k < 2:
        return scipy.linalg.qr(A, mode="economic", check_finite=False)
    blocks = [slice(i * rows, n if i == k - 1 else (i + 1) * rows) for i in range(k)]
    Q = np.empty((n, m), order="F")
    stacked = np.empty((k * m, m))
    for i, blk in enumerate(blocks):
        Q[blk], stacked[i * m:(i + 1) * m] = scipy.linalg.qr(
            A[blk], mode="economic", check_finite=False
        )
    Q_s, R = scipy.linalg.qr(stacked, mode="economic", check_finite=False)
    for i, blk in enumerate(blocks):
        Q[blk] = Q[blk] @ Q_s[i * m:(i + 1) * m]
    return Q, R


def numeric_rank(A):
    """Numeric rank as read by qr_thin; 0 for an all-zero matrix."""
    try:
        return qr_thin(A).rank
    except ZeroRankError:
        return 0
