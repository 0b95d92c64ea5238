"""Dense matrix/vector kernels and the norm family everything else uses.

All operations are pure functions of immutable inputs; p is a runtime
real with fast paths for p=1 and p=2.
"""
import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from . import kernels
from .errors import InvalidExponentError, ZeroRankError

DEFAULT_RANK_TOL = 1e-10


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
    full-rank inputs R is upper-trapezoidal; for rank-deficient inputs Q
    spans the top d left singular vectors of A and R = Q.T @ A.
    """

    Q: np.ndarray
    R: np.ndarray
    rank: int


def qr_thin(A):
    """Economic Householder QR with numeric rank detection.

    rank = number of singular values of the small factor R (which are
    those of A) exceeding DEFAULT_RANK_TOL * sigma_1.  A rank-deficient
    Q is rotated onto the leading left singular vectors of R, so one
    factorization of A serves every case.  Raises ZeroRankError for an
    all-zero matrix.
    """
    return _qr_factors(as_matrix(A))


def _qr_factors(A):
    """qr_thin of an A that as_matrix has already validated."""
    Q, R = scipy.linalg.qr(A, mode="economic", check_finite=False)
    U_R, sv, _ = np.linalg.svd(R, full_matrices=False)
    if sv[0] == 0.0:
        raise ZeroRankError("matrix has numeric rank 0")
    d = int(np.sum(sv > DEFAULT_RANK_TOL * sv[0]))
    if d < min(A.shape):
        Q = Q @ U_R[:, :d]
        R = Q.T @ A
    return QRFactors(Q=Q, R=R, rank=d)


def numeric_rank(A):
    """Numeric rank as read by qr_thin; 0 for an all-zero matrix."""
    try:
        return qr_thin(A).rank
    except ZeroRankError:
        return 0
