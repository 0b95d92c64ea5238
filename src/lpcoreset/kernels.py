"""Hot kernels: row p-norms, probability ratios, counter RNG, IRLS weights.

Each kernel allocates one working array (the ``np.abs`` result, the
scaled ratios, the counter array, ``r*r``) and does the rest of its work
in place on it, so callers' arrays are never modified.  A step that needs
a second operand of full size (the power chain at 1.5, the xor-shifts of
the counter mix) uses one temporary array.
"""
import numpy as np

BACKEND = "python"

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)
_INV53 = 2.0 ** -53


def _pow_inplace(a, e):
    """Raise the nonnegative float64 array a to the power e in place.

    The exponents the benchmark workloads measured take multiply/sqrt
    chains: 2 (a*a) and 1.5 (a*sqrt(a)), the p of tall-p2 and tall-p1.5.
    Every other exponent goes through np.power.
    """
    if e == 2.0:
        np.multiply(a, a, out=a)
    elif e == 1.5:
        a *= np.sqrt(a)
    else:
        np.power(a, e, out=a)
    return a


def pnorm(v, p):
    """Entrywise p-norm of a 1-D array, scaled by max|v| to avoid overflow."""
    a = np.abs(np.asarray(v, dtype=np.float64).ravel())
    if a.size == 0:
        return 0.0
    if p == 1.0:
        return float(a.sum())
    m = float(a.max())
    if m == 0.0 or np.isinf(p):
        return m
    a /= m
    if p == 2.0:
        return m * float(np.sqrt(a @ a))
    return m * float(_pow_inplace(a, p).sum()) ** (1.0 / p)


def row_pnorms(M, p):
    """Per-row p-norms of a 2-D array, each row scaled by its own max."""
    a = np.abs(np.asarray(M, dtype=np.float64))
    if a.ndim != 2:
        raise ValueError("row_pnorms expects a 2-D array")
    if a.shape[1] == 0:
        return np.zeros(a.shape[0])
    if p == 1.0:
        return a.sum(axis=1)
    m = a.max(axis=1)
    if np.isinf(p):
        return m
    a /= np.where(m > 0.0, m, 1.0)[:, None]
    if p == 2.0:
        out = np.sqrt(np.einsum("ij,ij->i", a, a))
    else:
        out = _pow_inplace(a, p).sum(axis=1) ** (1.0 / p)
    return np.where(m > 0.0, m * out, 0.0)


def powsum_ratios(vals, p):
    """Normalized powers vals_i^p / sum_j vals_j^p.

    vals must be nonnegative with at least one strictly positive entry;
    computed after dividing by max(vals) so large p cannot overflow.
    """
    a = np.asarray(vals, dtype=np.float64)
    t = float(a.max()) if a.size else 0.0
    if t <= 0.0:
        raise ValueError("powsum_ratios: all values are zero")
    r = _pow_inplace(a / t, p)
    r /= float(r.sum())
    return r


def counter_uniforms(seed, n):
    """n uniforms in [0,1) from a splitmix64 counter stream keyed by seed.

    Draw i depends only on (seed, i), so plans are reproducible and
    row-parallel.
    """
    x = np.arange(1, n + 1, dtype=np.uint64)
    x *= _GOLDEN
    x += _U64(seed & 0xFFFFFFFFFFFFFFFF)
    t = np.empty_like(x)
    x ^= np.right_shift(x, _S30, out=t)
    x *= _MIX1
    x ^= np.right_shift(x, _S27, out=t)
    x *= _MIX2
    x ^= np.right_shift(x, _S31, out=t)
    del t
    u = np.right_shift(x, _S11, out=x).astype(np.float64)
    u *= _INV53
    return u


def smoothed_power_weights(residuals, mu, p):
    """IRLS weights (r_i^2 + mu^2)^((p-2)/2) for the smoothed p-th power loss."""
    r = np.asarray(residuals, dtype=np.float64)
    w = r * r
    w += mu * mu
    return _pow_inplace(w, (p - 2.0) / 2.0)
