"""Hot kernels: row p-norms, probability ratios, counter RNG, smoothed power weights.

Each kernel allocates one working array (the ``np.abs`` result, the
scaled ratios, ``r*r``) and does the rest of its work in place on it, so
callers' arrays are never modified.  A step that needs a second operand
of full size (the power chain at 1.5) uses one temporary array.  The
counter mix is the exception: it works on chunk-sized counter and
temporary arrays and writes each chunk's uniforms into the output.

The p=2 norms are guarded instead of scaled: ``pnorm`` and ``row_pnorms``
take the unscaled sum of squares in one pass over the input, with no
``np.abs`` copy.  Only a sum outside ``[_SQ_LO, _SQ_HI]`` (overflowed,
possibly underflowed, zero or NaN) is redone by the max-scaled code the
other exponents use, so the result is as exact as the scaled one.

Non-finite input follows ``math.hypot`` at every p: an infinity gives
inf, else a NaN gives NaN.  Only a row whose max (at p=1, its sum) is not
finite is looked at again, so finite input pays no extra pass.
"""
import math

import numpy as np

BACKEND = "python"

_U64 = np.uint64
_GOLDEN = _U64(0x9E3779B97F4A7C15)
_MIX1 = _U64(0xBF58476D1CE4E5B9)
_MIX2 = _U64(0x94D049BB133111EB)
_S30, _S27, _S31, _S11 = _U64(30), _U64(27), _U64(31), _U64(11)
_INV53 = 2.0 ** -53
_MASK64 = 0xFFFFFFFFFFFFFFFF
# Draws per chunk of counter_uniforms; its three uint64 working arrays
# (the first chunk's states, the chunk and a temporary) are 128 KB each.
# 1,000,000 draws took 6.4-6.6 ms in chunks of 16,384, against 9.0 ms at
# 4,096, 6.2-6.5 ms at 32,768, 7.1-7.8 ms at 65,536 and 14.5-16.8 ms over
# whole-length arrays (medians of 40 alternating calls, two runs, 2 vCPUs).
_COUNTER_CHUNK = 16384
# A p=2 sum of squares s needs no scaling when _SQ_LO <= s <= _SQ_HI: a
# finite s had no square overflow, and each square that underflowed is
# below 2^-1022 = 2^-122 * _SQ_LO, far below the last bit of s.
_SQ_LO = 2.0 ** -900
_SQ_HI = float(np.finfo(np.float64).max)


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
    """Entrywise p-norm of a 1-D array, scaled by max|v| to avoid overflow.

    At p=2 the unscaled sum of squares is kept when it is safe (see the
    module docstring).
    """
    v = np.asarray(v, dtype=np.float64).ravel()
    if p == 2.0:
        with np.errstate(over="ignore"):
            s = float(v @ v)
        if _SQ_LO <= s <= _SQ_HI:
            return math.sqrt(s)
    a = np.abs(v)
    if a.size == 0:
        return 0.0
    m = float(a.sum() if p == 1.0 else a.max())
    if not math.isfinite(m):
        return float(_nonfinite_norms(a[None, :])[0])
    if p == 1.0 or m == 0.0 or np.isinf(p):
        return m
    a /= m
    if p == 2.0:
        return m * float(np.sqrt(a @ a))
    return m * float(_pow_inplace(a, p).sum()) ** (1.0 / p)


def row_pnorms(M, p):
    """Per-row p-norms of a 2-D array, each row scaled by its own max.

    At p=2 each row's unscaled sum of squares is kept when it is safe
    (see the module docstring); only the other rows are scaled.
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("row_pnorms expects a 2-D array")
    if M.shape[1] == 0:
        return np.zeros(M.shape[0])
    if p != 2.0:
        return _scaled_row_pnorms(np.abs(M), p)
    with np.errstate(over="ignore"):
        s = np.einsum("ij,ij->i", M, M)
    if s.min(initial=_SQ_LO) >= _SQ_LO and s.max(initial=0.0) <= _SQ_HI:
        return np.sqrt(s, out=s)
    bad = np.flatnonzero(~((s >= _SQ_LO) & (s <= _SQ_HI)))
    out = np.sqrt(s, out=s)
    out[bad] = _scaled_row_pnorms(np.abs(M[bad]), 2.0)
    return out


def _scaled_row_pnorms(a, p):
    """Row p-norms of the nonnegative array a, each row divided in place
    by its own max; a row whose max is 0 reads 0.  Rows whose max (at p=1,
    sum) is not finite are zeroed first and read _nonfinite_norms."""
    m = a.sum(axis=1) if p == 1.0 else a.max(axis=1)
    bad = np.flatnonzero(~np.isfinite(m))
    if bad.size:
        nonfinite = _nonfinite_norms(a[bad])
        a[bad] = 0.0
        m[bad] = 0.0
    if p == 1.0 or np.isinf(p):
        out = m
    else:
        a /= np.where(m > 0.0, m, 1.0)[:, None]
        if p == 2.0:
            out = np.sqrt(np.einsum("ij,ij->i", a, a))
        else:
            out = _pow_inplace(a, p).sum(axis=1) ** (1.0 / p)
        out = np.where(m > 0.0, m * out, 0.0)
    if bad.size:
        out[bad] = nonfinite
    return out


def _nonfinite_norms(R):
    """Norms of rows that hold inf or NaN, or whose finite sum overflowed,
    as math.hypot gives them: NaN for a row with a NaN and no inf, else inf."""
    return np.where(np.isnan(R).any(axis=1) & ~np.isinf(R).any(axis=1), np.nan, np.inf)


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
    row-parallel.  The stream is mixed in chunks of _COUNTER_CHUNK draws
    written into the one output array.
    """
    u = np.empty(n)
    size = min(n, _COUNTER_CHUNK)
    # state of draw lo + j + 1 is (j + 1) * golden + seed + lo * golden
    first = np.arange(1, size + 1, dtype=np.uint64)
    first *= _GOLDEN
    first += _U64(seed & _MASK64)
    x = np.empty_like(first)
    t = np.empty_like(first)
    for lo in range(0, n, _COUNTER_CHUNK):
        h = min(n - lo, size)
        xs, ts = x[:h], t[:h]
        np.add(first[:h], _U64(lo * int(_GOLDEN) & _MASK64), out=xs)
        xs ^= np.right_shift(xs, _S30, out=ts)
        xs *= _MIX1
        xs ^= np.right_shift(xs, _S27, out=ts)
        xs *= _MIX2
        xs ^= np.right_shift(xs, _S31, out=ts)
        np.multiply(np.right_shift(xs, _S11, out=xs), _INV53, out=u[lo:lo + h])
    return u


def smoothed_power_weights(residuals, mu, p):
    """Weights (r_i^2 + mu^2)^((p-2)/2) of the smoothed p-th power loss, from
    which the solver builds its derivatives."""
    r = np.asarray(residuals, dtype=np.float64)
    w = r * r
    w += mu * mu
    return _pow_inplace(w, (p - 2.0) / 2.0)
