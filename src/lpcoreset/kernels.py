"""Hot kernels: row p-norms and p-th power sums, probability ratios, counter
RNG and its Bernoulli draws, blocked residual norms, smoothed power weights.

Each kernel allocates one working array (the ``np.abs`` result, the
scaled ratios, ``r*r``) and does the rest of its work in place on it, so
callers' arrays are never modified.  A step that needs a second operand
of full size (the power chain at 1.5) uses one temporary array.  The
counter mix, ``row_powsums``, ``clipped_shares`` and ``residual_pnorm``
are the exceptions: they work on buffers of one block of rows
(``_COUNTER_CHUNK`` draws, or a block of ``row_blocks``) and write each
block's result into the output.  Whatever else such a loop needs of a
block (the draws' range check and expected count, the stage-2 scaling
and clipping) it does while the block is in cache, not in a pass of its
own.

The p=2 norms are guarded instead of scaled: ``pnorm`` and ``row_pnorms``
take the unscaled sum of squares in one pass over the input, with no
``np.abs`` copy.  Only a sum outside ``[_SQ_LO, _SQ_HI]`` (overflowed,
possibly underflowed, zero or NaN) is redone by the max-scaled code the
other exponents use, so the result is as exact as the scaled one.
``row_powsums`` applies the same guard at every p: each row's unscaled
``sum_j |m_ij|^p`` is kept when it lies in that range, and only the
other rows are redone as their max-scaled p-norms raised to p.
``residual_pnorm`` guards the total of its blocks the same way.

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
# Rows per block of row_powsums, clipped_shares and residual_pnorm, the
# block height of the TSQR in linalg: a 16,384 x 10 block of doubles
# (1.3 MB) stays in the L2 cache while the block's passes run.  Keep it a
# multiple of 4: OpenBLAS computed each row of the block products
# A[blk] @ x bitwise as in A @ x at heights 16,384, 256 and 100, but not
# at 7, on row-major and on column-major A (1,000,000 x 10 and
# 200,000 x 8).
_ROW_BLOCK = 16384
# A sum s of p-th powers (at p=2, of squares) needs no scaling when
# _SQ_LO <= s <= _SQ_HI: a finite s had no power overflow, and each power
# that underflowed is below 2^-1022 = 2^-122 * _SQ_LO, far below the last
# bit of s.
_SQ_LO = 2.0 ** -900
_SQ_HI = float(np.finfo(np.float64).max)


def row_blocks(n):
    """Slices of _ROW_BLOCK rows covering n rows, the tail below one block
    joined to the last block, as the TSQR in linalg splits A."""
    k = max(1, n // _ROW_BLOCK)
    return [slice(i * _ROW_BLOCK, n if i == k - 1 else (i + 1) * _ROW_BLOCK) for i in range(k)]


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


def row_powsums(M, p, cols=None):
    """Per-row sums sum_j |m_ij|^p of a 2-D array, for a finite p >= 1.

    With cols (k x d), the sums are those of the rows of M @ cols, whose
    blocks M[blk] @ cols are formed one at a time and never as a whole.
    The sums are taken unscaled in the blocks of row_blocks (at p=2 one
    einsum per block, so the last bits may depend on M's memory order);
    a sum outside [_SQ_LO, _SQ_HI] is redone as the row's max-scaled
    p-norm raised to p (see the module docstring).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("row_powsums expects a 2-D array")
    if not (1.0 <= p < math.inf):
        raise ValueError(f"row_powsums needs a finite p >= 1, got {p}")

    def rows(idx):
        return M[idx] if cols is None else M[idx] @ cols

    n, k = M.shape[0], M.shape[1] if cols is None else cols.shape[1]
    out = np.zeros(n)
    if k == 0:
        return out
    blocks = row_blocks(n)
    buf = _powsum_buffer(blocks, k, p)
    with np.errstate(over="ignore"):
        for blk in blocks:
            _block_powsums(rows(blk), p, out[blk], buf)
    if out.min(initial=_SQ_LO) >= _SQ_LO and out.max(initial=0.0) <= _SQ_HI:
        return out
    bad = np.flatnonzero(~((out >= _SQ_LO) & (out <= _SQ_HI)))
    with np.errstate(over="ignore"):
        out[bad] = _scaled_row_pnorms(np.abs(rows(bad)), p) ** p
    return out


def _powsum_buffer(blocks, k, p):
    """_block_powsums' work array for blocks of k columns (None at p=2)."""
    return None if p == 2.0 else np.empty((blocks[-1].stop - blocks[-1].start, k), order="F")


def _block_powsums(m, p, out, buf):
    """The unscaled row sums of |m_ij|^p of the 2-D block m, written into
    out; at p != 2 and more than one column, |m| is raised to p in buf.
    A single column's powers are formed in out itself: the same values,
    where einsum over rows of one entry took 15 times as long."""
    if m.shape[1] == 1:
        v = m[:, 0]
        if p == 2.0:
            np.multiply(v, v, out=out)
        else:
            _pow_inplace(np.abs(v, out=out), p)
    elif p == 2.0:
        np.einsum("ij,ij->i", m, m, out=out)
    else:
        np.sum(_pow_inplace(np.abs(m, out=buf[:m.shape[0]]), p), axis=1, out=out)


def clipped_shares(M, p, scale, floor):
    """min(1, max(floor_i, scale * s_i / sum_j s_j)), s = row_powsums(M, p),
    for a finite p >= 1; a vector M's rows are its entries.

    Two passes in the blocks of row_blocks, with no n-length array but
    the result: the first writes each block's unscaled row sums into the
    result, and the second scales and clips each block in place.  Their
    total is the whole result's sum, as powsum_shares takes it, so the
    shares do not depend on the block height.  A total outside
    [_SQ_LO, _SQ_HI] gives powsum_shares' max-scaled shares, clipped the
    same way.  With the total inside it, no row is redone: a row whose
    sum underflowed has a share below 2^-122.  An all-zero M raises
    ValueError.
    """
    M = np.asarray(M, dtype=np.float64)
    M = M.reshape(M.shape[0], -1)
    blocks = row_blocks(M.shape[0])
    buf = _powsum_buffer(blocks, M.shape[1], p)
    out = np.empty(M.shape[0])
    with np.errstate(over="ignore"):
        for blk in blocks:
            _block_powsums(M[blk], p, out[blk], buf)
    total = float(out.sum())
    if not (_SQ_LO <= total <= _SQ_HI):
        if not M.any():
            raise ValueError("clipped_shares: all rows are zero")
        out = powsum_shares(M, p, out, scale)
        return np.clip(out, floor, 1.0, out=out)
    div = total / scale
    for blk in blocks:
        s = out[blk]
        s /= div
        np.maximum(s, floor[blk], out=s)
        np.minimum(s, 1.0, out=s)
    return out


def powsum_shares(M, p, sums, scale=1.0):
    """Each row's share scale * sums_i / sum_j sums_j of sums =
    row_powsums(M, p), computed in place on sums.

    A total outside [_SQ_LO, _SQ_HI] (at large p, or at extreme scales)
    means rows were lost to under- or overflow; the shares are then the
    max-scaled scale * powsum_ratios(row_pnorms(M, p), p) instead.
    """
    total = float(sums.sum())
    if _SQ_LO <= total <= _SQ_HI:
        sums /= total / scale
        return sums
    shares = powsum_ratios(row_pnorms(M, p), p)
    shares *= scale
    return shares


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


def _counter_chunks(seed, n):
    """Yield (lo, u) for each chunk of the first n draws keyed by seed:
    u holds draws lo, lo + 1, ... in one buffer that the next chunk
    overwrites."""
    size = min(n, _COUNTER_CHUNK)
    # state of draw lo + j + 1 is (j + 1) * golden + seed + lo * golden
    first = np.arange(1, size + 1, dtype=np.uint64)
    first *= _GOLDEN
    first += _U64(seed & _MASK64)
    x = np.empty_like(first)
    t = np.empty_like(first)
    u = np.empty(size)
    for lo in range(0, n, _COUNTER_CHUNK):
        h = min(n - lo, size)
        xs, ts = x[:h], t[:h]
        np.add(first[:h], _U64(lo * int(_GOLDEN) & _MASK64), out=xs)
        xs ^= np.right_shift(xs, _S30, out=ts)
        xs *= _MIX1
        xs ^= np.right_shift(xs, _S27, out=ts)
        xs *= _MIX2
        xs ^= np.right_shift(xs, _S31, out=ts)
        np.multiply(np.right_shift(xs, _S11, out=xs), _INV53, out=u[:h])
        yield lo, u[:h]


def counter_uniforms(seed, n):
    """n uniforms in [0,1) from a splitmix64 counter stream keyed by seed.

    Draw i depends only on (seed, i), so plans are reproducible and
    row-parallel.  The stream is mixed in chunks of _COUNTER_CHUNK draws
    copied into the one output array.
    """
    u = np.empty(n)
    for lo, chunk in _counter_chunks(seed, n):
        u[lo:lo + chunk.size] = chunk
    return u


def counter_bernoulli(seed, probs):
    """(idx, total): the indices i with u_i < probs[i], u =
    counter_uniforms(seed, n), and the sum of probs.

    Each chunk of draws is compared with its probabilities as it is
    mixed, and those probabilities are checked and added to the total
    while they are in cache, so probs is read once and no n-length array
    of uniforms is built.  The indices are bitwise
    np.flatnonzero(counter_uniforms(seed, n) < probs).  A probability
    that is NaN or outside [0, 1] raises ValueError.
    """
    hits = []
    total = 0.0
    for lo, u in _counter_chunks(seed, probs.shape[0]):
        chunk = probs[lo:lo + u.size]
        # NaN fails both comparisons, since min and max propagate it
        if not (chunk.min() >= 0.0 and chunk.max() <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        total += float(chunk.sum())
        hits.append(np.flatnonzero(u < chunk) + lo)
    idx = np.concatenate(hits) if hits else np.zeros(0, dtype=np.intp)
    return idx, total


def residual_pnorm(A, x, b, p, out=None, at=None):
    """||A x - b||_p, the entrywise norm when x and b are matrices,
    computed in the blocks of row_blocks for a finite p >= 1.

    Each block's residual A[blk] @ x - b[blk] is bitwise that block of
    A @ x - b (see _ROW_BLOCK) and is written into out[blk] when out is
    given; otherwise no n-length array is built.  The blocks' sums of
    |r|^p are added unscaled, and a total outside [_SQ_LO, _SQ_HI] is
    redone by pnorm on the whole residual (formed again if out is None).
    Pass a column-major A: at 1,000,000 x 10, p=2, the pass took 7.7-9.6
    ms on one, against 15-16 ms on a row-major A, whose block GEMVs
    OpenBLAS runs at half the speed (one BLAS thread, 2 vCPUs).

    With at, an m x 2 array, for an n x m A and a vector b, each block
    also adds A[blk]^T [r | b[blk]] into at while it is in cache:
    the least-squares gradient at x and A^T b, in the same pass.  One GEMM
    per block gives both: at 1,000,000 x 10 the pass took 9.2 ms on a
    column-major A, against 10.8 ms by two GEMVs per block and 6.5 ms
    with no at (medians of 15, one BLAS thread, 2 vCPUs).
    """
    blocks = row_blocks(A.shape[0])
    rows = A.shape[0] - blocks[-1].start
    if at is not None:
        # F-ordered [r | b[blk]], the right-hand side of the block's GEMM
        buf = np.empty((2, rows)).T
        res = buf[:, 0]
    elif out is None:
        res = np.empty((rows,) + b.shape[1:])
    tmp = np.empty(rows * (b.shape[1] if b.ndim == 2 else 1)) if p != 2.0 else None
    total = 0.0
    with np.errstate(over="ignore"):
        for blk in blocks:
            a, h = A[blk], blk.stop - blk.start
            r = res[:h] if out is None else out[blk]
            np.matmul(a, x, out=r)
            r -= b[blk]
            v = r.reshape(-1)
            if p == 2.0:
                total += float(v @ v)
            else:
                total += float(_pow_inplace(np.abs(v, out=tmp[:v.size]), p).sum())
            if at is not None:
                if out is not None:
                    buf[:h, 0] = r
                buf[:h, 1] = b[blk]
                at += a.T @ buf[:h]
    if _SQ_LO <= total <= _SQ_HI:
        return math.sqrt(total) if p == 2.0 else total ** (1.0 / p)
    if out is None:
        out = A @ x
        out -= b
    return pnorm(out, p)


def smoothed_power_weights(residuals, mu, p):
    """Weights (r_i^2 + mu^2)^((p-2)/2) of the smoothed p-th power loss, from
    which the solver builds its derivatives."""
    r = np.asarray(residuals, dtype=np.float64)
    w = r * r
    w += mu * mu
    return _pow_inplace(w, (p - 2.0) / 2.0)
