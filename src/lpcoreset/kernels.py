"""Hot kernels: row p-norms and p-th power sums, probability ratios, counter
RNG and its Bernoulli draws against chunk rules, blocked residual norms,
smoothed power weights.

Each kernel allocates one working array (the ``np.abs`` result, the
scaled ratios, ``r*r``) and does the rest of its work in place on it, so
callers' arrays are never modified.  A step that needs a second operand
of full size (the power chain at 1.5) uses one temporary array.  The
counter mix, ``row_powsums``, ``counter_bernoulli``, ``ChunkRule.whole``
and ``residual_pnorm`` are the exceptions: they walk the row blocks of
``row_blocks``, the blocks of the TSQR in linalg too, on buffers of the
tallest block, and write each block's result into the output.  Whatever
else such a loop needs of a block it does while the block is in cache,
not in a pass of its own: the draws form each block's probabilities by a
chunk rule (``ScaledShares``, ``ClippedShares``) just before comparing
them and sum the expected count, and the residual pass sums ``|r|^p``,
the total that stage 2's shares divide by.  So a draw's chunks are the
residual pass's blocks.  A chunk rule is the library's one form of a
sampling probability: no n-length array of probabilities is made unless
a caller asks for one (``ChunkRule.whole``).

``_block_powsums`` is the one kernel that sums a row's ``|m_ij|^p``.  No
kernel takes a column map: conditioning alone forms the row blocks of
T = A C.

The p=2 norms are guarded instead of scaled: ``pnorm`` and ``row_pnorms``
take the unscaled sum of squares in one pass over the input, with no
``np.abs`` copy.  Only a sum outside ``[_SQ_LO, _SQ_HI]`` (overflowed,
possibly underflowed, zero or NaN) is redone by the max-scaled code the
other exponents use, so the result is as exact as the scaled one.
``row_powsums`` applies the same guard at every p: each row's unscaled
``sum_j |m_ij|^p`` is kept when it lies in that range, and only the
other rows are redone as their max-scaled p-norms raised to p.
``residual_pnorm`` and ``ClippedShares`` guard the total of the
residual's blocks the same way.

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
# Rows per block of row_blocks, which every loop over n rows walks (the
# draws and chunk rules, row_powsums, residual_pnorm, the TSQR in linalg):
# a 16,384 x 10 block of doubles (1.3 MB) stays in the L2 cache while the
# block's passes run.  Keep it a multiple of 4: OpenBLAS computed each row
# of the block products A[blk] @ x bitwise as in A @ x at heights 16,384,
# 256 and 100, but not at 7, on row-major and on column-major A
# (1,000,000 x 10 and 200,000 x 8).  1,000,000 draws took 6.4-6.6 ms in
# chunks of 16,384, against 9.0 ms at 4,096, 6.2-6.5 ms at 32,768, 7.1-7.8
# ms at 65,536 and 14.5-16.8 ms over whole-length arrays.  A Q-and-R TSQR
# took 166, 169, 165 and 185 ms at 1,000,000 x 10 and 28, 26, 27 and 29 ms
# at 200,000 x 8 in blocks of 2,048, 4,096, 8,192 and 16,384 rows, against
# 408 and 44 ms by one Householder QR; at 20,000 x 8, which fits in the L2
# cache (2 MB per core), blocks gained nothing (Householder 3.8-4.3 ms,
# blocks of 2,048 and 4,096 rows 3.9-4.6 and 4.2-5.3 ms), and at 16,384
# rows such an A stays one block.  (Medians of alternating calls, one BLAS
# thread, 2 vCPUs.)
_ROW_BLOCK = 16384
# residual_pnorm adds |r|^p at p != 2 in groups of _SUM_ROWS rows from
# row 0, then adds the groups' sums, so its total does not depend on the
# block height where that is a multiple of _SUM_ROWS, as _ROW_BLOCK is.
_SUM_ROWS = 256
# A sum s of p-th powers (at p=2, of squares) needs no scaling when
# _SQ_LO <= s <= _SQ_HI: a finite s had no power overflow, and each power
# that underflowed is below 2^-1022 = 2^-122 * _SQ_LO, far below the last
# bit of s.
_SQ_LO = 2.0 ** -900
_SQ_HI = float(np.finfo(np.float64).max)


def row_blocks(n, height=None):
    """Slices of height rows (_ROW_BLOCK by default) covering n rows, the
    tail below one block joined to the last block, the tallest."""
    h = _ROW_BLOCK if height is None else height
    k = max(1, n // h)
    return [slice(i * h, n if i == k - 1 else (i + 1) * h) for i in range(k)]


def _pow_inplace(a, e):
    """Raise the nonnegative float64 array a to the power e in place.

    1.5 (a*sqrt(a)), the p of tall-p1.5, 2 (a*a) and 3 (a*a*a, within an
    ulp of np.power on normal draws; 41 against 121 us on a 4,096 x 10
    block, 2 vCPUs) take multiply/sqrt chains, and 1 returns a as it is:
    np.power(a, 1.0) returns a bitwise, and its pass took 6 of 26.5 ms of
    the row power sums of T at 1,000,000 x 10 (one BLAS thread).  Every
    other exponent goes through np.power.  A line trace of the benchmark
    workloads reaches this only at 1.5 and through np.power: their p=2
    sums are einsums and dot products.
    """
    if e == 1.0:
        return a
    if e == 2.0:
        np.multiply(a, a, out=a)
    elif e == 1.5:
        a *= np.sqrt(a)
    elif e == 3.0:
        a *= a * a
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
        out = np.empty(a.shape[0])
        _block_powsums(a, p, out, a)
        out = np.sqrt(out) if p == 2.0 else out ** (1.0 / p)
        out = np.where(m > 0.0, m * out, 0.0)
    if bad.size:
        out[bad] = nonfinite
    return out


def _nonfinite_norms(R):
    """Norms of rows that hold inf or NaN, or whose finite sum overflowed,
    as math.hypot gives them: NaN for a row with a NaN and no inf, else inf."""
    return np.where(np.isnan(R).any(axis=1) & ~np.isinf(R).any(axis=1), np.nan, np.inf)


def row_powsums(M, p):
    """Per-row sums sum_j |m_ij|^p of a 2-D array, for a finite p >= 1:
    the tests' reference, as linalg.qr_thin is; no library path calls it.

    The sums are taken unscaled by _block_powsums in the blocks of
    row_blocks (at p=2 one einsum per block, so the last bits may depend
    on M's memory order); a sum outside [_SQ_LO, _SQ_HI] is redone as the
    row's max-scaled p-norm raised to p (see the module docstring).
    """
    M = np.asarray(M, dtype=np.float64)
    if M.ndim != 2:
        raise ValueError("row_powsums expects a 2-D array")
    if not (1.0 <= p < math.inf):
        raise ValueError(f"row_powsums needs a finite p >= 1, got {p}")
    n, k = M.shape
    out = np.zeros(n)
    if k == 0:
        return out
    blocks = row_blocks(n)
    buf = _powsum_buffer(blocks, k, p)
    with np.errstate(over="ignore"):
        for blk in blocks:
            _block_powsums(M[blk], p, out[blk], buf)
    if out.min(initial=_SQ_LO) >= _SQ_LO and out.max(initial=0.0) <= _SQ_HI:
        return out
    bad = np.flatnonzero(~((out >= _SQ_LO) & (out <= _SQ_HI)))
    with np.errstate(over="ignore"):
        out[bad] = _scaled_row_pnorms(np.abs(M[bad]), p) ** p
    return out


def _powsum_buffer(blocks, k, p):
    """_block_powsums' work array for blocks of k columns (None at p=2 or
    for one column, neither of which uses it)."""
    if p == 2.0 or k == 1:
        return None
    return np.empty((blocks[-1].stop - blocks[-1].start, k), order="F")


def _block_powsums(m, p, out, buf):
    """The unscaled row sums of |m_ij|^p of the 2-D block m, written into
    out.  At p != 2 and more than one column, |m| is raised to p in buf
    (m itself may serve) and summed by a GEMV with ones: at p=1.5, 44, 62
    and 43 us on C-ordered 3,072 x 8 and 16,384 x 2 and F-ordered 3,072 x
    8 blocks, against 102, 305 and 47 us by np.sum.  At p=2 einsum is the
    faster (10 against 15 us, F-ordered 3,072 x 8; 2 vCPUs, one BLAS
    thread).  One column's powers are formed in out itself: the same
    values, where einsum over rows of one entry took 15 times as long."""
    if m.shape[1] == 1:
        v = m[:, 0]
        if p == 2.0:
            np.multiply(v, v, out=out)
        else:
            _pow_inplace(np.abs(v, out=out), p)
    elif p == 2.0:
        np.einsum("ij,ij->i", m, m, out=out)
    else:
        np.matmul(_pow_inplace(np.abs(m, out=buf[:m.shape[0]]), p), np.ones(m.shape[1]), out=out)


def powsum_shares(M, p, sums):
    """Each row's share sums_i / sum_j sums_j of sums, the row sums
    sum_j |m_ij|^p, computed in place on sums.

    A total outside [_SQ_LO, _SQ_HI] (at large p, or at extreme scales)
    means rows were lost to under- or overflow; the shares are then the
    max-scaled powsum_ratios(row_pnorms(M, p), p) instead.
    """
    total = float(sums.sum())
    if _SQ_LO <= total <= _SQ_HI:
        sums /= total
        return sums
    return powsum_ratios(row_pnorms(M, p), p)


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


def _counter_chunks(seed, blocks):
    """Yield (blk, u) for each block of blocks = row_blocks(n): u holds
    the draws of rows blk keyed by seed, in one buffer of the last,
    tallest block that the next block overwrites."""
    size = blocks[-1].stop - blocks[-1].start
    # state of draw lo + j + 1 is (j + 1) * golden + seed + lo * golden
    first = np.arange(1, size + 1, dtype=np.uint64)
    first *= _GOLDEN
    first += _U64(seed & _MASK64)
    x = np.empty_like(first)
    t = np.empty_like(first)
    u = np.empty(size)
    for blk in blocks:
        lo, h = blk.start, blk.stop - blk.start
        xs, ts = x[:h], t[:h]
        np.add(first[:h], _U64(lo * int(_GOLDEN) & _MASK64), out=xs)
        xs ^= np.right_shift(xs, _S30, out=ts)
        xs *= _MIX1
        xs ^= np.right_shift(xs, _S27, out=ts)
        xs *= _MIX2
        xs ^= np.right_shift(xs, _S31, out=ts)
        # the top 53 bits convert exactly through the signed view: 6.0-7.1
        # ms per 1,000,000 draws, against 6.6-7.4 ms by the unsigned
        # conversion (medians of 30 alternating calls, AVX-512 Xeon, 2 vCPUs)
        uh = u[:h]
        np.copyto(uh, np.right_shift(xs, _S11, out=xs).view(np.int64), casting="unsafe")
        uh *= _INV53
        yield blk, uh


def counter_uniforms(seed, n):
    """n uniforms in [0,1) from a splitmix64 counter stream keyed by seed.

    Draw i depends only on (seed, i), so plans are reproducible and
    row-parallel.  The stream is mixed in the blocks of row_blocks,
    copied into the one output array.
    """
    u = np.empty(n)
    for blk, chunk in _counter_chunks(seed, row_blocks(n)):
        u[blk] = chunk
    return u


class ChunkRule:
    """Row probabilities formed a chunk of rows at a time.

    rule(lo, out, work) writes the probabilities of rows lo:lo + out.size
    into out, and len(rule) is the number of rows.  work is
    rule.workspace(h), the scratch a chunk of at most h rows needs, made
    by the loop over the chunks, once, so that no rule keeps state
    between calls.  The chunks are the blocks of row_blocks.  whole()
    evaluates the same rule over all rows into a new n-vector: the values
    counter_bernoulli draws against, bitwise.  unclipped(lo, out, work)
    writes values whose min with 1 is the rule's, for a rule that
    clips them anyway; by default the rule's own.
    """

    def workspace(self, h):
        return None

    def unclipped(self, lo, out, work):
        self(lo, out, work)

    def whole(self):
        out = np.empty(len(self))
        blocks = row_blocks(out.size)
        work = self.workspace(out.size - blocks[-1].start)
        for blk in blocks:
            self(blk.start, out[blk], work)
        return out


class ArrayRule(ChunkRule):
    """A caller's probabilities, each chunk checked as it is copied: a
    probability that is NaN or outside [0, 1] raises ValueError."""

    def __init__(self, probs):
        self.probs = probs

    def __len__(self):
        return self.probs.shape[0]

    def __call__(self, lo, out, work):
        chunk = self.probs[lo:lo + out.size]
        # NaN fails both comparisons, since min and max propagate it; the
        # initial values let the one empty block of 0 rows pass
        if not (chunk.min(initial=0.0) >= 0.0 and chunk.max(initial=1.0) <= 1.0):
            raise ValueError("probabilities must lie in [0, 1]")
        out[...] = chunk

    def whole(self):
        return self.probs


class ScaledShares(ChunkRule):
    """min(1, scale * shares_i) for nonnegative shares and scale."""

    def __init__(self, shares, scale):
        self.shares, self.scale = shares, scale

    def __len__(self):
        return self.shares.shape[0]

    def unclipped(self, lo, out, work):
        np.multiply(self.shares[lo:lo + out.size], self.scale, out=out)

    def __call__(self, lo, out, work):
        self.unclipped(lo, out, work)
        np.minimum(out, 1.0, out=out)


class ClippedShares(ChunkRule):
    """min(1, max(floor_i, scale * s_i / total)), s_i = sum_j |m_ij|^p,
    for a finite p >= 1; a vector M's rows are its entries and floor is a
    ChunkRule over the same rows.

    total is sum_j s_j as the caller summed it (residual_pnorm's blocks
    give it for a residual); no pass over M is made here.  Each chunk's
    row sums are formed in the workspace, then divided by total / scale
    and clipped while in cache.  A total outside [_SQ_LO, _SQ_HI] means
    rows were lost to under- or overflow: the shares are then
    powsum_shares' max-scaled ones, formed once as an n-vector and
    clipped the same way.  With the total inside it, no row is redone: a
    row whose sum underflowed has a share below 2^-122.  An all-zero M
    raises ValueError.  The floor enters unclipped: min(1, max(min(1, f),
    s)) is min(1, max(f, s)) bitwise, NaN included, and skipping the
    floor's clip took 0.3-0.5 ms off 9.4-10.3 ms per 1,000,000 stage-2
    draws (medians of 40 alternating calls, 2 vCPUs).
    """

    def __init__(self, M, p, scale, floor, total):
        M = np.asarray(M, dtype=np.float64)
        self.M = M.reshape(M.shape[0], -1)
        self.p, self.floor = p, floor
        self.shares = None
        if _SQ_LO <= total <= _SQ_HI:
            self.div = total / scale
        else:
            if not self.M.any():
                raise ValueError("ClippedShares: all rows are zero")
            self.shares = powsum_ratios(row_pnorms(self.M, p), p)
            self.shares *= scale

    def __len__(self):
        return self.M.shape[0]

    def workspace(self, h):
        """(the floor's workspace, row sums, _block_powsums' work array)."""
        if self.shares is not None:
            return self.floor.workspace(h), None, None
        pows = _powsum_buffer([slice(0, h)], self.M.shape[1], self.p)
        return self.floor.workspace(h), np.empty(h), pows

    def __call__(self, lo, out, work):
        floor_work, sums, pows = work
        self.floor.unclipped(lo, out, floor_work)
        h = out.size
        if self.shares is not None:
            s = self.shares[lo:lo + h]
        else:
            s = sums[:h]
            with np.errstate(over="ignore"):
                _block_powsums(self.M[lo:lo + h], self.p, s, pows)
            s /= self.div
        np.maximum(s, out, out=out)
        np.minimum(out, 1.0, out=out)


def counter_bernoulli(seed, rule):
    """(idx, kept, total): the indices i with u_i < q_i, where u =
    counter_uniforms(seed, n) and q is the ChunkRule rule's probabilities
    over its n rows, their probabilities q[idx], and the sum of q.

    Each block of row_blocks(n) has its probabilities formed into a
    buffer of the tallest block just before its draws are compared with
    them, and added to the total while in cache, so no n-length array of
    probabilities or uniforms is built; the buffer and the rule's
    workspace are made once per call.  The indices are bitwise
    np.flatnonzero(counter_uniforms(seed, n) < rule.whole()).  A rule
    checks what it does not form itself (ArrayRule checks each chunk); a
    total that is not finite, as a NaN share gives, raises ValueError.
    """
    blocks = row_blocks(len(rule))
    hits, kept = [], []
    total = 0.0
    h = blocks[-1].stop - blocks[-1].start
    buf, work = np.empty(h), rule.workspace(h)
    for blk, u in _counter_chunks(seed, blocks):
        q = buf[:u.size]
        rule(blk.start, q, work)
        total += float(q.sum())
        hit = np.flatnonzero(u < q)
        kept.append(q[hit])
        hits.append(hit + blk.start)
    if not math.isfinite(total):
        raise ValueError("probabilities must lie in [0, 1]")
    return np.concatenate(hits), np.concatenate(kept), total


def residual_pnorm(A, x, b, p, out=None, at=None):
    """(||A x - b||_p, total): the entrywise norm when x and b are
    matrices, and total, the unscaled sum of |A x - b|^p over all
    entries, both from one pass in the blocks of row_blocks, for a finite
    p >= 1.

    Each block's residual A[blk] @ x - b[blk] is bitwise that block of
    A @ x - b (see _ROW_BLOCK) and is written into out[blk] when out is
    given; otherwise no n-length array is built.  The blocks' sums of
    |r|^p (one BLAS dot at p=2, at p != 2 the sums of groups of _SUM_ROWS
    rows) are added unscaled into total, which stage 2's shares divide
    by; it may be inf, 0 or NaN where the powers over- or underflow.  The
    norm is total's p-th root, or, for a total outside [_SQ_LO, _SQ_HI],
    pnorm's scaled norm of out, or of the residual formed again when out
    is None.
    Pass a column-major A: at 1,000,000 x 10, p=2, the pass took 7.7-9.6
    ms on one, against 15-16 ms on a row-major A, whose block GEMVs
    OpenBLAS runs at half the speed (one BLAS thread, 2 vCPUs).

    With at, an m x 2 array, for an n x m A and a vector b and with no
    out, each block also adds A[blk]^T [r | b[blk]] into at while it is
    in cache:
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
    k = b.shape[1] if b.ndim == 2 else 1
    tmp = np.empty(rows * k) if p != 2.0 else None
    # entries of r.reshape(-1) per group of _SUM_ROWS rows
    group = _SUM_ROWS * max(k, 1)
    total, groups = 0.0, []
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
                powers = _pow_inplace(np.abs(v, out=tmp[:v.size]), p)
                groups.append(np.add.reduceat(powers, np.arange(0, v.size, group)))
            if at is not None:
                buf[:h, 1] = b[blk]
                at += a.T @ buf[:h]
        if groups:
            total = float(np.concatenate(groups).sum())
    if _SQ_LO <= total <= _SQ_HI:
        return (math.sqrt(total) if p == 2.0 else total ** (1.0 / p)), total
    if out is None:
        out = A @ x
        out -= b
    return pnorm(out, p), total


def smoothed_power_weights(residuals, mu, p, out=None):
    """Weights (r_i^2 + mu^2)^((p-2)/2) of the smoothed p-th power loss, from
    which the solver builds its derivatives; written into out when given."""
    r = np.asarray(residuals, dtype=np.float64)
    w = np.multiply(r, r, out=out)
    w += mu * mu
    return _pow_inplace(w, (p - 2.0) / 2.0)
