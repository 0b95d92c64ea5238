"""Kernels against their plain formulas, and the pinned counter RNG stream."""
import hashlib
import math
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcoreset import kernels

# Values captured from the stream every sampling plan so far was drawn
# from: the first three draws for two seeds, and a digest of the first 1000
# draws (sha256 of the float64 bytes, first 16 hex digits) for four.
PINNED_HEADS = {
    0: ("0x1.c4415072f63b9p-1", "0x1.b9e279aa86e58p-2", "0x1.b117462002500p-6"),
    2**63 + 17: ("0x1.3518a0b2e3272p-2", "0x1.bb2807a1778bep-2", "0x1.ea2874860db68p-4"),
}
PINNED_DIGESTS = {
    0: "7d0dee14c3424170",
    1: "04ad906bae0f2bec",
    42: "bbf9cac22f27371b",
    2**63 + 17: "c187cf3b4470b058",
}


# 1.5 and 2 take the multiply/sqrt chains; the other exponents, and the
# IRLS weight exponents (p-2)/2, go through np.power.
@pytest.fixture(params=[1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 7.0])
def p(request):
    return request.param


def test_backend_reported():
    assert kernels.BACKEND == "python"


def test_pnorm_parity(rng, p):
    v = rng.standard_normal(257)
    assert kernels.pnorm(v, p) == pytest.approx(
        np.sum(np.abs(v) ** p) ** (1.0 / p), rel=1e-13
    )


def test_row_pnorms_parity(rng, p):
    M = rng.standard_normal((40, 7))
    np.testing.assert_allclose(
        kernels.row_pnorms(M, p),
        np.sum(np.abs(M) ** p, axis=1) ** (1.0 / p),
        rtol=1e-13,
    )


def test_powsum_ratios_parity(rng, p):
    vals = np.abs(rng.standard_normal(100))
    np.testing.assert_allclose(
        kernels.powsum_ratios(vals, p),
        vals**p / np.sum(vals**p),
        rtol=1e-12,
    )


def test_counter_uniforms_bit_identical():
    for seed, head in PINNED_HEADS.items():
        assert [float(x).hex() for x in kernels.counter_uniforms(seed, 3)] == list(head)
    for seed, digest in PINNED_DIGESTS.items():
        u = kernels.counter_uniforms(seed, 1000)
        assert hashlib.sha256(u.tobytes()).hexdigest()[:16] == digest
        assert np.all((u >= 0.0) & (u < 1.0))


def whole_stream_uniforms(seed, n):
    """The splitmix64 counter stream over whole-length arrays."""
    x = np.arange(1, n + 1, dtype=np.uint64)
    x = x * np.uint64(0x9E3779B97F4A7C15) + np.uint64(seed & (2**64 - 1))
    x ^= x >> np.uint64(30)
    x *= np.uint64(0xBF58476D1CE4E5B9)
    x ^= x >> np.uint64(27)
    x *= np.uint64(0x94D049BB133111EB)
    x ^= x >> np.uint64(31)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-53


@pytest.mark.parametrize("chunk", [5, kernels._COUNTER_CHUNK])
def test_counter_uniforms_chunks_match_whole_stream(monkeypatch, chunk):
    monkeypatch.setattr(kernels, "_COUNTER_CHUNK", chunk)
    for n in (0, 1, chunk - 1, chunk, chunk + 1, 3 * chunk + 2):
        for seed in (0, 99, 2**64 - 1):
            u = kernels.counter_uniforms(seed, n)
            assert u.dtype == np.float64 and u.shape == (n,)
            assert np.array_equal(u, whole_stream_uniforms(seed, n))


def test_counter_uniforms_prefix_stable():
    # draw i depends only on (seed, i), not on how many draws are requested
    long = kernels.counter_uniforms(99, 500)
    short = kernels.counter_uniforms(99, 50)
    assert np.array_equal(long[:50], short)


def test_counter_uniforms_seed_sensitivity():
    a = kernels.counter_uniforms(1, 100)
    b = kernels.counter_uniforms(2, 100)
    assert not np.array_equal(a, b)


def test_counter_uniforms_roughly_uniform():
    u = kernels.counter_uniforms(7, 100_000)
    assert abs(u.mean() - 0.5) < 0.01
    assert abs(np.quantile(u, 0.25) - 0.25) < 0.01


def test_smoothed_weights_p2_are_unit(rng):
    r = rng.standard_normal(30)
    np.testing.assert_allclose(kernels.smoothed_power_weights(r, 0.1, 2.0), np.ones(30))


def test_smoothed_weights_parity(rng, p):
    r = rng.standard_normal(64)
    mu = 1e-3
    np.testing.assert_allclose(
        kernels.smoothed_power_weights(r, mu, p),
        (r * r + mu * mu) ** ((p - 2.0) / 2.0),
        rtol=1e-13,
    )


def test_kernels_leave_inputs_unchanged(rng, p):
    # the kernels work in place, but only on their own copy
    v = rng.standard_normal(257)
    M = rng.standard_normal((40, 7))
    vals = np.abs(rng.standard_normal(100))
    inputs = (v, M, vals)
    before = [x.copy() for x in inputs]
    kernels.pnorm(v, p)
    kernels.pnorm(vals, p)
    kernels.row_pnorms(M, p)
    kernels.powsum_ratios(vals, p)
    kernels.smoothed_power_weights(v, 1e-3, p)
    for x, x0 in zip(inputs, before):
        assert np.array_equal(x, x0)


def test_powsum_ratios_rejects_all_zero():
    with pytest.raises(ValueError):
        kernels.powsum_ratios(np.zeros(4), 2.0)


# Rows whose unscaled sum of squares overflows, underflows, is zero or is
# NaN, next to rows it handles; math.hypot is the reference at p=2.
TINY = 5e-324  # the least subnormal
GUARD_ROWS = [
    [1e200, 1e200, -3e200],
    [1e308, 1e308],
    [1e-200, 3e-200, -2e-200],
    [1e-160, 1e-160],
    [1.0, 1e-170],
    [1e-170, 1.0],
    [TINY, TINY, 0.0],
    [3 * TINY, -4 * TINY],
    [2.2e-308, 1e-310],
    [0.0, 0.0, 0.0],
    [-0.0, 0.0],
    [np.inf, 1.0],
    [2.0, -np.inf],
    [np.nan, 1.0],
    [np.nan, np.inf],
    [1e300, np.nan],
    [3.0, 4.0],
]


def _assert_ulps(got, want, ulps=4):
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    same = (got == want) | (np.isnan(got) & np.isnan(want))
    with np.errstate(invalid="ignore"):
        close = np.abs(got - want) <= ulps * np.spacing(np.abs(want))
    assert np.all(same | close), (got, want)


@pytest.mark.parametrize("row", GUARD_ROWS, ids=repr)
def test_p2_guarded_norms_match_hypot(row):
    want = math.hypot(*row)
    _assert_ulps(kernels.pnorm(np.array(row), 2.0), want)
    _assert_ulps(kernels.row_pnorms(np.array([row]), 2.0), [want])


def test_p2_row_pnorms_mixed_block(rng):
    # guarded rows scattered through a block of ordinary ones: each row
    # matches hypot, and the ordinary rows keep the one-pass value
    M = rng.standard_normal((200, 3)) * np.exp(rng.uniform(-50.0, 50.0, (200, 1)))
    picks = rng.choice(200, size=len(GUARD_ROWS), replace=False)
    rows = [r + [0.0] * (3 - len(r)) for r in GUARD_ROWS]
    M[picks] = rows
    got = kernels.row_pnorms(M, 2.0)
    _assert_ulps(got, [math.hypot(*r) for r in M])
    plain = np.setdiff1d(np.arange(200), picks)
    np.testing.assert_array_equal(got[plain], np.sqrt(np.einsum("ij,ij->i", M, M))[plain])
    # Fortran order, as the thin Q of a QR arrives (einsum may add in
    # another order there, so only the distance to hypot is fixed)
    _assert_ulps(kernels.row_pnorms(np.asfortranarray(M), 2.0), [math.hypot(*r) for r in M])


def test_p2_pnorm_long_vectors():
    # the sum over many entries can overflow, or underflow, where no
    # single square does
    big = np.full(1000, 1e154)
    small = np.full(1000, 1e-155)
    for v in (big, small, np.concatenate([big, small])):
        _assert_ulps(kernels.pnorm(v, 2.0), math.hypot(*v))


def test_p2_empty_inputs():
    assert kernels.pnorm(np.zeros(0), 2.0) == 0.0
    assert kernels.row_pnorms(np.zeros((0, 3)), 2.0).shape == (0,)
    np.testing.assert_array_equal(kernels.row_pnorms(np.zeros((2, 0)), 2.0), [0.0, 0.0])


# Rows holding inf or NaN at the other exponents: math.hypot's rule (any
# inf gives inf, else a NaN gives NaN) holds at every p.
NONFINITE_ROWS = [
    [np.nan, 1.0],
    [np.inf, 1.0],
    [1.0, -np.inf],
    [np.nan, np.inf],
    [-np.inf, np.nan],
    [np.nan, np.nan],
    [np.inf, -np.inf],
]


@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, np.inf])
def test_nonfinite_norms_match_hypot(rng, p):
    M = rng.standard_normal((30, 2))
    picks = rng.choice(30, size=len(NONFINITE_ROWS), replace=False)
    M[picks] = NONFINITE_ROWS
    plain = np.setdiff1d(np.arange(30), picks)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.row_pnorms(M, p)
        for row in NONFINITE_ROWS:
            _assert_ulps(kernels.pnorm(np.array(row), p), math.hypot(*row))
    _assert_ulps(got[picks], [math.hypot(*r) for r in NONFINITE_ROWS])
    # the finite rows keep the values they have without their neighbours
    np.testing.assert_array_equal(got[plain], kernels.row_pnorms(M[plain], p))


def _guarded(M, p):
    """Rows whose unscaled sum of |m_ij|^p lies outside the safe range."""
    with np.errstate(over="ignore", invalid="ignore"):
        s = np.sum(np.abs(M) ** p, axis=1)
    return ~((s >= kernels._SQ_LO) & (s <= kernels._SQ_HI))


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
@pytest.mark.parametrize("order", ["C", "F"])
def test_row_powsums_match_powered_row_pnorms(rng, p, order):
    # ordinary rows, rows scaled by 1e+-200, zero rows and the non-finite
    # rows; the guarded rows take the max-scaled code and read bitwise
    # what row_pnorms gives them, raised to p
    M = rng.standard_normal((300, 3))
    M[:40] *= 1e200
    M[40:80] *= 1e-200
    M[80:90] = 0.0
    M[90:90 + len(NONFINITE_ROWS), :2] = NONFINITE_ROWS
    M = np.asarray(M, order=order)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = kernels.row_powsums(M, p)
    with np.errstate(over="ignore"):
        want = kernels.row_pnorms(M, p) ** p
    bad = _guarded(M, p)
    assert bad[80:90].all() and not bad[100:].any()
    np.testing.assert_array_equal(got[bad], want[bad])
    np.testing.assert_allclose(got[~bad], want[~bad], rtol=1e-13)
    np.testing.assert_allclose(got[~bad], np.sum(np.abs(M[~bad]) ** p, axis=1), rtol=1e-14)
    _assert_ulps(got[90:90 + len(NONFINITE_ROWS)], [math.hypot(*r) for r in NONFINITE_ROWS])


def test_row_blocks_join_the_tail_to_the_last_block(monkeypatch):
    monkeypatch.setattr(kernels, "_ROW_BLOCK", 4)
    assert kernels.row_blocks(0) == [slice(0, 0)]
    assert kernels.row_blocks(7) == [slice(0, 7)]
    assert kernels.row_blocks(8) == [slice(0, 4), slice(4, 8)]
    assert kernels.row_blocks(11) == [slice(0, 4), slice(4, 11)]


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
def test_row_powsums_blocks_do_not_change_a_row(rng, monkeypatch, p):
    M = np.asfortranarray(rng.standard_normal((1000, 4)))
    whole = kernels.row_powsums(M, p)
    monkeypatch.setattr(kernels, "_ROW_BLOCK", 64)
    np.testing.assert_array_equal(kernels.row_powsums(M, p), whole)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_row_powsums_of_a_product_in_blocks(rng, monkeypatch, p):
    # the sums of the rows of M @ cols, formed 64 rows at a time, against
    # those of the whole product; rows whose sums are near 1e-290 take the
    # guarded path
    M = rng.standard_normal((1000, 5))
    M[:30] *= 1e100
    M[30:60] *= 1e-290 ** (1.0 / p)
    M[60:70] = 0.0
    cols = rng.standard_normal((5, 3))
    want = kernels.row_powsums(M @ cols, p)
    monkeypatch.setattr(kernels, "_ROW_BLOCK", 64)
    got = kernels.row_powsums(M, p, cols)
    assert _guarded(M[30:60] @ cols, p).all()
    np.testing.assert_allclose(got, want, rtol=1e-13)
    assert np.all(got[60:70] == 0.0) and np.all(np.isfinite(got[:60]))
    assert np.all(got[:60] > 0.0)


def test_row_powsums_edge_shapes():
    assert kernels.row_powsums(np.zeros((0, 3)), 1.5).shape == (0,)
    np.testing.assert_array_equal(kernels.row_powsums(np.ones((2, 0)), 1.5), [0.0, 0.0])
    with pytest.raises(ValueError):
        kernels.row_powsums(np.ones(3), 2.0)
    with pytest.raises(ValueError):
        kernels.row_powsums(np.ones((3, 2)), np.inf)


@pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
def test_powsum_shares(rng, p):
    M = rng.standard_normal((200, 4))
    sums = kernels.row_powsums(M, p)
    shares = kernels.powsum_shares(M, p, sums, 7.0)
    assert shares is sums  # in place
    np.testing.assert_allclose(shares, 7.0 * kernels.powsum_ratios(kernels.row_pnorms(M, p), p),
                               rtol=1e-13)
    assert shares.sum() == pytest.approx(7.0, rel=1e-14)


@pytest.mark.parametrize("scale", [1e-200, 1e200])
def test_powsum_shares_fall_back_when_the_total_is_not_safe(rng, scale):
    # the squares underflow (1e-200) or overflow (1e200), and at p=1000
    # every power of an orthonormal basis underflows: the shares then come
    # from the scaled ratios, bitwise
    Q = np.linalg.qr(rng.standard_normal((500, 3)))[0]
    for M, p in ((rng.standard_normal((50, 3)) * scale, 2.0), (Q, 1000.0)):
        want = kernels.powsum_ratios(kernels.row_pnorms(M, p), p)
        with np.errstate(under="ignore"):
            got = kernels.powsum_shares(M, p, kernels.row_powsums(M, p))
        np.testing.assert_array_equal(got, want)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("cols", [None, 1, 3])
@pytest.mark.parametrize("order", ["C", "F"])
def test_residual_pnorm_blocks(rng, monkeypatch, p, cols, order):
    # blocks of 256 rows, the last of 467: each block's residual is
    # bitwise that block of A @ x - b, and the norm is the whole residual's
    monkeypatch.setattr(kernels, "_ROW_BLOCK", 256)
    assert kernels.row_blocks(2003)[-1] == slice(1536, 2003)
    A = np.asarray(rng.standard_normal((2003, 4)), order=order)
    shape = (4,) if cols is None else (4, cols)
    x = rng.standard_normal(shape)
    b = rng.standard_normal((2003,) + shape[1:])
    whole = A @ x - b
    out = np.empty(b.shape)
    got = kernels.residual_pnorm(A, x, b, p, out=out)
    np.testing.assert_array_equal(out, whole)
    assert got == pytest.approx(kernels.pnorm(whole, p), rel=1e-13)
    assert kernels.residual_pnorm(A, x, b, p) == got


@pytest.mark.parametrize("p", [1.5, 2.0])
def test_residual_pnorm_guarded_total(rng, p):
    # a residual whose powers overflow or vanish takes pnorm's scaled path
    A = rng.standard_normal((50, 2))
    x = np.ones(2)
    for b in (A @ x + 1e300, A @ x):
        assert kernels.residual_pnorm(A, x, b, p) == kernels.pnorm(A @ x - b, p)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=1, max_value=1200),
    m=st.integers(min_value=1, max_value=6),
    order=st.sampled_from(["C", "F"]),
    block=st.sampled_from([256, kernels._ROW_BLOCK]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_residual_pnorm_normal_columns(n, m, order, block, seed):
    # the p=2 pass's objective, A^T r and A^T b, summed block by block, are
    # the whole arrays' to 1e-12 relative; a sum's rounding scales with the
    # sum of its terms' magnitudes, so each column is held to that
    g = np.random.default_rng(seed)
    A = np.asarray(g.standard_normal((n, m)), order=order)
    x, b = g.standard_normal(m), g.standard_normal(n)
    at, at_out, out = np.zeros((m, 2)), np.zeros((m, 2)), np.empty(n)
    with mock.patch.object(kernels, "_ROW_BLOCK", block):
        got = kernels.residual_pnorm(A, x, b, 2.0, at=at)
        # with out as well, the residual lands there and at is the same
        assert kernels.residual_pnorm(A, x, b, 2.0, out=out, at=at_out) == got
    np.testing.assert_array_equal(at_out, at)
    r = A @ x - b
    np.testing.assert_array_equal(out, r)
    assert got == pytest.approx(kernels.pnorm(r, 2.0), rel=1e-12)
    for col, v in ((0, r), (1, b)):
        scale = np.abs(A).T @ np.abs(v)
        np.testing.assert_allclose(at[:, col], A.T @ v, rtol=0.0, atol=1e-12 * scale.max())


@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_residual_pnorm_normal_columns_guarded(rng, monkeypatch, scale):
    # residuals whose squares overflow or vanish take pnorm's scaled path;
    # the columns of at, whose products stay in range, are unaffected
    monkeypatch.setattr(kernels, "_ROW_BLOCK", 256)
    A = rng.standard_normal((1000, 3))
    x, b = scale * rng.standard_normal(3), scale * rng.standard_normal(1000)
    r = A @ x - b
    at = np.zeros((3, 2))
    assert kernels.residual_pnorm(A, x, b, 2.0, at=at) == kernels.pnorm(r, 2.0)
    assert math.isfinite(kernels.pnorm(r, 2.0)) and kernels.pnorm(r, 2.0) > 0.0
    np.testing.assert_allclose(at, np.column_stack([A.T @ r, A.T @ b]), rtol=1e-12)


@pytest.mark.parametrize("chunk", [5, 256, kernels._COUNTER_CHUNK])
def test_counter_bernoulli_matches_the_whole_stream(rng, monkeypatch, chunk):
    # the draws are bitwise those of the whole stream, and the total, added
    # chunk by chunk, is the sum of the probabilities up to its order
    monkeypatch.setattr(kernels, "_COUNTER_CHUNK", chunk)
    for n in (0, 1, chunk - 1, chunk, 2 * chunk + 3):
        probs = rng.uniform(0.0, 1.0, n) ** 4
        probs[::5] = 0.0
        probs[2::9] = 1.0
        for seed in (0, 91, 2**64 - 1):
            idx, total = kernels.counter_bernoulli(seed, probs)
            want = np.flatnonzero(kernels.counter_uniforms(seed, n) < probs)
            np.testing.assert_array_equal(idx, want)
            assert idx.dtype == want.dtype
            assert total == pytest.approx(float(probs.sum()), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 2**-52, np.inf])
def test_counter_bernoulli_checks_every_chunk(monkeypatch, bad):
    monkeypatch.setattr(kernels, "_COUNTER_CHUNK", 5)
    probs = np.full(23, 0.5)
    probs[21] = bad
    with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
        kernels.counter_bernoulli(3, probs)


def _shares_then_clip(M, p, scale, floor):
    """Stage-2 probabilities as row_powsums, powsum_shares and one clip
    pass formed them."""
    M = M.reshape(M.shape[0], -1)
    q = kernels.powsum_shares(M, p, kernels.row_powsums(M, p), scale)
    return np.clip(q, floor, 1.0, out=q)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
@pytest.mark.parametrize("cols", [None, 2])
def test_clipped_shares_match_shares_then_clip(rng, monkeypatch, p, cols):
    # bitwise in one block and in blocks of 256 rows
    n = 2003
    M = rng.standard_normal((n,) if cols is None else (n, cols))
    M[:7] = 0.0
    floor = rng.uniform(0.0, 0.2, n)
    floor[::40] = 1.0
    want = _shares_then_clip(M, p, 300.0, floor)
    assert 0 < np.count_nonzero(want == floor) < n and np.any((want > floor) & (want < 1.0))
    np.testing.assert_array_equal(kernels.clipped_shares(M, p, 300.0, floor), want)
    monkeypatch.setattr(kernels, "_ROW_BLOCK", 256)
    np.testing.assert_array_equal(kernels.clipped_shares(M, p, 300.0, floor), want)


@pytest.mark.parametrize("p", [2.0, 3.0])
@pytest.mark.parametrize("cols", [None, 2])
@pytest.mark.parametrize("scale", [1e200, 1e-200])
def test_clipped_shares_fall_back_when_the_total_is_not_safe(rng, monkeypatch, p, cols, scale):
    # the powers overflow (1e200) or underflow (1e-200): the shares are the
    # max-scaled ones, bitwise, in one block or in many
    n = 600
    M = rng.standard_normal((n,) if cols is None else (n, cols)) * scale
    with np.errstate(over="ignore", under="ignore"):
        total = np.sum(np.abs(M) ** p)
        assert not (kernels._SQ_LO <= total <= kernels._SQ_HI)
        floor = rng.uniform(0.0, 0.01, n)
        want = _shares_then_clip(M, p, 50.0, floor)
        np.testing.assert_array_equal(kernels.clipped_shares(M, p, 50.0, floor), want)
        monkeypatch.setattr(kernels, "_ROW_BLOCK", 64)
        np.testing.assert_array_equal(kernels.clipped_shares(M, p, 50.0, floor), want)


def test_clipped_shares_reject_a_zero_array():
    with pytest.raises(ValueError, match="all rows are zero"):
        kernels.clipped_shares(np.zeros((5, 2)), 1.5, 1.0, np.zeros(5))
