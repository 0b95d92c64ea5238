"""Kernels against their plain formulas, and the pinned counter RNG stream."""
import hashlib
import math
import warnings

import numpy as np
import pytest

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
