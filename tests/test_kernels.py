"""Kernels against their plain formulas, and the pinned counter RNG stream."""
import hashlib

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
    w = np.abs(rng.standard_normal(100))
    np.testing.assert_allclose(
        kernels.powsum_ratios(vals, p, weights=w),
        w * vals**p / np.sum(w * vals**p),
        rtol=1e-12,
    )


def test_counter_uniforms_bit_identical():
    for seed, head in PINNED_HEADS.items():
        assert [float(x).hex() for x in kernels.counter_uniforms(seed, 3)] == list(head)
    for seed, digest in PINNED_DIGESTS.items():
        u = kernels.counter_uniforms(seed, 1000)
        assert hashlib.sha256(u.tobytes()).hexdigest()[:16] == digest
        assert np.all((u >= 0.0) & (u < 1.0))


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
    w = np.abs(rng.standard_normal(100))
    inputs = (v, M, vals, w)
    before = [x.copy() for x in inputs]
    kernels.pnorm(v, p)
    kernels.pnorm(vals, p)
    kernels.row_pnorms(M, p)
    kernels.powsum_ratios(vals, p, weights=w)
    kernels.smoothed_power_weights(v, 1e-3, p)
    for x, x0 in zip(inputs, before):
        assert np.array_equal(x, x0)


def test_powsum_ratios_rejects_all_zero():
    with pytest.raises(ValueError):
        kernels.powsum_ratios(np.zeros(4), 2.0)
