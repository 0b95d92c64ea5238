import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from lpcoreset import linalg
from lpcoreset.errors import InvalidExponentError, ZeroRankError
from lpcoreset.linalg import (
    dual_exponent,
    numeric_rank,
    qr_thin,
    r_factors,
    vec_p_norm,
)


def jacobi_singular_values(A, sweeps=60, tol=1e-13):
    """One-sided Jacobi SVD: rotate column pairs until mutually orthogonal.

    Independent of the QR path under test; fine for the small matrices
    used here.
    """
    B = np.array(A, dtype=float)
    m = B.shape[1]
    for _ in range(sweeps):
        off = 0.0
        for i in range(m - 1):
            for j in range(i + 1, m):
                aii = B[:, i] @ B[:, i]
                ajj = B[:, j] @ B[:, j]
                aij = B[:, i] @ B[:, j]
                denom = math.sqrt(aii * ajj) + 1e-300
                off = max(off, abs(aij) / denom)
                if abs(aij) <= tol * denom:
                    continue
                tau = (ajj - aii) / (2.0 * aij)
                t = math.copysign(1.0, tau) / (abs(tau) + math.sqrt(1.0 + tau * tau))
                c = 1.0 / math.sqrt(1.0 + t * t)
                s = t * c
                bi = B[:, i].copy()
                B[:, i] = c * bi - s * B[:, j]
                B[:, j] = s * bi + c * B[:, j]
        if off < tol:
            break
    return np.sort(np.linalg.norm(B, axis=0))[::-1]


class TestVectorNorm:
    def test_pythagorean(self):
        assert vec_p_norm([3.0, 4.0], 2.0) == pytest.approx(5.0, rel=1e-15)

    def test_l1(self):
        assert vec_p_norm([1.0, -1.0, 1.0], 1.0) == pytest.approx(3.0, rel=1e-15)

    def test_p3(self):
        # (4 * 2^3)^(1/3) = 32^(1/3)
        assert vec_p_norm([2.0, 2.0, 2.0, 2.0], 3.0) == pytest.approx(
            3.1748021039363987, rel=1e-13
        )

    def test_invalid_exponent(self):
        with pytest.raises(InvalidExponentError):
            vec_p_norm([1.0], 0.5)

    def test_overflow_guard(self):
        # raw powering of 1e300^10 would overflow; the scaled path must not
        v = np.array([1e300, 0.5e300])
        out = vec_p_norm(v, 10.0)
        assert math.isfinite(out)
        assert out == pytest.approx(1e300 * (1.0 + 0.5**10) ** 0.1, rel=1e-12)

    def test_max_norm_dispatch(self):
        assert vec_p_norm([1.0, -7.0, 3.0], math.inf) == 7.0


class TestMatrixNorm:
    def test_identity_frobenius(self):
        assert vec_p_norm(np.eye(2), 2.0) == pytest.approx(math.sqrt(2.0))

    def test_all_ones_p3(self):
        M = np.ones((2, 3))
        assert vec_p_norm(M, 3.0) == pytest.approx(6.0 ** (1.0 / 3.0))

    def test_identity_l1(self):
        assert vec_p_norm(np.eye(2), 1.0) == pytest.approx(2.0)

    def test_matches_flattened_vector(self, rng):
        M = rng.standard_normal((7, 5))
        for p in (1.0, 1.5, 2.0, 3.0):
            assert vec_p_norm(M, p) == pytest.approx(
                vec_p_norm(M.ravel(), p), rel=1e-14
            )

    def test_row_column_decomposition(self, rng):
        M = rng.standard_normal((9, 4))
        for p in (1.0, 1.5, 2.0, 3.0):
            total = vec_p_norm(M, p) ** p
            by_rows = sum(vec_p_norm(M[i], p) ** p for i in range(M.shape[0]))
            by_cols = sum(vec_p_norm(M[:, j], p) ** p for j in range(M.shape[1]))
            assert total == pytest.approx(by_rows, rel=1e-10)
            assert total == pytest.approx(by_cols, rel=1e-10)


class TestDualExponent:
    def test_self_dual(self):
        assert dual_exponent(2.0) == 2.0

    def test_l1_gives_inf(self):
        assert dual_exponent(1.0) == math.inf

    def test_p3(self):
        assert dual_exponent(3.0) == pytest.approx(1.5)

    def test_invalid(self):
        with pytest.raises(InvalidExponentError):
            dual_exponent(0.99)

    def test_holder_identity(self):
        for p in (1.25, 1.5, 2.0, 4.0, 10.0):
            q = dual_exponent(p)
            assert 1.0 / p + 1.0 / q == pytest.approx(1.0, rel=1e-14)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    c=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_norm_homogeneity(p, c, seed):
    v = np.random.default_rng(seed).standard_normal(11)
    lhs = vec_p_norm(c * v, p)
    rhs = abs(c) * vec_p_norm(v, p)
    assert lhs == pytest.approx(rhs, rel=1e-12, abs=1e-300)


@settings(max_examples=60, deadline=None)
@given(
    p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_power_triangle_inequality(p, seed):
    # ||v - w||_p^p <= 2^(p-1) (||v - u||_p^p + ||u - w||_p^p)
    g = np.random.default_rng(seed)
    v, w, u = g.standard_normal((3, 8))
    lhs = vec_p_norm(v - w, p) ** p
    rhs = 2.0 ** (p - 1.0) * (vec_p_norm(v - u, p) ** p + vec_p_norm(u - w, p) ** p)
    assert lhs <= rhs * (1.0 + 1e-12)


class TestQR:
    def test_identity(self):
        f = qr_thin(np.eye(3))
        assert f.rank == 3
        np.testing.assert_allclose(np.abs(f.Q), np.eye(3), atol=1e-14)
        np.testing.assert_allclose(f.Q @ f.R, np.eye(3), atol=1e-14)

    def test_single_column(self):
        f = qr_thin(np.array([[1.0], [1.0]]))
        assert f.rank == 1
        np.testing.assert_allclose(np.abs(f.Q), np.full((2, 1), 1 / math.sqrt(2)), atol=1e-14)

    def test_exact_collinearity(self, rng):
        col = rng.standard_normal(4)
        A = np.column_stack([col, 2.0 * col])
        f = qr_thin(A)
        assert f.rank == 1
        np.testing.assert_allclose(f.Q @ f.R, A, atol=1e-12 * np.abs(A).max())

    def test_zero_matrix_rejected(self):
        with pytest.raises(ZeroRankError):
            qr_thin(np.zeros((3, 2)))

    def test_random_batch_invariants(self, rng):
        # orthonormality and reconstruction on 200 random shapes
        for _ in range(200):
            n = int(rng.integers(1, 201))
            m = int(rng.integers(1, 21))
            A = rng.standard_normal((n, m))
            f = qr_thin(A)
            d = f.rank
            assert d <= min(n, m)
            gram_err = np.abs(f.Q.T @ f.Q - np.eye(d)).max()
            assert gram_err <= 1e-10
            rec_err = np.abs(f.Q @ f.R - A).max()
            assert rec_err <= 1e-8 * np.abs(A).max()

    def test_r_upper_trapezoidal_full_rank(self, rng):
        A = rng.standard_normal((30, 6))
        f = qr_thin(A)
        assert f.rank == 6
        below = np.tril(f.R, -1)
        assert np.abs(below).max() <= 1e-12 * np.abs(f.R).max()

    def test_one_factorization_per_call(self, rng, monkeypatch):
        calls = []
        real_qr = scipy.linalg.qr

        def counting_qr(*args, **kwargs):
            calls.append(kwargs)
            return real_qr(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
        base = rng.standard_normal((50, 3))
        for A in (base, np.column_stack([base, base[:, 0] - base[:, 2]])):
            calls.clear()
            qr_thin(A)
            assert len(calls) == 1

    def test_rank_deficient_invariants(self, rng):
        base = rng.standard_normal((60, 3))
        A = np.column_stack([base[:, 0], base, 2.0 * base[:, 1] - base[:, 2]])
        f = qr_thin(A)
        assert f.rank == 3
        assert f.Q.shape == (60, 3) and f.R.shape == (3, 5)
        assert np.abs(f.Q.T @ f.Q - np.eye(3)).max() <= 1e-12
        assert np.abs(f.Q @ f.R - A).max() <= 1e-12 * np.abs(A).max()


class TestBlockedQR:
    """The R-only QR of an A with at least two blocks of 7 rows, or of m
    rows when m is larger, against one Householder QR of the same A."""

    @staticmethod
    def one_and_blocked(A, monkeypatch):
        one = r_factors(A)
        monkeypatch.setattr(linalg, "_TSQR_ROWS", 7)
        assert len(linalg._tsqr_blocks(*A.shape)) > 1
        return one, r_factors(A)

    @pytest.mark.parametrize("n, m", [(14, 3), (29, 1), (50, 5), (200, 7), (40, 9), (1000, 4)])
    def test_random_tall(self, rng, monkeypatch, n, m):
        A = rng.standard_normal((n, m))
        one, f = self.one_and_blocked(A, monkeypatch)
        assert f.rank == one.rank == m
        assert np.all(np.tril(f.R, -1) == 0.0)
        assert np.abs(np.abs(f.R) - np.abs(one.R)).max() <= 1e-12 * np.abs(one.R).max()

    def test_rank_deficient_columns(self, rng, monkeypatch):
        base = rng.standard_normal((60, 3))
        A = np.column_stack([base[:, 0], base, 2.0 * base[:, 1] - base[:, 2]])
        one, f = self.one_and_blocked(A, monkeypatch)
        assert f.rank == one.rank == 3
        assert f.R.shape == (3, 5) and f.C.shape == (5, 3)
        assert np.abs((A @ f.C) @ f.R - A).max() <= 1e-12 * np.abs(A).max()


class TestNumericRank:
    def test_identity(self):
        assert numeric_rank(np.eye(3)) == 3

    def test_zero(self):
        assert numeric_rank(np.zeros((3, 2))) == 0

    def test_gaussian_vs_jacobi_oracle(self, rng):
        A = rng.standard_normal((100, 3))
        sv = jacobi_singular_values(A)
        oracle_rank = int(np.sum(sv > 1e-10 * sv[0]))
        assert numeric_rank(A) == oracle_rank == 3

    def test_deficient_vs_jacobi_oracle(self, rng):
        base = rng.standard_normal((40, 2))
        A = np.column_stack([base, base[:, 0] + base[:, 1]])
        sv = jacobi_singular_values(A)
        assert numeric_rank(A) == int(np.sum(sv > 1e-10 * sv[0])) == 2


BLOCK = 256  # rows per TSQR block in the multi-block tests below


def _design(rng, kind, n=2000, m=6):
    if kind == "gaussian":
        return rng.standard_normal((n, m))
    if kind == "rank-deficient":
        base = rng.standard_normal((n, m - 1))
        return np.column_stack([base, base[:, 0] - 2.0 * base[:, 2]])
    if kind == "tail-shorter-than-m":
        # three blocks and a 2-row tail, which joins the last block
        return rng.standard_normal((3 * BLOCK + 2, 5))
    if kind == "all-zero":
        return np.zeros((5 * BLOCK, 3))
    # singular values from 1 to 1e-9: full rank under the 1e-10 tolerance;
    # or 1, 4e-3, 1.6e-5, 6.3e-8, 2.5e-10, 1e-12: rank 5, with a margin of
    # 2.5 on each side of it
    U = np.linalg.qr(rng.standard_normal((n, m)))[0]
    V = np.linalg.qr(rng.standard_normal((m, m)))[0]
    return (U * np.logspace(0, -9 if kind == "cond-1e9" else -12, m)) @ V.T


class TestRFactors:
    """linalg.r_factors: the R-only blocked QR, its rank and its column
    map, against qr_thin and against one block of all rows."""

    @pytest.mark.parametrize(
        "kind",
        ["gaussian", "cond-1e9", "rank-deficient", "tail-shorter-than-m", "cond-1e12", "all-zero"],
    )
    def test_multi_block_matches_one_block(self, rng, monkeypatch, kind):
        A = _design(rng, kind)
        one = r_factors(A) if A.any() else None
        monkeypatch.setattr(linalg, "_TSQR_ROWS", BLOCK)
        assert len(linalg._tsqr_blocks(*A.shape)) == A.shape[0] // BLOCK > 1
        if one is None:
            with pytest.raises(ZeroRankError):
                r_factors(A)
            assert numeric_rank(A) == 0
            return
        many = r_factors(A)
        assert many.rank == one.rank == qr_thin(A).rank
        if kind == "cond-1e12":
            assert many.rank == 5
        scale = np.abs(one.R).max()
        assert np.abs(np.abs(many.R) - np.abs(one.R)).max() <= 1e-12 * scale

    @pytest.mark.parametrize("kind", ["gaussian", "cond-1e9", "rank-deficient"])
    def test_column_map_spans_a(self, rng, kind):
        A = _design(rng, kind)
        f = r_factors(A)
        d = f.rank
        assert f.R.shape == (d, 6) and f.C.shape == (6, d)
        T = A @ f.C
        assert np.abs(T @ f.R - A).max() <= 1e-12 * np.abs(A).max()
        # T is Q up to cond(A) * eps: the same column span as qr_thin's Q
        Q = qr_thin(A).Q
        assert np.abs(Q @ (Q.T @ T) - T).max() <= 1e-6
        if kind == "gaussian":
            assert np.abs(T - Q).max() <= 1e-13
            assert np.all(np.tril(f.R, -1) == 0.0)

    def test_underdetermined(self, rng):
        A = rng.standard_normal((3, 5))
        f = r_factors(A)
        assert f.rank == 3 and f.C.shape == (5, 3)
        np.testing.assert_allclose((A @ f.C) @ f.R, A, atol=1e-12)

    def test_rank_forms_no_q(self, rng, monkeypatch):
        def no_q(*args, **kwargs):
            raise AssertionError("a Q was formed")

        monkeypatch.setattr(scipy.linalg, "qr", no_q)
        assert numeric_rank(rng.standard_normal((50, 3))) == 3
        with pytest.raises(ZeroRankError):
            r_factors(np.zeros((4, 2)))


class TestBlockedLstsq:
    """linalg.BlockedLstsq, the QR of [M | c] in TSQR row blocks that
    every least-squares solve goes through."""

    @pytest.mark.parametrize(
        "shape, rank", [((40, 5), 5), ((6, 6), 6), ((3, 7), 3), ((40, 6), 4)]
    )
    def test_matches_scipy_gelsy(self, rng, shape, rank):
        # the shapes of test_bitwise_scipy_gelsy: full rank, square,
        # underdetermined and rank-deficient, where both give the
        # minimum-norm answer
        n, m = shape
        M = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
        c = rng.standard_normal(n)
        ref = scipy.linalg.lstsq(M, c, cond=linalg.DEFAULT_RANK_TOL, lapack_driver="gelsy")[0]
        x = linalg.BlockedLstsq(n, m).solve_rows(M, c)
        assert x.shape == (m,)
        assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("order", ["C", "F"])
    def test_multi_block_with_tail_matches_one_block(self, rng, monkeypatch, order):
        # three blocks of 256 rows, the last with a 100-row tail, and the
        # stacked triangles factored once, against one block of all rows
        n, m = 3 * 256 + 100, 5
        M = np.asarray(rng.standard_normal((n, m)), order=order)
        c = rng.standard_normal(n)
        one = linalg.BlockedLstsq(n, m)
        assert len(one.blocks) == 1
        x_one = one.solve_rows(M, c)
        monkeypatch.setattr(linalg, "_TSQR_ROWS", 256)
        many = linalg.BlockedLstsq(n, m)
        assert [blk.stop - blk.start for blk in many.blocks] == [256, 256, 356]
        M0, c0 = M.copy(), c.copy()
        x_many = many.solve_rows(M, c)
        assert np.abs(x_many - x_one).max() <= 1e-12 * np.abs(x_one).max()
        np.testing.assert_array_equal(M, M0)
        np.testing.assert_array_equal(c, c0)
        # the buffers are reused: a second solve on the same object agrees
        np.testing.assert_array_equal(many.solve_rows(M, c), x_many)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("where", ["M", "c"])
    def test_non_finite_raises_and_input_untouched(self, rng, monkeypatch, bad, where):
        monkeypatch.setattr(linalg, "_TSQR_ROWS", 256)
        n, m = 600, 3
        for order in ("C", "F"):
            M = np.asarray(rng.standard_normal((n, m)), order=order)
            c = rng.standard_normal(n)
            if where == "M":
                M[450, 1] = bad  # in the second block
            else:
                c[450] = bad
            M0, c0 = M.copy(), c.copy()
            with pytest.raises(ValueError, match="non-finite"):
                linalg.BlockedLstsq(n, m).solve_rows(M, c)
            np.testing.assert_array_equal(M, M0)
            np.testing.assert_array_equal(c, c0)
