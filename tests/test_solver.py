import math
import os
import subprocess
import sys
import textwrap
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
from scipy.optimize import linprog

import lpcoreset
from lpcoreset import kernels, linalg, solver
from lpcoreset.errors import ZeroRankError
from lpcoreset.linalg import DEFAULT_RANK_TOL, vec_p_norm
from lpcoreset.pipeline import make_instance_arrays
from lpcoreset.solver import row_scaled, solve_lp_regression, solve_multi_rhs
from oracles import objective_gradient_check


def grid_scan_1d(A, b, p, lo, hi, step):
    """Dense 1-D grid oracle for min_x ||A x - b||_p."""
    xs = np.arange(lo, hi + step, step)
    resid = np.abs(np.outer(A[:, 0], xs) - b[:, None])
    objs = np.sum(resid**p, axis=0) ** (1.0 / p)
    j = int(np.argmin(objs))
    return xs[j], objs[j]


def grid_scan_2d(A, b, p, lo, hi, step):
    """Dense 2-D grid oracle, evaluated in chunks."""
    axis = np.arange(lo, hi + step, step)
    best = (None, math.inf)
    for x0 in axis:
        resid = np.abs((A[:, [0]] * x0 + np.outer(A[:, 1], axis)) - b[:, None])
        objs = np.sum(resid**p, axis=0)
        j = int(np.argmin(objs))
        if objs[j] < best[1]:
            best = (np.array([x0, axis[j]]), objs[j])
    return best[0], best[1] ** (1.0 / p)


def highs_l1_optimum(A, b):
    """min ||Ax - b||_1 as the linear program min sum t, -t <= Ax - b <= t,
    solved by HiGHS and read back as the l1 residual of its x."""
    n, m = A.shape
    S, eye = scipy.sparse.csr_matrix(A), scipy.sparse.identity(n, format="csr")
    res = linprog(
        np.concatenate([np.zeros(m), np.ones(n)]),
        A_ub=scipy.sparse.vstack([scipy.sparse.hstack([S, -eye]), scipy.sparse.hstack([-S, -eye])]),
        b_ub=np.concatenate([b, -b]),
        bounds=[(None, None)] * m + [(0.0, None)] * n,
        method="highs",
    )
    assert res.status == 0, res.message
    return vec_p_norm(A @ res.x[:m] - b, 1.0)


class TestBasicSolves:
    def test_symmetric_least_squares(self):
        A = np.array([[1.0], [1.0]])
        res = solve_lp_regression(A, np.array([0.0, 2.0]), 2.0)
        assert res.x[0] == pytest.approx(1.0, abs=1e-12)
        assert res.objective == pytest.approx(math.sqrt(2.0), rel=1e-12)

    def test_symmetric_p4_midpoint(self):
        A = np.array([[1.0], [1.0]])
        res = solve_lp_regression(A, np.array([0.0, 2.0]), 4.0)
        assert res.x[0] == pytest.approx(1.0, abs=1e-8)
        assert res.objective == pytest.approx(2.0 ** (1.0 / 4.0), rel=1e-8)

    def test_l1_median_with_grid_oracle(self):
        A = np.ones((3, 1))
        b = np.array([0.0, 0.0, 10.0])
        res = solve_lp_regression(A, b, 1.0)
        _, z_grid = grid_scan_1d(A, b, 1.0, -1.0, 11.0, 1e-3)
        assert res.objective <= z_grid * (1.0 + 1e-6)
        assert res.objective == pytest.approx(10.0, rel=1e-6)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve_lp_regression(np.ones((3, 1)), np.ones(4), 2.0)

    def test_zero_matrix(self):
        with pytest.raises(ZeroRankError):
            solve_lp_regression(np.zeros((3, 1)), np.ones(3), 2.0)

    def test_zero_rhs(self):
        res = solve_lp_regression(np.ones((3, 2)), np.zeros(3), 1.5)
        assert res.objective == 0.0
        np.testing.assert_array_equal(res.x, np.zeros(2))

    def test_consistent_system_p3(self, rng):
        A = rng.standard_normal((30, 4))
        x_star = rng.standard_normal(4)
        res = solve_lp_regression(A, A @ x_star, 3.0)
        assert res.objective <= 1e-8 * vec_p_norm(A @ x_star, 3.0)
        np.testing.assert_allclose(res.x, x_star, atol=1e-6)

    def test_solution_owns_its_memory(self):
        # x is never a view of a working buffer of the solve
        A, b, _ = make_instance_arrays(10000, 10, seed=1)
        for p in (1.0, 1.5, 2.0, 3.0):
            res = solve_lp_regression(A, b, p)
            assert res.x.shape == (10,)
            assert res.x.base is None

    def test_objective_matches_solution(self, rng):
        A = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        for p in (1.0, 1.5, 2.0, 3.0):
            res = solve_lp_regression(A, b, p)
            assert res.objective == pytest.approx(vec_p_norm(A @ res.x - b, p), rel=1e-10)

    def test_converged_flag_tracks_kkt(self, rng):
        A = rng.standard_normal((30, 3))
        b = rng.standard_normal(30)
        res = solve_lp_regression(A, b, 3.0)
        assert res.converged
        assert res.kkt_residual <= 1e-8


    def test_converged_flag_needs_the_decrement_test(self, rng, monkeypatch):
        # one Newton step per rung leaves the last decrement above its bound
        A = rng.standard_normal((30, 3))
        b = rng.standard_t(2.0, 30)
        for p in (1.0, 3.0):
            assert solve_lp_regression(A, b, p).converged
        monkeypatch.setattr(solver, "_MAX_ITERS", 1)
        for p in (1.0, 3.0):
            assert not solve_lp_regression(A, b, p).converged


class TestWarmStart:
    def test_list_start_is_accepted(self, rng):
        A = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        x0 = [0.5, -1.0, 2.0]
        res = solve_lp_regression(A, b, 1.5, x0=x0)
        ref = solve_lp_regression(A, b, 1.5, x0=np.array(x0))
        np.testing.assert_array_equal(res.x, ref.x)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize(
        "x0", [np.ones(2), np.ones(4), np.array([1.0, np.nan, 0.0]), np.ones((3, 1))]
    )
    def test_bad_start_raises_naming_x0(self, rng, p, x0):
        A = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        with pytest.raises(ValueError, match="x0"):
            solve_lp_regression(A, b, p, x0=x0)

    def test_p2_ignores_the_start(self, rng):
        A = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        res = solve_lp_regression(A, b, 2.0, x0=[5.0, 5.0, 5.0])
        np.testing.assert_array_equal(res.x, solve_lp_regression(A, b, 2.0).x)


class TestRank:
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("rank", [4, 2])
    def test_rank_read_from_the_solve(self, rng, p, rank):
        # from the first QR, of [A | b]; a start x0 skips that QR at
        # p != 2 and leaves the rank unread; a zero b takes no QR and
        # ranks A alone
        A = rng.standard_normal((60, rank)) @ rng.standard_normal((rank, 4))
        b = rng.standard_normal(60)
        assert solve_lp_regression(A, b, p).rank == rank
        started = solve_lp_regression(A, b, p, x0=np.ones(4)).rank
        assert started == (rank if p == 2.0 else None)
        assert solve_lp_regression(A, np.zeros(60), p).rank == rank


class TestLeastSquaresHelper:
    @pytest.mark.parametrize(
        "shape, rank", [((40, 5), 5), ((6, 6), 6), ((3, 7), 3), ((40, 6), 4)]
    )
    def test_bitwise_scipy_gelsy(self, rng, shape, rank):
        n, m = shape
        A = rng.standard_normal((n, rank)) @ rng.standard_normal((rank, m))
        b = rng.standard_normal(n)
        ref = scipy.linalg.lstsq(A, b, cond=DEFAULT_RANK_TOL, lapack_driver="gelsy")[0]
        A0, b0 = A.copy(), b.copy()
        x = solver._lstsq(A, b)
        assert x.shape == (m,)
        np.testing.assert_array_equal(x, ref)
        np.testing.assert_array_equal(A, A0)
        np.testing.assert_array_equal(b, b0)

    def test_non_finite_newton_weights_raise(self, rng, monkeypatch):
        def poisoned(rho, mu, p):
            w = np.ones_like(rho)
            w[3] = np.nan
            return w

        monkeypatch.setattr(solver, "smoothed_power_weights", poisoned)
        with pytest.raises(ValueError):
            solve_lp_regression(rng.standard_normal((20, 3)), rng.standard_normal(20), 1.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_caller_arrays_untouched(self, rng, p):
        # the least-squares kernel factors its own buffer in place
        for order in ("C", "F"):
            A = np.asarray(rng.standard_normal((50, 4)), order=order)
            b = rng.standard_normal(50)
            A0, b0 = A.copy(), b.copy()
            solve_lp_regression(A, b, p)
            np.testing.assert_array_equal(A, A0)
            np.testing.assert_array_equal(b, b0)


class TestAgainstOracles:
    def test_p2_vs_normal_equations(self, rng):
        for _ in range(25):
            n = int(rng.integers(10, 80))
            m = int(rng.integers(1, 6))
            A = rng.standard_normal((n, m))
            b = rng.standard_normal(n)
            res = solve_lp_regression(A, b, 2.0)
            x_ne = np.linalg.solve(A.T @ A, A.T @ b)
            z_ne = vec_p_norm(A @ x_ne - b, 2.0)
            assert res.objective == pytest.approx(z_ne, rel=1e-10)

    @pytest.mark.parametrize("p", [1.0, 1.3])
    def test_1d_grid_oracle(self, rng, p):
        for _ in range(5):
            A = rng.standard_normal((15, 1))
            b = rng.standard_normal(15)
            res = solve_lp_regression(A, b, p)
            _, z_grid = grid_scan_1d(A, b, p, -5.0, 5.0, 1e-3)
            assert res.objective <= z_grid * (1.0 + 1e-6)
            assert abs(res.objective - z_grid) <= 1e-3 * (1.0 + z_grid)

    def test_2d_l1_grid_oracle(self, rng):
        A = rng.standard_normal((12, 2))
        b = rng.standard_normal(12)
        res = solve_lp_regression(A, b, 1.0)
        _, z_grid = grid_scan_2d(A, b, 1.0, -2.0, 2.0, 4e-3)
        assert res.objective <= z_grid * (1.0 + 1e-6)
        assert abs(res.objective - z_grid) <= 2e-3 * (1.0 + z_grid)

    def test_restart_agreement_p3(self, rng):
        # strict convexity: objectives from 10 random starts agree
        A = rng.standard_normal((25, 3))
        b = rng.standard_normal(25)
        objs = [
            solve_lp_regression(A, b, 3.0, x0=rng.standard_normal(3) * 5.0).objective
            for _ in range(10)
        ]
        assert (max(objs) - min(objs)) / min(objs) <= 1e-6

    @pytest.mark.parametrize(
        "n, d, noise, seed", [(2000, 8, "sparse-gross", 0), (2000, 3, "gaussian", 1)]
    )
    def test_l1_matches_highs(self, n, d, noise, seed):
        A, b, _ = make_instance_arrays(n, d, noise_model=noise, seed=seed)
        z_lp = highs_l1_optimum(A, b)
        res = solve_lp_regression(A, b, 1.0)
        assert res.converged
        assert abs(res.objective - z_lp) <= 1e-9 * z_lp

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_first_order_optimality(self, rng, p):
        # the gradient of the unsmoothed ||Ax - b||_p^p against the size of
        # the terms it sums: at most 2e-8 here (smoothing at mu_min bounds it
        # at p < 2), 0.06-0.4 at the least-squares start
        cases = [make_instance_arrays(2000, 8, seed=2)[:2]]
        cases.append((rng.standard_normal((500, 5)), rng.standard_t(2.0, 500)))
        for A, b in cases:
            res = solve_lp_regression(A, b, p)
            rho = A @ res.x - b
            terms = np.abs(rho) ** (p - 1.0)
            grad = A.T @ (np.sign(rho) * terms)
            assert res.converged
            assert np.linalg.norm(grad) <= 1e-6 * np.linalg.norm(np.abs(A).T @ terms)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_newton_converges_in_few_steps(self, p):
        A, b, _ = make_instance_arrays(20000, 8, seed=1)
        res = solve_lp_regression(A, b, p)
        assert res.converged
        assert res.iterations <= 35

    def test_continuation_no_worse_than_single_stage(self, rng, monkeypatch):
        A = rng.standard_normal((40, 3))
        b = rng.standard_normal(40)
        full = solve_lp_regression(A, b, 1.2)
        # a one-rung ladder at a coarse smoothing
        monkeypatch.setattr(solver, "_MU_FIRST", 0.05)
        monkeypatch.setattr(solver, "_MU_LAST", 0.05)
        coarse = solve_lp_regression(A, b, 1.2)
        assert full.objective <= coarse.objective + 1e-12


def _fields(res):
    return res.x, res.objective, res.iterations, res.converged, res.kkt_residual, res.rank


@pytest.fixture(params=["one block", "blocks of 256"])
def blocks(request, monkeypatch):
    """2,003 rows as one block, or as blocks of 256 rows with a last block
    of 467, for both the QR and the residual passes."""
    if request.param == "blocks of 256":
        monkeypatch.setattr(linalg, "_TSQR_ROWS", 256)
        monkeypatch.setattr(kernels, "_ROW_BLOCK", 256)
    return request.param


class TestLayouts:
    """A row-major A and its column-major copy give the same solve: at
    p != 2 every product reads the one column-major A."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("started", [False, True])
    def test_bitwise_across_layouts(self, blocks, p, started):
        A, b, _ = make_instance_arrays(2003, 4, seed=2)
        x0 = np.full(4, 0.5) if started else None
        by_rows = solve_lp_regression(np.ascontiguousarray(A), b, p, x0=x0)
        by_cols = solve_lp_regression(np.asfortranarray(A), b, p, x0=x0)
        for got, want in zip(_fields(by_rows), _fields(by_cols)):
            np.testing.assert_array_equal(got, want)

    def test_p2_across_layouts(self, blocks):
        # the QR copies each block into its own buffer, so x is bitwise; the
        # residual pass runs the caller's layout, so the objective may move
        # in its last bit
        A, b, _ = make_instance_arrays(2003, 4, seed=2)
        by_rows = solve_lp_regression(np.ascontiguousarray(A), b, 2.0)
        by_cols = solve_lp_regression(np.asfortranarray(A), b, 2.0)
        np.testing.assert_array_equal(by_rows.x, by_cols.x)
        assert by_rows.objective == pytest.approx(by_cols.objective, rel=1e-15)
        assert by_rows.rank == by_cols.rank == 4
        assert by_rows.converged and by_cols.converged


class TestTwoPasses:
    """At p = 2 the solve reads A in one QR pass and one residual pass."""

    def test_one_qr_pass_and_one_residual_pass(self, monkeypatch):
        monkeypatch.setattr(linalg, "_TSQR_ROWS", 256)
        monkeypatch.setattr(kernels, "_ROW_BLOCK", 256)
        A, b, _ = make_instance_arrays(2003, 4, seed=2)
        heights, passes = [], []
        real_geqrf, real_blocks = linalg._GEQRF, kernels.row_blocks

        def counting_geqrf(a, *args, **kwargs):
            heights.append(a.shape)
            return real_geqrf(a, *args, **kwargs)

        def recording_blocks(n):
            passes.append(real_blocks(n))
            return passes[-1]

        monkeypatch.setattr(linalg, "_GEQRF", counting_geqrf)
        monkeypatch.setattr(kernels, "row_blocks", recording_blocks)
        res = solve_lp_regression(A, b, 2.0)
        # one geqrf per block of [A | b] and one of the stacked triangles
        assert heights == [(256, 5)] * 6 + [(467, 5), (35, 5)]
        # one pass of the residual kernel, one call per block
        assert passes == [real_blocks(2003)]
        assert len(passes[0]) == 7
        assert res.converged and res.rank == 4
        rho = A @ res.x - b
        assert res.objective == pytest.approx(vec_p_norm(rho, 2.0), rel=1e-14)
        kkt = np.linalg.norm(A.T @ rho) / max(1.0, np.linalg.norm(A.T @ b))
        assert res.kkt_residual == pytest.approx(kkt, rel=1e-6, abs=1e-15)

    def test_no_n_length_array(self):
        # the QR's block buffer (19,776 x 9 doubles) is 1.4 MB; an n-length
        # array (the residual, or a finiteness mask of A) would add 1.6 MB
        A, b, _ = make_instance_arrays(200_000, 8, seed=1)
        solve_lp_regression(A, b, 2.0)
        tracemalloc.start()
        try:
            solve_lp_regression(A, b, 2.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.0e6


class TestInputChecks:
    """The checks that the QR pass, or a started solve's first residual
    pass, makes block by block keep the error contract of whole-array
    checks."""

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("started", [False, True])
    @pytest.mark.parametrize("zero_b", [False, True])
    def test_zero_matrix(self, blocks, p, started, zero_b):
        b = np.zeros(2003) if zero_b else np.linspace(-1.0, 1.0, 2003)
        x0 = np.ones(3) if started else None
        with pytest.raises(ZeroRankError):
            solve_lp_regression(np.zeros((2003, 3)), b, p, x0=x0)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("started", [False, True])
    @pytest.mark.parametrize("where", ["A", "b"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_non_finite_in_the_last_block(self, blocks, p, started, where, bad):
        A, b, _ = make_instance_arrays(2003, 4, seed=2)
        if where == "A":
            A[2001, 2] = bad
        else:
            b[2001] = bad
        A0, b0 = A.copy(), b.copy()
        x0 = np.ones(4) if started else None
        with pytest.raises(ValueError, match="non-finite"):
            solve_lp_regression(A, b, p, x0=x0)
        np.testing.assert_array_equal(A, A0)
        np.testing.assert_array_equal(b, b0)

    def test_non_finite_rhs_column(self, rng):
        B = rng.standard_normal((50, 3))
        B[7, 2] = np.nan
        with pytest.raises(ValueError, match="non-finite"):
            solve_multi_rhs(rng.standard_normal((50, 2)), B, 1.5)

    @pytest.mark.parametrize("scale", [1e200, 1e-200])
    def test_extreme_scales(self, blocks, scale):
        # residuals whose squares overflow or vanish: the objective takes
        # the guarded path and scales with the data
        A, b, _ = make_instance_arrays(2003, 4, seed=2)
        res = solve_lp_regression(A, b, 2.0)
        scaled = solve_lp_regression(A, scale * b, 2.0)
        assert scaled.objective == pytest.approx(scale * res.objective, rel=1e-12)
        assert scaled.converged


def solve_weighted(A, b, p, weights):
    """The weighted full solve: the row-scaled problem (solver.row_scaled)."""
    return solve_lp_regression(*row_scaled(A, b, weights, p), p)


class TestWeighted:
    def test_unit_weights_reduce_exactly(self, rng):
        A = rng.standard_normal((20, 3))
        b = rng.standard_normal(20)
        for p in (1.0, 2.0, 3.0):
            rw = solve_weighted(A, b, p, np.ones(20))
            ru = solve_lp_regression(A, b, p)
            assert rw.objective == ru.objective

    def test_zero_weight_removes_row(self, rng):
        A = rng.standard_normal((10, 2))
        b = rng.standard_normal(10)
        w = np.ones(10)
        w[4] = 0.0
        rw = solve_weighted(A, b, 2.0, w)
        keep = np.arange(10) != 4
        rr = solve_lp_regression(A[keep], b[keep], 2.0)
        np.testing.assert_allclose(rw.x, rr.x, atol=1e-10)

    def test_two_row_closed_form(self):
        # min 4(x - b1)^2 + (2x - b2)^2 has x* = (4 b1 + 2 b2) / 8
        A = np.array([[1.0], [2.0]])
        b = np.array([3.0, 1.0])
        w = np.array([4.0, 1.0])
        res = solve_weighted(A, b, 2.0, w)
        x_star = (4.0 * 1.0 * 3.0 + 2.0 * 1.0) / (4.0 + 4.0)
        assert res.x[0] == pytest.approx(x_star, rel=1e-10)

    def test_all_zero_weights_rejected(self, rng):
        with pytest.raises(ValueError):
            solve_weighted(rng.standard_normal((4, 1)), np.ones(4), 2.0, np.zeros(4))


class TestMultiRhs:
    def test_single_column_matches_vector(self, rng):
        A = rng.standard_normal((15, 2))
        b = rng.standard_normal(15)
        X = solve_multi_rhs(A, b[:, None], 1.5)
        res = solve_lp_regression(A, b, 1.5)
        np.testing.assert_array_equal(X[:, 0], res.x)

    def test_consistent(self, rng):
        A = rng.standard_normal((20, 3))
        Xs = rng.standard_normal((3, 2))
        X = solve_multi_rhs(A, A @ Xs, 3.0)
        np.testing.assert_allclose(X, Xs, atol=1e-6)

    def test_objective_decomposition(self, rng):
        A = rng.standard_normal((18, 2))
        B = rng.standard_normal((18, 2))
        p = 1.5
        X = solve_multi_rhs(A, B, p)
        total = np.sum(np.abs(A @ X - B) ** p)
        per_col = sum(
            solve_lp_regression(A, B[:, j], p).objective ** p for j in range(2)
        )
        assert total == pytest.approx(per_col, rel=1e-10)


class TestGradientCheck:
    def test_p2_exact(self, rng):
        A = rng.standard_normal((15, 3))
        b = rng.standard_normal(15)
        x = rng.standard_normal(3)
        assert objective_gradient_check(A, b, 2.0, x, h=1e-5) <= 1e-7

    def test_p3(self, rng):
        A = rng.standard_normal((20, 3))
        b = rng.standard_normal(20)
        x = rng.standard_normal(3)
        assert objective_gradient_check(A, b, 3.0, x, h=1e-5) <= 1e-5

    def test_p15_smoothed(self, rng):
        A = rng.standard_normal((20, 3))
        b = rng.standard_normal(20)
        x = rng.standard_normal(3)
        assert objective_gradient_check(A, b, 1.5, x, h=1e-5, mu=1e-3) <= 1e-4

    def test_requires_smoothing_below_2(self, rng):
        with pytest.raises(ValueError):
            objective_gradient_check(
                np.ones((3, 1)), np.ones(3), 1.5, np.zeros(1), mu=0.0
            )


_FAULT_PROBE = textwrap.dedent(
    """
    import resource
    from lpcoreset.pipeline import make_instance_arrays
    from lpcoreset.solver import solve_lp_regression

    A, b, _ = make_instance_arrays(20_000, 8, seed=1)
    solve_lp_regression(A, b, 1.5)
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    res = solve_lp_regression(A, b, 1.5)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    print(after - before, res.iterations)
    """
)


@pytest.mark.skipif(not sys.platform.startswith("linux"), reason="counts Linux minor faults")
def test_irls_reuses_its_working_memory():
    # a fresh interpreter, so that no earlier allocation has raised glibc's
    # mmap threshold; allocating the weighted copy of A on every iteration
    # costs ~380 minor faults per iteration here, reusing it ~12
    src = os.path.dirname(os.path.dirname(lpcoreset.__file__))
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    out = subprocess.run(
        [sys.executable, "-c", _FAULT_PROBE], env=env, capture_output=True, text=True, check=True
    ).stdout.split()
    faults, iterations = int(out[0]), int(out[1])
    assert iterations > 10
    assert faults < 100 * iterations

