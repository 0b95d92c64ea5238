import dataclasses
import tracemalloc
import types

import numpy as np
import pytest
import scipy.linalg

import lpcoreset as lc
from lpcoreset.cli import _ratio_sweep
from lpcoreset.io import json_dumps, report_to_dict
from lpcoreset.pipeline import _sample_and_solve, derive_seed
from oracles import whole_array_stage1, whole_array_stage2


def small_cfg(p, d=3, eps=0.5, s1=1e-4, s2=1e-4):
    return lc.SamplerConfig(p=p, d=d, epsilon=eps, r1_scale=s1, r2_scale=s2)


def full_cfg(p, d=3):
    # scales so large every probability clamps to 1 (degenerate full sample)
    return lc.SamplerConfig(p=p, d=d, epsilon=0.1, r1_scale=1e12, r2_scale=1e12)


def report_payload(report):
    doc = report_to_dict(report)
    doc.pop("timings_ms", None)
    doc.pop("config", None)
    return doc


@pytest.fixture(scope="module")
def ref300():
    return lc.reference_instance(n=300, d=3, p=1.5, seed=5)


class TestSeeds:
    def test_derivation_is_stable(self):
        assert lc.derive_seed(42, "stage1") == lc.derive_seed(42, "stage1")
        assert lc.derive_seed(42, "stage1") != lc.derive_seed(42, "stage2")
        assert lc.derive_seed(42, "stage1") != lc.derive_seed(43, "stage1")

    def test_range(self):
        s = lc.derive_seed(2**63, "x")
        assert 0 <= s < 2**64


class TestStages:
    def test_full_sampling_gives_exact_solution(self, ref300):
        rep = lc.two_stage_solve(ref300, full_cfg(1.5), seed=0, compute_exact=True)
        assert rep.stage1.plan.actual_count == 300
        assert rep.approx_ratio <= 1.0 + 1e-6

    def test_consistent_system_stage1(self, rng):
        A = rng.standard_normal((200, 3))
        inst = lc.RegressionInstance(A=A, b=A @ np.ones(3), p=3.0)
        out = lc.stage_one(inst, small_cfg(3.0, s1=3e-3), seed=4)
        assert out.full_objective <= 1e-6 * lc.vec_p_norm(inst.b, 3.0)

    def test_stage2_passthrough_on_zero_residual(self, rng):
        A = rng.standard_normal((150, 3))
        inst = lc.RegressionInstance(A=A, b=A @ np.ones(3), p=2.0)
        st1 = lc.stage_one(inst, small_cfg(2.0, s1=1e-3), seed=9)
        st2 = lc.stage_two(inst, st1, small_cfg(2.0, s1=1e-3), seed=10)
        assert st2.exact_passthrough
        assert st2.plan is None
        np.testing.assert_array_equal(st2.x_hat, st1.x_hat)
        # a passthrough solves nothing, so it has no solver record
        assert st2.solver_iterations is None and st2.solver_converged is None
        doc = report_to_dict(lc.two_stage_solve(inst, small_cfg(2.0, s1=1e-3), seed=9))
        assert doc["stage2"]["exact_passthrough"]
        assert doc["stage2"]["solver_iterations"] is doc["stage2"]["solver_converged"] is None

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_stages_record_their_solves(self, ref300, monkeypatch, p):
        inst = lc.RegressionInstance(A=ref300.A, b=ref300.b, p=p)
        solves = []

        def recorded(*args):
            res = solve(*args)
            solves.append(res)
            return res

        solve = lc.pipeline.solve_lp_regression
        monkeypatch.setattr(lc.pipeline, "solve_lp_regression", recorded)
        rep = lc.two_stage_solve(inst, small_cfg(p), seed=21)
        assert rep.status == "ok" and len(solves) == 2
        for out, res in zip((rep.stage1, rep.stage2), solves):
            assert out.solver_iterations == res.iterations > 1
            assert out.solver_converged is res.converged is True

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_exact_baseline_records_its_solve(self, monkeypatch, p):
        # the report carries the exact solve's steps and flag, which the
        # instance keeps with its optimum: one full solve for both
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        full = []
        solve = lc.pipeline.solve_lp_regression

        def counted(A, b, q, *args):
            res = solve(A, b, q, *args)
            if A.shape[0] == inst.n:
                full.append(res)
            return res

        monkeypatch.setattr(lc.pipeline, "solve_lp_regression", counted)
        rep = lc.two_stage_solve(inst, small_cfg(p, d=4), seed=3, compute_exact=True)
        assert rep.status == "ok" and len(full) == 1
        assert inst.exact_result is full[0]
        assert rep.Z_exact == full[0].objective == inst.optimum[1]
        np.testing.assert_array_equal(inst.optimum[0], full[0].x)
        assert rep.exact_solver_iterations == full[0].iterations >= 1
        assert rep.exact_solver_converged is full[0].converged is True
        assert lc.two_stage_solve(inst, small_cfg(p, d=4), seed=3).exact_solver_converged is None
        assert len(full) == 1

    def test_stage2_resamples_independently(self, ref300):
        rep = lc.two_stage_solve(ref300, small_cfg(1.5), seed=21)
        assert rep.stage1.plan.seed != rep.stage2.plan.seed
        assert rep.stage2 is not None and rep.status == "ok"

    def test_stage2_dominates_stage1_probs(self, ref300):
        rep = lc.two_stage_solve(ref300, small_cfg(1.5), seed=21)
        assert np.all(rep.stage2.plan.probs >= rep.stage1.plan.probs - 1e-15)

    def test_square_instance_samples_everything(self, rng):
        A = rng.standard_normal((4, 4))
        inst = lc.RegressionInstance(A=A, b=rng.standard_normal(4), p=3.0)
        # every leverage ratio is forced to 1 by the n-cap on r
        rep = lc.two_stage_solve(inst, lc.SamplerConfig(p=3.0, d=4), seed=1, compute_exact=True)
        assert rep.stage1.plan.actual_count == 4
        assert rep.approx_ratio <= 1.0 + 1e-6


class TestRetries:
    def test_retry_succeeds_with_derived_seed(self, rng):
        g = np.random.default_rng(3)
        A = g.standard_normal((40, 3))
        inst = lc.RegressionInstance(A=A, b=g.standard_normal(40), p=2.0)
        out = _sample_and_solve(inst, np.full(40, 0.08), 1, 3)
        assert out.attempts == 3  # first two realizations were rank-deficient

    def test_exhausted_retries_raise_with_diagnostics(self, rng):
        g = np.random.default_rng(3)
        A = g.standard_normal((40, 3))
        inst = lc.RegressionInstance(A=A, b=g.standard_normal(40), p=2.0)
        with pytest.raises(lc.StageFailureError) as exc_info:
            _sample_and_solve(inst, np.full(40, 1e-9), 1, 0)
        diag = exc_info.value.diagnostics
        assert diag["stage"] == 1
        assert len(diag["attempts"]) == 6

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_rank_deficient_samples_are_recorded_and_retried(self, p):
        # rows 0-29 lie on e1 and are always kept, rows 30-39 on e2 are
        # kept with probability 0.08, and the one row with e3 never: every
        # sample has at least 3 rows but rank 1 or 2.  The attempts record
        # each derived seed's count and rank, read from the solve's QR,
        # as a separate rank of each sample reads them.
        g = np.random.default_rng(4)
        A = np.zeros((41, 3))
        A[:30, 0] = g.uniform(1.0, 2.0, 30)
        A[30:40, 1] = g.uniform(1.0, 2.0, 10)
        A[40] = g.standard_normal(3)
        inst = lc.RegressionInstance(A=A, b=g.standard_normal(41), p=p)
        probs = np.concatenate([np.ones(30), np.full(10, 0.08), [0.0]])
        with pytest.raises(lc.StageFailureError) as exc_info:
            _sample_and_solve(inst, probs, 1, 5)
        want = []
        for attempt in range(6):
            seed = 5 if attempt == 0 else derive_seed(5, f"retry:{attempt}")
            plan = lc.realize_sample(probs, p, seed)
            rank = lc.numeric_rank(lc.apply_plan(plan, A))
            want.append({"count": plan.actual_count, "rank": rank})
        assert exc_info.value.diagnostics["attempts"] == want
        assert {r["rank"] for r in want} == {1, 2}

    def test_all_zero_samples_are_retried_at_rank_zero(self):
        # rows 0-9 are zero and always kept, so a sample without rows
        # 10-12 has d rows or more, and its solve raises ZeroRankError
        A = np.zeros((13, 3))
        A[10:] = np.eye(3) + 0.1
        inst = lc.RegressionInstance(A=A, b=np.arange(13.0), p=2.0)
        never = np.concatenate([np.ones(10), np.zeros(3)])
        with pytest.raises(lc.StageFailureError) as exc_info:
            _sample_and_solve(inst, never, 1, 0)
        assert exc_info.value.diagnostics["attempts"] == [{"count": 10, "rank": 0}] * 6
        # seed 23's first sample is all zero, and its first derived seed
        # keeps rows 10-12
        sometimes = np.concatenate([np.ones(10), np.full(3, 0.5)])
        assert lc.realize_sample(sometimes, 2.0, 23).realized_indices.max() < 10
        out = _sample_and_solve(inst, sometimes, 1, 23)
        assert out.attempts == 2
        np.testing.assert_array_equal(out.plan.realized_indices[-3:], [10, 11, 12])

    @pytest.mark.parametrize(
        "solve",
        [
            lambda inst, cfg: lc.two_stage_solve(inst, cfg, seed=0),
            lambda inst, cfg: lc.single_stage_oracle_solve(
                inst, np.zeros(3), cfg, r=1e-12, seed=0
            ),
            lambda inst, cfg: lc.single_stage_augmented_solve(inst, cfg, r=1e-12, seed=0),
        ],
        ids=["two-stage", "oracle", "augmented"],
    )
    def test_pipeline_reports_failure_instead_of_raising(self, solve):
        g = np.random.default_rng(3)
        A = g.standard_normal((40, 3))
        inst = lc.RegressionInstance(A=A, b=g.standard_normal(40), p=2.0)
        rep = solve(inst, small_cfg(2.0, s1=1e-12, s2=1e-12))
        assert rep.status == "failed"
        assert "rank-deficient" in rep.error


class TestReportInvariants:
    def test_end_to_end_determinism(self, ref300):
        a = lc.two_stage_solve(ref300, small_cfg(1.5), seed=33, compute_exact=True)
        b = lc.two_stage_solve(ref300, small_cfg(1.5), seed=33, compute_exact=True)
        assert report_payload(a) == report_payload(b)

    @pytest.mark.parametrize("cols", [1, 2])
    def test_no_exact_baseline_above_the_cell_cap(self, monkeypatch, cols):
        # n * m * columns cells one above the cap: no Z_exact, no ratio and
        # no full solve; at the cap the baseline is computed
        A, b, _ = lc.make_instance_arrays(300, 3, seed=5)
        if cols == 2:
            b = np.column_stack([b, 2.0 * b])
        inst = lc.RegressionInstance(A=A, b=b, p=1.5)
        monkeypatch.setattr(lc.pipeline, "_EXACT_CELL_CAP", 300 * 3 * cols - 1)
        rep = lc.two_stage_solve(inst, small_cfg(1.5), seed=0, compute_exact=True)
        assert rep.status == "ok"
        assert (rep.Z_exact, rep.approx_ratio, rep.exact_solver_converged) == (None, None, None)
        assert "Z_exact" not in report_to_dict(rep) and "exact_result" not in vars(inst)
        monkeypatch.setattr(lc.pipeline, "_EXACT_CELL_CAP", 300 * 3 * cols)
        rep = lc.two_stage_solve(inst, small_cfg(1.5), seed=0, compute_exact=True)
        assert rep.Z_exact == inst.optimum[1] and rep.approx_ratio >= 1.0 - 1e-10

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("scale", [0.0, 1.0, 1e6], ids=["0", "Ax", "1e6Ax"])
    def test_consistent_system_ratio_is_one(self, p, scale):
        # b in col(A): the optimum and the final objective are both
        # rounding noise, zero by stage 2's test (which passes stage 1's
        # solution through), so the ratio is 1, and so is the bench sweep's
        A, _, _ = lc.make_instance_arrays(3000, 4, seed=1)
        b = scale * (A @ np.array([1.0, -2.0, 3.0, 0.5]))
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        cfg = lc.SamplerConfig(p=p, d=4, epsilon=0.1, r1_scale=1e-3, r2_scale=1e-3)
        rep = lc.two_stage_solve(inst, cfg, seed=42, compute_exact=True)
        assert rep.status == "ok" and rep.stage2.exact_passthrough
        assert rep.approx_ratio == 1.0
        args = types.SimpleNamespace(seeds=2, seed=0)
        for row in _ratio_sweep(inst, cfg, args):
            assert row["median_ratio"] == row["max_ratio"] == 1.0

    def test_ratio_by_the_zero_test(self):
        # zero means at most 1e-12 ||b||_p; a zero optimum alone gives no ratio
        ratio = lc.pipeline._ratio
        assert ratio(3.0, 2.0, 1.0) == 1.5
        assert ratio(1e-12, 1e-12, 1.0) == 1.0 and ratio(0.0, 0.0, 0.0) == 1.0
        assert ratio(1e-11, 1e-12, 1.0) is None
        assert ratio(1e-11, 1e-12, 100.0) == 1.0
        assert ratio(1.0, None, 1.0) is None

    def test_ratio_at_least_one(self, ref300):
        for seed in range(5):
            rep = lc.two_stage_solve(ref300, small_cfg(1.5), seed=seed, compute_exact=True)
            assert rep.approx_ratio >= 1.0 - 1e-10

    def test_rank_deficient_least_squares_is_optimal(self):
        # fourth column = first + second: rank 3, so the p=2 solve must
        # treat the tiny trailing singular value as zero to reach the optimum
        g = np.random.default_rng(3)
        B = g.standard_normal((500, 3))
        A = np.column_stack([B, B[:, 0] + B[:, 1]])
        b = g.standard_normal(500)
        res = lc.solve_lp_regression(A, b, 2.0)
        x_ls = np.linalg.lstsq(A, b, rcond=None)[0]
        assert res.objective == pytest.approx(np.linalg.norm(A @ x_ls - b), rel=1e-12)
        assert res.converged and res.kkt_residual <= 1e-8
        inst = lc.RegressionInstance(A=A, b=b, p=2.0)
        assert inst.d == 3
        cfg = lc.SamplerConfig(p=2.0, d=3, epsilon=0.1, r1_scale=3e-4, r2_scale=3e-4)
        for seed in range(4):
            rep = lc.two_stage_solve(inst, cfg, seed, compute_exact=True)
            assert rep.approx_ratio >= 1.0 - 1e-10

    def test_coreset_resolve_reproduces_stage2(self, ref300):
        rep = lc.two_stage_solve(ref300, small_cfg(1.5), seed=7)
        idx = rep.coreset_indices
        scales = rep.coreset_scales
        SA = ref300.A[idx] * scales[:, None]
        Sb = ref300.b[idx] * scales
        res = lc.solve_lp_regression(SA, Sb, ref300.p)
        assert res.objective == pytest.approx(rep.stage2.sampled_objective, abs=1e-10)
        np.testing.assert_allclose(res.x, rep.stage2.x_hat, atol=1e-8)

    # tiny factors put ||b||_p far below 1, where the zero-residual
    # shortcut must stay relative to ||b||_p and stage 2 still sample
    @pytest.mark.parametrize("factor", [3.7, 1e-16, 2**-60], ids=["3.7", "1e-16", "2**-60"])
    def test_scale_equivariance(self, ref300, factor):
        cfg = small_cfg(1.5)
        base = lc.two_stage_solve(ref300, cfg, seed=11)
        scaled_inst = lc.RegressionInstance(A=factor * ref300.A, b=factor * ref300.b, p=1.5)
        scaled = lc.two_stage_solve(scaled_inst, cfg, seed=11)
        np.testing.assert_array_equal(
            base.stage1.plan.realized_indices, scaled.stage1.plan.realized_indices
        )
        np.testing.assert_array_equal(
            base.stage2.plan.realized_indices, scaled.stage2.plan.realized_indices
        )
        assert not scaled.stage2.exact_passthrough
        assert scaled.stage2.full_objective == pytest.approx(
            factor * base.stage2.full_objective, rel=1e-9
        )
        np.testing.assert_allclose(scaled.stage2.x_hat, base.stage2.x_hat, atol=1e-6)

    def test_median_ratio_monotone_in_r2_scale(self):
        # dense-noise family so subsampling has a visible accuracy cost
        A, b, _ = lc.make_instance_arrays(600, 3, noise_model="gaussian", seed=2)
        inst = lc.RegressionInstance(A=A, b=b, p=1.0)
        medians = []
        for s2 in (0.001, 0.01, 0.1):
            cfg = lc.SamplerConfig(p=1.0, d=3, epsilon=0.5, r1_scale=1e-4, r2_scale=s2)
            ratios = []
            for seed in range(20):
                rep = lc.two_stage_solve(inst, cfg, seed=seed, compute_exact=True)
                ratios.append(rep.approx_ratio)
            medians.append(float(np.median(ratios)))
        # non-increasing up to Monte Carlo noise of one adjacent rank swap
        inversions = sum(
            1
            for i in range(3)
            for j in range(i + 1, 3)
            if medians[i] < medians[j] - 1e-9
        )
        assert inversions <= 1
        assert medians[0] >= medians[-1] - 1e-9


class TestVariants:
    def test_generalized_single_column_reduction(self, ref300):
        cfg = small_cfg(1.5)
        inst_m = lc.RegressionInstance(A=ref300.A, b=ref300.b[:, None], p=1.5)
        rv = lc.two_stage_solve(ref300, cfg, seed=11, compute_exact=True)
        rm = lc.two_stage_solve(inst_m, cfg, seed=11, compute_exact=True)
        np.testing.assert_array_equal(
            rv.stage2.plan.realized_indices, rm.stage2.plan.realized_indices
        )
        assert rm.stage2.full_objective == pytest.approx(
            rv.stage2.full_objective, rel=1e-12
        )
        assert rm.Z_exact == pytest.approx(rv.Z_exact, rel=1e-12)
        assert (rv.config["variant"], rm.config["variant"]) == ("two-stage", "generalized")

    def test_generalized_sums_its_column_solves(self, rng, monkeypatch):
        # the solver's column loop calls solve_lp_regression once per column
        A = rng.standard_normal((400, 3))
        B = A @ np.ones((3, 2)) + rng.standard_t(2.0, (400, 2))
        inst = lc.RegressionInstance(A=A, b=B, p=1.5)
        solve = lc.solver.solve_lp_regression
        columns, failing = [], []

        def recorded(A, b, p, *args, **kwargs):
            res = solve(A, b, p, *args, **kwargs)
            if np.ndim(b) == 1:
                columns.append(res)
                if failing and len(columns) % 2 == 0:
                    res = dataclasses.replace(res, converged=False)
            return res

        monkeypatch.setattr(lc.solver, "solve_lp_regression", recorded)
        rep = lc.two_stage_solve(inst, small_cfg(1.5, s1=6e-4, s2=6e-4), seed=3)
        assert rep.status == "ok" and len(columns) == 4
        for out, cols in zip((rep.stage1, rep.stage2), (columns[:2], columns[2:])):
            assert out.solver_iterations == sum(res.iterations for res in cols)
            assert out.solver_converged is True
        # one column that failed its decrement test clears the stage's flag
        failing.append(True)
        rep = lc.two_stage_solve(inst, small_cfg(1.5, s1=6e-4, s2=6e-4), seed=3)
        assert rep.stage1.solver_converged is rep.stage2.solver_converged is False

    def test_generalized_consistent(self, rng):
        A = rng.standard_normal((120, 3))
        Xs = rng.standard_normal((3, 2))
        inst = lc.RegressionInstance(A=A, b=A @ Xs, p=2.0)
        rep = lc.two_stage_solve(inst, small_cfg(2.0, s1=2e-3), seed=3)
        assert rep.stage2.full_objective <= 1e-8 * lc.vec_p_norm(inst.b, 2.0)

    def test_generalized_two_columns_relative_error(self, rng):
        A = rng.standard_normal((400, 3))
        B = A @ np.ones((3, 2)) + rng.standard_normal((400, 2))
        inst = lc.RegressionInstance(A=A, b=B, p=1.5)
        cfg = lc.SamplerConfig(p=1.5, d=3, epsilon=0.5, r1_scale=6e-4, r2_scale=6e-4)
        hits = 0
        for seed in range(10):
            rep = lc.two_stage_solve(inst, cfg, seed=seed, compute_exact=True)
            if rep.approx_ratio <= 1.5:
                hits += 1
        assert hits >= 9

    def test_weighted_unit_weights_identical_report(self, ref300):
        cfg = small_cfg(1.5)
        plain = lc.two_stage_solve(ref300, cfg, seed=13, compute_exact=True)
        winst = lc.RegressionInstance(
            A=ref300.A, b=ref300.b, p=1.5, weights=np.ones(ref300.n)
        )
        weighted = lc.two_stage_solve(winst, cfg, seed=13, compute_exact=True)
        assert report_payload(plain) == report_payload(weighted)

    def test_weighted_zero_rows_never_sampled(self, rng):
        A = rng.standard_normal((100, 3))
        b = rng.standard_normal(100)
        w = np.ones(100)
        dead = np.array([5, 17, 44])
        w[dead] = 0.0
        inst = lc.RegressionInstance(A=A, b=b, p=2.0, weights=w)
        rep = lc.two_stage_solve(inst, small_cfg(2.0, s1=1e-2, s2=1e-2), seed=1)
        for out in (rep.stage1, rep.stage2):
            assert not set(dead.tolist()) & set(out.plan.realized_indices.tolist())

    def test_weighted_integer_weights_match_replication(self, rng):
        # w in {1,2} should behave like physically duplicated rows
        A = rng.standard_normal((120, 2))
        b = A @ np.ones(2) + rng.standard_normal(120)
        w = np.where(np.arange(120) % 3 == 0, 2.0, 1.0)
        winst = lc.RegressionInstance(A=A, b=b, p=2.0, weights=w)
        reps = np.repeat(np.arange(120), w.astype(int))
        rinst = lc.RegressionInstance(A=A[reps], b=b[reps], p=2.0)
        cfg = small_cfg(2.0, d=2, s1=1e-5, s2=1e-5)
        w_obj = [
            lc.two_stage_solve(winst, cfg, seed=s).stage2.full_objective
            for s in range(20)
        ]
        r_obj = [
            lc.two_stage_solve(rinst, cfg, seed=s).stage2.full_objective
            for s in range(20)
        ]
        # same objective scale: the distributions must overlap
        assert min(max(w_obj), max(r_obj)) >= max(min(w_obj), min(r_obj))

    def test_weighted_instance_on_every_pipeline(self, ref300):
        w = np.random.default_rng(4).uniform(0.0, 5.0, ref300.n)
        winst = lc.RegressionInstance(A=ref300.A, b=ref300.b, p=1.5, weights=w)
        exact = lc.solve_lp_regression(*lc.solver.row_scaled(ref300.A, ref300.b, w, 1.5), 1.5)
        cfg = small_cfg(1.5)
        reports = [
            lc.two_stage_solve(winst, cfg, seed=2, compute_exact=True),
            lc.single_stage_augmented_solve(winst, cfg, r=100.0, seed=2, compute_exact=True),
            lc.single_stage_oracle_solve(
                winst, exact.x, cfg, r=100.0, seed=2, compute_exact=True
            ),
        ]
        assert [rep.status for rep in reports] == ["ok"] * 3
        assert reports[0].config["variant"] == "weighted"
        Z = [rep.Z_exact for rep in reports]
        Z.append(lc.guarantee_statistics(winst, cfg, n_seeds=2)["Z_exact"])
        assert Z == pytest.approx([exact.objective] * 4, rel=1e-9)

    def test_oracle_single_stage(self, rng):
        inst = lc.reference_instance(n=500, d=3, p=1.0, seed=8)
        cfg = lc.SamplerConfig(p=1.0, d=3, epsilon=0.5)
        exact = lc.solve_lp_regression(inst.A, inst.b, 1.0)
        hits = 0
        for seed in range(20):
            rep = lc.single_stage_oracle_solve(
                inst, exact.x, cfg, r=150.0, seed=seed, compute_exact=True
            )
            assert rep.status == "ok"
            if rep.approx_ratio <= 1.5:
                hits += 1
        assert hits >= 17

    def test_oracle_full_sampling(self, ref300):
        cfg = small_cfg(1.5)
        exact = lc.solve_lp_regression(ref300.A, ref300.b, 1.5)
        rep = lc.single_stage_oracle_solve(
            ref300, exact.x, cfg, r=1e12, seed=0, compute_exact=True
        )
        assert rep.approx_ratio <= 1.0 + 1e-6

    def test_oracle_consistent_reduces_to_leverage(self, rng):
        A = rng.standard_normal((150, 3))
        inst = lc.RegressionInstance(A=A, b=A @ np.ones(3), p=2.0)
        rep = lc.single_stage_oracle_solve(
            inst, np.ones(3), lc.SamplerConfig(p=2.0, d=3), r=60.0, seed=0
        )
        assert rep.status == "ok"
        assert rep.stage1.full_objective <= 1e-8 * lc.vec_p_norm(inst.b, 2.0)

    def test_augmented_full_sampling(self, ref300):
        rep = lc.single_stage_augmented_solve(
            ref300, small_cfg(1.5), r=1e12, seed=0, compute_exact=True
        )
        assert rep.approx_ratio <= 1.0 + 1e-6

    def test_augmented_relative_error(self):
        inst = lc.reference_instance(n=500, d=3, p=1.0, seed=8)
        cfg = lc.SamplerConfig(p=1.0, d=3, epsilon=0.5)
        ratios = []
        for seed in range(20):
            rep = lc.single_stage_augmented_solve(
                inst, cfg, r=150.0, seed=seed, compute_exact=True
            )
            ratios.append(rep.approx_ratio)
        assert float(np.median(ratios)) <= 1.5

    def test_augmented_consistent_keeps_rank_d(self, rng):
        A = rng.standard_normal((80, 3))
        b = A @ np.ones(3)
        assert lc.numeric_rank(np.column_stack([A, b])) == 3
        inst = lc.RegressionInstance(A=A, b=b, p=1.5)
        rep = lc.single_stage_augmented_solve(inst, small_cfg(1.5), r=40.0, seed=2)
        assert rep.status == "ok"
        assert rep.stage1.full_objective <= 1e-6 * lc.vec_p_norm(b, 1.5)


class TestGuaranteeStatistics:
    def test_full_sampling_all_frequencies_one(self, rng):
        A = rng.standard_normal((80, 2))
        inst = lc.RegressionInstance(A=A, b=rng.standard_normal(80), p=2.0)
        cfg = full_cfg(2.0, d=2)
        stats = lc.guarantee_statistics(inst, cfg, n_seeds=5)
        assert all(f == 1.0 for f in stats["frequencies"].values())
        assert stats["median_final_ratio"] == pytest.approx(1.0, abs=1e-9)

    def test_reference_family_frequencies(self):
        inst = lc.reference_instance(n=600, d=3, p=1.0, seed=4)
        cfg = lc.SamplerConfig(p=1.0, d=3, epsilon=0.5, r1_scale=2e-4, r2_scale=0.02)
        stats = lc.guarantee_statistics(inst, cfg, n_seeds=40, master_seed=1)
        f = stats["frequencies"]
        assert f["a"] >= 1.0 - 1.0 / 3.0 - 0.1
        assert f["e"] >= 0.5
        assert set(stats["legend"]) == set("abcde")

    @pytest.mark.parametrize("n_seeds", [0, -1])
    def test_rejects_fewer_than_one_seed(self, rng, n_seeds):
        A = rng.standard_normal((40, 2))
        inst = lc.RegressionInstance(A=A, b=rng.standard_normal(40), p=2.0)
        with pytest.raises(lc.InvalidConfigError, match="n_seeds >= 1"):
            lc.guarantee_statistics(inst, full_cfg(2.0, d=2), n_seeds=n_seeds)

    def test_failed_stage_raises(self):
        g = np.random.default_rng(3)
        A = g.standard_normal((40, 3))
        inst = lc.RegressionInstance(A=A, b=g.standard_normal(40), p=2.0)
        cfg = small_cfg(2.0, s1=1e-12, s2=1e-12)
        with pytest.raises(lc.StageFailureError, match="seed 0: .*rank-deficient"):
            lc.guarantee_statistics(inst, cfg, n_seeds=3)


class TestMismatchedConfig:
    """A SamplerConfig sized for another p or d is refused, not run."""

    @pytest.mark.parametrize(
        "solve",
        [
            lambda inst, cfg: lc.two_stage_solve(inst, cfg, seed=0),
            lambda inst, cfg: lc.single_stage_oracle_solve(inst, None, cfg, r=100.0, seed=0),
            lambda inst, cfg: lc.single_stage_augmented_solve(inst, cfg, r=100.0, seed=0),
            lambda inst, cfg: lc.guarantee_statistics(inst, cfg, n_seeds=2),
        ],
        ids=["two-stage", "oracle", "augmented", "statistics"],
    )
    @pytest.mark.parametrize("p, d", [(1.0, 4), (1.5, 6)])
    def test_rejected_everywhere(self, solve, p, d):
        inst = lc.reference_instance(n=2000, d=4, p=1.5, seed=1)
        with pytest.raises(lc.InvalidConfigError, match="does not match the instance"):
            solve(inst, small_cfg(p, d=d))


class TestInstances:
    def test_corrupted_row_count(self):
        _, _, meta = lc.make_instance_arrays(500, 3, corruption_rho=0.1, seed=0)
        assert len(meta["corrupted_rows"]) == 50

    def test_gaussian_noise_residual(self, rng):
        A, b, meta = lc.make_instance_arrays(200, 3, noise_model="gaussian", seed=1)
        noise = b - A @ np.ones(3)
        res = lc.solve_lp_regression(A, b, 2.0)
        assert res.objective <= lc.vec_p_norm(noise, 2.0)

    def test_rejects_degenerate_shape(self):
        with pytest.raises(lc.InvalidConfigError):
            lc.make_instance_arrays(3, 3)

    def test_designs(self):
        # the default design is the seed's unit normal draw, as before
        # designs existed; the heavy-tailed rows share that draw's stream,
        # and a few of them carry most of the l2 leverage
        A, _, meta = lc.make_instance_arrays(2000, 4, seed=5)
        np.testing.assert_array_equal(A, np.random.default_rng(5).standard_normal((2000, 4)))
        assert meta["design"] == "gaussian"
        H, b, meta = lc.make_instance_arrays(2000, 4, seed=5, design="heavy-tailed")
        assert meta["design"] == "heavy-tailed" and H.shape == (2000, 4) and b.shape == (2000,)
        np.testing.assert_array_equal(
            H, lc.make_instance_arrays(2000, 4, seed=5, design="heavy-tailed")[0]
        )
        Q = lc.qr_thin(H).Q
        lev = np.sort(np.sum(Q * Q, axis=1))[::-1]
        assert lev[:20].sum() >= 0.5 * lev.sum()
        with pytest.raises(lc.InvalidConfigError, match="unknown design"):
            lc.make_instance_arrays(50, 2, design="cauchy")

    @pytest.mark.parametrize("p", [0.5, np.nan, np.inf])
    def test_rejects_invalid_p(self, p):
        A, b, _ = lc.make_instance_arrays(50, 2, seed=0)
        with pytest.raises(lc.InvalidConfigError, match=f"finite number >= 1, got {p}"):
            lc.RegressionInstance(A=A, b=b, p=p)

    def test_one_exponent_error(self):
        # instances, configs and the numeric code reject a p by one rule,
        # with one error that is also a configuration error
        assert issubclass(lc.InvalidExponentError, lc.InvalidConfigError)
        A, b, _ = lc.make_instance_arrays(50, 2, seed=0)
        for make in (
            lambda: lc.RegressionInstance(A=A, b=b, p=0.5),
            lambda: lc.SamplerConfig(p=0.5, d=2),
            lambda: lc.solve_lp_regression(A, b, 0.5),
        ):
            with pytest.raises(lc.InvalidExponentError, match="finite number >= 1, got 0.5"):
                make()

    def test_instance_rank_computed(self):
        inst = lc.reference_instance(n=100, d=4, p=2.0, seed=0)
        assert inst.d == 4 and inst.n == 100 and inst.m == 4

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_rhs(self, bad):
        # a NaN in b used to surface as a rank-deficient stage 2 or a bare
        # solver error instead of at construction
        A, b, _ = lc.make_instance_arrays(20_000, 4, seed=1)
        b[5] = bad
        with pytest.raises(ValueError, match="vector contains non-finite entries"):
            lc.RegressionInstance(A=A, b=b, p=2.0)
        B = np.column_stack([b, b])
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            lc.RegressionInstance(A=A, b=B, p=1.5)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_rejects_non_finite_a(self, bad, weighted):
        # checked block by block as the instance's QR pass reads A: here
        # in the second of two blocks
        A, b, _ = lc.make_instance_arrays(40_000, 4, seed=1)
        A[35_000, 2] = bad
        w = np.full(40_000, 2.0) if weighted else None
        with pytest.raises(ValueError, match="matrix contains non-finite entries"):
            lc.RegressionInstance(A=A, b=b, p=1.5, weights=w)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_non_finite_weights(self, bad):
        A, b, _ = lc.make_instance_arrays(200, 3, seed=1)
        w = np.ones(200)
        w[7] = bad
        with pytest.raises(ValueError, match="vector contains non-finite entries"):
            lc.RegressionInstance(A=A, b=b, p=2.0, weights=w)


class TestOneFactorization:
    """The instance factors A once, by the R-only blocked QR; every
    consumer of its A reuses that, and no pipeline path forms a Q."""

    @pytest.fixture
    def factorizations(self, monkeypatch):
        # (rows, columns) of every R-only QR made, and the height of every
        # Q-and-R QR (scipy.linalg.qr, which qr_thin calls)
        made = {"r_only": [], "q_and_r": []}
        real_init = lc.linalg.BlockedR.__init__
        real_qr = scipy.linalg.qr

        def counting_init(self, n, k, **kwargs):
            made["r_only"].append((n, k))
            real_init(self, n, k, **kwargs)

        def counting_qr(a, *args, **kwargs):
            made["q_and_r"].append(np.shape(a)[0])
            return real_qr(a, *args, **kwargs)

        monkeypatch.setattr(lc.linalg.BlockedR, "__init__", counting_init)
        monkeypatch.setattr(scipy.linalg, "qr", counting_qr)
        return made

    @staticmethod
    def check_factored_once(made, inst):
        # the least-squares solves factor [M | c], m + 1 columns, and the
        # sampled rank checks fewer than n rows
        assert made["r_only"].count((inst.n, inst.m)) == 1
        assert made["q_and_r"] == []

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_build_and_solve_factor_a_once(self, factorizations, p):
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        rep = lc.two_stage_solve(inst, small_cfg(p, d=4), seed=0)
        assert rep.status == "ok" and rep.stage2.plan.actual_count < inst.n
        self.check_factored_once(factorizations, inst)

    def test_guarantee_statistics_factor_a_once(self, factorizations):
        inst = lc.reference_instance(n=2000, d=4, p=1.5, seed=1)
        lc.guarantee_statistics(inst, small_cfg(1.5, d=4), n_seeds=2)
        self.check_factored_once(factorizations, inst)

    def test_weighted_factors_scaled_a_once(self, factorizations):
        A, b, _ = lc.make_instance_arrays(2000, 4, seed=1)
        w = np.random.default_rng(2).uniform(0.5, 2.0, 2000)
        inst = lc.RegressionInstance(A=A, b=b, p=1.5, weights=w)
        rep = lc.two_stage_solve(inst, small_cfg(1.5, d=4), seed=0)
        assert rep.status == "ok"
        self.check_factored_once(factorizations, inst)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_multi_block_instance_factors_a_once(self, monkeypatch, factorizations, p):
        # the instance's QR factors six blocks of 256 rows, one of 464 (the
        # last block with the tail) and the 28-row stack of their
        # triangles, and nothing factors A again
        monkeypatch.setattr(lc.kernels, "_ROW_BLOCK", 256)
        A, b, _ = lc.make_instance_arrays(2000, 4, seed=1)
        heights = []
        real_geqrf = lc.linalg._GEQRF

        def counting_geqrf(a, *args, **kwargs):
            heights.append(a.shape)
            return real_geqrf(a, *args, **kwargs)

        monkeypatch.setattr(lc.linalg, "_GEQRF", counting_geqrf)
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        # the same pass leaves the instance its own column-major copy of A
        np.testing.assert_array_equal(inst.A, A)
        assert inst.A.flags.f_contiguous and not np.shares_memory(inst.A, A)
        assert heights == [(256, 4)] * 6 + [(464, 4), (28, 4)]
        rep = lc.two_stage_solve(inst, small_cfg(p, d=4), seed=0)
        assert rep.status == "ok" and rep.stage2.plan.actual_count < inst.n
        self.check_factored_once(factorizations, inst)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_each_sample_is_factored_once(self, monkeypatch, factorizations, p):
        # each stage's sample gets one R-only QR, of [SA | Sb], which gives
        # both its rank and its least-squares solve; no QR of SA alone.  At
        # p = 2 that QR is the whole solve, one geqrf per stage.
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        cfg = small_cfg(p, d=4)
        assert lc.two_stage_solve(inst, cfg, seed=0).status == "ok"
        shapes = []
        real_geqrf = lc.linalg._GEQRF

        def counting_geqrf(a, *args, **kwargs):
            shapes.append(a.shape)
            return real_geqrf(a, *args, **kwargs)

        monkeypatch.setattr(lc.linalg, "_GEQRF", counting_geqrf)
        factorizations["r_only"].clear()
        rep = lc.two_stage_solve(inst, cfg, seed=1)
        counts = [rep.stage1.plan.actual_count, rep.stage2.plan.actual_count]
        assert rep.status == "ok" and counts[0] != counts[1]
        assert factorizations["r_only"] == [(c, inst.m + 1) for c in counts]
        if p == 2.0:
            assert shapes == [(c, inst.m + 1) for c in counts]
        else:
            assert set(shapes) == {(c, inst.m + 1) for c in counts}

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_caller_may_change_a_after_construction(self, p):
        # the instance solves from its own copy of A; b stays the caller's
        A, b, _ = lc.make_instance_arrays(2000, 4, seed=1)
        cfg = small_cfg(p, d=4)
        fresh = lc.RegressionInstance(A=A.copy(), b=b, p=p)
        want = report_payload(lc.two_stage_solve(fresh, cfg, seed=2, compute_exact=True))
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        A *= -3.0
        A[::3] = 0.0
        got = report_payload(lc.two_stage_solve(inst, cfg, seed=2, compute_exact=True))
        assert json_dumps(got) == json_dumps(want)
        assert inst.b is b

    @pytest.mark.parametrize(
        "p, rank_deficient",
        [(1.0, False), (1.5, False), (2.0, False), (3.0, False), (1.5, True)],
    )
    def test_reused_factors_give_identical_reports(self, p, rank_deficient):
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        if rank_deficient:
            A = np.column_stack([inst.A, inst.A[:, 0] - 2.0 * inst.A[:, 2]])
            inst = lc.RegressionInstance(A=A, b=inst.b, p=p)
            assert inst.d == 4 and inst.m == 5
        cfg = small_cfg(p, d=4)

        def payload(rep):
            doc = report_to_dict(rep)
            doc.pop("timings_ms")
            return json_dumps(doc)

        # the first run conditions A and solves it in full, the second
        # reuses both, and neither changes a byte of the report
        for seed in range(2):
            first = lc.two_stage_solve(inst, cfg, seed, compute_exact=True)
            second = lc.two_stage_solve(inst, cfg, seed, compute_exact=True)
            assert first.status == "ok"
            assert payload(first) == payload(second)
        # the kept basis, conditioned from the instance's own QR, is
        # bitwise the basis of a fresh QR of A
        fresh = lc.well_conditioned_basis(inst.A, p)
        for name in ("U", "G", "tau"):
            np.testing.assert_array_equal(getattr(inst.basis, name), getattr(fresh, name))
        for name in ("alpha_cert", "beta_cert", "kappa_cert", "slack_cert"):
            assert getattr(inst.basis, name) == getattr(fresh, name)

    def test_one_basis_and_one_optimum_per_instance(self, monkeypatch):
        inst = lc.reference_instance(n=2000, d=4, p=1.5, seed=1)
        bases, full_solves = [], []
        condition = lc.pipeline.well_conditioned_basis
        solve = lc.pipeline.solve_lp_regression

        def counted_basis(M, *args, **kwargs):
            bases.append(M.shape)
            return condition(M, *args, **kwargs)

        def counted_solve(A, b, p, *args, **kwargs):
            if A.shape[0] == inst.n:
                full_solves.append(A.shape)
            return solve(A, b, p, *args, **kwargs)

        monkeypatch.setattr(lc.pipeline, "well_conditioned_basis", counted_basis)
        monkeypatch.setattr(lc.pipeline, "solve_lp_regression", counted_solve)
        cfg = small_cfg(1.5, d=4)
        for seed in range(2):
            rep = lc.two_stage_solve(inst, cfg, seed, compute_exact=True)
            assert rep.status == "ok" and rep.approx_ratio is not None
        rep = lc.single_stage_oracle_solve(
            inst, None, cfg, r=300.0, seed=0, compute_exact=True
        )
        assert rep.status == "ok" and rep.Z_exact == inst.optimum[1]
        lc.guarantee_statistics(inst, cfg, n_seeds=2)
        assert bases == [(inst.n, inst.m)] and full_solves == [(inst.n, inst.m)]
        # the augmented solve conditions [A b] alone, on every call
        for seed in range(2):
            lc.single_stage_augmented_solve(inst, cfg, r=300.0, seed=seed, compute_exact=True)
        assert bases[1:] == [(inst.n, inst.m + 1)] * 2
        assert full_solves == [(inst.n, inst.m)]

    def test_zero_matrix_rejected(self):
        with pytest.raises(lc.InvalidConfigError, match="rank >= 1"):
            lc.RegressionInstance(A=np.zeros((10, 2)), b=np.ones(10), p=1.5)

    @pytest.mark.parametrize("name", ["d", "factors", "basis", "optimum"])
    def test_derived_fields_are_not_arguments(self, name):
        A = np.random.default_rng(0).standard_normal((20, 2))
        with pytest.raises(TypeError):
            lc.RegressionInstance(A=A, b=np.ones(20), p=1.5, **{name: None})


class TestBlockedStages:
    """A stage's work over all n rows runs in row blocks, and a report keeps
    only the n-length arrays that a later stage reads or a plan holds."""

    @pytest.mark.parametrize("p", [1.5, 2.0])
    @pytest.mark.parametrize("cols", [None, 2])
    def test_multi_block_run_matches_one_block(self, monkeypatch, p, cols):
        # blocks of 256 rows for the residuals, the power sums and the
        # draws, against one block of all 2,000: the same plans, scales and
        # solutions, the stage-1 residual bitwise A @ x - b, and the
        # objectives equal up to the order of their sums.  Stage 2's shares
        # divide by the residual's sum of |r|^p, which at p != 2 adds
        # groups of rows fixed from row 0, so it does not move with the
        # blocks
        A, b, _ = lc.make_instance_arrays(2000, 4, seed=1)
        if cols is not None:
            b = np.column_stack([b, 2.0 * b + A[:, 0]])
        cfg = small_cfg(p, d=4)
        one = lc.two_stage_solve(lc.RegressionInstance(A=A, b=b, p=p), cfg, seed=3)
        monkeypatch.setattr(lc.kernels, "_ROW_BLOCK", 256)
        # the QRs keep one block each, as at the default height: a TSQR's
        # R moves by rounding with its blocks (test_linalg's TestRFactors)
        real = lc.kernels.row_blocks
        monkeypatch.setattr(lc.linalg, "row_blocks", lambda n, height: real(n, max(n, height)))
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        many = lc.two_stage_solve(inst, cfg, seed=3)
        assert one.status == many.status == "ok"
        st1 = many.stage1
        np.testing.assert_array_equal(st1.residual, inst.A @ st1.x_hat - inst.b)
        for k in ("stage1", "stage2"):
            a, z = getattr(one, k), getattr(many, k)
            assert 0 < a.plan.actual_count < inst.n
            np.testing.assert_array_equal(a.plan.realized_indices, z.plan.realized_indices)
            np.testing.assert_array_equal(a.plan.scales, z.plan.scales)
            np.testing.assert_array_equal(a.x_hat, z.x_hat)
            assert z.full_objective == pytest.approx(a.full_objective, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_one_leverage_pass_per_instance(self, monkeypatch, p):
        # solves, an oracle solve and guarantee statistics on one instance
        # condition it once, and no stage reads U, which stays unformed
        # (stage 2's row sums are formed chunk by chunk by its rule);
        # conditioning's only full-size kernel passes are the row sums of
        # one pass over the row blocks of T = A C at p = 2, and at p != 2
        # of the rounding's two block passes over A C, for the proxy's
        # power sums and for the last pass's block products, which give
        # the leverage
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        passes = []
        watched = [
            (lc.conditioning, "_block_powsums"),
            (lc.conditioning, "row_pnorms"),
            (lc.sampling, "row_pnorms"),
            (lc.sampling, "ClippedShares"),
        ]
        for module, name in watched:

            def counted(M, q, *args, _real=getattr(module, name), _site=(module, name)):
                passes.append((_site, M))
                return _real(M, q, *args)

            monkeypatch.setattr(module, name, counted)
        cfg = small_cfg(p, d=4)
        for seed in range(3):
            assert lc.two_stage_solve(inst, cfg, seed, compute_exact=True).status == "ok"
        assert lc.single_stage_oracle_solve(inst, None, cfg, r=300.0, seed=0).status == "ok"
        lc.guarantee_statistics(inst, cfg, n_seeds=2)
        assert "_formed" not in vars(inst.basis)
        conditioning = [
            (name, M.shape[0]) for (module, name), M in passes if module is lc.conditioning
        ]
        assert {name for name, _ in conditioning} == {"_block_powsums"}
        assert sum(rows for _, rows in conditioning) == (1 if p == 2.0 else 2) * inst.n
        assert not [
            M for (_, name), M in passes if name == "row_pnorms" and M.shape[0] == inst.n
        ]

    @pytest.mark.parametrize("p", [1.5, 3.0])
    @pytest.mark.parametrize("name", ["U", "G", "tau"])
    def test_basis_forms_u_g_and_tau_when_first_read(self, p, name):
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        assert lc.two_stage_solve(inst, small_cfg(p, d=4), seed=0).status == "ok"
        basis = inst.basis
        assert "_formed" not in vars(basis)
        getattr(basis, name)
        assert "_formed" in vars(basis)
        U, G, tau = basis.U, basis.G, basis.tau
        assert U.shape == (inst.n, inst.d) and U.flags.f_contiguous
        assert np.abs(U @ tau - inst.A).max() <= 1e-12 * np.abs(inst.A).max()
        np.testing.assert_array_equal(G @ inst.factors.R, tau)

    @pytest.mark.parametrize("p", [1.5, 3.0])
    def test_conditioned_instance_holds_no_n_by_d_array(self, p):
        # conditioning leaves the leverage, one n-vector, and no U: held
        # memory read 1.6 MB here against 14.4 MB with U stored
        A, b, _ = lc.make_instance_arrays(200_000, 8, seed=1)
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        del A, b
        tracemalloc.start()
        try:
            inst.basis
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert held < inst.n * inst.d * 8
        assert "_formed" not in vars(inst.basis)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_stage_two_keeps_no_residual(self, monkeypatch, p):
        # no plan holds an n-length array until its probs are read: each
        # rule reads only the basis's leverage and stage 1's residual, and
        # keeps no scratch between calls
        monkeypatch.setattr(lc.kernels, "_ROW_BLOCK", 256)
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        cfg = small_cfg(p, d=4)
        rep = lc.two_stage_solve(inst, cfg, seed=0)
        st1, st2 = rep.stage1, rep.stage2
        assert st1.residual.shape == (inst.n,) and st2.residual is None

        def held(obj):
            return [
                v
                for v in vars(obj).values()
                if isinstance(v, np.ndarray) and v.shape[:1] == (inst.n,)
            ]

        assert not held(st2) and not held(st1.plan) and not held(st2.plan)
        for rule in (st1.plan.rule, st2.plan.rule, st2.plan.rule.floor):
            for v in vars(rule).values():
                if isinstance(v, np.ndarray):
                    assert v is inst.basis.leverage or np.shares_memory(v, st1.residual)
        # once read, probs is the whole-array formula's, bitwise, and kept
        p1 = st1.plan.probs
        np.testing.assert_array_equal(
            p1, whole_array_stage1(inst.basis.leverage, lc.r1_default(cfg))
        )
        q = whole_array_stage2(
            p1, st1.residual, p, lc.r2_default(cfg, strict=False), st1.residual_powsum
        )
        np.testing.assert_array_equal(st2.plan.probs, q)
        assert held(st1.plan) == [p1] and held(st2.plan) == [st2.plan.probs]
        # a stage 2 that passes stage 1's exact solution through keeps none
        A = inst.A
        exact = lc.RegressionInstance(A=A, b=A @ np.ones(4), p=p)
        rep = lc.two_stage_solve(exact, small_cfg(p, d=4, s1=1e-3), seed=0)
        assert rep.stage2.exact_passthrough and rep.stage2.residual is None

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_report_holds_no_probabilities(self, p):
        # a report holds stage 1's residual and no n-length probabilities:
        # reading both plans' probs adds two n-vectors
        A, b, _ = lc.make_instance_arrays(200_000, 8, seed=1)
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        del A, b
        inst.basis
        vector = inst.n * 8
        unit = lc.SamplerConfig(p=p, d=8, epsilon=0.5)
        cfg = small_cfg(
            p, d=8, s1=1000.0 / lc.r1_default(unit), s2=2000.0 / lc.r2_default(unit, strict=False)
        )
        tracemalloc.start()
        try:
            rep = lc.two_stage_solve(inst, cfg, seed=0)
            held = tracemalloc.get_traced_memory()[0]
            rep.stage1.plan.probs, rep.stage2.plan.probs
            read = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rep.status == "ok"
        assert vector <= held < 1.5 * vector
        assert 2 * vector <= read - held < 2 * vector + 4096

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_one_stage_run_keeps_no_residual(self, p):
        # with no stage 2 to read it, stage 1 keeps no residual, so the
        # report holds no n-vector
        A, b, _ = lc.make_instance_arrays(200_000, 8, seed=1)
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        del A, b
        inst.basis
        unit = lc.SamplerConfig(p=p, d=8, epsilon=0.5)
        cfg = small_cfg(p, d=8, s1=1000.0 / lc.r1_default(unit))
        tracemalloc.start()
        try:
            rep = lc.two_stage_solve(inst, cfg, seed=0, stages=1)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert rep.status == "ok" and rep.stage2 is None
        assert rep.stage1.residual is None
        assert held < 0.5 * inst.n * 8


class _Blocks(list):
    """row_blocks' slices, counting the loops over them: each is one pass
    over the rows, but for skip loops that read no rows."""

    def __init__(self, blocks, skip):
        super().__init__(blocks)
        self.loops, self.skip = 0, skip

    def __iter__(self):
        self.loops += 1
        return super().__iter__()

    @property
    def passes(self):
        return max(0, self.loops - self.skip)


class TestPassBudget:
    """Full passes over A's n rows, each reading its n * m entries once,
    by layer, in one run and in the direct solve.

    At p = 2 stage 2 takes its objective from the Gram identity, with no
    pass over A, unless the identity could cancel (a well-fitting b).

    A pass is a loop over the row blocks of n rows from a module's own
    row_blocks binding (BlockedR's first loop sizes its buffers and reads
    no rows), or one of the solver's whole-array products with A
    (_residual, _smoothed_gradient).  Two more products of the p != 2
    direct solve, its gradient scale A^T b and its final objective, are
    not counted.  A draw (kernels.counter_bernoulli) loops over the same
    row blocks but reads its rule's n-vectors, not A: its loops are
    counted apart, under the layer's name and " draw".  A change to a
    count restates it here and in CHANGES.md.
    """

    N, M = 40_000, 4  # 2 blocks of kernels and linalg, 13 of conditioning

    def _counted(self, monkeypatch):
        phase, blocks, calls = ["setup"], [], []
        real = lc.kernels.row_blocks
        for module in (lc.linalg, lc.conditioning, lc.kernels, lc.solver):

            def counted(n, height=None, _skip=int(module is lc.linalg)):
                out = _Blocks(real(n, height), _skip)
                if n == self.N:
                    blocks.append((phase[0], out))
                return out

            monkeypatch.setattr(module, "row_blocks", counted)
        for name in ("_residual", "_smoothed_gradient"):

            def product(A, *args, _real=getattr(lc.solver, name)):
                if A.shape[0] == self.N:
                    calls.append(phase[0])
                return _real(A, *args)

            monkeypatch.setattr(lc.solver, name, product)
        for name in ("stage_one", "stage_two"):

            def stage(*args, _real=getattr(lc.pipeline, name), _name=name):
                phase[0] = _name
                return _real(*args)

            monkeypatch.setattr(lc.pipeline, name, stage)
        def draw(*args, _real=lc.sampling.counter_bernoulli):
            layer = phase[0]
            phase[0] = f"{layer} draw"
            try:
                return _real(*args)
            finally:
                phase[0] = layer

        monkeypatch.setattr(lc.sampling, "counter_bernoulli", draw)
        sums = []

        def powsums(m, *args, _real=lc.conditioning._block_powsums):
            sums.append(m.shape[0])
            return _real(m, *args)

        monkeypatch.setattr(lc.conditioning, "_block_powsums", powsums)

        def count():
            passes = {}
            for layer, out in blocks:
                passes[layer] = passes.get(layer, 0) + out.passes
            for layer in calls:
                passes[layer] = passes.get(layer, 0) + 1
            blocks.clear()
            calls.clear()
            return {layer: k for layer, k in passes.items() if k}

        return phase, count, sums

    # the direct solve: at p = 2 its QR and its residual pass; at p != 2 the
    # warm start's QR, one QR and one residual per Newton step (9, 8 and 4
    # steps here), the first residual and the final gradient
    @pytest.mark.parametrize("p, direct", [(1.0, 21), (1.5, 19), (2.0, 2), (3.0, 11)])
    def test_passes_per_layer(self, monkeypatch, p, direct):
        phase, count, sums = self._counted(monkeypatch)
        A, b, _ = lc.make_instance_arrays(self.N, self.M, seed=1)
        phase[0] = "instance"
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        phase[0] = "conditioning"
        inst.basis
        rep = lc.two_stage_solve(inst, small_cfg(p, d=self.M), seed=0)
        assert rep.status == "ok" and rep.stage2.plan.actual_count < self.N
        cond = 1 if p == 2.0 else 2
        passes = count()
        # one draw per sample: each stage's, and at p != 2 the proxy's
        draws = {"stage_one draw": 1, "stage_two draw": 1}
        if p != 2.0:
            draws["conditioning draw"] = 1
        stage_two = {} if p == 2.0 else {"stage_two": 1}
        assert passes == {
            "instance": 1, "conditioning": cond, "stage_one": 1, **stage_two, **draws
        }
        # every pass of conditioning sums the powers of its n rows
        assert sum(sums) == cond * self.N
        phase[0] = "direct"
        lc.solve_lp_regression(inst.A, inst.b, p)
        assert count() == {"direct": direct}

    def test_well_fitting_p2_stage_two_reads_a(self, monkeypatch):
        # with no corrupted rows the Gram identity's terms nearly cancel,
        # so stage 2's objective takes the residual pass
        phase, count, _ = self._counted(monkeypatch)
        A, b, _ = lc.make_instance_arrays(self.N, self.M, corruption_rho=0.0, seed=1)
        inst = lc.RegressionInstance(A=A, b=b, p=2.0)
        inst.basis
        count()
        rep = lc.two_stage_solve(inst, small_cfg(2.0, d=self.M), seed=0)
        assert rep.status == "ok" and rep.stage2.plan.actual_count < self.N
        assert count() == {
            "stage_one": 1, "stage_two": 1, "stage_one draw": 1, "stage_two draw": 1
        }


def _gram_case(case):
    """A p = 2 instance of 20,000 rows for TestGramObjective."""
    design = "heavy-tailed" if case == "heavy-tailed" else "gaussian"
    noise = "gaussian" if case == "gaussian-noise" else "sparse-gross"
    rho = 0.0 if case == "well-fitting" else 0.1
    A, b, _ = lc.make_instance_arrays(
        20_000, 4, noise_model=noise, corruption_rho=rho, seed=1, design=design
    )
    weights = None
    if case == "weighted":
        weights = np.random.default_rng(3).uniform(0.5, 2.0, A.shape[0])
    elif case == "two-column":
        b = np.column_stack([b, 2.0 * b + A[:, 0]])
    elif case == "rank-deficient":
        A = np.column_stack([A, A[:, 0] - 2.0 * A[:, 2]])
    elif case == "b-1e160":
        b = b * 1e160
    elif case == "cond-1e9":
        # singular values 1 to 1e-9: the gross rows put large entries in
        # x along the weak directions, where R and A^T b round coarsely
        g = np.random.default_rng(4)
        U = np.linalg.qr(g.standard_normal(A.shape))[0]
        V = np.linalg.qr(g.standard_normal((4, 4)))[0]
        A = (U * np.logspace(0, -9, 4)) @ V.T
        b = A @ np.ones(4) + 1e-4 * g.standard_normal(A.shape[0])
        b[::10] += 1.0
    return lc.RegressionInstance(A=A, b=b, p=2.0, weights=weights)


class TestGramObjective:
    """At p = 2 an outcome with no residual takes its objective from the
    Gram identity ||A x - b||^2 = ||R x||^2 - 2 x^T A^T b + ||b||^2, with
    no pass over A, where its rounding stays small, and from the residual
    pass, bitwise, elsewhere."""

    @pytest.mark.parametrize(
        "case, identity",
        [
            ("gaussian", True),
            ("heavy-tailed", True),
            ("gaussian-noise", True),
            ("weighted", True),
            ("two-column", True),
            ("rank-deficient", True),
            ("well-fitting", False),
            ("b-1e160", False),
            ("cond-1e9", False),
        ],
    )
    def test_stage_two_objective(self, monkeypatch, case, identity):
        inst = _gram_case(case)
        assert inst.d == 4
        passes = []
        real = lc.pipeline.residual_pnorm

        def counted(A, x, b, p, out=None):
            passes.append(out is None)
            return real(A, x, b, p, out=out)

        monkeypatch.setattr(lc.pipeline, "residual_pnorm", counted)
        rep = lc.two_stage_solve(inst, small_cfg(2.0, d=4, s1=1e-3, s2=1e-3), seed=0)
        assert rep.status == "ok" and rep.stage2.plan is not None
        # stage 1 keeps its residual for stage 2; stage 2 keeps none
        assert passes[0] is False and rep.stage2.residual is None
        st2 = rep.stage2
        norm, total = real(inst.A, st2.x_hat, inst.b, 2.0)
        if identity:
            assert passes == [False]
            assert st2.full_objective == pytest.approx(norm, rel=1e-13, abs=0.0)
            assert st2.residual_powsum == pytest.approx(total, rel=1e-13, abs=0.0)
        else:
            assert passes == [False, True]
            assert st2.full_objective == norm and st2.residual_powsum == total

    @pytest.mark.parametrize("cols", [None, 2])
    def test_qr_pass_sums_atb(self, cols):
        # two row blocks of the QR pass, each adding its part of A^T b
        A, b, _ = lc.make_instance_arrays(40_000, 4, seed=1)
        if cols is not None:
            b = np.column_stack([b, 2.0 * b + A[:, 0]])
        inst = lc.RegressionInstance(A=A, b=b, p=2.0)
        assert len(lc.kernels.row_blocks(inst.n)) == 2
        np.testing.assert_allclose(inst.atb, A.T @ b, rtol=1e-13)
        assert inst.b_sq == pytest.approx(float(np.sum(b * b)), rel=1e-14)
        other = lc.RegressionInstance(A=A, b=b, p=1.5)
        assert other.atb is None and other.b_sq is None
