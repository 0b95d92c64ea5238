import numpy as np
import pytest
import scipy.linalg

import lpcoreset as lc
from lpcoreset.io import json_dumps, report_to_dict
from lpcoreset.pipeline import _sample_and_solve, derive_seed


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

        def counting_init(self, n, k):
            made["r_only"].append((n, k))
            real_init(self, n, k)

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
        monkeypatch.setattr(lc.linalg, "_TSQR_ROWS", 256)
        A, b, _ = lc.make_instance_arrays(2000, 4, seed=1)
        heights = []
        real_geqrf = lc.linalg._GEQRF

        def counting_geqrf(a, *args, **kwargs):
            heights.append(a.shape)
            return real_geqrf(a, *args, **kwargs)

        monkeypatch.setattr(lc.linalg, "_GEQRF", counting_geqrf)
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        assert inst.A is A
        assert heights == [(256, 4)] * 6 + [(464, 4), (28, 4)]
        rep = lc.two_stage_solve(inst, small_cfg(p, d=4), seed=0)
        assert rep.status == "ok" and rep.stage2.plan.actual_count < inst.n
        self.check_factored_once(factorizations, inst)

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
        # draws, against one block of all 2,000: the same plans and
        # solutions, the stage-1 residual bitwise A @ x - b, and the
        # objectives equal up to the order of their sums
        A, b, _ = lc.make_instance_arrays(2000, 4, seed=1)
        if cols is not None:
            b = np.column_stack([b, 2.0 * b + A[:, 0]])
        cfg = small_cfg(p, d=4)
        one = lc.two_stage_solve(lc.RegressionInstance(A=A, b=b, p=p), cfg, seed=3)
        monkeypatch.setattr(lc.kernels, "_ROW_BLOCK", 256)
        monkeypatch.setattr(lc.kernels, "_COUNTER_CHUNK", 256)
        inst = lc.RegressionInstance(A=A, b=b, p=p)
        many = lc.two_stage_solve(inst, cfg, seed=3)
        assert one.status == many.status == "ok"
        st1 = many.stage1
        np.testing.assert_array_equal(st1.residual, inst.A @ st1.x_hat - inst.b)
        for k in ("stage1", "stage2"):
            a, z = getattr(one, k), getattr(many, k)
            assert 0 < a.plan.actual_count < inst.n
            np.testing.assert_array_equal(a.plan.realized_indices, z.plan.realized_indices)
            np.testing.assert_array_equal(a.x_hat, z.x_hat)
            assert z.full_objective == pytest.approx(a.full_objective, rel=1e-13)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_one_leverage_pass_per_instance(self, monkeypatch, p):
        # solves, an oracle solve and guarantee statistics on one instance
        # take the leverage of its basis once; no stage takes norms of U
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        passes = []
        for module in (lc.conditioning, lc.sampling):
            for name in ("row_powsums", "row_pnorms"):

                def counted(M, q, *args, _real=getattr(module, name), _name=name):
                    # the rounding writes U over its T, so keep what the
                    # pass saw of the first row
                    passes.append((_name, M, np.array(M[:1])))
                    return _real(M, q, *args)

                monkeypatch.setattr(module, name, counted)
        cfg = small_cfg(p, d=4)
        for seed in range(3):
            assert lc.two_stage_solve(inst, cfg, seed, compute_exact=True).status == "ok"
        assert lc.single_stage_oracle_solve(inst, None, cfg, r=300.0, seed=0).status == "ok"
        lc.guarantee_statistics(inst, cfg, n_seeds=2)
        if p == 2.0:
            # one pass over the row blocks of T = A C, U never formed
            assert "_formed" not in vars(inst.basis)
            assert [name for name, M, _ in passes if M is inst.A] == ["row_powsums"]
        U = inst.basis.U
        if p != 2.0:
            on_u = [
                name
                for name, M, first in passes
                if np.shares_memory(M, U) and np.array_equal(first, U[:1])
            ]
            assert on_u == ["row_powsums"]
        assert not [M for name, M, _ in passes if name == "row_pnorms" and M.shape[0] == inst.n]

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_stage_two_keeps_no_residual(self, p):
        inst = lc.reference_instance(n=2000, d=4, p=p, seed=1)
        rep = lc.two_stage_solve(inst, small_cfg(p, d=4), seed=0)
        st1, st2 = rep.stage1, rep.stage2
        assert st1.residual.shape == (inst.n,) and st2.residual is None
        held = [
            v
            for obj in (st2, st2.plan)
            for v in vars(obj).values()
            if isinstance(v, np.ndarray) and v.shape[:1] == (inst.n,)
        ]
        assert len(held) == 1 and held[0] is st2.plan.probs
        # a stage 2 that passes stage 1's exact solution through keeps none
        A = inst.A
        exact = lc.RegressionInstance(A=A, b=A @ np.ones(4), p=p)
        rep = lc.two_stage_solve(exact, small_cfg(p, d=4, s1=1e-3), seed=0)
        assert rep.stage2.exact_passthrough and rep.stage2.residual is None
