import math

import numpy as np
import pytest

from lpcoreset import kernels
from lpcoreset.conditioning import well_conditioned_basis
from lpcoreset.errors import InvalidConfigError, ZeroRankError
from lpcoreset.linalg import numeric_rank, vec_p_norm
from lpcoreset.pipeline import (
    RegressionInstance,
    _sample_and_solve,
    derive_seed,
    make_instance_arrays,
    reference_instance,
    single_stage_augmented_solve,
    single_stage_oracle_solve,
    two_stage_solve,
)
from lpcoreset.sampling import (
    SamplerConfig,
    apply_plan,
    r1_default,
    r2_default,
    realize_sample,
    stage1_rule,
    stage2_rule,
)
from lpcoreset.errors import StageFailureError
from oracles import (
    measure_distortion,
    whole_array_draws,
    whole_array_stage1,
    whole_array_stage2,
)


class TestConfig:
    def test_k_formula(self):
        assert SamplerConfig(p=1.0, d=2).k == 1.5
        assert SamplerConfig(p=1.5, d=2).k == 1.75
        assert SamplerConfig(p=2.0, d=2).k == 2.0
        assert SamplerConfig(p=3.0, d=2).k == 3.0

    def test_epsilon_range(self):
        SamplerConfig(p=2.0, d=2, epsilon=0.5)  # experiment regime is allowed
        with pytest.raises(InvalidConfigError):
            SamplerConfig(p=2.0, d=2, epsilon=1.0)
        for p in (0.5, math.inf):
            with pytest.raises(InvalidConfigError, match=f"finite number >= 1, got {p}"):
                SamplerConfig(p=p, d=2)


class TestSizeFormulas:
    # frozen values from hand evaluation of the formulas
    def test_r1_p2_d3(self):
        cfg = SamplerConfig(p=2.0, d=3)
        assert r1_default(cfg) == pytest.approx(16637304.760597333, rel=1e-12)

    def test_r1_p1_d1(self):
        cfg = SamplerConfig(p=1.0, d=1)
        assert r1_default(cfg) == pytest.approx(25254.784158759896, rel=1e-12)

    def test_r1_zero_scale(self):
        assert r1_default(SamplerConfig(p=2.0, d=3, r1_scale=0.0)) == 0.0

    def test_r2_p1_d1_eps01(self):
        cfg = SamplerConfig(p=1.0, d=1, epsilon=0.1)
        assert r2_default(cfg) == pytest.approx(40263.91703279349, rel=1e-12)

    def test_r2_scale_linearity(self):
        a = r2_default(SamplerConfig(p=1.5, d=3, epsilon=0.1, r2_scale=1.0))
        b = r2_default(SamplerConfig(p=1.5, d=3, epsilon=0.1, r2_scale=2.0))
        assert b == pytest.approx(2.0 * a, rel=1e-14)

    def test_r2_epsilon_dominance(self):
        # halving epsilon multiplies the size by slightly more than 4
        a = r2_default(SamplerConfig(p=1.0, d=2, epsilon=0.1))
        b = r2_default(SamplerConfig(p=1.0, d=2, epsilon=0.05))
        assert 4.0 < b / a < 5.0

    def test_r2_strict_regime(self):
        cfg = SamplerConfig(p=1.0, d=1, epsilon=0.5)
        with pytest.raises(InvalidConfigError):
            r2_default(cfg)
        assert r2_default(cfg, strict=False) > 0.0


@pytest.fixture
def basis(rng):
    return well_conditioned_basis(rng.standard_normal((50, 3)), 1.5)


class TestStage1Probabilities:
    def test_uniform_rows_give_half(self):
        # equal row norms, r1 = n/2 -> every probability is 1/2
        W = well_conditioned_basis(np.eye(10), 2.0)
        probs = stage1_rule(W, 5.0).whole()
        np.testing.assert_allclose(probs, 0.5)

    def test_full_sample_clamp(self, basis):
        probs = stage1_rule(basis, 1e12).whole()
        np.testing.assert_array_equal(probs, np.ones(50))

    def test_zero_row_gets_zero(self, rng):
        A = rng.standard_normal((20, 2))
        A[7] = 0.0
        W = well_conditioned_basis(A, 1.0)
        probs = stage1_rule(W, 10.0).whole()
        assert probs[7] == 0.0
        assert np.all(probs[np.arange(20) != 7] > 0.0)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_reads_the_kept_leverage(self, rng, p):
        # the basis keeps ||u_i||_p^p / |||U|||_p^p, and stage 1 is one
        # min(1, r1 * leverage) pass over it
        W = well_conditioned_basis(rng.standard_normal((300, 3)), p)
        want = np.sum(np.abs(W.U) ** p, axis=1)
        np.testing.assert_allclose(W.leverage, want / want.sum(), rtol=1e-13)
        np.testing.assert_array_equal(
            stage1_rule(W, 40.0).whole(), np.minimum(1.0, 40.0 * W.leverage)
        )

    def test_p2_is_clamped_leverage(self, rng):
        # at p=2 the basis is the thin Q and p_i = min(1, r1 * tau_i / d)
        # with tau_i = ||q_i||_2^2 the leverage scores, which sum to d
        A = rng.standard_normal((400, 4)) * rng.pareto(1.5, (400, 1))
        W = well_conditioned_basis(A, 2.0)
        Q = W.U
        r1 = 60.0
        probs = stage1_rule(W, r1).whole()
        want = np.minimum(1.0, r1 * np.einsum("ij,ij->i", Q, Q) / 4)
        np.testing.assert_allclose(probs, want, rtol=1e-14)
        assert 0 < np.count_nonzero(probs == 1.0) < 400


def stage2_whole(p1, rho, p, r2):
    """stage2_rule's probabilities of all rows, dividing by the total of
    row_powsums over the whole residual."""
    total = float(kernels.row_powsums(np.reshape(rho, (len(rho), -1)), p).sum())
    return stage2_rule(p1, rho, p, r2, total).whole()


class TestStage2Probabilities:
    def test_uniform_residual(self):
        rho = np.full(8, 3.0)
        q = stage2_whole(np.zeros(8), rho, 2.0, 4.0)
        np.testing.assert_allclose(q, 0.5)

    def test_point_mass(self):
        rho = np.zeros(6)
        rho[2] = 5.0
        q = stage2_whole(np.zeros(6), rho, 1.0, 1.0)
        assert q[2] == 1.0
        assert np.all(q[np.arange(6) != 2] == 0.0)

    def test_stage1_floor_dominates(self, rng):
        rho = rng.standard_normal(30)
        q = stage2_whole(np.ones(30), rho, 2.0, 0.001)
        np.testing.assert_array_equal(q, np.ones(30))

    def test_dominance_over_stage1(self, rng):
        p1 = rng.uniform(0.0, 1.0, 40)
        rho = rng.standard_normal(40)
        q = stage2_whole(p1, rho, 1.5, 7.0)
        assert np.all(q >= p1)
        assert np.all(q <= 1.0)

    def test_zero_residual_rejected(self):
        with pytest.raises(ValueError):
            stage2_whole(np.zeros(4), np.zeros(4), 2.0, 1.0)

    def test_matrix_single_column_matches_vector(self, rng):
        rho = rng.standard_normal(25)
        p1 = rng.uniform(0.0, 0.5, 25)
        qv = stage2_whole(p1, rho, 1.5, 9.0)
        qm = stage2_whole(p1, rho[:, None], 1.5, 9.0)
        np.testing.assert_array_equal(qv, qm)



def oracle_report(inst, x_ref, r, seed=0):
    report = single_stage_oracle_solve(inst, x_ref, SamplerConfig(p=inst.p, d=inst.d), r, seed)
    assert report.status == "ok"
    return report


class TestOracleProbabilities:
    """The probabilities single_stage_oracle_solve samples by: stage 2's
    rule with the reference solution's residual."""

    def test_zero_Z_reduces_to_leverage(self, rng):
        # integer data: A x_ref - b is exactly zero in any summation order
        A = rng.integers(-5, 6, (50, 3)).astype(np.float64)
        x_ref = np.array([1.0, 2.0, 3.0])
        inst = RegressionInstance(A=A, b=A @ x_ref, p=1.5)
        probs = oracle_report(inst, x_ref, 12.0).stage1.plan.probs
        np.testing.assert_array_equal(probs, stage1_rule(inst.basis, 12.0).whole())

    def test_pointwise_at_least_leverage(self, rng):
        inst = RegressionInstance(
            A=rng.standard_normal((50, 3)), b=rng.standard_normal(50), p=1.5
        )
        probs = oracle_report(inst, rng.standard_normal(3), 5.0).stage1.plan.probs
        assert np.all(probs >= stage1_rule(inst.basis, 5.0).whole())

    def test_uniform_case(self):
        # equal rows and equal residuals: leverage and residual share are
        # both 1/8, so r = 4 gives 1/2 everywhere
        inst = RegressionInstance(A=np.ones((8, 1)), b=np.full(8, -2.0), p=2.0)
        probs = oracle_report(inst, np.zeros(1), 4.0).stage1.plan.probs
        np.testing.assert_allclose(probs, 0.5)

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_matches_the_whole_array_formula(self, p):
        # min(1, r * max(leverage_i, (|rho_i| / Z)^p)), written out whole
        inst = reference_instance(n=500, d=3, p=p)
        rho = inst.A @ inst.optimum[0] - inst.b
        Z = vec_p_norm(rho, p)
        r = 60.0
        want = np.minimum(1.0, np.maximum(inst.basis.leverage, (np.abs(rho) / Z) ** p) * r)
        for seed in range(5):
            report = oracle_report(inst, None, r, seed)
            plan = report.stage1.plan
            np.testing.assert_allclose(plan.probs, want, rtol=2e-15, atol=0.0)
            assert report.stage1.attempts == 1
            expected = realize_sample(want, p, derive_seed(seed, "oracle"))
            np.testing.assert_array_equal(plan.realized_indices, expected.realized_indices)


class TestRealize:
    def test_all_ones(self):
        plan = realize_sample(np.ones(12), 2.0, seed=5)
        assert plan.actual_count == 12
        np.testing.assert_array_equal(plan.scales, np.ones(12))

    def test_all_zeros(self):
        plan = realize_sample(np.zeros(12), 2.0, seed=5)
        assert plan.actual_count == 0
        assert plan.expected_count == 0.0

    def test_determinism(self, rng):
        probs = rng.uniform(0.0, 1.0, 300)
        a = realize_sample(probs, 1.5, seed=77)
        b = realize_sample(probs, 1.5, seed=77)
        np.testing.assert_array_equal(a.realized_indices, b.realized_indices)
        np.testing.assert_array_equal(a.scales, b.scales)

    def test_per_index_independence(self, rng):
        # changing the probability at row j must not change draws elsewhere
        probs = rng.uniform(0.2, 0.8, 100)
        a = realize_sample(probs, 2.0, seed=3)
        probs2 = probs.copy()
        probs2[50] = 1.0
        b = realize_sample(probs2, 2.0, seed=3)
        ia = set(a.realized_indices.tolist()) - {50}
        ib = set(b.realized_indices.tolist()) - {50}
        assert ia == ib

    @pytest.mark.parametrize("chunk", [7, kernels._ROW_BLOCK])
    def test_chunked_draws_match_the_whole_stream(self, rng, monkeypatch, chunk):
        # below one block, one block with a tail and whole blocks with a
        # tail joined to the last: the plan keeps exactly the rows whose
        # uniform lies below their probability
        monkeypatch.setattr(kernels, "_ROW_BLOCK", chunk)
        for n in (1, chunk - 3, chunk, 2 * chunk - 1, 2 * chunk + 5):
            probs = rng.uniform(0.0, 1.0, n) ** 3
            probs[::7] = 0.0
            probs[3::11] = 1.0
            for seed in (0, 91):
                plan = realize_sample(probs, 1.5, seed)
                want = np.flatnonzero(kernels.counter_uniforms(seed, n) < probs)
                np.testing.assert_array_equal(plan.realized_indices, want)
                assert plan.probs is probs
                assert plan.expected_count == pytest.approx(probs.sum(), rel=1e-15)

    def test_scale_values(self, rng):
        probs = rng.uniform(0.1, 1.0, 50)
        for p in (1.0, 2.0, 3.0):
            plan = realize_sample(probs, p, seed=11)
            expect = probs[plan.realized_indices] ** (-1.0 / p)
            np.testing.assert_allclose(plan.scales, expect, rtol=1e-12)

    @pytest.mark.parametrize(
        "probs",
        [[0.5, np.nan, 1.0], [np.nan], [0.2, -1e-300], [1.0 + 2**-52, 0.5], [np.inf]],
        ids=repr,
    )
    def test_rejects_probabilities_outside_unit_interval(self, probs):
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            realize_sample(probs, 2.0, 0)

    def test_empty_probabilities(self):
        plan = realize_sample(np.zeros(0), 2.0, 0)
        assert plan.actual_count == 0 and plan.expected_count == 0.0

    def test_binomial_moments(self):
        # probs = 0.3, n = 10^4: mean count over 50 seeds within
        # 3*sqrt(n*p*(1-p)) = 137.48 of 3000
        probs = np.full(10_000, 0.3)
        counts = [realize_sample(probs, 2.0, seed=s).actual_count for s in range(50)]
        assert abs(np.mean(counts) - 3000.0) < 137.48


class TestApplyPlan:
    def test_identity_plan(self, rng):
        M = rng.standard_normal((9, 3))
        v = rng.standard_normal(9)
        plan = realize_sample(np.ones(9), 2.0, seed=1)
        SM, Sv = apply_plan(plan, M, v)
        np.testing.assert_array_equal(SM, M)
        np.testing.assert_array_equal(Sv, v)

    def test_column_major_rows_keep_the_layout(self, rng):
        M = rng.standard_normal((200, 3))
        probs = rng.uniform(0.1, 0.9, 200)
        plan = realize_sample(probs, 1.5, seed=3)
        SM = apply_plan(plan, M)
        SF = apply_plan(plan, np.asfortranarray(M))
        assert SF.flags.f_contiguous and SM.flags.c_contiguous
        np.testing.assert_array_equal(SF, SM)
        np.testing.assert_array_equal(apply_plan(plan, M[:, 0]), SM[:, 0])

    def test_empty_plan(self, rng):
        M = rng.standard_normal((9, 3))
        plan = realize_sample(np.zeros(9), 2.0, seed=1)
        SM, Sv = apply_plan(plan, M, np.ones(9))
        assert SM.shape == (0, 3) and Sv.shape == (0,)

    def test_single_row_scaling(self):
        # p_i = 1/2^p makes the kept row scale by exactly 2
        p = 3.0
        probs = np.zeros(5)
        probs[2] = 0.5**p
        M = np.arange(15, dtype=float).reshape(5, 3)
        found = False
        for seed in range(200):
            plan = realize_sample(probs, p, seed=seed)
            if plan.actual_count == 1:
                SM = apply_plan(plan, M)
                np.testing.assert_allclose(SM[0], 2.0 * M[2], rtol=1e-12)
                found = True
                break
        assert found

    def test_dimension_mismatch(self, rng):
        plan = realize_sample(np.ones(4), 2.0, seed=0)
        with pytest.raises(ValueError):
            apply_plan(plan, rng.standard_normal((5, 2)))


class TestDistortion:
    def test_identity_plan_zero_distortion(self, rng):
        A = rng.standard_normal((30, 3))
        plan = realize_sample(np.ones(30), 2.0, seed=0)
        assert measure_distortion(A, plan, 2.0, x_samples=20, seed=1) <= 1e-12

    def test_empty_plan_full_distortion(self, rng):
        A = rng.standard_normal((30, 3))
        plan = realize_sample(np.zeros(30), 2.0, seed=0)
        assert measure_distortion(A, plan, 2.0, x_samples=20, seed=1) == 1.0

    def test_zero_matrix_rejected(self):
        # every direction has ||Ax||_p = 0, so no draw could ever be kept
        plan = realize_sample(np.ones(5), 2.0, seed=0)
        with pytest.raises(ZeroRankError):
            measure_distortion(np.zeros((5, 2)), plan, 2.0)

    @pytest.mark.parametrize("p", [1.0, 2.0])
    def test_stage1_distortion_small(self, p):
        # generous leverage sampling keeps all p-norms within 1/8
        g = np.random.default_rng(1234)
        A = g.standard_normal((2000, 4))
        W = well_conditioned_basis(A, p)
        probs = stage1_rule(W, 400.0).whole()
        hits = 0
        for seed in range(10):
            plan = realize_sample(probs, p, seed=seed)
            if measure_distortion(A, plan, p, x_samples=50, seed=seed + 1) <= 0.125:
                hits += 1
        assert hits >= 9

    def test_rank_preserved(self):
        g = np.random.default_rng(99)
        A = g.standard_normal((500, 4))
        W = well_conditioned_basis(A, 1.0)
        probs = stage1_rule(W, 100.0).whole()
        kept = 0
        for seed in range(200):
            plan = realize_sample(probs, 1.0, seed=seed)
            SA = apply_plan(plan, A)
            if numeric_rank(SA) == 4:
                kept += 1
        assert kept >= 198  # >= 99% of trials

    def test_unbiased_norm_estimate(self):
        # E[||SAx||_p^p] = ||Ax||_p^p, checked by a 10^4-seed Monte Carlo
        g = np.random.default_rng(5)
        A = g.standard_normal((100, 3))
        x = g.standard_normal(3)
        p = 1.5
        W = well_conditioned_basis(A, p)
        probs = stage1_rule(W, 30.0).whole()
        ax = np.abs(A @ x) ** p
        target = ax.sum()
        vals = np.empty(10_000)
        for seed in range(vals.size):
            plan = realize_sample(probs, p, seed=seed)
            vals[seed] = np.sum(ax[plan.realized_indices] / probs[plan.realized_indices])
        stderr = vals.std(ddof=1) / math.sqrt(vals.size)
        assert abs(vals.mean() - target) <= 3.0 * stderr

    def test_expected_count_below_r1(self):
        g = np.random.default_rng(17)
        A = g.standard_normal((400, 3))
        W = well_conditioned_basis(A, 2.0)
        r1 = 80.0
        probs = stage1_rule(W, r1).whole()
        assert probs.sum() <= r1 + 1e-9
        counts = [realize_sample(probs, 2.0, seed=s).actual_count for s in range(100)]
        sigma_mean = math.sqrt(np.sum(probs * (1 - probs))) / 10.0
        assert abs(np.mean(counts) - probs.sum()) <= 3.0 * sigma_mean


def chunk_instance(n, p, rhs):
    """A 3-column sparse-gross instance with a vector, two-column or
    weighted right-hand side."""
    A, b, _ = make_instance_arrays(n, 3, seed=1)
    if rhs == "two-column":
        return RegressionInstance(A=A, b=np.column_stack([b, 2.0 * b + A[:, 0]]), p=p)
    weights = np.random.default_rng(3).uniform(0.5, 2.0, n) if rhs == "weighted" else None
    return RegressionInstance(A=A, b=b, p=p, weights=weights)


def assert_plan_is_whole_array(plan, probs, p):
    idx, scales, expected = whole_array_draws(probs, p, plan.seed)
    np.testing.assert_array_equal(plan.realized_indices, idx)
    np.testing.assert_array_equal(plan.scales, scales)
    assert plan.expected_count == pytest.approx(expected, rel=1e-15, abs=0.0)
    np.testing.assert_array_equal(plan.probs, probs)


# _ROW_BLOCK and n: one block below 2 * _ROW_BLOCK rows, and many blocks
CHUNK_SIZES = [(7, 6), (7, 7), (7, 300), (None, 2000), (None, 16384), (None, 20000)]


class TestChunkedDraws:
    """Every stage draws against its chunk rule, and every plan is the one
    the whole-array path (tests/oracles.py) draws: the probabilities of
    all rows formed first, then compared with the whole counter stream."""

    @pytest.mark.parametrize("chunk, n", CHUNK_SIZES)
    @pytest.mark.parametrize("rhs", ["vector", "two-column", "weighted"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_two_stage_plans(self, monkeypatch, chunk, n, rhs, p):
        if chunk is not None:
            monkeypatch.setattr(kernels, "_ROW_BLOCK", chunk)
        inst = chunk_instance(n, p, rhs)
        unit = SamplerConfig(p=p, d=3, epsilon=0.5)
        cfg = SamplerConfig(
            p=p,
            d=3,
            epsilon=0.5,
            r1_scale=min(0.8 * n, 300.0) / r1_default(unit),
            r2_scale=min(0.8 * n, 600.0) / r2_default(unit, strict=False),
        )
        rep = two_stage_solve(inst, cfg, seed=11)
        assert rep.status == "ok"
        p1 = whole_array_stage1(inst.basis.leverage, r1_default(cfg))
        assert_plan_is_whole_array(rep.stage1.plan, p1, p)
        rho = rep.stage1.residual
        total = kernels.residual_pnorm(inst.A, rep.stage1.x_hat, inst.b, p)[1]
        assert rep.stage1.residual_powsum == total
        q = whole_array_stage2(p1, rho, p, r2_default(cfg, strict=False), total)
        assert_plan_is_whole_array(rep.stage2.plan, q, p)

    @pytest.mark.parametrize("chunk, n", CHUNK_SIZES)
    @pytest.mark.parametrize("rhs", ["vector", "weighted"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    def test_single_stage_plans(self, monkeypatch, chunk, n, rhs, p):
        if chunk is not None:
            monkeypatch.setattr(kernels, "_ROW_BLOCK", chunk)
        inst = chunk_instance(n, p, rhs)
        cfg = SamplerConfig(p=p, d=3, epsilon=0.5)
        r = min(0.8 * n, 300.0)
        rep = single_stage_oracle_solve(inst, None, cfg, r, seed=5)
        assert rep.status == "ok"
        rho = inst.A @ inst.optimum[0] - inst.b
        lev = whole_array_stage1(inst.basis.leverage, r)
        total = kernels.residual_pnorm(inst.A, inst.optimum[0], inst.b, p)[1]
        q = whole_array_stage2(lev, rho, p, r, total)
        assert_plan_is_whole_array(rep.stage1.plan, q, p)
        rep = single_stage_augmented_solve(inst, cfg, r, seed=5)
        assert rep.status == "ok"
        basis = well_conditioned_basis(np.column_stack([inst.A, inst.b]), p)
        assert_plan_is_whole_array(rep.stage1.plan, whole_array_stage1(basis.leverage, r), p)


class TestRuleEdges:
    @pytest.mark.parametrize("p, scale", [(2.0, 1e160), (3.0, 1e110)])
    def test_unsafe_stage2_total_takes_the_max_scaled_shares(self, p, scale):
        # the residual's powers overflow, so the residual pass's total is
        # inf and stage 2 samples by the max-scaled shares
        A, b, _ = make_instance_arrays(2000, 3, seed=1)
        inst = RegressionInstance(A=A, b=b * scale, p=p)
        cfg = SamplerConfig(p=p, d=3, epsilon=0.5, r1_scale=1e-4, r2_scale=1e-4)
        rep = two_stage_solve(inst, cfg, seed=2)
        assert rep.status == "ok"
        rho = rep.stage1.residual
        assert rep.stage1.residual_powsum == math.inf
        assert math.isfinite(rep.stage1.full_objective)
        p1 = whole_array_stage1(inst.basis.leverage, r1_default(cfg))
        r2 = r2_default(cfg, strict=False)
        q = np.clip(kernels.powsum_ratios(kernels.row_pnorms(rho[:, None], p), p) * r2, p1, 1.0)
        np.testing.assert_array_equal(q, whole_array_stage2(p1, rho, p, r2, math.inf))
        assert 0 < rep.stage2.plan.actual_count < inst.n
        assert_plan_is_whole_array(rep.stage2.plan, q, p)

    def test_nan_leverage_raises(self, rng):
        leverage = rng.uniform(0.0, 0.01, 100)
        leverage[57] = np.nan
        rule = stage1_rule(type("Basis", (), {"leverage": leverage}), 10.0)
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            realize_sample(rule, 2.0, 0)

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_nan_residual_raises(self, rng, p):
        rho = rng.standard_normal(100)
        floor = stage1_rule(type("Basis", (), {"leverage": np.full(100, 0.01)}), 5.0)
        total = float(np.sum(np.abs(rho) ** p))
        rho[57] = np.nan
        # a NaN after the total was summed, and a NaN total
        for t in (total, float(np.sum(np.abs(rho) ** p))):
            with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
                realize_sample(stage2_rule(floor, rho, p, 10.0, t), p, 0)

    def test_saturated_probabilities_keep_every_row(self, monkeypatch):
        monkeypatch.setattr(kernels, "_ROW_BLOCK", 7)
        inst = reference_instance(n=50, d=3, p=1.5, seed=2)
        rule = stage1_rule(inst.basis, 1e300)
        plan = realize_sample(rule, 1.5, 4)
        np.testing.assert_array_equal(plan.realized_indices, np.arange(50))
        np.testing.assert_array_equal(plan.scales, np.ones(50))
        assert plan.expected_count == 50.0
        rho = np.random.default_rng(0).standard_normal(50)
        rule2 = stage2_rule(rule, rho, 1.5, 1e300, float(np.sum(np.abs(rho) ** 1.5)))
        assert realize_sample(rule2, 1.5, 4).actual_count == 50

    def test_zero_r1_keeps_no_rows_and_retries(self):
        inst = reference_instance(n=200, d=3, p=1.5, seed=2)
        plan = realize_sample(stage1_rule(inst.basis, 0.0), 1.5, 4)
        assert plan.actual_count == 0 and plan.expected_count == 0.0
        with pytest.raises(StageFailureError) as exc_info:
            _sample_and_solve(inst, stage1_rule(inst.basis, 0.0), 1, 4)
        assert exc_info.value.diagnostics["attempts"] == [{"count": 0, "rank": 0}] * 6
        cfg = SamplerConfig(p=1.5, d=3, r1_scale=0.0)
        rep = two_stage_solve(inst, cfg, seed=4)
        assert rep.status == "failed" and "after 6 attempts" in rep.error
