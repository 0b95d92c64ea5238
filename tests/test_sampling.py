import math

import numpy as np
import pytest

from lpcoreset import kernels
from lpcoreset.conditioning import well_conditioned_basis
from lpcoreset.errors import InvalidConfigError, ZeroRankError
from lpcoreset.linalg import numeric_rank, vec_p_norm
from lpcoreset.sampling import (
    SamplerConfig,
    apply_plan,
    oracle_probabilities,
    r1_default,
    r2_default,
    realize_sample,
    stage1_probabilities,
    stage2_probabilities,
)
from oracles import measure_distortion


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
        with pytest.raises(InvalidConfigError):
            SamplerConfig(p=0.5, d=2)


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
        probs = stage1_probabilities(W, 5.0)
        np.testing.assert_allclose(probs, 0.5)

    def test_full_sample_clamp(self, basis):
        probs = stage1_probabilities(basis, 1e12)
        np.testing.assert_array_equal(probs, np.ones(50))

    def test_zero_row_gets_zero(self, rng):
        A = rng.standard_normal((20, 2))
        A[7] = 0.0
        W = well_conditioned_basis(A, 1.0)
        probs = stage1_probabilities(W, 10.0)
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
            stage1_probabilities(W, 40.0), np.minimum(1.0, 40.0 * W.leverage)
        )

    def test_p2_is_clamped_leverage(self, rng):
        # at p=2 the basis is the thin Q and p_i = min(1, r1 * tau_i / d)
        # with tau_i = ||q_i||_2^2 the leverage scores, which sum to d
        A = rng.standard_normal((400, 4)) * rng.pareto(1.5, (400, 1))
        W = well_conditioned_basis(A, 2.0)
        Q = W.U
        r1 = 60.0
        probs = stage1_probabilities(W, r1)
        want = np.minimum(1.0, r1 * np.einsum("ij,ij->i", Q, Q) / 4)
        np.testing.assert_allclose(probs, want, rtol=1e-14)
        assert 0 < np.count_nonzero(probs == 1.0) < 400


class TestStage2Probabilities:
    def test_uniform_residual(self):
        rho = np.full(8, 3.0)
        q = stage2_probabilities(np.zeros(8), rho, 2.0, 4.0)
        np.testing.assert_allclose(q, 0.5)

    def test_point_mass(self):
        rho = np.zeros(6)
        rho[2] = 5.0
        q = stage2_probabilities(np.zeros(6), rho, 1.0, 1.0)
        assert q[2] == 1.0
        assert np.all(q[np.arange(6) != 2] == 0.0)

    def test_stage1_floor_dominates(self, rng):
        rho = rng.standard_normal(30)
        q = stage2_probabilities(np.ones(30), rho, 2.0, 0.001)
        np.testing.assert_array_equal(q, np.ones(30))

    def test_dominance_over_stage1(self, rng):
        p1 = rng.uniform(0.0, 1.0, 40)
        rho = rng.standard_normal(40)
        q = stage2_probabilities(p1, rho, 1.5, 7.0)
        assert np.all(q >= p1)
        assert np.all(q <= 1.0)

    def test_zero_residual_rejected(self):
        with pytest.raises(ValueError):
            stage2_probabilities(np.zeros(4), np.zeros(4), 2.0, 1.0)

    def test_matrix_single_column_matches_vector(self, rng):
        rho = rng.standard_normal(25)
        p1 = rng.uniform(0.0, 0.5, 25)
        qv = stage2_probabilities(p1, rho, 1.5, 9.0)
        qm = stage2_probabilities(p1, rho[:, None], 1.5, 9.0)
        np.testing.assert_array_equal(qv, qm)



class TestOracleProbabilities:
    def test_zero_Z_reduces_to_leverage(self, basis):
        rho = np.zeros(50)
        probs = oracle_probabilities(basis, rho, 0.0, 12.0)
        np.testing.assert_array_equal(probs, stage1_probabilities(basis, 12.0))

    def test_pointwise_at_least_leverage(self, basis, rng):
        rho = rng.standard_normal(50)
        Z = vec_p_norm(rho, basis.p)
        combined = oracle_probabilities(basis, rho, Z, 5.0)
        assert np.all(combined >= stage1_probabilities(basis, 5.0) - 1e-15)

    def test_uniform_case(self):
        W = well_conditioned_basis(np.eye(8), 2.0)
        rho = np.full(8, 2.0)
        probs = oracle_probabilities(W, rho, vec_p_norm(rho, 2.0), 4.0)
        np.testing.assert_allclose(probs, 0.5)


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

    @pytest.mark.parametrize("chunk", [7, kernels._COUNTER_CHUNK])
    def test_chunked_draws_match_the_whole_stream(self, rng, monkeypatch, chunk):
        # below one chunk, whole chunks and a partial last chunk: the plan
        # keeps exactly the rows whose uniform lies below their probability
        monkeypatch.setattr(kernels, "_COUNTER_CHUNK", chunk)
        for n in (1, chunk - 3, chunk, 2 * chunk + 5):
            probs = rng.uniform(0.0, 1.0, n) ** 3
            probs[::7] = 0.0
            probs[3::11] = 1.0
            for seed in (0, 91):
                plan = realize_sample(probs, 1.5, seed)
                want = np.flatnonzero(kernels.counter_uniforms(seed, n) < probs)
                np.testing.assert_array_equal(plan.realized_indices, want)
                assert plan.probs is probs

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
        probs = stage1_probabilities(W, 400.0)
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
        probs = stage1_probabilities(W, 100.0)
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
        probs = stage1_probabilities(W, 30.0)
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
        probs = stage1_probabilities(W, r1)
        assert probs.sum() <= r1 + 1e-9
        counts = [realize_sample(probs, 2.0, seed=s).actual_count for s in range(100)]
        sigma_mean = math.sqrt(np.sum(probs * (1 - probs))) / 10.0
        assert abs(np.mean(counts) - probs.sum()) <= 3.0 * sigma_mean
