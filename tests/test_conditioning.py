import math
import tracemalloc

import numpy as np
import pytest

from conftest import circle_directions
from lpcoreset import conditioning
from lpcoreset.conditioning import certify_basis, lowner_john_round, well_conditioned_basis
from lpcoreset.kernels import row_pnorms
from lpcoreset.linalg import dual_exponent, qr_thin, r_factors, vec_p_norm
from lpcoreset.pipeline import make_instance_arrays, reference_instance
from oracles import spanner_coefficients

TOL = conditioning._TOL
CERT_SLACK = 1.0 + 1e-8


def orthonormal(rng, n, d):
    return qr_thin(rng.standard_normal((n, d))).Q


class TestRounding:
    def test_p2_certificates_match_singular_values(self, rng):
        # at p=2 both factors are the extreme singular values of Q G^-1,
        # whether or not Q's columns are orthonormal or equally scaled
        scaled = rng.standard_normal((200, 3)) * np.array([1.0, 1e3, 1e-3])
        for Q in (scaled, 2.0 * orthonormal(rng, 200, 3)):
            res = lowner_john_round(Q, 2.0)
            sv = np.linalg.svd(np.linalg.solve(res.G.T, Q.T).T, compute_uv=False)
            for factor, true in ((res.kappa, sv[0]), (res.kappa_slack, 1.0 / sv[-1])):
                assert true <= factor * CERT_SLACK and factor <= true * CERT_SLACK
            assert res.converged and res.iterations == 2
        with pytest.raises(ValueError, match="non-finite"):
            lowner_john_round(np.full((30, 3), np.nan), 2.0)

    def test_1d_interval_exact(self, rng):
        for p in (1.0, 1.5, 3.0):
            Q = orthonormal(rng, 20, 1)
            res = lowner_john_round(Q, p)
            assert res.kappa == 1.0
            assert res.G[0, 0] == pytest.approx(vec_p_norm(Q[:, 0], p), rel=1e-14)

    def test_l1_2d_against_direction_net(self, rng):
        # brute-force 0.5-degree net over the circle checks both certificate
        # sides of the rounded basis
        Q = orthonormal(rng, 50, 2)
        res = lowner_john_round(Q, 1.0)
        assert res.converged
        assert res.kappa <= math.sqrt(2.0) * (1.0 + TOL) * CERT_SLACK

        U = np.linalg.solve(res.G.T, Q.T).T
        dirs = circle_directions(720)
        ratios = row_pnorms(dirs @ U.T, 1.0)  # ||U z||_1 / ||z||_2, z unit
        assert ratios.max() <= res.kappa * CERT_SLACK
        assert ratios.min() >= 1.0 / (res.kappa_slack * CERT_SLACK)

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
    def test_upper_factor_below_sqrt_d(self, rng, p):
        Q = orthonormal(rng, 120, 4)
        res = lowner_john_round(Q, p)
        assert res.converged
        assert res.kappa <= math.sqrt(4.0) * (1.0 + TOL) * CERT_SLACK

    def test_exhausted_budget_reports_nonconvergence(self, rng, monkeypatch):
        Q = orthonormal(rng, 60, 3)
        monkeypatch.setattr(conditioning, "_MAX_SWEEPS", 0)
        res = lowner_john_round(Q, 1.0)
        assert not res.converged
        assert res.kappa > 0.0 and res.kappa_slack >= 1.0 + TOL

    def test_nonconvergence_warns_and_inflates(self, rng, monkeypatch):
        A = rng.standard_normal((60, 3))
        monkeypatch.setattr(conditioning, "_MAX_SWEEPS", 0)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            W = well_conditioned_basis(A, 1.0)
        # certificates stay sound even without convergence
        alpha_m, beta_m = certify_basis(W, n_probes=1500)
        assert alpha_m <= W.alpha_cert * CERT_SLACK
        assert beta_m <= W.beta_cert * CERT_SLACK


class TestProxySearch:
    """Tall inputs, where the rounding searches on a strict row sample of Q
    and certifies on Q itself."""

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    @pytest.mark.parametrize("d", [3, 5])
    def test_certificates_hold_on_the_full_matrix(self, rng, d, p):
        n = 10_000
        A = rng.standard_normal((n, d))
        Q = qr_thin(A).Q
        proxy = conditioning._search_proxy(Q, p)
        assert proxy.shape[1] == d and proxy.shape[0] < n

        ascent = conditioning._ratio_ascent
        res = lowner_john_round(Q, p)
        assert res.converged
        assert res.kappa <= math.sqrt(d) * (1.0 + TOL) * CERT_SLACK
        np.testing.assert_array_equal(lowner_john_round(Q, p).G, res.G)

        # the slack holds on the exact norm: ascents on Q from random starts
        ratios, _ = ascent(rng.standard_normal((16, d)), res.G, 2.0, Q, p)
        assert ratios.max() <= res.kappa_slack * CERT_SLACK

        W = well_conditioned_basis(A, p)
        alpha_m, beta_m = certify_basis(W, n_probes=200)
        assert alpha_m <= W.alpha_cert * CERT_SLACK
        assert beta_m <= W.beta_cert * CERT_SLACK

    @pytest.mark.filterwarnings("error")
    def test_rank_losing_sample_falls_back_to_q(self):
        # four heavy rows carry the first direction and 19,996 light rows
        # the second; at p=4 the importance sample keeps only the heavy rows
        n = 20_000
        Q = np.zeros((n, 2))
        Q[:4, 0] = 0.5
        Q[4:, 1] = 1.0 / math.sqrt(n - 4)
        assert conditioning._search_proxy(Q, 4.0) is Q
        res = lowner_john_round(Q, 4.0)
        assert res.converged
        assert res.kappa <= math.sqrt(2.0) * (1.0 + TOL) * CERT_SLACK

    def test_near_rank_deficient_proxy_falls_back_to_q(self, rng, monkeypatch):
        # sigma_3 / sigma_1 = 1e-11 is rank 2 by the library's 1e-10 rule,
        # though numpy's matrix_rank, at about 1e-13 for 1,000 rows, reads 3
        Q = orthonormal(rng, 20_000, 3)
        U, _, Vt = np.linalg.svd(rng.standard_normal((1000, 3)), full_matrices=False)
        proxy = (U * [1.0, 0.5, 1e-11]) @ Vt
        monkeypatch.setattr(conditioning, "apply_plan", lambda plan, M: proxy)
        assert conditioning._search_proxy(Q, 1.5) is Q

    def test_full_size_work(self, monkeypatch):
        # one unit per n-vector and k units per k x n block handed to the
        # norm and power-sum kernels; the Lewis rounding hands them Q once
        # (8 units), for the proxy's importance probabilities; the cutting
        # scheme it replaced took about 720 units here, or 4,900 searching
        # on Q itself
        A, _, _ = make_instance_arrays(20_000, 8, seed=1)
        Q = qr_thin(A).Q
        n = Q.shape[0]
        work = []

        def counted(kernel):
            def wrapper(M, p):
                M = np.asarray(M)
                if n in M.shape:
                    work.append(M.size / n)
                return kernel(M, p)

            return wrapper

        monkeypatch.setattr(conditioning, "pnorm", counted(conditioning.pnorm))
        monkeypatch.setattr(conditioning, "row_pnorms", counted(conditioning.row_pnorms))
        monkeypatch.setattr(conditioning, "row_powsums", counted(conditioning.row_powsums))
        res = lowner_john_round(Q, 1.5)
        assert res.converged
        assert 0 < sum(work) <= 8


def _rows(kind, rng, n, d):
    if kind == "gaussian":
        return rng.standard_normal((n, d))
    if kind == "student-t":
        return rng.standard_t(1.5, (n, d))
    # rotated cross-polytope: each row a signed coordinate vector, rotated
    X = np.zeros((n, d))
    X[np.arange(n), rng.integers(0, d, n)] = rng.choice([-1.0, 1.0], n)
    return X @ orthonormal(rng, d, d)


def _exact_ascents(res, Q, p, rng):
    """Largest ||Q G^-1 u||_p / ||u||_2 and ||G u||_2 / ||Q u||_p found by
    16-start ascents on the exact norm of Q."""
    d = Q.shape[1]
    U = np.linalg.solve(res.G.T, Q.T).T
    upper, _ = conditioning._ratio_ascent(rng.standard_normal((16, d)), U, p, np.eye(d), 2.0)
    lower, _ = conditioning._ratio_ascent(rng.standard_normal((16, d)), res.G, 2.0, Q, p)
    return float(upper.max()), float(lower.max())


class TestLewisRounding:
    """Both factors of the Lewis-weight rounding are closed-form bounds on Q
    itself, so no exact ascent may beat either of them."""

    @pytest.mark.parametrize("kind", ["gaussian", "student-t", "cross-polytope"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 7.0])
    def test_soundness_grid(self, rng, p, kind):
        d = 5
        Q = qr_thin(_rows(kind, rng, 20_000, d)).Q
        res = lowner_john_round(Q, p)
        assert res.converged
        assert res.kappa_slack == 1.0 + TOL
        assert 0 < res.iterations <= conditioning._MAX_SWEEPS
        upper, lower = _exact_ascents(res, Q, p, rng)
        assert upper <= res.kappa * CERT_SLACK
        assert lower <= res.kappa_slack * CERT_SLACK
        np.testing.assert_array_equal(lowner_john_round(Q, p).G, res.G)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
    @pytest.mark.parametrize("n", [300, 20_000])
    def test_zero_rows(self, rng, n, p):
        # every third row is zero: on the small input the sweeps run on Q
        # itself, on the tall one the zero rows meet only the full passes
        Q = np.zeros((n, 3))
        Q[::3] = orthonormal(rng, Q[::3].shape[0], 3)
        res = lowner_john_round(Q, p)
        assert res.converged
        upper, lower = _exact_ascents(res, Q, p, rng)
        assert upper <= res.kappa * CERT_SLACK
        assert lower <= res.kappa_slack * CERT_SLACK

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_last_bit_noise_stays_last_bit(self, p):
        inst = reference_instance(seed=1)
        Q = qr_thin(np.column_stack([inst.A, inst.b])).Q
        G = lowner_john_round(Q, p).G
        for factor in (1.0 + 2.0**-52, 1.0 - 2.0**-52):
            G2 = lowner_john_round(Q * factor, p).G
            assert np.abs(G2 - G).max() <= 1e-12 * np.abs(G).max()


class TestWellConditionedBasis:
    def test_p2_is_orthonormal_with_exact_certs(self, rng):
        A = rng.standard_normal((40, 3))
        W = well_conditioned_basis(A, 2.0)
        assert W.alpha_cert == pytest.approx(math.sqrt(3.0), abs=1e-12)
        assert W.beta_cert == 1.0
        assert W.kappa_cert == 1.0
        np.testing.assert_allclose(W.U.T @ W.U, np.eye(3), atol=1e-12)

    def test_single_column(self, rng):
        for p in (1.0, 2.0, 3.0):
            a = rng.standard_normal(25)
            W = well_conditioned_basis(a[:, None], p)
            expect = a / vec_p_norm(a, p)
            np.testing.assert_allclose(np.abs(W.U[:, 0]), np.abs(expect), atol=1e-12)
            assert vec_p_norm(W.U, p) == pytest.approx(1.0, abs=1e-12)
            assert W.alpha_cert <= 1.0 * (1.0 + TOL) + 1e-12
            assert W.beta_cert <= 1.0 * (1.0 + TOL) + 1e-12

    def test_gaussian_l1_matches_theory_bound(self, rng):
        # alpha for p=1 should come out below (1+TOL) * d^(1/p + 1/2)
        A = rng.standard_normal((100, 3))
        W = well_conditioned_basis(A, 1.0)
        assert W.alpha_cert <= (1.0 + TOL) * 3.0 ** (1.0 + 0.5) * CERT_SLACK
        assert vec_p_norm(W.U, 1.0) <= W.alpha_cert * CERT_SLACK
        # condition (2) on 10^4 random directions plus coordinates
        Z = np.vstack([np.eye(3), rng.standard_normal((10_000, 3))])
        num = np.max(np.abs(Z), axis=1)  # q = inf for p = 1
        den = row_pnorms(Z @ W.U.T, 1.0)
        assert np.max(num / den) <= W.beta_cert * CERT_SLACK

    def test_reconstruction_roundtrip(self, rng):
        for p in (1.0, 1.5, 2.0, 3.0):
            A = rng.standard_normal((60, 4))
            W = well_conditioned_basis(A, p)
            err = np.abs(A - W.U @ W.tau).max()
            assert err <= 1e-8 * np.abs(A).max()

    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0])
    def test_basis_is_q_times_g_inverse_column_major(self, rng, p):
        A = rng.standard_normal((300, 5))
        W = well_conditioned_basis(A, p)
        # T = A R^-1 from the R-only QR is Householder's Q up to rounding
        T = conditioning._column_basis(A, r_factors(A).C)
        Q = qr_thin(A).Q
        assert np.abs(T - Q).max() <= 1e-13
        for basis in (T, Q):
            ref = np.linalg.solve(W.G.T, basis.T).T
            assert np.abs(W.U - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(W.U - np.linalg.solve(W.G.T, T.T).T).max() <= 1e-14 * np.abs(W.U).max()
        # the layout is pinned: the leverage pass takes row sums of U, and
        # row passes run two to three times slower on a row-major n x d U
        assert W.U.flags.f_contiguous
        # U is the rounding's own product on T, scaled with G, written over
        # T when the rounding may overwrite it and into a new array if not
        T0 = T.copy(order="F")
        R = conditioning.lowner_john_round(T, p)
        np.testing.assert_array_equal(T, T0)
        np.testing.assert_array_equal(R.G, W.G)
        np.testing.assert_array_equal(R.U, W.U)
        R = conditioning.lowner_john_round(T, p, overwrite=True)
        assert R.U is T
        np.testing.assert_array_equal(R.U, W.U)

    def test_scale_equivariance_of_basis(self, rng):
        A = rng.standard_normal((50, 3))
        W1 = well_conditioned_basis(A, 1.5)
        W2 = well_conditioned_basis(4.0 * A, 1.5)
        assert np.abs(W1.U - W2.U).max() <= 1e-8

    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 4.0])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_certificates_sound(self, rng, p, d):
        A = rng.standard_normal((80, d))
        W = well_conditioned_basis(A, p)
        alpha_m, beta_m = certify_basis(W, n_probes=2000)
        assert alpha_m <= W.alpha_cert * CERT_SLACK
        assert beta_m <= W.beta_cert * CERT_SLACK


    @staticmethod
    def ill_conditioned(n=2000, m=6, cond=1e9, seed=11):
        # singular values from 1 to 1 / cond: full rank under the 1e-10
        # relative tolerance
        g = np.random.default_rng(seed)
        U = np.linalg.qr(g.standard_normal((n, m)))[0]
        V = np.linalg.qr(g.standard_normal((m, m)))[0]
        return (U * np.logspace(0, -np.log10(cond), m)) @ V.T

    @pytest.mark.parametrize("p", [1.5, 2.0])
    def test_ill_conditioned_certificates_hold(self, p):
        A = self.ill_conditioned()
        W = well_conditioned_basis(A, p)
        assert W.d == 6
        alpha_m, beta_m = certify_basis(W)
        assert alpha_m <= W.alpha_cert * CERT_SLACK
        assert beta_m <= W.beta_cert * CERT_SLACK
        assert np.abs(A - W.U @ W.tau).max() <= 1e-12 * np.abs(A).max()

    def test_ill_conditioned_p2_basis_is_orthonormal(self):
        A = self.ill_conditioned()
        W = well_conditioned_basis(A, 2.0)
        # T = A R^-1 is orthonormal only to about cond(A) * eps; the
        # Cholesky step on its Gram brings U to rounding
        T = conditioning._column_basis(A, r_factors(A).C)
        assert np.abs(T.T @ T - np.eye(6)).max() > 1e-12
        np.testing.assert_allclose(W.U.T @ W.U, np.eye(6), rtol=0, atol=1e-12)
        assert (W.alpha_cert, W.beta_cert) == (math.sqrt(6.0), 1.0)
        # the leverage, taken from T without the step, is Householder Q's
        # up to the cond(A) * eps by which either basis can miss col(A)
        Q = qr_thin(A).Q
        want = np.sum(Q * Q, axis=1) / np.sum(Q * Q)
        assert np.abs(W.leverage - want).max() <= 1e-6 * want.max()


class TestCertify:
    def test_orthonormal_p2(self, rng):
        W = well_conditioned_basis(rng.standard_normal((64, 4)), 2.0)
        alpha_m, beta_m = certify_basis(W, n_probes=500)
        assert alpha_m == pytest.approx(math.sqrt(4.0), rel=1e-12)
        assert beta_m <= 1.0 + 1e-10

    def test_single_column_beta_is_one(self, rng):
        W = well_conditioned_basis(rng.standard_normal((30, 1)), 3.0)
        _, beta_m = certify_basis(W, n_probes=10)
        assert beta_m == pytest.approx(1.0, abs=1e-12)

    def test_2d_p3_against_net(self, rng):
        W = well_conditioned_basis(rng.standard_normal((50, 2)), 3.0)
        _, beta_m = certify_basis(W, n_probes=4000)
        q = dual_exponent(3.0)
        dirs = circle_directions(10_000)
        net_beta = np.max(row_pnorms(dirs, q) / row_pnorms(dirs @ W.U.T, 3.0))
        assert beta_m <= W.beta_cert * CERT_SLACK
        assert net_beta <= W.beta_cert * CERT_SLACK
        # the refined probe search should essentially find the net's maximum
        assert beta_m >= net_beta * (1.0 - 1e-6)


    def test_probes_scored_in_blocks(self, monkeypatch):
        W = well_conditioned_basis(np.random.default_rng(3).standard_normal((10_000, 4)), 1.5)
        tracemalloc.start()
        try:
            alpha, beta = certify_basis(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        monkeypatch.setattr(conditioning, "_PROBE_BLOCK", 1 << 30)
        alpha_whole, beta_whole = certify_basis(W)
        assert alpha == pytest.approx(alpha_whole, rel=1e-12)
        assert beta == pytest.approx(beta_whole, rel=1e-12)


class TestSpanner:
    def test_single_column(self, rng):
        a = rng.standard_normal((20, 1))
        W = well_conditioned_basis(a, 1.5)
        assert spanner_coefficients(W, a, z_samples=200) <= 1.0 + TOL + 1e-9

    def test_orthonormal_p2_sqrt_d(self, rng):
        A = rng.standard_normal((40, 3))
        W = well_conditioned_basis(A, 2.0)
        assert spanner_coefficients(W, A, z_samples=2000) <= math.sqrt(3.0) * (1 + 1e-12)

    def test_p15_bound_holds(self, rng):
        A = rng.standard_normal((80, 3))
        W = well_conditioned_basis(A, 1.5)
        worst = spanner_coefficients(W, A, z_samples=10_000)
        assert worst <= math.sqrt(3.0) * W.slack_cert * CERT_SLACK
