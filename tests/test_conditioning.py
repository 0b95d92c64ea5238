import functools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import circle_directions
from lpcoreset import conditioning, kernels
from lpcoreset.conditioning import certify_basis, lowner_john_round, well_conditioned_basis
from lpcoreset.kernels import row_pnorms, row_powsums
from lpcoreset.linalg import dual_exponent, qr_thin, r_factors, vec_p_norm
from lpcoreset.pipeline import RegressionInstance, make_instance_arrays, reference_instance
from oracles import probe_certificates, spanner_coefficients

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
            assert res.converged and res.iterations == 1
        with pytest.raises(ValueError, match="non-finite"):
            lowner_john_round(np.full((30, 3), np.nan), 2.0)

    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    @pytest.mark.parametrize("d", [1, 3])
    def test_non_finite_entry_in_last_row_block(self, rng, d, bad):
        # the rounding checks Q finite only when its first pass's total is
        # not, so one bad entry past the first row block must still raise
        Q = orthonormal(rng, 2 * kernels._ROW_BLOCK + 100, d)
        Q[-1, -1] = bad
        for p in (1.0, 1.5, 2.0):
            with pytest.raises(ValueError, match="non-finite"):
                lowner_john_round(Q, p)

    @pytest.mark.filterwarnings("error")
    def test_overflowing_powers_of_a_finite_q_are_rounded(self, rng):
        # |1e120|^3 overflows the first pass's total, but Q is finite, so
        # the check passes and the rounding goes on
        Q = orthonormal(rng, 3000, 3)
        Q[0, 0] = 1e120
        res = lowner_john_round(Q, 3.0)
        assert res.converged and np.isfinite(res.leverage).all()

    def test_1d_interval_exact(self, rng):
        for p in (1.0, 1.5, 3.0):
            Q = orthonormal(rng, 20, 1)
            res = lowner_john_round(Q, p)
            assert res.kappa == 1.0
            assert res.G[0, 0] == pytest.approx(vec_p_norm(Q[:, 0], p), rel=1e-14)
            # U = Q / g, whose rows' shares of |||U|||_p^p are Q's
            want = np.abs(Q[:, 0]) ** p / np.sum(np.abs(Q[:, 0]) ** p)
            np.testing.assert_allclose(res.leverage, want, rtol=1e-13, atol=0)

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

    def test_exhausted_budget_reports_nonconvergence(self, monkeypatch):
        # with no sweep the proxy's factor is that of uniform weights; the
        # last pass's certificates take one Lewis step on all rows, which
        # is enough on Gaussian rows, but not on heavy-tailed ones
        Q = qr_thin(make_instance_arrays(60, 3, seed=0, design="heavy-tailed")[0]).Q
        monkeypatch.setattr(conditioning, "_MAX_SWEEPS", 0)
        res = lowner_john_round(Q, 1.0)
        assert not res.converged
        assert res.kappa > 0.0 and res.kappa_slack >= 1.0 + TOL

    def test_nonconvergence_warns_and_inflates(self, monkeypatch):
        A, _, _ = make_instance_arrays(60, 3, seed=0, design="heavy-tailed")
        monkeypatch.setattr(conditioning, "_MAX_SWEEPS", 0)
        with pytest.warns(RuntimeWarning, match="did not converge"):
            W = well_conditioned_basis(A, 1.0)
        # certificates stay sound even without convergence
        alpha_m, beta_m = probe_certificates(W, n_probes=1500)
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
        proxy = conditioning._search_proxy(Q, p, row_powsums(Q, p), np.eye(Q.shape[1]))
        assert proxy.shape[1] == d and proxy.shape[0] < n

        ascent = oracles._ratio_ascent
        res = lowner_john_round(Q, p)
        assert res.converged
        assert res.kappa <= math.sqrt(d) * (1.0 + TOL) * CERT_SLACK
        np.testing.assert_array_equal(lowner_john_round(Q, p).G, res.G)

        # the slack holds on the exact norm: ascents on Q from random starts
        ratios, _ = ascent(rng.standard_normal((16, d)), res.G, 2.0, Q, p)
        assert ratios.max() <= res.kappa_slack * CERT_SLACK

        W = well_conditioned_basis(A, p)
        alpha_m, beta_m = probe_certificates(W, n_probes=200)
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
        assert conditioning._search_proxy(Q, 4.0, row_powsums(Q, 4.0), np.eye(Q.shape[1])) is Q
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
        assert conditioning._search_proxy(Q, 1.5, row_powsums(Q, 1.5), np.eye(Q.shape[1])) is Q

    def test_full_size_work(self, monkeypatch):
        # the entries handed to the norm and power-sum kernels, n per
        # n-vector, and a block of rows counting its own; the Lewis rounding
        # hands them Q once (8n), for the proxy's importance probabilities,
        # and the last pass's block products once (8n), for the leverage;
        # the cutting scheme it replaced took about 720n here, or 4,900n
        # searching on Q itself.  Counted in integers, the verdict does not
        # rest on how the block heights round
        A, _, _ = make_instance_arrays(20_000, 8, seed=1)
        Q = qr_thin(A).Q
        n = Q.shape[0]
        work = []

        def counted(kernel, blocks=False):
            def wrapper(M, p, *args):
                M = np.asarray(M)
                if blocks or n in M.shape:
                    work.append(M.size)
                return kernel(M, p, *args)

            return wrapper

        monkeypatch.setattr(conditioning, "pnorm", counted(conditioning.pnorm))
        monkeypatch.setattr(conditioning, "row_pnorms", counted(conditioning.row_pnorms))
        monkeypatch.setattr(
            conditioning, "_block_powsums", counted(conditioning._block_powsums, blocks=True)
        )
        res = lowner_john_round(Q, 1.5)
        assert res.converged
        assert 0 < sum(work) <= 16 * n


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
    upper, _ = oracles._ratio_ascent(rng.standard_normal((16, d)), U, p, np.eye(d), 2.0)
    lower, _ = oracles._ratio_ascent(rng.standard_normal((16, d)), res.G, 2.0, Q, p)
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

    @pytest.mark.parametrize("design", ["gaussian", "heavy-tailed"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0, 7.0])
    def test_rounding_does_not_depend_on_scale(self, design, p):
        # scaling Q by c scales the proxy's start factor by c and leaves
        # Y = Q Gs^-1, every M' and the sweeps' stop rule, on how flat M'
        # is, as they were: the same sweeps, and G scaled by c
        A, _, _ = make_instance_arrays(20_000, 5, seed=2, design=design)
        Q = qr_thin(A).Q
        res = lowner_john_round(Q, p)
        assert res.converged
        for c in (1e-3, 1e3):
            scaled = lowner_john_round(c * Q, p)
            assert scaled.iterations == res.iterations
            assert scaled.kappa == pytest.approx(res.kappa, rel=1e-12)
            assert np.abs(scaled.G - c * res.G).max() <= 1e-12 * c * np.abs(res.G).max()

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
        # the layout is pinned: U is formed column-major, as T and the
        # instance's A are, since row passes run two to three times slower
        # on a row-major n x d array
        assert W.U.flags.f_contiguous
        # G is the rounding's own on T, which the rounding leaves as it
        # was; the basis reads T as A's rows times C, so its proxy rows and
        # block products may differ from T's in the last bits
        T0 = T.copy(order="F")
        R = conditioning.lowner_john_round(T, p)
        np.testing.assert_array_equal(T, T0)
        assert np.abs(R.G - W.G).max() <= 1e-13 * np.abs(W.G).max()
        assert np.abs(R.leverage - W.leverage).max() <= 1e-13 * W.leverage.max()
        # the leverage, taken from the unscaled block products, is U's
        want = np.sum(np.abs(W.U) ** p, axis=1)
        want /= want.sum()
        assert np.abs(W.leverage - want).max() <= 1e-14 * want.max()

    def test_no_n_by_d_transient(self):
        # at p != 2 the rounding reads A's row blocks through the column
        # map and writes only n-vectors, so conditioning peaks below one
        # n x d array (200,000 x 8 doubles, 12.8 MB)
        A, b, _ = make_instance_arrays(200_000, 8, seed=1)
        inst = RegressionInstance(A=A, b=b, p=1.5)
        del A, b
        tracemalloc.start()
        try:
            W = well_conditioned_basis(inst.A, 1.5, factors=inst.factors)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert W.leverage.shape == (200_000,)
        assert peak < inst.A.nbytes

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
        alpha_m, beta_m = probe_certificates(W, n_probes=2000)
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
        alpha_m, beta_m = probe_certificates(W)
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


@functools.lru_cache(maxsize=None)
def _tall_basis(design, p):
    """(basis, certify_basis(basis)) of a 20,000 x 5 instance of the
    design: tall enough that the rounding certifies a strict proxy's
    ellipsoid on rows it never swept on."""
    A, _, _ = make_instance_arrays(20_000, 5, seed=2, design=design)
    W = well_conditioned_basis(A, p)
    return W, certify_basis(W)


class TestProxyCertificates:
    """The rounding certifies the proxy's factor on all rows in closed form
    (module docstring); nothing measured on U may beat its certificates."""

    @pytest.mark.parametrize("design", ["gaussian", "heavy-tailed"])
    @pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
    def test_exact_measures_within_certificates(self, design, p):
        W, (alpha_m, beta_lower) = _tall_basis(design, p)
        # alpha_cert is U's norm from the last pass's sums, and certify
        # forms U again from A; they agree up to rounding
        assert alpha_m <= W.alpha_cert * CERT_SLACK
        assert W.alpha_cert <= alpha_m * CERT_SLACK
        assert beta_lower <= W.beta_cert * CERT_SLACK


@pytest.mark.parametrize("design", ["gaussian", "heavy-tailed"])
@pytest.mark.parametrize("p", [1.0, 1.5, 3.0, 4.0])
@settings(max_examples=40, deadline=None)
@given(z=hnp.arrays(np.float64, 5, elements=st.floats(-1.0, 1.0, allow_subnormal=False)))
def test_proxy_certificates_on_drawn_directions(design, p, z):
    # ||Uz||_p <= alpha ||z||_q (Hoelder, row by row) and
    # ||z||_q <= beta ||Uz||_p; both are homogeneous in z, which is scaled
    # to max |z_j| = 1 so that no product underflows
    if not np.any(z):
        return
    z = z / np.abs(z).max()
    W, _ = _tall_basis(design, p)
    q = dual_exponent(p)
    Uz, zq = vec_p_norm(W.U @ z, p), vec_p_norm(z, q)
    assert Uz <= W.alpha_cert * zq * CERT_SLACK
    assert zq <= W.beta_cert * Uz * CERT_SLACK


class TestCertify:
    def test_orthonormal_p2(self, rng):
        W = well_conditioned_basis(rng.standard_normal((64, 4)), 2.0)
        alpha_m, beta_m = probe_certificates(W, n_probes=500)
        assert alpha_m == pytest.approx(math.sqrt(4.0), rel=1e-12)
        assert beta_m <= 1.0 + 1e-10

    def test_single_column_beta_is_one(self, rng):
        W = well_conditioned_basis(rng.standard_normal((30, 1)), 3.0)
        _, beta_m = probe_certificates(W, n_probes=10)
        assert beta_m == pytest.approx(1.0, abs=1e-12)

    def test_2d_p3_against_net(self, rng):
        W = well_conditioned_basis(rng.standard_normal((50, 2)), 3.0)
        _, beta_m = probe_certificates(W, n_probes=4000)
        q = dual_exponent(3.0)
        dirs = circle_directions(10_000)
        net_beta = np.max(row_pnorms(dirs, q) / row_pnorms(dirs @ W.U.T, 3.0))
        assert beta_m <= W.beta_cert * CERT_SLACK
        assert net_beta <= W.beta_cert * CERT_SLACK
        # the refined probe search should essentially find the net's maximum
        assert beta_m >= net_beta * (1.0 - 1e-6)


    @pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("d", [1, 3])
    def test_closed_form_measures(self, rng, p, d):
        # alpha is U's exact norm; beta's bound is the best coordinate
        # direction, which the probes also score, so it is at most theirs
        W = well_conditioned_basis(rng.standard_normal((200, d)), p)
        alpha_m, beta_m = certify_basis(W)
        assert alpha_m == vec_p_norm(W.U, p)
        columns = max(1.0 / vec_p_norm(W.U[:, j], p) for j in range(d))
        assert beta_m == pytest.approx(columns, rel=1e-14)
        assert beta_m <= probe_certificates(W)[1]
        assert beta_m <= W.beta_cert * CERT_SLACK

    def test_probes_scored_in_blocks(self, monkeypatch):
        W = well_conditioned_basis(np.random.default_rng(3).standard_normal((10_000, 4)), 1.5)
        tracemalloc.start()
        try:
            alpha, beta = probe_certificates(W)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100e6
        monkeypatch.setattr(oracles, "_PROBE_BLOCK", 1 << 30)
        alpha_whole, beta_whole = probe_certificates(W)
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
