"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines and timings.
"""
import json
import math
import pathlib
import time

import numpy as np
import pytest

import lpcoreset as lc
from conftest import circle_directions
from lpcoreset.cli import run_cli
from lpcoreset.io import generate_instance, json_dumps
from lpcoreset.kernels import row_pnorms
from lpcoreset.linalg import dual_exponent
from lpcoreset.sampling import r1_default, r2_default
from lpcoreset.solver import solve_lp_regression
from oracles import measure_distortion, objective_gradient_check, probe_certificates

CERT_SLACK = 1.0 + 1e-8


def gate(number, name, ok, detail, elapsed, budget_s):
    status = "PASS" if ok and elapsed < budget_s else "FAIL"
    print(
        f"ACCEPTANCE {number} [{status}] {name}: {detail} "
        f"({elapsed:.1f}s / budget {budget_s:.0f}s)"
    )
    assert ok, f"criterion {number} failed: {detail}"
    assert elapsed < budget_s, f"criterion {number} exceeded budget"


def scaled_config(p, d, eps, stage1_target, stage2_target):
    """Config whose formula sizes hit the requested expected sample sizes."""
    unit = lc.SamplerConfig(p=p, d=d, epsilon=eps)
    return lc.SamplerConfig(
        p=p,
        d=d,
        epsilon=eps,
        r1_scale=stage1_target / r1_default(unit),
        r2_scale=stage2_target / r2_default(unit, strict=False),
    )


def test_criterion_1_basis_certificates():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    dims = [1, 2, 3, 5]
    exponents = [1.0, 1.5, 2.0, 3.0, 4.0]
    failures = []
    for trial in range(50):
        n = int(rng.integers(50, 501))
        d = dims[trial % len(dims)]
        p = exponents[trial % len(exponents)]
        A = rng.standard_normal((n, d))
        W = lc.well_conditioned_basis(A, p)
        alpha_m, beta_m = probe_certificates(W, n_probes=1500, seed=trial)
        if alpha_m > W.alpha_cert * CERT_SLACK:
            failures.append((trial, "alpha", alpha_m, W.alpha_cert))
        if beta_m > W.beta_cert * CERT_SLACK:
            failures.append((trial, "beta", beta_m, W.beta_cert))
        if p == 2.0:
            if abs(W.alpha_cert - math.sqrt(d)) > 1e-8 or abs(W.beta_cert - 1.0) > 1e-8:
                failures.append((trial, "p2-exact", W.alpha_cert, W.beta_cert))
        if d == 1:
            q = dual_exponent(p)
            for z in (np.array([1.0]), np.array([-1.0])):
                lhs = lc.vec_p_norm(z, q) if not math.isinf(q) else 1.0
                if lhs > W.beta_cert * lc.vec_p_norm(W.U @ z, p) * CERT_SLACK:
                    failures.append((trial, "net-d1", lhs, W.beta_cert))
        elif d == 2:
            dirs = circle_directions(10_000)
            q = dual_exponent(p)
            num = np.max(np.abs(dirs), axis=1) if math.isinf(q) else row_pnorms(dirs, q)
            den = row_pnorms(dirs @ W.U.T, p)
            worst = float(np.max(num / den))
            if worst > W.beta_cert * CERT_SLACK:
                failures.append((trial, "net-d2", worst, W.beta_cert))
    elapsed = time.perf_counter() - t0
    gate(
        1,
        "well-conditioned basis certificates",
        not failures,
        f"50 instances, certificate violations: {failures[:3] or 'none'}",
        elapsed,
        120.0,
    )


# Expected stage-1 sample per leg of criterion 2; see the NOTE in the test.
SUBSPACE_SAMPLE = {1.0: 700.0, 2.0: 400.0, 3.0: 400.0}


def subspace_trials(A, probs, p):
    """(distortion<=1/8 hits, rank hits, mean max-distortion) over seeds 0-99."""
    distortion_hits = 0
    rank_hits = 0
    dists = []
    for seed in range(100):
        plan = lc.realize_sample(probs, p, seed=lc.derive_seed(seed, f"c2:{p}"))
        if lc.numeric_rank(lc.apply_plan(plan, A)) == 4:
            rank_hits += 1
        dist = measure_distortion(A, plan, p, x_samples=100, seed=seed)
        if dist <= 0.125:
            distortion_hits += 1
        dists.append(dist)
    return distortion_hits, rank_hits, float(np.mean(dists))


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0])
def test_criterion_2_subspace_preservation(p):
    # NOTE: the p = 1 leg runs at an expected sample of 700, not 400.
    # Cause: at 400 of these 2000 Gaussian rows no independent row sampler
    # keeps max distortion <= 1/8 over 100 directions in 95/100 seeds.
    # Even the ideal per-direction Horvitz-Thompson estimator of ||Ax||_1
    # has a coefficient of variation of 4.1%, so 1/8 is only three of its
    # standard deviations.  Hits on seeds 0-99 at E[sample] = 400:
    #     uniform probabilities    70/100
    #     stage1_probabilities     80/100
    #     l1 Lewis weights         83/100  (Cohen & Peng, arXiv:1412.0588)
    # The paper's own size (r1_default: eps = 1/8, delta = 1/100) is
    # ~515,000 rows for p = 1, d = 4, which keeps every row.
    # Sizing rule: the smallest multiple of 100 whose success rate q on
    # the disjoint calibration seeds 100-599 puts 95/100 at least three
    # binomial standard deviations below the mean:
    # 100 q - 95 >= 3 sqrt(100 q (1 - q)).  Measured q per 100 seeds:
    #     500: 92.4 +- 2.6 (-1.0 sd)   600: 98.0 +- 1.4 (2.1 sd)
    #     700: 99.4 +- 0.8 (5.7 sd)
    # The bound 1/8, the 95/100 and 99/100 counts, the seeds and the 100
    # directions are never changed; the p = 1 size changes only by
    # re-running this calibration.  At the hard size of 400 the leg still
    # checks the program's probabilities: stage 1 must give a lower mean
    # max-distortion than uniform probabilities with the same expected
    # count (0.095 vs 0.106 on seeds 0-99; on each block of 100 seeds in
    # 100-599 the ratio is 0.90-0.96).  The 1% margin keeps rounding noise
    # from deciding the comparison when the two samplers coincide.
    t0 = time.perf_counter()
    g = np.random.default_rng(202)
    A = g.standard_normal((2000, 4))
    W = lc.well_conditioned_basis(A, p)
    r = SUBSPACE_SAMPLE[p]
    probs = lc.stage1_probabilities(W, r)
    assert 0.75 * r <= probs.sum() <= r + 1e-9  # E[sample] ~ r
    distortion_hits, rank_hits, _ = subspace_trials(A, probs, p)
    ok = distortion_hits >= 95 and rank_hits >= 99
    detail = (
        f"distortion<=1/8 in {distortion_hits}/100 (need 95), "
        f"rank=4 in {rank_hits}/100 (need 99)"
    )
    if p == 1.0:
        hard = lc.stage1_probabilities(W, 400.0)
        uniform = np.full(hard.shape[0], hard.sum() / hard.shape[0])
        hard_hits, _, hard_mean = subspace_trials(A, hard, p)
        _, _, uniform_mean = subspace_trials(A, uniform, p)
        ok = ok and hard_mean < 0.99 * uniform_mean
        detail += (
            f" at E[sample]={probs.sum():.0f}; at E[sample]=400: "
            f"distortion<=1/8 in {hard_hits}/100, mean max-distortion "
            f"{hard_mean:.3f} (stage 1) vs {uniform_mean:.3f} (uniform, "
            f"need stage 1 < 0.99 x uniform)"
        )
    elapsed = time.perf_counter() - t0
    gate(
        2,
        f"subspace-preserving sampling (p={p:g})",
        ok,
        detail,
        elapsed,
        300.0,
    )


@pytest.fixture(scope="module")
def reference_2000():
    inst = lc.reference_instance(n=2000, d=4, p=1.0, corruption_rho=0.1, seed=42)
    exact = solve_lp_regression(inst.A, inst.b, 1.0)
    return inst, exact


def test_criterion_3_constant_factor(reference_2000):
    t0 = time.perf_counter()
    inst, exact = reference_2000
    cfg = scaled_config(1.0, 4, 0.5, stage1_target=400.0, stage2_target=600.0)
    hits = 0
    for seed in range(100):
        out = lc.stage_one(inst, cfg, lc.derive_seed(seed, "c3"))
        if out.full_objective <= 8.0 * exact.objective:
            hits += 1
    elapsed = time.perf_counter() - t0
    gate(
        3,
        "constant-factor stage",
        hits >= 60,
        f"stage-1 objective <= 8Z in {hits}/100 seeds (bound: 60)",
        elapsed,
        600.0,
    )


def test_criterion_4_relative_error(reference_2000):
    t0 = time.perf_counter()
    inst, exact = reference_2000
    cfg = scaled_config(1.0, 4, 0.5, stage1_target=400.0, stage2_target=600.0)
    ratios = []
    for seed in range(100):
        rep = lc.two_stage_solve(inst, cfg, seed=lc.derive_seed(seed, "c4"))
        assert rep.status == "ok"
        ratios.append(rep.final_objective / exact.objective)
    hits = int(np.sum(np.asarray(ratios) <= 1.5))
    elapsed = time.perf_counter() - t0
    gate(
        4,
        "relative-error stage (eps=0.5)",
        hits >= 50,
        f"final ratio <= 1.5 in {hits}/100 seeds (bound: 50), "
        f"median ratio {np.median(ratios):.5f}",
        elapsed,
        900.0,
    )


def test_criterion_5_guarantee_frequencies():
    t0 = time.perf_counter()
    details = {}
    ok = True
    for p in (1.0, 2.0):
        inst = lc.reference_instance(n=2000, d=4, p=p, corruption_rho=0.1, seed=42)
        cfg = scaled_config(p, 4, 0.5, stage1_target=400.0, stage2_target=600.0)
        stats = lc.guarantee_statistics(inst, cfg, n_seeds=100, master_seed=5)
        fa = stats["frequencies"]["a"]
        fe = stats["frequencies"]["e"]
        details[p] = (fa, fe)
        ok = ok and fa >= 1.0 - 1.0 / 3.0**p - 0.1 and fe >= 0.5
    elapsed = time.perf_counter() - t0
    gate(
        5,
        "stagewise guarantee frequencies",
        ok,
        f"(freq_a, freq_e) per p over 100 seeds: {details} "
        f"(bounds: a >= 1-3^-p-0.1, e >= 0.5)",
        elapsed,
        900.0,
    )


def test_criterion_6_solver_oracles():
    t0 = time.perf_counter()
    rng = np.random.default_rng(606)
    worst_p2 = 0.0
    for _ in range(100):
        n = int(rng.integers(10, 120))
        m = int(rng.integers(1, 6))
        A = rng.standard_normal((n, m))
        b = rng.standard_normal(n)
        res = solve_lp_regression(A, b, 2.0)
        x_ne = np.linalg.solve(A.T @ A, A.T @ b)
        z_ne = lc.vec_p_norm(A @ x_ne - b, 2.0)
        worst_p2 = max(worst_p2, abs(res.objective - z_ne) / max(z_ne, 1e-300))
    ok_p2 = worst_p2 <= 1e-10

    # 1-D grid oracle
    worst_l1 = 0.0
    for _ in range(10):
        A = rng.standard_normal((15, 1))
        b = rng.standard_normal(15)
        res = solve_lp_regression(A, b, 1.0)
        xs = np.arange(-5.0, 5.0 + 1e-3, 1e-3)
        objs = np.sum(np.abs(np.outer(A[:, 0], xs) - b[:, None]), axis=0)
        z_grid = float(objs.min())
        worst_l1 = max(worst_l1, abs(res.objective - z_grid) / (1.0 + z_grid))
    # 2-D grid oracle
    A = rng.standard_normal((12, 2))
    b = rng.standard_normal(12)
    res = solve_lp_regression(A, b, 1.0)
    axis = np.arange(-2.0, 2.0 + 2e-3, 2e-3)
    best = math.inf
    for x0 in axis:
        resid = np.abs((A[:, [0]] * x0 + np.outer(A[:, 1], axis)) - b[:, None])
        best = min(best, float(np.min(np.sum(resid, axis=0))))
    worst_l1 = max(worst_l1, abs(res.objective - best) / (1.0 + best))
    ok_l1 = worst_l1 <= 1e-3

    worst_grad = 0.0
    for p, mu in ((1.5, 1e-3), (3.0, 0.0)):
        for _ in range(10):
            A = rng.standard_normal((20, 3))
            b = rng.standard_normal(20)
            x = rng.standard_normal(3)
            worst_grad = max(
                worst_grad, objective_gradient_check(A, b, p, x, h=1e-5, mu=mu)
            )
    ok_grad = worst_grad <= 1e-4
    elapsed = time.perf_counter() - t0
    gate(
        6,
        "solver oracle equivalence",
        ok_p2 and ok_l1 and ok_grad,
        f"p2-vs-normal-eqs {worst_p2:.2e} (<=1e-10), l1-vs-grid {worst_l1:.2e} "
        f"(<=1e-3), grad-vs-fd {worst_grad:.2e} (<=1e-4)",
        elapsed,
        120.0,
    )


def test_criterion_7_reductions():
    t0 = time.perf_counter()
    inst = lc.reference_instance(n=400, d=3, p=1.5, seed=7)
    cfg = scaled_config(1.5, 3, 0.1, stage1_target=80.0, stage2_target=120.0)

    winst = lc.RegressionInstance(A=inst.A, b=inst.b, p=1.5, weights=np.ones(400))
    plain = lc.two_stage_solve(inst, cfg, seed=3, compute_exact=True)
    weighted = lc.two_stage_solve(winst, cfg, seed=3, compute_exact=True)
    from lpcoreset.io import report_to_dict

    def payload(rep):
        doc = report_to_dict(rep)
        doc.pop("timings_ms", None)
        doc.pop("config", None)
        return doc

    ok_weighted = payload(plain) == payload(weighted)

    minst = lc.RegressionInstance(A=inst.A, b=inst.b[:, None], p=1.5)
    gen = lc.two_stage_solve(minst, cfg, seed=3, compute_exact=True)
    ok_gen = (
        np.array_equal(gen.coreset_indices, plain.coreset_indices)
        and abs(gen.final_objective - plain.final_objective)
        <= 1e-10 * (1.0 + plain.final_objective)
        and abs(gen.Z_exact - plain.Z_exact) <= 1e-10 * (1.0 + plain.Z_exact)
    )

    full = lc.two_stage_solve(
        inst,
        lc.SamplerConfig(p=1.5, d=3, epsilon=0.1, r1_scale=1e12, r2_scale=1e12),
        seed=3,
        compute_exact=True,
    )
    ok_full = abs(full.approx_ratio - 1.0) <= 1e-6
    elapsed = time.perf_counter() - t0
    gate(
        7,
        "reductions",
        ok_weighted and ok_gen and ok_full,
        f"weighted-unit-identical={ok_weighted}, generalized-1col={ok_gen}, "
        f"full-sampling ratio={full.approx_ratio:.9f}",
        elapsed,
        120.0,
    )


def test_criterion_8_determinism(tmp_path):
    t0 = time.perf_counter()
    inst_dir = tmp_path / "inst"
    generate_instance(150, 2, 1.5, "sparse-gross", 0.1, 11, str(inst_dir))
    solve_args = [
        "solve",
        "--input", str(inst_dir / "A.csv"),
        "--rhs", str(inst_dir / "b.csv"),
        "--p", "1.5",
        "--epsilon", "0.1",
        "--seed", "9",
        "--r1-scale", "1e-4",
        "--r2-scale", "1e-4",
        "--exact",
    ]
    texts = []
    for name in ("r1.json", "r2.json"):
        out = str(tmp_path / name)
        assert run_cli(solve_args + ["--output", out]) == 0
        doc = json.loads(pathlib.Path(out).read_text())
        doc.pop("timings_ms", None)
        texts.append(json_dumps(doc))
    ok_solve = texts[0] == texts[1]

    bench_texts = []
    for name in ("b1", "b2"):
        out = str(tmp_path / name)
        assert (
            run_cli(
                [
                    "bench",
                    "--seeds", "3",
                    "--p", "1.5",
                    "--n", "120",
                    "--d", "2",
                    "--epsilon", "0.1",
                    "--r1-scale", "1e-3",
                    "--r2-scale", "1e-3",
                    "--out", out,
                ]
            )
            == 0
        )
        bench_texts.append(pathlib.Path(out, "bench.json").read_text())
    ok_bench = bench_texts[0] == bench_texts[1]
    elapsed = time.perf_counter() - t0
    gate(
        8,
        "byte-identical determinism",
        ok_solve and ok_bench,
        f"solve={ok_solve}, bench={ok_bench} (timings excluded)",
        elapsed,
        60.0,
    )


def test_criterion_9_sample_size_accounting(reference_2000):
    t0 = time.perf_counter()
    inst, _ = reference_2000
    cfg = scaled_config(1.0, 4, 0.5, stage1_target=400.0, stage2_target=600.0)
    probs = lc.stage1_probabilities(inst.basis, r1_default(cfg))
    expected = probs.sum()
    assert expected <= r1_default(cfg) + 1e-9  # E[sample] never exceeds r1
    counts = [
        lc.realize_sample(probs, 1.0, seed=lc.derive_seed(s, "c9")).actual_count
        for s in range(100)
    ]
    sigma_mean = math.sqrt(float(np.sum(probs * (1.0 - probs)))) / 10.0
    gap = abs(float(np.mean(counts)) - expected)
    ok = gap <= 3.0 * sigma_mean
    elapsed = time.perf_counter() - t0
    gate(
        9,
        "sample-size accounting",
        ok,
        f"mean count {np.mean(counts):.2f} vs expected {expected:.2f} "
        f"(gap {gap:.2f} <= 3 sigma = {3 * sigma_mean:.2f})",
        elapsed,
        120.0,
    )


@pytest.mark.parametrize("p", [1.0, 1.5])
def test_criterion_10_heavy_tailed_beats_uniform(p):
    # On multivariate-t rows (the heavy-tailed design) a few rows carry
    # most of the leverage, so a sampler that ignores conditioning misses
    # them.  Over seeds 0-9, the two-stage pipeline's worst final ratio
    # must lie below the median ratio of uniform sampling with the same
    # expected count as the pipeline's final (stage-2) sample.  The size,
    # 20,000 x 4 with Gaussian noise, instance seed 3 and targets 200 and
    # 400, were fixed before any change to conditioning was measured on
    # them.
    t0 = time.perf_counter()
    n, d = 20_000, 4
    A, b, _ = lc.make_instance_arrays(n, d, noise_model="gaussian", seed=3, design="heavy-tailed")
    inst = lc.RegressionInstance(A=A, b=b, p=p)
    Z = solve_lp_regression(inst.A, inst.b, p).objective
    cfg = scaled_config(p, d, 0.1, stage1_target=200.0, stage2_target=400.0)
    two_stage, uniform = [], []
    for seed in range(10):
        rep = lc.two_stage_solve(inst, cfg, seed=seed)
        assert rep.status == "ok"
        two_stage.append(rep.final_objective / Z)
        count = rep.stage2.plan.expected_count
        plan = lc.realize_sample(np.full(n, count / n), p, seed=lc.derive_seed(seed, "c10"))
        SA, Sb = lc.apply_plan(plan, inst.A, inst.b)
        x = solve_lp_regression(SA, Sb, p).x
        uniform.append(lc.vec_p_norm(inst.A @ x - inst.b, p) / Z)
    worst, uniform_median = max(two_stage), float(np.median(uniform))
    elapsed = time.perf_counter() - t0
    gate(
        10,
        f"heavy-tailed design beats uniform sampling (p={p:g})",
        worst < uniform_median,
        f"two-stage ratio median {np.median(two_stage):.6f}, max {worst:.6f}; "
        f"uniform ratio median {uniform_median:.6f} (need two-stage max < uniform median)",
        elapsed,
        120.0,
    )
