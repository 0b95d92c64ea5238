"""Command-line surface: solve, gen, certify, bench.

Exit codes: 0 success, 1 usage/input error, 2 solve failure.
"""
import argparse
import os
import sys

import numpy as np

from .conditioning import certify_basis, well_conditioned_basis
from .errors import InvalidConfigError, MatrixParseError, StageFailureError
from .io import emit_report, generate_instance, json_dumps, load_matrix, load_vector
from .pipeline import (
    RegressionInstance,
    derive_seed,
    guarantee_statistics,
    reference_instance,
    single_stage_augmented_solve,
    single_stage_oracle_solve,
    two_stage_solve,
)
from .sampling import EPSILON_GUARANTEE_LIMIT, SamplerConfig, r2_default

VARIANTS = ("two-stage", "oracle", "augmented", "generalized", "weighted")


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _build_parser():
    parser = _Parser(
        prog="lpcoreset",
        description="Coreset sampling solver for overconstrained lp regression.",
    )
    sub = parser.add_subparsers(dest="command")

    ps = sub.add_parser("solve", help="solve an instance from files")
    ps.add_argument("--input", required=True, help="matrix A (CSV or MatrixMarket)")
    ps.add_argument("--rhs", required=True, help="right-hand side b (or B)")
    ps.add_argument("--p", type=float, required=True)
    ps.add_argument("--epsilon", type=float, default=0.1)
    ps.add_argument("--seed", type=int, default=0)
    ps.add_argument("--r1-scale", type=float, default=1.0)
    ps.add_argument("--r2-scale", type=float, default=1.0)
    ps.add_argument("--stages", type=int, choices=(1, 2), default=2)
    ps.add_argument("--variant", choices=VARIANTS, default="two-stage")
    ps.add_argument("--weights", help="weights file (weighted variant)")
    ps.add_argument("--exact", action="store_true", help="also solve exactly")
    ps.add_argument("--output", help="report path (default: stdout)")

    pg = sub.add_parser("gen", help="generate a reference-family instance")
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--d", type=int, required=True)
    pg.add_argument("--p", type=float, default=2.0)
    pg.add_argument("--rho", type=float, default=0.1)
    pg.add_argument("--seed", type=int, default=0)
    pg.add_argument("--noise", choices=("gaussian", "sparse-gross"), default="sparse-gross")
    pg.add_argument("--out", required=True, help="output directory")

    pc = sub.add_parser("certify", help="print conditioning certificates for A")
    pc.add_argument("--input", required=True)
    pc.add_argument("--p", type=float, required=True)

    pb = sub.add_parser("bench", help="guarantee statistics and ratio sweeps")
    pb.add_argument("--family", choices=("reference",), default="reference")
    pb.add_argument("--seeds", type=int, default=20)
    pb.add_argument("--p", default="1,2", help="comma-separated exponents")
    pb.add_argument("--n", type=int, default=2000)
    pb.add_argument("--d", type=int, default=4)
    pb.add_argument("--rho", type=float, default=0.1)
    pb.add_argument("--epsilon", type=float, default=0.1)
    pb.add_argument("--r1-scale", type=float, default=1e-4)
    pb.add_argument("--r2-scale", type=float, default=1e-5)
    pb.add_argument("--seed", type=int, default=0)
    pb.add_argument("--out", required=True, help="output directory")
    return parser


def _check_cli_epsilon(epsilon):
    if not (0.0 < epsilon < EPSILON_GUARANTEE_LIMIT):
        raise _UsageError(
            f"--epsilon must lie in (0, 1/7) ~ (0, {EPSILON_GUARANTEE_LIMIT:.4f}), "
            f"got {epsilon}"
        )


def _cmd_solve(args):
    if args.variant == "weighted" and not args.weights:
        raise _UsageError("--variant weighted requires --weights")
    if args.variant != "weighted" and args.weights is not None:
        raise _UsageError("--weights goes only with --variant weighted")
    A = load_matrix(args.input)
    if args.variant == "generalized":
        b = load_matrix(args.rhs)
    else:
        b = load_vector(args.rhs)
    weights = load_vector(args.weights) if args.variant == "weighted" else None
    inst = RegressionInstance(A=A, b=b, p=args.p, weights=weights)
    cfg = SamplerConfig(
        p=args.p,
        d=inst.d,
        epsilon=args.epsilon,
        r1_scale=args.r1_scale,
        r2_scale=args.r2_scale,
    )
    if args.variant == "oracle":
        r = min(r2_default(cfg, strict=False), float(inst.n))
        report = single_stage_oracle_solve(
            inst, None, cfg, r, args.seed, compute_exact=args.exact
        )
    elif args.variant == "augmented":
        r = min(r2_default(cfg, strict=False), float(inst.n))
        report = single_stage_augmented_solve(
            inst, cfg, r, args.seed, compute_exact=args.exact
        )
    else:  # two-stage, generalized or weighted: the instance says which
        report = two_stage_solve(
            inst, cfg, args.seed, compute_exact=args.exact, stages=args.stages
        )
    text = emit_report(report, args.output)
    if args.output is None:
        sys.stdout.write(text)
    return 0 if report.status == "ok" else 2


def _cmd_gen(args):
    paths = generate_instance(
        args.n, args.d, args.p, args.noise, args.rho, args.seed, args.out
    )
    for path in paths:
        print(path)
    return 0


def _cmd_certify(args):
    A = load_matrix(args.input)
    basis = well_conditioned_basis(A, args.p)
    alpha_measured, beta_lower = certify_basis(basis)
    print(f"n = {A.shape[0]}, d = {basis.d}, p = {args.p}")
    print(f"kappa_cert = {basis.kappa_cert:.12g}")
    print(f"alpha_cert = {basis.alpha_cert:.12g}")
    print(f"alpha_measured = {alpha_measured:.12g}")
    print(f"beta_cert = {basis.beta_cert:.12g}")
    print(f"beta_measured_lower = {beta_lower:.12g}")
    ok = (
        alpha_measured <= basis.alpha_cert * (1.0 + 1e-8)
        and beta_lower <= basis.beta_cert * (1.0 + 1e-8)
    )
    print(f"certificates_hold = {str(ok).lower()}")
    return 0


def _cmd_bench(args):
    p_list = [float(s) for s in str(args.p).split(",") if s.strip()]
    if not p_list:
        raise _UsageError("--p must name at least one exponent")
    os.makedirs(args.out, exist_ok=True)
    aggregate = {
        "family": args.family,
        "n": args.n,
        "d": args.d,
        "rho": args.rho,
        "epsilon": args.epsilon,
        "seeds": args.seeds,
        "results": {},
    }
    for p in p_list:
        inst = reference_instance(
            n=args.n, d=args.d, p=p, corruption_rho=args.rho, seed=args.seed
        )
        cfg = SamplerConfig(
            p=p,
            d=inst.d,
            epsilon=args.epsilon,
            r1_scale=args.r1_scale,
            r2_scale=args.r2_scale,
        )
        stats = guarantee_statistics(
            inst, cfg, n_seeds=args.seeds, master_seed=derive_seed(args.seed, f"stats:{p}")
        )
        sweep = _ratio_sweep(inst, cfg, args)
        result = {"statistics": stats, "ratio_sweep": sweep}
        path = os.path.join(args.out, f"stats_p{p:g}.json")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json_dumps(result) + "\n")
        aggregate["results"][f"p={p:g}"] = result
    with open(os.path.join(args.out, "bench.json"), "w", encoding="utf-8") as f:
        f.write(json_dumps(aggregate) + "\n")
    return 0


def _ratio_sweep(inst, cfg, args):
    """Median approximation ratio at 0.5x/1x/2x of the stage-2 scale,
    against the instance's optimum.

    A run whose report failed ends the sweep with StageFailureError."""
    Z = inst.optimum[1]
    sweep = []
    for mult in (0.5, 1.0, 2.0):
        cfg_k = SamplerConfig(
            p=cfg.p,
            d=cfg.d,
            epsilon=cfg.epsilon,
            r1_scale=cfg.r1_scale,
            r2_scale=cfg.r2_scale * mult,
        )
        ratios = []
        for k in range(args.seeds):
            seed = derive_seed(args.seed, f"sweep:{mult}:{k}")
            rep = two_stage_solve(inst, cfg_k, seed)
            if rep.status != "ok":
                raise StageFailureError(
                    f"ratio sweep at r2_scale={cfg_k.r2_scale:g}: {rep.error}"
                )
            ratios.append(rep.final_objective / Z if Z > 0 else 1.0)
        sweep.append(
            {
                "r2_scale": cfg_k.r2_scale,
                "median_ratio": float(np.median(ratios)),
                "max_ratio": float(np.max(ratios)),
            }
        )
    return sweep


def run_cli(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command is None:
            raise _UsageError("a subcommand is required (solve/gen/certify/bench)")
        if args.command in ("solve", "bench"):
            _check_cli_epsilon(args.epsilon)
        handler = {
            "solve": _cmd_solve,
            "gen": _cmd_gen,
            "certify": _cmd_certify,
            "bench": _cmd_bench,
        }[args.command]
        return handler(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except (MatrixParseError, InvalidConfigError, FileNotFoundError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except StageFailureError as exc:
        print(f"solve failed: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run_cli())


if __name__ == "__main__":
    main()
