"""Command line front end.

Subcommands: solve one instance (random or from JSON files), run the
complexity sweep, the planted-solution accuracy sweep, the time-equivalent
conjugate gradient comparison, and the nonuniform sampling reconstruction.

Exit codes: 0 success, 2 configuration or input errors, 3 numerical
failures (singular or degenerate systems).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .experiments import (
    VARIANTS,
    ExperimentConfig,
    random_problem,
    run_accuracy,
    run_cg_equivalence,
    run_complexity,
    write_rows,
)
from .nufft import NufftConfig, run_nufft
from .solver import SolverConfig, solve_tikhonov
from .tanint import SingularSystemError
from .toeplitz import (
    HermitianToeplitzSpec,
    ProblemSpec,
    ToeplitzSpec,
    spec_from_json,
    vector_from_json,
    vector_to_json,
)


def _parse_sizes(text: str):
    try:
        sizes = tuple(int(part) for part in text.split(",") if part)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    return sizes


def _parse_beta_sq(text: str):
    # "auto" keeps the size-based default |beta|^2 = sqrt(n).
    if text == "auto":
        return None
    try:
        return float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad squared ridge weight {text!r}")


def _load_json(path):
    with open(path) as fh:
        return json.load(fh)


def _load_spec(path) -> ToeplitzSpec:
    return spec_from_json(_load_json(path))


def _load_vector(path) -> np.ndarray:
    return vector_from_json(_load_json(path))


def _hermitian_from_spec(spec: ToeplitzSpec) -> HermitianToeplitzSpec:
    """Validate a full Toeplitz description as Hermitian and keep its
    first column."""
    if spec.rows != spec.cols:
        raise ValueError("Gramian matrix must be square")
    n = spec.rows
    gen = spec.gen
    scale = max(float(np.abs(gen).max()), 1.0)
    if n > 1 and np.abs(gen[:n - 1][::-1] - np.conj(gen[n:])).max() > 1e-10 * scale:
        raise ValueError("Gramian matrix is not Hermitian")
    return HermitianToeplitzSpec(n, gen[n - 1:])


def _solver_config(args) -> SolverConfig:
    return SolverConfig(n_lim=args.nlim, pivot_threshold=args.pivot_threshold)


def _random_problem(args) -> ProblemSpec:
    n = args.n
    if n is None:
        raise ValueError("either --input or --n is required")
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 17)))
    beta = _beta_value(args, n) if args.variant == "l2" else None
    return random_problem(args.variant, n, rng, m=args.m, p=args.p, beta=beta)


def _beta_value(args, n: int) -> complex:
    if args.beta is not None:
        return args.beta
    if args.beta_sq is not None:
        if args.beta_sq <= 0:
            raise ValueError("--beta-sq must be positive")
        return float(np.sqrt(args.beta_sq))
    return float(n) ** 0.25


def _file_problem(args) -> ProblemSpec:
    spec = _load_spec(args.input)
    if args.variant == "general":
        if not args.reg or not args.b:
            raise ValueError("general variant needs --reg and --b")
        return ProblemSpec.general(spec, _load_spec(args.reg), _load_vector(args.b))
    if args.variant == "l2":
        if not args.b:
            raise ValueError("l2 variant needs --b")
        return ProblemSpec.l2(spec, _beta_value(args, spec.cols), _load_vector(args.b))
    if not args.reg or not args.rhs:
        raise ValueError("gramian variant needs --reg and --rhs")
    return ProblemSpec.gramian(_hermitian_from_spec(spec), _load_spec(args.reg),
                               _load_vector(args.rhs))


def _cmd_solve(args) -> int:
    problem = _file_problem(args) if args.input else _random_problem(args)
    report = solve_tikhonov(problem, _solver_config(args))
    print(f"variant={report.variant} n={problem.n} wall_s={report.wall_time:.6f} "
          f"rel_residual={report.relative_residual:.3e} "
          f"difficult_points={report.diagnostics.difficult_points}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(vector_to_json(report.x_hat), fh)
            fh.write("\n")
    return 0


def _experiment_config(args) -> ExperimentConfig:
    variants = VARIANTS if args.variant == "all" else (args.variant,)
    return ExperimentConfig(variants=variants, sizes=args.sizes, trials=args.trials,
                            seed=args.seed, n_lim=args.nlim,
                            pivot_threshold=args.pivot_threshold)


def _maybe_write(args, rows):
    if args.out:
        write_rows(rows, args.out, args.format)


def _cmd_complexity(args) -> int:
    rows, fits = run_complexity(_experiment_config(args))
    for row in rows:
        print(f"{row['variant']} n={row['n']} params={row['params']} "
              f"mean_s={row['mean_s']:.6f} median_s={row['median_s']:.6f}")
    for variant, fit in fits.items():
        print(f"fit {variant}: c1={fit.c1:.4e} c2={fit.c2:.4e} "
              f"r2={fit.r_squared:.4f}")
    _maybe_write(args, rows)
    return 0


def _cmd_accuracy(args) -> int:
    rows = run_accuracy(_experiment_config(args))
    for row in rows:
        print(f"{row['variant']} n={row['n']} max_err={row['max_err']:.3e}")
    _maybe_write(args, rows)
    return 0


def _cmd_cg_equiv(args) -> int:
    rows = run_cg_equivalence(_experiment_config(args))
    for row in rows:
        print(f"{row['variant']} n={row['n']} mean_iters={row['mean_iters']:.1f} "
              f"cg_max_err={row['cg_max_err']:.3e} "
              f"direct_max_err={row['direct_max_err']:.3e}")
    _maybe_write(args, rows)
    return 0


def _cmd_nufft(args) -> int:
    cfg = NufftConfig(n=args.n, samples=args.samples, components=args.components,
                      f_max=args.f_max, reg_scale=args.reg_scale, seed=args.seed,
                      n_lim=args.nlim, pivot_threshold=args.pivot_threshold,
                      compute_condition=args.condition)
    report = run_nufft(cfg)
    keys = ["n", "samples", "reg_scale", "seed", "wall_direct", "wall_cg",
            "cg_iterations", "rel_err_direct", "rel_err_cg",
            "rel_residual_direct", "rel_residual_cg"]
    if "condition" in report:
        keys.append("condition")
    for key in keys:
        value = report[key]
        text = f"{value:.6e}" if isinstance(value, float) else str(value)
        print(f"{key}={text}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report, fh)
            fh.write("\n")
    return 0


def _add_solver_flags(sub):
    sub.add_argument("--nlim", type=int, default=256,
                     help="serial base-case size for the recursion")
    sub.add_argument("--pivot-threshold", type=float, default=1e-8)


def _add_experiment_flags(sub):
    sub.add_argument("--variant", choices=VARIANTS + ("all",), default="all")
    sub.add_argument("--sizes", type=_parse_sizes, default=(256, 512, 1024))
    sub.add_argument("--trials", type=int, default=3)
    sub.add_argument("--seed", type=int, default=2024)
    sub.add_argument("--out", help="write result rows to this path")
    sub.add_argument("--format", choices=("csv", "json"), default="csv")
    _add_solver_flags(sub)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="toepreg",
        description="Fast regularized Toeplitz least-squares solver")
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="solve a single instance")
    solve.add_argument("--variant", choices=VARIANTS, required=True)
    solve.add_argument("--input", help="JSON file with the data matrix "
                                       "(or the Gramian for the gramian variant)")
    solve.add_argument("--reg", help="JSON file with the regularizer matrix")
    solve.add_argument("--b", help="JSON file with the data-side right-hand side")
    solve.add_argument("--rhs", help="JSON file with the normal-equation "
                                     "right-hand side (gramian variant)")
    solve.add_argument("--beta", type=float, help="ridge weight")
    solve.add_argument("--beta-sq", type=_parse_beta_sq, dest="beta_sq",
                       help="squared ridge weight, or auto for sqrt(n)")
    solve.add_argument("--n", type=int, help="size for a random instance")
    solve.add_argument("--m", type=int, help="data rows (default n)")
    solve.add_argument("--p", type=int, help="regularizer rows (default n)")
    solve.add_argument("--seed", type=int, default=0)
    solve.add_argument("--out", help="write the solution vector to this path")
    _add_solver_flags(solve)
    solve.set_defaults(func=_cmd_solve)

    complexity = subs.add_parser("complexity", help="timing sweep and model fit")
    _add_experiment_flags(complexity)
    complexity.set_defaults(func=_cmd_complexity)

    accuracy = subs.add_parser("accuracy", help="planted-solution error sweep")
    _add_experiment_flags(accuracy)
    accuracy.set_defaults(func=_cmd_accuracy)

    cg = subs.add_parser("cg-equiv", help="time-matched conjugate gradients")
    _add_experiment_flags(cg)
    cg.set_defaults(func=_cmd_cg_equiv)

    nufft = subs.add_parser("nufft", help="nonuniform sampling reconstruction")
    nufft.add_argument("--n", type=int, default=1024)
    nufft.add_argument("--samples", type=int, default=1024)
    nufft.add_argument("--components", type=int, default=3)
    nufft.add_argument("--f-max", type=float, default=0.02, dest="f_max")
    nufft.add_argument("--reg-scale", type=float, default=1e-4, dest="reg_scale")
    nufft.add_argument("--seed", type=int, default=0)
    nufft.add_argument("--condition", action="store_true",
                       help="also report the dense condition number")
    nufft.add_argument("--out", help="write the full JSON report to this path")
    _add_solver_flags(nufft)
    nufft.set_defaults(func=_cmd_nufft)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SingularSystemError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except np.linalg.LinAlgError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def app():
    sys.exit(main())


if __name__ == "__main__":
    app()
