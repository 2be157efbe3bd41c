"""Randomized benchmark and verification drivers behind the command line.

All randomness is drawn through named SeedSequence streams, so a given
(seed, driver, variant, size, trial) tuple always produces the same problem
regardless of execution order.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass

import numpy as np

from .solver import (
    CGConfig,
    NormalOperator,
    SolverConfig,
    apply_normal_operator,
    cg_solve,
    dense_oracle,
    solve_tikhonov,
)
from .toeplitz import HermitianToeplitzSpec, ProblemSpec, ToeplitzSpec

__all__ = [
    "VARIANTS",
    "ExperimentConfig",
    "ComplexityFit",
    "free_parameters",
    "complex_normal",
    "random_problem",
    "fit_complexity",
    "run_complexity",
    "run_accuracy",
    "run_cg_equivalence",
    "write_rows",
]

VARIANTS = ("general", "l2", "gramian")
_VARIANT_CODE = {v: i for i, v in enumerate(VARIANTS)}
_DRIVER_CODE = {"complexity": 0, "accuracy": 1, "cg": 2}


@dataclass(frozen=True)
class ExperimentConfig:
    variants: tuple = VARIANTS
    sizes: tuple = (256, 512, 1024)
    trials: int = 3
    seed: int = 2024
    n_lim: int = 256
    pivot_threshold: float = 1e-8

    def solver_config(self) -> SolverConfig:
        return SolverConfig(n_lim=self.n_lim, pivot_threshold=self.pivot_threshold)


@dataclass(frozen=True)
class ComplexityFit:
    c1: float
    c2: float
    r_squared: float


def free_parameters(variant: str, n: int) -> int:
    """Independent real problem degrees of freedom at square size n,
    counting each complex generator entry once."""
    if variant == "general":
        return 4 * n - 2
    if variant == "l2":
        return 2 * n - 1
    if variant == "gramian":
        return 3 * n - 2
    raise ValueError(f"unknown variant {variant!r}")


def complex_normal(rng: np.random.Generator, size) -> np.ndarray:
    """Standard circular complex Gaussian, unit variance per entry."""
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2.0)


def _trial_rng(seed: int, driver: str, variant: str, n: int, trial: int):
    entropy = (seed, _DRIVER_CODE[driver], _VARIANT_CODE[variant], n, trial)
    return np.random.default_rng(np.random.SeedSequence(entropy))


def random_problem(variant: str, n: int, rng: np.random.Generator,
                   m: int = None, p: int = None, beta: complex = None) -> ProblemSpec:
    """Random instance with n unknowns, m data rows and p regularizer rows
    (both n when not given; the gramian variant has no data rows).  The
    ridge weight defaults to n^(1/4) and the Gramian diagonal is 10 sqrt(n),
    which keeps conditioning mild across sizes."""
    m = n if m is None else m
    p = n if p is None else p
    if variant == "general":
        t = ToeplitzSpec(m, n, complex_normal(rng, m + n - 1))
        reg = ToeplitzSpec(p, n, complex_normal(rng, p + n - 1))
        return ProblemSpec.general(t, reg, complex_normal(rng, m))
    if variant == "l2":
        t = ToeplitzSpec(m, n, complex_normal(rng, m + n - 1))
        beta = n ** 0.25 if beta is None else beta
        return ProblemSpec.l2(t, beta, complex_normal(rng, m))
    if variant == "gramian":
        col = np.empty(n, dtype=np.complex128)
        col[0] = 10.0 * np.sqrt(n)
        col[1:] = complex_normal(rng, n - 1)
        g = HermitianToeplitzSpec(n, col)
        reg = ToeplitzSpec(p, n, complex_normal(rng, p + n - 1))
        return ProblemSpec.gramian(g, reg, complex_normal(rng, n))
    raise ValueError(f"unknown variant {variant!r}")


def fit_complexity(sizes, times) -> ComplexityFit:
    """Least-squares fit of t(n) = c1 n ln^2 n + c2 n ln n."""
    sizes = np.asarray(sizes, dtype=np.float64)
    times = np.asarray(times, dtype=np.float64)
    logs = np.log(sizes)
    basis = np.column_stack([sizes * logs ** 2, sizes * logs])
    coef, *_ = np.linalg.lstsq(basis, times, rcond=None)
    fitted = basis @ coef
    ss_res = float(((times - fitted) ** 2).sum())
    ss_tot = float(((times - times.mean()) ** 2).sum())
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return ComplexityFit(float(coef[0]), float(coef[1]), min(max(r2, 0.0), 1.0))


def run_complexity(config: ExperimentConfig):
    """Timed solves over a size sweep.  Returns (rows, fits by variant)."""
    solver_cfg = config.solver_config()
    rows = []
    fits = {}
    for variant in config.variants:
        means = []
        for n in config.sizes:
            times = []
            for trial in range(config.trials):
                rng = _trial_rng(config.seed, "complexity", variant, n, trial)
                problem = random_problem(variant, n, rng)
                if trial == 0:
                    solve_tikhonov(problem, solver_cfg)  # warm caches
                times.append(solve_tikhonov(problem, solver_cfg).wall_time)
            mean = float(np.mean(times))
            means.append(mean)
            rows.append({
                "variant": variant,
                "n": n,
                "params": free_parameters(variant, n),
                "mean_s": mean,
                "median_s": float(np.median(times)),
            })
        fits[variant] = fit_complexity(config.sizes, means)
    return rows, fits


def run_accuracy(config: ExperimentConfig):
    """Plant a known solution, push it through the normal operator, solve,
    and report the worst componentwise error per (variant, size)."""
    solver_cfg = config.solver_config()
    rows = []
    for variant in config.variants:
        for n in config.sizes:
            worst = 0.0
            for trial in range(config.trials):
                rng = _trial_rng(config.seed, "accuracy", variant, n, trial)
                problem = random_problem(variant, n, rng)
                x_true = complex_normal(rng, n)
                y = apply_normal_operator(problem, x_true)
                planted = ProblemSpec(variant=variant, T=problem.T, L=problem.L,
                                      G=problem.G, beta=problem.beta, b=None,
                                      normal_rhs=y)
                report = solve_tikhonov(planted, solver_cfg)
                worst = max(worst, float(np.abs(report.x_hat - x_true).max()))
            rows.append({"variant": variant, "n": n, "max_err": worst})
    return rows


def run_cg_equivalence(config: ExperimentConfig):
    """Give conjugate gradients exactly the direct solver's wall time and
    compare both against the dense reference."""
    solver_cfg = config.solver_config()
    rows = []
    for variant in config.variants:
        for n in config.sizes:
            iters = []
            cg_worst = 0.0
            direct_worst = 0.0
            for trial in range(config.trials):
                rng = _trial_rng(config.seed, "cg", variant, n, trial)
                problem = random_problem(variant, n, rng)
                report = solve_tikhonov(problem, solver_cfg)
                op = NormalOperator(problem)
                x_cg, it = cg_solve(problem, CGConfig(
                    tolerance=0.0, time_budget=report.wall_time), operator=op)
                truth = dense_oracle(problem)
                iters.append(it)
                cg_worst = max(cg_worst, float(np.abs(x_cg - truth).max()))
                direct_worst = max(direct_worst,
                                   float(np.abs(report.x_hat - truth).max()))
            rows.append({
                "variant": variant,
                "n": n,
                "mean_iters": float(np.mean(iters)),
                "cg_max_err": cg_worst,
                "direct_max_err": direct_worst,
            })
    return rows


def _format_cell(value):
    if isinstance(value, float):
        return f"{value:.17g}"
    return str(value)


def write_rows(rows, path, fmt: str = "csv"):
    """Dump result rows to CSV (floats at full precision) or JSON."""
    if not rows:
        raise ValueError("nothing to write")
    if fmt == "csv":
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            header = list(rows[0].keys())
            writer.writerow(header)
            for row in rows:
                writer.writerow([_format_cell(row[key]) for key in header])
    elif fmt == "json":
        with open(path, "w") as fh:
            json.dump(rows, fh, indent=2)
            fh.write("\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
