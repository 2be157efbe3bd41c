"""Trigonometric reconstruction from nonuniformly sampled data.

A length-n trigonometric polynomial is sampled at scattered frequencies,
the samples are area-weighted, and the coefficients are recovered from the
weighted normal equations.  The sample Gramian is Hermitian Toeplitz, so
this is exactly the gramian solver variant with a smoothness regularizer;
the point of the driver is to compare the direct solver against conjugate
gradients on an ill-conditioned but structured real-world shape.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from .solver import (
    CGConfig,
    NormalOperator,
    SolverConfig,
    cg_solve,
    dense_normal_matrix,
    solve_tikhonov,
)
from .toeplitz import HermitianToeplitzSpec, ProblemSpec, ToeplitzSpec

__all__ = [
    "NufftConfig",
    "voronoi_weights",
    "weighted_fourier_gramian",
    "second_difference_regularizer",
    "make_signal",
    "sample_matrix",
    "run_nufft",
]


@dataclass(frozen=True)
class NufftConfig:
    n: int = 1024
    samples: int = 1024
    components: int = 3
    f_max: float = 0.02
    reg_scale: float = 1e-4
    seed: int = 0
    n_lim: int = 256
    pivot_threshold: float = 1e-8
    compute_condition: bool = False


def voronoi_weights(freqs: np.ndarray) -> np.ndarray:
    """Half-gap quadrature weights on the unit frequency circle; sums to 1."""
    freqs = np.asarray(freqs, dtype=np.float64)
    k = freqs.size
    order = np.argsort(freqs)
    sorted_f = freqs[order]
    gaps = np.empty(k)
    gaps[:-1] = np.diff(sorted_f)
    gaps[-1] = 1.0 - (sorted_f[-1] - sorted_f[0])
    w_sorted = 0.5 * (gaps + np.roll(gaps, 1))
    weights = np.empty(k)
    weights[order] = w_sorted
    return weights


def sample_matrix(freqs: np.ndarray, n: int) -> np.ndarray:
    """Dense evaluation matrix, entry (k, s) = exp(-2 pi i f_k s)."""
    return np.exp(-2j * np.pi * np.outer(freqs, np.arange(n)))


def weighted_fourier_gramian(freqs, weights, n: int) -> HermitianToeplitzSpec:
    """First column of A^H W A without forming A; depends only on lags."""
    freqs = np.asarray(freqs, dtype=np.float64)
    weights = np.asarray(weights, dtype=np.float64)
    lags = np.arange(n)
    col = np.einsum("k,kd->d", weights + 0j,
                    np.exp(2j * np.pi * np.outer(freqs, lags)))
    return HermitianToeplitzSpec(n, col)


def second_difference_regularizer(n: int, scale: float) -> ToeplitzSpec:
    """Tridiagonal smoothness penalty: 2*scale on the diagonal, -scale off."""
    gen = np.zeros(2 * n - 1, dtype=np.complex128)
    gen[n - 1] = 2.0 * scale
    if n > 1:
        gen[n - 2] = -scale
        gen[n] = -scale
    return ToeplitzSpec(n, n, gen)


def make_signal(n: int, components: int, f_max: float,
                rng: np.random.Generator) -> np.ndarray:
    """Sum of a few low-frequency real cosines with random phases."""
    s = np.arange(n)
    x = np.zeros(n, dtype=np.complex128)
    for _ in range(components):
        freq = rng.uniform(0.0, f_max)
        amp = rng.uniform(0.5, 1.5)
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += amp * np.cos(2.0 * np.pi * freq * s + phase)
    return x


def run_nufft(config: NufftConfig = None) -> dict:
    """One full reconstruction; see the module docstring for the setup."""
    cfg = config or NufftConfig()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 93)))
    freqs = rng.triangular(-0.5, 0.0, 0.5, size=cfg.samples)
    weights = voronoi_weights(freqs)
    x_true = make_signal(cfg.n, cfg.components, cfg.f_max, rng)

    # Samples and the weighted rhs are formed densely, independent of the
    # Toeplitz machinery under test.
    a = sample_matrix(freqs, cfg.n)
    samples = a @ x_true
    rhs = a.conj().T @ (weights * samples)

    gram = weighted_fourier_gramian(freqs, weights, cfg.n)
    reg = second_difference_regularizer(cfg.n, cfg.reg_scale)
    problem = ProblemSpec.gramian(gram, reg, rhs)

    solver_cfg = SolverConfig(n_lim=cfg.n_lim, pivot_threshold=cfg.pivot_threshold)
    report = solve_tikhonov(problem, solver_cfg)

    op = NormalOperator(problem)
    t0 = time.perf_counter()
    x_cg, cg_iters = cg_solve(problem, CGConfig(
        tolerance=0.0, time_budget=report.wall_time), operator=op)
    cg_wall = time.perf_counter() - t0

    scale = float(np.linalg.norm(x_true))
    rhs_norm = float(np.linalg.norm(rhs))
    out = {
        "n": cfg.n,
        "samples": cfg.samples,
        "reg_scale": cfg.reg_scale,
        "seed": cfg.seed,
        "weights_sum": float(weights.sum()),
        "wall_direct": report.wall_time,
        "wall_cg": cg_wall,
        "cg_iterations": cg_iters,
        "rel_err_direct": float(np.linalg.norm(report.x_hat - x_true)) / scale,
        "rel_err_cg": float(np.linalg.norm(x_cg - x_true)) / scale,
        "rel_residual_direct": float(
            np.linalg.norm(op.apply(report.x_hat) - rhs)) / rhs_norm,
        "rel_residual_cg": float(
            np.linalg.norm(op.apply(x_cg) - rhs)) / rhs_norm,
        "difficult_points": report.diagnostics.difficult_points,
        "x_direct_re": report.x_hat.real.tolist(),
        "x_direct_im": report.x_hat.imag.tolist(),
        "x_cg_re": x_cg.real.tolist(),
        "x_cg_im": x_cg.imag.tolist(),
    }
    if cfg.compute_condition:
        eig = np.linalg.eigvalsh(dense_normal_matrix(problem))
        out["condition"] = float(eig[-1] / eig[0])
    return out
