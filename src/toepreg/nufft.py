"""Trigonometric reconstruction from nonuniformly sampled data.

A length-n trigonometric polynomial is sampled at scattered frequencies,
the samples are area-weighted, and the coefficients are recovered from the
weighted normal equations.  The sample Gramian is Hermitian Toeplitz, so
this is exactly the gramian solver variant with a smoothness regularizer;
the point of the driver is to compare the direct solver against conjugate
gradients on an ill-conditioned but structured real-world shape.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .solver import (
    CGConfig,
    NormalOperator,
    cg_solve,
    dense_normal_matrix,
    relative_residual,
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
    "nufft_problem",
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
    compute_condition: bool = False

    def __post_init__(self):
        for name in ("n", "samples", "components"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if not math.isfinite(self.f_max) or self.f_max < 0:
            raise ValueError(f"f_max must be finite and nonnegative, got {self.f_max}")


def voronoi_weights(freqs: np.ndarray) -> np.ndarray:
    """Half-gap quadrature weights on the unit frequency circle; sums to 1."""
    freqs = np.asarray(freqs, dtype=np.float64)
    k = freqs.size
    if k == 0:
        raise ValueError("voronoi_weights needs at least one frequency")
    order = np.argsort(freqs)
    sorted_f = freqs[order]
    gaps = np.empty(k)
    gaps[:-1] = np.diff(sorted_f)
    gaps[-1] = 1.0 - (sorted_f[-1] - sorted_f[0])
    w_sorted = 0.5 * (gaps + np.roll(gaps, 1))
    weights = np.empty(k)
    weights[order] = w_sorted
    return weights


def _phase_factors(freqs, n: int, sign: int):
    """Split phases of exp(sign 2 pi i f_k s) for s < n, written s = q B + r.

    B = ceil(sqrt(n)) and Q = ceil(n / B).  Returns lo (K, B) with
    lo[k, r] = exp(sign 2 pi i f_k r) and hi (K, Q) with
    hi[k, q] = exp(sign 2 pi i f_k q B), so the K x n table is
    hi[k, q] * lo[k, r] from K (B + Q) <= 2 K ceil(sqrt(n)) exponentials.
    """
    freqs = np.asarray(freqs, dtype=np.float64)
    b = math.isqrt(max(n - 1, 0)) + 1
    q = -(-n // b)
    coef = sign * 2j * np.pi
    lo = np.exp(coef * np.outer(freqs, np.arange(b)))
    hi = np.exp(coef * np.outer(freqs, b * np.arange(q)))
    return lo, hi


def sample_matrix(freqs: np.ndarray, n: int) -> np.ndarray:
    """Dense evaluation matrix, entry (k, s) = exp(-2 pi i f_k s)."""
    lo, hi = _phase_factors(freqs, n, -1)
    full = (hi[:, :, None] * lo[:, None, :]).reshape(lo.shape[0], -1)
    return np.ascontiguousarray(full[:, :n])


def weighted_fourier_gramian(freqs, weights, n: int) -> HermitianToeplitzSpec:
    """First column of A^H W A, entry d = sum_k w_k exp(2 pi i f_k d).

    It depends only on the lag d.  With d = q B + r it is the (q, r) entry
    of the (Q x K) @ (K x B) product of the split phase factors, so neither
    A nor any K x n table of exponentials is formed.
    """
    weights = np.asarray(weights, dtype=np.float64)
    lo, hi = _phase_factors(freqs, n, 1)
    col = ((weights[:, None] * hi).T @ lo).reshape(-1)[:n]
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


def nufft_problem(config: NufftConfig, rng: np.random.Generator):
    """The reconstruction instance drawn from ``rng``: (problem, x_true,
    weights_sum), the gramian ``ProblemSpec``, the planted coefficients and
    the sum of the quadrature weights."""
    freqs = rng.triangular(-0.5, 0.0, 0.5, size=config.samples)
    weights = voronoi_weights(freqs)
    x_true = make_signal(config.n, config.components, config.f_max, rng)

    # Samples and the weighted rhs are formed densely, independent of the
    # Toeplitz machinery under test.
    a = sample_matrix(freqs, config.n)
    rhs = a.conj().T @ (weights * (a @ x_true))

    gram = weighted_fourier_gramian(freqs, weights, config.n)
    reg = second_difference_regularizer(config.n, config.reg_scale)
    return ProblemSpec.gramian(gram, reg, rhs), x_true, float(weights.sum())


def run_nufft(config: NufftConfig = None) -> dict:
    """One full reconstruction; see the module docstring for the setup."""
    cfg = config or NufftConfig()
    rng = np.random.default_rng(np.random.SeedSequence((cfg.seed, 93)))
    problem, x_true, weights_sum = nufft_problem(cfg, rng)
    report = solve_tikhonov(problem)

    op = NormalOperator(problem)
    t0 = time.perf_counter()
    x_cg, cg_iters = cg_solve(problem, CGConfig(
        tolerance=0.0, time_budget=report.wall_time), operator=op)
    cg_wall = time.perf_counter() - t0

    scale = float(np.linalg.norm(x_true))
    out = {
        "n": cfg.n,
        "samples": cfg.samples,
        "reg_scale": cfg.reg_scale,
        "seed": cfg.seed,
        "weights_sum": weights_sum,
        "wall_direct": report.wall_time,
        "wall_cg": cg_wall,
        "cg_iterations": cg_iters,
        "rel_err_direct": float(np.linalg.norm(report.x_hat - x_true)) / scale,
        "rel_err_cg": float(np.linalg.norm(x_cg - x_true)) / scale,
        "rel_residual_direct": report.relative_residual,
        "rel_residual_cg": relative_residual(problem, x_cg),
        "difficult_points": report.diagnostics.difficult_points,
        "x_direct_re": report.x_hat.real.tolist(),
        "x_direct_im": report.x_hat.imag.tolist(),
        "x_cg_re": x_cg.real.tolist(),
        "x_cg_im": x_cg.imag.tolist(),
    }
    if cfg.compute_condition:
        # The normal matrix is positive semidefinite; a smallest eigenvalue
        # that rounds to zero or below means it is numerically singular.
        eig = np.linalg.eigvalsh(dense_normal_matrix(problem))
        out["condition"] = float(eig[-1] / eig[0]) if eig[0] > 0 else math.inf
    return out
