"""End-to-end solvers for the regularized normal equations.

solve_tikhonov is the fast path: circulant extension, tangential
interpolation, solution extraction.  dense_oracle is the O(n^3) reference
that materializes everything.  cg_solve is conjugate gradients on the same
normal operator, used for time-equivalence comparisons.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .extension import assemble
from .fftpoly import MatrixPoly, next_fast_len
from .tanint import TanIntDiagnostics, TauState, extract_solution, rec_tan_int
from .toeplitz import (
    ProblemSpec,
    adjoint_spec,
    embedded_first_column,
    materialize,
)

__all__ = [
    "SolverConfig",
    "SolveReport",
    "solve_tikhonov",
    "dense_normal_matrix",
    "dense_oracle",
    "NormalOperator",
    "apply_normal_operator",
    "CGConfig",
    "cg_solve",
]


@dataclass(frozen=True)
class SolverConfig:
    n_lim: int = 256
    pivot_threshold: float = 1e-8


@dataclass
class SolveReport:
    x_hat: np.ndarray
    variant: str
    wall_time: float
    relative_residual: float
    diagnostics: TanIntDiagnostics
    final_col_degrees: np.ndarray
    # The interpolation basis x_hat was read from, for independent checks.
    basis: MatrixPoly


def solve_tikhonov(problem: ProblemSpec, config: SolverConfig = None) -> SolveReport:
    """Solve one instance; wall_time covers the solve itself, not the
    residual verification that follows it."""
    cfg = config or SolverConfig()
    start = time.perf_counter()
    system = assemble(problem, n_lim=cfg.n_lim)
    state = TauState.from_tau(system.tau)
    diag = TanIntDiagnostics()
    basis, _ = rec_tan_int(system, state, n_lim=cfg.n_lim,
                           pivot_threshold=cfg.pivot_threshold, diagnostics=diag)
    x = extract_solution(basis, state, problem.n)
    wall = time.perf_counter() - start
    rhs = problem.normal_rhs_vector()
    denom = float(np.linalg.norm(rhs))
    rel = float(np.linalg.norm(apply_normal_operator(problem, x) - rhs))
    rel /= denom if denom > 0.0 else 1.0
    return SolveReport(x_hat=x, variant=problem.variant, wall_time=wall,
                       relative_residual=rel, diagnostics=diag,
                       final_col_degrees=state.col_degrees.copy(), basis=basis)


def dense_normal_matrix(problem: ProblemSpec) -> np.ndarray:
    """The regularized normal matrix assembled from materialized blocks."""
    if problem.variant == "general":
        td = materialize(problem.T)
        ld = materialize(problem.L)
        return td.conj().T @ td + ld.conj().T @ ld
    if problem.variant == "l2":
        td = materialize(problem.T)
        return td.conj().T @ td + problem.beta_sq * np.eye(problem.n)
    if problem.variant == "gramian":
        ld = materialize(problem.L)
        return materialize(problem.G.as_toeplitz()) + ld.conj().T @ ld
    raise ValueError(f"unknown variant {problem.variant!r}")


def dense_oracle(problem: ProblemSpec, max_n: int = 2048) -> np.ndarray:
    """Materialized reference solution, independent of every fast path."""
    if problem.n > max_n:
        raise ValueError(f"oracle limited to n <= {max_n}")
    a = dense_normal_matrix(problem)
    if problem.variant == "gramian":
        rhs = problem.normal_rhs_vector()
    else:
        rhs = materialize(problem.T).conj().T @ problem.b
    return np.linalg.solve(a, rhs)


class NormalOperator:
    """Matrix-free x -> (T^H T + L^H L) x and friends, FFT throughout.

    All blocks share one 7-smooth circulant order, so generator spectra are
    cached once and each apply costs 7 transforms for the general variant,
    4 for the ridge variant, 5 for the Gramian one.  ``transforms`` counts
    forward plus inverse FFT calls, for instrumentation.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.transforms = 0
        n = problem.n
        variant = problem.variant
        if variant == "general":
            need = max(problem.m + n, problem.reg_rows + n) - 1
        elif variant == "l2":
            need = problem.m + n - 1
        else:
            need = max(2 * n, problem.reg_rows + n) - 1
        self.q = next_fast_len(need)
        self._spectra = {}
        if variant in ("general", "l2"):
            self._cache("T", problem.T)
            self._cache("Th", adjoint_spec(problem.T))
        if variant in ("general", "gramian"):
            self._cache("L", problem.L)
            self._cache("Lh", adjoint_spec(problem.L))
        if variant == "gramian":
            self._cache("G", problem.G.as_toeplitz())

    def _cache(self, key, spec):
        self._spectra[key] = np.fft.fft(embedded_first_column(spec, self.q))

    def _fft(self, v):
        self.transforms += 1
        return np.fft.fft(v, self.q)

    def _ifft(self, v):
        self.transforms += 1
        return np.fft.ifft(v)

    def _gram_term(self, fx, fwd, adj, rows, cols):
        """adjoint(B) @ (B @ x) from the transform of x; B is rows x cols."""
        mid = self._ifft(self._spectra[fwd] * fx)
        mid[rows:] = 0.0
        return self._ifft(self._spectra[adj] * self._fft(mid))[:cols]

    @property
    def n(self) -> int:
        return self.problem.n

    def apply(self, x: np.ndarray) -> np.ndarray:
        p = self.problem
        n = p.n
        x = np.asarray(x, dtype=np.complex128)
        fx = self._fft(x)
        if p.variant == "general":
            return (self._gram_term(fx, "T", "Th", p.m, n)
                    + self._gram_term(fx, "L", "Lh", p.reg_rows, n))
        if p.variant == "l2":
            return self._gram_term(fx, "T", "Th", p.m, n) + p.beta_sq * x
        gx = self._ifft(self._spectra["G"] * fx)[:n]
        return gx + self._gram_term(fx, "L", "Lh", p.reg_rows, n)


def apply_normal_operator(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    return NormalOperator(problem).apply(x)


@dataclass(frozen=True)
class CGConfig:
    max_iterations: Optional[int] = None
    tolerance: float = 1e-12
    time_budget: Optional[float] = None


def cg_solve(problem: ProblemSpec, config: CGConfig = None,
             operator: NormalOperator = None):
    """Plain conjugate gradients from a zero start.  Returns (x, iterations).

    The time budget is checked only after a completed iteration, so at least
    one iteration always runs.
    """
    cfg = config or CGConfig()
    op = operator if operator is not None else NormalOperator(problem)
    rhs = problem.normal_rhs_vector()
    n = rhs.size
    x = np.zeros(n, dtype=np.complex128)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return x, 0
    limit = cfg.max_iterations if cfg.max_iterations is not None else max(10 * n, 100)
    r = rhs.copy()
    d = r.copy()
    rho = float(np.vdot(r, r).real)
    start = time.perf_counter()
    iterations = 0
    for _ in range(limit):
        ad = op.apply(d)
        alpha = rho / float(np.vdot(d, ad).real)
        x += alpha * d
        r -= alpha * ad
        rho_next = float(np.vdot(r, r).real)
        iterations += 1
        if np.sqrt(rho_next) <= cfg.tolerance * rhs_norm:
            break
        if cfg.time_budget is not None and time.perf_counter() - start >= cfg.time_budget:
            break
        d = r + (rho_next / rho) * d
        rho = rho_next
    return x, iterations
