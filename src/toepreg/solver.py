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
from .tanint import TanIntDiagnostics, extract_solution, rec_tan_int
from .toeplitz import (
    ProblemSpec,
    adjoint_spec,
    embedded_first_column,
    materialize,
)

__all__ = [
    "SolveReport",
    "solve_tikhonov",
    "relative_residual",
    "dense_normal_matrix",
    "dense_oracle",
    "NormalOperator",
    "apply_normal_operator",
    "CGConfig",
    "cg_solve",
]


# Largest n the dense oracle materializes.
_ORACLE_MAX_N = 2048


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


def solve_tikhonov(problem: ProblemSpec) -> SolveReport:
    """Solve one instance; wall_time covers the solve itself, not the
    residual verification that follows it."""
    start = time.perf_counter()
    system = assemble(problem)
    diag = TanIntDiagnostics()
    basis, col_degrees, _ = rec_tan_int(system, diagnostics=diag)
    x = extract_solution(basis, col_degrees, problem.n)
    wall = time.perf_counter() - start
    return SolveReport(x_hat=x, variant=problem.variant, wall_time=wall,
                       relative_residual=relative_residual(problem, x),
                       diagnostics=diag, final_col_degrees=col_degrees,
                       basis=basis)


def relative_residual(problem: ProblemSpec, x: np.ndarray) -> float:
    """||A x - rhs|| / ||rhs|| for the normal matrix A and right-hand side
    of ``problem``, or ||A x|| when rhs = 0."""
    rhs = problem.normal_rhs_vector()
    denom = float(np.linalg.norm(rhs))
    rel = float(np.linalg.norm(apply_normal_operator(problem, x) - rhs))
    return rel / (denom if denom > 0.0 else 1.0)


def dense_normal_matrix(problem: ProblemSpec) -> np.ndarray:
    """The regularized normal matrix assembled from materialized blocks."""
    if problem.variant == "l2":
        out = problem.beta_sq * np.eye(problem.n)
    elif problem.variant == "gramian":
        out = materialize(problem.G.as_toeplitz())
    else:
        out = None
    for block in problem.factors:
        dense = materialize(block)
        term = dense.conj().T @ dense
        out = term if out is None else out + term
    return out


def dense_oracle(problem: ProblemSpec) -> np.ndarray:
    """Materialized reference solution, independent of every fast path."""
    if problem.n > _ORACLE_MAX_N:
        raise ValueError(f"oracle limited to n <= {_ORACLE_MAX_N}")
    a = dense_normal_matrix(problem)
    if problem.normal_rhs is None:
        rhs = materialize(problem.T).conj().T @ problem.b
    else:
        rhs = problem.normal_rhs_vector()
    return np.linalg.solve(a, rhs)


class NormalOperator:
    """Matrix-free x -> (D + sum_B B^H B) x over the problem's ``factors`` B
    and its diagonal term D (ridge, Gramian or none), FFT throughout.

    All blocks share one 7-smooth circulant order, so a (B, B^H) spectrum
    pair per factor is cached once.  Each apply costs one forward transform
    of x, three per factor and one more for a Gramian: 7 transforms for the
    general variant, 4 for the ridge variant, 5 for the Gramian one.
    ``transforms`` counts forward plus inverse FFT calls, for
    instrumentation.
    """

    def __init__(self, problem: ProblemSpec):
        self.problem = problem
        self.transforms = 0
        self.q = next_fast_len(problem.n_tilde - 1)
        self._pairs = [(self._spectrum(block), self._spectrum(adjoint_spec(block)),
                        block.rows) for block in problem.factors]
        if problem.variant == "gramian":
            self._gramian = self._spectrum(problem.G.as_toeplitz())

    def _spectrum(self, spec):
        return np.fft.fft(embedded_first_column(spec, self.q))

    def _fft(self, v):
        self.transforms += 1
        return np.fft.fft(v, self.q)

    def _ifft(self, v):
        self.transforms += 1
        return np.fft.ifft(v)

    def apply(self, x: np.ndarray) -> np.ndarray:
        p = self.problem
        n = p.n
        x = np.asarray(x, dtype=np.complex128)
        fx = self._fft(x)
        if p.variant == "l2":
            out = p.beta_sq * x
        elif p.variant == "gramian":
            out = self._ifft(self._gramian * fx)[:n]
        else:
            out = None
        for fwd, adj, rows in self._pairs:
            # adjoint(B) @ (B @ x) from the transform of x; B has n columns
            mid = self._ifft(fwd * fx)
            mid[rows:] = 0.0
            term = self._ifft(adj * self._fft(mid))[:n]
            out = term if out is None else out + term
        return out


def apply_normal_operator(problem: ProblemSpec, x: np.ndarray) -> np.ndarray:
    return NormalOperator(problem).apply(x)


@dataclass(frozen=True)
class CGConfig:
    tolerance: float = 1e-12
    time_budget: Optional[float] = None


def cg_solve(problem: ProblemSpec, config: CGConfig = None,
             operator: NormalOperator = None):
    """Plain conjugate gradients from a zero start.  Returns (x, iterations).

    At most max(10 n, 100) iterations run.  The time budget is checked only
    after a completed iteration, so at least one iteration always runs.
    """
    cfg = config or CGConfig()
    op = operator if operator is not None else NormalOperator(problem)
    rhs = problem.normal_rhs_vector()
    n = rhs.size
    x = np.zeros(n, dtype=np.complex128)
    rhs_norm = float(np.linalg.norm(rhs))
    if rhs_norm == 0.0:
        return x, 0
    r = rhs.copy()
    d = r.copy()
    rho = float(np.vdot(r, r).real)
    start = time.perf_counter()
    iterations = 0
    for _ in range(max(10 * n, 100)):
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
