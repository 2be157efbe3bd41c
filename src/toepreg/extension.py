"""Circulant extension of the regularized normal equations.

Each Toeplitz block of the augmented optimality system is embedded in a
circulant of a common 7-smooth-friendly order N.  Diagonalizing every
circulant by the root-of-unity basis turns the block system into N pointwise
vector conditions, one per node; unknown blocks become polynomial segments
with prescribed degree bounds.  The solver then needs only the node weights
produced here.

Row layouts (slot order is fixed; the last slot is the inhomogeneous one):

general   rows 0..2, slots (x, s1, s2, g1, g2, g3, const)
          s1 = T x, s2 = L x, g* free fill blocks
l2        rows 0..1, slots (x, s1, g1, g2, const)
gramian   rows 0..1, slots (x, s, g1, g2, const)
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fftpoly import grid_eval, unit_roots
from .toeplitz import ProblemSpec, ToeplitzSpec, adjoint_spec

__all__ = [
    "opt_extend",
    "opt_extend_detail",
    "extended_generating_sequence",
    "InterpolationCondition",
    "AssembledSystem",
    "assemble",
    "assemble_general",
    "assemble_l2",
    "assemble_gramian",
]


def opt_extend_detail(n_tilde: int, n_lim: int, rows: int = 3,
                      paired: bool = True, force_even: bool = True):
    """Choose the extension count k so that N = n_tilde + k splits evenly.

    N factors as 2**p * M with the leaf size M small enough that a leaf's
    condition count fits the serial budget: rows*M <= n_lim, or twice that
    bound when leaves come in interleaved pairs.  Returns (k, p, M).
    """
    if n_tilde < 1:
        raise ValueError("system size must be positive")
    if n_lim < rows:
        raise ValueError("serial budget must allow at least one node per row")
    factor = 2 * rows if paired else rows

    def small_enough(m: int) -> bool:
        return factor * m <= n_lim

    p, m = 0, n_tilde
    while not small_enough(m):
        if m <= (2 if force_even else 1):
            raise ValueError("serial budget too small to terminate the split")
        p += 1
        m = (m + 1) // 2
        if force_even and m % 2:
            m += 1
    k = (1 << p) * m - n_tilde
    return k, p, m


def opt_extend(n_tilde: int, n_lim: int, rows: int = 3,
               paired: bool = True, force_even: bool = True) -> int:
    return opt_extend_detail(n_tilde, n_lim, rows, paired, force_even)[0]


def _fill_for(policy: str, k: int) -> str:
    if policy == "auto":
        return "zero" if k <= 1 else "echo"
    if policy in ("zero", "echo"):
        return policy
    raise ValueError(f"unknown fill policy {policy!r}")


def extended_generating_sequence(spec: ToeplitzSpec, k: int,
                                 fill: str = "auto") -> np.ndarray:
    """Generator of the order rows+cols-1+k circulant containing the block.

    The genuine block keeps its bottom-right position; the k new outward
    diagonals are zero or echo the generator cyclically.  Any choice keeps
    the extended system's null space one-dimensional, but echo fill avoids
    the near-singular extensions a run of zeros can produce.  The solver
    uses the default ``auto`` policy: zero fill for k <= 1, echo beyond.
    """
    gen = spec.gen
    if k < 0:
        raise ValueError("extension count must be nonnegative")
    if k == 0:
        return gen.copy()
    mode = _fill_for(fill, k)
    if mode == "zero":
        head = np.zeros(k, dtype=np.complex128)
    else:
        head = gen[np.arange(k) % gen.size][::-1]
    return np.concatenate([head, gen])


def _aligned_spectrum(spec: ToeplitzSpec, order: int) -> np.ndarray:
    """Extended generator read as polynomial coefficients, on the node grid.

    These values carry each block's alignment phase, which is what the
    interpolation conditions consume; they are not the circulant's
    eigenvalues, which need the main diagonal rotated to the front first.
    """
    k = order - spec.gen.size
    if k < 0:
        raise ValueError("circulant order smaller than the block generator")
    return grid_eval(extended_generating_sequence(spec, k), order)


def _rhs_spectrum(rhs: np.ndarray, order: int) -> np.ndarray:
    """Node values of the bottom-aligned inhomogeneous block (negated rhs)."""
    c = np.zeros(order, dtype=np.complex128)
    c[order - rhs.size:] = -rhs
    return grid_eval(c, order)


@dataclass(frozen=True)
class InterpolationCondition:
    """One scalar condition: weights . q(node) = 0 for the stacked columns."""

    node: complex
    weights: np.ndarray
    row_tag: int
    index: int


class AssembledSystem:
    """All tangential interpolation data for one problem instance.

    weights has shape (rows, N, p); condition (row, k) requires the unknown
    vector polynomial q to satisfy weights[row, k] . q(nodes[k]) = 0.  Column
    degree bounds encode the block widths; slot 0 carries the solution and
    the last slot the constant.
    """

    solution_slot = 0

    def __init__(self, variant, n, order, degree_bounds, weights):
        self.variant = variant
        self.n = n
        self.order = order
        self.degree_bounds = np.asarray(degree_bounds, dtype=np.int64)
        self.tau = self.degree_bounds - 1
        self.weights = weights
        self.nodes = unit_roots(order)

    @property
    def rows(self) -> int:
        return self.weights.shape[0]

    @property
    def p(self) -> int:
        return self.weights.shape[2]

    @property
    def const_slot(self) -> int:
        return self.p - 1

    def condition(self, row: int, k: int) -> InterpolationCondition:
        return InterpolationCondition(self.nodes[k], self.weights[row, k].copy(), row, k)

    def condition_count(self) -> int:
        return self.rows * self.order


def _extended_order(n_tilde: int, rows: int, n_lim: int) -> int:
    return n_tilde + opt_extend(n_tilde, n_lim, rows=rows)


def assemble_general(problem: ProblemSpec, n_lim: int = 256) -> AssembledSystem:
    T, L = problem.T, problem.L
    n, m, pl = problem.n, problem.m, problem.reg_rows
    order = _extended_order(max(m, pl) + n, 3, n_lim)
    nodes = unit_roots(order)
    w = np.zeros((3, order, 7), dtype=np.complex128)
    # normal equation: T^H s1 + L^H s2 + fill = T^H b
    w[0, :, 1] = _aligned_spectrum(adjoint_spec(T), order)
    w[0, :, 2] = _aligned_spectrum(adjoint_spec(L), order)
    w[0, :, 3] = 1.0
    w[0, :, 6] = _rhs_spectrum(problem.normal_rhs_vector(), order)
    # coupling s1 = T x
    w[1, :, 0] = -_aligned_spectrum(T, order)
    w[1, :, 1] = nodes ** (order - m)
    w[1, :, 4] = 1.0
    # coupling s2 = L x
    w[2, :, 0] = -_aligned_spectrum(L, order)
    w[2, :, 2] = nodes ** (order - pl)
    w[2, :, 5] = 1.0
    bounds = [n, m, pl, order - n, order - m, order - pl, 1]
    return AssembledSystem("general", n, order, bounds, w)


def assemble_l2(problem: ProblemSpec, n_lim: int = 256) -> AssembledSystem:
    T = problem.T
    n, m = problem.n, problem.m
    order = _extended_order(m + n, 2, n_lim)
    nodes = unit_roots(order)
    w = np.zeros((2, order, 5), dtype=np.complex128)
    # normal equation with the ridge term kept in factored form
    w[0, :, 0] = problem.beta_sq * nodes ** (order - n)
    w[0, :, 1] = _aligned_spectrum(adjoint_spec(T), order)
    w[0, :, 2] = 1.0
    w[0, :, 4] = _rhs_spectrum(problem.normal_rhs_vector(), order)
    # coupling s1 = T x
    w[1, :, 0] = -_aligned_spectrum(T, order)
    w[1, :, 1] = nodes ** (order - m)
    w[1, :, 3] = 1.0
    bounds = [n, m, order - n, order - m, 1]
    return AssembledSystem("l2", n, order, bounds, w)


def assemble_gramian(problem: ProblemSpec, n_lim: int = 256) -> AssembledSystem:
    G, L = problem.G, problem.L
    n, pl = problem.n, problem.reg_rows
    order = _extended_order(max(n, pl) + n, 2, n_lim)
    nodes = unit_roots(order)
    w = np.zeros((2, order, 5), dtype=np.complex128)
    # normal equation G x + L^H s = y
    w[0, :, 0] = _aligned_spectrum(G.as_toeplitz(), order)
    w[0, :, 1] = _aligned_spectrum(adjoint_spec(L), order)
    w[0, :, 2] = 1.0
    w[0, :, 4] = _rhs_spectrum(problem.normal_rhs_vector(), order)
    # coupling s = L x
    w[1, :, 0] = -_aligned_spectrum(L, order)
    w[1, :, 1] = nodes ** (order - pl)
    w[1, :, 3] = 1.0
    bounds = [n, pl, order - n, order - pl, 1]
    return AssembledSystem("gramian", n, order, bounds, w)


_ASSEMBLERS = {
    "general": assemble_general,
    "l2": assemble_l2,
    "gramian": assemble_gramian,
}


def assemble(problem: ProblemSpec, n_lim: int = 256) -> AssembledSystem:
    try:
        fn = _ASSEMBLERS[problem.variant]
    except KeyError:
        raise ValueError(f"unknown variant {problem.variant!r}") from None
    return fn(problem, n_lim=n_lim)
