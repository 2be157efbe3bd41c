"""Circulant extension of the regularized normal equations.

Each Toeplitz block of the augmented optimality system is embedded in a
circulant of a common 7-smooth-friendly order N.  Diagonalizing every
circulant by the root-of-unity basis turns the block system into N pointwise
vector conditions, one per node; unknown blocks become polynomial segments
with prescribed degree bounds.  The solver then needs only the node weights
produced here.

Row layout for the normal matrix D + sum_i B_i^H B_i of a problem's k
``factors`` B_i and its ``diagonal`` D, if any.  There are 1 + k rows and
2k + 3 slots (x, s_1..s_k, g_0..g_k, const); the last is inhomogeneous:

row 0     D x + sum_i B_i^H s_i + g_0 = rhs
row i     s_i = B_i x up to the fill g_i, with s_i as tall as B_i
bounds    [n, rows_i..., N - n, N - rows_i..., 1]

The g_i are free fill blocks absorbing the circulant wrap-around.  D of
half-width w needs only N >= n + w, so it may lose zero outer diagonals.

One sizing rule and one fill rule.  ``opt_extend`` pads n_tilde to
N = 2**p * M with interleaved leaf pairs in mind: 2 * rows * M <= n_lim,
and M stays even through every halving.  The k = N - n_tilde new outward
diagonals of each block's generator are zero for k <= 1 and echo the
generator cyclically beyond.  ``assemble`` records the depth max(p, 1) of
the coset tree the extension was sized for, and the interpolation tree
splits to exactly that depth: its leaves are the pairs of M-node cosets at
stride 2**p, or the root alone when p <= 1.
"""

from __future__ import annotations

import numpy as np

from .fftpoly import grid_eval, unit_roots
from .toeplitz import ProblemSpec, ToeplitzSpec, adjoint_spec

__all__ = [
    "opt_extend",
    "extended_generating_sequence",
    "AssembledSystem",
    "assemble",
]


def opt_extend(n_tilde: int, n_lim: int, rows: int):
    """Choose the extension count k so that N = n_tilde + k splits evenly.

    N factors as 2**p * M with the leaf size M small enough that an
    interleaved pair of leaves fits the serial budget: 2*rows*M <= n_lim.
    M is rounded up to even after every halving, so the split into coset
    pairs always has two classes to pair.  Returns (k, p, M).
    """
    if n_tilde < 1:
        raise ValueError("system size must be positive")
    if n_lim < rows:
        raise ValueError("serial budget must allow at least one node per row")
    p, m = 0, n_tilde
    while 2 * rows * m > n_lim:
        if m <= 2:
            raise ValueError("serial budget too small to terminate the split")
        p += 1
        m = (m + 1) // 2
        if m % 2:
            m += 1
    k = (1 << p) * m - n_tilde
    return k, p, m


def extended_generating_sequence(spec: ToeplitzSpec, k: int) -> np.ndarray:
    """Generator of the order rows+cols-1+k circulant containing the block.

    The genuine block keeps its bottom-right position; the k new outward
    diagonals are zero for k <= 1 and echo the generator cyclically beyond.
    Any fill keeps the extended system's null space one-dimensional, but
    echo fill avoids the near-singular extensions a run of zeros can
    produce.  A negative k drops the -k leading outward diagonals, which
    must be zero.
    """
    gen = spec.gen
    if k < 0:
        if -k > gen.size or gen[:-k].any():
            raise ValueError("extension count must be nonnegative")
        return gen[-k:]
    if k == 1:
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
    return grid_eval(extended_generating_sequence(spec, order - spec.gen.size),
                     order)


def _rhs_spectrum(rhs: np.ndarray, order: int) -> np.ndarray:
    """Node values of the bottom-aligned inhomogeneous block (negated rhs)."""
    c = np.zeros(order, dtype=np.complex128)
    c[order - rhs.size:] = -rhs
    return grid_eval(c, order)


class AssembledSystem:
    """All tangential interpolation data for one problem instance.

    weights has shape (rows, N, p); condition (row, k) requires the unknown
    vector polynomial q to satisfy weights[row, k] . q(nodes[k]) = 0.  Column
    degree bounds encode the block widths; slot 0 carries the solution and
    the last slot the constant.  ``depth`` is the depth of the coset tree
    the order was sized for: its leaves are the node pairs at stride
    2**depth, or the root alone at depth 1, so a deeper tree needs that
    stride to divide the order.
    """

    def __init__(self, n, order, degree_bounds, weights, depth):
        if depth < 1 or (depth > 1 and order % 2 ** depth):
            raise ValueError(f"no coset tree of depth {depth} over {order} nodes")
        self.n = n
        self.order = order
        self.depth = depth
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


def assemble(problem: ProblemSpec, n_lim: int = 256) -> AssembledSystem:
    """Node weights and degree bounds in the row layout of the module
    docstring."""
    factors = problem.factors
    k = len(factors)
    n, n_tilde = problem.n, problem.n_tilde
    ext, p, _ = opt_extend(n_tilde, n_lim, rows=k + 1)
    order = n_tilde + ext
    nodes = unit_roots(order)
    w = np.zeros((k + 1, order, 2 * k + 3), dtype=np.complex128)
    if problem.diagonal is not None:
        w[0, :, 0] = _aligned_spectrum(problem.diagonal.as_toeplitz(), order)
    for i, block in enumerate(factors, 1):
        w[0, :, i] = _aligned_spectrum(adjoint_spec(block), order)
        w[i, :, 0] = -_aligned_spectrum(block, order)
        w[i, :, i] = nodes ** (order - block.rows)
        w[i, :, k + 1 + i] = 1.0
    w[0, :, k + 1] = 1.0
    w[0, :, -1] = _rhs_spectrum(problem.normal_rhs_vector(), order)
    rows = [block.rows for block in factors]
    bounds = [n, *rows, order - n, *(order - r for r in rows), 1]
    return AssembledSystem(n, order, bounds, w, max(p, 1))
