"""Complex polynomial and matrix-polynomial arithmetic on roots-of-unity grids.

Coefficient arrays run in ascending degree along the last axis, and every
helper broadcasts over leading axes: a ``(p, L)`` array is a vector of p
polynomials, a ``(p, p, L)`` array a square matrix polynomial.  Products are
computed by pointwise evaluation at enough roots of unity and an inverse
transform; evaluation on a coset of a root grid folds coefficients first so
the transform length never exceeds the node count.
"""

from __future__ import annotations

import functools

import numpy as np
import scipy.fft as _sfft

# Whether the platform long double actually carries more precision than a
# double.  When it does not (some ARM and MSVC builds), the extended product
# path would be a slower spelling of the plain one, so it is skipped.
_LONGDOUBLE_EXTENDS = np.finfo(np.longdouble).eps < np.finfo(np.float64).eps

__all__ = [
    "next_fast_len",
    "unit_roots",
    "grid_eval",
    "poly_eval",
    "MatrixPoly",
    "matpoly_multiply",
]


@functools.lru_cache(maxsize=None)
def next_fast_len(n: int) -> int:
    """Smallest integer >= n whose prime factors are all <= 7."""
    if n <= 1:
        return 1
    m = n
    while True:
        r = m
        for f in (2, 3, 5, 7):
            while r % f == 0:
                r //= f
        if r == 1:
            return m
        m += 1


def unit_roots(n: int) -> np.ndarray:
    """The n-th roots of unity exp(2*pi*i*k/n), k = 0..n-1."""
    return np.exp(2j * np.pi * np.arange(n) / n)


def grid_eval(coeffs, n_nodes: int, offset: int = 0, stride: int = 1) -> np.ndarray:
    """Evaluate polynomials at the node coset w**(offset + stride*t).

    Here w = exp(2*pi*i/n_nodes) and t = 0 .. n_nodes//stride - 1.  The
    stride must divide the grid size.  Evaluation runs along the last axis
    of ``coeffs``; output shape is ``coeffs.shape[:-1] + (n_nodes//stride,)``.
    Coefficients past the transform length are folded in, which is exact on
    the grid.
    """
    if n_nodes < 1:
        raise ValueError("grid size must be positive")
    if stride < 1 or n_nodes % stride:
        raise ValueError("stride must be a positive divisor of the grid size")
    count = n_nodes // stride
    c = np.asarray(coeffs, dtype=np.complex128)
    length = c.shape[-1]
    off = offset % n_nodes
    if off:
        c = c * np.exp(2j * np.pi * off * np.arange(length) / n_nodes)
    if length > count:
        pad = (-length) % count
        if pad:
            width = [(0, 0)] * (c.ndim - 1) + [(0, pad)]
            c = np.pad(c, width)
        c = c.reshape(c.shape[:-1] + (-1, count)).sum(axis=-2)
    return count * np.fft.ifft(c, n=count, axis=-1)


def poly_eval(coeffs, z: complex):
    """Evaluate at a single point; broadcasts over leading axes."""
    c = np.asarray(coeffs, dtype=np.complex128)
    powers = np.asarray(z, dtype=np.complex128) ** np.arange(c.shape[-1])
    return c @ powers


def _trim_tail(coeffs: np.ndarray, rel_tol: float) -> np.ndarray:
    mx = np.abs(coeffs).max()
    if mx == 0.0:
        return coeffs[..., :1]
    profile = np.abs(coeffs).max(axis=tuple(range(coeffs.ndim - 1)))
    keep = np.flatnonzero(profile > rel_tol * mx)
    stop = int(keep[-1]) + 1 if keep.size else 1
    return coeffs[..., :stop]


class MatrixPoly:
    """Square matrix polynomial; ``coeffs[i, j, d]`` is the z**d coefficient
    of entry (i, j)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        c = np.asarray(coeffs, dtype=np.complex128)
        if c.ndim != 3 or c.shape[0] != c.shape[1]:
            raise ValueError("expected a (p, p, length) coefficient array")
        self.coeffs = c

    @property
    def dim(self) -> int:
        return self.coeffs.shape[0]

    @property
    def length(self) -> int:
        return self.coeffs.shape[2]

    def column(self, j: int) -> np.ndarray:
        return self.coeffs[:, j, :]

    def eval_grid(self, n_nodes: int, offset: int = 0, stride: int = 1) -> np.ndarray:
        """Values on a node coset with the node axis first: (count, p, p)."""
        return np.moveaxis(grid_eval(self.coeffs, n_nodes, offset, stride), -1, 0)

    def trimmed(self, rel_tol: float = 1e-14) -> "MatrixPoly":
        return MatrixPoly(_trim_tail(self.coeffs, rel_tol).copy())


def _matpoly_mul_coeffs(ca: np.ndarray, cb: np.ndarray,
                        extended: bool = False) -> np.ndarray:
    la, lb = ca.shape[-1], cb.shape[-1]
    out = la + lb - 1
    if out == 1:
        return (ca[:, :, 0] @ cb[:, :, 0])[:, :, None]
    r = next_fast_len(out)
    if extended and _LONGDOUBLE_EXTENDS:
        fa = np.moveaxis(_sfft.fft(ca.astype(np.clongdouble), r, axis=-1), -1, 0)
        fb = np.moveaxis(_sfft.fft(cb.astype(np.clongdouble), r, axis=-1), -1, 0)
        res = _sfft.ifft(np.moveaxis(fa @ fb, 0, -1), axis=-1)[:, :, :out]
        return np.ascontiguousarray(res.astype(np.complex128))
    fa = np.moveaxis(np.fft.fft(ca, r, axis=-1), -1, 0)
    fb = np.moveaxis(np.fft.fft(cb, r, axis=-1), -1, 0)
    prod = fa @ fb
    return np.ascontiguousarray(np.fft.ifft(np.moveaxis(prod, 0, -1), axis=-1)[:, :, :out])


def matpoly_multiply(a, b, extended: bool = False):
    """Product of two matrix polynomials (MatrixPoly or raw coefficient arrays).

    With extended=True the transform and pointwise products run in long double
    before rounding the coefficients back, so each call injects one rounding
    at the output instead of compounding transform noise.  A cascade of
    pairwise products whose downstream consumer is sensitive to coherent
    coefficient error wants this; one-off products do not.
    """
    ca = a.coeffs if isinstance(a, MatrixPoly) else np.asarray(a, dtype=np.complex128)
    cb = b.coeffs if isinstance(b, MatrixPoly) else np.asarray(b, dtype=np.complex128)
    if ca.shape[:2] != cb.shape[:2]:
        raise ValueError("matrix polynomial dimensions do not match")
    out = _matpoly_mul_coeffs(ca, cb, extended)
    if isinstance(a, MatrixPoly) or isinstance(b, MatrixPoly):
        return MatrixPoly(out)
    return out

