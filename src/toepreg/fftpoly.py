"""Complex polynomial and matrix-polynomial arithmetic on roots-of-unity grids.

Coefficient arrays run in ascending degree along the last axis, and every
helper broadcasts over leading axes: a ``(p, L)`` array is a vector of p
polynomials, a ``(p, p, L)`` array a square matrix polynomial.  Products are
computed by pointwise evaluation at enough roots of unity and an inverse
transform; evaluation on a coset of a root grid folds coefficients first so
the transform length never exceeds the node count.

The matrix-polynomial product ``matpoly_multiply`` splits each operand
exactly into small Gaussian integers and a remainder, after Ozaki,
Ogita, Oishi and Rump (Numer. Algorithms 59, 2012), so that the product of
the integer parts comes out of ordinary double transforms exactly.  It is
accurate to about 2**-(53 + b) of each operand's largest coefficient, with
b the bits the split keeps (set from the shapes: 14-17 at n = 512-2048,
21 for constants).  That bound is norm-wise and the same on every
platform.
"""

from __future__ import annotations

import functools
import math

import numpy as np

__all__ = [
    "next_fast_len",
    "unit_roots",
    "grid_eval",
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
        # The blocks add one after another in ascending order, which fixes
        # the rounding of the fold.
        folded = c[..., :count].copy()
        for start in range(count, length, count):
            stop = min(start + count, length)
            folded[..., :stop - start] += c[..., start:stop]
        c = folded
    return count * np.fft.ifft(c, n=count, axis=-1)


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
    def length(self) -> int:
        return self.coeffs.shape[2]

    def trimmed(self) -> "MatrixPoly":
        """A copy without the trailing coefficients whose entries are all at
        most 1e-14 of the largest; an all-zero polynomial keeps one."""
        mag = np.abs(self.coeffs)
        keep = np.flatnonzero(mag.max(axis=(0, 1)) > 1e-14 * mag.max())
        stop = int(keep[-1]) + 1 if keep.size else 1
        return MatrixPoly(self.coeffs[..., :stop].copy())


@functools.lru_cache(maxsize=None)
def _split_bits(p: int, la: int, lb: int, r: int) -> int:
    """Bits b of the integer parts that keep their product exact at length r.

    Percival (Math. Comp. 72, 2003, Thm. 5.1) bounds the max error of a
    length-2**k FFT product of x and y by ||x||_2 ||y||_2 times
    (1+eps)**3k (1+eps*sqrt5)**(3k+1) (1+beta)**3k - 1, with eps = 2**-53
    and beta the twiddle factors' error.  To first order, with beta <= eps
    and k >= 1, that is at most c*k*eps with c = 15 (3 + 3*sqrt5 + 3 per
    level, plus sqrt5 once).  An integer part of a length-l series has real
    and imaginary parts of at most 2**b, so its 2-norm is at most
    2**b * sqrt(2*l), and an entry of the matrix product sums p series
    products.  Hence c * log2(r) * eps * p * 2*sqrt(la*lb) * 4**b <= 1/4
    keeps the computed integers within 1/4 of the exact ones, and it also
    keeps them under the 2**53 ceiling on integers a double holds.  The
    proof is for radix-2 transforms and pocketfft also runs radix-3, 5 and
    7 passes, so every product checks the margin it actually had.
    """
    eta = 15 * max(math.log2(r), 1.0) * 2.0**-53 * p * 2 * math.sqrt(la * lb)
    return int(math.log2(0.25 / eta) // 2)


def _split(c: np.ndarray, bits: int):
    """Exact split c = (high + low) * 2**e, returned as ([high, low], e).

    The power of two comes from the largest real or imaginary part, so
    ``high`` holds Gaussian integers with parts of at most 2**bits and
    ``low`` the remainders, each part at most 1/2.
    """
    x = np.ascontiguousarray(c).view(np.float64)
    e = int(np.frexp(np.abs(x).max())[1]) - bits
    parts = np.empty((2,) + x.shape)
    np.ldexp(x, -e, out=parts[1])
    np.rint(parts[1], out=parts[0])
    parts[1] -= parts[0]
    return parts.view(np.complex128), e


def _split_product(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """ca x cb from a split of each operand: the integer parts' product is
    rounded to the exact integers, the cross terms added, rounded once."""
    p, la, lb = ca.shape[0], ca.shape[-1], cb.shape[-1]
    out = la + lb - 1
    r = next_fast_len(out)
    bits = _split_bits(p, la, lb, r)
    # Non-finite coefficients give NaN parts; they pass the guard below (a
    # NaN compares false) and come out non-finite for the solver to reject.
    with np.errstate(invalid="ignore"):
        (sa, ea), (sb, eb) = _split(ca, bits), _split(cb, bits)
        # The three matmuls below save more on contiguous (r, p, p) stacks
        # than the copies cost.
        fa = np.ascontiguousarray(np.moveaxis(np.fft.fft(sa, r, axis=-1), -1, 1))
        fb = np.ascontiguousarray(np.moveaxis(np.fft.fft(sb, r, axis=-1), -1, 1))
        high = fa[0] @ fb[0]
        cross = (fa[0] + fa[1]) @ fb[1] + fa[1] @ fb[0]
        res = np.fft.ifft(np.moveaxis(np.stack((high, cross)), 1, -1), axis=-1)
        res = np.ascontiguousarray(res[..., :out]).view(np.float64)
        whole = np.rint(res[0])
        miss = np.abs(res[0] - whole).max()
        if miss > 0.25:
            raise RuntimeError(
                f"split product inexact: integer part off by {miss:.3g}")
        return np.ldexp(whole + res[1], ea + eb).view(np.complex128)


def matpoly_multiply(a: MatrixPoly, b: MatrixPoly) -> MatrixPoly:
    """Product of two p x p matrix polynomials, of length la + lb - 1.

    Each operand is split exactly into small Gaussian integers and a
    remainder, scaled by a power of two; the integer parts multiply exactly
    in double transforms, the cross terms are added and each coefficient is
    rounded once.  The result is accurate to about 2**-(53 + b) of the
    operands' largest coefficients (b is 14-17 bits at the solver's shapes),
    norm-wise rather than entry by entry, and on every platform alike; it
    costs 2-3 plain FFT products.  The interpolation tree chains its
    combine products, and the bases they feed are sensitive to coherent
    coefficient error, which a plain double product would leave.
    ValueError if the operands' p differ; RuntimeError if the integer
    product misses the integers by more than 1/4, which the a priori bit
    budget rules out.
    """
    if a.coeffs.shape[0] != b.coeffs.shape[0]:
        raise ValueError("matrix polynomial dimensions do not match")
    return MatrixPoly(_split_product(a.coeffs, b.coeffs))
