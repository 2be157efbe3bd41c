"""Polynomial and matrix-polynomial arithmetic over root-of-unity grids."""

import re
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import column_tau_degrees, eval_grid, identity_poly, poly_eval
from toepreg import fftpoly
from toepreg.fftpoly import (
    MatrixPoly,
    grid_eval,
    matpoly_multiply,
    next_fast_len,
    unit_roots,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def schoolbook_matpoly(a: MatrixPoly, b: MatrixPoly) -> np.ndarray:
    """Direct triple loop with convolutions, the slow reference product."""
    p = a.coeffs.shape[0]
    out = np.zeros((p, p, a.length + b.length - 1), dtype=np.complex128)
    for i in range(p):
        for j in range(p):
            for k in range(p):
                out[i, j] += np.convolve(a.coeffs[i, k], b.coeffs[k, j])
    return out


def fft_matpoly(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The plain double product: pointwise matrix products of the transforms."""
    out = ca.shape[-1] + cb.shape[-1] - 1
    fa = np.moveaxis(np.fft.fft(ca, out, axis=-1), -1, 0)
    fb = np.moveaxis(np.fft.fft(cb, out, axis=-1), -1, 0)
    return np.ascontiguousarray(np.fft.ifft(np.moveaxis(fa @ fb, 0, -1), axis=-1))


def exact_matpoly(ca: np.ndarray, cb: np.ndarray) -> np.ndarray:
    """The exact product, rounded once to double.

    Every double times 2**1100 is an integer, so the products are sums of
    Python integers, and int / int rounds correctly.
    """
    def ints(x):
        return np.array([int(Fraction(v) * 2**1100) for v in x.ravel()],
                        dtype=object).reshape(x.shape)

    ar, ai, br, bi = ints(ca.real), ints(ca.imag), ints(cb.real), ints(cb.imag)
    p = ca.shape[0]
    out = np.empty((p, p, ca.shape[2] + cb.shape[2] - 1), dtype=np.complex128)
    for i in range(p):
        for j in range(p):
            re = sum(np.convolve(ar[i, k], br[k, j]) - np.convolve(ai[i, k], bi[k, j])
                     for k in range(p))
            im = sum(np.convolve(ar[i, k], bi[k, j]) + np.convolve(ai[i, k], br[k, j])
                     for k in range(p))
            out[i, j] = [complex(x / 2**2200, y / 2**2200) for x, y in zip(re, im)]
    return out


def within_an_ulp(out: np.ndarray, ref: np.ndarray) -> bool:
    """Each real and imaginary part within 1 ulp plus 2**-60 of the largest."""
    o, r = out.view(np.float64), ref.view(np.float64)
    return bool(np.all(np.abs(o - r) <= np.spacing(np.abs(r)) + 2.0**-60 * np.abs(r).max()))


def test_next_fast_len_values():
    assert next_fast_len(1) == 1
    assert next_fast_len(11) == 12
    assert next_fast_len(49) == 49
    assert next_fast_len(121) == 125


def test_next_fast_len_is_seven_smooth():
    for n in range(1, 400):
        m = next_fast_len(n)
        assert m >= n
        r = m
        for f in (2, 3, 5, 7):
            while r % f == 0:
                r //= f
        assert r == 1


def test_poly_eval_horner_equivalent():
    rng = np.random.default_rng(23)
    c = crandn(rng, 9)
    z = 0.3 - 0.8j
    assert abs(poly_eval(c, z) - np.polyval(c[::-1], z)) < 1e-13


def test_vector_poly_eval_mixed():
    # [z, 1 - z] at 1
    q = np.array([[0.0, 1.0], [1.0, -1.0]])
    assert np.allclose(poly_eval(q, 1.0), [1.0, 0.0], atol=1e-15)


def test_vector_poly_eval_constant():
    q = np.arange(1.0, 6.0)[:, None]
    assert np.allclose(poly_eval(q, 0.7 + 0.2j), np.arange(1.0, 6.0))


def test_vector_poly_eval_matches_monomial_sum():
    rng = np.random.default_rng(24)
    q = crandn(rng, 5, 7)
    sigma = np.exp(2j * np.pi * 0.137)
    ref = sum(q[:, d] * sigma**d for d in range(7))
    assert np.abs(poly_eval(q, sigma) - ref).max() < 1e-13


def test_grid_eval_monomial_gives_roots():
    out = grid_eval(np.array([0.0, 1.0]), 8)
    assert np.abs(out - unit_roots(8)).max() < 1e-14


def test_grid_eval_folds_high_degrees():
    # z**n is 1 on every n-th root, regardless of coefficient length
    c = np.zeros(13)
    c[12] = 1.0
    assert np.abs(grid_eval(c, 6) - unit_roots(6) ** 12).max() < 1e-13


@pytest.mark.parametrize("length", [18, 7, 20],
                         ids=["whole-blocks", "count-plus-one", "partial-third"])
@pytest.mark.parametrize("offset, stride", [(0, 1), (5, 2)])
def test_grid_eval_fold_matches_horner(length, offset, stride):
    # Six points on the coset; 18 coefficients fold as three whole blocks,
    # 7 as one block and one coefficient, 20 as three blocks and a part.
    rng = np.random.default_rng(27)
    n_nodes = 6 * stride
    c = crandn(rng, 2, 3, length)
    nodes = np.exp(2j * np.pi * (offset + stride * np.arange(6)) / n_nodes)
    out = grid_eval(c, n_nodes, offset=offset, stride=stride)
    ref = np.array([[[np.polyval(c[i, j, ::-1], z) for z in nodes]
                     for j in range(3)] for i in range(2)])
    assert out.shape == ref.shape
    assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-13


def test_grid_eval_coset_matches_horner():
    rng = np.random.default_rng(25)
    c = crandn(rng, 16)
    nodes = unit_roots(32)[1::2]
    out = grid_eval(c, 32, offset=1, stride=2)
    ref = np.array([np.polyval(c[::-1], z) for z in nodes])
    assert np.abs(out - ref).max() / np.abs(ref).max() < 1e-12


def test_grid_eval_rejects_bad_stride():
    with pytest.raises(ValueError):
        grid_eval(np.ones(3), 8, stride=3)


@pytest.mark.parametrize("build, message", [
    (lambda: grid_eval(np.ones(3), 0), "grid size must be positive"),
    (lambda: MatrixPoly(np.ones((2, 3, 1))),
     "expected a (p, p, length) coefficient array"),
], ids=["empty-grid", "non-square-poly"])
def test_shape_checks_name_the_mismatch(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_matrix_poly_identity_product():
    rng = np.random.default_rng(26)
    b = MatrixPoly(crandn(rng, 7, 7, 9))
    out = matpoly_multiply(identity_poly(7), b)
    assert np.abs(out.coeffs[:, :, :9] - b.coeffs).max() < 1e-13


def test_matpoly_multiply_matches_schoolbook():
    rng = np.random.default_rng(27)
    a = MatrixPoly(crandn(rng, 7, 7, 9))
    b = MatrixPoly(crandn(rng, 7, 7, 9))
    ref = schoolbook_matpoly(a, b)
    out = matpoly_multiply(a, b)
    assert np.abs(out.coeffs - ref).max() / np.abs(ref).max() < 1e-11


def test_matpoly_multiply_extended_matches_schoolbook():
    rng = np.random.default_rng(28)
    a = MatrixPoly(crandn(rng, 5, 5, 33))
    b = MatrixPoly(crandn(rng, 5, 5, 20))
    ref = schoolbook_matpoly(a, b)
    out = matpoly_multiply(a, b)
    assert np.abs(out.coeffs - ref).max() / np.abs(ref).max() < 1e-11


@pytest.mark.parametrize("p, la, lb, decay", [
    (7, 17, 17, 0.0),   # random
    (5, 33, 33, 0.3),   # geometrically decaying, as basis tails are
    (7, 9, 25, 0.0),    # unequal lengths, as the cleanup's tree x product
])
def test_matpoly_multiply_extended_matches_exact_product(p, la, lb, decay):
    rng = np.random.default_rng(34)
    ca = crandn(rng, p, p, la) * np.exp(-decay * np.arange(la))
    cb = crandn(rng, p, p, lb) * np.exp(-decay * np.arange(lb))
    ref = exact_matpoly(ca, cb)
    out = matpoly_multiply(MatrixPoly(ca), MatrixPoly(cb))
    assert within_an_ulp(out.coeffs, ref)
    # The bound tells the split product from a plain one.
    assert not within_an_ulp(fft_matpoly(ca, cb), ref)


def test_matpoly_multiply_extended_length_one():
    rng = np.random.default_rng(35)
    ca, cb = crandn(rng, 6, 6, 1), crandn(rng, 6, 6, 1)
    out = matpoly_multiply(MatrixPoly(ca), MatrixPoly(cb))
    assert out.coeffs.shape == (6, 6, 1)
    assert within_an_ulp(out.coeffs, exact_matpoly(ca, cb))


def test_matpoly_multiply_extended_zero_operands():
    rng = np.random.default_rng(36)
    zero, c = MatrixPoly(np.zeros((4, 4, 5))), MatrixPoly(crandn(rng, 4, 4, 7))
    for a, b in ((zero, c), (c, zero), (zero, zero)):
        out = matpoly_multiply(a, b)
        assert out.length == a.length + b.length - 1
        assert not out.coeffs.any()


def test_matpoly_multiply_rejects_mismatched_p():
    with pytest.raises(ValueError):
        matpoly_multiply(identity_poly(3), identity_poly(4))


def test_matpoly_multiply_extended_guard_fires(monkeypatch):
    rng = np.random.default_rng(37)
    a, b = MatrixPoly(crandn(rng, 7, 7, 65)), MatrixPoly(crandn(rng, 7, 7, 65))
    matpoly_multiply(a, b)
    bits = fftpoly._split_bits
    # Eight bits past the budget the integer product is no longer exact.
    monkeypatch.setattr(fftpoly, "_split_bits", lambda *shape: bits(*shape) + 8)
    with pytest.raises(RuntimeError, match="inexact"):
        matpoly_multiply(a, b)


def test_matpoly_multiply_extended_non_finite_passes_through():
    rng = np.random.default_rng(38)
    ca, b = crandn(rng, 5, 5, 9), MatrixPoly(crandn(rng, 5, 5, 9))
    for bad in (np.nan, np.inf):
        a = ca.copy()
        a[1, 2, 3] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            out = matpoly_multiply(MatrixPoly(a), b)
        assert not np.isfinite(out.coeffs).all()


def test_eval_product_homomorphism():
    rng = np.random.default_rng(30)
    a = MatrixPoly(crandn(rng, 5, 5, 6))
    b = MatrixPoly(crandn(rng, 5, 5, 7))
    prod_vals = eval_grid(matpoly_multiply(a, b), 16)
    pointwise = np.einsum("kij,kjl->kil", eval_grid(a, 16), eval_grid(b, 16))
    assert np.abs(prod_vals - pointwise).max() / np.abs(pointwise).max() < 1e-10


def test_eval_at_roots_identity():
    vals = eval_grid(identity_poly(3), 5)
    for v in vals:
        assert np.allclose(v, np.eye(3), atol=1e-14)


def test_eval_at_roots_matches_direct_eval():
    rng = np.random.default_rng(31)
    p = MatrixPoly(crandn(rng, 4, 4, 16))
    vals = eval_grid(p, 32, offset=1, stride=2)
    nodes = unit_roots(32)[1::2]
    for v, z in zip(vals, nodes):
        assert np.abs(v - poly_eval(p.coeffs, z)).max() < 1e-12


def test_transform_round_trip():
    rng = np.random.default_rng(32)
    for n in (8, 12, 49, 125, 252):
        x = crandn(rng, n)
        back = np.fft.ifft(np.fft.fft(x))
        assert np.abs(back - x).max() < 1e-13


def test_trimmed_stops_degree_creep():
    rng = np.random.default_rng(33)
    c = np.zeros((3, 3, 8), dtype=np.complex128)
    c[:, :, :4] = crandn(rng, 3, 3, 4)
    c[:, :, 7] = 1e-17
    t = MatrixPoly(c).trimmed()
    assert t.length == 4
    # An all-zero polynomial keeps one coefficient.
    assert MatrixPoly(np.zeros((3, 3, 8))).trimmed().length == 1


def test_column_tau_degrees():
    c = np.zeros((2, 2, 3), dtype=np.complex128)
    c[0, 0, 2] = 1.0   # entry degree 2
    c[1, 1, 0] = 1.0   # entry degree 0
    degs = column_tau_degrees(MatrixPoly(c), [1, 3])
    assert degs[0] == 1.0
    assert degs[1] == -3.0
