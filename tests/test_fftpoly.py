"""Polynomial and matrix-polynomial arithmetic over root-of-unity grids."""

import numpy as np
import pytest

from helpers import column_tau_degrees, identity_poly
from toepreg.fftpoly import (
    MatrixPoly,
    grid_eval,
    matpoly_multiply,
    next_fast_len,
    poly_eval,
    unit_roots,
)


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def schoolbook_matpoly(a: MatrixPoly, b: MatrixPoly) -> np.ndarray:
    """Direct triple loop with convolutions, the slow reference product."""
    p = a.dim
    out = np.zeros((p, p, a.length + b.length - 1), dtype=np.complex128)
    for i in range(p):
        for j in range(p):
            for k in range(p):
                out[i, j] += np.convolve(a.coeffs[i, k], b.coeffs[k, j])
    return out


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
    out = matpoly_multiply(a, b, extended=True)
    assert np.abs(out.coeffs - ref).max() / np.abs(ref).max() < 1e-11


def test_matpoly_multiply_constant_fast_path():
    rng = np.random.default_rng(29)
    a = MatrixPoly(crandn(rng, 4, 4, 1))
    b = MatrixPoly(crandn(rng, 4, 4, 1))
    out = matpoly_multiply(a, b)
    assert np.abs(out.coeffs[:, :, 0] - a.coeffs[:, :, 0] @ b.coeffs[:, :, 0]).max() < 1e-13


def test_eval_product_homomorphism():
    rng = np.random.default_rng(30)
    a = MatrixPoly(crandn(rng, 5, 5, 6))
    b = MatrixPoly(crandn(rng, 5, 5, 7))
    prod_vals = matpoly_multiply(a, b).eval_grid(16)
    pointwise = np.einsum("kij,kjl->kil", a.eval_grid(16), b.eval_grid(16))
    assert np.abs(prod_vals - pointwise).max() / np.abs(pointwise).max() < 1e-10


def test_eval_at_roots_identity():
    vals = identity_poly(3).eval_grid(5)
    for v in vals:
        assert np.allclose(v, np.eye(3), atol=1e-14)


def test_eval_at_roots_matches_direct_eval():
    rng = np.random.default_rng(31)
    p = MatrixPoly(crandn(rng, 4, 4, 16))
    vals = p.eval_grid(32, offset=1, stride=2)
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


def test_column_tau_degrees():
    c = np.zeros((2, 2, 3), dtype=np.complex128)
    c[0, 0, 2] = 1.0   # entry degree 2
    c[1, 1, 0] = 1.0   # entry degree 0
    degs = column_tau_degrees(MatrixPoly(c), [1, 3])
    assert degs[0] == 1.0
    assert degs[1] == -3.0
