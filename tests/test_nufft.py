"""Nonuniform sampling driver: quadrature weights, the weighted sample
Gramian, and the end-to-end reconstruction report."""

import math

import numpy as np
import pytest

from toepreg.nufft import (
    NufftConfig,
    make_signal,
    run_nufft,
    sample_matrix,
    second_difference_regularizer,
    voronoi_weights,
    weighted_fourier_gramian,
)
from toepreg.toeplitz import materialize


def test_voronoi_weights_frozen_case():
    # gaps around [0, .1, .5] on the circle: [.1, .4, .5], halved and shared.
    w = voronoi_weights(np.array([0.0, 0.1, 0.5]))
    assert np.allclose(w, [0.3, 0.25, 0.45], atol=1e-15)


def test_voronoi_weights_sum_to_one():
    rng = np.random.default_rng(31)
    for k in (2, 7, 64, 501):
        w = voronoi_weights(rng.uniform(-0.5, 0.5, size=k))
        assert abs(w.sum() - 1.0) < 1e-12
        assert (w > 0.0).all()


def test_voronoi_weights_uniform_grid():
    k = 16
    w = voronoi_weights(np.arange(k) / k)
    assert np.allclose(w, 1.0 / k, atol=1e-15)


def test_voronoi_weights_order_independent():
    rng = np.random.default_rng(32)
    f = rng.uniform(0.0, 1.0, size=40)
    perm = rng.permutation(40)
    assert np.allclose(voronoi_weights(f)[perm], voronoi_weights(f[perm]),
                       atol=1e-15)


def test_sample_matrix_entries():
    a = sample_matrix(np.array([0.25]), 4)
    assert np.allclose(a[0], [1.0, -1.0j, -1.0, 1.0j], atol=1e-15)


def test_gramian_diagonal_is_weight_sum():
    rng = np.random.default_rng(33)
    freqs = rng.uniform(-0.5, 0.5, size=50)
    weights = voronoi_weights(freqs)
    gram = weighted_fourier_gramian(freqs, weights, 12)
    dense = materialize(gram.as_toeplitz())
    assert np.allclose(np.diag(dense), weights.sum(), atol=1e-13)


def test_gramian_matches_dense_product():
    rng = np.random.default_rng(34)
    freqs = rng.uniform(-0.5, 0.5, size=80)
    weights = voronoi_weights(freqs)
    n = 24
    a = sample_matrix(freqs, n)
    dense = a.conj().T @ (weights[:, None] * a)
    gram = materialize(weighted_fourier_gramian(freqs, weights, n).as_toeplitz())
    assert np.abs(gram - dense).max() < 1e-12


def test_uniform_sampling_is_a_plain_dft():
    # Full uniform sampling with unit weights makes A^H A = K I, and the
    # unregularized reconstruction is the inverse transform, exactly.
    k = 32
    freqs = np.arange(k) / k
    gram = materialize(weighted_fourier_gramian(freqs, np.ones(k), k).as_toeplitz())
    assert np.abs(gram - k * np.eye(k)).max() < 1e-10
    rng = np.random.default_rng(35)
    x_true = rng.standard_normal(k) + 1j * rng.standard_normal(k)
    samples = sample_matrix(freqs, k) @ x_true
    assert np.abs(sample_matrix(freqs, k).conj().T @ samples / k - x_true).max() < 1e-12


def test_second_difference_regularizer_stencil():
    dense = materialize(second_difference_regularizer(5, 0.5))
    assert np.allclose(np.diag(dense), 1.0)
    assert np.allclose(np.diag(dense, 1), -0.5)
    assert np.allclose(np.diag(dense, -1), -0.5)
    assert np.allclose(np.diag(dense, 2), 0.0)


def test_make_signal_is_real_and_bounded():
    rng = np.random.default_rng(36)
    x = make_signal(256, 3, 0.02, rng)
    assert np.abs(x.imag).max() == 0.0
    assert np.abs(x.real).max() <= 4.5


def test_run_nufft_report():
    cfg = NufftConfig(n=64, samples=96, components=2, seed=3)
    out = run_nufft(cfg)
    assert out["n"] == 64 and out["samples"] == 96 and out["seed"] == 3
    assert abs(out["weights_sum"] - 1.0) < 1e-12
    assert out["cg_iterations"] >= 1
    assert len(out["x_direct_re"]) == 64
    assert len(out["x_cg_im"]) == 64
    assert out["rel_residual_direct"] < 1e-6
    assert out["wall_direct"] > 0.0 and out["wall_cg"] > 0.0


def test_run_nufft_is_deterministic():
    cfg = NufftConfig(n=48, samples=48, seed=9)
    first = run_nufft(cfg)
    second = run_nufft(cfg)
    # CG runs under a wall-clock budget, so only the direct path is
    # reproducible bit for bit.
    assert first["x_direct_re"] == second["x_direct_re"]
    assert first["x_direct_im"] == second["x_direct_im"]


def test_run_nufft_condition_estimate():
    cfg = NufftConfig(n=32, samples=48, seed=1, compute_condition=True)
    out = run_nufft(cfg)
    assert out["condition"] >= 1.0


def test_run_nufft_condition_of_a_singular_system_is_inf():
    # One sample makes the Gramian rank one, and the weak regularizer leaves
    # the normal matrix numerically singular: its smallest eigenvalue rounds
    # below zero, which a signed eigenvalue ratio reported as -1.9e17.
    cfg = NufftConfig(n=32, samples=1, seed=0, reg_scale=1e-6,
                      compute_condition=True)
    assert run_nufft(cfg)["condition"] == math.inf


def direct_phases(freqs, n, sign):
    """Reference table exp(sign 2 pi i f_k s), one exponential per entry."""
    return np.exp(sign * 2j * np.pi * np.outer(freqs, np.arange(n)))


@pytest.mark.parametrize("k", [1, 5, 300])
@pytest.mark.parametrize("n", [1, 2, 7, 31, 32, 1000, 1024])
def test_split_phases_match_direct_formula(n, k):
    rng = np.random.default_rng(1000 * n + k)
    freqs = rng.triangular(-0.5, 0.0, 0.5, size=k)
    weights = voronoi_weights(freqs)
    a = sample_matrix(freqs, n)
    assert a.shape == (k, n) and a.dtype == np.complex128
    assert a.flags.c_contiguous
    assert np.abs(a - direct_phases(freqs, n, -1)).max() <= 1e-12
    col = weighted_fourier_gramian(freqs, weights, n).gen
    ref = weights @ direct_phases(freqs, n, 1)
    ref[0] = ref[0].real
    assert np.abs(col - ref).max() <= 1e-12


def test_sample_matrix_without_columns():
    a = sample_matrix(np.array([0.1, -0.2, 0.3]), 0)
    assert a.shape == (3, 0) and a.dtype == np.complex128
    assert a.flags.c_contiguous


def test_gramian_matches_dense_product_off_square():
    # 23 is no multiple of ceil(sqrt(23)) = 5, so the last block is cut.
    rng = np.random.default_rng(37)
    freqs = rng.triangular(-0.5, 0.0, 0.5, size=61)
    weights = voronoi_weights(freqs)
    n = 23
    a = sample_matrix(freqs, n)
    dense = a.conj().T @ (weights[:, None] * a)
    gram = materialize(weighted_fourier_gramian(freqs, weights, n).as_toeplitz())
    assert np.abs(gram - dense).max() < 1e-12


@pytest.mark.parametrize("n", [1024, 4096])
def test_phase_tables_take_two_sqrt_n_exponentials_a_row(n, monkeypatch):
    # Deterministic cost guard: count the arguments handed to np.exp.  The
    # direct formula takes K n of them; the split takes K (B + Q) with
    # B = Q = ceil(sqrt(n)) here.  K stays at 1024 so that the dense
    # sample matrix at n = 4096 is 64 MiB.
    k = 1024
    freqs = np.random.default_rng(38).triangular(-0.5, 0.0, 0.5, size=k)
    weights = voronoi_weights(freqs)
    bound = k * (2 * math.isqrt(n - 1) + 3)
    real_exp = np.exp
    counted = []

    def counting_exp(x, *args, **kwargs):
        counted.append(np.size(x))
        return real_exp(x, *args, **kwargs)

    monkeypatch.setattr(np, "exp", counting_exp)
    sample_matrix(freqs, n)
    assert 0 < sum(counted) <= bound
    counted.clear()
    weighted_fourier_gramian(freqs, weights, n)
    assert 0 < sum(counted) <= bound


def test_voronoi_weights_rejects_empty():
    with pytest.raises(ValueError, match="at least one frequency"):
        voronoi_weights(np.array([]))
