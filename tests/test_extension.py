"""Circulant extension sizing, block spectra, and condition assembly."""

import numpy as np
import pytest

from helpers import (
    circulant_spectrum,
    identity_spec,
    null_space_solution,
    random_spec,
    rel_err,
)
from toepreg.extension import assemble, extended_generating_sequence, opt_extend
from toepreg.solver import dense_oracle
from toepreg.toeplitz import HermitianToeplitzSpec, ProblemSpec, ToeplitzSpec, materialize


def identity_gramian(n: int) -> HermitianToeplitzSpec:
    col = np.zeros(n, dtype=np.complex128)
    col[0] = 1.0
    return HermitianToeplitzSpec(n, col)


# ---------------------------------------------------------------- sizing

def test_opt_extend_hand_trace():
    # A leaf pair of 3 rows fits a 256 budget at M <= 42.  1000 halves to
    # 500, 250, 125 -> 126, 63 -> 64 and 32, every odd half rounded up to
    # even, so the extension pads up to 32*32 = 1024.
    assert opt_extend(1000, 256, rows=3) == (24, 5, 32)


def test_opt_extend_no_extension_needed():
    assert opt_extend(128, 256, rows=3) == (0, 2, 32)
    assert opt_extend(96, 512, rows=3) == (0, 1, 48)


def test_opt_extend_validation():
    with pytest.raises(ValueError):
        opt_extend(0, 256, rows=3)
    with pytest.raises(ValueError):
        opt_extend(100, 2, rows=3)
    with pytest.raises(ValueError, match="serial budget too small"):
        opt_extend(8, 4, rows=2)


def test_opt_extend_satisfies_split_conditions_smoke():
    for n_tilde in range(2, 200):
        k, p, m = opt_extend(n_tilde, 256, rows=3)
        order = n_tilde + k
        assert order == 2**p * m
        assert 2 * 3 * m <= 256
        assert p == 0 or m % 2 == 0
        assert order >= n_tilde
        assert k >= 0


# ----------------------------------------------------------- generators

def test_zero_fill_extension():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    assert np.array_equal(extended_generating_sequence(spec, 0), spec.gen)
    ext = extended_generating_sequence(spec, 1)
    assert ext[0] == 0.0 and np.array_equal(ext[1:], spec.gen)


def test_negative_extension_count_is_rejected():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^extension count must be nonnegative$"):
        extended_generating_sequence(spec, -1)


def test_negative_extension_count_trims_leading_zeros():
    spec = ToeplitzSpec(3, 3, [0.0, 0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(extended_generating_sequence(spec, -1), [0.0, 1.0, 2.0, 3.0])
    assert np.array_equal(extended_generating_sequence(spec, -2), [1.0, 2.0, 3.0])
    with pytest.raises(ValueError, match="^extension count must be nonnegative$"):
        extended_generating_sequence(spec, -3)


def test_echo_fill_copies_coefficients_outward():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    ext = extended_generating_sequence(spec, 2)
    # reading the new entries outward from the block reproduces the
    # generator cyclically
    assert np.array_equal(ext[:2][::-1], np.array([1.0, 2.0]))
    assert np.array_equal(ext[2:], spec.gen)


def test_echo_fill_membership():
    rng = np.random.default_rng(41)
    spec = random_spec(rng, 3, 3)
    ext = extended_generating_sequence(spec, 5)
    for value in ext[:5]:
        assert value in spec.gen


def test_auto_fill_policy_switches_on_extension_size():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    assert extended_generating_sequence(spec, 1)[0] == 0.0
    assert extended_generating_sequence(spec, 2)[0] != 0.0


# --------------------------------------------------------------- spectra

def test_spectrum_scalar_block():
    lam = circulant_spectrum(ToeplitzSpec(1, 1, [1.0]), 2)
    assert np.allclose(lam, [1.0, 1.0], atol=1e-14)


def test_spectrum_identity_block_is_flat():
    for n, order in [(4, 8), (5, 11), (6, 13)]:
        lam = circulant_spectrum(identity_spec(n), order)
        assert np.allclose(lam, 1.0, atol=1e-13)


def test_spectrum_scaled_identity_block():
    lam = circulant_spectrum(identity_spec(6, 2.5), 14)
    assert np.allclose(lam, 2.5, atol=1e-13)


def test_spectrum_reconstructs_extension():
    rng = np.random.default_rng(42)
    m, n, order = 3, 3, 6
    spec = random_spec(rng, m, n)
    lam = circulant_spectrum(spec, order)
    col = np.fft.ifft(lam)
    c = np.array([[col[(i - j) % order] for j in range(order)]
                  for i in range(order)])
    # reference circulant: genuine diagonals wherever the cyclic index maps
    # into the generator, the one arbitrary diagonal left at zero
    first = np.zeros(order, dtype=np.complex128)
    for e in range(m + n - 1):
        first[(e - m + 1) % order] = spec.gen[e]
    ref = np.array([[first[(i - j) % order] for j in range(order)]
                    for i in range(order)])
    assert np.abs(c - ref).max() < 1e-13
    # in particular the block itself sits bottom-right and the last column
    # block reads as the wrapped complement stacked over the block
    assert np.abs(c[order - m:, order - n:] - materialize(spec)).max() < 1e-13


def test_spectrum_rejects_short_order():
    with pytest.raises(ValueError):
        circulant_spectrum(identity_spec(4), 5)


# -------------------------------------------------------------- assembly

@pytest.mark.parametrize("variant, seed, n", [
    ("general", 43, 6), ("l2", 44, 5), ("gramian", 45, 6),
], ids=["general", "l2", "gramian"])
def test_identity_problem_null_space(variant, seed, n):
    # identity blocks and a unit ridge weight make the normal matrix 2I
    rng = np.random.default_rng(seed)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    eye = identity_spec(n)
    if variant == "general":
        problem = ProblemSpec.general(eye, eye, rhs)
    elif variant == "l2":
        problem = ProblemSpec.l2(eye, 1.0, rhs)
    else:
        problem = ProblemSpec.gramian(identity_gramian(n), eye, rhs)
    x, _ = null_space_solution(assemble(problem))
    assert np.abs(x - rhs / 2.0).max() < 1e-10


@pytest.mark.parametrize("n, m", [(16, 5), (16, 16), (16, 20), (512, 128)])
def test_ridge_weight_is_beta_sq_times_shifted_nodes(n, m):
    # The ridge's weight is the transform of its generator, beta_sq at
    # coefficient order - n, so while the echo fill copies only zeros
    # (order <= 3n - 2) it is beta_sq * nodes**(order - n) to a few ulps.
    # The power is taken with its exponent reduced exactly, because
    # ``nodes ** (order - n)`` is itself off by hundreds of ulps at n = 512.
    rng = np.random.default_rng(47)
    problem = ProblemSpec.l2(random_spec(rng, m, n), 1.5 - 0.5j, rng.standard_normal(m))
    system = assemble(problem)
    order = system.order
    exact = np.exp(2j * np.pi * (np.arange(order) * (order - n) % order) / order)
    err = np.abs(system.weights[0, :, 0] - problem.beta_sq * exact).max()
    assert err <= 8 * np.finfo(float).eps * problem.beta_sq


def test_coupling_identity_column_alternates_when_row_half_genuine():
    # square L with a one-entry circulant extension: the coupling slot's
    # weight alternates sign along the grid
    n = 32
    rng = np.random.default_rng(46)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    problem = ProblemSpec.gramian(identity_gramian(n), random_spec(rng, n, n),
                                  rhs)
    system = assemble(problem)
    assert system.order == 2 * n
    signs = (-1.0) ** np.arange(2 * n)
    assert np.abs(system.weights[1, :, 1] - signs).max() < 1e-12


def test_null_space_matches_dense_solution():
    rng = np.random.default_rng(47)
    for variant, make in [
        ("general", lambda n: ProblemSpec.general(
            random_spec(rng, n, n), random_spec(rng, n, n),
            rng.standard_normal(n) + 1j * rng.standard_normal(n))),
        ("l2", lambda n: ProblemSpec.l2(
            random_spec(rng, n, n), float(n) ** 0.25,
            rng.standard_normal(n) + 1j * rng.standard_normal(n))),
        ("gramian", lambda n: ProblemSpec.gramian(
            HermitianToeplitzSpec(
                n, np.concatenate([[10.0 * np.sqrt(n) + 0.0j],
                                   (rng.standard_normal(n - 1)
                                    + 1j * rng.standard_normal(n - 1))])),
            random_spec(rng, n, n),
            rng.standard_normal(n) + 1j * rng.standard_normal(n))),
    ]:
        for n in (4, 9, 16):
            problem = make(n)
            system = assemble(problem)
            x, s = null_space_solution(system)
            # the stacked matrix has one more column than rows, so a
            # one-dimensional null space means full row rank
            assert s[-1] > 1e-8 * s[0], (variant, n)
            assert rel_err(x, dense_oracle(problem)) < 1e-9, (variant, n)


def test_rectangular_general_assembly():
    rng = np.random.default_rng(48)
    t = random_spec(rng, 12, 8)
    l = random_spec(rng, 5, 8)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    problem = ProblemSpec.general(t, l, b)
    system = assemble(problem)
    x, _ = null_space_solution(system)
    assert rel_err(x, dense_oracle(problem)) < 1e-9


def test_condition_counts_and_widths():
    rng = np.random.default_rng(49)
    n = 8
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cases = [
        (ProblemSpec.general(random_spec(rng, n, n), random_spec(rng, n, n), b), 3, 7),
        (ProblemSpec.l2(random_spec(rng, n, n), 1.5, b), 2, 5),
        (ProblemSpec.gramian(identity_gramian(n), random_spec(rng, n, n), b), 2, 5),
    ]
    for problem, rows, p in cases:
        system = assemble(problem)
        assert system.rows == rows
        assert system.p == p
        assert system.weights.shape == (rows, system.order, p)
        # the tree depth the default budget of 256 sized the order for
        assert system.depth == max(opt_extend(problem.n_tilde, 256, rows)[1], 1)
        assert system.degree_bounds[0] == n
        assert system.degree_bounds[-1] == 1
        assert np.array_equal(system.tau, system.degree_bounds - 1)
        # the degree ledger balances: tau sums to conditions minus (p - 1)
        assert int(system.tau.sum()) == rows * system.order - (p - 1)


def test_conditions_have_unit_nodes_and_live_weights():
    rng = np.random.default_rng(50)
    problem = ProblemSpec.l2(random_spec(rng, 7, 7), 2.0,
                             rng.standard_normal(7) + 0j)
    system = assemble(problem)
    assert np.abs(np.abs(system.nodes) - 1.0).max() < 1e-14
    assert system.nodes.shape == (system.order,)
    # every condition (row, k) has a live weight row
    assert (np.abs(system.weights).max(axis=2) > 0.0).all()


def test_assemble_rejects_unknown_variant():
    with pytest.raises(ValueError):
        assemble(ProblemSpec(variant="ridge"))
