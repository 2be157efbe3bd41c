"""Circulant extension sizing, block spectra, and condition assembly."""

import numpy as np
import pytest

from helpers import (
    circulant_spectrum,
    dense_tikhonov,
    identity_spec,
    null_space_solution,
    random_spec,
    rel_err,
)
from toepreg.extension import (
    assemble,
    assemble_general,
    assemble_gramian,
    assemble_l2,
    extended_generating_sequence,
    opt_extend,
    opt_extend_detail,
)
from toepreg.toeplitz import HermitianToeplitzSpec, ProblemSpec, ToeplitzSpec, materialize


def identity_gramian(n: int) -> HermitianToeplitzSpec:
    col = np.zeros(n, dtype=np.complex128)
    col[0] = 1.0
    return HermitianToeplitzSpec(n, col)


# ---------------------------------------------------------------- sizing

def test_opt_extend_hand_trace():
    # 1000 halves to 63 in four steps, 3*63 fits a 256 budget, so the
    # extension pads up to 16*63 = 1008
    k, p, m = opt_extend_detail(1000, 256, rows=3, paired=False,
                                force_even=False)
    assert (k, p, m) == (8, 4, 63)


def test_opt_extend_no_extension_needed():
    k, p, m = opt_extend_detail(128, 256, rows=3, paired=False)
    assert (k, p, m) == (0, 1, 64)
    assert opt_extend(96, 512, rows=3, paired=False) == 0


def test_opt_extend_paired_rule_halves_budget():
    # paired leaves hold two node classes, so the per-leaf budget halves
    k1, p1, _ = opt_extend_detail(512, 256, rows=2, paired=False)
    k2, p2, _ = opt_extend_detail(512, 256, rows=2, paired=True)
    assert p2 == p1 + 1
    assert k1 == k2 == 0


def test_opt_extend_validation():
    with pytest.raises(ValueError):
        opt_extend(0, 256)
    with pytest.raises(ValueError):
        opt_extend(100, 2, rows=3)


def test_opt_extend_satisfies_split_conditions_smoke():
    for n_tilde in range(2, 200):
        for paired in (False, True):
            k, p, m = opt_extend_detail(n_tilde, 256, rows=3, paired=paired)
            order = n_tilde + k
            assert order == 2**p * m
            limit = 256 // 2 if paired else 256
            assert 3 * m <= limit
            assert order >= n_tilde
            assert k >= 0


# ----------------------------------------------------------- generators

def test_zero_fill_extension():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    assert np.array_equal(extended_generating_sequence(spec, 0, "zero"),
                          spec.gen)
    ext = extended_generating_sequence(spec, 1, "zero")
    assert ext[0] == 0.0 and np.array_equal(ext[1:], spec.gen)


def test_echo_fill_copies_coefficients_outward():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    ext = extended_generating_sequence(spec, 2, "echo")
    # reading the new entries outward from the block reproduces the
    # generator cyclically
    assert np.array_equal(ext[:2][::-1], np.array([1.0, 2.0]))
    assert np.array_equal(ext[2:], spec.gen)


def test_echo_fill_membership():
    rng = np.random.default_rng(41)
    spec = random_spec(rng, 3, 3)
    ext = extended_generating_sequence(spec, 5, "echo")
    for value in ext[:5]:
        assert value in spec.gen


def test_auto_fill_policy_switches_on_extension_size():
    spec = ToeplitzSpec(2, 2, [1.0, 2.0, 3.0])
    assert extended_generating_sequence(spec, 1, "auto")[0] == 0.0
    assert extended_generating_sequence(spec, 2, "auto")[0] != 0.0


def test_unknown_fill_policy():
    with pytest.raises(ValueError):
        extended_generating_sequence(identity_spec(2), 3, "mirror")


# --------------------------------------------------------------- spectra

def test_spectrum_scalar_block():
    lam = circulant_spectrum(ToeplitzSpec(1, 1, [1.0]), 2, "zero")
    assert np.allclose(lam, [1.0, 1.0], atol=1e-14)


def test_spectrum_identity_block_is_flat():
    for n, order in [(4, 8), (5, 11), (6, 13)]:
        lam = circulant_spectrum(identity_spec(n), order, "zero")
        assert np.allclose(lam, 1.0, atol=1e-13)


def test_spectrum_scaled_identity_block():
    lam = circulant_spectrum(identity_spec(6, 2.5), 14, "zero")
    assert np.allclose(lam, 2.5, atol=1e-13)


def test_spectrum_reconstructs_extension():
    rng = np.random.default_rng(42)
    m, n, order = 3, 3, 6
    spec = random_spec(rng, m, n)
    lam = circulant_spectrum(spec, order, "zero")
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
        circulant_spectrum(identity_spec(4), 5, "zero")


# -------------------------------------------------------------- assembly

def test_general_identity_problem_null_space():
    rng = np.random.default_rng(43)
    b = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    problem = ProblemSpec.general(identity_spec(6), identity_spec(6), b)
    system = assemble_general(problem)
    x, _ = null_space_solution(system)
    assert np.abs(x - b / 2.0).max() < 1e-10


def test_l2_identity_problem_null_space():
    rng = np.random.default_rng(44)
    b = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    problem = ProblemSpec.l2(identity_spec(5), 1.0, b)
    system = assemble_l2(problem)
    x, _ = null_space_solution(system)
    assert np.abs(x - b / 2.0).max() < 1e-10


def test_gramian_identity_problem_null_space():
    rng = np.random.default_rng(45)
    rhs = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    problem = ProblemSpec.gramian(identity_gramian(6), identity_spec(6), rhs)
    system = assemble_gramian(problem)
    x, _ = null_space_solution(system)
    assert np.abs(x - rhs / 2.0).max() < 1e-10


def test_coupling_identity_column_alternates_when_row_half_genuine():
    # square L with a one-entry circulant extension: the coupling slot's
    # weight alternates sign along the grid
    n = 32
    rng = np.random.default_rng(46)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    problem = ProblemSpec.gramian(identity_gramian(n), random_spec(rng, n, n),
                                  rhs)
    system = assemble_gramian(problem)
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
            assert rel_err(x, dense_tikhonov(problem)) < 1e-9, (variant, n)


def test_rectangular_general_assembly():
    rng = np.random.default_rng(48)
    t = random_spec(rng, 12, 8)
    l = random_spec(rng, 5, 8)
    b = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    problem = ProblemSpec.general(t, l, b)
    system = assemble(problem)
    x, _ = null_space_solution(system)
    assert rel_err(x, dense_tikhonov(problem)) < 1e-9


def test_condition_counts_and_widths():
    rng = np.random.default_rng(49)
    n = 8
    b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    cases = [
        (assemble_general(ProblemSpec.general(
            random_spec(rng, n, n), random_spec(rng, n, n), b)), 3, 7),
        (assemble_l2(ProblemSpec.l2(random_spec(rng, n, n), 1.5, b)), 2, 5),
        (assemble_gramian(ProblemSpec.gramian(
            identity_gramian(n), random_spec(rng, n, n), b)), 2, 5),
    ]
    for system, rows, p in cases:
        assert system.rows == rows
        assert system.p == p
        assert system.condition_count() == rows * system.order
        assert system.solution_slot == 0
        assert system.const_slot == p - 1
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
    for row in range(system.rows):
        for k in range(system.order):
            cond = system.condition(row, k)
            assert np.abs(cond.weights).max() > 0.0
            assert cond.row_tag == row and cond.index == k
            assert cond.node == system.nodes[k]


def test_assemble_rejects_unknown_variant():
    with pytest.raises(ValueError):
        assemble(ProblemSpec(variant="ridge"))
