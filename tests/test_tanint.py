"""Shifted-degree bookkeeping and both basis constructors."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import toepreg.tanint as tanint
from helpers import (
    NEG_INF,
    all_conditions,
    assert_order_basis,
    basis_residuals,
    identity_poly,
    poly_eval,
    random_spec,
    rel_err,
    residual,
    serial_tan_int,
    single_point_basis,
    tau_degree,
)
from toepreg.experiments import VARIANTS, random_problem
from toepreg.extension import AssembledSystem, assemble, opt_extend
from toepreg.fftpoly import MatrixPoly, matpoly_multiply
from toepreg.solver import dense_oracle, relative_residual
from toepreg.tanint import (
    SingularSystemError,
    TanIntDiagnostics,
    extract_solution,
    rec_tan_int,
)
from toepreg.toeplitz import ProblemSpec


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def l2_problem(rng, n: int) -> ProblemSpec:
    return ProblemSpec.l2(random_spec(rng, n, n), float(n) ** 0.25,
                          crandn(rng, n))


@pytest.fixture(autouse=True)
def _sweeps_keep_their_length_bound(monkeypatch):
    """Every library sweep a test here runs returns a basis at most one
    coefficient longer than its conditions: each absorbed condition
    lengthens one column by one, from 1."""
    core = tanint._serial_core

    def bounded(nodes, *args):
        coeffs, factor, deferred = core(nodes, *args)
        assert coeffs.shape[2] <= len(nodes) + 1
        return coeffs, factor, deferred

    monkeypatch.setattr(tanint, "_serial_core", bounded)


# ------------------------------------------------------------ tau degree

def test_tau_degree_mixed():
    q = np.array([[0.0, 0.0, 1.0], [1.0, 0.0, 0.0]])   # [z**2, 1]
    assert tau_degree(q, [1, 3]) == 1


def test_tau_degree_zero_vector():
    assert tau_degree(np.zeros((2, 3)), [1, 1]) is NEG_INF


def test_tau_degree_balances_shifts():
    q = np.zeros((2, 6))
    q[0, 0] = 1.0   # degree 0 against shift 0
    q[1, 5] = 1.0   # degree 5 against shift 5
    assert tau_degree(q, [0, 5]) == 0


# -------------------------------------------------------------- residual

def test_residual_direct_evaluation():
    rng = np.random.default_rng(61)
    q = crandn(rng, 3, 5)
    nodes = np.exp(2j * np.pi * np.arange(7) / 7)
    weights = np.array([crandn(rng, 3) for _ in range(7)])
    ref = max(abs(w @ poly_eval(q, z)) for z, w in zip(nodes, weights))
    assert residual(q, nodes, weights) == ref


def test_residual_ignores_masked_slot():
    q = np.zeros((2, 1))
    q[0, 0] = 5.0   # constant e_0, weight zero in that slot
    assert residual(q, [1.0 + 0.0j], [np.array([0.0, 3.0 + 0.0j])]) == 0.0


# ---------------------------------------------------- single point basis

def test_single_point_basis_frozen_case():
    factor, pivot = single_point_basis([2.0, -4.0], 1.0j, [0, 1])
    assert pivot == 0
    expect = np.zeros((2, 2, 2), dtype=np.complex128)
    expect[0, 0, 0] = -1.0j   # z - i on the pivot diagonal
    expect[0, 0, 1] = 1.0
    expect[0, 1, 0] = 2.0     # -w_1 / w_0
    expect[1, 1, 0] = 1.0
    assert np.allclose(factor.coeffs, expect, atol=1e-15)
    # both columns satisfy the condition at the node
    vals = poly_eval(factor.coeffs, 1.0j)
    assert np.abs(np.array([2.0, -4.0]) @ vals).max() < 1e-14


def test_single_point_basis_elementary_weights():
    factor, pivot = single_point_basis([0.0, 1.0, 0.0], 0.5 + 0.5j, [0, 0, 0])
    assert pivot == 1
    node_poly = factor.coeffs[1, 1]
    assert np.allclose(node_poly, [-(0.5 + 0.5j), 1.0])
    off = factor.coeffs.copy()
    off[1, 1] = 0.0
    ident = np.zeros_like(off)
    ident[0, 0, 0] = ident[2, 2, 0] = 1.0
    assert np.array_equal(off, ident)


def test_single_point_basis_random_residuals():
    rng = np.random.default_rng(62)
    w = crandn(rng, 5)
    node = np.exp(2j * np.pi * rng.uniform())
    factor, _ = single_point_basis(w, node, np.zeros(5, dtype=int))
    vals = poly_eval(factor.coeffs, node)
    assert np.abs(w @ vals).max() < 1e-13 * np.abs(w).max()


def test_single_point_basis_respects_degree_candidates():
    # column 1 has the larger weight but is excluded by its degree
    _, pivot = single_point_basis([1.0, 100.0], 1.0, [0, 1])
    assert pivot == 0


def test_single_point_basis_underflow():
    with pytest.raises(SingularSystemError):
        single_point_basis([1e-12, 1.0], 1.0, [0, 1])
    with pytest.raises(SingularSystemError):
        single_point_basis([0.0, 0.0], 1.0, [0, 0])


# ------------------------------------------------------------ store

def _log_trips(patch, count):
    """Log, through ``patch``, every trip of the next library sweep over
    ``count`` conditions, none of them all-zero, as its rank-one update
    sees it; the sweep must defer none.  A trip is (t, j, mu, block): the
    condition absorbed, the one residual row zeroed since the last trip;
    the pivot column, the store column the update's ``head`` copies; the
    mixing vector; and a copy of the store's coefficient block before the
    update, which holds the basis the earlier trips left."""
    trips, zgeru = [], tanint._zgeru
    res = -(-count // tanint._STORE_MIN_ROWS) * tanint._STORE_MIN_ROWS

    def logged(alpha, head, mu, a, overwrite_a):
        taken = {trip[0] for trip in trips}
        zeroed = [t for t in np.flatnonzero(~a[:count].any(axis=1))
                  if t not in taken]
        pivot = [k for k in range(a.shape[1]) if _same_bits(a[:, k], head)]
        assert len(zeroed) == 1 and len(pivot) == 1
        trips.append((int(zeroed[0]), pivot[0], mu.copy(), a[res:].copy()))
        return zgeru(alpha, head, mu, a=a, overwrite_a=overwrite_a)

    patch.setattr(tanint, "_zgeru", logged)
    return trips


def _full_cube_step(c, j, node, mu):
    """The sweep's update applied to every slot of the cube."""
    head = c[:, j, :].copy()
    assert not head[:, -1].any()
    c += mu[None, :, None] * head[:, None, :]
    c[:, j, :] = -node * head
    c[:, j, 1:] += head[:, :-1]


def _assert_close_by_column(a, b, tol=1e-12):
    """Two (p, p, length) coefficient arrays agree to ``tol`` of each
    column's largest entry in ``b``."""
    assert a.shape == b.shape
    bound = tol * np.abs(b).max(axis=(0, 2))
    assert (np.abs(a - b).max(axis=(0, 2)) <= bound).all()


def _assert_true_lengths(basis, lens, ref):
    """A (p, p, length) basis is as long as its longest column by ``lens``,
    is exactly zero past each column's length, and holds the whole-cube
    update's coefficients ``ref`` to rounding, which have nothing past it."""
    length = basis.shape[2]
    assert length == max(lens)
    for k, n in enumerate(lens):
        assert not basis[:, k, n:].any()
    assert np.abs(basis[:, :, -1]).max() > 0.0
    _assert_close_by_column(basis, ref[:, :, :length])
    assert not ref[:, :, length:].any()


def test_sweep_tracks_true_column_lengths(monkeypatch):
    # Conditions blind to column 2, which starts too high to pivot, mix it
    # with mu_2 = 0 at every trip, so it keeps length 1.  Columns 1 and 3
    # start higher than column 0, so they are mixed with longer pivots and
    # take their lengths before they pivot themselves.  After every trip
    # the store's coefficients are exactly zero past each column's length
    # and hold the whole-cube update's to rounding, and the basis, as long
    # as its longest column, is at most one coefficient longer.
    rng = np.random.default_rng(72)
    p, count = 4, 24
    weights = crandn(rng, count, p)
    weights[:, 2] = 0.0
    nodes = np.exp(2j * np.pi * rng.uniform(size=count))
    trips = _log_trips(monkeypatch, count)
    coeffs, factor, deferred = tanint._serial_core(
        nodes, weights, _refs(count), np.array([0, 2, 99, 4]), 1e-8, False)
    assert deferred == [] and len(trips) == count
    ref = np.zeros((p, p, count + 1), dtype=np.complex128)
    ref[:, :, 0] = np.eye(p)
    lens = [1] * p
    after = [trip[3] for trip in trips[1:]] + [None]
    for (t, j, mu, _), block in zip(trips, after):
        _full_cube_step(ref, j, nodes[t], mu)
        lj, length = lens[j], max(lens)
        lens = [max(n, lj) if m else n for n, m in zip(lens, mu.tolist())]
        lens[j] = lj + 1
        assert max(lens) <= length + 1
        if block is None:
            break
        for k in range(p):
            assert not block[lens[k] * p:, k].any()
        length = max(lens)
        basis = block[:length * p].reshape(p, length, p, order="F")
        _assert_true_lengths(basis.transpose(0, 2, 1), lens, ref)
    assert lens[2] == 1 and min(lens) < max(lens)
    # the sweep returns its basis column-normalized
    colmax = np.abs(ref).max(axis=(0, 2))
    assert factor == pytest.approx(colmax.max(), rel=1e-12)
    ref /= colmax[None, :, None]
    _assert_true_lengths(coeffs, lens, ref)
    assert np.array_equal(coeffs[:, 2, 0], np.eye(p)[2])


def test_store_size_leaves_the_sweep_bits_alone(monkeypatch):
    # A store pre-sized to the sweep's largest basis and one doubling from
    # the minimum give the BLAS update power-of-two row counts, so every
    # basis row takes the same kernel path and the sweeps leave equal bits,
    # in a shuffled and in natural order.  Sweeps of 61, 97 and 130
    # conditions, counts that are not a multiple of the store's rows (as
    # the cleanup sweep's count can be), pad the residual rows that share
    # the update, and leave equal bits too.
    build = tanint._store
    rng = np.random.default_rng(74)
    system = assemble(random_problem("general", 64, rng))
    for order in (rng.permutation(system.order), np.arange(system.order)):
        conditions = tanint._flatten(system.weights, system.nodes, order)
        for count in (61, 97, 130, len(conditions[0])):
            nodes, weights, refs = (part[:count] for part in conditions)
            found = []
            for presize in (False, True):
                stores = []

                def sized(rows, block, have, presize=presize, count=count):
                    while presize and have < (count + 1) * system.p:
                        have *= 2
                    store, res = build(rows, block, have)
                    stores.append((res, store))
                    return store, res

                monkeypatch.setattr(tanint, "_store", sized)
                cd = -system.tau
                coeffs, factor, _ = tanint._serial_core(nodes, weights, refs,
                                                        cd, 1e-8, True)
                res, store = stores[-1]
                assert res % tanint._STORE_MIN_ROWS == 0 and res >= count
                rows = store.shape[0] - res
                assert rows & (rows - 1) == 0 and store.flags.f_contiguous
                found.append((rows, coeffs, factor, cd))
            # the pre-sized store never grew again
            assert len(stores) == 1
            (rows, *grown_bits), (full_rows, *presized) = found
            assert rows < 2 * coeffs.shape[2] * system.p < full_rows
            for a, b in zip(grown_bits, presized):
                assert _same_bits(a, b)


def test_step_raises_on_a_store_it_cannot_update_in_place(monkeypatch):
    # Handed a copy of the store, zgeru updates the copy and returns it; the
    # sweep raises instead of dropping the update, leaves the store as it
    # was, and still writes back the ledger of the trip it finished.
    calls, zgeru = [], tanint._zgeru

    def copying(alpha, head, mu, a, overwrite_a):
        calls.append((a, a.copy()))
        if len(calls) == 2:
            a = a.copy()
        return zgeru(alpha, head, mu, a=a, overwrite_a=overwrite_a)

    monkeypatch.setattr(tanint, "_zgeru", copying)
    rng = np.random.default_rng(73)
    nodes, weights = np.array([1.0, 1j, -1.0]), crandn(rng, 3, 4)
    cd = np.zeros(4, dtype=np.int64)
    with pytest.raises(RuntimeError, match="in place"):
        tanint._serial_core(nodes, weights, _refs(3), cd, 1e-8, False)
    store, before = calls[-1]
    assert len(calls) == 2 and _same_bits(store, before)
    assert cd.sum() == 1 and cd.max() == 1
    # Its 128 x 4 store, updated in one-column groups or in chunks of 64
    # rows, raises on a copy of the second piece of the first trip, and no
    # trip finishes.
    for size in (128, 64):
        monkeypatch.setattr(tanint, "_SERIAL_BLAS_SIZE", size)
        calls.clear()
        cd = np.zeros(4, dtype=np.int64)
        with pytest.raises(RuntimeError, match="in place"):
            tanint._serial_core(nodes, weights, _refs(3), cd, 1e-8, False)
        assert [a.size for a, _ in calls] == [size, size]
        assert calls[0][0].base is calls[1][0].base
        assert not cd.any()


def test_each_step_lengthens_the_basis_by_at_most_one():
    # The pivot column grows by one and a column mixed with it reaches its
    # old length, so K steps leave a basis at most K + 1 long.  Column 1
    # starts too high to pivot, so each condition pivots on column 0 and is
    # mixed into column 1: K conditions leave lengths K + 1 and K.
    rng = np.random.default_rng(71)
    nodes = np.array([1.0, -1.0, 1j])
    weights = crandn(rng, 3, 2)
    for k in (1, 2, 3):
        coeffs, _, deferred = tanint._serial_core(
            nodes[:k], weights[:k], _refs(k), np.array([0, 9]), 1e-8, False)
        assert deferred == [] and coeffs.shape == (2, 2, k + 1)
        assert _column_lengths(coeffs).tolist() == [k + 1, k]
    # over two columns, the third condition pivots on a column of length 2
    rng = np.random.default_rng(78)
    nodes = np.exp(2j * np.pi * rng.uniform(size=3))
    coeffs, _, deferred = tanint._serial_core(
        nodes, crandn(rng, 3, 2), [(k, 0) for k in range(3)],
        np.zeros(2, dtype=np.int64), 1e-8, False)
    assert deferred == [] and coeffs.shape == (2, 2, 3)


# ------------------------------------------------------ serial constructor

def test_serial_empty_conditions_identity():
    basis, cd, deferred = serial_tan_int(np.empty(0), np.empty((0, 3)), [],
                                         [-2, -1, 0])
    assert deferred == []
    assert np.array_equal(basis.coeffs, identity_poly(3).coeffs)
    assert np.array_equal(cd, [-2, -1, 0])


def test_serial_single_condition_equals_elementary_factor():
    rng = np.random.default_rng(63)
    w = crandn(rng, 4)
    basis, cd, deferred = serial_tan_int(np.array([1.0j]), w[None, :], [(0, 0)],
                                         [0, 0, 0, 0])
    factor, pivot = single_point_basis(w, 1.0j, [0, 0, 0, 0])
    assert deferred == []
    assert np.allclose(basis.coeffs, factor.coeffs, atol=1e-15)
    assert cd[pivot] == 1


def test_serial_full_small_problem():
    rng = np.random.default_rng(64)
    problem = l2_problem(rng, 8)
    system = assemble(problem)
    basis, cd, deferred = serial_tan_int(*all_conditions(system), -system.tau)
    assert deferred == []
    assert np.count_nonzero(cd == 0) == 1
    assert np.count_nonzero(cd == 1) == system.p - 1
    assert np.abs(basis.coeffs[:, :, -1]).max() > 0.0
    x = extract_solution(basis, cd, problem.n)
    assert rel_err(x, dense_oracle(problem)) < 1e-9


def test_serial_prefix_monotonicity():
    rng = np.random.default_rng(65)
    problem = l2_problem(rng, 8)
    system = assemble(problem)
    nodes, weights, refs = all_conditions(system)
    for count in range(1, len(nodes) + 1):
        _, cd, deferred = serial_tan_int(nodes[:count], weights[:count],
                                         refs[:count], -system.tau)
        assert not deferred
        assert int(cd.sum()) == int(-system.tau.sum()) + count
        spread = cd.max() - cd.min()
        assert spread <= max(int(system.tau.max() - system.tau.min()), 1)


def test_serial_defer_flag_controls_failure_mode():
    rng = np.random.default_rng(66)
    w = crandn(rng, 3)
    twice = (np.array([1.0 + 0.0j, 1.0 + 0.0j]), np.array([w, w]), [(0, 0), (1, 0)])
    basis, _, deferred = serial_tan_int(*twice, [0, 0, 0])
    # the repeated condition is annihilated by the first factor
    assert deferred == [(1, 0)]
    with pytest.raises(SingularSystemError):
        serial_tan_int(*twice, [0, 0, 0], defer=False)
    # so it is at every 64th root of unity, where the rank-one update
    # leaves it as rounding noise rather than an exact zero
    for node in np.exp(2j * np.pi * np.arange(64) / 64):
        twice = (np.array([node, node]), np.array([w, w]), [(0, 0), (1, 0)])
        _, _, deferred = serial_tan_int(*twice, [0, 0, 0])
        assert deferred == [(1, 0)]
        with pytest.raises(SingularSystemError):
            serial_tan_int(*twice, [0, 0, 0], defer=False)


def test_composed_halves_interpolate_everything():
    rng = np.random.default_rng(67)
    problem = l2_problem(rng, 8)
    system = assemble(problem)
    nodes, weights, refs = all_conditions(system)
    kappa = 17
    left, cd, deferred = serial_tan_int(nodes[:kappa], weights[:kappa],
                                        refs[:kappa], -system.tau)
    assert not deferred
    updated = np.array([w @ poly_eval(left.coeffs, z)
                        for z, w in zip(nodes[kappa:], weights[kappa:])])
    right, _, deferred = serial_tan_int(nodes[kappa:], updated, refs[kappa:], cd)
    assert not deferred
    basis = matpoly_multiply(left, right)
    scale = np.abs(weights).max()
    for j in range(system.p):
        assert residual(basis.coeffs[:, j, :], nodes, weights) < 1e-8 * scale


# --------------------------------------------------- recursive constructor

def test_recursive_small_system_matches_serial_exactly():
    rng = np.random.default_rng(68)
    problem = l2_problem(rng, 16)
    system = assemble(problem)
    serial_basis, serial_cd, _ = serial_tan_int(*all_conditions(system),
                                                -system.tau)
    rec_basis, rec_cd, _ = rec_tan_int(system)
    assert np.array_equal(serial_cd, rec_cd)
    assert np.array_equal(serial_basis.coeffs, rec_basis.coeffs)


def test_recursive_matches_serial_through_splits():
    rng = np.random.default_rng(69)
    n = 64
    problem = ProblemSpec.general(random_spec(rng, n, n),
                                  random_spec(rng, n, n), crandn(rng, n))
    system = assemble(problem, n_lim=64)
    serial_basis, serial_cd, _ = serial_tan_int(*all_conditions(system),
                                                -system.tau)
    rec_basis, rec_cd, _ = rec_tan_int(system)
    x_serial = extract_solution(serial_basis, serial_cd, n)
    x_rec = extract_solution(rec_basis, rec_cd, n)
    assert rel_err(x_rec, x_serial) < 1e-9
    assert rel_err(x_rec, dense_oracle(problem)) < 1e-9


def test_recursive_defers_few_points_at_scale():
    rng = np.random.default_rng(70)
    problem = l2_problem(rng, 512)
    system = assemble(problem)
    basis, _, deferred = _assert_tree_certified(system)
    assert len(deferred) < 0.05 * system.rows * system.order
    # deferred or not, the final basis satisfies every condition
    res = np.abs(basis_residuals(system, basis)).max()
    assert res < 1e-8 * np.abs(system.weights).max()


def _leaf_indices(order, o, stride):
    """Node indices of the tree node {o, o + 1} mod stride (all at the root)."""
    k = np.arange(order)
    return k[(k % stride == o) | (k % stride == (o + 1) % stride)]


def _record_leaves(monkeypatch):
    """Patch the engine to log (conditions, basis coeffs, o, stride) of every
    leaf; returns the log."""
    leaves = []
    serial_leaf = tanint._Engine._serial_leaf

    def leaf(self, o, stride):
        basis = serial_leaf(self, o, stride)
        count = self.rows * len(_leaf_indices(self.order, o, stride))
        leaves.append((count, basis.coeffs, o, stride))
        return basis

    monkeypatch.setattr(tanint._Engine, "_serial_leaf", leaf)
    return leaves


def test_leaf_bases_carry_no_dead_tail(monkeypatch):
    # Every condition raises only its pivot column, and a square general
    # system spreads a leaf's K conditions evenly over p - 1 columns.
    system = assemble(random_problem("general", 2048, np.random.default_rng(1)))
    leaves = _record_leaves(monkeypatch)
    basis, _, deferred = rec_tan_int(system)
    assert not deferred
    p = system.p
    assert [k for k, *_ in leaves] == [192] * 64 and p == 7
    for k, coeffs, *_ in leaves:
        assert coeffs.shape == (p, p, k // (p - 1) + 1)
        assert np.abs(coeffs[:, :, -1]).max() > 0.0
    assert np.abs(basis.coeffs[:, :, -1]).max() > 0.0


@pytest.mark.parametrize("variant", VARIANTS)
def test_tree_leaves_are_the_coset_pairs_opt_extend_sized(monkeypatch, variant):
    # opt_extend sizes N = 2**p * M; the tree's leaves are the pairs of
    # M-node cosets at stride 2**p, 2 * rows * M conditions each, or the
    # root alone when p <= 1, which holds rows * M conditions when p = 0.
    # The second shape has an odd n_tilde, so an unsplit root has odd order.
    leaves = _record_leaves(monkeypatch)
    for n in (1, 5, 16, 37, 100):
        odd = {"p": n + 1} if variant == "gramian" else {"m": n + 1}
        for shape in ({}, odd):
            problem = random_problem(variant, n, np.random.default_rng(n), **shape)
            rows = len(problem.factors) + 1
            for n_lim in (8, 16, 64, 256):
                if 4 * rows > n_lim:   # below opt_extend's smallest leaf pair
                    continue
                system = assemble(problem, n_lim=n_lim)
                _, p, m = opt_extend(problem.n_tilde, n_lim, rows=rows)
                assert system.depth == max(p, 1)
                leaves.clear()
                diag = TanIntDiagnostics()
                rec_tan_int(system, diagnostics=diag)
                found = np.concatenate([_leaf_indices(system.order, o, s)
                                        for *_, o, s in leaves])
                assert np.array_equal(np.sort(found), np.arange(system.order))
                assert all(k <= n_lim for k, *_ in leaves)
                per_leaf = rows * m * min(2 ** p, 2)
                assert [k for k, *_ in leaves] == [per_leaf] * 2 ** (system.depth - 1)
                if p <= 1:
                    assert [(o, s) for *_, o, s in leaves] == [(0, 2)]
                else:
                    pairs = sorted((o, s) for *_, o, s in leaves)
                    assert pairs == [(o, 2 ** p) for o in range(0, 2 ** p, 2)]
                assert diag.recursion_depth == max(p, 1)


def test_tree_depth_must_fit_the_order():
    # A tree of depth d >= 2 splits down to stride 2**d, which must divide
    # the order, and every tree has at least its root, at depth 1.
    system = assemble(random_problem("general", 37, np.random.default_rng(8)))
    order = system.order
    parts = (system.n, order, system.degree_bounds, system.weights)
    depth = next(d for d in range(2, 64) if order % 2 ** d)
    AssembledSystem(*parts, depth - 1)
    for bad in (depth, depth + 1, 0):
        with pytest.raises(ValueError):
            AssembledSystem(*parts, bad)


def _rect_problem(n: int, shape: str):
    """General problem of a shape that defers: m = n/4 data rows, or a
    one-row regularizer."""
    m, p = (n // 4, n) if shape == "m=n/4" else (n, 1)
    rng = np.random.default_rng(np.random.SeedSequence((73, n, p)))
    return random_problem("general", n, rng, m=m, p=p)


@pytest.mark.parametrize("shape", ["m=n/4", "p=1"])
@pytest.mark.parametrize("n", [128, 256])
def test_batched_cleanup_matches_full_basis_reference(n, shape):
    # The cleanup folds the deferred conditions into the full tree basis,
    # which comes out a reduced order basis for every condition, and whose
    # solution matches the dense reference.
    problem = _rect_problem(n, shape)
    diag = TanIntDiagnostics()
    basis, cd, _ = _assert_tree_certified(assemble(problem), diag)
    assert diag.difficult_points > 0
    _assert_solves(problem, basis, cd)


def test_cleanup_pivot_underflow_is_singular():
    # An all-zero condition is deferred by its leaf and leaves the cleanup
    # no pivot at all.
    system = assemble(_rect_problem(128, "m=n/4"))
    weights = system.weights.copy()
    weights[0, 5, :] = 0.0
    broken = AssembledSystem(system.n, system.order,
                             system.degree_bounds, weights, system.depth)
    with pytest.raises(SingularSystemError):
        rec_tan_int(broken)


def test_cleanup_sweeps_deferred_conditions_once(monkeypatch):
    sweeps, products, trees = [], [], []
    serial_core, multiply = tanint._serial_core, tanint.matpoly_multiply
    cleanup = tanint._Engine._cleanup

    def core(nodes, weights, refs, col_degrees, threshold, defer):
        sweeps.append((len(nodes), defer))
        return serial_core(nodes, weights, refs, col_degrees, threshold, defer)

    def product(a, b):
        if trees:
            products.append((a.length, b.length))
        return multiply(a, b)

    def traced_cleanup(self, tree):
        trees.append(tree.length)
        return cleanup(self, tree)

    monkeypatch.setattr(tanint, "_serial_core", core)
    monkeypatch.setattr(tanint, "matpoly_multiply", product)
    monkeypatch.setattr(tanint._Engine, "_cleanup", traced_cleanup)
    # The tree and the cleanup take their budget from the assembled system,
    # so a budget below the default holds without being passed again.
    for n_lim in (256, 64):
        system = assemble(_rect_problem(512, "m=n/4"), n_lim=n_lim)
        sweeps.clear()
        products.clear()
        trees.clear()
        diag = TanIntDiagnostics()
        rec_tan_int(system, diagnostics=diag)
        assert list(diag.as_dict()) == ["conditions_total", "difficult_points",
                                        "recursion_depth", "max_column_scale"]
        # Every condition is swept once in its leaf, and no leaf outgrows
        # the budget; the deferred ones, more than a leaf holds, are swept
        # once more, all in one cleanup sweep.
        leaves = [k for k, defer in sweeps if defer]
        assert sum(leaves) == diag.conditions_total and max(leaves) <= n_lim
        assert [k for k, defer in sweeps if not defer] == [diag.difficult_points]
        assert diag.difficult_points > n_lim
        # The cleanup makes one product, with the tree basis.
        assert len(products) == 1 and products[0][0] == trees[0]


def _log_updates(patch):
    """Log, through ``patch``, each ``zgeru`` call of the library's sweeps
    as (shape of the array it was given, whether it returned that array)."""
    calls, zgeru = [], tanint._zgeru

    def logged(alpha, head, mu, a, overwrite_a):
        out = zgeru(alpha, head, mu, a=a, overwrite_a=overwrite_a)
        calls.append((a.shape, out is a))
        return out

    patch.setattr(tanint, "_zgeru", logged)
    return calls


def _assert_serial_updates(calls):
    """Every logged update wrote its array in place and was small enough
    for OpenBLAS to run on one thread."""
    assert all(in_place for _, in_place in calls)
    assert max(rows * cols for (rows, cols), _ in calls) <= tanint._SERIAL_BLAS_SIZE


def test_rank_one_updates_stay_below_the_blas_threading_size(monkeypatch):
    # The cleanup store of a 1-row L at n=512 reaches 3072 x 7 = 21,504
    # elements; its update goes in column groups, each below the size past
    # which OpenBLAS threads zger, and the solve keeps the bits of one
    # whole-store call per trip.
    system = assemble(_rect_problem(512, "p=1"))
    found = []
    for size in (tanint._SERIAL_BLAS_SIZE, 10**9):
        with monkeypatch.context() as patch:
            patch.setattr(tanint, "_SERIAL_BLAS_SIZE", size)
            calls = _log_updates(patch)
            diag = TanIntDiagnostics()
            basis, cd, deferred = rec_tan_int(system, diagnostics=diag)
        found.append((calls, basis.coeffs, cd, deferred))
    (split, coeffs, cd, deferred), (whole, *unsplit) = found
    _assert_serial_updates(split)
    assert diag.difficult_points > 0 and len(split) > len(whole)
    assert max(rows * cols for (rows, cols), _ in whole) > tanint._SERIAL_BLAS_SIZE
    assert _same_bits(coeffs, unsplit[0]) and _same_bits(cd, unsplit[1])
    assert deferred == unsplit[2]
    # A system that defers nothing keeps every leaf store whole: one call
    # per absorbed condition.
    calls = _log_updates(monkeypatch)
    diag = TanIntDiagnostics()
    rec_tan_int(assemble(random_problem("general", 128, np.random.default_rng(7))),
                diagnostics=diag)
    assert diag.difficult_points == 0
    assert len(calls) == diag.conditions_total
    _assert_serial_updates(calls)


@pytest.mark.parametrize("res, have", [(256, 512), (2816, 128), (8064, 1024)])
def test_update_pieces_tile_the_store(res, have):
    # Stores of 768, 2944 and 9088 rows on 7 columns, as a leaf, a rect
    # cleanup and a 1-row L's cleanup at n = 2048 reach: the whole store,
    # column groups, and single-column chunks.  The pieces cover every
    # element once, each within the BLAS threading size, as views of the
    # store, the pivot column buffer and the multipliers.
    p, size = 7, tanint._SERIAL_BLAS_SIZE
    store, _ = tanint._store(np.zeros((res, p)), np.eye(p), have)
    rows = len(store)
    mu = np.empty(p, dtype=np.complex128)
    _, head, pieces, _ = tanint._views(store, res, res, mu)
    hits = np.zeros(store.shape, dtype=int)
    for x, y, a in pieces:
        assert a.size <= size and a.flags.f_contiguous and a.base is store
        start = (a.ctypes.data - store.ctypes.data) // store.itemsize
        r, c = start % rows, start // rows
        hits[r:r + a.shape[0], c:c + a.shape[1]] += 1
        assert x.base is head and x.ctypes.data == head[r:].ctypes.data
        assert y.base is mu and y.ctypes.data == mu[c:].ctypes.data
        assert (len(x), len(y)) == a.shape
    assert (hits == 1).all()
    assert len(pieces) == {768: 1, 2944: 4, 9088: 14}[rows]


def test_compaction_leaves_the_sweep_bits_alone(monkeypatch):
    # One sweep over all 3072 conditions of a rect system drops its retired
    # residual rows at 3072, 1536 and 768 rows; the stable order keeps the
    # row rule's first row in the tie window, and every row is copied
    # exactly, so the sweep takes the same decisions and leaves the same
    # bits as one that never compacts.  Three all-zero conditions are
    # deferred last, after the compactions, under their own refs.
    system = assemble(_rect_problem(512, "m=n/4"))
    nodes, weights, refs = tanint._flatten(system.weights, system.nodes,
                                           np.arange(system.order))
    assert len(nodes) == 3072
    zero = [100, 1700, 2900]
    weights[zero] = 0.0
    found, build = [], tanint._store
    for trigger in (tanint._COMPACT_MIN_ROWS, 10**9):
        monkeypatch.setattr(tanint, "_COMPACT_MIN_ROWS", trigger)
        blocks, built = [], []

        def logged(rows, block, have):
            # A compaction keeps fewer rows than the residual block holds;
            # a doubling keeps them all.
            if built and len(rows) < built[-1]:
                blocks.append((built[-1], len(rows)))
            store, res = build(rows, block, have)
            built.append(res)
            return store, res

        monkeypatch.setattr(tanint, "_store", logged)
        cd = -system.tau
        coeffs, factor, deferred = tanint._serial_core(
            nodes, weights, refs, cd, tanint._PIVOT_THRESHOLD, True)
        found.append((blocks, coeffs, factor, deferred, cd))
    (blocks, *compacted_bits), (never, *whole_bits) = found
    assert blocks == [(3072, 1536), (1536, 768), (768, 384)] and never == []
    coeffs, factor, deferred, cd = compacted_bits
    assert _same_bits(coeffs, whole_bits[0]) and factor == whole_bits[1]
    assert deferred == whole_bits[2] == [refs[t] for t in zero]
    assert _same_bits(cd, whole_bits[3])


def test_cleanup_solves_a_one_row_regularizer_at_2048(monkeypatch):
    # 4088 of its 12288 conditions are deferred.  Swept in leaf-sized
    # batches, they leave a relative residual of 3.8e-6; in one sweep, 3e-9.
    # Its cleanup store passes 8192 rows, so the update goes in single-column
    # chunks of 8192 rows.
    problem = _rect_problem(2048, "p=1")
    calls = _log_updates(monkeypatch)
    diag = TanIntDiagnostics()
    basis, cd, _ = rec_tan_int(assemble(problem), diagnostics=diag)
    x = extract_solution(basis, cd, problem.n)
    assert diag.difficult_points > 0
    assert relative_residual(problem, x) < 1e-8
    _assert_serial_updates(calls)
    assert ((tanint._SERIAL_BLAS_SIZE, 1), True) in calls


_THREADED_SOLVE = """
import hashlib
import numpy as np
from test_tanint import _rect_problem
from toepreg.solver import solve_tikhonov

report = solve_tikhonov(_rect_problem(512, "p=1"))
print(report.diagnostics.difficult_points)
for part in (report.x_hat, report.basis.coeffs):
    print(hashlib.sha256(np.ascontiguousarray(part).tobytes()).hexdigest())
"""


def test_cleanup_bits_do_not_depend_on_blas_threads():
    # The cleanup sweep's store on a 1-row L at n=512, 3072 rows by 7, is
    # past OpenBLAS's threading size for the rank-one update.  The sweep
    # updates it in pieces below that size, each on one thread whatever the
    # setting, and with alpha = 1 a piece gets the products and sums of the
    # whole-store call: one and two BLAS threads solve alike.
    tests = Path(__file__).resolve().parent
    src = str(Path(tanint.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, str(tests),
                                         os.environ.get("PYTHONPATH")]))
    found = []
    for threads in ("1", "2"):
        env = {**os.environ, "PYTHONPATH": path, "OPENBLAS_NUM_THREADS": threads,
               "OMP_NUM_THREADS": threads}
        proc = subprocess.run([sys.executable, "-c", _THREADED_SOLVE],
                              capture_output=True, text=True, env=env, check=True)
        found.append(proc.stdout.split())
    assert int(found[0][0]) > 0
    assert found[0] == found[1]


def test_recursive_final_degree_structure():
    rng = np.random.default_rng(71)
    problem = l2_problem(rng, 128)
    system = assemble(problem)
    _, cd, _ = rec_tan_int(system)
    assert np.count_nonzero(cd == 0) == 1
    assert np.count_nonzero(cd == 1) == system.p - 1


# --------------------------------------------- sweeps by their certificates

def _refs(count):
    return [(t // 3, t % 3) for t in range(count)]


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _column_lengths(coeffs) -> np.ndarray:
    """One past the last nonzero coefficient of each column, 0 for none."""
    nonzero = coeffs.any(axis=0)
    last = coeffs.shape[2] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, 0)


# A sweep's absorbed conditions hold to this many ulps per condition.  The
# sweeps here reach 3.7.
_HOLDS = 1000.0
_EPS = np.finfo(float).eps
# A tree's conditions hold to this fraction of their weight rows' largest
# magnitude.  The trees here reach 1.1e-10.
_TREE_HOLDS = 1e-8


def _assert_sweep_certified(nodes, weights, col_degrees, threshold=1e-8,
                            defer=True):
    """Run the library's sweep over the conditions ``_refs`` names and,
    unless it raised a SingularSystemError, assert that its basis is a
    reduced order basis for its absorbed conditions, each of which holds to
    ``_HOLDS`` times the sweep's condition count in ulps (see
    ``assert_order_basis``).  Returns (coeffs, factor, deferred,
    col_degrees, error), the first three None and ``error`` the message if
    the sweep raised."""
    cd = np.array(col_degrees, dtype=np.int64)
    refs = _refs(len(nodes))
    try:
        coeffs, factor, deferred = tanint._serial_core(nodes, weights, refs, cd,
                                                       threshold, defer)
    except SingularSystemError as exc:
        return None, None, None, cd, str(exc)
    start = np.asarray(col_degrees)
    assert_order_basis(coeffs, (nodes, weights, refs), -start, start, cd,
                       deferred, _HOLDS * len(nodes) * _EPS)
    return coeffs, factor, deferred, cd, None


def _assert_tree_certified(system, diagnostics=None):
    """Run the tree and assert that its basis is a reduced order basis for
    every condition of ``system``, each holding to ``_TREE_HOLDS``, with
    det B one constant at the grid's midpoints.  Returns (basis,
    col_degrees, deferred)."""
    basis, cd, deferred = rec_tan_int(system, diagnostics=diagnostics)
    assert_order_basis(basis.coeffs, all_conditions(system), system.tau,
                       -system.tau, cd, [], _TREE_HOLDS, grid=system.order)
    return basis, cd, deferred


def _assert_solves(problem, basis, col_degrees):
    """The basis's solution has a relative residual and a forward error
    against the dense reference below 1e-8."""
    x = extract_solution(basis, col_degrees, problem.n)
    assert relative_residual(problem, x) < 1e-8
    assert rel_err(x, dense_oracle(problem)) < 1e-8


def _sweep_inputs(system, order):
    nodes, weights, _ = tanint._flatten(system.weights, system.nodes, order)
    return nodes, weights, -system.tau


@pytest.mark.parametrize("variant", ["general", "l2", "gramian"])
def test_natural_order_sweeps_hold_their_conditions(variant):
    # Adjacent nodes in natural order made a fixed-order sweep
    # ill-conditioned: it deferred 58, 55 and 17 conditions and held the
    # rest to 2e-9, 3e-9 and 4e-6.  The pivoted sweep takes its own order,
    # defers none and returns a reduced order basis.
    system = assemble(random_problem(variant, 64, np.random.default_rng(74)))
    nodes, weights, col_degrees = _sweep_inputs(system, np.arange(system.order))
    _, _, deferred, _, _ = _assert_sweep_certified(nodes, weights, col_degrees)
    assert deferred == []


def test_scalar_sweep_matches_reference_on_deferring_and_raising_sweeps():
    # The first leaf of a rect system sees the pristine weights, and its
    # sweep defers; one sweep over the whole system would defer nothing.
    system = assemble(_rect_problem(128, "m=n/4"))
    nodes, weights, col_degrees = _sweep_inputs(
        system, np.sort(_leaf_indices(system.order, 0, 8)))
    assert len(nodes) == 192
    _, _, deferred, defer_cd, _ = _assert_sweep_certified(nodes, weights,
                                                          col_degrees)
    assert len(deferred) > 0.1 * len(nodes)
    # Its first deferral leaves no pending condition that sees the lowest
    # column, so it defers every condition after it with the ledger
    # unchanged.  The raising sweep takes the same decisions up to that
    # condition and raises there, with the same ledger.
    *_, cd, error = _assert_sweep_certified(nodes, weights, col_degrees,
                                            defer=False)
    assert error is not None and not np.array_equal(cd, col_degrees)
    assert np.array_equal(cd, defer_cd)


def test_scalar_sweep_matches_reference_on_planted_pivots():
    # Columns 2 and 3 start higher, so only 0 and 1 may pivot: the first
    # three conditions start with a sub-threshold pivot, a zero one and no
    # pivot at all, and an all-zero condition comes again mid-sweep.  Taken
    # later, the first two have pivots; the all-zero ones go last.
    rng = np.random.default_rng(75)
    weights = crandn(rng, 24, 4)
    weights[0] = [1e-10, 0.0, 1.0, 1.0]
    weights[1] = [0.0, 0.0, 1.0, -1.0j]
    weights[2] = 0.0
    weights[13] = 0.0
    nodes = np.exp(2j * np.pi * rng.uniform(size=24))
    _, _, deferred, _, _ = _assert_sweep_certified(nodes, weights, [0, 0, 2, 2])
    assert [k * 3 + row for k, row in deferred] == [2, 13]
    # A raising sweep absorbs the other 22 first.
    *_, cd, error = _assert_sweep_certified(nodes, weights, [0, 0, 2, 2],
                                            defer=False)
    assert error is not None and cd.sum() == 4 + 22
    # Raising at the first condition leaves the ledger untouched.
    *_, cd, error = _assert_sweep_certified(nodes[2:3], weights[2:3],
                                            [0, 0, 2, 2], defer=False)
    assert error is not None and cd.tolist() == [0, 0, 2, 2]
    # A condition repeated at a root of unity is left as rounding noise, not
    # as zero, by the fused update of its residual row; the sweep calls it
    # annihilated against the floor of its starting value.
    for seed in range(8):
        w = crandn(np.random.default_rng(seed), 3)
        for node in np.exp(2j * np.pi * np.arange(8) / 8):
            twice = (np.array([node, node]), np.array([w, w]))
            _, _, deferred, _, _ = _assert_sweep_certified(*twice, [0, 0, 0])
            assert deferred == [(0, 1)]
            *_, error = _assert_sweep_certified(*twice, [0, 0, 0], defer=False)
            assert error is not None
    # Only columns 1 and 2 may pivot.  Row 0 leads column 1 with a
    # sub-threshold pivot and is deferred; its zeroed row leaves the lead
    # to row 2, which pivots on column 2.  That leaves column 1 alone
    # lowest, where row 1 is below the threshold, so it is deferred too.
    # Were row 0 still in the search it would lead again, send the sweep
    # to the first pending row, row 1, and defer row 2 in its place.
    weights = np.array([[1.0, 1e-10, 1e-10], [0.5, 0.0, 1.0],
                        [0.0, 1e-11, 1.0]])
    _, _, deferred, cd, _ = _assert_sweep_certified(
        np.exp(2j * np.pi * np.arange(3) / 7), weights, [1, 0, 0])
    assert deferred == [(0, 0), (0, 1)] and cd.tolist() == [1, 0, 1]


def test_condition_repeated_mid_sweep_keeps_the_certificates():
    # Condition 13 repeats condition 5, node and weights, among 24 at 16th
    # roots of unity.  Its row, updated by every trip since its start, ends
    # near the annihilation floor: the sweep defers the repeat in 49 of
    # these 50 sweeps and absorbs it as rounding noise in one.  Whichever
    # way the floor decides, the basis is a reduced order basis for the
    # conditions the sweep absorbed.
    for seed in range(50):
        rng = np.random.default_rng(seed)
        weights = crandn(rng, 24, 4)
        nodes = np.exp(2j * np.pi * rng.integers(16, size=24) / 16)
        weights[13], nodes[13] = weights[5], nodes[5]
        _assert_sweep_certified(nodes, weights, [0, 0, 0, 0])


@pytest.mark.parametrize("row, col_degrees, pivot", [
    # the lowest columns start past column 0
    ([0.5, 1.0, 0.5, 0.25], [1, 0, 1, 0], 1),
    # the largest magnitudes sit on higher columns
    ([0.5, 4.0, 1.0j, 8.0], [0, 1, 0, 2], 2),
    # three lowest columns tie exactly, a higher one is larger
    ([4.0, 2.0, 2.0j, -2.0, 3.0], [2, 0, 0, 0, 1], 1),
], ids=["lowest-past-column-0", "larger-on-higher", "three-way-tie"])
def test_scalar_sweep_picks_the_first_largest_lowest_column(row, col_degrees,
                                                             pivot):
    # Against the identity phi is the weight row, so the planted magnitudes
    # decide the first pivot: the first largest among the lowest columns.
    *_, cd, _ = _assert_sweep_certified(np.array([1.0j]), np.array([row]),
                                        col_degrees)
    expected = list(col_degrees)
    expected[pivot] += 1
    assert cd.tolist() == expected
    # The planted row leads a sweep whose later conditions pivot on the
    # ledger it leaves.
    rng = np.random.default_rng(80)
    weights = np.vstack([row, crandn(rng, 15, len(row))])
    nodes = np.exp(2j * np.pi * rng.uniform(size=16))
    _assert_sweep_certified(nodes, weights, col_degrees)


@pytest.mark.parametrize("weights, col_degrees, first", [
    # Row 2 leads the first lowest column by modulus (1.0 against 0.99),
    # row 1 by |re| + |im| (1.4); row 0 ties row 1 in the second lowest.
    ([[0.9, 0.5, 1.0, 0.2], [0.1, 0.7 + 0.7j, 1.0, 0.3],
      [1.0, 1.0, 0.2, 0.1]], [1, 0, 0, 1], [2]),
    # Rows 1 to 3 tie exactly in the first lowest column.
    ([[0.25, 1.0, 0.0, 0.5], [0.5, 0.5, 1.0, 0.0], [0.5j, 0.3, 0.2, 1.0],
      [-0.5, 1.0, 0.0, 0.0]], [0, 0, 1, 1], [1]),
    # Row 1 leads row 0 by 2e-10 of its modulus, inside the tie window, so
    # row 0 goes first; by 2e-7, past the window, row 1 does.
    ([[0.5, 1.0, 0.0, 0.0], [0.5 + 1e-10, 1.0, 0.0, 0.0]], [0, 1, 1, 1],
     [0]),
    ([[0.5, 1.0, 0.0, 0.0], [0.5 + 1e-7, 1.0, 0.0, 0.0]], [0, 1, 1, 1],
     [1]),
    # Row 0 is largest on a higher column, row 1 on the lowest one.
    ([[0.2, 8.0, 0.0, 0.0], [0.3, 0.1, 0.0, 0.0]], [0, 1, 1, 1], [1]),
    # Rows compare scaled: row 1 leads the lowest column after scaling
    # (1.0 against 0.75), row 0 before it (3.0 against 1.0).
    ([[3.0, 4.0, 0.0, 0.0], [1.0, 0.5, 0.0, 0.0]], [0, 1, 1, 1], [1]),
    # Once row 0 is absorbed, no pending row sees the first lowest column,
    # and the first pending row goes before the larger row 2.
    ([[1.0, 0.5, 0.5], [0.0, 1.0, 0.5], [0.0, 0.1, 1.0]], [0, 1, 1],
     [0, 1, 2]),
], ids=["modulus", "exact-tie", "near-tie", "past-the-tie", "higher-column",
        "scaled-rows", "zero-column"])
def test_sweep_takes_the_largest_row_of_the_first_lowest_column(
        monkeypatch, weights, col_degrees, first):
    # The conditions the sweep absorbs, in its order, read off its trips.
    weights = np.array(weights, dtype=np.complex128)
    nodes = np.exp(2j * np.pi * np.arange(len(weights)) / 7)
    trips = _log_trips(monkeypatch, len(nodes))
    _assert_sweep_certified(nodes, weights, col_degrees)
    assert [trip[0] for trip in trips[:len(first)]] == first


def test_scalar_sweep_matches_reference_on_exact_ties_zeros_and_edges():
    # Against the identity, phi is the weight row itself.  Two candidates
    # of equal magnitude: the first pivots.
    rng = np.random.default_rng(77)
    one = np.array([1.0j])
    *_, cd, _ = _assert_sweep_certified(
        one, np.array([[1.0, 1.0j, 0.5, 0.5]]), [0, 0, 2, 2])
    assert cd.tolist() == [1, 0, 2, 2]
    # Conditions blind to columns 2 and 3 give them mu = 0 at every step,
    # so they are never mixed and keep length 1.
    weights = np.zeros((8, 4), dtype=np.complex128)
    weights[:, :2] = crandn(rng, 8, 2)
    nodes = np.exp(2j * np.pi * rng.uniform(size=8))
    coeffs, *_ = _assert_sweep_certified(nodes, weights, [0, 0, 9, 9])
    assert _column_lengths(coeffs).tolist() == [5, 5, 1, 1]
    # A pivot magnitude on the threshold's last bit, where NumPy's
    # vectorized and scalar complex abs can round apart (they do on AVX-512
    # hosts).  The sweep tests the pivot's scalar abs, so it defers the
    # condition exactly when that falls below the larger of the two.
    values = 1e-3 * crandn(rng, 64)
    apart = np.flatnonzero(np.abs(values) != [abs(v) for v in values])
    for v in values[apart[:4]] if apart.size else values[:1]:
        edge = max(np.abs(v[None])[0], abs(v))
        _, _, deferred, _, _ = _assert_sweep_certified(
            one, np.array([[v, 0.0, 1.0, 0.0]]), [0, 0, 2, 2], threshold=edge)
        assert (deferred == [(0, 0)]) == (abs(v) < edge)


@pytest.mark.parametrize("problem, defers", [
    (lambda: random_problem("general", 128, np.random.default_rng(7)), False),
    (lambda: _rect_problem(128, "p=1"), True),
], ids=["general-128", "deferred-cleanup"])
def test_scalar_sweep_matches_reference_end_to_end(problem, defers):
    # Through the tree and the cleanup, and in one sweep over the whole
    # system, the library's basis is a reduced order basis for every
    # condition, and its solution matches the dense reference.
    problem = problem()
    system = assemble(problem)
    diag = TanIntDiagnostics()
    basis, cd, _ = _assert_tree_certified(system, diag)
    assert (diag.difficult_points > 0) == defers
    _assert_solves(problem, basis, cd)
    conditions = all_conditions(system)
    serial, serial_cd, deferred = serial_tan_int(*conditions, -system.tau)
    assert deferred == []
    assert_order_basis(serial.coeffs, conditions, system.tau, -system.tau,
                       serial_cd, [], _HOLDS * len(conditions[0]) * _EPS)
    _assert_solves(problem, serial, serial_cd)


# -------------------------------------------------------------- extraction

def test_extract_solution_frozen_column():
    coeffs = np.zeros((2, 2, 2), dtype=np.complex128)
    coeffs[0, 1, :] = [2.0, 4.0]   # solution slot carries 2 + 4z
    coeffs[1, 1, 0] = 2.0          # constant slot
    coeffs[0, 0, 0] = 1.0
    x = extract_solution(MatrixPoly(coeffs), np.array([1, 0]), 2)
    assert np.allclose(x, [1.0, 2.0])


def test_extract_solution_requires_unique_zero_column():
    basis = identity_poly(3)
    with pytest.raises(SingularSystemError):
        extract_solution(basis, np.array([1, 1, 1]), 2)


def test_extract_solution_rejects_vanishing_constant():
    coeffs = np.zeros((2, 2, 1), dtype=np.complex128)
    coeffs[0, 0, 0] = 1.0
    coeffs[0, 1, 0] = 1.0
    coeffs[1, 1, 0] = 1e-20
    with pytest.raises(SingularSystemError):
        extract_solution(MatrixPoly(coeffs), np.array([1, 0]), 1)
