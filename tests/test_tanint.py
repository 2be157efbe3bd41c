"""Shifted-degree bookkeeping and both basis constructors."""

import numpy as np
import pytest

import toepreg.tanint as tanint
from helpers import (
    NEG_INF,
    dense_tikhonov,
    identity_poly,
    random_spec,
    rel_err,
    residual,
    single_point_basis,
    tau_degree,
)
from toepreg.experiments import random_problem
from toepreg.extension import InterpolationCondition, assemble
from toepreg.fftpoly import MatrixPoly, matpoly_multiply, poly_eval
from toepreg.tanint import (
    SingularSystemError,
    TanIntDiagnostics,
    TauState,
    basis_residuals,
    extract_solution,
    rec_tan_int,
    serial_tan_int,
)
from toepreg.toeplitz import ProblemSpec


def crandn(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def l2_problem(rng, n: int) -> ProblemSpec:
    return ProblemSpec.l2(random_spec(rng, n, n), float(n) ** 0.25,
                          crandn(rng, n))


def flatten_conditions(system):
    """All conditions in plain node-major order."""
    return [system.condition(row, k) for k in range(system.order)
            for row in range(system.rows)]


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
    conds = [InterpolationCondition(np.exp(2j * np.pi * k / 7),
                                    crandn(rng, 3), 0, k) for k in range(7)]
    ref = max(abs(c.weights @ poly_eval(q, c.node)) for c in conds)
    assert residual(q, conds) == ref


def test_residual_ignores_masked_slot():
    cond = InterpolationCondition(1.0 + 0.0j, np.array([0.0, 3.0 + 0.0j]), 0, 0)
    q = np.zeros((2, 1))
    q[0, 0] = 5.0   # constant e_0, weight zero in that slot
    assert residual(q, [cond]) == 0.0


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


# ------------------------------------------------------------ workspace

def _full_cube_step(c, j, node, mu):
    """The workspace update applied to every slot of the cube."""
    head = c[:, j, :].copy()
    assert not head[:, -1].any()
    c += mu[None, :, None] * head[:, None, :]
    c[:, j, :] = -node * head
    c[:, j, 1:] += head[:, :-1]


def _assert_true_lengths(ws, ref):
    for j in range(ws.c.shape[1]):
        assert not ws.c[:, j, ws.lens[j]:].any()
    assert ws.length == ws.lens.max()
    assert np.abs(ws.view()[:, :, -1]).max() > 0.0
    # same coefficients as the whole-cube update, and nothing past length
    assert np.array_equal(ws.view(), ref[:, :, :ws.length])
    assert not ref[:, :, ws.length:].any()


def test_workspace_tracks_true_column_lengths():
    rng = np.random.default_rng(72)
    p = 4
    ref = np.zeros((p, p, 48), dtype=np.complex128)
    ref[:, :, 0] = np.eye(p)
    ws = tanint._Workspace(p, 25)

    def steps(ws, count):
        for _ in range(count):
            j = int(rng.integers(p))
            node = np.exp(2j * np.pi * rng.uniform())
            mu = crandn(rng, p)
            mu[rng.uniform(size=p) < 0.3] = 0.0
            mu[j] = 0.0
            ws.step(j, node, mu)
            _full_cube_step(ref, j, node, mu)
            _assert_true_lengths(ws, ref)

    steps(ws, 24)
    assert ws.lens.min() < ws.length
    colmax = np.abs(ref).max(axis=(0, 2))
    assert ws.rescale(trigger=1.0) == colmax.max()
    ref /= np.where(colmax > 1.0, colmax, 1.0)[None, :, None]
    _assert_true_lengths(ws, ref)
    ws = tanint._Workspace.from_coeffs(ws.view(), 16)
    assert np.array_equal(ws.lens, np.full(p, ws.length))
    _assert_true_lengths(ws, ref)
    steps(ws, 16)


# ------------------------------------------------------ serial constructor

def test_serial_empty_conditions_identity():
    ts = TauState.from_tau([2, 1, 0])
    basis, deferred = serial_tan_int([], ts)
    assert deferred == []
    assert np.array_equal(basis.coeffs, identity_poly(3).coeffs)
    assert np.array_equal(ts.col_degrees, [-2, -1, 0])


def test_serial_single_condition_equals_elementary_factor():
    rng = np.random.default_rng(63)
    w = crandn(rng, 4)
    cond = InterpolationCondition(1.0j, w, 0, 0)
    ts = TauState.from_tau([0, 0, 0, 0])
    basis, deferred = serial_tan_int([cond], ts)
    factor, pivot = single_point_basis(w, 1.0j, [0, 0, 0, 0])
    assert deferred == []
    assert np.allclose(basis.coeffs, factor.coeffs, atol=1e-15)
    assert ts.col_degrees[pivot] == 1


def test_serial_full_small_problem():
    rng = np.random.default_rng(64)
    problem = l2_problem(rng, 8)
    system = assemble(problem)
    ts = TauState.from_tau(system.tau)
    basis, deferred = serial_tan_int(system, ts)
    assert deferred == []
    assert np.count_nonzero(ts.col_degrees == 0) == 1
    assert np.count_nonzero(ts.col_degrees == 1) == system.p - 1
    assert np.abs(basis.coeffs[:, :, -1]).max() > 0.0
    x = extract_solution(basis, ts, problem.n)
    assert rel_err(x, dense_tikhonov(problem)) < 1e-9


def test_serial_prefix_monotonicity():
    rng = np.random.default_rng(65)
    problem = l2_problem(rng, 8)
    system = assemble(problem)
    conds = flatten_conditions(system)
    prev = -system.tau.copy()
    for count in range(1, len(conds) + 1):
        ts = TauState.from_tau(system.tau)
        _, deferred = serial_tan_int(conds[:count], ts)
        assert not deferred
        # exactly one column rose by exactly one
        diff = ts.col_degrees - prev
        assert diff.sum() == 1 and diff.max() == 1 and diff.min() == 0
        assert int(ts.col_degrees.sum()) == int(-system.tau.sum()) + count
        spread = ts.col_degrees.max() - ts.col_degrees.min()
        assert spread <= max(int(system.tau.max() - system.tau.min()), 1)
        prev = ts.col_degrees.copy()


def test_serial_defer_flag_controls_failure_mode():
    rng = np.random.default_rng(66)
    w = crandn(rng, 3)
    cond = InterpolationCondition(1.0 + 0.0j, w, 0, 0)
    twice = [cond, InterpolationCondition(cond.node, cond.weights.copy(), 0, 1)]
    ts = TauState.from_tau([0, 0, 0])
    basis, deferred = serial_tan_int(twice, ts)
    # the repeated condition is annihilated by the first factor
    assert len(deferred) == 1
    with pytest.raises(SingularSystemError):
        serial_tan_int(twice, TauState.from_tau([0, 0, 0]), defer=False)


def test_composed_halves_interpolate_everything():
    rng = np.random.default_rng(67)
    problem = l2_problem(rng, 8)
    system = assemble(problem)
    conds = flatten_conditions(system)
    kappa = 17
    ts = TauState.from_tau(system.tau)
    left, deferred = serial_tan_int(conds[:kappa], ts)
    assert not deferred
    updated = [InterpolationCondition(c.node,
                                      c.weights @ poly_eval(left.coeffs, c.node),
                                      c.row_tag, c.index)
               for c in conds[kappa:]]
    right, deferred = serial_tan_int(updated, ts)
    assert not deferred
    basis = matpoly_multiply(left, right)
    scale = max(np.abs(c.weights).max() for c in conds)
    for j in range(system.p):
        assert residual(basis.column(j), conds) < 1e-8 * scale


# --------------------------------------------------- recursive constructor

def test_recursive_small_system_matches_serial_exactly():
    rng = np.random.default_rng(68)
    problem = l2_problem(rng, 16)
    system = assemble(problem)
    ts_a = TauState.from_tau(system.tau)
    serial_basis, _ = serial_tan_int(system, ts_a)
    ts_b = TauState.from_tau(system.tau)
    rec_basis, _ = rec_tan_int(system, ts_b)
    assert np.array_equal(ts_a.col_degrees, ts_b.col_degrees)
    assert np.array_equal(serial_basis.coeffs, rec_basis.coeffs)


def test_recursive_matches_serial_through_splits():
    rng = np.random.default_rng(69)
    n = 64
    problem = ProblemSpec.general(random_spec(rng, n, n),
                                  random_spec(rng, n, n), crandn(rng, n))
    system = assemble(problem, n_lim=64)
    ts_a = TauState.from_tau(system.tau)
    serial_basis, _ = serial_tan_int(system, ts_a)
    ts_b = TauState.from_tau(system.tau)
    rec_basis, _ = rec_tan_int(system, ts_b, n_lim=64)
    x_serial = extract_solution(serial_basis, ts_a, n)
    x_rec = extract_solution(rec_basis, ts_b, n)
    assert rel_err(x_rec, x_serial) < 1e-9
    assert rel_err(x_rec, dense_tikhonov(problem)) < 1e-9


def test_recursive_defers_few_points_at_scale():
    rng = np.random.default_rng(70)
    problem = l2_problem(rng, 512)
    system = assemble(problem)
    basis, deferred = rec_tan_int(system)
    assert len(deferred) < 0.05 * system.condition_count()
    # deferred or not, the final basis satisfies every condition
    res = np.abs(basis_residuals(system, basis)).max()
    assert res < 1e-8 * np.abs(system.weights).max()


def _record_leaves(monkeypatch):
    """Patch the engine to log (conditions, basis coeffs) of every leaf and
    count every sweep; returns (leaves, sweeps)."""
    leaves, sweeps = [], []
    serial_leaf, serial_core = tanint._Engine._serial_leaf, tanint._serial_core

    def leaf(self, offsets, stride):
        basis = serial_leaf(self, offsets, stride)
        leaves.append((self.rows * len(self._indices(offsets, stride)),
                       basis.coeffs))
        return basis

    def core(*args):
        sweeps.append(1)
        return serial_core(*args)

    monkeypatch.setattr(tanint._Engine, "_serial_leaf", leaf)
    monkeypatch.setattr(tanint, "_serial_core", core)
    return leaves, sweeps


def test_leaf_bases_carry_no_dead_tail(monkeypatch):
    # Every condition raises only its pivot column, and a square general
    # system spreads a leaf's K conditions evenly over p - 1 columns.
    system = assemble(random_problem("general", 2048, np.random.default_rng(1)))
    leaves, _ = _record_leaves(monkeypatch)
    basis, deferred = rec_tan_int(system)
    assert not deferred
    p = system.p
    assert [k for k, _ in leaves] == [192] * 64 and p == 7
    for k, coeffs in leaves:
        assert coeffs.shape == (p, p, k // (p - 1) + 1)
        assert np.abs(coeffs[:, :, -1]).max() > 0.0
    assert np.abs(basis.coeffs[:, :, -1]).max() > 0.0


@pytest.mark.parametrize("variant, retried", [("general", True), ("l2", False)])
def test_leaf_retries_count_extra_sweeps(monkeypatch, variant, retried):
    system = assemble(random_problem(variant, 512, np.random.default_rng(7)))
    leaves, sweeps = _record_leaves(monkeypatch)
    diag = TanIntDiagnostics()
    _, deferred = rec_tan_int(system, diagnostics=diag)
    assert not deferred   # so every sweep is a leaf sweep, none a cleanup
    assert diag.leaf_retries == len(sweeps) - len(leaves)
    assert (diag.leaf_retries > 0) == retried
    assert diag.as_dict()["leaf_retries"] == diag.leaf_retries


def test_recursive_final_degree_structure():
    rng = np.random.default_rng(71)
    problem = l2_problem(rng, 128)
    system = assemble(problem)
    ts = TauState.from_tau(system.tau)
    rec_tan_int(system, ts)
    assert np.count_nonzero(ts.col_degrees == 0) == 1
    assert np.count_nonzero(ts.col_degrees == 1) == system.p - 1


# -------------------------------------------------------------- extraction

def test_extract_solution_frozen_column():
    coeffs = np.zeros((2, 2, 2), dtype=np.complex128)
    coeffs[0, 1, :] = [2.0, 4.0]   # solution slot carries 2 + 4z
    coeffs[1, 1, 0] = 2.0          # constant slot
    coeffs[0, 0, 0] = 1.0
    ts = TauState(tau=np.array([1, 1]), col_degrees=np.array([1, 0]))
    x = extract_solution(MatrixPoly(coeffs), ts, 2)
    assert np.allclose(x, [1.0, 2.0])


def test_extract_solution_requires_unique_zero_column():
    basis = identity_poly(3)
    ts = TauState(tau=np.zeros(3, dtype=int), col_degrees=np.array([1, 1, 1]))
    with pytest.raises(SingularSystemError):
        extract_solution(basis, ts, 2)


def test_extract_solution_rejects_vanishing_constant():
    coeffs = np.zeros((2, 2, 1), dtype=np.complex128)
    coeffs[0, 0, 0] = 1.0
    coeffs[0, 1, 0] = 1.0
    coeffs[1, 1, 0] = 1e-20
    ts = TauState(tau=np.array([0, 0]), col_degrees=np.array([1, 0]))
    with pytest.raises(SingularSystemError):
        extract_solution(MatrixPoly(coeffs), ts, 1)
