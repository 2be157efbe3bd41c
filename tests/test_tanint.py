"""Shifted-degree bookkeeping and both basis constructors."""

import numpy as np
import pytest

import toepreg.tanint as tanint
from helpers import (
    NEG_INF,
    CubeWorkspace,
    all_conditions,
    assert_order_basis,
    basis_residuals,
    dense_tikhonov,
    full_basis_cleanup,
    identity_poly,
    per_batch_cleanup,
    poly_eval,
    random_spec,
    reference_serial_core,
    rel_err,
    residual,
    serial_tan_int,
    single_point_basis,
    tau_degree,
)
from toepreg.experiments import VARIANTS, random_problem
from toepreg.extension import AssembledSystem, assemble, opt_extend
from toepreg.fftpoly import MatrixPoly, matpoly_multiply
from toepreg.solver import apply_normal_operator
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


# ------------------------------------------------------------ workspace

def _bare_workspace(p):
    """A workspace over p columns holding the identity and no conditions."""
    return tanint._Workspace(np.empty(0), np.empty((0, p)))


def _full_cube_step(c, j, node, mu):
    """The workspace update applied to every slot of the cube."""
    head = c[:, j, :].copy()
    assert not head[:, -1].any()
    c += mu[None, :, None] * head[:, None, :]
    c[:, j, :] = -node * head
    c[:, j, 1:] += head[:, :-1]


def _assert_close_by_column(a, b, perturbed=None, tol=1e-12):
    """Two (p, p, length) coefficient arrays agree to ``tol`` of each
    column's largest entry in ``b``.  Given ``perturbed``, what ``b``'s
    computation returns for one-ulp changes to its inputs, a column may
    also differ by up to ten times what that moved it: a sweep that
    amplifies rounding is held to its reference's own sensitivity."""
    assert a.shape == b.shape
    bound = tol * np.abs(b).max(axis=(0, 2))
    if perturbed is not None:
        assert perturbed.shape == b.shape
        bound = np.maximum(bound, 10.0 * np.abs(perturbed - b).max(axis=(0, 2)))
    assert (np.abs(a - b).max(axis=(0, 2)) <= bound).all()


def _ulp_perturbed(a, seed=79):
    """``a`` with each entry moved by about one ulp in a random direction."""
    rng = np.random.default_rng(seed)
    return a * (1.0 + 2.0**-52 * np.exp(2j * np.pi * rng.uniform(size=a.shape)))


def _assert_true_lengths(ws, ref):
    p = len(ws.lens)
    for j in range(p):
        assert not ws.store[ws.lens[j] * p:, j].any()
    assert ws.length == max(ws.lens)
    assert np.abs(ws.view()[:, :, -1]).max() > 0.0
    # the whole-cube update's coefficients to rounding, nothing past length
    _assert_close_by_column(ws.view(), ref[:, :, :ws.length])
    assert not ref[:, :, ws.length:].any()


def test_workspace_tracks_true_column_lengths():
    rng = np.random.default_rng(72)
    p = 4
    ref = np.zeros((p, p, 48), dtype=np.complex128)
    ref[:, :, 0] = np.eye(p)
    ws = _bare_workspace(p)

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
    assert min(ws.lens) < ws.length
    # normalizing writes through the store's cube view
    colmax = np.abs(ref).max(axis=(0, 2))
    assert ws.normalize() == pytest.approx(colmax.max(), rel=1e-12)
    ref /= colmax[None, :, None]
    _assert_true_lengths(ws, ref)


def test_store_size_leaves_the_sweep_bits_alone(monkeypatch):
    # A store pre-sized to the sweep's largest basis and one doubling from
    # the minimum give the BLAS update power-of-two row counts, so every
    # basis row takes the same kernel path and the sweeps leave equal bits,
    # in stride and in natural order.  Sweeps of 61, 97 and 130 conditions,
    # counts that are not a multiple of the store's rows (as cleanup batches
    # have), pad the residual rows that share the update, and leave equal
    # bits too.
    built, base = [], tanint._Workspace

    def workspace(presize):
        class Store(base):
            def __init__(self, nodes, weights):
                super().__init__(nodes, weights)
                if presize:
                    self._fit(len(nodes) + 1)
                built.append(self)
        return Store

    system = assemble(random_problem("general", 64, np.random.default_rng(74)))
    for order in (tanint._stride_order(system.order), np.arange(system.order)):
        conditions = tanint._flatten(system.weights, system.nodes, order)
        for count in (61, 97, 130, len(conditions[0])):
            nodes, weights, refs = (part[:count] for part in conditions)
            found = []
            for presize in (False, True):
                monkeypatch.setattr(tanint, "_Workspace", workspace(presize))
                cd = -system.tau
                coeffs, factor, _ = tanint._serial_core(nodes, weights, refs,
                                                        cd, 1e-8, True)
                ws = built.pop()
                assert ws.res % tanint._STORE_MIN_ROWS == 0 and ws.res >= count
                rows = ws.store.shape[0] - ws.res
                assert rows & (rows - 1) == 0 and ws.store.flags.f_contiguous
                found.append((rows, coeffs, factor, ws.lens, cd))
            (rows, *grown), (full_rows, *presized) = found
            assert rows < 2 * ws.length * system.p < full_rows
            for a, b in zip(grown, presized):
                assert _same_bits(a, b)


def test_step_raises_on_a_store_it_cannot_update_in_place():
    # Handed a C-ordered array, zgeru updates a copy and returns it; the
    # step raises instead of dropping the update.
    ws = _bare_workspace(4)
    ws.store = np.ascontiguousarray(ws.store)
    before = ws.store.copy()
    with pytest.raises(RuntimeError, match="in place"):
        ws.step(1, 1j, np.array([0.5, 0.0, 0.0, 2.0], dtype=complex))
    assert _same_bits(ws.store, before)
    assert ws.lens == [1, 1, 1, 1] and ws.length == 1


def test_each_step_lengthens_the_basis_by_at_most_one():
    # The pivot column grows by one and a column mixed with it reaches its
    # old length, so K steps leave a basis at most K + 1 long.
    ws = _bare_workspace(2)
    mu = np.array([0.0, 1.0], dtype=complex)
    for node, lens in ((1.0, [2, 1]), (-1.0, [3, 2]), (1j, [4, 3])):
        ws.step(0, node, mu)
        assert ws.lens == lens and ws.length == lens[0]
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
    assert rel_err(x, dense_tikhonov(problem)) < 1e-9


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
    assert rel_err(x_rec, dense_tikhonov(problem)) < 1e-9


def test_recursive_defers_few_points_at_scale():
    rng = np.random.default_rng(70)
    problem = l2_problem(rng, 512)
    system = assemble(problem)
    basis, _, deferred = rec_tan_int(system)
    assert len(deferred) < 0.05 * system.rows * system.order
    # deferred or not, the final basis satisfies every condition
    res = np.abs(basis_residuals(system, basis)).max()
    assert res < 1e-8 * np.abs(system.weights).max()


def _leaf_indices(order, o, stride):
    """Node indices of the tree node {o, o + 1} mod stride (all at the root)."""
    return np.concatenate([np.arange(c, order, s)
                           for c, s in tanint._Engine._cosets(o, stride)])


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
    # M-node cosets at stride 2**p, or the root alone when p <= 1.  The
    # second shape has an odd n_tilde, so an unsplit root has odd order.
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
                _, p, _ = opt_extend(problem.n_tilde, n_lim, rows=rows)
                leaves.clear()
                diag = TanIntDiagnostics()
                rec_tan_int(system, diagnostics=diag)
                found = np.concatenate([_leaf_indices(system.order, o, s)
                                        for *_, o, s in leaves])
                assert np.array_equal(np.sort(found), np.arange(system.order))
                assert all(k <= n_lim for k, *_ in leaves)
                if p <= 1:
                    assert [(o, s) for *_, o, s in leaves] == [(0, 2)]
                else:
                    pairs = sorted((o, s) for *_, o, s in leaves)
                    assert pairs == [(o, 2 ** p) for o in range(0, 2 ** p, 2)]
                assert diag.recursion_depth == max(p, 1)


def _rect_problem(n: int, shape: str):
    """General problem of a shape that defers: m = n/4 data rows, or a
    one-row regularizer."""
    m, p = (n // 4, n) if shape == "m=n/4" else (n, 1)
    rng = np.random.default_rng(np.random.SeedSequence((73, n, p)))
    return random_problem("general", n, rng, m=m, p=p)


@pytest.mark.parametrize("shape", ["m=n/4", "p=1"])
@pytest.mark.parametrize("n", [128, 256])
def test_batched_cleanup_matches_full_basis_reference(monkeypatch, n, shape):
    problem = _rect_problem(n, shape)
    system = assemble(problem)
    rhs = problem.normal_rhs_vector()
    exact = dense_tikhonov(problem)
    found = {}
    for name, cleanup in (("batched", tanint._Engine._cleanup),
                          ("reference", full_basis_cleanup)):
        monkeypatch.setattr(tanint._Engine, "_cleanup", cleanup)
        diag = TanIntDiagnostics()
        basis, cd, _ = rec_tan_int(system, diagnostics=diag)
        x = extract_solution(basis, cd, n)
        residual = (np.linalg.norm(apply_normal_operator(problem, x) - rhs)
                    / np.linalg.norm(rhs))
        found[name] = (diag.difficult_points, residual, rel_err(x, exact))
    (deferred, res, err), (ref_deferred, ref_res, ref_err) = (
        found["batched"], found["reference"])
    assert deferred == ref_deferred > 0
    assert res < 1e-8 and ref_res < 1e-8
    assert err <= 10.0 * ref_err


def test_column_peaks_are_the_product_column_maxima():
    # One transform of the left factor, at least as long as each product,
    # serves right factors of any length; an all-zero column gives 1.
    rng = np.random.default_rng(77)
    left = crandn(rng, 5, 5, 40)
    left_hat = tanint._transform(left, 40 + 30 - 1)
    for length in (1, 12, 30):
        right = crandn(rng, 5, 5, length)
        right[:, 3] = 0.0
        product = matpoly_multiply(MatrixPoly(left), MatrixPoly(right))
        expected = np.abs(product.coeffs).max(axis=(0, 2))
        expected[3] = 1.0
        peaks = tanint._column_peaks(left_hat, right)
        assert np.allclose(peaks, expected, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("shape", ["m=n/4", "p=1"])
@pytest.mark.parametrize("n", [128, 256, 512])
def test_cleanup_takes_the_per_batch_pivots(monkeypatch, n, shape):
    # The running product, scaled as the per-batch products are normalized,
    # leaves every batch the same pivots: the column degrees after each
    # cleanup sweep are the reference's.
    problem = _rect_problem(n, shape)
    system = assemble(problem)
    rhs = problem.normal_rhs_vector()
    exact = dense_tikhonov(problem)
    serial_core = tanint._serial_core
    found = {}
    for name, cleanup in (("running", tanint._Engine._cleanup),
                          ("reference", per_batch_cleanup)):
        snapshots = []

        def core(nodes, weights, refs, col_degrees, threshold, defer):
            found = serial_core(nodes, weights, refs, col_degrees, threshold, defer)
            if not defer:
                snapshots.append(col_degrees.tolist())
            return found

        monkeypatch.setattr(tanint, "_serial_core", core)
        monkeypatch.setattr(tanint._Engine, "_cleanup", cleanup)
        diag = TanIntDiagnostics()
        basis, cd, _ = rec_tan_int(system, diagnostics=diag)
        x = extract_solution(basis, cd, n)
        residual = (np.linalg.norm(apply_normal_operator(problem, x) - rhs)
                    / np.linalg.norm(rhs))
        found[name] = (snapshots, diag.difficult_points, residual, rel_err(x, exact))
    (snaps, deferred, res, err), (ref_snaps, ref_deferred, _, ref_err) = (
        found["running"], found["reference"])
    assert len(ref_snaps) == -(-deferred // system.n_lim)
    assert snaps == ref_snaps
    assert deferred == ref_deferred > 0
    assert res < 1e-8
    assert err <= 10.0 * ref_err


@pytest.mark.parametrize("cleanup", [tanint._Engine._cleanup, full_basis_cleanup],
                         ids=["batched", "reference"])
def test_cleanup_pivot_underflow_is_singular(monkeypatch, cleanup):
    # An all-zero condition is deferred by its leaf and leaves the cleanup
    # no pivot at all.
    system = assemble(_rect_problem(128, "m=n/4"))
    weights = system.weights.copy()
    weights[0, 5, :] = 0.0
    broken = AssembledSystem(system.n, system.order,
                             system.degree_bounds, weights, system.n_lim)
    monkeypatch.setattr(tanint._Engine, "_cleanup", cleanup)
    with pytest.raises(SingularSystemError):
        rec_tan_int(broken)


def test_cleanup_sweeps_deferred_conditions_at_leaf_size(monkeypatch):
    sweeps, products, trees = [], [], []
    serial_core, multiply = tanint._serial_core, tanint.matpoly_multiply
    cleanup = tanint._Engine._cleanup

    def core(nodes, *args):
        sweeps.append(len(nodes))
        return serial_core(nodes, *args)

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
        assert diag.difficult_points > 0
        assert list(diag.as_dict()) == ["conditions_total", "difficult_points",
                                        "recursion_depth", "max_column_scale"]
        # every condition is swept once in its leaf, a deferred one once
        # more in a cleanup batch, and no sweep outgrows a leaf
        assert sum(sweeps) == diag.conditions_total + diag.difficult_points
        assert max(sweeps) <= n_lim
        # Whatever the batch count, the cleanup makes one product as long
        # as the tree basis; the batch bases meet in short ones.
        batches = -(-diag.difficult_points // n_lim)
        assert batches > 1
        full = [(a, b) for a, b in products if trees[0] in (a, b)]
        short = [(a, b) for a, b in products if trees[0] not in (a, b)]
        assert len(full) == 1
        assert len(short) == batches - 1
        assert all(max(a, b) < trees[0] for a, b in short)


def test_recursive_final_degree_structure():
    rng = np.random.default_rng(71)
    problem = l2_problem(rng, 128)
    system = assemble(problem)
    _, cd, _ = rec_tan_int(system)
    assert np.count_nonzero(cd == 0) == 1
    assert np.count_nonzero(cd == 1) == system.p - 1


# ------------------------------------- scalar sweep against the reference

def _refs(count):
    return [(t // 3, t % 3) for t in range(count)]


def _sweep(core, nodes, weights, col_degrees, threshold, defer):
    """One sweep over the conditions ``_refs`` names; returns (coeffs,
    factor, deferred, col_degrees, error), the first three None and
    ``error`` the message if the sweep raised a SingularSystemError."""
    cd = np.array(col_degrees, dtype=np.int64)
    refs = _refs(len(nodes))
    found, error = (None, None, None), None
    try:
        found = core(nodes, weights, refs, cd, threshold, defer)
    except SingularSystemError as exc:
        error = str(exc)
    return (*found, cd, error)


def _same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _column_lengths(coeffs) -> np.ndarray:
    """One past the last nonzero coefficient of each column, 0 for none."""
    nonzero = coeffs.any(axis=0)
    last = coeffs.shape[2] - np.argmax(nonzero[:, ::-1], axis=1)
    return np.where(nonzero.any(axis=1), last, 0)


# A sweep's absorbed conditions hold to this many ulps per condition.  The
# sweeps here reach 0.6.
_HOLDS = 1000.0
_EPS = np.finfo(float).eps


def _assert_sweeps_match(nodes, weights, col_degrees, threshold=1e-8,
                         defer=True, exact=False):
    """The library's sweep and the cube reference take the same decisions
    and return the same normalized coefficients and largest column divisor:
    bit for bit with ``exact``, else to rounding (see
    ``_assert_close_by_column``), against a second reference sweep on
    one-ulp perturbed weights.  The library's basis is an order basis for
    its absorbed conditions, each of which holds to ``_HOLDS`` times the
    sweep's condition count in ulps (see ``assert_order_basis``).  Returns
    the library's (coeffs, factor, deferred, col_degrees, error)."""
    found = _sweep(tanint._serial_core, nodes, weights, col_degrees,
                   threshold, defer)
    coeffs, factor, deferred, cd, error = found
    ref_coeffs, ref_factor, ref_deferred, ref_cd, ref_error = _sweep(
        reference_serial_core, nodes, weights, col_degrees, threshold, defer)
    assert _same_bits(cd, ref_cd)
    assert deferred == ref_deferred
    assert error == ref_error
    if error is not None:
        return found
    start = np.asarray(col_degrees)
    assert_order_basis(coeffs, (nodes, weights, _refs(len(nodes))), -start,
                       start, cd, deferred, _HOLDS * len(nodes) * _EPS)
    assert _same_bits(_column_lengths(coeffs), _column_lengths(ref_coeffs))
    if exact:
        assert _same_bits(coeffs, ref_coeffs)
        assert _same_bits(factor, ref_factor)
        return found
    pert_coeffs, pert_factor, *_ = _sweep(
        reference_serial_core, nodes, _ulp_perturbed(weights), col_degrees,
        threshold, defer)
    _assert_close_by_column(coeffs, ref_coeffs, pert_coeffs)
    # The divisor is the scale its column was normalized by, so it is held
    # to the relative precision of the normalized coefficients too.
    moved = max(abs(pert_factor - ref_factor),
                ref_factor * np.abs(pert_coeffs - ref_coeffs).max())
    assert abs(factor - ref_factor) <= max(1e-12 * ref_factor, 10.0 * moved)
    return found


def _sweep_inputs(system, order):
    nodes, weights, _ = tanint._flatten(system.weights, system.nodes, order)
    return nodes, weights, -system.tau


@pytest.mark.parametrize("variant", ["general", "l2", "gramian"])
def test_natural_order_sweeps_hold_their_conditions(variant):
    # Adjacent nodes in natural order made a fixed-order sweep
    # ill-conditioned: it deferred 58, 55 and 17 conditions and held the
    # rest to 2e-9, 3e-9 and 4e-6.  The pivoted sweep takes its own order,
    # defers none and matches the reference to rounding.
    system = assemble(random_problem(variant, 64, np.random.default_rng(74)))
    nodes, weights, col_degrees = _sweep_inputs(system, np.arange(system.order))
    _, _, deferred, _, _ = _assert_sweeps_match(nodes, weights, col_degrees)
    assert deferred == []


def test_scalar_sweep_matches_reference_on_deferring_and_raising_sweeps():
    # The first leaf of a rect system sees the pristine weights, and its
    # sweep defers; one sweep over the whole system would defer nothing.
    system = assemble(_rect_problem(128, "m=n/4"))
    nodes, weights, col_degrees = _sweep_inputs(
        system, np.sort(_leaf_indices(system.order, 0, 8)))
    assert len(nodes) == 192
    _, _, deferred, _, _ = _assert_sweeps_match(nodes, weights, col_degrees)
    assert len(deferred) > 0.1 * len(nodes)
    # The raising sweep absorbs the conditions it takes before the first
    # that the deferring sweep deferred.
    *_, cd, error = _assert_sweeps_match(nodes, weights, col_degrees,
                                         defer=False)
    assert error is not None and not np.array_equal(cd, col_degrees)


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
    _, _, deferred, _, _ = _assert_sweeps_match(nodes, weights, [0, 0, 2, 2])
    assert [k * 3 + row for k, row in deferred] == [2, 13]
    # A raising sweep absorbs the other 22 first.
    *_, cd, error = _assert_sweeps_match(nodes, weights, [0, 0, 2, 2],
                                         defer=False)
    assert error is not None and cd.sum() == 4 + 22
    # Raising at the first condition leaves the ledger untouched.
    *_, cd, error = _assert_sweeps_match(nodes[2:3], weights[2:3],
                                         [0, 0, 2, 2], defer=False)
    assert error is not None and cd.tolist() == [0, 0, 2, 2]
    # A condition repeated at a root of unity is left as rounding noise, not
    # as zero, by the library's fused update of its residual row and by the
    # reference's fresh evaluation alike: both call it annihilated against
    # the floor of its starting value.
    for seed in range(8):
        w = crandn(np.random.default_rng(seed), 3)
        for node in np.exp(2j * np.pi * np.arange(8) / 8):
            twice = (np.array([node, node]), np.array([w, w]))
            _, _, deferred, _, _ = _assert_sweeps_match(*twice, [0, 0, 0])
            assert deferred == [(0, 1)]
            *_, error = _assert_sweeps_match(*twice, [0, 0, 0], defer=False)
            assert error is not None


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
    # decide the first pivot: the first largest among the lowest columns,
    # bit for bit with the reference's argmax over them.
    *_, cd, _ = _assert_sweeps_match(np.array([1.0j]), np.array([row]),
                                     col_degrees, exact=True)
    expected = list(col_degrees)
    expected[pivot] += 1
    assert cd.tolist() == expected
    # The planted row leads a sweep whose later conditions pivot on the
    # ledger it leaves, to rounding of the reference.
    rng = np.random.default_rng(80)
    weights = np.vstack([row, crandn(rng, 15, len(row))])
    nodes = np.exp(2j * np.pi * rng.uniform(size=16))
    _assert_sweeps_match(nodes, weights, col_degrees)


def _absorption_order(monkeypatch, core, workspace, nodes, weights,
                      col_degrees):
    """The condition indices a sweep absorbs, in the order it absorbs them,
    read off the steps of its ``workspace`` class; the nodes must differ."""
    order, step = [], workspace.step

    def logged(self, j, node, mu):
        order.append(int(np.flatnonzero(nodes == node)[0]))
        return step(self, j, node, mu)

    monkeypatch.setattr(workspace, "step", logged)
    _sweep(core, nodes, weights, col_degrees, 1e-8, True)
    return order


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
    weights = np.array(weights, dtype=np.complex128)
    nodes = np.exp(2j * np.pi * np.arange(len(weights)) / 7)
    for core, workspace in ((tanint._serial_core, tanint._Workspace),
                            (reference_serial_core, CubeWorkspace)):
        order = _absorption_order(monkeypatch, core, workspace, nodes,
                                  weights, col_degrees)
        assert order[:len(first)] == first
    _assert_sweeps_match(nodes, weights, col_degrees)


def test_scalar_sweep_matches_reference_on_exact_ties_zeros_and_edges():
    # Against the identity, phi is the weight row itself, so a first step
    # matches bit for bit.  Two candidates of equal magnitude: the first
    # pivots.
    rng = np.random.default_rng(77)
    one = np.array([1.0j])
    *_, cd, _ = _assert_sweeps_match(
        one, np.array([[1.0, 1.0j, 0.5, 0.5]]), [0, 0, 2, 2], exact=True)
    assert cd.tolist() == [1, 0, 2, 2]
    # Conditions blind to columns 2 and 3 give them mu = 0 at every step,
    # so they are never mixed and keep length 1.
    weights = np.zeros((8, 4), dtype=np.complex128)
    weights[:, :2] = crandn(rng, 8, 2)
    nodes = np.exp(2j * np.pi * rng.uniform(size=8))
    coeffs, *_ = _assert_sweeps_match(nodes, weights, [0, 0, 9, 9])
    assert _column_lengths(coeffs).tolist() == [5, 5, 1, 1]
    # A pivot magnitude on the threshold's last bit, where NumPy's
    # vectorized and scalar complex abs can round apart (they do on AVX-512
    # hosts), so the deferral rests on which of the two the sweep takes.
    values = 1e-3 * crandn(rng, 64)
    apart = np.flatnonzero(np.abs(values) != [abs(v) for v in values])
    for v in values[apart[:4]] if apart.size else values[:1]:
        edge = max(np.abs(v[None])[0], abs(v))
        _assert_sweeps_match(one, np.array([[v, 0.0, 1.0, 0.0]]),
                             [0, 0, 2, 2], threshold=edge, exact=True)


@pytest.mark.parametrize("problem, defers", [
    (lambda: random_problem("general", 128, np.random.default_rng(7)), False),
    (lambda: _rect_problem(128, "p=1"), True),
], ids=["general-128", "deferred-cleanup"])
def test_scalar_sweep_matches_reference_end_to_end(monkeypatch, problem, defers):
    # Through the tree, the cleanup and one sweep over the whole system, the
    # library's sweep and the cube reference take the same decisions, and
    # the bases agree to rounding, against the reference on one-ulp
    # perturbed weights.  The rect system's conditions at conjugate nodes
    # start with rows of equal moduli, which the library's updated rows and
    # the reference's fresh values leave a few ulps apart; the tie window
    # ranks them alike.
    system = assemble(problem())
    perturbed = AssembledSystem(system.n, system.order, system.degree_bounds,
                                _ulp_perturbed(system.weights), system.n_lim)
    found = []
    for core, system in ((tanint._serial_core, system),
                         (reference_serial_core, system),
                         (reference_serial_core, perturbed)):
        monkeypatch.setattr(tanint, "_serial_core", core)
        diag = TanIntDiagnostics()
        basis, cd, deferred = rec_tan_int(system, diagnostics=diag)
        serial, serial_cd, _ = serial_tan_int(*all_conditions(system),
                                              -system.tau)
        decisions = diag.as_dict()
        scale = decisions.pop("max_column_scale")
        found.append((decisions, deferred, cd, serial_cd, scale,
                      basis.coeffs, serial.coeffs))
    new, ref, pert = found
    assert (new[0]["difficult_points"] > 0) == defers
    assert new[:2] == ref[:2] == pert[:2]
    assert _same_bits(new[2], ref[2]) and _same_bits(new[3], ref[3])
    assert abs(new[4] - ref[4]) <= max(1e-12 * ref[4], 10.0 * abs(pert[4] - ref[4]))
    for a, b, c in zip(new[5:], ref[5:], pert[5:]):
        _assert_close_by_column(a, b, c)


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
