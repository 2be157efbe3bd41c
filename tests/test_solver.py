"""End-to-end solver checks: fast path vs dense oracle, the matrix-free
normal operator, and conjugate gradients."""

from dataclasses import replace

import numpy as np
import pytest

from helpers import identity_spec, random_spec, rel_err
from toepreg import experiments
from toepreg.solver import (
    CGConfig,
    NormalOperator,
    apply_normal_operator,
    cg_solve,
    dense_normal_matrix,
    dense_oracle,
    solve_tikhonov,
)
from toepreg.extension import assemble
from toepreg.tanint import (
    SingularSystemError,
    TanIntDiagnostics,
    extract_solution,
    rec_tan_int,
)
from toepreg.toeplitz import HermitianToeplitzSpec, ProblemSpec, ToeplitzSpec


def identity_gramian(n: int) -> HermitianToeplitzSpec:
    col = np.zeros(n, dtype=np.complex128)
    col[0] = 1.0
    return HermitianToeplitzSpec(n, col)


def random_problem(variant: str, n: int, rng) -> ProblemSpec:
    if variant == "general":
        return ProblemSpec.general(random_spec(rng, n, n), random_spec(rng, n, n),
                                   rng.standard_normal(n) + 1j * rng.standard_normal(n))
    if variant == "l2":
        return ProblemSpec.l2(random_spec(rng, n, n), 1.5,
                              rng.standard_normal(n) + 1j * rng.standard_normal(n))
    col = np.empty(n, dtype=np.complex128)
    col[0] = 10.0 * np.sqrt(n)
    col[1:] = (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1)) / np.sqrt(2.0)
    return ProblemSpec.gramian(HermitianToeplitzSpec(n, col), random_spec(rng, n, n),
                               rng.standard_normal(n) + 1j * rng.standard_normal(n))


# -- fast path ---------------------------------------------------------------


def test_identity_problem_recovers_half_rhs():
    # T = L = I makes the normal matrix 2I, so x is b / 2.
    b = np.array([4.0, 8.0, 12.0, 16.0])
    problem = ProblemSpec.general(identity_spec(4), identity_spec(4), b)
    report = solve_tikhonov(problem)
    assert np.allclose(report.x_hat, [2.0, 4.0, 6.0, 8.0], atol=1e-12)
    assert np.allclose(dense_oracle(problem), [2.0, 4.0, 6.0, 8.0], atol=1e-14)


def test_scalar_ridge_problem():
    # (4 + 1) x = 2 * 10.
    problem = ProblemSpec.l2(ToeplitzSpec(1, 1, np.array([2.0])), 1.0, [10.0])
    report = solve_tikhonov(problem)
    assert np.allclose(report.x_hat, [4.0], atol=1e-12)


@pytest.mark.parametrize("variant", ["general", "l2", "gramian"])
def test_fast_path_matches_dense_oracle(variant):
    rng = np.random.default_rng(11)
    for _ in range(3):
        problem = random_problem(variant, 32, rng)
        report = solve_tikhonov(problem)
        assert rel_err(report.x_hat, dense_oracle(problem)) < 1e-9


def test_rectangular_data_and_regularizer():
    rng = np.random.default_rng(12)
    problem = ProblemSpec.general(
        random_spec(rng, 24, 16), random_spec(rng, 10, 16),
        rng.standard_normal(24) + 1j * rng.standard_normal(24))
    report = solve_tikhonov(problem)
    assert rel_err(report.x_hat, dense_oracle(problem)) < 1e-9


def test_planted_solution_is_recovered():
    rng = np.random.default_rng(13)
    base = random_problem("general", 64, rng)
    x_true = (rng.standard_normal(64) + 1j * rng.standard_normal(64)) / np.sqrt(2.0)
    y = apply_normal_operator(base, x_true)
    planted = replace(base, b=None, normal_rhs=y)
    report = solve_tikhonov(planted)
    assert float(np.abs(report.x_hat - x_true).max()) < 1e-9


@pytest.mark.parametrize("variant", ["general", "l2", "gramian"])
def test_dense_oracle_recovers_planted_solution(variant):
    # a planted problem carries only the normal-equation rhs, no b
    rng = np.random.default_rng(19)
    base = random_problem(variant, 24, rng)
    x_true = (rng.standard_normal(24) + 1j * rng.standard_normal(24)) / np.sqrt(2.0)
    planted = replace(base, b=None,
                      normal_rhs=apply_normal_operator(base, x_true))
    assert rel_err(dense_oracle(planted), x_true) < 1e-10


def test_report_fields():
    rng = np.random.default_rng(14)
    problem = random_problem("general", 32, rng)
    report = solve_tikhonov(problem)
    assert report.variant == "general"
    assert report.wall_time > 0.0
    assert report.relative_residual < 1e-8
    # Verify the reported residual against a direct recomputation.
    rhs = problem.normal_rhs_vector()
    direct = np.linalg.norm(dense_normal_matrix(problem) @ report.x_hat - rhs)
    assert abs(report.relative_residual - direct / np.linalg.norm(rhs)) < 1e-12
    assert report.diagnostics.conditions_total > 0
    # One solution column, everything else pushed one degree past its bound.
    degrees = sorted(report.final_col_degrees.tolist())
    assert degrees == [0] + [1] * (len(degrees) - 1)
    # The reported basis is the one the solution was read from.
    assert np.array_equal(extract_solution(report.basis, report.final_col_degrees,
                                           problem.n),
                          report.x_hat)


def test_solve_is_deterministic():
    rng = np.random.default_rng(15)
    problem = random_problem("l2", 48, rng)
    first = solve_tikhonov(problem).x_hat
    second = solve_tikhonov(problem).x_hat
    assert np.array_equal(first, second)


def test_non_finite_solution_raises():
    # Finite data near the top of the double range: the solve overflows
    # inside and used to return an all-NaN x_hat with a nan residual.
    base = experiments.random_problem("general", 64, np.random.default_rng(5))
    scale = 1e300
    problem = ProblemSpec.general(
        ToeplitzSpec(base.T.rows, base.T.cols, base.T.gen * scale),
        ToeplitzSpec(base.L.rows, base.L.cols, base.L.gen * scale),
        base.b * scale)
    with np.errstate(all="ignore"), pytest.raises(SingularSystemError,
                                                  match="non-finite"):
        solve_tikhonov(problem)


def test_leaf_budget_controls_recursion():
    # The leaf budget is set in one place, ``assemble``.
    rng = np.random.default_rng(16)
    problem = random_problem("l2", 64, rng)
    found = {}
    for n_lim in (4096, 64):
        diag = TanIntDiagnostics()
        basis, cd, _ = rec_tan_int(assemble(problem, n_lim=n_lim), diagnostics=diag)
        found[n_lim] = (diag.recursion_depth, extract_solution(basis, cd, problem.n))
    (serial_depth, serial_x), (depth, x) = found[4096], found[64]
    assert depth > serial_depth == 1
    assert rel_err(x, serial_x) < 1e-9
    assert rel_err(solve_tikhonov(problem).x_hat, serial_x) < 1e-9


def test_dense_oracle_size_guard():
    rng = np.random.default_rng(17)
    # n = 2049 is past the oracle's limit, which raises before anything
    # dense is built.
    problem = random_problem("l2", 2049, rng)
    with pytest.raises(ValueError, match="n <= 2048"):
        dense_oracle(problem)


def test_dense_oracle_satisfies_normal_equations():
    rng = np.random.default_rng(18)
    for variant in ("general", "l2", "gramian"):
        problem = random_problem(variant, 24, rng)
        x = dense_oracle(problem)
        residual = dense_normal_matrix(problem) @ x - problem.normal_rhs_vector()
        assert np.linalg.norm(residual) < 1e-11 * np.linalg.norm(x)


# -- matrix-free normal operator ---------------------------------------------


def test_normal_operator_identity_doubles():
    problem = ProblemSpec.general(identity_spec(8), identity_spec(8),
                                  np.zeros(8))
    x = np.arange(1.0, 9.0) + 1j
    assert np.allclose(apply_normal_operator(problem, x), 2.0 * x, atol=1e-12)


@pytest.mark.parametrize("variant", ["general", "l2", "gramian"])
def test_normal_operator_matches_dense(variant):
    rng = np.random.default_rng(19)
    problem = random_problem(variant, 24, rng)
    dense = dense_normal_matrix(problem)
    x = (rng.standard_normal(24) + 1j * rng.standard_normal(24)) / np.sqrt(2.0)
    assert rel_err(apply_normal_operator(problem, x), dense @ x) < 1e-12


def test_normal_operator_rectangular_blocks():
    rng = np.random.default_rng(20)
    problem = ProblemSpec.general(
        random_spec(rng, 20, 12), random_spec(rng, 7, 12),
        rng.standard_normal(20) + 1j * rng.standard_normal(20))
    dense = dense_normal_matrix(problem)
    x = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    assert rel_err(apply_normal_operator(problem, x), dense @ x) < 1e-12


@pytest.mark.parametrize("variant,count", [("general", 6), ("l2", 4), ("gramian", 4)])
def test_normal_operator_transform_count(variant, count):
    # Generator spectra are cached at construction, so a single apply costs
    # a fixed number of length-q transforms: one for x, two per factor and
    # one inverse of the summed spectra.
    rng = np.random.default_rng(21)
    problem = random_problem(variant, 16, rng)
    op = NormalOperator(problem)
    assert op.transforms == 0
    op.apply(np.ones(16))
    assert op.transforms == count
    op.apply(np.ones(16))
    assert op.transforms == 2 * count


# -- the diagonal term counts in the order by its band ----------------------


def banded_gramian_problem(rng, n: int, p: int) -> ProblemSpec:
    """A tridiagonal, diagonally dominant Gramian with a p-row L."""
    col = np.zeros(n, dtype=np.complex128)
    col[:2] = 4.0, 1.0 - 0.5j
    return ProblemSpec.gramian(HermitianToeplitzSpec(n, col), random_spec(rng, p, n),
                               rng.standard_normal(n) + 1j * rng.standard_normal(n))


@pytest.mark.parametrize("m,order", [(128, 640), (513, 1088)], ids=["wide", "tall"])
def test_ridge_keeps_order_m_plus_n(m, order):
    # A ridge counts one row, so the data rows alone set the order.
    problem = experiments.random_problem("l2", 512, np.random.default_rng(26), m=m)
    assert problem.n_tilde == m + 512
    assert assemble(problem).order == order
    report = solve_tikhonov(problem)
    assert rel_err(report.x_hat, dense_oracle(problem)) < 1e-9


def test_banded_gramian_runs_at_order_n_plus_p():
    # A tridiagonal Gramian counts two rows, so L's p = n/4 rows set the
    # order n + p, where a full Gramian would set 2n.
    n, p = 512, 128
    problem = banded_gramian_problem(np.random.default_rng(27), n, p)
    assert problem.n_tilde == n + p
    assert assemble(problem).order == n + p
    report = solve_tikhonov(problem)
    assert report.diagnostics.difficult_points == 0
    assert rel_err(report.x_hat, dense_oracle(problem)) < 1e-9


@pytest.mark.parametrize("build", [
    lambda rng: experiments.random_problem("l2", 512, rng, m=128),
    lambda rng: banded_gramian_problem(rng, 512, 128),
], ids=["wide-ridge", "banded-gramian"])
def test_normal_operator_embeds_the_diagonal_by_its_band(build):
    # The circulant is too short to hold D's full generator.
    rng = np.random.default_rng(28)
    problem = build(rng)
    op = NormalOperator(problem)
    assert op.q < 2 * problem.n - 1
    x = (rng.standard_normal(problem.n) + 1j * rng.standard_normal(problem.n)) / np.sqrt(2.0)
    assert rel_err(op.apply(x), dense_normal_matrix(problem) @ x) < 1e-12


# -- conjugate gradients -----------------------------------------------------


def test_cg_identity_converges_in_one_iteration():
    b = np.array([4.0, 8.0, 12.0, 16.0])
    problem = ProblemSpec.general(identity_spec(4), identity_spec(4), b)
    x, iterations = cg_solve(problem)
    assert iterations == 1
    assert np.allclose(x, b / 2.0, atol=1e-12)


@pytest.mark.parametrize("variant", ["general", "l2", "gramian"])
def test_cg_matches_dense_solution(variant):
    rng = np.random.default_rng(22)
    problem = random_problem(variant, 32, rng)
    x, _ = cg_solve(problem, CGConfig(tolerance=1e-12))
    assert rel_err(x, dense_oracle(problem)) < 1e-6


def test_cg_zero_rhs_short_circuits():
    problem = ProblemSpec.l2(identity_spec(6), 1.0, np.zeros(6))
    x, iterations = cg_solve(problem)
    assert iterations == 0
    assert not x.any()


def test_cg_time_budget_always_completes_one_iteration():
    rng = np.random.default_rng(23)
    problem = random_problem("general", 64, rng)
    _, iterations = cg_solve(problem, CGConfig(time_budget=0.0))
    assert iterations == 1


def test_cg_reuses_provided_operator():
    rng = np.random.default_rng(25)
    problem = random_problem("l2", 16, rng)
    op = NormalOperator(problem)
    # One iteration under a zero time budget: four transforms for l2.
    cg_solve(problem, CGConfig(tolerance=0.0, time_budget=0.0), operator=op)
    assert op.transforms == 4
