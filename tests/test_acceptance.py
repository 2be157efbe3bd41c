"""Package-level gates.

Two shared problem corpora (small sizes against the dense oracle, n=512
planted solutions) feed the equivalence, accuracy, degree-structure, and
residual checks; the remaining tests cover the complexity shape, the
serial/recursive agreement, the extension search, the time-matched
conjugate gradient table, and the nonuniform sampling comparison.
"""

import math
import time
from dataclasses import replace

import numpy as np
import pytest

from helpers import all_conditions, basis_residuals, rel_err, serial_tan_int
from toepreg import tanint
from toepreg.experiments import (
    VARIANTS,
    ExperimentConfig,
    _trial_rng,
    complex_normal,
    fit_complexity,
    random_problem,
    run_cg_equivalence,
    run_complexity,
)
from toepreg.extension import assemble, opt_extend
from toepreg.fftpoly import next_fast_len
from toepreg.nufft import NufftConfig, nufft_problem, run_nufft
from toepreg.solver import (
    CGConfig,
    apply_normal_operator,
    cg_solve,
    dense_oracle,
    solve_tikhonov,
)
from toepreg.tanint import extract_solution, rec_tan_int


def _solve_record(problem, reference, entrywise: bool):
    """One timed solve plus the structural data the invariant checks need."""
    t0 = time.perf_counter()
    report = solve_tikhonov(problem)
    elapsed = time.perf_counter() - t0
    if entrywise:
        err = float(np.abs(report.x_hat - reference).max())
    else:
        err = rel_err(report.x_hat, reference)
    system = assemble(problem)
    res = float(np.abs(basis_residuals(system, report.basis)).max())
    res /= float(np.abs(system.weights).max())
    return {
        "variant": problem.variant,
        "err": err,
        "degrees": sorted(report.final_col_degrees.tolist()),
        "p": system.p,
        "residual": res,
        "elapsed": elapsed,
    }


@pytest.fixture(scope="session")
def small_corpus():
    """200 problems per variant across n in {4,8,16,32,64}, solved against
    the dense oracle."""
    records = []
    solve_oracle_time = 0.0
    for code, variant in enumerate(VARIANTS):
        for n in (4, 8, 16, 32, 64):
            for trial in range(40):
                rng = np.random.default_rng(
                    np.random.SeedSequence((8801, code, n, trial)))
                problem = random_problem(variant, n, rng)
                t0 = time.perf_counter()
                reference = dense_oracle(problem)
                solve_oracle_time += time.perf_counter() - t0
                record = _solve_record(problem, reference, entrywise=False)
                solve_oracle_time += record["elapsed"]
                records.append(record)
    return records, solve_oracle_time


@pytest.fixture(scope="session")
def planted_corpus():
    """100 planted-solution trials per variant at n=512, the same stream the
    accuracy driver uses."""
    records = []
    solve_time = 0.0
    for variant in VARIANTS:
        for trial in range(100):
            rng = _trial_rng(2024, "accuracy", variant, 512, trial)
            problem = random_problem(variant, 512, rng)
            x_true = complex_normal(rng, 512)
            y = apply_normal_operator(problem, x_true)
            planted = replace(problem, b=None, normal_rhs=y)
            record = _solve_record(planted, x_true, entrywise=True)
            solve_time += record["elapsed"]
            records.append(record)
    return records, solve_time


def test_small_sizes_match_the_dense_oracle(small_corpus):
    records, elapsed = small_corpus
    for variant in VARIANTS:
        errs = [r["err"] for r in records if r["variant"] == variant]
        assert len(errs) == 200
        assert max(errs) < 1e-8
    assert elapsed < 120.0


def test_planted_solutions_recovered_at_scale(planted_corpus):
    records, elapsed = planted_corpus
    for variant in VARIANTS:
        errs = [r["err"] for r in records if r["variant"] == variant]
        assert len(errs) == 100
        assert max(errs) < 1e-9
    assert elapsed < 600.0


def test_complexity_shape():
    sizes = (512, 1024, 2048, 4096)
    cfg = ExperimentConfig(sizes=sizes, trials=12, seed=71)
    rows, _ = run_complexity(cfg)
    for variant in VARIANTS:
        medians = [row["median_s"] for row in rows if row["variant"] == variant]
        fit = fit_complexity(sizes, medians)
        assert fit.r_squared > 0.99, (variant, fit)
        # n log^2 n predicts about 2.2-2.4 per doubling at these sizes
        assert medians[-1] / medians[-2] <= 2.7, (variant, medians)


def test_transform_work_grows_as_n_log2_n(monkeypatch):
    """The complexity claim on counted work instead of wall time.

    Every combine product and weight update is counted at the names the
    driver calls, as sum p^2 r log2 r over its transforms of length r on
    p x p polynomial entries.  n log^2 n predicts a flat ratio c(n) / (n
    log2^2 n) up to the slowly growing depth term (1.18x for general, 1.33x
    for l2 and gramian across these sizes); an O(n^2) term would grow it
    about 1.6x per doubling.
    """
    work = []
    multiply, grid_eval = tanint.matpoly_multiply, tanint.grid_eval

    def counted_multiply(a, b):
        r = next_fast_len(a.length + b.length - 1)
        work.append(a.coeffs.shape[0] ** 2 * r * math.log2(r))
        return multiply(a, b)

    def counted_grid_eval(coeffs, n_nodes, offset=0, stride=1):
        r = n_nodes // stride
        work.append(math.prod(np.shape(coeffs)[:-1]) * r * math.log2(r))
        return grid_eval(coeffs, n_nodes, offset, stride)

    monkeypatch.setattr(tanint, "matpoly_multiply", counted_multiply)
    monkeypatch.setattr(tanint, "grid_eval", counted_grid_eval)
    for variant in VARIANTS:
        ratios = []
        for n in (512, 1024, 2048, 4096):
            rng = _trial_rng(71, "complexity", variant, n, 0)
            work.clear()
            solve_tikhonov(random_problem(variant, n, rng))
            ratios.append(sum(work) / (n * math.log2(n) ** 2))
        assert max(ratios) <= 1.5 * min(ratios), (variant, ratios)


def test_every_solve_has_minimal_degree_structure(small_corpus, planted_corpus):
    for records, _ in (small_corpus, planted_corpus):
        for record in records:
            assert record["degrees"] == [0] + [1] * (record["p"] - 1), record


def test_every_basis_interpolates_all_conditions(small_corpus, planted_corpus):
    for records, _ in (small_corpus, planted_corpus):
        worst = max(record["residual"] for record in records)
        assert worst < 1e-8


def test_serial_and_recursive_drivers_agree():
    plans = [("general", 16), ("general", 24), ("general", 32), ("general", 48),
             ("l2", 24), ("l2", 48), ("l2", 64), ("l2", 96),
             ("gramian", 24), ("gramian", 48), ("gramian", 64), ("gramian", 96)]
    for checked in range(50):
        variant, n = plans[checked % len(plans)]
        rng = np.random.default_rng(np.random.SeedSequence((8806, checked)))
        problem = random_problem(variant, n, rng)
        system = assemble(problem, n_lim=64)
        assert system.rows * system.order <= 512
        basis_serial, cd_serial, _ = serial_tan_int(*all_conditions(system),
                                                    -system.tau)
        basis_rec, cd_rec, _ = rec_tan_int(system)
        x_serial = extract_solution(basis_serial, cd_serial, problem.n)
        x_rec = extract_solution(basis_rec, cd_rec, problem.n)
        assert rel_err(x_rec, x_serial) < 1e-9


def test_extension_search_is_optimal_and_feasible():
    for n_lim in (256, 512):
        for n_tilde in range(2, 5001):
            k, p, m = opt_extend(n_tilde, n_lim, rows=3)
            order = (1 << p) * m
            assert order == n_tilde + k
            assert k >= 0
            assert 3 * m <= n_lim // 2
    # hand trace: 1000 -> 1024 = 2**5 * 32 under the paired, even rule
    assert opt_extend(1000, 256, rows=3) == (24, 5, 32)


def test_time_matched_conjugate_gradient_table():
    cfg = ExperimentConfig(sizes=(512,), trials=5, seed=2024)
    rows = run_cg_equivalence(cfg)
    assert [row["variant"] for row in rows] == list(VARIANTS)
    for row in rows:
        assert list(row) == ["variant", "n", "mean_iters",
                             "cg_max_err", "direct_max_err"]
        assert row["direct_max_err"] < 1e-9
        # iteration counts are hardware-bound: reported, never asserted
        assert row["mean_iters"] >= 1.0


def test_nonuniform_reconstruction_beats_time_matched_cg():
    direct_wins = 0
    for seed in range(10):
        out = run_nufft(NufftConfig(seed=seed))
        assert out["rel_err_direct"] < 0.05
        if out["rel_residual_direct"] <= out["rel_residual_cg"]:
            direct_wins += 1
    assert direct_wins >= 8
    # CG's error under the direct solve's wall time is hardware-bound:
    # reported, never asserted.  Run to a fixed tolerance, which no host
    # changes, CG reaches the same 5% on seed 0 (3e-4, in 1540 iterations).
    # The problem run_nufft(NufftConfig(seed=0)) solves, from its stream.
    rng = np.random.default_rng(np.random.SeedSequence((0, 93)))
    problem, x_true, _ = nufft_problem(NufftConfig(seed=0), rng)
    x_cg, _ = cg_solve(problem, CGConfig(tolerance=1e-8))
    assert rel_err(x_cg, x_true) < 0.05
