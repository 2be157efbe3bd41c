"""Benchmark drivers: seeded problem streams, the complexity model fit,
planted-solution sweeps, and result serialization."""

import numpy as np
import pytest

from toepreg.experiments import (
    ExperimentConfig,
    _trial_rng,
    complex_normal,
    fit_complexity,
    free_parameters,
    random_problem,
    run_accuracy,
    run_cg_equivalence,
    run_complexity,
    write_rows,
)


def test_free_parameters_frozen_counts():
    assert free_parameters("general", 512) == 2046
    assert free_parameters("l2", 512) == 1023
    assert free_parameters("gramian", 512) == 1534
    with pytest.raises(ValueError):
        free_parameters("dense", 512)


def test_complex_normal_is_unit_variance():
    rng = np.random.default_rng(41)
    z = complex_normal(rng, 200_000)
    assert abs(np.mean(z)) < 0.01
    assert abs(np.mean(np.abs(z) ** 2) - 1.0) < 0.01


def test_trial_streams_are_reproducible_and_disjoint():
    base = _trial_rng(5, "accuracy", "l2", 16, 0).standard_normal(8)
    again = _trial_rng(5, "accuracy", "l2", 16, 0).standard_normal(8)
    assert np.array_equal(base, again)
    for other in (_trial_rng(5, "accuracy", "l2", 16, 1),
                  _trial_rng(5, "complexity", "l2", 16, 0),
                  _trial_rng(5, "accuracy", "general", 16, 0),
                  _trial_rng(6, "accuracy", "l2", 16, 0)):
        assert not np.array_equal(base, other.standard_normal(8))


def test_random_problem_families():
    rng = np.random.default_rng(42)
    general = random_problem("general", 32, rng)
    assert general.T.rows == general.T.cols == 32
    assert general.b.shape == (32,)
    ridge = random_problem("l2", 32, rng)
    assert ridge.beta == pytest.approx(32 ** 0.25)
    gram = random_problem("gramian", 32, rng)
    assert gram.G.gen[0] == pytest.approx(10.0 * np.sqrt(32))
    with pytest.raises(ValueError):
        random_problem("banded", 32, rng)


def test_random_problem_block_shapes():
    rng = np.random.default_rng(43)
    general = random_problem("general", 16, rng, m=4, p=12)
    assert general.T.shape == (4, 16) and general.L.shape == (12, 16)
    assert general.b.shape == (4,)
    assert random_problem("l2", 16, rng, beta=0.5).beta == 0.5
    assert random_problem("gramian", 16, rng, p=3).L.shape == (3, 16)
    # explicit square shapes draw the same stream as the defaults
    a = random_problem("general", 16, np.random.default_rng(44))
    b = random_problem("general", 16, np.random.default_rng(44), m=16, p=16)
    assert np.array_equal(a.T.gen, b.T.gen) and np.array_equal(a.b, b.b)


def test_fit_recovers_exact_model():
    sizes = np.array([256.0, 512.0, 1024.0, 2048.0])
    times = 3.0 * sizes * np.log(sizes) ** 2 + 2.0 * sizes * np.log(sizes)
    fit = fit_complexity(sizes, times)
    assert fit.c1 == pytest.approx(3.0, abs=1e-9)
    assert fit.c2 == pytest.approx(2.0, abs=1e-9)
    assert fit.r_squared > 0.999999


def test_fit_handles_constant_times():
    fit = fit_complexity([64, 128], [1.0, 1.0])
    assert 0.0 <= fit.r_squared <= 1.0


@pytest.mark.parametrize("fields, named", [
    ({"trials": -2}, "trials"),
    ({"sizes": ()}, "sizes"),
])
def test_experiment_config_rejects_empty_sweeps(fields, named):
    with pytest.raises(ValueError, match=f"^{named} "):
        ExperimentConfig(**fields)


def test_run_complexity_schema():
    cfg = ExperimentConfig(variants=("l2",), sizes=(16, 32), trials=2, seed=3)
    rows, fits = run_complexity(cfg)
    assert len(rows) == 2
    assert list(rows[0]) == ["variant", "n", "params", "mean_s", "median_s"]
    assert all(row["mean_s"] > 0.0 and row["median_s"] > 0.0 for row in rows)
    assert rows[0]["params"] == free_parameters("l2", 16)
    assert set(fits) == {"l2"}


def test_run_accuracy_planted_errors_are_tiny():
    cfg = ExperimentConfig(sizes=(16,), trials=3, seed=4)
    rows = run_accuracy(cfg)
    assert [row["variant"] for row in rows] == ["general", "l2", "gramian"]
    assert list(rows[0]) == ["variant", "n", "max_err"]
    assert all(row["max_err"] < 1e-10 for row in rows)


def test_run_accuracy_is_deterministic():
    cfg = ExperimentConfig(variants=("general",), sizes=(16,), trials=2, seed=9)
    assert run_accuracy(cfg) == run_accuracy(cfg)


def test_run_cg_equivalence_schema():
    cfg = ExperimentConfig(variants=("l2", "gramian"), sizes=(16,), trials=1,
                           seed=5)
    rows = run_cg_equivalence(cfg)
    assert list(rows[0]) == ["variant", "n", "mean_iters",
                             "cg_max_err", "direct_max_err"]
    assert all(row["mean_iters"] >= 1.0 for row in rows)
    assert all(row["direct_max_err"] < 1e-9 for row in rows)


def test_write_rows_csv_full_precision(tmp_path):
    path = tmp_path / "rows.csv"
    write_rows([{"variant": "l2", "n": 512, "max_err": 0.1}], path)
    text = path.read_text()
    assert text.splitlines()[0] == "variant,n,max_err"
    # 17 significant digits make the float roundtrip exactly.
    assert text.splitlines()[1] == "l2,512,0.10000000000000001"
    assert float("0.10000000000000001") == 0.1


def test_write_rows_json_roundtrip(tmp_path):
    import json

    rows = [{"variant": "general", "n": 8, "max_err": 2.5e-11}]
    path = tmp_path / "rows.json"
    write_rows(rows, path, fmt="json")
    assert json.loads(path.read_text()) == rows


def test_write_rows_rejects_bad_input(tmp_path):
    with pytest.raises(ValueError):
        write_rows([], tmp_path / "empty.csv")
    with pytest.raises(ValueError):
        write_rows([{"a": 1}], tmp_path / "rows.xml", fmt="xml")
