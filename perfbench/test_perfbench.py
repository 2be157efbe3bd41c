"""The benchmark's own checks, at tiny problem sizes.

Run from the repository root with ``python -m pytest perfbench``.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

import run

HERE = Path(__file__).resolve().parent
if str(run.SRC) not in sys.path:
    sys.path.insert(0, str(run.SRC))  # the library under test, as run.main imports it
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 64


def _run(capsys, tmp_path, workload, trace, seed=3):
    with mock.patch.dict(os.environ):  # main caps the thread variables
        code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0",
                         "--trace", str(trace)], size=TINY, out_dir=tmp_path)
    lines = capsys.readouterr().out.strip().splitlines()
    assert code == 0
    return lines, json.loads(lines[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_every_workload_runs_and_prints_every_metric(capsys, tmp_path, workload, trace):
    lines, result = _run(capsys, tmp_path, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    named = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in named}
    printed = {(t[0], t[3]) for t in map(str.split, lines) if len(t) == 4 and t[1] == "="}
    for m in named:
        got = result["metrics"][m["name"]]
        assert got["unit"] == m["unit"]
        assert np.isfinite(got["value"])
        assert (m["name"], m["unit"]) in printed
    record = json.loads((tmp_path / f"{workload}-seed3-trace{trace}.json").read_text())
    assert record["env"]["nproc"] >= 1
    assert "longdouble_extends_double" in record["env"]
    assert bool(record["spans"]) == bool(trace)


def test_end_to_end_metrics_are_never_zero(capsys, tmp_path):
    _, result = _run(capsys, tmp_path, "nufft", 0)
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_times_are_calibrated_by_the_reference_kernel(capsys, tmp_path, monkeypatch):
    import measure

    monkeypatch.setattr(measure, "reference_seconds", lambda: measure.REFERENCE_S / 2)
    _, result = _run(capsys, tmp_path, "rect", 0)
    wall = json.loads((tmp_path / "rect-seed3-trace0.json").read_text())["detail"]["wall_metrics"]
    got = {name: m["value"] for name, m in result["metrics"].items()}
    assert got["setup_s"] == wall["setup_s"]
    assert got["solve_s_p50"] == pytest.approx(2 * wall["solve_s_p50"])
    assert got["kparams_per_s"] == pytest.approx(wall["kparams_per_s"] / 2)
    assert got["residual_digits_mean"] == wall["residual_digits_mean"]


def test_deferral_shows_on_rect_and_not_on_square(capsys, tmp_path):
    _, square = _run(capsys, tmp_path, "square", 1)
    _, rect = _run(capsys, tmp_path, "rect", 1)
    assert square["metrics"]["tanint.deferred"]["value"] == 0
    assert rect["metrics"]["tanint.deferred"]["value"] > 0
    assert square["metrics"]["fftpoly.matpoly_multiply_calls"]["value"] > 0


def test_traced_run_restores_the_library_functions(capsys, tmp_path):
    import toepreg.solver as solver
    import toepreg.tanint as tanint

    names = {solver: ("assemble", "rec_tan_int", "extract_solution",
                      "apply_normal_operator"),
             tanint: ("matpoly_multiply", "grid_eval")}
    before = {(m, n): getattr(m, n) for m, ns in names.items() for n in ns}
    _run(capsys, tmp_path, "square", 1)
    assert all(getattr(m, n) is f for (m, n), f in before.items())


def test_patched_restores_after_an_error():
    import toepreg.tanint as tanint
    from spans import Tracer, patched

    original = tanint.grid_eval
    with pytest.raises(ZeroDivisionError):
        with patched(Tracer(), [(tanint, "grid_eval", "fftpoly.grid_eval", None)]):
            assert tanint.grid_eval is not original
            1 / 0
    assert tanint.grid_eval is original


def test_self_time_subtracts_children():
    from spans import Tracer

    tracer = Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    assert inner.parent == 0 and outer.parent == -1
    own = tracer.self_seconds()
    assert own[0] == pytest.approx(outer.seconds - inner.seconds)
    assert own[1] == inner.seconds


def test_same_seed_gives_same_inputs():
    import workloads

    for name in workloads.NAMES:
        a = [make() for make in workloads.makers(name, 5, TINY)]
        b = [make() for make in workloads.makers(name, 5, TINY)]
        c = [make() for make in workloads.makers(name, 6, TINY)]
        assert all(np.array_equal(x.problem.normal_rhs_vector(), y.problem.normal_rhs_vector())
                   for x, y in zip(a, b))
        assert not np.array_equal(a[0].problem.normal_rhs_vector(),
                                  c[0].problem.normal_rhs_vector())


def test_fails_without_the_library_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "square", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
