"""Command line wiring: subcommands, JSON input plumbing, exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10; pytest itself depends on tomli there
    import tomli as tomllib

import numpy as np
import pytest

import toepreg
from helpers import dense_tikhonov, random_spec
from toepreg.cli import main
from toepreg.toeplitz import ProblemSpec, spec_to_json, vector_to_json


def write_json(path, obj):
    path.write_text(json.dumps(obj))
    return str(path)


def read_vector(path):
    obj = json.loads(path.read_text())
    return np.asarray(obj["re"]) + 1j * np.asarray(obj["im"])


def test_solve_random_instance(tmp_path, capsys):
    out = tmp_path / "x.json"
    code = main(["solve", "--variant", "general", "--n", "24", "--seed", "3",
                 "--out", str(out)])
    assert code == 0
    assert "variant=general" in capsys.readouterr().out
    assert read_vector(out).shape == (24,)


def test_solve_l2_from_files(tmp_path):
    rng = np.random.default_rng(51)
    t = random_spec(rng, 16, 16)
    b = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    out = tmp_path / "x.json"
    code = main(["solve", "--variant", "l2",
                 "--input", write_json(tmp_path / "T.json", spec_to_json(t)),
                 "--b", write_json(tmp_path / "b.json", vector_to_json(b)),
                 "--beta-sq", "auto", "--out", str(out)])
    assert code == 0
    # auto keeps the default |beta|^2 = sqrt(n)
    problem = ProblemSpec.l2(t, 16 ** 0.25, b)
    assert np.abs(read_vector(out) - dense_tikhonov(problem)).max() < 1e-9


def test_solve_general_from_files(tmp_path):
    rng = np.random.default_rng(52)
    t = random_spec(rng, 20, 12)
    reg = random_spec(rng, 8, 12)
    b = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    out = tmp_path / "x.json"
    code = main(["solve", "--variant", "general",
                 "--input", write_json(tmp_path / "T.json", spec_to_json(t)),
                 "--reg", write_json(tmp_path / "L.json", spec_to_json(reg)),
                 "--b", write_json(tmp_path / "b.json", vector_to_json(b)),
                 "--out", str(out)])
    assert code == 0
    problem = ProblemSpec.general(t, reg, b)
    assert np.abs(read_vector(out) - dense_tikhonov(problem)).max() < 1e-9


def test_solve_gramian_from_files(tmp_path):
    rng = np.random.default_rng(53)
    n = 12
    col = np.empty(n, dtype=np.complex128)
    col[0] = 10.0 * np.sqrt(n)
    col[1:] = (rng.standard_normal(n - 1) + 1j * rng.standard_normal(n - 1))
    gen = np.concatenate([col[1:][::-1].conj(), col])
    g_full = {"rows": n, "cols": n, "gen_re": gen.real.tolist(),
              "gen_im": gen.imag.tolist()}
    reg = random_spec(rng, n, n)
    rhs = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    out = tmp_path / "x.json"
    code = main(["solve", "--variant", "gramian",
                 "--input", write_json(tmp_path / "G.json", g_full),
                 "--reg", write_json(tmp_path / "L.json", spec_to_json(reg)),
                 "--rhs", write_json(tmp_path / "rhs.json", vector_to_json(rhs)),
                 "--out", str(out)])
    assert code == 0


def test_non_hermitian_gramian_rejected(tmp_path):
    rng = np.random.default_rng(54)
    spec = random_spec(rng, 8, 8)
    code = main(["solve", "--variant", "gramian",
                 "--input", write_json(tmp_path / "G.json", spec_to_json(spec)),
                 "--reg", write_json(tmp_path / "L.json",
                                     spec_to_json(random_spec(rng, 8, 8))),
                 "--rhs", write_json(tmp_path / "rhs.json",
                                     vector_to_json(np.ones(8)))])
    assert code == 2


def test_unknown_flag_exits_two(capsys):
    assert main(["solve", "--variant", "l2", "--n", "8", "--frobnicate"]) == 2
    assert "usage" in capsys.readouterr().err


def test_missing_subcommand_exits_two():
    assert main([]) == 2


def test_bad_size_list_exits_two():
    assert main(["complexity", "--sizes", "0,16"]) == 2


def test_missing_input_files_exit_two(tmp_path):
    # general without --reg/--b is a config error, as is a missing path
    assert main(["solve", "--variant", "general",
                 "--input", write_json(tmp_path / "T.json",
                                       {"rows": 2, "cols": 2, "gen_re": [0, 1, 0]})]) == 2
    assert main(["solve", "--variant", "l2",
                 "--input", str(tmp_path / "nope.json"),
                 "--b", str(tmp_path / "nope.json")]) == 2


GOOD_T = {"rows": 2, "cols": 2, "gen_re": [0.0, 1.0, 0.0]}
GOOD_B = {"re": [1.0, 2.0]}


@pytest.mark.parametrize("t_doc, b_doc, named", [
    ({"rows": 4}, GOOD_B, "'gen_re'"),
    ({"rows": 2, "cols": 2, "gen_re": "abc"}, GOOD_B, "'gen_re'"),
    ({"rows": 2, "gen_re": [0.0, 1.0, 0.0]}, GOOD_B, "'cols'"),
    ({**GOOD_T, "rows": [2]}, GOOD_B, "'rows'"),
    ({**GOOD_T, "gen_im": [1.0]}, GOOD_B, "'gen_im'"),
    ([0.0, 1.0, 0.0], GOOD_B, "JSON object"),
    (GOOD_T, {"im": [1.0, 2.0]}, "'re'"),
])
def test_malformed_json_exits_two(tmp_path, capsys, t_doc, b_doc, named):
    code = main(["solve", "--variant", "l2",
                 "--input", write_json(tmp_path / "T.json", t_doc),
                 "--b", write_json(tmp_path / "b.json", b_doc)])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--beta-sq", "nan"), ("--beta", "inf")])
def test_non_finite_ridge_weight_exits_two(capsys, flag, value):
    assert main(["solve", "--variant", "l2", "--n", "8", flag, value]) == 2
    assert "finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--m", "--p"])
def test_zero_block_rows_exit_two(capsys, flag):
    assert main(["solve", "--variant", "general", "--n", "8", flag, "0"]) == 2
    assert "dimensions must be positive" in capsys.readouterr().err


def test_singular_system_exits_three(tmp_path, capsys):
    n = 4
    zeros = {"rows": n, "cols": n, "gen_re": [0.0] * (2 * n - 1)}
    code = main(["solve", "--variant", "gramian",
                 "--input", write_json(tmp_path / "G.json", zeros),
                 "--reg", write_json(tmp_path / "L.json", zeros),
                 "--rhs", write_json(tmp_path / "rhs.json",
                                     vector_to_json(np.ones(n)))])
    assert code == 3
    assert "numerical failure" in capsys.readouterr().err


def test_complexity_csv(tmp_path, capsys):
    out = tmp_path / "times.csv"
    code = main(["complexity", "--variant", "l2", "--sizes", "16,32",
                 "--trials", "2", "--seed", "1", "--nlim", "16",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,n,params,mean_s,median_s"
    assert len(lines) == 3
    # The problem stream is seeded, so everything but the timings repeats.
    assert [line.split(",")[:3] for line in lines[1:]] == [
        ["l2", "16", "31"], ["l2", "32", "63"]]
    assert "fit l2:" in capsys.readouterr().out


def test_accuracy_csv_is_byte_deterministic(tmp_path):
    args = ["accuracy", "--variant", "general", "--sizes", "16", "--trials", "2",
            "--seed", "1", "--nlim", "16", "--out"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + [str(first)]) == 0
    assert main(args + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cg_equiv_csv(tmp_path):
    out = tmp_path / "cg.csv"
    code = main(["cg-equiv", "--variant", "gramian", "--sizes", "16",
                 "--trials", "1", "--seed", "2", "--nlim", "16",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,n,mean_iters,cg_max_err,direct_max_err"
    assert len(lines) == 2


def test_nufft_subcommand(tmp_path, capsys):
    out = tmp_path / "nufft.json"
    code = main(["nufft", "--n", "32", "--samples", "48", "--nlim", "32",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    assert "rel_residual_direct=" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["n"] == 32
    assert len(report["x_direct_re"]) == 32


def test_console_script_help():
    # Run the declared [project.scripts] entry the way pip's generated wrapper
    # does, on the same source this process imports, so no install is needed.
    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert "toepreg" in scripts
    module, func = scripts["toepreg"].split(":")
    src = str(Path(toepreg.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    code = f"import sys; from {module} import {func}; sys.exit({func}())"
    proc = subprocess.run([sys.executable, "-c", code, "--help"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0
    for name in ("solve", "complexity", "accuracy", "cg-equiv", "nufft"):
        assert name in proc.stdout


def test_json_output_format(tmp_path):
    out = tmp_path / "rows.json"
    code = main(["accuracy", "--variant", "l2", "--sizes", "16", "--trials", "1",
                 "--seed", "1", "--nlim", "16", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["variant"] == "l2" and rows[0]["n"] == 16
