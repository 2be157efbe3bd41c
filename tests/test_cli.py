"""Command line wiring: subcommands, JSON input plumbing, exit codes."""

import json
import math
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
from helpers import random_spec, spec_to_json
from toepreg import cli
from toepreg.cli import main
from toepreg.experiments import random_problem, write_rows
from toepreg.solver import dense_oracle
from toepreg.toeplitz import ProblemSpec, ToeplitzSpec, vector_to_json


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
                 "--out", str(out)])
    assert code == 0
    # without --beta the ridge weight is n^(1/4), |beta|^2 = sqrt(n)
    problem = ProblemSpec.l2(t, 16 ** 0.25, b)
    assert np.abs(read_vector(out) - dense_oracle(problem)).max() < 1e-9


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
    assert np.abs(read_vector(out) - dense_oracle(problem)).max() < 1e-9


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
    # --beta is the one ridge flag; --beta-sq is unknown like any other.
    for flag in (["--frobnicate"], ["--beta-sq", "9"]):
        assert main(["solve", "--variant", "l2", "--n", "8"] + flag) == 2
        err = capsys.readouterr().err
        assert "usage" in err and f"unrecognized arguments: {flag[0]}" in err


@pytest.mark.parametrize("command", ["solve", "complexity", "accuracy",
                                     "cg-equiv", "nufft"])
def test_nlim_is_an_unknown_flag(command, capsys):
    # The leaf budget is fixed where the system is assembled; no command
    # line sets it.
    args = [command, "--nlim", "16"]
    if command == "solve":
        args += ["--variant", "l2", "--n", "8"]
    assert main(args) == 2
    assert "unrecognized arguments: --nlim" in capsys.readouterr().err


def test_missing_subcommand_exits_two():
    assert main([]) == 2


def test_bad_size_list_exits_two(capsys):
    for sizes in ("0,16", "4,x"):
        assert main(["complexity", "--sizes", sizes]) == 2
        assert f"bad size list {sizes!r}" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["complexity", "accuracy", "cg-equiv"])
def test_experiment_rejects_too_few_trials(command, capsys):
    # A sweep without trials used to print max_err 0 and nan means.
    code = main([command, "--trials", "0", "--sizes", "16"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error: trials ")
    assert "Traceback" not in err


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


@pytest.mark.parametrize("variant, files, message", [
    ("l2", {}, "either --input or --n is required"),
    ("l2", {"--input": GOOD_T}, "l2 variant needs --b"),
    ("gramian", {"--input": GOOD_T, "--reg": GOOD_T},
     "gramian variant needs --reg and --rhs"),
    ("gramian", {"--input": {"rows": 2, "cols": 3, "gen_re": [0.0] * 4},
                 "--reg": GOOD_T, "--rhs": GOOD_B},
     "Gramian matrix must be square"),
], ids=["no-input", "l2-no-b", "gramian-no-rhs", "gramian-not-square"])
def test_solve_without_its_input_exits_two(tmp_path, capsys, variant, files,
                                           message):
    args = ["solve", "--variant", variant]
    for flag, doc in files.items():
        args += [flag, write_json(tmp_path / f"{flag[2:]}.json", doc)]
    assert main(args) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize("t_doc, b_doc, named", [
    ({"rows": 4}, GOOD_B, "'gen_re'"),
    ({"rows": 2, "cols": 2, "gen_re": "abc"}, GOOD_B, "'gen_re'"),
    ({"rows": 2, "gen_re": [0.0, 1.0, 0.0]}, GOOD_B, "'cols'"),
    ({**GOOD_T, "rows": [2]}, GOOD_B, "'rows'"),
    ({**GOOD_T, "gen_im": [1.0]}, GOOD_B, "'gen_im'"),
    ([0.0, 1.0, 0.0], GOOD_B, "JSON object"),
    (GOOD_T, {"im": [1.0, 2.0]}, "'re'"),
    ({"rows": 2.9, "cols": 2, "gen_re": [1, 2, 3]}, GOOD_B, "'rows'"),
    ({"rows": True, "cols": "2", "gen_re": [1, 2]}, GOOD_B, "'rows'"),
    ({**GOOD_T, "cols": "2"}, GOOD_B, "'cols'"),
    ({**GOOD_T, "cols": 2.0}, GOOD_B, "'cols'"),
])
def test_malformed_json_exits_two(tmp_path, capsys, t_doc, b_doc, named):
    code = main(["solve", "--variant", "l2",
                 "--input", write_json(tmp_path / "T.json", t_doc),
                 "--b", write_json(tmp_path / "b.json", b_doc)])
    assert code == 2
    assert named in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--beta", "nan"), ("--beta", "inf")])
def test_non_finite_ridge_weight_exits_two(capsys, flag, value):
    assert main(["solve", "--variant", "l2", "--n", "8", flag, value]) == 2
    assert "finite" in capsys.readouterr().err


def test_overflowing_ridge_weight_exits_two(capsys):
    assert main(["solve", "--variant", "l2", "--n", "8", "--beta", "1e200"]) == 2
    assert "beta" in capsys.readouterr().err


@pytest.mark.parametrize("flag", ["--m", "--p"])
def test_zero_block_rows_exit_two(capsys, flag):
    assert main(["solve", "--variant", "general", "--n", "8", flag, "0"]) == 2
    assert "dimensions must be positive" in capsys.readouterr().err


def test_structurally_singular_general_shape_exits_two(capsys):
    # m + p < n: rank(T^H T + L^H L) < n, so no solution is unique.
    args = ["solve", "--variant", "general", "--n", "37", "--m", "7",
            "--p", "29", "--seed", "0"]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert "singular by shape" in err and "m + p = 36 < n = 37" in err


@pytest.mark.parametrize("variant", ["general", "l2", "gramian"])
def test_random_instance_without_unknowns_exits_two(variant, capsys):
    assert main(["solve", "--variant", variant, "--n", "0"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: n must be at least 1, got 0")
    assert "Traceback" not in err


@pytest.mark.parametrize("variant, flag, value", [
    ("gramian", "--m", "4"),
    ("l2", "--p", "4"),
    ("general", "--beta", "2"),
    ("gramian", "--beta", "2"),
])
def test_flag_unused_by_variant_exits_two(capsys, variant, flag, value):
    assert main(["solve", "--variant", variant, "--n", "8", flag, value]) == 2
    assert f"{flag} does not apply" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [
    ("--n", "100"), ("--m", "7"), ("--p", "9"), ("--seed", "0"),
])
def test_random_instance_flag_with_input_exits_two(tmp_path, capsys, flag, value):
    n = 4
    eye = {"rows": n, "cols": n, "gen_re": [0.0] * (n - 1) + [1.0] + [0.0] * (n - 1)}
    code = main(["solve", "--variant", "general",
                 "--input", write_json(tmp_path / "T.json", eye),
                 "--reg", write_json(tmp_path / "L.json", eye),
                 "--b", write_json(tmp_path / "b.json", vector_to_json(np.ones(n))),
                 flag, value])
    assert code == 2
    assert f"{flag} does not apply with --input" in capsys.readouterr().err


def test_solve_seed_defaults_to_zero(tmp_path):
    outs = [tmp_path / "default.json", tmp_path / "zero.json"]
    assert main(["solve", "--variant", "l2", "--n", "16",
                 "--out", str(outs[0])]) == 0
    assert main(["solve", "--variant", "l2", "--n", "16", "--seed", "0",
                 "--out", str(outs[1])]) == 0
    assert outs[0].read_text() == outs[1].read_text()


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


def test_linalg_error_in_a_subcommand_exits_three(monkeypatch, capsys):
    def fail(config):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(cli, "run_cg_equivalence", fail)
    assert main(["cg-equiv", "--sizes", "8", "--trials", "1"]) == 3
    assert capsys.readouterr().err == "numerical failure: Singular matrix\n"


def test_complexity_csv(tmp_path, capsys):
    out = tmp_path / "times.csv"
    code = main(["complexity", "--variant", "l2", "--sizes", "16,32",
                 "--trials", "2", "--seed", "1",
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
            "--seed", "1", "--out"]
    first = tmp_path / "a.csv"
    second = tmp_path / "b.csv"
    assert main(args + [str(first)]) == 0
    assert main(args + [str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()


def test_cg_equiv_csv(tmp_path):
    out = tmp_path / "cg.csv"
    code = main(["cg-equiv", "--variant", "gramian", "--sizes", "16",
                 "--trials", "1", "--seed", "2",
                 "--out", str(out)])
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "variant,n,mean_iters,cg_max_err,direct_max_err"
    assert len(lines) == 2


def test_nufft_subcommand(tmp_path, capsys):
    out = tmp_path / "nufft.json"
    code = main(["nufft", "--n", "32", "--samples", "48",
                 "--seed", "4", "--out", str(out)])
    assert code == 0
    assert "rel_residual_direct=" in capsys.readouterr().out
    report = json.loads(out.read_text())
    assert report["n"] == 32
    assert len(report["x_direct_re"]) == 32


def _reject_constant(name):
    raise ValueError(f"non-standard JSON constant {name}")


def test_nufft_condition_is_strict_json(tmp_path, capsys):
    # A numerically singular Gramian has an infinite condition number; the
    # file says null, which strict parsers accept, and stdout says inf.
    out = tmp_path / "nufft.json"
    code = main(["nufft", "--n", "32", "--samples", "1", "--reg-scale", "1e-6",
                 "--condition", "--out", str(out)])
    assert code == 0
    assert "condition=inf" in capsys.readouterr().out.splitlines()
    report = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert report["condition"] is None
    assert report["n"] == 32


def test_json_rows_write_non_finite_floats_as_null(tmp_path):
    out = tmp_path / "rows.json"
    write_rows([{"n": 4, "err": math.inf}, {"n": 8, "err": math.nan},
                {"n": 16, "err": 0.5}], out, "json")
    rows = json.loads(out.read_text(), parse_constant=_reject_constant)
    assert [row["err"] for row in rows] == [None, None, 0.5]


@pytest.mark.parametrize("flags, field", [
    (["--n", "0"], "n"),
    (["--samples", "0"], "samples"),
    (["--components", "0"], "components"),
    (["--components", "-1"], "components"),
    (["--f-max", "inf"], "f_max"),
    (["--f-max", "nan"], "f_max"),
    (["--f-max", "-0.1"], "f_max"),
])
def test_nufft_rejects_bad_config(flags, field, capsys):
    code = main(["nufft", "--n", "16", "--samples", "16"] + flags)
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {field} ")
    assert "Traceback" not in err


def test_solve_overflowing_files_exit_3(tmp_path, capsys):
    # Finite inputs whose solve overflows to a non-finite solution.
    base = random_problem("general", 64, np.random.default_rng(5))
    scale = 1e300
    files = {
        "--input": spec_to_json(ToeplitzSpec(base.T.rows, base.T.cols, base.T.gen * scale)),
        "--reg": spec_to_json(ToeplitzSpec(base.L.rows, base.L.cols, base.L.gen * scale)),
        "--b": vector_to_json(base.b * scale),
    }
    args = ["solve", "--variant", "general"]
    for flag, obj in files.items():
        args += [flag, write_json(tmp_path / f"{flag[2:]}.json", obj)]
    with np.errstate(all="ignore"):
        assert main(args) == 3
    assert "non-finite" in capsys.readouterr().err


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
                 "--seed", "1", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    rows = json.loads(out.read_text())
    assert rows[0]["variant"] == "l2" and rows[0]["n"] == 16
