import numpy as np
import pytest

from viking.cli import main
from viking.datagen import DesignKind, gen_design, gen_wellspecified, write_dataset_csv


def run_cli(*args):
    return main(list(args))


def test_unknown_subcommand_is_usage_error(capsys):
    assert run_cli("frobnicate") == 1
    assert "usage" in capsys.readouterr().err.lower()


def test_unknown_flag_is_usage_error(capsys):
    assert run_cli("simulate", "--wat", "1") == 1


def test_missing_subcommand(capsys):
    assert run_cli() == 1


def test_simulate_deterministic(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    assert run_cli("simulate", "--experiment", "ws-iid", "--n", "50", "--seed", "4",
                   "--out", str(out1)) == 0
    assert run_cli("simulate", "--experiment", "ws-iid", "--n", "50", "--seed", "4",
                   "--out", str(out2)) == 0
    f1, f2 = out1 / "ws-iid-seed4.csv", out2 / "ws-iid-seed4.csv"
    assert f1.read_bytes() == f2.read_bytes()


def test_filter_happy_path(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset_csv(gen_wellspecified(gen_design(DesignKind.IID, 40, 3), seed=3), data)
    code = run_cli("filter", "--data", str(data), "--method", "viking", "--setting", "scalar",
                   "--seed", "1", "--n-mc", "2", "--out", str(tmp_path))
    assert code == 0
    trace = tmp_path / "trace-viking-scalar.csv"
    assert trace.exists()
    assert len(trace.read_text().splitlines()) == 41


def test_filter_wrong_dimension_exits_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset_csv(gen_wellspecified(gen_design(DesignKind.IID, 30, 3), seed=3), data)
    code = run_cli("filter", "--data", str(data), "--method", "viking",
                   "--experiment", "resonator", "--out", str(tmp_path))
    assert code == 1
    assert "dimension" in capsys.readouterr().err


@pytest.mark.parametrize("method", ["viking", "kalman-oracle", "kalman-constant"])
def test_filter_dataset_of_another_dimension_exits_1(tmp_path, capsys, method):
    # a 5-dimensional dataset against the resonator's 3-dimensional transition
    data = tmp_path / "data.csv"
    write_dataset_csv(gen_wellspecified(gen_design(DesignKind.IID, 30, 3), seed=3), data)
    code = run_cli("filter", "--data", str(data), "--method", method,
                   "--experiment", "resonator", "--out", str(tmp_path))
    assert code == 1
    assert "error: transition matrix has shape (3, 3), expected (5, 5)" in capsys.readouterr().err
    assert not list(tmp_path.glob("trace-*.csv"))


def test_resonator_constant_q_experiment_runs_the_shapes_its_state_supports(tmp_path, capsys):
    code = run_cli("experiment", "--experiment", "resonator", "--method", "kalman-constant",
                   "--seeds", "1,2", "--n", "40", "--out", str(tmp_path))
    assert code == 0
    assert "resonator kalman-constant-diagonal [shape=full," in capsys.readouterr().out
    lines = (tmp_path / "resonator/kalman-constant-diagonal/summary.csv").read_text().splitlines()[1:]
    assert len(lines) == 10 and all(line.startswith("kalman-constant,diagonal,shape=full,q=") for line in lines)
    assert sorted(p.name for p in (tmp_path / "resonator/kalman-constant-diagonal").iterdir()) == [
        "seed1.csv", "seed2.csv", "summary.csv"]


@pytest.mark.parametrize("q_shape", ["masked", "both"])
def test_resonator_constant_q_experiment_asking_for_the_masked_shape_exits_1(tmp_path, capsys, q_shape):
    cfg = tmp_path / "shape.cfg"
    cfg.write_text(f"q_shape = {q_shape}\n", encoding="utf-8")
    code = run_cli("experiment", "--experiment", "resonator", "--method", "kalman-constant",
                   "--seeds", "1", "--n", "40", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    captured = capsys.readouterr()
    assert "error: masked constant-Q shape needs a 5-dimensional state" in captured.err
    assert "mse=" not in captured.out and not list(tmp_path.rglob("summary.csv"))


def test_filter_numerical_failure_exits_2(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset_csv(gen_wellspecified(gen_design(DesignKind.IID, 20, 5), seed=5), data)
    cfg = tmp_path / "degenerate.cfg"
    cfg.write_text("p0 = 0\nq0 = 0\nsigma0 = 0\ns0 = 0\nlearn_a = false\nlearn_b = false\n"
                   "rho_a = 0\nrho_b = 0\n", encoding="utf-8")
    code = run_cli("filter", "--data", str(data), "--method", "viking",
                   "--config", str(cfg), "--out", str(tmp_path))
    assert code == 2
    assert "numerical failure" in capsys.readouterr().err


def test_experiment_happy_path(tmp_path, capsys):
    code = run_cli("experiment", "--experiment", "ms-noniid", "--method", "viking",
                   "--setting", "diagonal", "--seed", "7", "--n", "60", "--n-mc", "2",
                   "--out", str(tmp_path))
    assert code == 0
    cell = tmp_path / "ms-noniid" / "viking-diagonal"
    assert (cell / "seed7.csv").exists()
    assert (cell / "summary.csv").exists()
    assert "ms-noniid" in capsys.readouterr().out


def test_experiment_cli_determinism(tmp_path):
    args = ("experiment", "--experiment", "ws-iid", "--method", "kalman-constant",
            "--seeds", "1,2", "--n", "60")
    out1, out2 = tmp_path / "x", tmp_path / "y"
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    rel = "ws-iid/kalman-constant-diagonal/summary.csv"
    assert (out1 / rel).read_bytes() == (out2 / rel).read_bytes()


def test_config_file_overridden_by_flags(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("experiment = ws-iid\nn = 20\nseed = 1\nn_mc = 2\n", encoding="utf-8")
    code = run_cli("experiment", "--config", str(cfg), "--experiment", "ms-iid",
                   "--method", "kalman-constant", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "ms-iid").exists()
    assert not (tmp_path / "ws-iid").exists()


def test_sweep_nmc_cli(tmp_path, capsys):
    code = run_cli("sweep-nmc", "--experiment", "ws-iid", "--setting", "scalar", "--seeds", "1,2",
                   "--n", "40", "--nmc-list", "1,3", "--out", str(tmp_path))
    assert code == 0
    assert (tmp_path / "sweep-nmc" / "ws-iid-scalar.csv").exists()
    out = capsys.readouterr().out
    assert "n_mc=1" in out and "ratio=1" in out


def test_grid_cli_small(tmp_path, capsys):
    cfg = tmp_path / "grid.cfg"
    cfg.write_text("rho_a = 0.001\n", encoding="utf-8")  # rho_b stays the full ladder
    code = run_cli("grid", "--experiment", "ws-iid", "--config", str(cfg), "--seeds", "1",
                   "--n", "30", "--n-mc", "2", "--out", str(tmp_path))
    assert code == 0
    assert "best [rho_a=0.001,rho_b=" in capsys.readouterr().out


def test_help_exits_zero(capsys):
    assert run_cli("--help") == 0


def test_config_file_unknown_key_is_usage_error(tmp_path, capsys):
    cfg = tmp_path / "typo.cfg"
    cfg.write_text("experimnt = ms-iid\nn = 20\n", encoding="utf-8")
    code = run_cli("experiment", "--config", str(cfg), "--method", "kalman-constant",
                   "--seed", "1", "--out", str(tmp_path))
    assert code == 1
    assert "experimnt" in capsys.readouterr().err
    assert not (tmp_path / "ws-iid").exists()


def test_module_entry_points_exit_1_on_bad_subcommand():
    import os
    import subprocess
    import sys
    from pathlib import Path

    import viking

    src = str(Path(viking.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    for module in ("viking", "viking.cli"):
        proc = subprocess.run([sys.executable, "-m", module, "bogus"], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1, (module, proc.returncode, proc.stderr)
        assert "usage" in proc.stderr.lower()


def test_filter_header_only_dataset_exits_1(tmp_path, capsys):
    data = tmp_path / "empty.csv"
    data.write_text("t,x1,x2,x3,x4,x5,y\n", encoding="utf-8")
    code = run_cli("filter", "--data", str(data), "--method", "viking", "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert str(data) in err and "no data rows" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("text, lineno", [
    ("", 1),                                               # empty file
    ("t,x1,x2,y\n0,0.5,1,0.25\n1,0.5,1\n", 3),             # short row
    ("t,x1,x2,y\n0,0.5,1,0.25\n1,0.5,abc,0.25\n", 3),      # non-numeric field
], ids=["empty", "short-row", "non-numeric"])
def test_filter_malformed_dataset_names_file_and_line(tmp_path, capsys, text, lineno):
    data = tmp_path / "bad.csv"
    data.write_text(text, encoding="utf-8")
    code = run_cli("filter", "--data", str(data), "--method", "kalman-oracle", "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert f"error: {data}:{lineno}: " in err
    assert "Traceback" not in err


def test_filter_non_finite_dataset_exits_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset_csv(gen_wellspecified(gen_design(DesignKind.IID, 20, 3), seed=3), data)
    lines = data.read_text(encoding="utf-8").splitlines()
    fields = lines[6].split(",")  # step 5
    fields[lines[0].split(",").index("y")] = "nan"
    lines[6] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    code = run_cli("filter", "--data", str(data), "--method", "viking", "--n-mc", "2", "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: " in err and "step 5" in err and "non-finite" in err
    assert not (tmp_path / "trace-viking-diagonal.csv").exists()


def test_filter_non_finite_initial_belief_exits_1(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_dataset_csv(gen_wellspecified(gen_design(DesignKind.IID, 20, 3), seed=3), data)
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("a0 = nan\n", encoding="utf-8")
    code = run_cli("filter", "--data", str(data), "--method", "viking", "--n-mc", "2",
                   "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: initial a0 = nan" in err
    assert not (tmp_path / "trace-viking-diagonal.csv").exists()


def test_outputs_do_not_depend_on_the_blas_thread_count(tmp_path):
    # acceptance check c11's two commands, each in a child process under one
    # and under two OpenBLAS threads: the CSV bytes must agree
    import os
    import subprocess
    import sys
    from pathlib import Path

    import viking

    src = str(Path(viking.__file__).resolve().parents[1])
    commands = (
        ["simulate", "--experiment", "ms-noniid", "--n", "120", "--seed", "3", "--out", "sim"],
        ["experiment", "--experiment", "ws-iid", "--method", "viking", "--setting", "diagonal",
         "--seeds", "1,2", "--n", "80", "--out", "exp"],
    )
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        out.mkdir()
        env = {**os.environ, "OPENBLAS_NUM_THREADS": threads,
               "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        for args in commands:
            subprocess.run([sys.executable, "-m", "viking", *args], cwd=out, env=env, check=True,
                           capture_output=True, timeout=300)
        outs.append(out)
    a, b = outs
    files = sorted(p.relative_to(a) for p in a.rglob("*.csv"))
    assert files and files == sorted(p.relative_to(b) for p in b.rglob("*.csv"))
    assert [p for p in files if (a / p).read_bytes() != (b / p).read_bytes()] == []


@pytest.mark.parametrize("method", ["kalman-oracle", "kalman-constant"])
def test_kalman_filter_non_finite_dataset_exits_1(tmp_path, capsys, method):
    assert run_cli("simulate", "--experiment", "ms-noniid", "--n", "30", "--seed", "2", "--out", str(tmp_path)) == 0
    data = tmp_path / "ms-noniid-seed2.csv"
    lines = data.read_text(encoding="utf-8").splitlines()
    fields = lines[5].split(",")  # step 4
    fields[lines[0].split(",").index("y")] = "nan"
    lines[5] = ",".join(fields)
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    capsys.readouterr()
    code = run_cli("filter", "--data", str(data), "--experiment", "ms-noniid", "--method", method,
                   "--out", str(tmp_path))
    assert code == 1
    err = capsys.readouterr().err
    assert "error: " in err and "step 4" in err and "non-finite" in err
    assert not list(tmp_path.glob("trace-*.csv"))


@pytest.mark.parametrize("value", ["nan", "inf", "-1"])
def test_experiment_bad_walk_var_exits_1(tmp_path, capsys, value):
    cfg = tmp_path / "walk.cfg"
    cfg.write_text(f"walk_var = {value}\n", encoding="utf-8")
    code = run_cli("experiment", "--experiment", "ms-noniid", "--method", "kalman-constant", "--seeds", "1,2",
                   "--n", "30", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    captured = capsys.readouterr()
    assert "error: walk_var" in captured.err and "mse=" not in captured.out
    assert not list(tmp_path.rglob("summary.csv"))


@pytest.mark.parametrize("method, line", [
    ("viking", "rho_a = nan"), ("viking", "rho_b = inf"), ("viking", "rho_b = -1"),
    ("kalman-constant", "q_grid = 0.1,nan"), ("kalman-constant", "sigma2_const = inf"),
    ("kalman-oracle", "sigma2_const = nan"), ("kalman-constant", "p0 = nan"), ("kalman-oracle", "p0 = -1"),
])
def test_experiment_bad_parameter_exits_1_naming_its_key(tmp_path, capsys, method, line):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(line + "\n", encoding="utf-8")
    code = run_cli("experiment", "--experiment", "ms-iid", "--method", method, "--seeds", "1",
                   "--n", "30", "--config", str(cfg), "--out", str(tmp_path))
    assert code == 1
    captured = capsys.readouterr()
    key = line.split(" =")[0]
    assert captured.err.startswith("error: ") and f"{key} " in captured.err and "mse=" not in captured.out
    assert not list(tmp_path.rglob("summary.csv"))


def test_grid_bad_rho_flag_exits_1(tmp_path, capsys):
    code = run_cli("grid", "--experiment", "ms-iid", "--seeds", "1", "--n", "30", "--rho-a", "nan",
                   "--out", str(tmp_path))
    assert code == 1
    assert "error: rho_a = nan" in capsys.readouterr().err


def test_seed_range_writes_what_the_seed_list_writes(tmp_path):
    args = ("experiment", "--experiment", "ws-iid", "--n", "30", "--n-mc", "2")
    assert run_cli(*args, "--seeds", "2..4", "--out", str(tmp_path / "range")) == 0
    assert run_cli(*args, "--seeds", "2,3,4", "--out", str(tmp_path / "list")) == 0
    files = sorted(p.relative_to(tmp_path / "list") for p in (tmp_path / "list").rglob("*.csv"))
    assert len(files) == 4  # three seeds and the summary
    assert sorted(p.relative_to(tmp_path / "range") for p in (tmp_path / "range").rglob("*.csv")) == files
    assert all((tmp_path / "range" / f).read_bytes() == (tmp_path / "list" / f).read_bytes() for f in files)


@pytest.mark.parametrize("text, value", [("true", True), (" TRUE ", True), ("1", True), ("yes", True), ("On", True),
                                         ("false", False), ("0", False), ("no", False), ("OFF ", False)])
def test_parse_bool_forms(text, value):
    from viking.cli import _parse_bool

    assert _parse_bool(text) is value


def test_an_invalid_boolean_exits_1_naming_its_key(tmp_path, capsys):
    cfg = tmp_path / "bool.cfg"
    cfg.write_text("learn_b = maybe\n", encoding="utf-8")
    assert run_cli("experiment", "--config", str(cfg), "--seeds", "1", "--n", "30", "--out", str(tmp_path)) == 1
    assert "error: learn_b: expected a boolean, got 'maybe'" in capsys.readouterr().err


def test_a_flag_value_is_parsed_as_its_config_key(tmp_path, capsys):
    assert run_cli("experiment", "--n", "abc", "--out", str(tmp_path)) == 1
    assert "error: n: invalid literal for int() with base 10: 'abc'" in capsys.readouterr().err
    assert run_cli("grid", "--rho-a", "x", "--out", str(tmp_path)) == 1
    assert "error: rho_a: could not convert string to float: 'x'" in capsys.readouterr().err


def test_filter_without_data_exits_1(tmp_path, capsys):
    assert run_cli("filter", "--out", str(tmp_path)) == 1
    assert "error: filter requires --data <dataset csv>" in capsys.readouterr().err


def test_grid_with_a_kalman_method_exits_1(tmp_path, capsys):
    assert run_cli("grid", "--method", "kalman-constant", "--seeds", "1", "--n", "30", "--out", str(tmp_path)) == 1
    assert "error: grid search applies to the adaptive filter only" in capsys.readouterr().err


def test_grid_takes_the_default_rho_a_ladder(tmp_path, capsys):
    from viking.harness import DEFAULT_RHO_GRID

    code = run_cli("grid", "--experiment", "ws-iid", "--seeds", "1", "--n", "30", "--n-mc", "2",
                   "--rho-b", "0.001", "--out", str(tmp_path))
    assert code == 0
    rows = (tmp_path / "ws-iid" / "viking-diagonal" / "summary.csv").read_text().splitlines()[1:]
    assert len(rows) == len(DEFAULT_RHO_GRID)
    assert all(row.startswith(f"viking,diagonal,rho_a={a:.6g},rho_b=0.001,") for row, a in zip(rows, DEFAULT_RHO_GRID))


@pytest.mark.parametrize("seeds", ["1", "1,2"])
def test_a_learned_a_without_prior_variance_exits_1_naming_the_seed(tmp_path, capsys, seeds):
    # s0 = 0 with rho_a = 0: one seed died in a ZeroDivisionError traceback,
    # two divided by zero under warnings and ran on
    cfg = tmp_path / "zero-a-prior.cfg"
    cfg.write_text("rho_a = 0\ns0 = 0\n", encoding="utf-8")
    args = ("experiment", "--experiment", "ws-iid", "--seeds", seeds, "--n", "30", "--n-mc", "2",
            "--config", str(cfg), "--out", str(tmp_path))
    assert run_cli(*args) == 1
    captured = capsys.readouterr()
    assert captured.err.startswith("error: seed 1, ") and "s + rho_a must be > 0 when a is learned" in captured.err
    assert "Traceback" not in captured.err and "mse=" not in captured.out
    # a known a needs no prior variance
    cfg.write_text("rho_a = 0\ns0 = 0\nlearn_a = false\n", encoding="utf-8")
    assert run_cli(*args) == 0
