import dataclasses
import hashlib
import math
import os
import re
import shlex

import numpy as np
import pytest

import etrlab.cli as cli
from etrlab import geometry
from etrlab.cli import main
from etrlab.config import EXPERIMENTS, ExperimentConfig, load_config
from etrlab.errors import SuiteFailure
from etrlab.etr import UncertaintyReport
from etrlab.harness import render_report, run_experiment
from etrlab.dictionaries import EffectiveSensing, build_dictionary
from etrlab.numerics import load_matrix, load_vector, save_matrix
from etrlab.solvers import SolverConfig, solve_bp


def test_geometry_markdown_and_csv(tmp_path, capsys):
    out = tmp_path / "geom.csv"
    rc = main(["geometry", "--dict", "identity", "--d", "4", "--r", "2",
               "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "gamma_exact" in text and "exact" in text
    lines = out.read_text().splitlines()
    assert lines[0].startswith("r,gamma_exact")
    assert lines[1].startswith("2,1,")  # identity has gamma_2 = 1


def test_geometry_sampled_mode(capsys, monkeypatch):
    # C(6, 2) = 15 supports, past a guard of 10
    monkeypatch.setattr(geometry, "EXACT_GUARD", 10)
    rc = main(["geometry", "--dict", "random-orthonormal", "--d", "6",
               "--sensing", "gaussian", "--m", "4", "--seed", "3"])
    assert rc == 0
    assert "sampled" in capsys.readouterr().out


@pytest.mark.parametrize("seed", [-1, 2**64])
def test_geometry_rejects_a_seed_outside_u64(capsys, seed):
    # the streams read the seed modulo 2**64, so -1 would print the row of 2**64 - 1
    args = ["geometry", "--dict", "random-orthonormal", "--d", "8", "--sensing", "gaussian",
            "--m", "4", "--seed"]
    assert main([*args, str(seed)]) == 1
    # a seed is a setting, not a sparsity
    assert capsys.readouterr().err == (
        f"error: InvalidSetting: seed must be a u64 (0..2**64-1), got {seed}\n")
    assert main([*args, str(2**64 - 1)]) == 0


@pytest.mark.parametrize("r", ["-1", "0", "17"])
def test_geometry_rejects_an_r_outside_one_to_d(capsys, r):
    # -1 used to end in math.comb's ValueError traceback instead of an error line
    assert main(["geometry", "--d", "16", "--r", r]) == 1
    assert f"error: InvalidSparsity: r={r} outside 1..16" in capsys.readouterr().err


def test_recover_accepts_the_three_solvers_and_two_aliases(tmp_path, capsys):
    parser = cli.build_parser()
    recover = parser._subparsers._group_actions[0].choices["recover"]
    (solver,) = [action for action in recover._actions if action.dest == "solver"]
    names = {"l0": "l0-exhaustive", "bp": "basis-pursuit", "l0-exhaustive": "l0-exhaustive",
             "omp": "omp", "basis-pursuit": "basis-pursuit"}
    assert sorted(solver.choices) == sorted(names)
    save_matrix(tmp_path / "a.csv", np.eye(4))
    save_matrix(tmp_path / "y.csv", np.array([0.0, 3.0, 0.0, 0.0]).reshape(-1, 1))
    for name, full in names.items():
        assert main(["recover", "--solver", name, "--matrix", str(tmp_path / "a.csv"),
                     "--y", str(tmp_path / "y.csv")]) == 0
        assert f"solver: {full}\nsupport: 1\n" in capsys.readouterr().out


def test_recover_matrix_y(tmp_path, capsys):
    save_matrix(tmp_path / "a.csv", np.eye(4))
    save_matrix(tmp_path / "y.csv", np.array([0.0, 3.0, 0.0, 0.0]).reshape(-1, 1))
    out = tmp_path / "res.csv"
    rc = main(["recover", "--solver", "l0", "--matrix", str(tmp_path / "a.csv"),
               "--y", str(tmp_path / "y.csv"), "--max-sparsity", "1",
               "--out", str(out)])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "solver: l0-exhaustive" in printed
    assert "support: 1" in printed
    header = out.read_text().splitlines()[0]
    assert header == "solver,support,residual,l1_norm,converged,mult,add,cmp,total_ops,stability_ratio"


def test_recover_instance_bundle(tmp_path, capsys):
    save_matrix(tmp_path / "basis.csv", np.eye(4))
    save_matrix(tmp_path / "alpha.csv", np.array([0.0, 0.0, 2.5, 0.0]).reshape(-1, 1))
    rc = main(["recover", "--solver", "omp", "--instance", str(tmp_path)])
    assert rc == 0
    assert "support: 2" in capsys.readouterr().out


def test_recover_instance_prints_the_stability_ratio(tmp_path, capsys):
    save_matrix(tmp_path / "basis.csv", build_dictionary("random-orthonormal", 8, seed=3))
    alpha = np.array([0.0, 1.5, 0.0, 0.0, -0.7, 0.0, 0.0, 0.0])
    save_matrix(tmp_path / "alpha.csv", alpha.reshape(-1, 1))
    rc = main(["recover", "--instance", str(tmp_path), "--solver", "bp", "--epsilon", "0.01"])
    assert rc == 0
    printed = dict(line.split(": ", 1) for line in capsys.readouterr().out.splitlines())
    basis = load_matrix(tmp_path / "basis.csv")
    x = basis @ load_vector(tmp_path / "alpha.csv")
    res = solve_bp(EffectiveSensing(basis), x, SolverConfig(epsilon=0.01))
    ratio = float(np.linalg.norm(basis @ res.alpha_hat - x)) / 0.01
    assert ratio > 0.0
    assert float(printed["stability_ratio"]) == ratio


def test_recover_omp_reports_coefficients_of_the_given_matrix(tmp_path, capsys):
    save_matrix(tmp_path / "a.csv", 2.0 * np.eye(4))
    save_matrix(tmp_path / "y.csv", np.array([0.0, 3.0, 0.0, 0.0]).reshape(-1, 1))
    rc = main(["recover", "--solver", "omp", "--matrix", str(tmp_path / "a.csv"),
               "--y", str(tmp_path / "y.csv")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "support: 1" in printed
    assert "l1_norm: 1.5\n" in printed


def test_recover_instance_rejects_invalid(tmp_path, capsys):
    save_matrix(tmp_path / "basis.csv", np.eye(3))
    # 1e-6 is below the 0.1 coefficient floor
    save_matrix(tmp_path / "alpha.csv", np.array([0.0, 1e-6, 0.0]).reshape(-1, 1))
    rc = main(["recover", "--instance", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("setting", [["--epsilon", "-0.01"], ["--max-sparsity", "-1"]])
def test_recover_rejects_negative_solver_settings(tmp_path, capsys, setting):
    save_matrix(tmp_path / "a.csv", np.eye(4))
    save_matrix(tmp_path / "y.csv", np.array([0.0, 3.0, 0.0, 0.0]).reshape(-1, 1))
    rc = main(["recover", "--solver", "omp", "--matrix", str(tmp_path / "a.csv"),
               "--y", str(tmp_path / "y.csv"), *setting])
    assert rc == 1
    error = "InvalidSparsity" if setting[0] == "--max-sparsity" else "InvalidSetting"
    assert f"error: {error}: " in capsys.readouterr().err


def test_recover_rejects_y_of_the_wrong_length(tmp_path, capsys):
    save_matrix(tmp_path / "a.csv", np.eye(4))
    save_matrix(tmp_path / "y.csv", np.ones((3, 1)))
    rc = main(["recover", "--matrix", str(tmp_path / "a.csv"), "--y", str(tmp_path / "y.csv")])
    assert rc == 1
    assert "DimensionMismatch" in capsys.readouterr().err


def test_recover_rejects_alpha_of_the_wrong_length(tmp_path, capsys):
    save_matrix(tmp_path / "basis.csv", np.eye(4))
    save_matrix(tmp_path / "alpha.csv", np.array([0.0, 1.0, 0.0]).reshape(-1, 1))
    rc = main(["recover", "--instance", str(tmp_path)])
    assert rc == 1
    assert "DimensionMismatch" in capsys.readouterr().err


def test_recover_prints_a_raised_solve_as_main_prints_a_lab_error(tmp_path, capsys):
    # y needs two columns of the identity, and the l0 search may use one
    save_matrix(tmp_path / "a.csv", np.eye(3))
    save_matrix(tmp_path / "y.csv", np.array([1.0, 1.0, 0.0]).reshape(-1, 1))
    rc = main(["recover", "--solver", "l0", "--max-sparsity", "1",
               "--matrix", str(tmp_path / "a.csv"), "--y", str(tmp_path / "y.csv")])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: NoFeasibleSolution: no support up to size 1 fits "
                            "within epsilon\n")


def test_recover_missing_inputs(capsys):
    rc = main(["recover", "--solver", "bp"])
    assert rc == 1
    assert "recover needs" in capsys.readouterr().err


def test_functional_output(capsys):
    rc = main(["functional", "--k-psi", "1", "--gamma", "1.0", "--cost", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"u_value: {math.log(2.0):.12g}" in out
    assert "regime: indeterminate" in out


def test_functional_degenerate(capsys):
    rc = main(["functional", "--k-psi", "2", "--gamma", "0.0", "--cost", "10"])
    assert rc == 0
    assert "regime: non-unique" in capsys.readouterr().out


@pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
def test_functional_rejects_a_gamma_that_is_not_finite(capsys, gamma):
    # nan printed u_value: nan and inf printed u_value: 0, both with exit 0
    rc = main(["functional", "--k-psi", "2", f"--gamma={gamma}", "--cost", "10"])
    assert rc == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: InvalidSetting: gamma_2k must be finite, got {float(gamma)}" in captured.err


def test_phase_with_config(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[phase]\nd = 8\nk = 1\nm_sweep = 2,8\ntrials_per_cell = 3\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["phase", "--config", str(cfg), "--seed", "5"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "records:" in out and "summary:" in out
    assert os.path.exists(tmp_path / "out" / "phase_records.csv")


def test_config_experiment_mismatch_is_error(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[phase]\nd = 8\n")
    rc = main(["regime", "--config", str(cfg)])
    assert rc == 1
    assert "does not match" in capsys.readouterr().err


def test_seed_flag_is_checked_like_a_config_seed(tmp_path, capsys):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[phase]\nd = 8\nk = 1\nm_sweep = 2,8\ntrials_per_cell = 1\n")
    out = tmp_path / "out"
    rc = main(["phase", "--config", str(cfg), "--seed", "-1", "--out", str(out)])
    assert rc == 1
    assert "ConfigError: master_seed = -1: seed must be a u64" in capsys.readouterr().err
    assert not out.exists()


def test_suite_failure_exit_code_2(monkeypatch, capsys):
    def boom(cfg):
        raise SuiteFailure(["case 17: product below floor"])

    monkeypatch.setattr(cli, "run_experiment", boom)
    rc = main(["verify", "--suite", "uncertainty-principle"])
    assert rc == 2
    err = capsys.readouterr().err
    assert "suite violation" in err and "case 17" in err


def test_verify_perturbation_small(tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[perturbation]\nd = 6\nn = 8\nk = 1\ntrials_per_cell = 25\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["verify", "--config", str(cfg)])
    assert rc == 0
    assert os.path.exists(tmp_path / "out" / "perturbation_records.csv")


def test_verify_uncertainty_small(tmp_path):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[uncertainty-principle]\nd_sweep = 4,16\ntrials_per_cell = 10\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    assert main(["verify", "--config", str(cfg)]) == 0


def test_verify_suite_must_match_the_config(tmp_path, capsys):
    cfg = tmp_path / "v.cfg"
    cfg.write_text("[uncertainty-principle]\nd_sweep = 4\ntrials_per_cell = 10\n"
                   f"output_dir = {tmp_path / 'out'}\n")
    rc = main(["verify", "--suite", "perturbation", "--config", str(cfg)])
    assert rc == 1
    assert "does not match 'verify --suite perturbation'" in capsys.readouterr().err
    assert not os.path.exists(tmp_path / "out")
    assert main(["verify", "--suite", "uncertainty-principle", "--config", str(cfg)]) == 0


with open(os.path.join(os.path.dirname(__file__), "..", "scripts", "records_digests.txt")) as fh:
    SHIPPED_PINS = dict(line.split() for line in fh if line.strip())

# sha256 of the records each experiment subcommand writes without a config
NO_CONFIG_PINS = [
    ("phase", "864d4001e01628fc139dcbdb25ab4339127e2f5944beff985bd2d4c0381f9e2c"),
    ("mismatch", "735de51e0e3d83fb1af9062ba4db079b94c7e2982bf4347a6f78653414add88e"),
    ("verify", "b592eff1d3affaab3d2974e3ab5dbf39f60648451c1d3dcd41f8eb9439cc818e"),
    # the regime map's defaults are regime.cfg's settings
    ("regime", SHIPPED_PINS["regime.cfg"]),
    # perturbation.cfg at 200 trials, as in test_harness's SHRUNK_PINS
    ("verify --suite perturbation",
     "1879fd005702d87b0dfd11e6408e5637920df7d9cb8186d8b18e58adb2a83f14"),
]


@pytest.mark.parametrize("command, digest", NO_CONFIG_PINS)
def test_subcommand_without_a_config_writes_the_pinned_records(tmp_path, capsys, command,
                                                                digest):
    assert main(shlex.split(command) + ["--out", str(tmp_path)]) == 0
    (records,) = re.findall(r"records: (.*)", capsys.readouterr().out)
    with open(records, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest


def test_workers_flag_rejected():
    # a usage error exits 1; 2 is the suite-violation code
    with pytest.raises(SystemExit) as exc:
        main(["phase", "--workers", "1"])
    assert exc.value.code == 1


def test_format_flag_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["phase", "--format", "csv"])
    assert exc.value.code == 1


@pytest.mark.parametrize("experiment, figure", [
    ("phase", "phase_success.svg"), ("regime-map", "regime_map.svg")])
def test_experiment_always_draws_its_svg(tmp_path, experiment, figure):
    # the config names no formats
    path = tmp_path / "run.cfg"
    sparsity = "k = 1" if experiment == "phase" else "k_sweep = 1"
    path.write_text(f"[{experiment}]\nd = 8\n{sparsity}\nm_sweep = 2,8\n"
                    f"trials_per_cell = 3\noutput_dir = {tmp_path / 'o'}\n"
                    "[thresholds]\ntrials = 3\n")
    bundle = run_experiment(load_config(path))
    assert bundle.figures == (str(tmp_path / "o" / figure),)
    assert os.path.getsize(bundle.figures[0]) > 0


def test_unknown_solver_rejected():
    with pytest.raises(SystemExit) as exc:
        main(["recover", "--solver", "magic"])
    assert exc.value.code == 1


def test_gamma_minus_inf_is_a_usage_error_unless_written_after_equals(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["functional", "--k-psi", "1", "--gamma", "-inf", "--cost", "1"])
    assert exc.value.code == 1
    assert "argument --gamma: expected one argument" in capsys.readouterr().err
    with pytest.raises(SystemExit) as exc:
        main(["functional", "--help"])
    assert exc.value.code == 0
    assert "--gamma=-inf" in capsys.readouterr().out


def test_reproduce_line_selects_the_same_experiment(tmp_path):
    for experiment in EXPERIMENTS:
        out = str(tmp_path / experiment)
        # the default d = 64, k = 3 would enumerate C(64, 6) supports, which
        # perturbation rejects; give it the `verify` shape
        shape = dict(d=6, n=8, k=1) if experiment == "perturbation" else {}
        cfg = ExperimentConfig(experiment=experiment, master_seed=123, output_dir=out, **shape)
        os.makedirs(out)  # run_experiment makes the directory render_report writes into
        bundle = render_report([{"trial": 0}], cfg, experiment, [])
        with open(bundle.summary_md) as fh:
            (command,) = re.findall(r"- reproduce: `etr-lab (.*)`", fh.read())
        args = cli.build_parser().parse_args(shlex.split(command))
        rerun = cli._experiment_config(args, args.command)
        assert (rerun.experiment, rerun.master_seed, rerun.output_dir) == (
            experiment, 123, out)


@pytest.mark.parametrize("cfg", [
    ExperimentConfig(experiment="phase", d=8, k=1, m_sweep=(2, 6), trials_per_cell=3,
                     epsilon=0.01, max_iterations=300, solvers=("basis-pursuit", "omp")),
    ExperimentConfig(experiment="perturbation", d=4, n=6, k=1, trials_per_cell=30),
], ids=["phase", "perturbation"])
def test_reproduce_line_reruns_the_same_records(tmp_path, cfg):
    # neither config is the subcommand's default, so a rerun from the
    # defaults would write other records
    first = run_experiment(dataclasses.replace(cfg, output_dir=str(tmp_path / "a")))
    with open(first.summary_md) as fh:
        (command,) = re.findall(r"- reproduce: `etr-lab (.*)`", fh.read())
    assert main(shlex.split(command) + ["--out", str(tmp_path / "b")]) == 0
    name = os.path.basename(first.records_csv)
    with open(first.records_csv, "rb") as fa, open(tmp_path / "b" / name, "rb") as fb:
        assert fa.read() == fb.read()


def test_functional_floor_violation_is_an_error(monkeypatch, capsys):
    below = UncertaintyReport(2, 0.5, 100, 1.0, 2.0, "indeterminate")
    monkeypatch.setattr(cli, "build_uncertainty_report", lambda *args: below)
    rc = main(["functional", "--k-psi", "2", "--gamma", "0.5", "--cost", "100"])
    assert rc == 1
    assert "below its floor" in capsys.readouterr().err
