import math
import os

import numpy as np
import pytest

import etrlab.cli as cli
from etrlab.cli import main
from etrlab.errors import SuiteFailure
from etrlab.numerics import save_matrix, save_vector


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


def test_geometry_sampled_mode(capsys):
    rc = main(["geometry", "--dict", "random-orthonormal", "--d", "6",
               "--sensing", "gaussian", "--m", "4", "--mode", "sampled",
               "--trials", "10", "--seed", "3"])
    assert rc == 0
    assert "sampled" in capsys.readouterr().out


def test_recover_matrix_y(tmp_path, capsys):
    save_matrix(tmp_path / "a.csv", np.eye(4))
    save_vector(tmp_path / "y.csv", np.array([0.0, 3.0, 0.0, 0.0]))
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
    save_vector(tmp_path / "alpha.csv", np.array([0.0, 0.0, 2.5, 0.0]))
    rc = main(["recover", "--solver", "omp", "--instance", str(tmp_path)])
    assert rc == 0
    assert "support: 2" in capsys.readouterr().out


def test_recover_omp_reports_coefficients_of_the_given_matrix(tmp_path, capsys):
    save_matrix(tmp_path / "a.csv", 2.0 * np.eye(4))
    save_vector(tmp_path / "y.csv", np.array([0.0, 3.0, 0.0, 0.0]))
    rc = main(["recover", "--solver", "omp", "--matrix", str(tmp_path / "a.csv"),
               "--y", str(tmp_path / "y.csv")])
    assert rc == 0
    printed = capsys.readouterr().out
    assert "support: 1" in printed
    assert "l1_norm: 1.5\n" in printed


def test_recover_instance_rejects_invalid(tmp_path, capsys):
    save_matrix(tmp_path / "basis.csv", np.eye(3))
    save_vector(tmp_path / "alpha.csv", np.array([0.0, 1e-6, 0.0]))  # below 0.1 floor
    rc = main(["recover", "--instance", str(tmp_path)])
    assert rc == 1
    assert "error" in capsys.readouterr().err


def test_recover_missing_inputs(capsys):
    rc = main(["recover", "--solver", "bp"])
    assert rc == 1
    assert "recover needs" in capsys.readouterr().err


def test_functional_output(capsys):
    rc = main(["functional", "--k", "1", "--k-psi", "1", "--gamma", "1.0",
               "--cost", "1"])
    assert rc == 0
    out = capsys.readouterr().out
    assert f"u_value: {math.log(2.0):.12g}" in out
    assert "regime: indeterminate" in out


def test_functional_degenerate(capsys):
    rc = main(["functional", "--k", "2", "--k-psi", "2", "--gamma", "0.0",
               "--cost", "10"])
    assert rc == 0
    assert "regime: non-unique" in capsys.readouterr().out


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


def test_workers_flag_matches_sequential(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[phase]\nd = 8\nk = 1\nm_sweep = 2,8\ntrials_per_cell = 4\n")
    assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "a"),
                 "--workers", "1"]) == 0
    assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "b"),
                 "--workers", "4"]) == 0
    ra = (tmp_path / "a" / "phase_records.csv").read_bytes()
    rb = (tmp_path / "b" / "phase_records.csv").read_bytes()
    assert ra == rb


def test_format_flag_controls_svg(tmp_path):
    cfg = tmp_path / "p.cfg"
    cfg.write_text("[phase]\nd = 8\nk = 1\nm_sweep = 2,8\ntrials_per_cell = 3\n")
    assert main(["phase", "--config", str(cfg), "--out", str(tmp_path / "o"),
                 "--format", "csv,md,svg"]) == 0
    svgs = [f for f in os.listdir(tmp_path / "o") if f.endswith(".svg")]
    assert svgs


def test_unknown_solver_rejected():
    with pytest.raises(SystemExit):
        main(["recover", "--solver", "magic"])
