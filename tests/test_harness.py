import csv
import dataclasses
import hashlib
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab import geometry, harness, solvers
from etrlab.config import EXPERIMENTS, SHARED_FIELDS, ExperimentConfig, dump_config, load_config
from etrlab.errors import ConfigError, IoFailure, NoFeasibleSolution
from etrlab.harness import (
    isotonic_fit,
    recovery_success,
    run_experiment,
    write_records_csv,
)


# ------------------------------------------------------ success criterion


def test_recovery_success_exact():
    # the truth's support is detected_support's too, at TOL.zero_tau * max(||v||, 1):
    # 5e-9 is below it whatever the norm
    for a in (np.array([0.0, 1.5, 0.0, -0.3]), np.array([0.01, 5e-9, 0.0])):
        ok, match, rel = recovery_success(a, a)
        assert ok and match and rel == 0.0


def test_recovery_success_tolerates_tiny_error():
    star = np.array([0.0, 1.0, 0.0, 0.0])
    hat = star + np.array([0.0, 5e-5, 0.0, 0.0])
    ok, match, rel = recovery_success(hat, star)
    assert ok and match and rel == pytest.approx(5e-5)


def test_recovery_success_rejects_support_mismatch():
    star = np.array([0.0, 1.0, 0.0, 0.0])
    hat = np.array([1e-5, 1.0, 0.0, 0.0])  # tiny spurious coefficient
    ok, match, _ = recovery_success(hat, star)
    assert not match and not ok


def test_recovery_success_rejects_large_error():
    star = np.array([0.0, 1.0, 0.0, 0.0])
    hat = np.array([0.0, 1.01, 0.0, 0.0])
    ok, match, rel = recovery_success(hat, star)
    assert match and not ok and rel == pytest.approx(0.01)


# ------------------------------------------------------ isotonic


def test_isotonic_identity_on_monotone():
    vals = [0.0, 0.1, 0.5, 0.5, 1.0]
    assert isotonic_fit(vals) == vals


def test_isotonic_pools_violators():
    assert isotonic_fit([0.4, 0.2]) == pytest.approx([0.3, 0.3])
    assert isotonic_fit([1.0, 0.0, 0.0]) == pytest.approx([1 / 3] * 3)
    assert isotonic_fit([0.0, 0.6, 0.4, 1.0]) == pytest.approx([0.0, 0.5, 0.5, 1.0])


@given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=30))
@settings(max_examples=200, deadline=None)
def test_isotonic_properties(vals):
    fit = isotonic_fit(vals)
    assert len(fit) == len(vals)
    assert all(a <= b + 1e-12 for a, b in zip(fit, fit[1:]))
    # mean is preserved by pooling
    assert math.isclose(sum(fit), sum(vals), abs_tol=1e-9)


# ------------------------------------------------------ records


def test_write_records_csv_formats(tmp_path):
    path = tmp_path / "r.csv"
    write_records_csv(path, [{"a": 1, "b": 0.5, "c": True, "d": "x"},
                             {"a": 2, "b": 1.0 / 3.0, "c": False, "d": "y"}])
    lines = path.read_text().splitlines()
    assert lines[0] == "a,b,c,d"
    assert lines[1] == "1,0.5,1,x"
    assert lines[2].startswith("2,0.3333333333333333")
    assert lines[2].endswith(",0,y")


def test_write_records_csv_empty_is_error(tmp_path):
    with pytest.raises(IoFailure):
        write_records_csv(tmp_path / "r.csv", [])


@pytest.mark.parametrize("value", ["Stalled: a, b", "two\nlines"])
def test_write_records_csv_rejects_a_value_that_would_shift_columns(tmp_path, value):
    # the format has no quoting: such a value would split into extra columns
    path = tmp_path / "r.csv"
    with pytest.raises(IoFailure, match="column 'error'"):
        write_records_csv(path, [{"a": 1, "error": ""}, {"a": 2, "error": value}])
    assert not path.exists()


@pytest.mark.parametrize("column", ["a", "error", "note"])
def test_write_records_csv_names_the_column_whatever_its_place(tmp_path, column):
    # a lone comma or newline, in the first, a middle or the last column
    path = tmp_path / "r.csv"
    for value in (",", "\n", "x,y\nz"):
        bad = {"a": 2, "error": "", "note": "ok"}
        bad[column] = value
        with pytest.raises(IoFailure, match=f"column '{column}'"):
            write_records_csv(path, [{"a": 1, "error": "", "note": "ok"}, bad])
        assert not path.exists()


# ------------------------------------------------------ config files


def _write(tmp_path, text):
    p = tmp_path / "c.cfg"
    p.write_text(text)
    return p


def test_load_config_basic(tmp_path):
    p = _write(tmp_path, "[phase]\nd = 16\nk = 2\nm_sweep = 2,4,8\n"
                         "trials_per_cell = 5\nmaster_seed = 7\n")
    cfg = load_config(p)
    assert cfg.experiment == "phase"
    assert (cfg.d, cfg.n, cfg.k) == (16, 16, 2)
    assert cfg.m_sweep == (2, 4, 8)
    assert cfg.master_seed == 7


def test_load_config_range_sweep(tmp_path):
    cfg = load_config(_write(tmp_path, "[phase]\nm_sweep = 2:10:2\n"))
    assert cfg.m_sweep == (2, 4, 6, 8, 10)


CONFIGS = os.path.join(os.path.dirname(__file__), "..", "configs")


@pytest.mark.parametrize("name", sorted(os.listdir(CONFIGS)))
def test_dump_config_reads_back_as_the_same_config(tmp_path, name):
    cfg = load_config(os.path.join(CONFIGS, name))
    assert load_config(_write(tmp_path, dump_config(cfg))) == cfg


def test_dump_config_round_trips_every_field(tmp_path):
    from etrlab.etr import RegimeThresholds

    values = dict(
        d=12, n=12, k=5, k_sweep=(1, 5), m_sweep=(3,), m=7, d_sweep=(2, 8),
        epsilon=0.1 + 0.2, trials_per_cell=7, recovery_trials=4, master_seed=2 ** 64 - 1,
        basis="dct", sensing="bernoulli", solvers=("omp", "l0-exhaustive"), max_iterations=17,
        output_dir="out/100%/x",
        thresholds=RegimeThresholds(0.1 / 3, 2.5, 0.95, 0.25, 7),
    )
    # every field is read by some experiment, or taken by all of them
    assert {f.name for f in dataclasses.fields(ExperimentConfig)} == (
        set(values) | set(SHARED_FIELDS))
    for experiment, reads in EXPERIMENTS.items():
        cfg = ExperimentConfig(experiment=experiment, **{
            key: value for key, value in values.items() if key in reads or key in SHARED_FIELDS})
        defaults = ExperimentConfig(experiment=experiment)
        same = [f.name for f in dataclasses.fields(cfg) if getattr(cfg, f.name) is not None
                and getattr(cfg, f.name) == getattr(defaults, f.name)]
        assert same == ["experiment", "workers"]  # the one value workers may take
        back = load_config(_write(tmp_path, dump_config(cfg)))
        assert back == cfg
        assert back.epsilon == (0.1 + 0.2 if "epsilon" in reads else None)


def test_load_config_thresholds_section(tmp_path):
    cfg = load_config(_write(tmp_path, "[regime-map]\nd = 8\n"
                                       "[thresholds]\nstable_c = 0.25\ntrials = 10\n"))
    assert cfg.thresholds.stable_c == 0.25
    assert cfg.thresholds.trials == 10


def test_load_config_unknown_key(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[phase]\nbogus = 1\n"))


def test_load_config_unknown_section(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[phase]\nd = 8\n[extras]\nx = 1\n"))


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "absent.cfg")


def test_load_config_bad_value(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[phase]\nd = many\n"))


def test_load_config_requires_one_experiment_section(tmp_path):
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[phase]\nd = 8\n[mismatch]\nd = 8\n"))


def test_config_validation():
    with pytest.raises(ConfigError):
        ExperimentConfig(experiment="unheard-of")
    with pytest.raises(ConfigError):
        ExperimentConfig(trials_per_cell=0)


def test_config_rejects_unknown_solvers(tmp_path):
    with pytest.raises(ConfigError, match="solvers"):
        ExperimentConfig(solvers=("basis-pursuit", "lasso"))
    with pytest.raises(ConfigError):
        load_config(_write(tmp_path, "[phase]\nsolvers = omp,lasso\n"))
    with pytest.raises(ConfigError):
        dataclasses.replace(ExperimentConfig(), solvers=("l0",))
    cfg = ExperimentConfig(solvers=("l0-exhaustive", "omp", "basis-pursuit"))
    assert cfg.solvers == ("l0-exhaustive", "omp", "basis-pursuit")


def test_config_file_with_formats_key_is_rejected(tmp_path):
    # formats is no setting: a config file that names it fails to load
    with pytest.raises(ConfigError, match="unknown key 'formats'"):
        load_config(_write(tmp_path, "[phase]\nformats = csv,md\n"))


def test_config_file_with_convergence_tol_key_is_rejected(tmp_path):
    # basis pursuit is exact, so it has no tolerance to set
    with pytest.raises(ConfigError, match="unknown key 'convergence_tol'"):
        load_config(_write(tmp_path, "[phase]\nconvergence_tol = 1e-8\n"))


def test_config_rejects_workers_other_than_one(tmp_path):
    assert ExperimentConfig().workers == 1
    with pytest.raises(ConfigError, match="workers"):
        ExperimentConfig(workers=4)
    with pytest.raises(ConfigError, match="workers"):
        load_config(_write(tmp_path, "[phase]\nworkers = 2\n"))


def test_config_rejects_mismatch_without_recovery_trials(tmp_path):
    with pytest.raises(ConfigError, match="recovery_trials"):
        ExperimentConfig(experiment="mismatch", recovery_trials=0)
    with pytest.raises(ConfigError, match="recovery_trials"):
        load_config(_write(tmp_path, "[mismatch]\nrecovery_trials = 0\n"))
    with pytest.raises(ConfigError, match="phase does not read recovery_trials"):
        ExperimentConfig(experiment="phase", recovery_trials=0)


# settings the dictionary and sensing builders would reject only at run time,
# some after other trials ran; each must fail to load, naming its key
BUILD_REJECTS = [
    ("[mismatch]\nm = 0\n", "m must be >= 1"),
    ("[phase]\nd = 16\nsensing = row-subsample\nm_sweep = 8,32\n", "row-subsample needs m_sweep"),
    ("[regime-map]\nd = 8\nsensing = identity\nm_sweep = 4,9\n", "identity needs m_sweep"),
    ("[phase]\nmax_iterations = 0\n", "max_iterations"),
    ("[mismatch]\nmax_iterations = 0\n", "max_iterations"),
    ("[perturbation]\nsensing = gausian\n", "unknown sensing 'gausian'"),
    ("[phase]\nbasis = haar\n", "unknown basis 'haar'"),
    ("[regime-map]\nd = 12\nbasis = hadamard\nm_sweep = 4,8\n", "hadamard needs d"),
    ("[phase]\nd = 1\nk = 1\nbasis = dct\nm_sweep = 1\n", "dct needs d"),
    ("[perturbation]\nsensing = identity\n", "identity needs d = n"),
    ("[perturbation]\nd = 9\nsensing = row-subsample\n", "row-subsample needs d <= n"),
    ("[uncertainty-principle]\nd_sweep = 4,12\n", "d_sweep needs powers of 2"),
]


@pytest.mark.parametrize("text, message", BUILD_REJECTS, ids=[f"{t[1:t.index(']')]}: {m}" for t, m in BUILD_REJECTS])
def test_config_rejects_what_the_builders_would_reject(tmp_path, text, message):
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, text))


def test_config_accepts_the_builders_edge_values(tmp_path):
    for text in ("[phase]\nd = 16\nsensing = row-subsample\nm_sweep = 8,16\n",
                 "[regime-map]\nd = 8\nsensing = identity\nm_sweep = 8\n",
                 "[perturbation]\nd = 8\nsensing = identity\n",
                 "[mismatch]\nm = 1\nmax_iterations = 1\n",
                 "[phase]\nd = 2\nk = 1\nbasis = dct\nm_sweep = 2\n",
                 "[regime-map]\nd = 8\nbasis = hadamard\nm_sweep = 4,8\n",
                 "[uncertainty-principle]\nd_sweep = 1,2,4\n"):
        load_config(_write(tmp_path, text))


def test_config_accepts_mismatch_census_past_ten_thousand_trials(tmp_path):
    # census and recovery trials draw from split(0) and split(1) of the master
    # stream, so no census count reaches the recovery trials' streams
    cfg = ExperimentConfig(experiment="mismatch", trials_per_cell=10_001)
    assert load_config(_write(tmp_path, dump_config(cfg))) == cfg
    assert load_config(_write(tmp_path, "[mismatch]\ntrials_per_cell = 10001\n")) == cfg


def test_config_accepts_regime_map_past_a_thousand_k_values(tmp_path):
    # cell (mi, ki) draws from split(mi).split(ki), so no k index reaches the next m's
    # cells; d = n = 1001 columns take every k
    ks = tuple(range(1, 1002))
    cfg = ExperimentConfig(experiment="regime-map", d=1001, k_sweep=ks, m_sweep=(4, 8))
    assert load_config(_write(tmp_path, dump_config(cfg))) == cfg
    text = "[regime-map]\nd = 1001\nk_sweep = 1:1001\nm_sweep = 4,8\n"
    assert load_config(_write(tmp_path, text)).k_sweep == ks


def test_config_rejects_regime_map_below_the_classifier_minimum(tmp_path):
    from etrlab.etr import RegimeThresholds

    with pytest.raises(ConfigError, match="trials_per_cell = 19"):
        ExperimentConfig(experiment="regime-map", trials_per_cell=19)
    with pytest.raises(ConfigError, match="trials_per_cell = 4"):
        load_config(_write(tmp_path, "[regime-map]\ntrials_per_cell = 4\n"
                                     "[thresholds]\ntrials = 5\n"))
    cfg = ExperimentConfig(experiment="regime-map", trials_per_cell=5,
                           thresholds=RegimeThresholds(trials=5))
    assert cfg.trials_per_cell == cfg.thresholds.trials


@pytest.mark.parametrize("experiment", ["phase", "regime-map"])
def test_config_rejects_n_other_than_d(tmp_path, experiment):
    with pytest.raises(ConfigError, match="n must equal d"):
        ExperimentConfig(experiment=experiment, d=8, n=12)
    with pytest.raises(ConfigError, match="n must equal d"):
        load_config(_write(tmp_path, f"[{experiment}]\nd = 16\nn = 8\n"))
    assert ExperimentConfig(experiment="perturbation", d=6, n=8).n == 8


@pytest.mark.parametrize("k", [0, -1, 9])
def test_config_rejects_perturbation_sparsity_outside_1_to_n(tmp_path, k):
    # at load time, not at the first plant's InvalidSparsity
    with pytest.raises(ConfigError, match="1 <= k <= n"):
        ExperimentConfig(experiment="perturbation", d=6, n=8, k=k)
    with pytest.raises(ConfigError, match="1 <= k <= n"):
        load_config(_write(tmp_path, f"[perturbation]\nd = 6\nn = 8\nk = {k}\n"))


def test_config_rejects_perturbation_gamma_past_the_exact_guard(tmp_path):
    # at load time, not at gamma_exact's EnumerationTooLarge; one guard for both
    from etrlab.geometry import EXACT_GUARD

    assert math.comb(40, 8) > EXACT_GUARD
    with pytest.raises(ConfigError, match="binomial\\(40,8\\)"):
        ExperimentConfig(experiment="perturbation", d=6, n=40, k=4)
    with pytest.raises(ConfigError, match="binomial\\(40,8\\)"):
        load_config(_write(tmp_path, "[perturbation]\nd = 6\nn = 40\nk = 4\n"))
    # C(24, 12) = 2 704 156 is past the guard; C(24, 6) = 134 596 is not
    assert ExperimentConfig(experiment="perturbation", d=6, n=24, k=3).k == 3
    with pytest.raises(ConfigError, match="binomial\\(24,12\\)"):
        ExperimentConfig(experiment="perturbation", d=6, n=24, k=6)


def test_config_rejects_negative_epsilon(tmp_path):
    # at load time, not at the first trial's observe
    with pytest.raises(ConfigError, match="epsilon"):
        ExperimentConfig(epsilon=-0.01)
    with pytest.raises(ConfigError, match="epsilon"):
        load_config(_write(tmp_path, "[phase]\nepsilon = -0.01\n"))


@pytest.mark.parametrize("key", ["m_sweep", "k_sweep", "d_sweep"])
def test_config_rejects_sweeps_that_cannot_run_as_written(tmp_path, key):
    # an empty sweep runs nothing, and the isotonic crossing and the heat-map
    # axes read a sweep in increasing order
    experiment = {"m_sweep": "phase", "k_sweep": "regime-map",
                  "d_sweep": "uncertainty-principle"}[key]
    for text, reason in (("", "empty"), ("10:4", "empty"), ("4:8:-1", "empty"),
                         ("8,4", "strictly increasing"), ("4,4", "strictly increasing")):
        with pytest.raises(ConfigError, match=reason):
            load_config(_write(tmp_path, f"[{experiment}]\n{key} = {text}\n"))
    with pytest.raises(ConfigError, match="strictly increasing"):
        ExperimentConfig(experiment=experiment, **{key: (8, 4)})
    text = f"[{experiment}]\n{key} = 4:8:4\n"
    assert getattr(load_config(_write(tmp_path, text)), key) == (4, 8)


@pytest.mark.parametrize("text, message", [
    ("[phase]\nd = 8\nk = 9\n", "phase needs 1 <= k <= n"),
    ("[mismatch]\nd = 8\nk = 9\n", "mismatch needs 1 <= k <= d"),
    ("[regime-map]\nd = 8\nk_sweep = 1,9\n", "regime-map needs 1 <= k <= n"),
], ids=["phase", "mismatch", "regime-map"])
def test_config_rejects_sparsity_past_the_dictionary(tmp_path, text, message):
    # at load time, not at the first plant's InvalidSparsity after earlier cells ran
    with pytest.raises(ConfigError, match=message):
        load_config(_write(tmp_path, text))


# one key per experiment that its runner never reads: (experiment, key, text, value)
UNREAD_KEYS = [("phase", "m", "8", 8), ("mismatch", "basis", "hadamard", "hadamard"),
               ("uncertainty-principle", "d", "128", 128),
               ("perturbation", "epsilon", "0.01", 0.01),
               ("regime-map", "solvers", "omp", ("omp",))]


@pytest.mark.parametrize("experiment, key, text, value", UNREAD_KEYS)
def test_config_rejects_a_key_the_experiment_never_reads(tmp_path, experiment, key, text,
                                                         value):
    assert key not in EXPERIMENTS[experiment]
    with pytest.raises(ConfigError, match=f"{experiment} does not read {key}"):
        load_config(_write(tmp_path, f"[{experiment}]\n{key} = {text}\n"))
    with pytest.raises(ConfigError, match=f"{experiment} does not read {key}"):
        ExperimentConfig(experiment=experiment, **{key: value})


@pytest.mark.parametrize("experiment", ["mismatch", "uncertainty-principle", "perturbation"])
def test_config_rejects_thresholds_the_experiment_never_reads(tmp_path, experiment):
    with pytest.raises(ConfigError, match=f"{experiment} does not read thresholds"):
        load_config(_write(tmp_path, f"[{experiment}]\n[thresholds]\ntrials = 5\n"))


@pytest.mark.parametrize("experiment", list(EXPERIMENTS))
def test_config_that_omits_keys_dumps_every_key_it_ran(tmp_path, experiment):
    cfg = load_config(_write(tmp_path, f"[{experiment}]\n"))
    assert cfg == ExperimentConfig(experiment=experiment)
    text = dump_config(cfg)
    assert load_config(_write(tmp_path, text)) == cfg
    written = dict(line.split(" = ") for line in text.splitlines() if " = " in line)
    reads = set(EXPERIMENTS[experiment]) - {"thresholds"} | {"master_seed", "output_dir"}
    if "thresholds" in EXPERIMENTS[experiment]:
        reads |= {f.name for f in dataclasses.fields(cfg.thresholds)}
    assert set(written) == reads
    assert all(written.values())  # no sweep or budget is left empty


# ------------------------------------------------------ experiments (small)


@pytest.mark.parametrize("config", ["toy.cfg", "regime.cfg", "phase.cfg", "mismatch.cfg",
                                    "uncertainty.cfg"])
def test_shipped_records_digest_is_pinned(tmp_path, config):
    # a change to any record byte of these shipped configs shows up here; the
    # pin is the config's line of the table that scripts/records_digests.py checks
    table = os.path.join(os.path.dirname(__file__), "..", "scripts", "records_digests.txt")
    with open(table) as fh:
        pinned = dict(line.split() for line in fh if line.strip())
    cfg = load_config(os.path.join(CONFIGS, config))
    cfg.output_dir = str(tmp_path)
    bundle = run_experiment(cfg)
    with open(bundle.records_csv, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert digest == pinned[config]


# shrunk runs of the shipped configs on the benchmark's code paths: eps > 0 BP
# and OMP, the three-solver battery with exact gamma, and the perturbation suite;
# (config, overrides, sha256 of the records)
SHRUNK_PINS = [
    ("regime.cfg",
     dict(k_sweep=(1, 3), m_sweep=(4, 8), trials_per_cell=20, max_iterations=1000),
     "a34567cbae849fb30ea61759e7ed7e845892a952d069eb5b37b3d0c690cd94aa"),
    ("perturbation.cfg", dict(trials_per_cell=200),
     "1879fd005702d87b0dfd11e6408e5637920df7d9cb8186d8b18e58adb2a83f14"),
    ("phase.cfg",
     dict(epsilon=0.01, m_sweep=(8, 16), trials_per_cell=2, max_iterations=250,
          solvers=("basis-pursuit", "omp")),
     "4a547465cb415f444a60af9fa54f76d1244c268ffc92c21c1266b1e7d1f3f12e"),
    # the phase workload's own path: epsilon = 0 BP at d = 64 and the 4000 cap
    ("phase.cfg", dict(m_sweep=(4, 12, 24), trials_per_cell=3, max_iterations=4000),
     "19293c6c93edf0d2145b6c9b1994d0e0d32d50146e12b8795af4a260fcaf4abd"),
]


@pytest.mark.parametrize("config, overrides, digest", SHRUNK_PINS)
def test_shrunk_records_digest_is_pinned(tmp_path, config, overrides, digest):
    cfg = load_config(os.path.join(CONFIGS, config))
    bundle = run_experiment(dataclasses.replace(cfg, **overrides, output_dir=str(tmp_path)))
    with open(bundle.records_csv, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    with open(bundle.records_csv) as fh:
        rows = list(csv.DictReader(fh))
    # every basis-pursuit solve on these paths is certified
    assert all(r["converged"] == "1" for r in rows if r.get("solver") == "basis-pursuit")


def test_colex_caches_hold_no_run_state(tmp_path, monkeypatch):
    # the perturbation and regime cases of test_shrunk_records_digest_is_pinned, run
    # twice in one process: with warm caches, then with 100-byte chunks (at most three
    # supports each) whose blocks take new cache keys and evict one another
    cases = [pin for pin in SHRUNK_PINS if pin[0] in ("regime.cfg", "perturbation.cfg")]
    for chunk_bytes in (geometry.CHUNK_BYTES, 100):
        monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
        for config, overrides, digest in cases:
            cfg = load_config(os.path.join(CONFIGS, config))
            out = tmp_path / f"{chunk_bytes}-{config}"
            bundle = run_experiment(dataclasses.replace(cfg, **overrides, output_dir=str(out)))
            with open(bundle.records_csv, "rb") as fh:
                assert hashlib.sha256(fh.read()).hexdigest() == digest, (chunk_bytes, config)
    block, _ = next(geometry.support_chunks(np.ones((6, 8)), 2))
    with pytest.raises(ValueError):
        block[0, 0] = 1


def test_perturbation_makes_the_calls_the_benchmark_cross_checks(tmp_path, monkeypatch):
    # the benchmark's traced runs expect, per perturbation trial, one sensing build,
    # one exact gamma over C(n, 2k) supports and two plants unless gamma is degenerate
    calls = {}
    for owner, name in ((harness, "build_sensing"), (harness, "gamma_exact"),
                        (harness, "plant"), (geometry, "smallest_singular_value")):
        def counted(*args, _name=name, _original=getattr(owner, name), **kwargs):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(owner, name, counted)
    cfg = load_config(os.path.join(CONFIGS, "perturbation.cfg"))
    bundle = run_experiment(dataclasses.replace(cfg, trials_per_cell=200, output_dir=str(tmp_path)))
    with open(bundle.records_csv) as fh:
        valid = sum(row["degenerate"] == "0" for row in csv.DictReader(fh))
    assert calls == {"build_sensing": 200, "gamma_exact": 200, "plant": 2 * valid,
                     "smallest_singular_value": 200 * math.comb(cfg.n, min(2 * cfg.k, cfg.n))}


def test_phase_makes_the_calls_the_benchmark_cross_checks(tmp_path, monkeypatch):
    # the benchmark's traced runs expect, per phase trial, one sensing build, one plant
    # and one solve of each configured solver, dispatched through solvers._SOLVE
    calls = {}

    def counting(name, original):
        def counted(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)
        return counted

    for name in ("build_sensing", "plant"):
        monkeypatch.setattr(harness, name, counting(name, getattr(harness, name)))
    for name, original in list(solvers._SOLVE.items()):
        monkeypatch.setitem(solvers._SOLVE, name, counting(name, original))
    cfg = load_config(os.path.join(CONFIGS, "phase.cfg"))
    cfg = dataclasses.replace(cfg, d=16, n=16, m_sweep=(4, 8, 12), trials_per_cell=3,
                              solvers=solvers.SOLVER_NAMES, output_dir=str(tmp_path))
    bundle = run_experiment(cfg)
    with open(bundle.records_csv) as fh:
        rows = list(csv.DictReader(fh))
    trials = len(cfg.m_sweep) * cfg.trials_per_cell
    assert len(rows) == trials * len(cfg.solvers)
    assert calls == {"build_sensing": trials, "plant": trials,
                     **{s: sum(row["solver"] == s for row in rows) for s in cfg.solvers}}
    assert all(calls[s] == trials for s in cfg.solvers)


def _tiny_phase(tmp_path, seed=7):
    return ExperimentConfig(
        experiment="phase", d=8, k=1, m_sweep=(2, 4, 8), trials_per_cell=4,
        master_seed=seed, output_dir=str(tmp_path),
    )


def test_phase_transition_outputs_and_rates(tmp_path):
    bundle = run_experiment(_tiny_phase(tmp_path))
    assert os.path.exists(bundle.records_csv)
    assert os.path.exists(bundle.summary_md)
    with open(bundle.records_csv) as fh:
        rows = list(csv.DictReader(fh))
    # per-trial records: rate per (m, solver) must be recomputable
    by_cell = {}
    for r in rows:
        key = (int(r["m"]), r["solver"])
        by_cell.setdefault(key, []).append(int(r["success"]))
    summary = open(bundle.summary_md).read()
    for (m, solver), succ in by_cell.items():
        rate = sum(succ) / len(succ)
        assert f"{rate:.2f}" in summary  # each cell rate is reported
    # full measurement budget recovers a 1-sparse identity signal
    full = by_cell[(8, "basis-pursuit")]
    assert sum(full) == len(full)


def test_phase_transition_deterministic_bytes(tmp_path):
    a = run_experiment(_tiny_phase(tmp_path / "a"))
    b = run_experiment(_tiny_phase(tmp_path / "b"))
    assert open(a.records_csv, "rb").read() == open(b.records_csv, "rb").read()


def test_phase_transition_lets_programming_errors_crash(tmp_path, monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in a solver")

    monkeypatch.setitem(solvers._SOLVE, "basis-pursuit", broken)
    with pytest.raises(TypeError, match="bug in a solver"):
        run_experiment(_tiny_phase(tmp_path))


def test_phase_error_rows_carry_the_full_message(tmp_path, monkeypatch):
    def unreachable(*args, **kwargs):
        raise NoFeasibleSolution("y outside the reachable residual ball")

    monkeypatch.setitem(solvers._SOLVE, "basis-pursuit", unreachable)
    bundle = run_experiment(_tiny_phase(tmp_path))
    with open(bundle.records_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 3 * 4
    for r in rows:
        assert r["error"] == "NoFeasibleSolution: y outside the reachable residual ball"
        assert (r["success"], r["cost_total"]) == ("0", "0")


def test_phase_transition_seed_changes_records(tmp_path):
    a = run_experiment(_tiny_phase(tmp_path / "a", seed=7))
    b = run_experiment(_tiny_phase(tmp_path / "b", seed=8))
    assert open(a.records_csv, "rb").read() != open(b.records_csv, "rb").read()


def test_mismatch_small(tmp_path):
    cfg = ExperimentConfig(
        experiment="mismatch", d=8, k=2, m=6, trials_per_cell=20,
        recovery_trials=5, output_dir=str(tmp_path),
    )
    bundle = run_experiment(cfg)
    summary = open(bundle.summary_md).read()
    assert "k_eff" in summary and "inflation" in summary


def test_regime_map_small(tmp_path):
    from etrlab.etr import RegimeThresholds

    cfg = ExperimentConfig(
        experiment="regime-map", d=8, k_sweep=(1, 2), m_sweep=(2, 8),
        trials_per_cell=5, output_dir=str(tmp_path),
        thresholds=RegimeThresholds(trials=5),
    )
    bundle = run_experiment(cfg)
    with open(bundle.records_csv) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 4
    assert all(r["regime"] in ("non-unique", "opaque", "stable", "indeterminate")
               for r in rows)
    assert bundle.figures  # heat map emitted
    assert all(os.path.exists(f) for f in bundle.figures)
