import csv
import dataclasses
import hashlib
import importlib.util
import math
import os
import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab import etr, geometry, harness, rng, solvers, sparsity
from etrlab.config import EXPERIMENTS, SHARED_FIELDS, ExperimentConfig, dump_config, load_config
from etrlab.dictionaries import EffectiveSensing, build_dictionary, build_sensing
from etrlab.errors import (
    ConfigError,
    EtrLabError,
    InvalidSparsity,
    IoFailure,
    NoFeasibleSolution,
    SuiteFailure,
    UnsupportedDimension,
)
from etrlab.harness import (
    isotonic_fit,
    recovery_success,
    run_experiment,
    solve_outcome,
    success_rate,
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


def test_solve_outcome_counts_a_raised_solve_as_a_failure():
    star = np.array([0.0, 1.0, 0.0])
    result = solvers.solve_omp(EffectiveSensing(np.eye(3)), star, solvers.SolverConfig())
    solved = solve_outcome(solvers.BatteryEntry("omp", result), star)
    raised = solve_outcome(solvers.BatteryEntry("omp", None, error="Stalled: a, b"), star)
    assert solved["success"] and solved["support_match"] and solved["error"] == ""
    assert raised == dict(success=False, support_match=False, rel_error=math.inf,
                          cost_total=0, converged=False, error="Stalled: a; b")
    assert success_rate([solved, raised]) == 0.5


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


def test_write_records_csv_rejects_a_record_whose_keys_differ(tmp_path):
    # an extra key would be dropped from its line, a missing one has no value;
    # keys in another order still write under the header's columns
    path = tmp_path / "r.csv"
    first = {"a": 1, "b": 2}
    for index, bad, message in ((1, {"a": 3, "b": 4, "c": 5}, r"\['c'\] are not in the header, "
                                 r"header keys \[\] are missing"),
                                (2, {"a": 3}, r"\[\] are not in the header, header keys \['b'\]")):
        with pytest.raises(IoFailure, match=f"record {index}: keys " + message):
            write_records_csv(path, [first] * index + [bad])
        assert not path.exists()
    write_records_csv(path, [first, {"b": 4, "a": 3}])
    assert path.read_text() == "a,b\n1,2\n3,4\n"


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


# settings the module that uses them would reject only at run time, some after other
# trials ran: (file text, what the load error must name, the owner's call that
# rejects the same setting)
BUILD_REJECTS = [
    ("[mismatch]\nm = 0\n", "m must be >= 1", lambda: build_sensing("gaussian", 0, 32)),
    ("[mismatch]\nd = 8\nsensing = row-subsample\nm = 9\n",
     "m = 9, d = 8: row-subsample needs m <= d", lambda: build_sensing("row-subsample", 9, 8)),
    ("[phase]\nd = 16\nsensing = row-subsample\nm_sweep = 8,32\n",
     "m_sweep = (8, 32), d = 16: row-subsample needs m <= d",
     lambda: build_sensing("row-subsample", 32, 16)),
    ("[regime-map]\nd = 8\nsensing = identity\nm_sweep = 4,9\n",
     "m_sweep = (4, 9), d = 8: identity needs m = d", lambda: build_sensing("identity", 4, 8)),
    ("[regime-map]\nd = 8\nsensing = row-subsample\nm_sweep = 4,9\n",
     "m_sweep = (4, 9), d = 8: row-subsample needs m <= d",
     lambda: build_sensing("row-subsample", 9, 8)),
    ("[phase]\nmax_iterations = 0\n", "max_iterations",
     lambda: solvers.SolverConfig(epsilon=0.0, max_iterations=0)),
    ("[mismatch]\nmax_iterations = 0\n", "max_iterations",
     lambda: solvers.SolverConfig(epsilon=0.0, max_iterations=0)),
    ("[perturbation]\nsensing = gausian\n", "unknown sensing 'gausian'",
     lambda: build_sensing("gausian", 6, 8)),
    ("[phase]\nbasis = haar\n", "unknown basis 'haar'", lambda: build_dictionary("haar", 64)),
    ("[regime-map]\nd = 12\nbasis = hadamard\nm_sweep = 4,8\n", "hadamard needs d",
     lambda: build_dictionary("hadamard", 12)),
    ("[phase]\nd = 1\nk = 1\nbasis = dct\nm_sweep = 1\n", "dct needs d",
     lambda: build_dictionary("dct", 1)),
    ("[perturbation]\nsensing = identity\n", "d = 6, n = 8: identity needs m = d",
     lambda: build_sensing("identity", 6, 8)),
    ("[perturbation]\nd = 9\nsensing = row-subsample\n",
     "d = 9, n = 8: row-subsample needs m <= d", lambda: build_sensing("row-subsample", 9, 8)),
    ("[uncertainty-principle]\nd_sweep = 4,12\n",
     "d_sweep = (4, 12): hadamard needs d a power of 2",
     lambda: build_dictionary("hadamard", 12)),
    ("[perturbation]\nk = 9\n", "k = 9, n = 8: need 1 <= k <= n",
     lambda: sparsity.plant(np.eye(8), 9, (1, 2, 3))),
    ("[mismatch]\nd = 8\nk = 0\n", "k = 0, d = 8: need 1 <= k <= n",
     lambda: sparsity.plant(np.eye(8), 0, (1, 2, 3))),
    ("[regime-map]\nd = 8\nk_sweep = 1,9\n", "k_sweep = (1, 9), n = 8: need 1 <= k <= n",
     lambda: sparsity.plant(np.eye(8), 9, (1, 2, 3))),
    ("[perturbation]\nd = 6\nn = 40\nk = 4\n", "k = 4, n = 40: binomial(40,8) = ",
     lambda: geometry.gamma_exact(EffectiveSensing(np.ones((6, 40))), 8)),
    ("[phase]\nsolvers = omp,lasso\n", "solvers = ('omp', 'lasso'): unknown solvers ['lasso']",
     lambda: solvers.run_battery(None, None, names=("omp", "lasso"))),
    ("[phase]\nsolvers =\n", "solvers = (): no solvers named",
     lambda: solvers.run_battery(None, None, names=())),
    ("[phase]\nsolvers = omp,omp\n",
     "solvers = ('omp', 'omp'): solvers named more than once: ['omp']",
     lambda: solvers.run_battery(None, None, names=("omp", "omp"))),
    ("[regime-map]\ntrials_per_cell = 19\n",
     "trials_per_cell = 19: a verdict needs trials >= 20, got 19",
     lambda: etr.classify_regime(None, 8, 16, 1, etr.BatteryStats(trials=19))),
    ("[mismatch]\nmaster_seed = -1\n", "master_seed = -1: seed must be a u64",
     lambda: rng.check_seed(-1)),
    ("[phase]\nmaster_seed = 18446744073709551616\n",
     "master_seed = 18446744073709551616: seed must be a u64", lambda: rng.check_seed(2**64)),
    # the loader builds [thresholds] as it reads the section, before the experiment's
    # reads are checked, so a phase file's bad threshold gets the owner's message
    ("[phase]\n[thresholds]\nsample_c0 = inf\n", "[thresholds]: sample_c0 must be finite",
     lambda: etr.RegimeThresholds(sample_c0=math.inf)),
    ("[regime-map]\n[thresholds]\nsample_c0 = inf\n", "[thresholds]: sample_c0 must be finite",
     lambda: etr.RegimeThresholds(sample_c0=math.inf)),
    ("[regime-map]\n[thresholds]\nstable_c = nan\n", "[thresholds]: stable_c must be finite",
     lambda: etr.RegimeThresholds(stable_c=math.nan)),
    ("[regime-map]\n[thresholds]\nsample_c0 = -1\n", "[thresholds]: sample_c0 must be finite "
     "and > 0, got -1.0", lambda: etr.RegimeThresholds(sample_c0=-1.0)),
    ("[regime-map]\n[thresholds]\ntrials = 0\n", "[thresholds]: trials must be >= 1, got 0",
     lambda: etr.RegimeThresholds(trials=0)),
]


@pytest.mark.parametrize("text, message, owner", BUILD_REJECTS,
                         ids=[f"{t[1:t.index(']')]}: {m}" for t, m, _ in BUILD_REJECTS])
def test_config_rejects_what_the_builders_would_reject(tmp_path, text, message, owner):
    # the owner rejects the setting, and the load error names the keys around the
    # owner's own message, so the two cannot drift apart
    with pytest.raises(EtrLabError) as rejected:
        owner()
    with pytest.raises(ConfigError, match=re.escape(message)) as loaded:
        load_config(_write(tmp_path, text))
    assert str(loaded.value).endswith(f": {rejected.value}")


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


def test_config_rejects_an_infinite_epsilon(tmp_path):
    # phase would draw noise of infinite norm, so no measurement y is finite
    with pytest.raises(ConfigError, match="epsilon = inf"):
        ExperimentConfig(epsilon=math.inf)
    with pytest.raises(ConfigError, match="epsilon = inf"):
        load_config(_write(tmp_path, "[regime-map]\nepsilon = inf\n"))


@pytest.mark.parametrize("seed, alias", [(2**64 + 1, 1), (-5, 2**64 - 5)])
def test_config_rejects_master_seeds_outside_u64(tmp_path, seed, alias):
    # the streams mix the seed modulo 2**64, so seed would draw what alias draws
    with pytest.raises(ConfigError, match=f"master_seed = {seed}: seed must be a u64.*got {seed}"):
        ExperimentConfig(master_seed=seed)
    with pytest.raises(ConfigError, match="master_seed"):
        load_config(_write(tmp_path, f"[mismatch]\nmaster_seed = {seed}\n"))
    with pytest.raises(ConfigError, match="master_seed"):
        dataclasses.replace(ExperimentConfig(master_seed=alias), master_seed=seed)
    for edge in (0, 2**64 - 1):
        cfg = load_config(_write(tmp_path, f"[phase]\nmaster_seed = {edge}\n"))
        assert cfg.master_seed == edge


def test_config_names_the_thresholds_regime_thresholds_rejects(tmp_path):
    # the classifier's own rule, raised as a ConfigError naming both keys it compares
    text = "[regime-map]\n[thresholds]\nbattery_fail_max = 0.95\n"
    with pytest.raises(ConfigError, match="thresholds.*battery_fail_max = 0.95, "
                                          "battery_success_min = 0.9"):
        load_config(_write(tmp_path, text))


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
    ("[phase]\nd = 8\nk = 9\n", "k = 9, n = 8: need 1 <= k <= n"),
    ("[mismatch]\nd = 8\nk = 9\n", "k = 9, d = 8: need 1 <= k <= n"),
    ("[regime-map]\nd = 8\nk_sweep = 1,9\n", "k_sweep = \\(1, 9\\), n = 8: need 1 <= k <= n"),
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


@pytest.mark.parametrize("experiment", ["phase", "mismatch", "uncertainty-principle",
                                        "perturbation"])
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


def _summary_digest(path) -> str:
    """sha256 of a summary without its reproduce line, which names the output path."""
    with open(path) as fh:
        text = "".join(line for line in fh if not line.startswith("- reproduce: "))
    return hashlib.sha256(text.encode()).hexdigest()


# the type of each records column: the CSV writes a bool as 1 or 0 and a float by a
# repr that reads back to the same float
_BOOL = {"1": True, "0": False}.__getitem__
COLUMN_TYPES = {
    **dict.fromkeys(("success", "support_match", "converged", "violation", "holds",
                     "degenerate"), _BOOL),
    **dict.fromkeys(("m", "k", "n", "d", "trial", "cost_total", "k_eff", "k1", "k2",
                     "product"), int),
    **dict.fromkeys(("rel_error", "floor", "gamma_2k", "slack", "l0_rate", "omp_rate",
                     "bp_rate"), float),
    **dict.fromkeys(("experiment", "solver", "error", "phase", "arm", "case",
                     "gamma_method", "regime", "evidence"), str),
}


# what draws or solves: a summary computes from its records and calls none of these
SUMMARY_NEVER_CALLS = ("RandomStream", "build_sensing", "compose", "plant", "observe",
                       "effective_sparsity", "run_battery", "gamma_exact", "geometry_report",
                       "classify_regime", "perturbation_check")


def _never(name):
    def called(*args, **kwargs):
        raise AssertionError(f"a summary called {name}")
    return called


def _assert_summary_is_a_function_of_the_records(cfg, bundle, out, violations=()):
    """The experiment's summarize, given cfg and the records CSV read back from disk,
    returns the lines of the written summary, figures of the same bytes and the
    violations run_experiment raised."""
    with open(bundle.records_csv) as fh:
        header, *rows = fh.read().splitlines()
    columns = header.split(",")
    records = [{c: COLUMN_TYPES[c](v) for c, v in zip(columns, row.split(","))} for row in rows]
    os.makedirs(out)
    typed = os.path.join(out, "typed.csv")
    write_records_csv(typed, records)  # the types write the same bytes back
    with open(bundle.records_csv, "rb") as written, open(typed, "rb") as again:
        assert again.read() == written.read()
    _, summarize = harness.RUNNERS[cfg.experiment]
    with pytest.MonkeyPatch.context() as patch:
        for name in SUMMARY_NEVER_CALLS:
            patch.setattr(harness, name, _never(name))
        lines, figures, found = summarize(dataclasses.replace(cfg, output_dir=str(out)), records)
    with open(bundle.summary_md) as fh:
        # render_report writes seven header lines before the summary lines
        assert fh.read().split("\n")[7:] == [*lines, ""]
    assert [os.path.basename(f) for f in figures] == [os.path.basename(f) for f in bundle.figures]
    for again, written in zip(figures, bundle.figures):
        with open(again, "rb") as a, open(written, "rb") as w:
            assert a.read() == w.read()
    assert found == list(violations)


def _pinned_digests() -> dict:
    """The table scripts/records_digests.py checks: config -> (records, summary) sha256."""
    table = os.path.join(os.path.dirname(__file__), "..", "scripts", "records_digests.txt")
    with open(table) as fh:
        return {name: (records, summary)
                for name, records, summary in (line.split() for line in fh if line.strip())}


@pytest.mark.parametrize("config", ["toy.cfg", "regime.cfg", "phase.cfg", "mismatch.cfg",
                                    "uncertainty.cfg"])
def test_shipped_records_digest_is_pinned(tmp_path, config):
    # a change to any record or summary byte of these shipped configs shows up here;
    # the pins are the config's line of the table that scripts/records_digests.py
    # checks. Like the table, they hold with numpy 2.4.6 running its X86_V4 (AVX-512)
    # loops; on another dispatch level a float's last bits may differ (ROADMAP item 9)
    cfg = load_config(os.path.join(CONFIGS, config))
    cfg.output_dir = str(tmp_path / "run")
    bundle = run_experiment(cfg)
    with open(bundle.records_csv, "rb") as fh:
        digest = hashlib.sha256(fh.read()).hexdigest()
    assert (digest, _summary_digest(bundle.summary_md)) == _pinned_digests()[config]
    _assert_summary_is_a_function_of_the_records(cfg, bundle, tmp_path / "again")


def _digest_script(tmp_path, monkeypatch):
    """scripts/records_digests.py, run on a checkout at tmp_path holding one tiny config."""
    path = os.path.join(os.path.dirname(__file__), "..", "scripts", "records_digests.py")
    spec = importlib.util.spec_from_file_location("records_digests", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    (tmp_path / "configs").mkdir()
    (tmp_path / "configs" / "tiny.cfg").write_text(
        "[uncertainty-principle]\nd_sweep = 4\ntrials_per_cell = 3\n")
    monkeypatch.setattr(script, "ROOT", tmp_path)
    return script


def test_digest_check_reports_a_pinned_config_that_is_gone(tmp_path, monkeypatch, capsys):
    # a pinned name with no config (a renamed or deleted one) is a mismatch, not a
    # silent pass
    script = _digest_script(tmp_path, monkeypatch)
    assert script.main([]) == 0
    line = capsys.readouterr().out
    table = tmp_path / "table.txt"
    table.write_text(line)
    assert script.main(["--check", str(table)]) == 0
    assert capsys.readouterr().out.endswith(f"0 of 1 configs differ from {table}\n")
    zeros = "0" * 64
    table.write_text(line + f"gone.cfg  {zeros}  {zeros}\n")
    assert script.main(["--check", str(table)]) == 1
    out = capsys.readouterr().out
    assert f"gone.cfg  MISMATCH, pinned {zeros}  {zeros} but configs/ holds no gone.cfg" in out
    assert out.endswith(f"1 of 2 configs differ from {table}\n")


def test_digest_check_compares_the_records_and_the_summary(tmp_path, monkeypatch, capsys):
    # each line is `<config>  <records sha256>  <summary sha256>`, the summary hashed
    # without its reproduce line; a change to either digest is a mismatch
    script = _digest_script(tmp_path, monkeypatch)
    assert script.main([]) == 0
    line = capsys.readouterr().out
    name, records, summary = line.split()
    assert name == "tiny.cfg" and line == f"tiny.cfg  {records}  {summary}\n"
    table = tmp_path / "table.txt"
    for pinned in (f"{'0' * 64}  {summary}", f"{records}  {'0' * 64}"):
        table.write_text(f"tiny.cfg  {pinned}\n")
        assert script.main(["--check", str(table)]) == 1
        assert capsys.readouterr().out.startswith(
            f"tiny.cfg  {records}  {summary}  MISMATCH, pinned {pinned}\n")


def test_digest_check_prints_the_host_before_its_summary(tmp_path, monkeypatch, capsys):
    # the numpy version, the SIMD extensions numpy found and OPENBLAS_CORETYPE when
    # set: what record bits can differ by between two hosts
    script = _digest_script(tmp_path, monkeypatch)
    monkeypatch.delenv("OPENBLAS_CORETYPE", raising=False)
    assert script.main([]) == 0
    line = capsys.readouterr().out
    assert "host:" not in line
    table = tmp_path / "table.txt"
    table.write_text(line)
    found = " ".join(np.show_config(mode="dicts")["SIMD Extensions"]["found"])
    host = f"host: numpy {np.__version__}, SIMD found {found}"
    assert script.main(["--check", str(table)]) == 0
    assert capsys.readouterr().out == f"{line}{host}\n0 of 1 configs differ from {table}\n"
    monkeypatch.setenv("OPENBLAS_CORETYPE", "Haswell")
    assert script.main(["--check", str(table)]) == 0
    assert capsys.readouterr().out.splitlines()[-2] == f"{host}, OPENBLAS_CORETYPE=Haswell"


# shrunk runs of the shipped configs on the benchmark's code paths: eps > 0 BP
# and OMP, the three-solver battery with exact gamma, and the perturbation suite;
# (config, overrides, sha256 of the records), each with an id that names the config
# and not the digest, so a re-pin keeps the test's name
SHRUNK_PINS = [
    pytest.param("regime.cfg",
                 dict(k_sweep=(1, 3), m_sweep=(4, 8), trials_per_cell=20, max_iterations=1000),
                 "50e32e93f78c32df4e5f24c653b15936dea247131bf0b220963ef595898160af",
                 id="regime.cfg"),
    pytest.param("perturbation.cfg", dict(trials_per_cell=200),
                 "1879fd005702d87b0dfd11e6408e5637920df7d9cb8186d8b18e58adb2a83f14",
                 id="perturbation.cfg"),
    pytest.param("phase.cfg",
                 dict(epsilon=0.01, m_sweep=(8, 16), trials_per_cell=2, max_iterations=250,
                      solvers=("basis-pursuit", "omp")),
                 "4a547465cb415f444a60af9fa54f76d1244c268ffc92c21c1266b1e7d1f3f12e",
                 id="phase.cfg-epsilon-0.01"),
    # the phase workload's own path: epsilon = 0 BP at d = 64 and the 4000 cap
    pytest.param("phase.cfg", dict(m_sweep=(4, 12, 24), trials_per_cell=3, max_iterations=4000),
                 "19293c6c93edf0d2145b6c9b1994d0e0d32d50146e12b8795af4a260fcaf4abd",
                 id="phase.cfg-epsilon-0"),
]
# the summary of SHRUNK_PINS' perturbation run, pinned as SUMMARY_PINS are and taken
# on the same host
SHRUNK_SUMMARY_PINS = {
    "perturbation.cfg": "aed075653316d7915f8c05051da6660d53fcc6b7cf25caad893caa474553e159",
}


@pytest.mark.parametrize("config, overrides, digest", SHRUNK_PINS)
def test_shrunk_records_digest_is_pinned(tmp_path, config, overrides, digest):
    cfg = load_config(os.path.join(CONFIGS, config))
    cfg = dataclasses.replace(cfg, **overrides, output_dir=str(tmp_path / "run"))
    bundle = run_experiment(cfg)
    with open(bundle.records_csv, "rb") as fh:
        assert hashlib.sha256(fh.read()).hexdigest() == digest
    if config in SHRUNK_SUMMARY_PINS:
        assert _summary_digest(bundle.summary_md) == SHRUNK_SUMMARY_PINS[config]
    _assert_summary_is_a_function_of_the_records(cfg, bundle, tmp_path / "again")
    with open(bundle.records_csv) as fh:
        rows = list(csv.DictReader(fh))
    # every basis-pursuit solve on these paths is certified
    assert all(r["converged"] == "1" for r in rows if r.get("solver") == "basis-pursuit")


def test_colex_caches_hold_no_run_state(tmp_path, monkeypatch):
    # the perturbation and regime cases of test_shrunk_records_digest_is_pinned, run
    # twice in one process: with warm caches, then with 100-byte chunks (at most three
    # supports each) whose blocks take new cache keys and evict one another
    cases = [pin.values for pin in SHRUNK_PINS if pin.id in ("regime.cfg", "perturbation.cfg")]
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


def test_mismatch_records_the_square_solves_that_raise(tmp_path):
    # at m = d the Gaussian phi is invertible, so every y lies in its range, yet basis
    # pursuit raises NoFeasibleSolution on dense mismatched targets (ROADMAP item 3);
    # such a solve is a failed row that names its error, and the run goes on
    cfg = ExperimentConfig(experiment="mismatch", d=32, k=4, m=32, trials_per_cell=2,
                           recovery_trials=3, master_seed=42, output_dir=str(tmp_path))
    bundle = run_experiment(cfg)
    with open(bundle.records_csv) as fh:
        rows = [r for r in csv.DictReader(fh) if r["phase"] == "recovery"]
    assert len(rows) == 2 * 3
    raised = [r for r in rows if r["error"]]
    assert raised
    for r in raised:
        assert r["success"] == "0" and r["converged"] == "0"
        assert r["error"] == "NoFeasibleSolution: y outside the reachable residual ball"
    summary = open(bundle.summary_md).read()
    for arm in ("matched", "mismatched"):
        count = sum(r["arm"] == arm for r in raised)
        by_type = f" (NoFeasibleSolution: {count})" if count else ""
        assert f"\n{arm} solves that raised: {count} of 3{by_type}\n" in summary


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


def _records(path) -> list[dict]:
    with open(path) as fh:
        return list(csv.DictReader(fh))


def test_violating_perturbation_suite_writes_its_report_before_it_raises(tmp_path,
                                                                          monkeypatch):
    # scripts/records_digests.py digests the records of a suite that raised
    monkeypatch.setattr(harness, "perturbation_check", lambda *args: (False, -1.0))
    cfg = ExperimentConfig(experiment="perturbation", d=4, n=6, k=1, trials_per_cell=5,
                           master_seed=3, output_dir=str(tmp_path))
    with pytest.raises(SuiteFailure) as failure:
        run_experiment(cfg)
    rows = _records(tmp_path / "perturbation_records.csv")
    expected = [f"trial={r['trial']} seed=3: slack -1.0" for r in rows if r["degenerate"] == "0"]
    assert len(rows) == 5 and expected
    assert failure.value.violations == expected
    summary = (tmp_path / "perturbation_summary.md").read_text()
    assert f"\nviolations: {len(expected)} (must be 0)\n" in summary
    bundle = harness.ReportBundle(str(tmp_path / "perturbation_records.csv"),
                                  str(tmp_path / "perturbation_summary.md"))
    _assert_summary_is_a_function_of_the_records(cfg, bundle, tmp_path / "again", expected)


def test_perturbation_suite_skips_trials_whose_gamma_has_a_witness(tmp_path, monkeypatch):
    # every 2-support of a 1 x 4 matrix is wide, so gamma_2k = 0.0 and gamma_exact
    # finds a witness on every trial: each is degenerate, and none plants or checks
    def unreachable(*args):
        raise AssertionError("a degenerate trial planted or checked")

    monkeypatch.setattr(harness, "plant", unreachable)
    monkeypatch.setattr(harness, "perturbation_check", unreachable)
    cfg = ExperimentConfig(experiment="perturbation", d=1, n=4, k=1, trials_per_cell=5,
                           master_seed=3, output_dir=str(tmp_path))
    run_experiment(cfg)  # raises SuiteFailure on a violation
    rows = _records(tmp_path / "perturbation_records.csv")
    assert [(r["gamma_2k"], r["degenerate"], r["holds"]) for r in rows] == [("0", "1", "1")] * 5
    summary = (tmp_path / "perturbation_summary.md").read_text()
    assert "\ninstances: 5 (5 degenerate skipped)\nviolations: 0 (must be 0)\nno valid slacks\n" \
        in summary


def test_violating_uncertainty_suite_writes_its_report_before_it_raises(tmp_path,
                                                                         monkeypatch):
    # every K_Psi read as 1: each random product 1 sits below the floor d = 4, and the
    # subgroup indicator's product misses it
    monkeypatch.setattr(harness, "effective_sparsity", lambda x, psi: 1)
    cfg = ExperimentConfig(experiment="uncertainty-principle", d_sweep=(4,), trials_per_cell=3,
                           master_seed=3, output_dir=str(tmp_path))
    with pytest.raises(SuiteFailure) as failure:
        run_experiment(cfg)
    floor = 1.0 / harness.mutual_coherence(build_dictionary("identity", 4),
                                           build_dictionary("hadamard", 4)) ** 2
    assert failure.value.violations == [
        *(f"d=4 trial={t} seed=3: 1 < {floor}" for t in range(3)),
        "d=4 subgroup extremal: product 1 != 4",
    ]
    rows = _records(tmp_path / "uncertainty_principle_records.csv")
    assert [r["violation"] for r in rows] == ["1"] * 4
    summary = (tmp_path / "uncertainty_principle_summary.md").read_text()
    assert ", violations = 4, " in summary
    assert "\ntotal violations: 4 (must be 0)\n" in summary
    bundle = harness.ReportBundle(str(tmp_path / "uncertainty_principle_records.csv"),
                                  str(tmp_path / "uncertainty_principle_summary.md"))
    _assert_summary_is_a_function_of_the_records(cfg, bundle, tmp_path / "again",
                                                  failure.value.violations)
