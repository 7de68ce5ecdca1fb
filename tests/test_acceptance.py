"""End-to-end acceptance checks with explicit pass/fail lines.

Each test covers one shipped guarantee at its stated tolerance and
prints a single `criterion N: PASS` line on success (pytest keeps the
line in captured output; run with -s to stream them).
"""

import csv
import math
import os
import time

import numpy as np
import pytest

from etrlab.config import load_config
from etrlab.dictionaries import (
    EffectiveSensing,
    build_dictionary,
    build_sensing,
    compose,
    mutual_coherence,
)
from etrlab.etr import BatteryStats, classify_regime, inflation_ratio, uncertainty_functional, nonvanishing_bound, build_uncertainty_report
from etrlab.geometry import (
    gamma_exact,
    gamma_lower_coherence,
    gamma_sampled,
    geometry_report,
    perturbation_check,
)
from etrlab.harness import isotonic_fit, recovery_success, run_experiment
from etrlab.rng import RandomStream
from etrlab.solvers import SolverConfig, run_battery, solve_bp, solve_l0, solve_omp
from etrlab.sparsity import observe, plant, representation_complexity

CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")


def _ok(n, detail):
    print(f"criterion {n}: PASS — {detail}")


def _records(bundle):
    with open(bundle.records_csv) as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_uncertainty_principle():
    t0 = time.monotonic()
    violations = 0
    checked = 0
    for d in (4, 16, 64):
        identity = build_dictionary("identity", d)
        hadamard = build_dictionary("hadamard", d)
        mu = mutual_coherence(identity, hadamard)
        assert mu == pytest.approx(1.0 / math.sqrt(d), rel=1e-12)
        stream = RandomStream(101, d)
        for t in range(1000):
            ts = stream.split(t)
            # alternate dense signals and planted sparse ones
            if t % 2 == 0:
                x = ts.gaussians(d)
                if not np.any(x):
                    continue
            else:
                k = 1 + int(ts.split(0).integers_below(np.array([d]))[0])
                x = plant(identity, min(k, d), ts.split(1).split_bases(3)).x
            k1 = representation_complexity(x, identity).k_psi
            k2 = representation_complexity(x, hadamard).k_psi
            checked += 1
            if k1 * k2 < d:
                violations += 1
        # subgroup indicator extremal: equality, exactly
        from etrlab.harness import _subgroup_indicator

        x = _subgroup_indicator(d)
        k1 = representation_complexity(x, identity).k_psi
        k2 = representation_complexity(x, hadamard).k_psi
        assert k1 * k2 == d
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 10.0
    _ok(1, f"0/{checked} product violations; extremal equality at d=4,16,64; {elapsed:.1f}s")


def test_criterion_2_gamma_oracle_consistency():
    t0 = time.monotonic()
    for seed in range(100):
        a = EffectiveSensing(build_sensing("gaussian", 8, 12, seed=seed))
        exact = gamma_exact(a, 2)
        sampled = gamma_sampled(a, 2, trials=66, stream=RandomStream(seed, 7))
        assert abs(exact - sampled) <= 1e-12
        an = EffectiveSensing(a.a / np.linalg.norm(a.a, axis=0))
        assert gamma_exact(an, 2) >= gamma_lower_coherence(an, 2) - 1e-12
        assert exact <= gamma_exact(a, 1) + 1e-12
    # duplicate-column matrices are flagged with a verifiable witness
    for seed in range(10):
        mat = build_sensing("gaussian", 8, 11, seed=1000 + seed)
        dup = np.hstack([mat, mat[:, [3]]])
        a = EffectiveSensing(dup)
        gamma, witness, _ = gamma_exact(a, 2, with_witness=True)
        assert gamma <= 1e-10
        assert witness is not None
        h = np.asarray(witness)
        assert np.count_nonzero(h) <= 2
        assert np.linalg.norm(dup @ h) <= 1e-9 * np.linalg.norm(h)
    elapsed = time.monotonic() - t0
    assert elapsed < 30.0
    _ok(2, f"100 Gaussian 8x12 matrices consistent; duplicate-column witnesses valid; {elapsed:.1f}s")


def test_criterion_3_perturbation_amplification():
    t0 = time.monotonic()
    m, n, k = 6, 8, 1
    psi = build_dictionary("identity", n)
    violations = 0
    for t in range(10_000):
        stream = RandomStream(303, t)
        a = EffectiveSensing(
            build_sensing("gaussian", m, n, seed=stream.split(0).as_seed())
        )
        g = gamma_exact(a, 2 * k)
        if g <= 1e-10:
            continue
        z1 = plant(psi, k, stream.split(1).split_bases(3)).x
        z2 = plant(psi, k, stream.split(2).split_bases(3)).x
        holds, _ = perturbation_check(a, z1, z2, g)
        violations += not holds
    elapsed = time.monotonic() - t0
    assert violations == 0
    assert elapsed < 120.0
    _ok(3, f"0/10000 amplification-bound violations; {elapsed:.1f}s")


def test_criterion_4_phase_transition(tmp_path):
    t0 = time.monotonic()
    cfg = load_config(os.path.join(CONFIG_DIR, "phase.cfg"))
    cfg.output_dir = str(tmp_path)
    bundle = run_experiment(cfg)
    rows = [r for r in _records(bundle) if r["solver"] == "basis-pursuit"]
    rates = {}
    for m in cfg.m_sweep:
        cell = [int(r["success"]) for r in rows if int(r["m"]) == m]
        assert len(cell) == cfg.trials_per_cell
        rates[m] = sum(cell) / len(cell)
    assert rates[6] <= 0.1
    assert rates[40] >= 0.9
    smooth = isotonic_fit([rates[m] for m in cfg.m_sweep])
    assert all(a <= b + 1e-12 for a, b in zip(smooth, smooth[1:]))
    elapsed = time.monotonic() - t0
    assert elapsed < 120.0
    _ok(4, f"rate(m=6)={rates[6]:.2f} <= 0.1, rate(m=40)={rates[40]:.2f} >= 0.9, "
           f"isotonic curve monotone; {elapsed:.1f}s")


def test_criterion_5_mismatch_inflation(tmp_path):
    t0 = time.monotonic()
    cfg = load_config(os.path.join(CONFIG_DIR, "mismatch.cfg"))
    cfg.output_dir = str(tmp_path)
    bundle = run_experiment(cfg)
    rows = _records(bundle)
    census = [r for r in rows if r["phase"] == "census"]
    assert len(census) == 1000
    dense = sum(1 for r in census if int(r["k_eff"]) == 32) / len(census)
    assert dense >= 0.99
    matched = [int(r["success"]) for r in rows if r["arm"] == "matched"]
    mismatched = [int(r["success"]) for r in rows if r["arm"] == "mismatched"]
    rate_m = sum(matched) / len(matched)
    rate_x = sum(mismatched) / len(mismatched)
    assert rate_m >= 0.9
    assert rate_x <= 0.1
    # reported ratio against an independent evaluation of the formula
    reference = (64.0 * (math.log(64.0 / 64.0) + 1.0)) / (4.0 * (math.log(64.0 / 4.0) + 1.0))
    assert abs(inflation_ratio(4, 64, 64) - reference) <= 1e-6
    elapsed = time.monotonic() - t0
    assert elapsed < 180.0
    _ok(5, f"k_eff=32 in {dense:.3f} of census; matched={rate_m:.2f}, "
           f"mismatched={rate_x:.2f}; inflation ratio matches to 1e-6; {elapsed:.1f}s")


def test_criterion_6_oracle_equivalence():
    t0 = time.monotonic()
    h = build_dictionary("hadamard", 16)
    a = EffectiveSensing(np.hstack([np.eye(16), h]))
    mu = 0.25  # max inner product between distinct unit columns of [I | H]
    k = 2
    assert k < (1.0 + 1.0 / mu) / 2.0
    coeff = build_dictionary("identity", 32)
    agree = 0
    for t in range(500):
        inst = plant(coeff, k, RandomStream(606, t).split_bases(3))
        y = a.a @ inst.alpha_star
        s0 = solve_l0(a, y, SolverConfig(max_sparsity=k)).support
        so = solve_omp(a, y, SolverConfig(max_sparsity=2 * k)).support
        sb = solve_bp(a, y, SolverConfig()).support
        agree += (so == s0) and (sb == s0)
    elapsed = time.monotonic() - t0
    assert agree == 500
    assert elapsed < 60.0
    _ok(6, f"OMP and BP supports match the exhaustive oracle on 500/500; {elapsed:.1f}s")


def test_criterion_7_functional_and_cost_ordering():
    assert uncertainty_functional(1, 1.0, 1) == pytest.approx(math.log(2.0), abs=1e-12)
    # every emitted report dominates its floor and stays positive
    for k_psi in (1, 2, 5, 16):
        for g in (1e-6, 0.01, 0.5, 1.0):
            for cost in (1, 100, 10 ** 9):
                rep = build_uncertainty_report(2, k_psi, g, cost)
                assert rep.u_value > 0.0
                assert rep.u_value >= rep.lower_bound * (1.0 - 1e-12)
                assert rep.lower_bound == pytest.approx(
                    nonvanishing_bound(k_psi, g), rel=1e-14
                )
    # cost ordering across a 20-instance battery on 16x32, k = 3; the
    # oracle's early exit makes single instances noisy, so compare the
    # battery totals
    psi = build_dictionary("identity", 32)
    totals = {"l0-exhaustive": 0, "omp": 0, "basis-pursuit": 0}
    for t in range(20):
        stream = RandomStream(707, t)
        phi = build_sensing("gaussian", 16, 32, seed=stream.split(0).as_seed())
        inst = plant(psi, 3, stream.split(1).split_bases(3))
        y = observe(inst.x, phi, 0.0, stream.split(2))
        a = compose(phi, psi)
        for e in run_battery(a, y, SolverConfig(max_sparsity=3)):
            totals[e.solver] += e.result.cost.total
    assert totals["l0-exhaustive"] > totals["basis-pursuit"]
    assert totals["l0-exhaustive"] > totals["omp"]
    _ok(7, f"(1,1,1) -> ln 2 to 1e-12; bound dominated on a 48-point grid; "
           f"battery cost totals l0={totals['l0-exhaustive']} > "
           f"bp={totals['basis-pursuit']} > omp={totals['omp']}")


def test_criterion_8_regime_classifier(tmp_path):
    # duplicate columns force non-unique regardless of solver statistics
    mat = build_sensing("gaussian", 8, 11, seed=80)
    a = EffectiveSensing(np.hstack([mat, mat[:, [3]]]))
    geom = geometry_report(a, 2)
    stats = BatteryStats(20, {"l0-exhaustive": 1.0, "omp": 1.0, "basis-pursuit": 1.0})
    label = classify_regime(geom, m=8, n=12, k=1, battery_stats=stats)
    assert label.label == "non-unique"

    # identity instance d = 64, k = 1 is stable
    d = 64
    psi = build_dictionary("identity", d)
    phi = build_sensing("identity", d, d)
    a = compose(phi, psi)
    geom = geometry_report(a, 2)
    succ = {"l0-exhaustive": 0, "omp": 0, "basis-pursuit": 0}
    for t in range(20):
        stream = RandomStream(808, t)
        inst = plant(psi, 1, stream.split_bases(3))
        for entry in run_battery(a, inst.x, SolverConfig(max_sparsity=1)):
            ok, _, _ = recovery_success(entry.result.alpha_hat, inst.alpha_star)
            succ[entry.solver] += ok
    stats = BatteryStats(20, {s: c / 20 for s, c in succ.items()})
    label = classify_regime(geom, m=d, n=d, k=1, battery_stats=stats)
    assert label.label == "stable"

    # the shipped regime map never calls a degenerate cell stable
    cfg = load_config(os.path.join(CONFIG_DIR, "regime.cfg"))
    cfg.output_dir = str(tmp_path)
    rows = _records(run_experiment(cfg))
    for r in rows:
        if float(r["gamma_2k"]) <= 1e-10:
            assert r["regime"] != "stable"
    stable_cells = sum(r["regime"] == "stable" for r in rows)
    _ok(8, f"duplicate columns -> non-unique; identity d=64 -> stable; "
           f"no degenerate cell labeled stable across {len(rows)} cells "
           f"({stable_cells} stable)")


def test_criterion_9_determinism(tmp_path):
    names = []
    for config in ("toy.cfg", "regime.cfg"):
        outputs = []
        for run in ("a", "b"):
            cfg = load_config(os.path.join(CONFIG_DIR, config))
            cfg.output_dir = str(tmp_path / config / run)
            bundle = run_experiment(cfg)
            outputs.append(open(bundle.records_csv, "rb").read())
        assert outputs[0] == outputs[1] and outputs[0]
        names.append(f"{config} ({len(outputs[0])} bytes)")
    _ok(9, "byte-identical CSV on repeat runs: " + ", ".join(names))
