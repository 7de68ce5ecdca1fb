"""Benchmark workloads: each is a shipped config plus the benchmark seed.

The lab sees only the `ExperimentConfig` built here; its master seed is
the benchmark's `--seed` argument, so the same seed gives the same
inputs. This module also holds the output checks, which are written
against the records on disk rather than against the lab's own constants.
"""

from __future__ import annotations

import csv
import dataclasses
import os
from dataclasses import dataclass

from etrlab.config import load_config

REGIME_LABELS = ("non-unique", "opaque", "stable", "indeterminate")


@dataclass(frozen=True)
class Workload:
    name: str
    config_file: str
    overrides: dict
    why: str


WORKLOADS = {w.name: w for w in (
    Workload(
        "phase", "phase.cfg", {},
        "phase.cfg as shipped: epsilon = 0 basis pursuit is the whole cost and half the "
        "transition-band solves hit the iteration cap; no support enumeration runs, so it "
        "bypasses gamma and l0 kernels.",
    ),
    Workload(
        "phase-noisy", "phase.cfg",
        # epsilon > 0 is the only setting in which the ball projection's bisection
        # runs (about 1 ms per ADMM iteration instead of about 20 us). The cap of 250
        # lies below every iteration count seen to converge at this epsilon (about
        # 800 and up), so each solve runs a fixed number of iterations and run time
        # does not depend on the seed. OMP stays in, as in toy.cfg, and fails on the
        # unnormalized matrix.
        {"epsilon": 0.01, "m_sweep": (8, 12, 16, 24), "trials_per_cell": 2,
         "max_iterations": 250, "solvers": ("basis-pursuit", "omp")},
        "phase geometry with epsilon = 0.01: the only workload whose basis-pursuit "
        "iterations run the ball-projection bisection; OMP rows expose the "
        "unnormalized-matrix defect.",
    ),
    Workload(
        "perturbation", "perturbation.cfg", {},
        "perturbation.cfg as shipped: 10^4 tiny exact-gamma problems, so per-call "
        "overhead in gamma_exact, the SVD and the RNG dominates; no solver runs.",
    ),
    Workload(
        "regime", "regime.cfg",
        # With the shipped cap of 4000 the 15-19 capped solves make total basis-pursuit
        # work vary by 14 % (quartile spread) between seeds; at 1000 it is about 6 %.
        {"max_iterations": 1000},
        "regime.cfg, BP cap 1000: all three solvers plus exact gamma up to r = 6; l0 "
        "enumeration exits early while gamma enumeration runs to the end.",
    ),
)}


def build_config(root, name: str, seed: int, output_dir: str, **shrink):
    """The workload's validated config; `shrink` overrides fields for tests."""
    work = WORKLOADS[name]
    cfg = load_config(os.path.join(root, "configs", work.config_file))
    return dataclasses.replace(cfg, **{**work.overrides, **shrink}, master_seed=seed,
                               output_dir=output_dir, workers=1)


def expected_records(cfg) -> int:
    if cfg.experiment == "phase":
        return len(cfg.m_sweep) * cfg.trials_per_cell * len(cfg.solvers)
    if cfg.experiment == "perturbation":
        return cfg.trials_per_cell
    if cfg.experiment == "regime-map":
        return len(cfg.m_sweep) * len(cfg.k_sweep)
    raise ValueError(f"no benchmark workload runs {cfg.experiment!r}")


def read_records(path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_records(cfg, records: list[dict]) -> list[str]:
    """Problems found in one run's records; empty when the output is sound."""
    problems = []
    if len(records) != expected_records(cfg):
        problems.append(f"{len(records)} records, expected {expected_records(cfg)}")
    if cfg.experiment == "regime-map":
        bad = [r["regime"] for r in records if r["regime"] not in REGIME_LABELS]
        if bad:
            problems.append(f"regime cells with unknown labels: {sorted(set(bad))}")
    return problems
