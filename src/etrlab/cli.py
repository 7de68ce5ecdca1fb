"""`etr-lab` command line: direct computations and config-driven experiments.

Exit codes: 0 success, 2 verification-suite violation, 1 any other error.
"""

from __future__ import annotations

import argparse
import os
import sys

import numpy as np

from .config import ExperimentConfig, load_config
from .dictionaries import (
    DICTIONARY_KINDS,
    EffectiveSensing,
    SENSING_KINDS,
    build_dictionary,
    build_sensing,
    compose,
)
from .errors import EtrLabError, SuiteFailure
from .etr import build_uncertainty_report, nonvanishing_bound
from .geometry import geometry_report
from .harness import run_experiment, write_records_csv
from .numerics import load_matrix, load_vector
from .rng import RandomStream
from .solvers import SolverConfig, solve
from .sparsity import PlantedInstance, validate_instance


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--out", help="output directory")
    p.add_argument("--workers", type=int, help="parallel trial workers "
                   "(default: ETRLAB_WORKERS or 1)")
    p.add_argument("--format", dest="formats", help="comma list: csv,md,svg")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="etr-lab",
                                     description="sparse-recovery difficulty laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="distinguishability report for one matrix")
    g.add_argument("--dict", dest="dict_kind", default="identity", choices=DICTIONARY_KINDS)
    g.add_argument("--d", type=int, default=16)
    g.add_argument("--sensing", default="identity", choices=SENSING_KINDS)
    g.add_argument("--m", type=int, default=0, help="rows (default d)")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--mode", default="exact", choices=("exact", "sampled", "bound"))
    g.add_argument("--trials", type=int, default=100)
    g.add_argument("--normalize", action="store_true", help="column-normalize A")
    g.add_argument("--out", help="write the report CSV here")

    r = sub.add_parser("recover", help="run one solver on (A, y) or a planted instance")
    r.add_argument("--solver", default="basis-pursuit",
                   choices=("l0", "omp", "bp", "l0-exhaustive", "basis-pursuit"))
    r.add_argument("--epsilon", type=float, default=0.0)
    r.add_argument("--matrix", help="A in lab CSV format")
    r.add_argument("--y", help="observation vector in lab CSV format")
    r.add_argument("--instance", help="directory holding basis.csv and alpha.csv")
    r.add_argument("--max-sparsity", type=int, default=0)
    r.add_argument("--out", help="write the result CSV here")

    f = sub.add_parser("functional", help="evaluate the uncertainty functional")
    f.add_argument("--k", type=int, required=True)
    f.add_argument("--k-psi", type=int, required=True)
    f.add_argument("--gamma", type=float, required=True)
    f.add_argument("--cost", type=int, required=True)

    for name, help_text in (
        ("phase", "phase-transition experiment"),
        ("mismatch", "representation-mismatch experiment"),
        ("verify", "uncertainty-principle / perturbation verification suites"),
        ("regime", "regime-map experiment"),
    ):
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "verify":
            p.add_argument("--suite", default="uncertainty-principle",
                           choices=("uncertainty-principle", "perturbation"))
    return parser


_SOLVER_ALIAS = {"l0": "l0-exhaustive", "bp": "basis-pursuit"}

_DEFAULT_EXPERIMENT = {
    "phase": "phase",
    "mismatch": "mismatch",
    "regime": "regime-map",
}


def _experiment_config(args, command: str) -> ExperimentConfig:
    if args.config:
        cfg = load_config(args.config)
        expected = (("uncertainty-principle", "perturbation") if command == "verify"
                    else (_DEFAULT_EXPERIMENT[command],))
        if cfg.experiment not in expected:
            raise EtrLabError(
                f"config experiment {cfg.experiment!r} does not match subcommand {command!r}"
            )
    elif command == "verify":
        suite = args.suite
        if suite == "perturbation":
            cfg = ExperimentConfig(experiment="perturbation", d=6, n=8, k=1,
                                   trials_per_cell=200)
        else:
            cfg = ExperimentConfig(experiment="uncertainty-principle", trials_per_cell=200)
    elif command == "mismatch":
        cfg = ExperimentConfig(experiment="mismatch", d=32, k=4,
                               trials_per_cell=1000, recovery_trials=50)
    elif command == "regime":
        cfg = ExperimentConfig(experiment="regime-map", d=16, n=16,
                               trials_per_cell=20, formats=("csv", "md", "svg"))
    else:
        cfg = ExperimentConfig(experiment="phase")
    if args.seed is not None:
        cfg.master_seed = args.seed
    if args.out:
        cfg.output_dir = args.out
    if args.workers is not None:
        cfg.workers = args.workers
    if args.formats:
        cfg.formats = tuple(t.strip() for t in args.formats.split(","))
    return cfg


def _cmd_geometry(args) -> int:
    d = args.d
    m = args.m or d
    psi = build_dictionary(args.dict_kind, d, seed=args.seed)
    phi = build_sensing(args.sensing, m, d, seed=args.seed)
    a = compose(phi, psi, normalize=args.normalize)
    stream = RandomStream(args.seed, 1)
    report = geometry_report(a, args.r, mode=args.mode, trials=args.trials, stream=stream)
    row = {
        "r": report.r,
        "gamma_exact": report.gamma_exact if report.gamma_exact is not None else "",
        "gamma_upper": report.gamma_upper,
        "gamma_lower": report.gamma_lower,
        "injective": report.injective_on_r_sparse,
        "supports_examined": report.supports_examined,
        "method": report.method,
    }
    print(f"| {' | '.join(row)} |")
    print(f"|{'---|' * len(row)}")
    print(f"| {' | '.join(str(v) for v in row.values())} |")
    if args.out:
        write_records_csv(args.out, [row])
    return 0


def _load_recover_inputs(args):
    if args.instance:
        basis = load_matrix(os.path.join(args.instance, "basis.csv"))
        alpha = load_vector(os.path.join(args.instance, "alpha.csv"))
        d = basis.shape[0]
        from .dictionaries import Dictionary

        psi = Dictionary(psi=basis, kind="loaded", d=d, n=basis.shape[1])
        inst = PlantedInstance(truth_basis=psi, alpha_star=alpha,
                               x=basis @ alpha, k=int(np.sum(alpha != 0)))
        validate_instance(inst)
        a = EffectiveSensing(basis, False)
        return a, basis @ alpha, basis, inst
    if not (args.matrix and args.y):
        raise EtrLabError("recover needs --matrix and --y, or --instance")
    a = EffectiveSensing(load_matrix(args.matrix), False)
    return a, load_vector(args.y), None, None


def _cmd_recover(args) -> int:
    solver = _SOLVER_ALIAS.get(args.solver, args.solver)
    a, y, psi, inst = _load_recover_inputs(args)
    cfg = SolverConfig(solver=solver, epsilon=args.epsilon,
                       max_sparsity=args.max_sparsity)
    res = solve(solver, a, y, cfg, psi=psi, truth=inst)
    row = {
        "solver": solver,
        "support": " ".join(str(i) for i in res.support),
        "residual": res.residual_norm,
        "l1_norm": float(np.sum(np.abs(res.alpha_hat))),
        "converged": res.converged,
        "mult": res.cost.multiplies,
        "add": res.cost.additions,
        "cmp": res.cost.comparisons,
        "total_ops": res.cost.total,
        "stability_ratio": res.stability_ratio if res.stability_ratio is not None else "",
    }
    for key, value in row.items():
        print(f"{key}: {value}")
    if args.out:
        write_records_csv(args.out, [row])
    return 0


def _cmd_functional(args) -> int:
    report = build_uncertainty_report(args.k, args.k_psi, args.gamma, args.cost)
    print(f"u_value: {report.u_value:.12g}")
    print(f"lower_bound: {report.lower_bound:.12g}")
    print(f"regime: {report.regime}")
    if report.u_value != float("inf"):
        assert report.u_value >= nonvanishing_bound(args.k_psi, args.gamma) - 1e-12
    return 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "geometry":
            return _cmd_geometry(args)
        if args.command == "recover":
            return _cmd_recover(args)
        if args.command == "functional":
            return _cmd_functional(args)
        cfg = _experiment_config(args, args.command)
        bundle = run_experiment(cfg)
        print(f"records: {bundle.records_csv}")
        print(f"summary: {bundle.summary_md}")
        for fig in bundle.figures:
            print(f"figure: {fig}")
        return 0
    except SuiteFailure as exc:
        print(f"suite violation: {exc}", file=sys.stderr)
        for v in exc.violations[:20]:
            print(f"  {v}", file=sys.stderr)
        return 2
    except EtrLabError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
