"""`etr-lab` command line: direct computations and config-driven experiments.

Exit codes: 0 success, 2 verification-suite violation, 1 any other error,
a usage error on the command line included.
"""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys

import numpy as np

from .config import EXPERIMENT_COMMANDS, ExperimentConfig, load_config
from .dictionaries import (
    DICTIONARY_KINDS,
    EffectiveSensing,
    SENSING_KINDS,
    build_dictionary,
    build_sensing,
    compose,
    normalize_columns,
)
from .errors import DimensionMismatch, EtrLabError, SuiteFailure
from .etr import build_uncertainty_report
from .geometry import geometry_report
from .harness import run_experiment, write_records_csv
from .numerics import TOL, load_matrix, load_vector
from .rng import RandomStream, check_seed
from .solvers import SOLVER_NAMES, SolverConfig, run_battery
from .sparsity import check_magnitudes


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="experiment config file")
    p.add_argument("--seed", type=int, help="override master seed")
    p.add_argument("--out", help="output directory")


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and its subparsers, whose usage errors exit 1, not 2."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="etr-lab", description="sparse-recovery difficulty laboratory")
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("geometry", help="distinguishability report for one matrix")
    g.add_argument("--dict", dest="dict_kind", default="identity", choices=DICTIONARY_KINDS)
    g.add_argument("--d", type=int, default=16)
    g.add_argument("--sensing", default="identity", choices=SENSING_KINDS)
    g.add_argument("--m", type=int, default=0, help="rows (default d)")
    g.add_argument("--seed", type=int, default=42)
    g.add_argument("--r", type=int, default=2)
    g.add_argument("--normalize", action="store_true", help="column-normalize A")
    g.add_argument("--out", help="write the report CSV here")

    r = sub.add_parser("recover", help="run one solver on (A, y) or a planted instance")
    r.add_argument("--solver", default="basis-pursuit",
                   choices=(*_SOLVER_ALIAS, *SOLVER_NAMES))
    r.add_argument("--epsilon", type=float, default=0.0)
    r.add_argument("--matrix", help="A in lab CSV format")
    r.add_argument("--y", help="observation vector in lab CSV format")
    r.add_argument("--instance", help="directory holding basis.csv and alpha.csv")
    r.add_argument("--max-sparsity", type=int, default=0)
    r.add_argument("--out", help="write the result CSV here")

    f = sub.add_parser("functional", help="evaluate the uncertainty functional")
    f.add_argument("--k-psi", type=int, required=True)
    f.add_argument("--gamma", type=float, required=True,
                   help="gamma_2k; give -inf or -nan after '=', as --gamma=-inf")
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
            p.add_argument("--suite", choices=("uncertainty-principle", "perturbation"),
                           help="default: the config's suite, else uncertainty-principle")
    return parser


_SOLVER_ALIAS = {"l0": "l0-exhaustive", "bp": "basis-pursuit"}


def _experiment_config(args, command: str) -> ExperimentConfig:
    suite = getattr(args, "suite", None)
    expected = [suite] if suite else [
        e for e, line in EXPERIMENT_COMMANDS.items() if line.split()[0] == command]
    if args.config:
        cfg = load_config(args.config)
        if cfg.experiment not in expected:
            given = f"{command} --suite {suite}" if suite else command
            raise EtrLabError(f"config experiment {cfg.experiment!r} does not match {given!r}")
    else:
        cfg = ExperimentConfig(experiment=expected[0])
    overrides = {}
    if args.seed is not None:
        overrides["master_seed"] = args.seed
    if args.out:
        overrides["output_dir"] = args.out
    return dataclasses.replace(cfg, **overrides)  # reruns the config's checks


def _cmd_geometry(args) -> int:
    check_seed(args.seed)
    d = args.d
    m = args.m or d
    psi = build_dictionary(args.dict_kind, d, seed=args.seed)
    phi = build_sensing(args.sensing, m, d, seed=args.seed)
    a = compose(phi, psi)
    if args.normalize:
        a = EffectiveSensing(normalize_columns(a.a))
    report = geometry_report(a, args.r, RandomStream(args.seed, 1))
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
    """(A, y, whether an instance bundle was loaded)."""
    if args.instance:
        basis = load_matrix(os.path.join(args.instance, "basis.csv"))
        alpha = load_vector(os.path.join(args.instance, "alpha.csv"))
        if basis.shape[1] != len(alpha):
            raise DimensionMismatch(f"basis.csv has {basis.shape[1]} columns, "
                                    f"alpha.csv {len(alpha)} entries")
        check_magnitudes(alpha)
        return EffectiveSensing(basis), basis @ alpha, True
    if not (args.matrix and args.y):
        raise EtrLabError("recover needs --matrix and --y, or --instance")
    mat, y = load_matrix(args.matrix), load_vector(args.y)
    if len(y) != mat.shape[0]:
        raise DimensionMismatch(f"--matrix has {mat.shape[0]} rows, --y {len(y)} entries")
    return EffectiveSensing(mat), y, False


def _cmd_recover(args) -> int:
    solver = _SOLVER_ALIAS.get(args.solver, args.solver)
    a, y, instance = _load_recover_inputs(args)
    cfg = SolverConfig(epsilon=args.epsilon, max_sparsity=args.max_sparsity)
    (entry,) = run_battery(a, y, cfg, (solver,))
    res = entry.result
    if res is None:  # the entry's error reads "{Type}: {message}", as main prints a lab error
        print(f"error: {entry.error}", file=sys.stderr)
        return 1
    # an instance is solved with A = Psi and y = x, so ||Psi alpha_hat - x|| is the residual
    ratio = res.residual_norm / args.epsilon if instance and args.epsilon > 0 else ""
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
        "stability_ratio": ratio,
    }
    for key, value in row.items():
        print(f"{key}: {value}")
    if args.out:
        write_records_csv(args.out, [row])
    return 0


def _cmd_functional(args) -> int:
    report = build_uncertainty_report(args.k_psi, args.gamma, args.cost)
    print(f"u_value: {report.u_value:.12g}")
    print(f"lower_bound: {report.lower_bound:.12g}")
    print(f"regime: {report.regime}")
    if report.u_value < report.lower_bound - TOL.functional_slack:
        raise EtrLabError(f"u_value {report.u_value!r} below its floor {report.lower_bound!r}")
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
