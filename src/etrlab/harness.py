"""Config-driven Monte-Carlo experiments and report rendering.

Every trial draws from a path of splits under `RandomStream(master_seed)`,
in which each split index at a level serves one role, so no two trials
share a stream whatever the sweep lengths and trial counts:

- phase: trial t at budget index ci is `split(ci).split(t)`;
- mismatch: census trial t is `split(0).split(t)`, recovery trial t is
  `split(1).split(t)`;
- regime map: cell (mi, ki) is `split(mi).split(ki)`, which draws its
  sensing from `split(0)`, sampled gamma from `split(1)` and trial t from
  `split(2).split(t)`;
- uncertainty principle: trial t at dimension index di is
  `split(di).split(t)`;
- perturbation: trial t is `split(t)`, which draws its sensing from
  `split(0)` and its two plants from `split(1)` and `split(2)`; their
  bases come from uint64 array passes, a block of trials at a time
  (`perturbation_bases`).

Trials run one after another in a fixed order, so reruns of a config are
bit-identical on one host and numpy build. Each run writes
`<name>_records.csv`, `<name>_summary.md` and `<name>_config.cfg`, the
config it ran, which the summary's reproduce line passes back to
`etr-lab`; phase and regime-map runs also draw one SVG figure.
"""

from __future__ import annotations

import os
import shlex
from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from . import svgplot
from .config import EXPERIMENT_COMMANDS, ExperimentConfig, dump_config
from .dictionaries import EffectiveSensing, build_dictionary, build_sensing, compose, mutual_coherence
from .errors import IoFailure, SuiteFailure
from .etr import BatteryStats, classify_regime, inflation_ratio, sample_threshold
from .geometry import gamma_exact, geometry_report, perturbation_check
from .numerics import TOL, detected_support, vector_norm
from .rng import RandomStream, split_indices, stream_bases
from .solvers import SOLVER_NAMES, SolverConfig, run_battery, solve
from .sparsity import effective_sparsity, plant, observe, representation_complexity

SUCCESS_REL_ERROR = 1e-4
# perturbation trials whose bases are computed at once. Every array of a block stays
# under glibc's 128 KiB mmap threshold, so blocks reuse heap memory: the benchmark's
# perturbation peak_rss_mb read 46.3-46.6 MB with one (10^4, 7) pass, 45.7 MB in blocks
BASES_BLOCK = 1024


@dataclass(frozen=True)
class ReportBundle:
    records_csv: str
    summary_md: str
    figures: tuple = ()


def recovery_success(alpha_hat: np.ndarray, alpha_star: np.ndarray) -> tuple[bool, bool, float]:
    """(success, support_match, rel_error); success needs both conditions."""
    star_norm = vector_norm(alpha_star)
    rel = vector_norm(alpha_hat - alpha_star) / max(star_norm, 1e-300)
    truth_supp = set(detected_support(alpha_star))
    hat_supp = set(detected_support(alpha_hat))
    match = hat_supp == truth_supp
    return match and rel <= SUCCESS_REL_ERROR, match, rel


def isotonic_fit(values: list[float]) -> list[float]:
    """Pool-adjacent-violators: closest non-decreasing sequence (L2)."""
    out: list[tuple[float, float]] = []
    for v in values:
        out.append((float(v), 1.0))
        while len(out) > 1 and out[-2][0] > out[-1][0]:
            (l1, w1), (l2, w2) = out[-2], out[-1]
            out[-2:] = [((l1 * w1 + l2 * w2) / (w1 + w2), w1 + w2)]
    fitted = []
    for lv, w in out:
        fitted.extend([lv] * int(round(w)))
    return fitted


def _fmt_value(v) -> str:
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def write_records_csv(path, records: list[dict]) -> None:
    """One header line, the first record's keys, and one line per record; values are
    not quoted, so a value holding a comma or a newline, or a record whose keys
    differ from the header's, is rejected before anything is written."""
    if not records:
        raise IoFailure("no records to write")
    keys = records[0].keys()
    columns = list(keys)
    separators = len(columns) - 1
    lines = [",".join(columns)]
    for index, rec in enumerate(records):
        if rec.keys() != keys:
            raise IoFailure(f"record {index}: keys {sorted(rec.keys() - keys)} are not in the "
                            f"header, header keys {sorted(keys - rec.keys())} are missing")
        line = ",".join([_fmt_value(rec[c]) for c in columns])
        # a line with an extra comma or a newline has a value holding one
        if line.count(",") > separators or "\n" in line:
            for column in columns:
                value = _fmt_value(rec[column])
                if "," in value or "\n" in value:
                    raise IoFailure(f"column {column!r}: value {value!r} holds a comma or a newline")
        lines.append(line)
    try:
        with open(path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def render_report(records: list[dict], cfg: ExperimentConfig, name: str,
                  summary_lines: list[str], figures: tuple = ()) -> ReportBundle:
    """Write records.csv, config.cfg and summary.md (+ figures already on disk)."""
    out = cfg.output_dir
    os.makedirs(out, exist_ok=True)
    csv_path = os.path.join(out, f"{name}_records.csv")
    cfg_path = os.path.join(out, f"{name}_config.cfg")
    md_path = os.path.join(out, f"{name}_summary.md")
    write_records_csv(csv_path, records)
    lines = [
        f"# {name} report",
        "",
        f"- experiment: {cfg.experiment}",
        f"- master_seed: {cfg.master_seed}",
        f"- logarithms: natural (base e) throughout",
        f"- reproduce: `etr-lab {EXPERIMENT_COMMANDS[cfg.experiment]} "
        f"--config {shlex.quote(cfg_path)}`",
        "",
    ]
    lines.extend(summary_lines)
    try:
        with open(cfg_path, "w") as fh:
            fh.write(dump_config(cfg))
        with open(md_path, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc
    return ReportBundle(records_csv=csv_path, summary_md=md_path, figures=figures)


def _solver_config(cfg: ExperimentConfig, k: int) -> SolverConfig:
    """One config for every solver: l0 and OMP read epsilon and max_sparsity
    (k >= 1), and basis pursuit reads epsilon and its path-step cap."""
    return SolverConfig(epsilon=cfg.epsilon, max_sparsity=k, max_iterations=cfg.max_iterations)


# ---------------------------------------------------------------------------
# phase transition


def run_phase_transition(cfg: ExperimentConfig) -> ReportBundle:
    psi = build_dictionary(cfg.basis, cfg.d, seed=cfg.master_seed)
    base = RandomStream(cfg.master_seed)
    scfg = _solver_config(cfg, cfg.k)

    def one_trial(ci, m, t):
        stream = base.split(ci).split(t)
        phi = build_sensing(cfg.sensing, m, cfg.d, seed=stream.split(0).as_seed())
        inst = plant(psi, cfg.k, stream.split(1).split_bases(3))
        y = observe(inst.x, phi, cfg.epsilon, stream.split(2))
        a = compose(phi, psi)
        rows = []
        for entry in run_battery(a, y, scfg, cfg.solvers):
            row = {"experiment": "phase", "m": m, "k": cfg.k, "n": cfg.n,
                   "solver": entry.solver, "trial": t}
            res = entry.result
            if res is None:
                row.update(success=False, support_match=False, rel_error=float("inf"),
                           cost_total=0, converged=False, error=entry.error.replace(",", ";"))
            else:
                ok, match, rel = recovery_success(res.alpha_hat, inst.alpha_star)
                row.update(success=ok, support_match=match, rel_error=rel,
                           cost_total=res.cost.total, converged=res.converged, error="")
            rows.append(row)
        return rows

    records = [row for ci, m in enumerate(cfg.m_sweep) for t in range(cfg.trials_per_cell)
               for row in one_trial(ci, m, t)]

    threshold = sample_threshold(cfg.k, cfg.n, cfg.thresholds.sample_c0)
    lines = [f"budget threshold m* = ceil(c0 * k * (ln(n/k)+1)) = {threshold}", ""]
    lines.append("| m | solver | success rate |")
    lines.append("|---|--------|--------------|")
    series: dict = {}
    for solver in cfg.solvers:
        rates = []
        for m in cfg.m_sweep:
            cell = [r for r in records if r["solver"] == solver and r["m"] == m]
            rate = sum(r["success"] for r in cell) / len(cell)
            rates.append(rate)
            lines.append(f"| {m} | {solver} | {rate:.3f} |")
        series[solver] = list(zip(cfg.m_sweep, rates))
        smooth = isotonic_fit(rates)
        crossing = next((m for m, r in zip(cfg.m_sweep, smooth) if r >= 0.5), None)
        lines.append("")
        lines.append(f"isotonic 50% crossing for {solver}: m = {crossing}")
        lines.append("")
    fig = os.path.join(cfg.output_dir, "phase_success.svg")
    os.makedirs(cfg.output_dir, exist_ok=True)
    svgplot.line_plot(fig, series, "m", "success rate", "recovery success vs measurements")
    return render_report(records, cfg, "phase", lines, (fig,))


# ---------------------------------------------------------------------------
# representation mismatch


def run_mismatch(cfg: ExperimentConfig) -> ReportBundle:
    d, k, m = cfg.d, cfg.k, cfg.m
    identity = build_dictionary("identity", d)
    base = RandomStream(cfg.master_seed)
    scfg = _solver_config(cfg, k)

    def draw(stream):
        # psi* from split(0) and the instance from split(1); recovery goes on at split(2)
        psi_star = build_dictionary("random-orthonormal", d, seed=stream.split(0).as_seed())
        inst = plant(psi_star, k, stream.split(1).split_bases(3))
        return psi_star, inst, effective_sparsity(inst.x, identity)

    def census_trial(t):
        _, _, keff = draw(base.split(0).split(t))
        return {
            "experiment": "mismatch", "phase": "census", "arm": "-", "m": 0,
            "k": k, "d": d, "trial": t, "k_eff": keff,
            "success": False, "rel_error": 0.0,
        }

    def recovery_trial(t):
        stream = base.split(1).split(t)
        psi_star, inst, keff = draw(stream)
        phi = build_sensing(cfg.sensing, m, d, seed=stream.split(2).as_seed())
        y = observe(inst.x, phi, cfg.epsilon, stream.split(3))
        matched = solve("basis-pursuit", compose(phi, psi_star), y, scfg)
        mism = solve("basis-pursuit", EffectiveSensing(phi), y, scfg)
        rows = []
        for arm, res, target in (("matched", matched, inst.alpha_star), ("mismatched", mism, inst.x)):
            ok, _, rel = recovery_success(res.alpha_hat, target)
            rows.append({"experiment": "mismatch", "phase": "recovery", "arm": arm,
                         "m": m, "k": k, "d": d, "trial": t, "k_eff": keff,
                         "success": ok, "rel_error": rel})
        return rows

    records = [census_trial(t) for t in range(cfg.trials_per_cell)]
    records += [row for t in range(cfg.recovery_trials) for row in recovery_trial(t)]

    census = [r for r in records if r["phase"] == "census"]
    dense = sum(1 for r in census if r["k_eff"] == d) / len(census)
    matched = [r for r in records if r["arm"] == "matched"]
    mismatched = [r for r in records if r["arm"] == "mismatched"]
    rate_m = sum(r["success"] for r in matched) / len(matched)
    rate_x = sum(r["success"] for r in mismatched) / len(mismatched)
    keff_mode = max(set(r["k_eff"] for r in census), key=[r["k_eff"] for r in census].count)
    predicted = inflation_ratio(k, keff_mode, d)
    lines = [
        f"k_eff = d in {dense:.4f} of {len(census)} census trials (tau = {TOL.zero_tau})",
        f"matched-representation success at m = {m}: {rate_m:.3f}",
        f"mismatched-representation success at m = {m}: {rate_x:.3f}",
        f"modal k_eff = {keff_mode}; predicted measurement inflation "
        f"= {predicted:.6f} (regularized k_eff(ln(d/k_eff)+1) / k(ln(d/k)+1))",
        f"reference budgets: matched m* = {sample_threshold(k, d)}, "
        f"mismatched m* = {sample_threshold(keff_mode, d)}",
    ]
    return render_report(records, cfg, "mismatch", lines)


# ---------------------------------------------------------------------------
# verification suites


def _subgroup_indicator(d: int) -> np.ndarray:
    # indicator of the bit-prefix subgroup {0 .. 2^s - 1} with s = ceil(log2(d)/2)
    bits = d.bit_length() - 1
    size = 1 << ((bits + 1) // 2)
    x = np.zeros(d)
    x[:size] = 1.0
    return x


def run_uncertainty_suite(cfg: ExperimentConfig) -> ReportBundle:
    base = RandomStream(cfg.master_seed)
    records, violations, lines = [], [], []
    for di, d in enumerate(cfg.d_sweep):
        ident = build_dictionary("identity", d)
        hada = build_dictionary("hadamard", d)
        mu = mutual_coherence(ident, hada)
        floor = 1.0 / mu ** 2
        slacks = []
        for t in range(cfg.trials_per_cell):
            x = base.split(di).split(t).gaussians(d)
            k1 = representation_complexity(x, ident).k_psi
            k2 = representation_complexity(x, hada).k_psi
            product = k1 * k2
            violated = product < floor - TOL.bound_slack
            records.append({
                "experiment": "uncertainty-principle", "d": d, "trial": t,
                "case": "random", "k1": k1, "k2": k2, "product": product,
                "floor": floor, "violation": violated,
            })
            slacks.append(product - floor)
            if violated:
                violations.append(
                    f"d={d} trial={t} seed={cfg.master_seed}: {product} < {floor}"
                )
        x = _subgroup_indicator(d)
        k1 = representation_complexity(x, ident).k_psi
        k2 = representation_complexity(x, hada).k_psi
        records.append({
            "experiment": "uncertainty-principle", "d": d, "trial": -1,
            "case": "subgroup-extremal", "k1": k1, "k2": k2,
            "product": k1 * k2, "floor": floor,
            "violation": k1 * k2 != round(floor),
        })
        if k1 * k2 != round(floor):
            violations.append(f"d={d} subgroup extremal: product {k1 * k2} != {round(floor)}")
        lines.append(
            f"d = {d}: mu = {mu:.6f}, floor = {floor:.1f}, violations = "
            f"{sum(1 for r in records if r['d'] == d and r['violation'])}, "
            f"min slack = {min(slacks):.3f}, extremal product = {k1 * k2}"
        )
    lines.append(f"total violations: {len(violations)} (must be 0)")
    bundle = render_report(records, cfg, "uncertainty_principle", lines)
    if violations:
        raise SuiteFailure(violations)
    return bundle


def perturbation_bases(master_seed: int, trials: int) -> Iterator[np.ndarray]:
    """For t in range(trials), a uint64 row of 7 bases: for stream =
    RandomStream(master_seed).split(t), stream.split(0).as_seed(), the sensing seed,
    then stream.split(1).split_bases(3) and stream.split(2).split_bases(3), the bases
    of the two plants. Rows are computed BASES_BLOCK trials at a time on uint64 arrays,
    which cut perturbation run_s by 11 % against per-trial Python ints."""
    roles = np.arange(3, dtype=np.uint64)
    for first in range(0, trials, BASES_BLOCK):
        block = np.arange(first, min(first + BASES_BLOCK, trials), dtype=np.uint64)
        children = split_indices(split_indices(0, block)[:, None], roles)
        plants = split_indices(children[:, 1:, None], roles).reshape(len(block), 6)
        yield from stream_bases(master_seed, np.concatenate([children[:, :1], plants], axis=1))


def run_perturbation_suite(cfg: ExperimentConfig) -> ReportBundle:
    d, n, k = cfg.d, cfg.n, cfg.k
    psi = build_dictionary("identity", n)
    violations, slacks = [], []

    def one(t, words):
        a = EffectiveSensing(build_sensing(cfg.sensing, d, n, seed=words[0]))
        g = gamma_exact(a, min(2 * k, n))
        row = {"experiment": "perturbation", "trial": t, "m": d, "n": n, "k": k,
               "gamma_2k": g, "holds": True, "slack": 0.0, "degenerate": False}
        if g <= TOL.gamma_zero:
            row["degenerate"] = True
            return row
        z1 = plant(psi, k, words[1:4]).alpha_star
        z2 = plant(psi, k, words[4:]).alpha_star
        holds, slack = perturbation_check(a, z1, z2, g)
        row["holds"], row["slack"] = holds, slack
        return row

    records = [one(t, row.tolist())
               for t, row in enumerate(perturbation_bases(cfg.master_seed, cfg.trials_per_cell))]
    for row in records:
        if not row["degenerate"]:
            slacks.append(row["slack"])
            if not row["holds"]:
                violations.append(
                    f"trial={row['trial']} seed={cfg.master_seed}: slack {row['slack']}"
                )
    lines = [
        f"instances: {len(records)} ({sum(r['degenerate'] for r in records)} degenerate skipped)",
        f"violations: {len(violations)} (must be 0)",
        f"slack range: [{min(slacks):.6g}, {max(slacks):.6g}]" if slacks else "no valid slacks",
    ]
    bundle = render_report(records, cfg, "perturbation", lines)
    if violations:
        raise SuiteFailure(violations)
    return bundle


# ---------------------------------------------------------------------------
# regime map


REGIME_COLORS = {
    "non-unique": "#e6194b",
    "opaque": "#f58231",
    "indeterminate": "#cccccc",
    "stable": "#3cb44b",
}


def run_regime_map(cfg: ExperimentConfig) -> ReportBundle:
    psi = build_dictionary(cfg.basis, cfg.d, seed=cfg.master_seed)
    base = RandomStream(cfg.master_seed)

    def one_cell(mi, ki, m, k):
        cell = base.split(mi).split(ki)
        phi = build_sensing(cfg.sensing, m, cfg.d, seed=cell.split(0).as_seed())
        a = compose(phi, psi)
        geom = geometry_report(a, min(2 * k, cfg.n), cell.split(1))
        scfg = _solver_config(cfg, k)
        successes = {name: 0 for name in SOLVER_NAMES}
        for t in range(cfg.trials_per_cell):
            ts = cell.split(2).split(t)
            inst = plant(psi, k, ts.split(0).split_bases(3))
            y = observe(inst.x, phi, cfg.epsilon, ts.split(1))
            for entry in run_battery(a, y, scfg):
                if entry.result is None:
                    continue
                ok, _, _ = recovery_success(entry.result.alpha_hat, inst.alpha_star)
                successes[entry.solver] += ok
        stats = BatteryStats(
            trials=cfg.trials_per_cell,
            success_rate={s: successes[s] / cfg.trials_per_cell for s in successes},
        )
        label = classify_regime(geom, m, cfg.n, k, stats, cfg.thresholds)
        return {
            "experiment": "regime-map", "m": m, "k": k, "d": cfg.d, "n": cfg.n,
            "gamma_2k": geom.gamma_exact if geom.gamma_exact is not None else geom.gamma_upper,
            "gamma_method": geom.method,
            "l0_rate": stats.success_rate["l0-exhaustive"],
            "omp_rate": stats.success_rate["omp"],
            "bp_rate": stats.success_rate["basis-pursuit"],
            "regime": label.label, "evidence": label.evidence.replace(",", ";"),
        }

    records = [one_cell(mi, ki, m, k)
               for mi, m in enumerate(cfg.m_sweep) for ki, k in enumerate(cfg.k_sweep)]

    lines = ["| m \\ k | " + " | ".join(str(k) for k in cfg.k_sweep) + " |",
             "|---" * (len(cfg.k_sweep) + 1) + "|"]
    for m in cfg.m_sweep:
        row = [next(r["regime"] for r in records if r["m"] == m and r["k"] == k)
               for k in cfg.k_sweep]
        lines.append(f"| {m} | " + " | ".join(row) + " |")
    lines.append("")
    lines.append("classifier thresholds: " + repr(cfg.thresholds))
    os.makedirs(cfg.output_dir, exist_ok=True)
    fig = os.path.join(cfg.output_dir, "regime_map.svg")
    grid = {(r["k"], r["m"]): r["regime"] for r in records}
    svgplot.heat_map(fig, grid, list(cfg.k_sweep), list(cfg.m_sweep), "k", "m",
                     "discovery regimes", colors=REGIME_COLORS)
    return render_report(records, cfg, "regime_map", lines, (fig,))


RUNNERS = {
    "phase": run_phase_transition,
    "mismatch": run_mismatch,
    "uncertainty-principle": run_uncertainty_suite,
    "perturbation": run_perturbation_suite,
    "regime-map": run_regime_map,
}


def run_experiment(cfg: ExperimentConfig) -> ReportBundle:
    return RUNNERS[cfg.experiment](cfg)
