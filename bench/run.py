#!/usr/bin/env python3
"""etrlab benchmark: one workload end to end, or traced layer by layer.

    python3 bench/run.py --workload phase --seed 1 --seconds 24 --trace 0

Run from a checkout of the repository; the lab is imported from the
checkout's own `src/`. With `--trace 0` the workload's set-up is timed in
fresh processes and `run_experiment` is repeated, untraced, for about
`--seconds`; the end-to-end metrics are printed. Run times are scaled to
a fixed host speed, sampled around and during each timing (`hostspeed.py`);
set-up time is taken relative to a numpy-only interpreter. The raw wall
times are printed beside them. With `--trace 1` the same
untraced repetitions are followed by one traced repetition and the
per-layer metrics are printed. Every repetition's records are checked.
Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics, where
attempted and failed count repetitions of the experiment.

Everything runs in this single process with `workers = 1` and BLAS
pinned to one thread; outputs go to `.bench_out/<workload>/`.
"""

from __future__ import annotations

import os

# Pinned before numpy is first imported, here and in the set-up probes.
BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(BLAS_PIN)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from math import comb  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SETUP_PAIRS = 11
# a fresh interpreter importing numpy, on the benchmark's 2-CPU host
REFERENCE_S = 0.15
SOLVER_LAYERS = {"basis-pursuit": ("solvers.bp", "solve_bp"),
                 "l0-exhaustive": ("solvers.l0", "solve_l0"),
                 "omp": ("solvers.omp", "solve_omp")}


@dataclass
class Rep:
    """One timed `run_experiment` call and what its output checks found."""

    seconds: float                                # scaled to the nominal host speed
    trials: int                                   # records the run should write
    wall: float = 0.0
    slowdown: float = 1.0                         # host's slowdown against nominal
    digest: str = ""
    errors: Counter = field(default_factory=Counter)  # error -> records carrying it
    problems: list = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.problems)

    @property
    def failed_trials(self) -> int:
        # a run that raised or failed its checks loses all of its trials
        return self.trials if self.failed else sum(self.errors.values())


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def run_rep(cfg, run_experiment, clock=None) -> tuple[Rep, list[dict]]:
    """Time one run and check its output: (rep, records).

    With a `HostClock` the time is also scaled to the nominal host speed;
    without one (the traced run) `seconds` is the wall time.
    """
    from workloads import check_records, expected_records, read_records
    rep = Rep(seconds=0.0, trials=expected_records(cfg))
    t0 = time.perf_counter()
    try:
        if clock is None:
            bundle = run_experiment(cfg)
            rep.wall = rep.seconds = time.perf_counter() - t0
        else:
            bundle, rep.wall, rep.seconds, rep.slowdown = clock.timed(run_experiment, cfg)
    except Exception as exc:  # a failed run is reported, not fatal
        rep.wall = rep.seconds = time.perf_counter() - t0
        traceback.print_exc(file=sys.stderr)
        rep.problems.append(f"run raised {type(exc).__name__}: {str(exc)[:200]}")
        return rep, []
    with open(bundle.records_csv, "rb") as fh:
        rep.digest = hashlib.sha256(fh.read()).hexdigest()
    records = read_records(bundle.records_csv)
    rep.errors.update(rec["error"] for rec in records if rec.get("error"))
    rep.problems.extend(check_records(cfg, records))
    return rep, records


def measure(cfg, seconds: float, run_experiment) -> list[Rep]:
    """Repeat while the next repetition is expected to end within `seconds`.

    Records are dropped after their checks, so peak memory is one run's.
    """
    from hostspeed import HostClock, reference_slice
    clock = HostClock()
    for _ in range(5):  # warm-up: the first slices after the set-up probes run slow
        reference_slice()
    reps = []
    start = time.perf_counter()
    while True:
        reps.append(run_rep(cfg, run_experiment, clock)[0])
        if reps[-1].failed:
            break
        elapsed = time.perf_counter() - start
        if elapsed + statistics.median(r.wall for r in reps) > seconds:
            break
    return reps


def probe_setup(*args: str) -> float:
    """Seconds from spawning a fresh interpreter on `setup_probe.py` until
    it prints `ready`."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), *args]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
        code = proc.wait(timeout=60)
    if code != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe {args[0]} failed with exit code {code}")
    return elapsed


def measure_setup(workload: str, seed: int, out_dir: Path) -> tuple[float, list, list]:
    """Set-up time in nominal seconds: (setup_s, lab walls, reference walls).

    Each lab probe is paired with a reference probe that only imports numpy,
    in alternating order. setup_s is the median ratio of the pairs times
    REFERENCE_S, so it moves with the lab's own set-up, not with the host.
    """
    lab_args = (workload, str(seed), str(out_dir))
    lab, ref = [], []
    for i in range(SETUP_PAIRS):
        if i % 2:
            ref.append(probe_setup("reference"))
            lab.append(probe_setup(*lab_args))
        else:
            lab.append(probe_setup(*lab_args))
            ref.append(probe_setup("reference"))
    ratio = statistics.median(a / b for a, b in zip(lab, ref))
    return REFERENCE_S * ratio, lab, ref


def machine_record() -> dict:
    import numpy as np
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_desc = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_desc = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_desc,
        "blas_threads": BLAS_PIN,
        "workers": 1,
        "not_measured": "cache sizes, memory bandwidth; thread scaling is not benchmarked",
    }


def digest_line(reps: list[Rep]) -> str:
    digests = [r.digest for r in reps if r.digest]
    if not digests:
        return "records digest: none (no run finished)"
    if len(set(digests)) == 1:
        return f"records digest: sha256 {digests[0]} (identical across {len(digests)} runs)"
    return f"records digest CHANGED between runs: {digests}"


def end_to_end(args, cfg, out_dir: Path) -> dict:
    from etrlab.harness import run_experiment
    setup_s, lab, ref = measure_setup(args.workload, args.seed, out_dir)
    reps = measure(cfg, args.seconds, run_experiment)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    trials = sum(r.trials for r in reps)
    failed = sum(r.failed_trials for r in reps)
    errors = sum((r.errors for r in reps), Counter())
    times = [r.seconds for r in reps]
    print(f"setup_s      {setup_s:.4f} s   {REFERENCE_S} s x median ratio of {len(lab)} "
          f"fresh lab / numpy-only interpreters; wall medians "
          f"{statistics.median(lab):.4f} / {statistics.median(ref):.4f} s")
    print(f"run_s        {statistics.median(times):.4f} s   median of {len(times)} runs "
          f"{[round(t, 3) for t in times]}; wall {[round(r.wall, 3) for r in reps]}, "
          f"host slowdown {[round(r.slowdown, 3) for r in reps]}")
    print(f"peak_rss_mb  {peak_mb:.1f} MB")
    print(f"failed_share {failed / trials:.4f}   {failed} of {trials} trials carry an error "
          f"{dict(errors)}; completed_share = 1 - failed_share")
    print(digest_line(reps))
    return {
        "reps": reps,
        "metrics": {
            "setup_s": (setup_s, "s"),
            "run_s": (statistics.median(times), "s"),
            "peak_rss_mb": (peak_mb, "MB"),
            "completed_share": (1.0 - failed / trials, "share"),
        },
    }


def cross_check(cfg, records: list[dict], calls: dict, tracer) -> list[str]:
    """Span counts against counts derived from the config and the records."""
    n_rec = len(records)
    expect = {"harness:run_experiment": 1, "harness:render_report": 1}
    per_trial = {name: 0 for name in SOLVER_LAYERS}
    if cfg.experiment == "phase":
        trials = n_rec // len(cfg.solvers)
        per_trial.update({s: sum(rec["solver"] == s for rec in records) for s in cfg.solvers})
        expect.update({"sparsity:plant": trials, "dictionaries:build_sensing": trials})
    elif cfg.experiment == "perturbation":
        r = min(2 * cfg.k, cfg.n)
        valid = sum(rec["degenerate"] == "0" for rec in records)
        expect.update({"geometry:gamma_exact": n_rec, "dictionaries:build_sensing": n_rec,
                       "numerics:smallest_singular_value": n_rec * comb(cfg.n, r),
                       "sparsity:plant": 2 * valid})
    elif cfg.experiment == "regime-map":
        trials = n_rec * cfg.trials_per_cell
        per_trial = {name: trials for name in SOLVER_LAYERS}
        expect.update({
            "geometry:geometry_report": n_rec, "geometry:gamma_exact": n_rec,
            "etr:classify_regime": n_rec, "solvers.battery:run_battery": trials,
            "sparsity:plant": trials, "dictionaries:build_sensing": n_rec,
            "numerics:smallest_singular_value": sum(
                comb(cfg.n, min(2 * int(rec["k"]), cfg.n)) for rec in records),
        })
    for solver, count in per_trial.items():
        layer, fn = SOLVER_LAYERS[solver]
        expect[f"{layer}:{fn}"] = count
    problems = [f"{key}: {calls.get(key, 0)} spans, expected {want}"
                for key, want in expect.items() if calls.get(key, 0) != want]
    solver_raised = sum(tracer.raised[layer] for layer, _ in SOLVER_LAYERS.values())
    if cfg.experiment == "regime-map" and tracer.battery_errors != solver_raised:
        problems.append(f"{tracer.battery_errors} battery errors, {solver_raised} raised solves")
    return problems


def traced_rep(workload: str, seed: int, out_dir: Path, **shrink):
    """One traced repetition, span counts cross-checked: (rep, tracer)."""
    from etrlab import harness
    from tracing import Tracer
    from workloads import build_config
    tracer = Tracer()
    with tracer.installed():
        cfg = tracer.traced("config", build_config)(ROOT, workload, seed, str(out_dir),
                                                    **shrink)
        rep, records = run_rep(cfg, tracer.traced("harness", harness.run_experiment))
    if not rep.failed:
        rep.problems.extend(cross_check(cfg, records, tracer.function_calls(), tracer))
    return rep, tracer


def layer_metrics(tracer, traced_s: float, untraced_s: float) -> dict:
    """The per-layer metrics of one traced repetition, as (value, unit)."""
    lm = tracer.layer_metrics()
    counts = tracer.counts
    total_ms = lambda layer, fn=None: float(tracer.durations_ms(layer, fn).sum())  # noqa: E731
    per = lambda num, den: num / den if den else 0.0  # noqa: E731
    bp_ms = tracer.durations_ms("solvers.bp")
    bp_calls = lm["solvers.bp.calls"]
    solves = sum(lm[f"{layer}.calls"] for layer, _ in SOLVER_LAYERS.values())
    raised = sum(tracer.raised[layer] for layer, _ in SOLVER_LAYERS.values())
    return {
        "rng.calls": (lm["rng.calls"], "count"),
        "rng.self_s": (lm["rng.self_s"], "s"),
        "dictionaries.calls": (lm["dictionaries.calls"], "count"),
        "dictionaries.self_s": (lm["dictionaries.self_s"], "s"),
        "sparsity.calls": (lm["sparsity.calls"], "count"),
        "sparsity.self_s": (lm["sparsity.self_s"], "s"),
        "geometry.calls": (lm["geometry.calls"], "count"),
        "geometry.self_s": (lm["geometry.self_s"], "s"),
        "geometry.supports": (counts["geometry.supports"], "count"),
        "geometry.us_per_support": (
            per(1e3 * total_ms("geometry", "gamma_exact"), counts["geometry.supports"]), "us"),
        "numerics.svd_calls": (lm["numerics.calls"], "count"),
        "numerics.self_s": (lm["numerics.self_s"], "s"),
        "solvers.bp.calls": (bp_calls, "count"),
        "solvers.bp.self_s": (lm["solvers.bp.self_s"], "s"),
        "solvers.bp.p50_ms": (float(statistics.median(bp_ms)) if bp_calls else 0.0, "ms"),
        "solvers.bp.p99_ms": (float(statistics.quantiles(bp_ms, n=100)[-1])
                              if bp_calls > 1 else 0.0, "ms"),
        "solvers.bp.iterations": (counts["solvers.bp.iterations"], "count"),
        "solvers.bp.us_per_iteration": (
            per(1e3 * total_ms("solvers.bp"), counts["solvers.bp.iterations"]), "us"),
        "solvers.bp.capped_share": (per(tracer.bp_capped, bp_calls), "share"),
        "solvers.bp.cost_ops": (counts["solvers.bp.cost_ops"], "count"),
        "solvers.l0.calls": (lm["solvers.l0.calls"], "count"),
        "solvers.l0.self_s": (lm["solvers.l0.self_s"], "s"),
        "solvers.l0.supports": (counts["solvers.l0.supports"], "count"),
        "solvers.l0.us_per_support": (
            per(1e3 * total_ms("solvers.l0"), counts["solvers.l0.supports"]), "us"),
        "solvers.l0.cost_ops": (counts["solvers.l0.cost_ops"], "count"),
        "solvers.omp.calls": (lm["solvers.omp.calls"], "count"),
        "solvers.omp.self_s": (lm["solvers.omp.self_s"], "s"),
        "solvers.omp.iterations": (counts["solvers.omp.iterations"], "count"),
        "solvers.omp.cost_ops": (counts["solvers.omp.cost_ops"], "count"),
        "solvers.battery.self_s": (lm["solvers.battery.self_s"], "s"),
        "solvers.error_share": (per(raised, solves), "share"),
        "etr.calls": (lm["etr.calls"], "count"),
        "etr.self_s": (lm["etr.self_s"], "s"),
        "harness.self_s": (lm["harness.self_s"], "s"),
        "harness.report_s": (1e-3 * total_ms("harness", "render_report"), "s"),
        "svgplot.self_s": (lm["svgplot.self_s"], "s"),
        "config.self_s": (lm["config.self_s"], "s"),
        "trace.overhead_s": (traced_s - untraced_s, "s"),
    }


def layered(args, cfg, out_dir: Path) -> dict:
    from etrlab import harness
    from tracing import LAYERS
    untraced = measure(cfg, args.seconds, harness.run_experiment)
    untraced_s = statistics.median(r.wall for r in untraced)
    rep, tracer = traced_rep(args.workload, args.seed, out_dir)
    if rep.digest and untraced[0].digest and rep.digest != untraced[0].digest:
        rep.problems.append("tracing changed the records")
    reps = untraced + [rep]
    m = layer_metrics(tracer, rep.seconds, untraced_s)
    lm = tracer.layer_metrics()
    spans_path = out_dir / "spans.npz"
    tracer.save(spans_path)
    print(f"traced run {rep.seconds:.4f} s wall; untraced median "
          f"{untraced_s:.4f} s over {len(untraced)} runs; "
          f"{len(tracer.start)} spans written to {spans_path.relative_to(ROOT)}")
    print("self time by layer (share of the traced run):")
    for layer in sorted(LAYERS, key=lambda name: -lm[f"{name}.self_s"]):
        share = lm[f"{layer}.self_s"] / rep.seconds if rep.seconds else 0.0
        print(f"  {layer:16s} {lm[f'{layer}.self_s']:9.4f} s  {100 * share:5.1f} %  "
              f"calls {lm[f'{layer}.calls']}")
    print("deterministic counts: " + json.dumps(deterministic_counts(m), sort_keys=True))
    print(digest_line(reps))
    return {"reps": reps, "metrics": m}


def deterministic_counts(metrics: dict) -> dict:
    """The count metrics, which must repeat exactly for one seed."""
    return {k: v for k, (v, unit) in metrics.items() if unit == "count"}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "etrlab" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"bench: {ROOT} holds no etrlab checkout (src/etrlab and configs/)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import etrlab
    if Path(etrlab.__file__).resolve().parent != SRC / "etrlab":
        print(f"bench: imported etrlab from {etrlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS, build_config
    if args.workload not in WORKLOADS:
        print(f"bench: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    out_dir = ROOT / ".bench_out" / args.workload
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = build_config(ROOT, args.workload, args.seed, str(out_dir))
    print(f"workload {args.workload}, seed {args.seed}: {WORKLOADS[args.workload].why}")
    print("machine " + json.dumps(machine_record()))
    result = (layered if args.trace else end_to_end)(args, cfg, out_dir)
    reps = result["reps"]
    for i, rep in enumerate(reps):
        for problem in rep.problems:
            print(f"check failed (run {i}): {problem}")
    print(json.dumps({
        "correct": not any(r.failed for r in reps),
        "attempted": len(reps),
        "failed": sum(r.failed for r in reps),
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in result["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
