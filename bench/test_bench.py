"""Checks of the benchmark itself: deterministic counts, span cross-checks,
the colex rank behind the l0 support count, the host-speed scaling, the
set-up probes, and refusal outside a checkout."""

import shutil
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import run  # noqa: E402
from etrlab.geometry import colex_supports  # noqa: E402
from tracing import colex_rank  # noqa: E402

# regime workload cut to four cells; 20 trials is the classifier's minimum
SHRUNK_REGIME = {"k_sweep": (1, 2), "m_sweep": (4, 8)}


def test_counts_repeat_exactly_on_shrunk_regime(tmp_path):
    counts = []
    for i in range(2):
        rep, tracer = run.traced_rep("regime", 5, tmp_path / str(i), **SHRUNK_REGIME)
        assert rep.problems == []
        metrics = run.layer_metrics(tracer, rep.seconds, rep.seconds)
        counts.append(run.deterministic_counts(metrics))
    assert counts[0] == counts[1]
    assert counts[0]["solvers.bp.calls"] == counts[0]["solvers.l0.calls"] == 4 * 20
    assert counts[0]["geometry.supports"] == 2 * (120 + 1820)  # C(16, 2k) per cell
    for key in ("solvers.bp.iterations", "solvers.bp.cost_ops", "solvers.l0.supports",
                "solvers.l0.cost_ops", "solvers.omp.iterations", "solvers.omp.cost_ops"):
        assert counts[0][key] > 0, key


def test_colex_rank_matches_enumeration_order():
    for n, r in ((6, 1), (6, 3), (7, 4)):
        assert [colex_rank(s) for s in colex_supports(n, r)] == list(range(len(
            list(colex_supports(n, r)))))


def test_host_clock_samples_during_a_call_and_leaves_them_out():
    clock = hostspeed.HostClock()

    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    result, wall, scaled, slowdown = clock.timed(busy, 0.5)
    assert result == "done"
    assert len(clock.durations) >= 4          # before, at least two during, after
    sampled = sum(clock.durations[1:-1])
    assert 0.5 <= wall < 0.5 + sampled + 0.1
    assert abs(scaled * slowdown - (wall - sampled)) < 0.01
    assert slowdown > 0


def test_setup_probes_reach_ready(tmp_path):
    lab = run.probe_setup("regime", "5", str(tmp_path))
    ref = run.probe_setup("reference")
    assert 0 < ref < 60 and 0 < lab < 60


def test_refuses_without_checkout(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "phase", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in proc.stdout.splitlines())
