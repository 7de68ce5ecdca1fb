"""Spans around the calls into each etrlab module, recorded from outside.

`Tracer.installed()` replaces each public function where its caller
looks it up: `harness` imported the names into its own namespace,
`solve` dispatches through the `_SOLVE` dict, `_omp_rescaled` and
`geometry_report` call through their module globals, and `RandomStream`
methods live on the class. Spans are kept in memory as flat arrays and
written out after the run. A span's self time is its duration minus the
durations of its direct child spans.
"""

from __future__ import annotations

import contextlib
import time
from array import array
from collections import Counter
from math import comb

import numpy as np

from etrlab import geometry, harness, solvers, sparsity, svgplot
from etrlab.rng import RandomStream

LAYERS = ("rng", "dictionaries", "sparsity", "geometry", "numerics", "solvers.bp",
          "solvers.l0", "solvers.omp", "solvers.battery", "etr", "harness", "svgplot",
          "config")

# (owner, attribute, layer); one original function patched in two places
# shares one wrapper, so each call makes exactly one span.
PATCHES = (
    (RandomStream, "uniforms", "rng"),
    (RandomStream, "gaussians", "rng"),
    (RandomStream, "choose_without_replacement", "rng"),
    (harness, "build_dictionary", "dictionaries"),
    (harness, "build_sensing", "dictionaries"),
    (harness, "compose", "dictionaries"),
    (harness, "plant", "sparsity"),
    (harness, "observe", "sparsity"),
    (harness, "effective_sparsity", "sparsity"),
    (harness, "gamma_exact", "geometry"),
    (geometry, "gamma_exact", "geometry"),
    (harness, "geometry_report", "geometry"),
    (geometry, "smallest_singular_value", "numerics"),
    (geometry, "smallest_singular_pair", "numerics"),
    (sparsity, "least_squares", "numerics"),
    (solvers._SOLVE, "basis-pursuit", "solvers.bp"),
    (solvers._SOLVE, "l0-exhaustive", "solvers.l0"),
    (solvers._SOLVE, "omp", "solvers.omp"),
    (solvers, "solve_omp", "solvers.omp"),
    (harness, "run_battery", "solvers.battery"),
    (harness, "classify_regime", "etr"),
    (harness, "sample_threshold", "etr"),
    (harness, "inflation_ratio", "etr"),
    (harness, "render_report", "harness"),
    (harness, "write_records_csv", "harness"),
    (svgplot, "line_plot", "svgplot"),
    (svgplot, "heat_map", "svgplot"),
)


def _get(owner, attr):
    return owner[attr] if isinstance(owner, dict) else getattr(owner, attr)


def _set(owner, attr, value):
    if isinstance(owner, dict):
        owner[attr] = value
    else:
        setattr(owner, attr, value)


def colex_rank(support) -> int:
    """Position of a sorted support among same-size subsets in colex order."""
    return sum(comb(int(c), i + 1) for i, c in enumerate(sorted(support)))


class Tracer:
    """In-memory span recorder plus the counts observed at layer boundaries."""

    def __init__(self):
        self.names: list[tuple[str, str]] = []    # name id -> (layer, function)
        self.name_id = array("q")
        self.parent = array("q")
        self.start = array("q")
        self.end = array("q")
        self._stack = [-1]
        self._wrappers: dict = {}
        self.counts: Counter = Counter()          # deterministic counts
        self.bp_capped = 0
        self.raised = Counter()                   # layer -> calls that raised
        self.battery_errors = 0

    # -- recording ---------------------------------------------------------

    def traced(self, layer: str, fn, observe=None):
        """fn wrapped so that every call records one span in `layer`.

        `observe(args, result)` runs after each call that returned.
        """
        nid = len(self.names)
        self.names.append((layer, getattr(fn, "__qualname__", repr(fn))))
        clock = time.perf_counter_ns
        stack, ids, parents, starts, ends = (self._stack, self.name_id, self.parent,
                                             self.start, self.end)

        def wrapper(*args, **kwargs):
            idx = len(ids)
            ids.append(nid)
            parents.append(stack[-1])
            stack.append(idx)
            starts.append(0)
            ends.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.raised[layer] += 1
                raise
            finally:
                starts[idx], ends[idx] = t0, clock()
                stack.pop()
            if observe is not None:
                observe(args, result)
            return result

        return wrapper

    def _observer(self, layer: str, attr: str):
        if layer == "solvers.bp":
            return self._observe_bp
        if layer == "solvers.l0":
            return self._observe_l0
        if layer == "solvers.omp":
            return self._observe_omp
        if layer == "solvers.battery":
            return self._observe_battery
        if attr == "gamma_exact":
            return self._observe_gamma
        return None

    def _observe_bp(self, args, result):
        self.counts["solvers.bp.iterations"] += result.iterations
        self.counts["solvers.bp.cost_ops"] += result.cost.total
        if not result.converged and result.iterations == args[2].max_iterations:
            self.bp_capped += 1

    def _observe_l0(self, args, result):
        n, size = args[0].a.shape[1], len(result.support)
        if size:
            # supports of smaller size, then colex position within this size
            examined = sum(comb(n, s) for s in range(1, size)) + colex_rank(result.support) + 1
            self.counts["solvers.l0.supports"] += examined
        self.counts["solvers.l0.cost_ops"] += result.cost.total

    def _observe_omp(self, args, result):
        self.counts["solvers.omp.iterations"] += result.iterations
        self.counts["solvers.omp.cost_ops"] += result.cost.total

    def _observe_battery(self, args, result):
        self.battery_errors += sum(1 for e in result if e.error)

    def _observe_gamma(self, args, result):
        self.counts["geometry.supports"] += comb(args[0].a.shape[1], args[1])

    @contextlib.contextmanager
    def installed(self):
        """Patch every entry of PATCHES for the duration of the block."""
        saved = []
        try:
            for owner, attr, layer in PATCHES:
                original = _get(owner, attr)
                wrapper = self._wrappers.get(original)
                if wrapper is None:
                    wrapper = self.traced(layer, original, self._observer(layer, attr))
                    self._wrappers[original] = wrapper
                saved.append((owner, attr, original))
                _set(owner, attr, wrapper)
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                _set(owner, attr, original)

    # -- analysis ----------------------------------------------------------

    def arrays(self):
        # copies: a live view would stop the arrays from growing
        return tuple(np.frombuffer(a, dtype=np.int64).copy()
                     for a in (self.name_id, self.parent, self.start, self.end))

    def function_calls(self) -> dict[str, int]:
        """Span count per traced function, keyed 'layer:function'."""
        ids = self.arrays()[0]
        counts = np.bincount(ids, minlength=len(self.names))
        return {f"{layer}:{fn}": int(c) for (layer, fn), c in zip(self.names, counts)}

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer calls (entries from another layer) and self seconds."""
        ids, parent, start, end = self.arrays()
        dur = (end - start).astype(np.float64)
        child = np.zeros(len(dur))
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_ns = dur - child
        layer_index = {name: i for i, name in enumerate(LAYERS)}
        span_layer = np.array([layer_index[layer] for layer, _ in self.names],
                              dtype=np.int64)[ids]
        parent_layer = np.where(has_parent, span_layer[np.maximum(parent, 0)], -1)
        out = {}
        for name, i in layer_index.items():
            mine = span_layer == i
            out[f"{name}.calls"] = int(np.sum(mine & (parent_layer != i)))
            out[f"{name}.self_s"] = float(self_ns[mine].sum()) / 1e9
        return out

    def durations_ms(self, layer: str, function: str | None = None) -> np.ndarray:
        """Inclusive span durations of one layer, or of one function in it."""
        ids, _, start, end = self.arrays()
        nids = [i for i, (lay, fn) in enumerate(self.names)
                if lay == layer and function in (None, fn)]
        return (end - start)[np.isin(ids, nids)] / 1e6

    def save(self, path) -> None:
        ids, parent, start, end = self.arrays()
        np.savez(path, name_id=ids, parent=parent, start_ns=start, end_ns=end,
                 names=np.array([f"{layer}:{fn}" for layer, fn in self.names]))
