"""Difficulty quantification and regime classification.

The scalar difficulty measure multiplies representation complexity, the
reciprocal of restricted distinguishability, and the log of arithmetic
cost. Natural logarithms are used everywhere in this module; any fixed
base would rescale all reports uniformly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

from .errors import DegenerateGamma, InsufficientEvidence, InvalidSetting, InvalidSparsity
from .geometry import GeometryReport, check_gamma, gamma_is_zero
from .numerics import TOL
from .sparsity import check_sparsity


@dataclass(frozen=True)
class RegimeThresholds:
    stable_c: float = 0.1          # minimum gamma_2k for the stable verdict
    sample_c0: float = 1.0         # constant in the m >= c0 * k * (ln(n/k)+1) budget
    battery_success_min: float = 0.9
    battery_fail_max: float = 0.5
    trials: int = 20

    def __post_init__(self):
        for name in ("stable_c", "sample_c0"):
            if not 0.0 < getattr(self, name) < math.inf:  # NaN fails too
                raise InvalidSetting(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if self.trials < 1:
            raise InvalidSetting(f"trials must be >= 1, got {self.trials}")
        if not 0.0 < self.battery_fail_max < self.battery_success_min <= 1.0:
            raise InvalidSetting(f"need 0 < battery_fail_max < battery_success_min <= 1, got "
                                 f"battery_fail_max = {self.battery_fail_max}, "
                                 f"battery_success_min = {self.battery_success_min}")

    def check_evidence(self, trials: int) -> None:
        """Raise InsufficientEvidence where `classify_regime` would on this many trials."""
        if trials < self.trials:
            raise InsufficientEvidence(f"a verdict needs trials >= {self.trials}, got {trials}")


@dataclass(frozen=True)
class RegimeLabel:
    label: str
    evidence: str


@dataclass(frozen=True)
class BatteryStats:
    """Empirical success rates per solver over repeated planted instances."""

    trials: int
    success_rate: dict = field(default_factory=dict)  # solver name -> rate in [0,1]

    @property
    def oracle_rate(self) -> float:
        return self.success_rate.get("l0-exhaustive", 0.0)

    @property
    def best_polynomial_rate(self) -> float:
        return max(
            self.success_rate.get("omp", 0.0),
            self.success_rate.get("basis-pursuit", 0.0),
        )


@dataclass(frozen=True)
class UncertaintyReport:
    k_psi: int
    gamma_2k: float
    cost: int
    u_value: float
    lower_bound: float
    regime: str


def uncertainty_functional(k_psi: int, gamma_2k: float, cost: int) -> float:
    """k_psi * (1/gamma_2k) * ln(1 + cost); diverges as gamma vanishes."""
    if k_psi < 1 or cost < 1:
        raise InvalidSparsity("k_psi and cost must be >= 1")
    check_gamma(gamma_2k)
    return k_psi * (1.0 / gamma_2k) * math.log1p(cost)


def nonvanishing_bound(k_psi: int, gamma_2k: float) -> float:
    """(k_psi / gamma_2k) * ln 2; a floor under every uncertainty value."""
    check_gamma(gamma_2k)
    return k_psi / gamma_2k * math.log(2.0)


def build_uncertainty_report(k_psi: int, gamma_2k: float, cost: int) -> UncertaintyReport:
    """Report constructor, regime indeterminate; a degenerate gamma yields infinity plus
    non-unique, and a gamma that is not finite raises InvalidSetting."""
    try:
        value = uncertainty_functional(k_psi, gamma_2k, cost)
        bound = nonvanishing_bound(k_psi, gamma_2k)
    except DegenerateGamma:
        return UncertaintyReport(k_psi, gamma_2k, cost, math.inf, math.inf, "non-unique")
    return UncertaintyReport(k_psi, gamma_2k, cost, value, bound, "indeterminate")


def inflation_ratio(k: int, k_eff: int, d: int) -> float:
    """Predicted measurement inflation under representation mismatch.

    Uses the regularized budget r*(ln(d/r)+1) so the dense case r = d
    keeps a positive log factor.
    """
    if not 1 <= k <= k_eff <= d:
        raise InvalidSparsity(f"need 1 <= k <= k_eff <= d, got ({k}, {k_eff}, {d})")
    num = k_eff * (math.log(d / k_eff) + 1.0)
    den = k * (math.log(d / k) + 1.0)
    return num / den


def sample_threshold(k: int, n: int, c0: float = 1.0) -> int:
    """ceil(c0 * k * (ln(n/k) + 1)) measurements for k-sparse recovery in R^n."""
    check_sparsity(k, n)
    return math.ceil(c0 * k * (math.log(n / k) + 1.0))


def classify_regime(
    geom: GeometryReport,
    m: int,
    n: int,
    k: int,
    battery_stats: BatteryStats,
    thresholds: Optional[RegimeThresholds] = None,
) -> RegimeLabel:
    """Decision procedure over the geometry report and solver statistics.

    Order: numerically-zero gamma wins (non-unique); then the stable
    test (gamma floor, measurement budget, polynomial solver succeeds);
    then the opacity surrogate (oracle succeeds, polynomial solvers
    fail); everything else is indeterminate. When only bounds on gamma
    are available the upper bound drives the non-unique test and the
    lower bound the stable test, so neither verdict can overclaim.
    """
    th = thresholds or RegimeThresholds()
    th.check_evidence(battery_stats.trials)
    if geom.gamma_exact is not None:
        gamma_for_nonunique = gamma_for_stable = geom.gamma_exact
        gamma_desc = f"gamma_2k = {geom.gamma_exact:.6g} (exact)"
    else:
        gamma_for_nonunique = geom.gamma_upper
        gamma_for_stable = geom.gamma_lower
        gamma_desc = (
            f"gamma_2k in [{geom.gamma_lower:.6g}, {geom.gamma_upper:.6g}] (bounds)"
        )
    budget = sample_threshold(k, n, th.sample_c0)
    poly = battery_stats.best_polynomial_rate
    oracle = battery_stats.oracle_rate
    stats_desc = (
        f"m = {m}, budget = {budget}, oracle rate = {oracle:.2f}, "
        f"best polynomial rate = {poly:.2f}"
    )
    if gamma_is_zero(gamma_for_nonunique):
        return RegimeLabel("non-unique", f"{gamma_desc} <= {TOL.gamma_zero}; {stats_desc}")
    if gamma_for_stable >= th.stable_c and m >= budget and poly >= th.battery_success_min:
        return RegimeLabel("stable", f"{gamma_desc} >= c = {th.stable_c}; {stats_desc}")
    if oracle >= th.battery_success_min and poly <= th.battery_fail_max:
        return RegimeLabel("opaque", f"{gamma_desc}; {stats_desc}")
    return RegimeLabel("indeterminate", f"{gamma_desc}; {stats_desc}")
