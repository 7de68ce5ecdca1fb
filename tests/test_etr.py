import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab import geometry
from etrlab.dictionaries import EffectiveSensing, build_sensing
from etrlab.errors import DegenerateGamma, InsufficientEvidence, InvalidSetting, InvalidSparsity
from etrlab.etr import (
    BatteryStats,
    RegimeThresholds,
    build_uncertainty_report,
    classify_regime,
    inflation_ratio,
    nonvanishing_bound,
    sample_threshold,
    uncertainty_functional,
)
from etrlab.geometry import GeometryReport, geometry_report, perturbation_check
from etrlab.numerics import TOL


def _geom(exact=None, lower=0.0, upper=1.0, r=2):
    # the verdict geometry_report states for a matrix whose largest column norm is 1,
    # so that its zero cutoff is TOL.gamma_zero: the exact gamma or the upper bound
    # below it is "no", else "yes" when exact and "unknown" when sampled
    if geometry._is_zero(upper if exact is None else exact, TOL.gamma_zero):
        injective = "no"
    else:
        injective = "unknown" if exact is None else "yes"
    return GeometryReport(
        r=r,
        gamma_exact=exact,
        gamma_upper=upper if exact is None else exact,
        gamma_lower=lower if exact is None else exact,
        injective_on_r_sparse=injective,
        witness=None,
        supports_examined=0,
        method="exact" if exact is not None else "sampled",
    )


def _stats(l0=1.0, omp=1.0, bp=1.0, trials=20):
    return BatteryStats(trials, {"l0-exhaustive": l0, "omp": omp, "basis-pursuit": bp})


# ------------------------------------------------------ functional


def test_functional_unit_inputs_give_ln2():
    assert uncertainty_functional(1, 1.0, 1) == pytest.approx(math.log(2.0), abs=1e-15)


def test_functional_worked_example():
    # 2 * (1/0.5) * ln(1 + 100) = 4 ln 101
    assert uncertainty_functional(2, 0.5, 100) == pytest.approx(
        4.0 * math.log(101.0), rel=1e-14
    )
    assert uncertainty_functional(2, 0.5, 100) == pytest.approx(18.46048206736504, rel=1e-12)


def test_one_zero_gamma_test_serves_the_functional_and_the_perturbation_check():
    # a bare gamma has no matrix to scale a cutoff by: only gamma <= 0 is degenerate
    a = EffectiveSensing(np.eye(2))
    for gamma in (0.0, -0.0, -TOL.gamma_zero, -1.0):
        with pytest.raises(DegenerateGamma) as functional:
            uncertainty_functional(1, gamma, 10)
        with pytest.raises(DegenerateGamma) as check:
            perturbation_check(a, np.ones(2), np.zeros(2), gamma)
        message = f"gamma_2k = {gamma} is not positive"
        assert str(functional.value) == str(check.value) == message
    for gamma in (1e-300, 1e-12, TOL.gamma_zero):
        assert math.isfinite(uncertainty_functional(1, gamma, 10))
        assert perturbation_check(a, np.ones(2), np.zeros(2), gamma)[0]


def test_functional_degenerate_gamma_raises():
    with pytest.raises(DegenerateGamma):
        uncertainty_functional(1, 0.0, 10)
    with pytest.raises(DegenerateGamma):
        uncertainty_functional(1, -1e-11, 10)
    assert uncertainty_functional(1, 1e-11, 10) == pytest.approx(1e11 * math.log(11.0), rel=1e-14)


@pytest.mark.parametrize("gamma", [math.nan, math.inf, -math.inf])
def test_functional_and_bound_reject_a_gamma_that_is_not_finite(gamma):
    # NaN and inf both pass the zero test; NaN gave u = nan and inf gave u = 0
    for call in (lambda: uncertainty_functional(2, gamma, 10), lambda: nonvanishing_bound(2, gamma),
                 lambda: build_uncertainty_report(2, gamma, 10)):
        with pytest.raises(InvalidSetting, match=f"gamma_2k must be finite, got {gamma}"):
            call()


@pytest.mark.parametrize("k_psi, gamma, cost", [(1, 5e-324, 1), (3, 1e-308, 10 ** 6)])
def test_functional_and_bound_reject_a_gamma_whose_value_overflows(k_psi, gamma, cost):
    # each value was inf, and the report labelled it indeterminate
    message = f"^gamma_2k = {gamma} is too small: the value overflows$"
    for call in (lambda: uncertainty_functional(k_psi, gamma, cost),
                 lambda: nonvanishing_bound(k_psi, gamma),
                 lambda: build_uncertainty_report(k_psi, gamma, cost)):
        with pytest.raises(InvalidSetting, match=message):
            call()


def test_functional_and_bound_reject_an_int_too_large_for_a_float():
    # each ended in OverflowError: int too large to convert to float
    huge = 10 ** 400
    for call in (lambda: uncertainty_functional(huge, 0.5, 10),
                 lambda: nonvanishing_bound(huge, 0.5),
                 lambda: build_uncertainty_report(huge, 0.5, 10)):
        with pytest.raises(InvalidSparsity, match="^k_psi is too large: it overflows a float$"):
            call()
    for call in (lambda: uncertainty_functional(2, 0.5, huge),
                 lambda: build_uncertainty_report(2, 0.5, huge)):
        with pytest.raises(InvalidSetting, match="^cost is too large: it overflows a float$"):
            call()


def test_functional_invalid_inputs():
    with pytest.raises(InvalidSparsity, match=r"^k_psi must be >= 1, got 0$"):
        uncertainty_functional(0, 1.0, 10)
    with pytest.raises(InvalidSetting, match=r"^cost must be >= 1, got 0$"):
        uncertainty_functional(1, 1.0, 0)
    with pytest.raises(InvalidSetting, match=r"^cost must be >= 1, got -3$"):
        build_uncertainty_report(2, 0.5, -3)


def test_bound_examples():
    assert nonvanishing_bound(1, 1.0) == pytest.approx(math.log(2.0), abs=1e-15)
    assert nonvanishing_bound(3, 0.25) == pytest.approx(12.0 * math.log(2.0), rel=1e-14)
    with pytest.raises(DegenerateGamma):
        nonvanishing_bound(2, 0.0)


@given(
    k_psi=st.integers(min_value=1, max_value=1000),
    gamma=st.floats(min_value=1e-9, max_value=1.0),
    cost=st.integers(min_value=1, max_value=10 ** 12),
)
@settings(max_examples=200, deadline=None)
def test_functional_dominates_bound(k_psi, gamma, cost):
    assert uncertainty_functional(k_psi, gamma, cost) >= nonvanishing_bound(k_psi, gamma) * (
        1.0 - 1e-12
    )


def test_functional_monotone_grid():
    ks = [1, 2, 5, 11]
    gammas = [0.05, 0.2, 0.7, 1.0]
    costs = [1, 10, 1000, 10 ** 6]
    for g in gammas:
        for c in costs:
            vals = [uncertainty_functional(k, g, c) for k in ks]
            assert vals == sorted(vals)  # increasing in k_psi
    for k in ks:
        for c in costs:
            vals = [uncertainty_functional(k, g, c) for g in gammas]
            assert vals == sorted(vals, reverse=True)  # decreasing in gamma
    for k in ks:
        for g in gammas:
            vals = [uncertainty_functional(k, g, c) for c in costs]
            assert vals == sorted(vals)  # increasing in cost


def test_build_report_degenerate_is_infinite_nonunique():
    rep = build_uncertainty_report(4, 0.0, 100)
    assert rep.u_value == math.inf and rep.lower_bound == math.inf
    assert rep.regime == "non-unique"


def test_build_report_regular():
    rep = build_uncertainty_report(2, 0.5, 100)
    assert rep.u_value == pytest.approx(4.0 * math.log(101.0), rel=1e-14)
    assert rep.lower_bound == pytest.approx(4.0 * math.log(2.0), rel=1e-14)
    assert rep.regime == "indeterminate"


# ------------------------------------------------------ inflation / budget


def test_inflation_ratio_examples():
    assert inflation_ratio(3, 3, 64) == pytest.approx(1.0, abs=1e-15)
    # k = 4, k_eff = 64, d = 64: 64*1 / (4*(ln 16 + 1))
    expected = 64.0 / (4.0 * (math.log(16.0) + 1.0))
    assert inflation_ratio(4, 64, 64) == pytest.approx(expected, rel=1e-14)
    assert inflation_ratio(4, 64, 64) == pytest.approx(4.241119607262024, rel=1e-10)
    expected2 = (16.0 * (math.log(2.0) + 1.0)) / (4.0 * (math.log(8.0) + 1.0))
    assert inflation_ratio(4, 16, 32) == pytest.approx(expected2, rel=1e-14)


def test_inflation_ratio_validation():
    for bad in [(0, 1, 4), (3, 2, 4), (1, 5, 4)]:
        with pytest.raises(InvalidSparsity):
            inflation_ratio(*bad)


@given(
    d=st.integers(min_value=2, max_value=512),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_inflation_ratio_at_least_one(d, data):
    k = data.draw(st.integers(min_value=1, max_value=d))
    k_eff = data.draw(st.integers(min_value=k, max_value=d))
    assert inflation_ratio(k, k_eff, d) >= 1.0 - 1e-12


def test_sample_threshold_examples():
    # k=3, n=64: ceil(3*(ln(64/3)+1)) = ceil(12.18...) = 13
    assert sample_threshold(3, 64) == 13
    assert sample_threshold(3, 64, c0=2.0) == 25
    # dense case: k=n gives ceil(c0 * n)
    assert sample_threshold(16, 16) == 16
    with pytest.raises(InvalidSparsity):
        sample_threshold(0, 8)
    with pytest.raises(InvalidSparsity):
        sample_threshold(9, 8)


# ------------------------------------------------------ regimes


def test_regime_non_unique_wins_even_with_good_stats():
    label = classify_regime(_geom(exact=0.0), m=100, n=16, k=2, battery_stats=_stats())
    assert label.label == "non-unique"
    assert "gamma_2k" in label.evidence


def test_regime_stable():
    label = classify_regime(_geom(exact=0.5), m=100, n=16, k=2, battery_stats=_stats())
    assert label.label == "stable"


def test_regime_stable_requires_budget():
    # sample_threshold(2, 16) = ceil(2*(ln 8 + 1)) = 7
    assert sample_threshold(2, 16) == 7
    below = classify_regime(_geom(exact=0.5), m=6, n=16, k=2, battery_stats=_stats())
    assert below.label != "stable"
    at = classify_regime(_geom(exact=0.5), m=7, n=16, k=2, battery_stats=_stats())
    assert at.label == "stable"


def test_regime_opaque():
    label = classify_regime(
        _geom(exact=0.05), m=100, n=16, k=2,
        battery_stats=_stats(l0=0.95, omp=0.3, bp=0.4),
    )
    assert label.label == "opaque"


def test_regime_indeterminate():
    label = classify_regime(
        _geom(exact=0.05), m=100, n=16, k=2,
        battery_stats=_stats(l0=0.6, omp=0.6, bp=0.6),
    )
    assert label.label == "indeterminate"


def test_regime_bounds_are_conservative():
    # upper bound above tol and lower bound below c: neither verdict fires
    label = classify_regime(
        _geom(lower=0.01, upper=0.9), m=100, n=16, k=2, battery_stats=_stats()
    )
    assert label.label == "indeterminate"
    # upper bound itself numerically zero forces non-unique
    label = classify_regime(
        _geom(lower=0.0, upper=5e-11), m=100, n=16, k=2, battery_stats=_stats()
    )
    assert label.label == "non-unique"
    # lower bound above c allows stable
    label = classify_regime(
        _geom(lower=0.2, upper=0.9), m=100, n=16, k=2, battery_stats=_stats()
    )
    assert label.label == "stable"


def test_regime_insufficient_evidence():
    with pytest.raises(InsufficientEvidence):
        classify_regime(_geom(exact=0.5), m=100, n=16, k=2,
                        battery_stats=_stats(trials=5))


def test_regime_custom_thresholds():
    th = RegimeThresholds(stable_c=0.6, trials=10)
    label = classify_regime(_geom(exact=0.5), m=100, n=16, k=2,
                            battery_stats=_stats(trials=10), thresholds=th)
    assert label.label == "indeterminate"


def test_thresholds_validation():
    with pytest.raises(InvalidSetting):
        RegimeThresholds(battery_success_min=0.4, battery_fail_max=0.5)


@pytest.mark.parametrize("field, value", [
    ("stable_c", math.nan), ("stable_c", math.inf), ("stable_c", 0.0), ("stable_c", -0.1),
    ("sample_c0", math.nan), ("sample_c0", math.inf), ("sample_c0", 0.0), ("sample_c0", -1.0),
    ("trials", 0), ("trials", -1)])
def test_thresholds_reject_values_no_verdict_can_use(field, value):
    # a NaN stable_c labels no cell stable, and a non-positive c0 makes every m meet
    # the budget; an infinite c0 overflows sample_threshold after every trial ran
    with pytest.raises(InvalidSetting, match=f"{field} must be"):
        RegimeThresholds(**{field: value})
    assert RegimeThresholds(stable_c=1e-9, sample_c0=1e-9, trials=1).trials == 1


def test_battery_stats_properties():
    s = _stats(l0=0.9, omp=0.2, bp=0.7)
    assert s.oracle_rate == 0.9
    assert s.best_polynomial_rate == 0.7
    empty = BatteryStats(20, {})
    assert empty.oracle_rate == 0.0 and empty.best_polynomial_rate == 0.0


def test_never_stable_with_degenerate_gamma():
    # 0.0 and 1e-12 fall below the unit-norm cutoff 1e-10 and 1e-10 does not, yet a
    # gamma this small is never stable, whatever the budget and the battery
    for gamma in [0.0, 1e-12, 1e-10]:
        geom = _geom(exact=gamma)
        label = classify_regime(geom, m=10 ** 6, n=16, k=2, battery_stats=_stats())
        assert label.label != "stable"
        assert (label.label == "non-unique") == (geom.injective_on_r_sparse == "no")
        assert (label.label == "non-unique") == (gamma < TOL.gamma_zero)


def _duplicated_column():
    a = build_sensing("gaussian", 6, 10, seed=5)
    a[:, 7] = a[:, 2]
    return a


@pytest.mark.parametrize("mat, r, verdict", [
    (build_sensing("gaussian", 8, 16, seed=3), 4, "yes"),
    (np.diag([1.0, 1e-10]), 2, "yes"),
    (_duplicated_column(), 2, "no"),
], ids=["gaussian", "diag", "duplicated-column"])
def test_regime_verdict_does_not_depend_on_the_scale_of_a(mat, r, verdict):
    # gamma_2k = 0 is the loss of injectivity, which scaling A cannot change: the
    # report's verdict and whether the label is non-unique must read the same at every
    # scale c. The stable floor stable_c is absolute, so stable may come and go with c.
    verdicts, non_unique = set(), set()
    for c in (1e-10, 1.0, 1e10):
        geom = geometry_report(EffectiveSensing(c * mat), r)
        label = classify_regime(geom, m=mat.shape[0], n=mat.shape[1], k=r // 2,
                                battery_stats=_stats())
        assert (label.label == "non-unique") == (geom.injective_on_r_sparse == "no")
        verdicts.add(geom.injective_on_r_sparse)
        non_unique.add(label.label == "non-unique")
    assert verdicts == {verdict} and len(non_unique) == 1
