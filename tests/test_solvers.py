import hashlib

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab.dictionaries import (
    EffectiveSensing,
    build_dictionary,
    build_sensing,
    compose,
    normalize_columns,
)
from etrlab.errors import EnumerationTooLarge, NoFeasibleSolution, NotNormalized
from etrlab.geometry import colex_supports, gamma_exact
from etrlab.rng import RandomStream
from etrlab.solvers import (
    CostCounter,
    SolverConfig,
    _project_ball,
    run_battery,
    solve,
    solve_bp,
    solve_l0,
    solve_omp,
)
from etrlab.sparsity import observe, plant

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
TRI = EffectiveSensing(np.column_stack([E1, E2, (E1 + E2) / np.sqrt(2)]), True)
I4 = EffectiveSensing(np.eye(4), True)


def _planted(m, n, k, seed, epsilon=0.0, basis="identity"):
    s = RandomStream(seed)
    psi = build_dictionary(basis, n, seed=s.split(0).as_seed())
    phi = build_sensing("gaussian", m, n, seed=s.split(1).as_seed())
    inst = plant(psi, k, s.split(2))
    obs = observe(inst.x, phi, epsilon, s.split(3))
    return compose(phi, psi), inst, obs


# ----------------------------------------------------------------- l0


def test_l0_identity_spike():
    res = solve_l0(I4, np.array([0.0, 0.0, 5.0, 0.0]), SolverConfig(epsilon=0.0))
    assert res.support == (2,)
    assert res.alpha_hat[2] == pytest.approx(5.0, abs=1e-12)
    assert res.converged


def test_l0_zero_observation():
    res = solve_l0(I4, np.zeros(4), SolverConfig())
    assert res.support == ()
    np.testing.assert_array_equal(res.alpha_hat, np.zeros(4))


def test_l0_prefers_smaller_support():
    y = (E1 + E2) / np.sqrt(2)
    res = solve_l0(TRI, y, SolverConfig())
    assert res.support == (2,)
    assert res.alpha_hat[2] == pytest.approx(1.0, rel=1e-12)


def test_l0_minimality_against_brute_force():
    for seed in range(20):
        a, inst, obs = _planted(5, 8, 2, seed=seed)
        res = solve_l0(a, obs.y, SolverConfig(max_sparsity=3))
        # no strictly smaller support is feasible (exhaustive referee)
        for size in range(len(res.support)):
            for support in colex_supports(8, size):
                cols = a.a[:, list(support)] if support else np.zeros((5, 0))
                if support:
                    coef, *_ = np.linalg.lstsq(cols, obs.y, rcond=None)
                    resid = np.linalg.norm(cols @ coef - obs.y)
                else:
                    resid = np.linalg.norm(obs.y)
                assert resid > 1e-10


def test_l0_no_feasible_solution():
    y = np.array([1.0, 1.0])
    a = EffectiveSensing(np.column_stack([E1]), True)
    with pytest.raises(NoFeasibleSolution):
        solve_l0(a, y, SolverConfig(max_sparsity=1))


def test_l0_enumeration_guard():
    a = EffectiveSensing(build_sensing("gaussian", 8, 200, seed=1).phi, False)
    with pytest.raises(EnumerationTooLarge):
        solve_l0(a, np.ones(8), SolverConfig(max_sparsity=8))


def test_l0_noise_tolerance():
    a, inst, obs = _planted(8, 10, 2, seed=5, epsilon=1e-2)
    res = solve_l0(a, obs.y, SolverConfig(epsilon=1e-2, max_sparsity=3), truth=inst)
    assert res.residual_norm <= 1e-2 + 1e-10
    assert len(res.support) <= 2
    assert res.stability_ratio is not None


# ----------------------------------------------------------------- omp


def test_omp_identity_two_iterations():
    res = solve_omp(I4, np.array([0.0, 2.0, 0.0, -1.0]), SolverConfig())
    assert res.support == (1, 3)
    assert res.iterations == 2
    np.testing.assert_allclose(res.alpha_hat, [0.0, 2.0, 0.0, -1.0], atol=1e-12)


def test_omp_zero_observation():
    res = solve_omp(I4, np.zeros(4), SolverConfig())
    assert res.support == ()
    assert res.iterations == 0


def test_omp_requires_normalized_columns():
    a = EffectiveSensing(2.0 * np.eye(3), False)
    with pytest.raises(NotNormalized):
        solve_omp(a, np.ones(3), SolverConfig())


def test_omp_residual_orthogonal_and_decreasing():
    for seed in range(10):
        a, inst, obs = _planted(8, 12, 3, seed=seed)
        an = EffectiveSensing(normalize_columns(a.a), True)
        res = solve_omp(an, obs.y, SolverConfig(max_sparsity=6))
        residual = obs.y - an.a @ res.alpha_hat
        sel = an.a[:, list(res.support)]
        assert np.all(np.abs(sel.T @ residual) <= 1e-9 * max(np.linalg.norm(obs.y), 1.0))


def test_omp_coherence_regime_matches_l0():
    # A = [I | H], mu = 1/4, so k = 2 < (1 + 1/mu)/2 guarantees equivalence
    h = build_dictionary("hadamard", 16).psi
    a = EffectiveSensing(np.hstack([np.eye(16), h]), True)
    coeff_basis = build_dictionary("identity", 32)
    for t in range(25):
        inst = plant(coeff_basis, 2, RandomStream(31, t))
        y = a.a @ inst.alpha_star
        r0 = solve_l0(a, y, SolverConfig(max_sparsity=2))
        ro = solve_omp(a, y, SolverConfig(max_sparsity=4))
        assert ro.support == r0.support == inst.support


# ----------------------------------------------------------------- bp


def test_bp_identity_equality_system():
    y = np.array([0.0, 2.0, 0.0, -1.0])
    res = solve_bp(I4, y, SolverConfig(epsilon=0.0))
    np.testing.assert_allclose(res.alpha_hat, y, atol=1e-6)
    assert res.converged


def test_bp_zero_observation():
    res = solve_bp(I4, np.zeros(4), SolverConfig())
    np.testing.assert_allclose(res.alpha_hat, np.zeros(4), atol=1e-12)


def test_bp_gaussian_recovery_rate():
    ok = 0
    for t in range(40):
        a, inst, obs = _planted(16, 32, 2, seed=1000 + t)
        res = solve_bp(a, obs.y, SolverConfig())
        ok += np.linalg.norm(res.alpha_hat - inst.alpha_star) <= 1e-4
    assert ok >= 38  # >= 95% empirical success region


def test_bp_feasibility_and_l1_certificate():
    for t in range(15):
        eps = 1e-2
        a, inst, obs = _planted(12, 24, 2, seed=2000 + t, epsilon=eps)
        cfg = SolverConfig(epsilon=eps)
        res = solve_bp(a, obs.y, cfg)
        assert np.linalg.norm(a.a @ res.alpha_hat - obs.y) <= eps + 1e-6
        # planted alpha is feasible, so it certifies l1 optimality
        assert np.sum(np.abs(res.alpha_hat)) <= np.sum(np.abs(inst.alpha_star)) + 1e-6


def test_bp_unreachable_observation():
    a = EffectiveSensing(np.array([[1.0, 0.5], [0.0, 0.0]]), False)
    with pytest.raises(NoFeasibleSolution):
        solve_bp(a, np.array([0.0, 1.0]), SolverConfig(epsilon=0.1))


def test_bp_not_converged_still_returns():
    a, inst, obs = _planted(16, 32, 3, seed=4)
    res = solve_bp(a, obs.y, SolverConfig(max_iterations=3))
    assert res.converged is False
    assert res.alpha_hat.shape == (32,)


# (m, n, k, seed, epsilon, max_iterations) -> iterations, converged,
# (multiplies, additions, comparisons), sha256 of alpha_hat.tobytes().
# Captured from the ADMM loop that charged its cost every iteration and ran
# all 200 bisection steps; the lean loop must reproduce every bit.
BP_GOLDEN = [
    ((4, 32, 2, 1, 0.0, 4000), 4000, False, (1450181, 2214181, 136000),
     "fe49433a6881eb7f0d5ef7c92464a77d9de8a961aaaef566f077edb804d82731"),
    ((4, 32, 2, 2, 0.0, 4000), 1231, True, (447803, 682924, 41854),
     "979dc63ce813c9ca97be65bcb1add5ef923c115d7e1d537c13b546f1bfa58027"),
    ((12, 32, 3, 1, 0.0, 4000), 186, True, (184143, 221157, 6324),
     "728729a95676c60ebac3a2777d6e7a3aa4dee3613e593a803de00c92b2fa07b6"),
    ((32, 64, 3, 1, 0.0, 4000), 101, True, (702309, 743820, 6666),
     "64a744cc673731a704542cdc1d1994f23bd42656d59ff242c2d7c577f39ebf5e"),
    ((8, 24, 2, 5, 0.01, 4000), 592, True, (3128565, 2268389, 134384),
     "5f0e2bcbb901cbd914cba6d7cd7514ac54d618bd5f24023d2e940f1804adfcc5"),
    ((16, 32, 2, 1, 0.01, 300), 300, False, (3259539, 2360439, 70500),
     "eb9110379baa9dd405adeb27a5f28462d28300c2f4ec0d115b118abc388bfe36"),
]


@pytest.mark.parametrize("case, iterations, converged, cost, digest", BP_GOLDEN)
def test_bp_golden(case, iterations, converged, cost, digest):
    m, n, k, seed, eps, cap = case
    a, _, obs = _planted(m, n, k, seed=seed, epsilon=eps)
    res = solve_bp(a, obs.y, SolverConfig(epsilon=eps, max_iterations=cap))
    assert res.iterations == iterations
    assert res.converged is converged
    assert (res.cost.multiplies, res.cost.additions, res.cost.comparisons) == cost
    assert hashlib.sha256(res.alpha_hat.tobytes()).hexdigest() == digest


def _project_ball_200_steps(s, b, c, eps_r, cost, r):
    """The ball projection as it was before the bisection's early exit."""
    miss = s * c - b
    cost.charge(mult=2 * r, add=3 * r - 1)
    if np.linalg.norm(miss) <= eps_r:
        return c
    if eps_r == 0.0:
        return b / s
    # c'(lam) = (c + lam*s*b) / (1 + lam*s^2); ||s*c' - b|| decreasing in lam
    def norm_at(lam):
        return float(np.linalg.norm(miss / (1.0 + lam * s * s)))

    lo, hi = 0.0, 1.0
    while norm_at(hi) > eps_r:
        hi *= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if norm_at(mid) > eps_r:
            lo = mid
        else:
            hi = mid
    lam = hi
    cost.charge(mult=200 * 3 * r, add=200 * 2 * r, cmp=201)
    return (c + lam * s * b) / (1.0 + lam * s * s)


def test_project_ball_early_exit_matches_200_steps():
    gen = np.random.default_rng(7)
    # eps_r as a fraction of ||s*c - b||: inside the ball, on the affine set,
    # next to the boundary (lam far below 1) and deep inside it (lam huge)
    fractions = (0.0, 1e-12, 1e-6, 1e-3, 0.1, 0.5, 0.9, 1 - 1e-6, 1 - 1e-12,
                 1 - 2 ** -52, 1.0, 2.0)
    bisected_count = 0
    for trial in range(30):
        r = int(gen.integers(1, 9))
        s = np.sort(10.0 ** gen.uniform(-4, 3, r))[::-1]
        b = gen.normal(size=r) * 10.0 ** gen.uniform(-3, 3)
        c = gen.normal(size=r) * 10.0 ** gen.uniform(-3, 3)
        gap = float(np.linalg.norm(s * c - b))
        for f in fractions:
            eps_r = gap * f
            old = _project_ball_200_steps(s, b, c, eps_r, CostCounter(), r)
            new, bisected = _project_ball(s, b, b / s, eps_r, c, np.empty(r), np.empty(r))
            assert new.tobytes() == old.tobytes(), (trial, f)
            assert bisected == (0.0 < eps_r < gap)
            bisected_count += bisected
    assert bisected_count >= 240


def test_solve_rescales_omp_on_unnormalized_matrix():
    a, inst, obs = _planted(12, 24, 2, seed=6)
    assert not a.column_normalized
    with pytest.raises(NotNormalized):
        solve_omp(a, obs.y, SolverConfig(max_sparsity=2))
    res = solve("omp", a, obs.y, SolverConfig(max_sparsity=2))
    assert res.support == inst.support
    np.testing.assert_allclose(a.a @ res.alpha_hat, obs.y, atol=1e-9)
    battery = run_battery(a, obs.y, configs={"omp": SolverConfig("omp", max_sparsity=2)})
    omp = next(e for e in battery if e.solver == "omp")
    assert omp.result.alpha_hat.tobytes() == res.alpha_hat.tobytes()


# ------------------------------------------------------------- battery


def test_cost_counters_deterministic():
    a, inst, obs = _planted(8, 12, 2, seed=9)
    t1 = solve_l0(a, obs.y, SolverConfig(max_sparsity=2)).cost
    t2 = solve_l0(a, obs.y, SolverConfig(max_sparsity=2)).cost
    assert (t1.multiplies, t1.additions, t1.comparisons) == (
        t2.multiplies, t2.additions, t2.comparisons
    )
    assert t1.total == t1.multiplies + t1.additions + t1.comparisons
    assert t1.total > 0


def test_battery_identity_all_agree():
    psi = build_dictionary("identity", 4)
    inst = plant(psi, 1, RandomStream(44))
    a = EffectiveSensing(np.eye(4), True)
    entries = run_battery(a, inst.x, truth=inst, psi=psi.psi)
    assert [e.solver for e in entries] == ["l0-exhaustive", "omp", "basis-pursuit"]
    for e in entries:
        assert e.error is None
        assert e.result.support == inst.support


def test_battery_cost_ordering_16x32():
    a, inst, obs = _planted(16, 32, 3, seed=21)
    cfgs = {
        "l0-exhaustive": SolverConfig("l0-exhaustive", max_sparsity=3),
        "omp": SolverConfig("omp", max_sparsity=3),
        "basis-pursuit": SolverConfig("basis-pursuit"),
    }
    entries = {e.solver: e for e in run_battery(a, obs.y, truth=inst, configs=cfgs, psi=None)}
    total_l0 = entries["l0-exhaustive"].result.cost.total
    assert total_l0 > entries["basis-pursuit"].result.cost.total
    assert total_l0 > entries["omp"].result.cost.total


def test_battery_records_failures_without_aborting():
    a = EffectiveSensing(build_sensing("gaussian", 8, 200, seed=1).phi, False)
    entries = run_battery(a, np.ones(8), configs={
        "l0-exhaustive": SolverConfig("l0-exhaustive", max_sparsity=8)})
    l0 = next(e for e in entries if e.solver == "l0-exhaustive")
    assert l0.result is None and "EnumerationTooLarge" in l0.error
    assert any(e.result is not None for e in entries)


def test_l0_stability_bound_with_exact_support():
    # ||x_hat - x|| <= 2 eps / gamma_2k for the oracle with support size <= k
    for t in range(10):
        eps = 1e-2
        a, inst, obs = _planted(10, 12, 2, seed=3000 + t, epsilon=eps)
        g = gamma_exact(a, 4)
        if g <= 1e-10:
            continue
        res = solve_l0(a, obs.y, SolverConfig(epsilon=eps, max_sparsity=2), truth=inst,
                       psi=inst.truth_basis.psi)
        assert len(res.support) <= 2
        assert res.stability_ratio <= 2.0 / g + 1e-9


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_solvers_agree_on_wellposed_instances(seed):
    a, inst, obs = _planted(10, 14, 2, seed=seed)
    r0 = solve_l0(a, obs.y, SolverConfig(max_sparsity=2))
    rb = solve_bp(a, obs.y, SolverConfig())
    assert r0.support == inst.support
    if np.linalg.norm(rb.alpha_hat - inst.alpha_star) <= 1e-4:
        assert rb.support == r0.support
