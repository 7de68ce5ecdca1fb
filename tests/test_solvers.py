import hashlib
from math import comb, sqrt

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab import geometry, solvers
from etrlab.dictionaries import (
    EffectiveSensing,
    build_dictionary,
    build_sensing,
    compose,
    normalize_columns,
)
from etrlab.errors import (
    EnumerationTooLarge, EtrLabError, InvalidSparsity, NoFeasibleSolution, NotNormalized,
    RankDeficient, Stalled,
)
from etrlab.geometry import colex_supports, gamma_exact
from etrlab.numerics import TOL, least_squares
from etrlab.rng import RandomStream
from etrlab.solvers import (
    ADMM_RHO,
    L0_SUPPORT_GUARD,
    CostCounter,
    SolverConfig,
    _finish,
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
TRI = EffectiveSensing(np.column_stack([E1, E2, (E1 + E2) / np.sqrt(2)]))
I4 = EffectiveSensing(np.eye(4))


def _planted(m, n, k, seed, epsilon=0.0, basis="identity"):
    s = RandomStream(seed)
    psi = build_dictionary(basis, n, seed=s.split(0).as_seed())
    phi = build_sensing("gaussian", m, n, seed=s.split(1).as_seed())
    inst = plant(psi, k, s.split(2))
    y = observe(inst.x, phi, epsilon, s.split(3))
    return compose(phi, psi), inst, y


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
        a, inst, y = _planted(5, 8, 2, seed=seed)
        res = solve_l0(a, y, SolverConfig(max_sparsity=3))
        # no strictly smaller support is feasible (exhaustive referee)
        for size in range(len(res.support)):
            for support in colex_supports(8, size):
                cols = a.a[:, list(support)] if support else np.zeros((5, 0))
                if support:
                    coef, *_ = np.linalg.lstsq(cols, y, rcond=None)
                    resid = np.linalg.norm(cols @ coef - y)
                else:
                    resid = np.linalg.norm(y)
                assert resid > 1e-10


def test_l0_no_feasible_solution():
    y = np.array([1.0, 1.0])
    a = EffectiveSensing(np.column_stack([E1]))
    with pytest.raises(NoFeasibleSolution):
        solve_l0(a, y, SolverConfig(max_sparsity=1))


def test_l0_enumeration_guard():
    a = EffectiveSensing(build_sensing("gaussian", 8, 200, seed=1))
    with pytest.raises(EnumerationTooLarge):
        solve_l0(a, np.ones(8), SolverConfig(max_sparsity=8))


def test_l0_noise_tolerance():
    a, inst, y = _planted(8, 10, 2, seed=5, epsilon=1e-2)
    res = solve_l0(a, y, SolverConfig(epsilon=1e-2, max_sparsity=3))
    assert res.residual_norm <= 1e-2 + 1e-10
    assert len(res.support) <= 2


def _ls_on_support_one(mat, y):
    """Support least squares as solve_l0 ran it before the stacked search."""
    gram = mat.T @ mat
    try:
        coef = np.linalg.solve(gram, mat.T @ y)
    except np.linalg.LinAlgError:
        return None
    lam = np.linalg.eigvalsh(gram)
    if lam[0] < TOL.rank_rel ** 2 * max(lam[-1], 1e-300) or lam[0] <= 0:
        return None
    return coef


def _solve_l0_one_at_a_time(a, y, cfg):
    """solve_l0 as it was before the stacked search: one support per step."""
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    kmax = cfg.max_sparsity or min(m, n)
    feas = cfg.epsilon + TOL.feasibility_slack
    cost = CostCounter()
    cost.charge(add=2 * m - 1, mult=m, cmp=1)  # ||y|| feasibility probe
    if np.linalg.norm(y) <= feas:
        return _finish(a, np.zeros(n), y, cost, True)
    examined = 0
    for size in range(1, kmax + 1):
        examined += comb(n, size)
        if examined > L0_SUPPORT_GUARD:
            raise EnumerationTooLarge(f"cumulative supports exceed {L0_SUPPORT_GUARD}")
        for support in colex_supports(n, size):
            cols = mat[:, list(support)]
            cost.charge_least_squares(m, size, 1)
            coef = _ls_on_support_one(cols, y)
            if coef is None:
                continue
            cost.charge_residual(m, size, 1)
            cost.charge(cmp=1)
            if np.linalg.norm(cols @ coef - y) <= feas:
                alpha = np.zeros(n)
                alpha[list(support)] = coef
                return _finish(a, alpha, y, cost, True)
    raise NoFeasibleSolution(f"no support up to size {kmax} fits within epsilon")


def _assert_l0_matches_one_at_a_time(a, y, cfg):
    """Same support, alpha_hat bytes, convergence and costs; or both infeasible."""
    try:
        old = _solve_l0_one_at_a_time(a, y, cfg)
    except NoFeasibleSolution:
        with pytest.raises(NoFeasibleSolution):
            solve_l0(a, y, cfg)
        return None
    new = solve_l0(a, y, cfg)
    assert new.support == old.support
    assert new.alpha_hat.tobytes() == old.alpha_hat.tobytes()
    assert new.converged == old.converged
    counts = (new.cost.multiplies, new.cost.additions, new.cost.comparisons)
    assert counts == (old.cost.multiplies, old.cost.additions, old.cost.comparisons)
    assert all(type(c) is int for c in counts)
    return new


@pytest.mark.parametrize("chunk_bytes", [geometry.CHUNK_BYTES, 2000])
def test_l0_search_matches_one_at_a_time_loop(monkeypatch, chunk_bytes):
    # 2000 bytes cuts sizes 2 and 3 into chunks of 5 to 62 supports
    monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
    gen = np.random.default_rng(11)
    sizes = []
    for trial in range(300):
        m, k = int(gen.integers(2, 17)), int(gen.integers(1, 4))
        mat = gen.normal(size=(m, 16))
        if trial % 5 == 0:  # exactly singular supports: a column and a copy or multiple
            mat[:, 7] = mat[:, 3] * (1.0 if trial % 10 else 2.0)
        if trial % 7 == 0:
            mat[:, 5] = 0.0
        alpha = np.zeros(16)
        alpha[gen.choice(16, k, replace=False)] = gen.normal(size=k)
        eps = 0.01 if trial % 2 else 0.0
        noise = gen.normal(size=m)
        y = mat @ alpha + eps * noise / np.linalg.norm(noise)
        res = _assert_l0_matches_one_at_a_time(
            EffectiveSensing(mat), y, SolverConfig(epsilon=eps, max_sparsity=k))
        sizes.append(-1 if res is None else len(res.support))
    assert {1, 2, 3} <= set(sizes)


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_l0_search_hit_at_a_chunk_boundary(offset):
    m, n = 3, 110
    rows = geometry.CHUNK_BYTES // (8 * m * 2)  # size-2 supports per chunk
    assert comb(n, 2) > rows + 1
    mat = np.random.default_rng(5).normal(size=(m, n))
    support = list(colex_supports(n, 2))[rows + offset]
    y = mat[:, list(support)] @ np.array([0.7, -1.3])
    res = _assert_l0_matches_one_at_a_time(
        EffectiveSensing(mat), y, SolverConfig(max_sparsity=2))
    assert res.support == support


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


def test_omp_rejects_a_zero_column():
    a = EffectiveSensing(np.column_stack([E1, np.zeros(2), E2]))
    with pytest.raises(NotNormalized, match="zero column"):
        solve_omp(a, E1, SolverConfig())
    with pytest.raises(NotNormalized):
        solve("omp", a, E1, SolverConfig())


def _solve_omp_unit_columns(a, y, cfg):
    """solve_omp as it was when it required unit-norm columns."""
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    norms = np.linalg.norm(mat, axis=0)
    if not np.allclose(norms, 1.0, atol=TOL.unit_norm):
        raise NotNormalized("OMP requires unit-norm columns")
    kmax = cfg.max_sparsity or min(m, n)
    feas = cfg.epsilon + TOL.feasibility_slack
    cost = CostCounter()
    support: list[int] = []
    residual = y.copy()
    coef = np.zeros(0)
    iters = 0
    while np.linalg.norm(residual) > feas and len(support) < kmax:
        corr = np.abs(mat.T @ residual)
        cost.charge(mult=n * m + m, add=n * (m - 1), cmp=n)
        corr[support] = -1.0
        pick = int(np.argmax(corr))
        if corr[pick] < TOL.omp_stall:
            raise Stalled(f"correlation max below {TOL.omp_stall:g} with residual above epsilon")
        support.append(pick)
        cols = mat[:, support]
        cost.charge_least_squares(m, len(support), 1)
        try:
            coef = least_squares(cols, y)
        except RankDeficient:
            raise Stalled("selected columns became rank deficient") from None
        residual = y - cols @ coef
        cost.charge_residual(m, len(support), 1)
        iters += 1
    alpha = np.zeros(n)
    if support:
        alpha[support] = coef
    converged = bool(np.linalg.norm(residual) <= feas)
    return _finish(a, alpha, y, cost, converged, iterations=iters)


def _omp_rescaled(a, y, cfg):
    """OMP on the column-normalized matrix, coefficients mapped back: the path
    `solve` took for OMP before solve_omp normalized by itself."""
    norms = np.linalg.norm(a.a, axis=0)
    if np.any(norms == 0.0):
        raise NotNormalized("zero column")
    res = _solve_omp_unit_columns(EffectiveSensing(a.a / norms), y, cfg)
    alpha = res.alpha_hat / norms
    out = _finish(a, alpha, y, res.cost, res.converged, iterations=res.iterations)
    return out


def test_omp_matches_the_rescaled_path_bit_for_bit():
    gen = np.random.default_rng(23)
    seen = set()
    for trial in range(240):
        m, n = int(gen.integers(2, 17)), int((8, 16, 24, 32)[trial % 4])
        k = int(gen.integers(1, 5))
        eps = (0.0, 1e-3, 0.05)[(trial // 4) % 3]
        # columns scaled over four decades: no column has unit norm
        mat = gen.normal(size=(m, n)) * 10.0 ** gen.uniform(-2, 2, n)
        if trial % 9 == 0:
            mat[:, int(gen.integers(n))] = 0.0
        if trial % 7 == 0:  # a column and a multiple of it: rank-deficient picks
            mat[:, 1] = -3.0 * mat[:, 0]
        alpha = np.zeros(n)
        alpha[gen.choice(n, k, replace=False)] = gen.normal(size=k)
        noise = gen.normal(size=m)
        y = mat @ alpha + 0.5 * eps * noise / np.linalg.norm(noise)
        if trial % 11 == 0:
            y = noise  # generic y: a budget of k columns rarely fits it
        if trial % 10 == 0:  # a repeated row and y off the range of A: OMP can stall
            mat[-1] = mat[0]
            y = noise
        cfg = SolverConfig(epsilon=eps, max_sparsity=(0, k, 2 * k)[trial % 3])
        a = EffectiveSensing(mat)
        try:
            old = _omp_rescaled(a, y, cfg)
        except EtrLabError as exc:
            with pytest.raises(type(exc)):
                solve_omp(a, y, cfg)
            seen.add(type(exc).__name__)
            continue
        new = solve_omp(a, y, cfg)
        assert new.alpha_hat.tobytes() == old.alpha_hat.tobytes(), trial
        assert new.support == old.support
        assert new.cost.total == old.cost.total
        assert new.iterations == old.iterations
        assert new.converged is old.converged
        seen.add((eps > 0, new.converged))
    assert seen >= {"NotNormalized", "Stalled", (False, True), (False, False), (True, True), (True, False)}


def test_omp_residual_orthogonal_and_decreasing():
    for seed in range(10):
        a, inst, y = _planted(8, 12, 3, seed=seed)
        an = EffectiveSensing(normalize_columns(a.a))
        res = solve_omp(an, y, SolverConfig(max_sparsity=6))
        residual = y - an.a @ res.alpha_hat
        sel = an.a[:, list(res.support)]
        assert np.all(np.abs(sel.T @ residual) <= 1e-9 * max(np.linalg.norm(y), 1.0))


def test_omp_coherence_regime_matches_l0():
    # A = [I | H], mu = 1/4, so k = 2 < (1 + 1/mu)/2 guarantees equivalence
    h = build_dictionary("hadamard", 16)
    a = EffectiveSensing(np.hstack([np.eye(16), h]))
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
        a, inst, y = _planted(16, 32, 2, seed=1000 + t)
        res = solve_bp(a, y, SolverConfig())
        ok += np.linalg.norm(res.alpha_hat - inst.alpha_star) <= 1e-4
    assert ok >= 38  # >= 95% empirical success region


def test_bp_feasibility_and_l1_certificate():
    for t in range(15):
        eps = 1e-2
        a, inst, y = _planted(12, 24, 2, seed=2000 + t, epsilon=eps)
        cfg = SolverConfig(epsilon=eps)
        res = solve_bp(a, y, cfg)
        assert np.linalg.norm(a.a @ res.alpha_hat - y) <= eps + 1e-6
        # planted alpha is feasible, so it certifies l1 optimality
        assert np.sum(np.abs(res.alpha_hat)) <= np.sum(np.abs(inst.alpha_star)) + 1e-6


def test_bp_unreachable_observation():
    a = EffectiveSensing(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(NoFeasibleSolution):
        solve_bp(a, np.array([0.0, 1.0]), SolverConfig(epsilon=0.1))


def test_bp_not_converged_still_returns():
    a, inst, y = _planted(16, 32, 3, seed=4)
    res = solve_bp(a, y, SolverConfig(max_iterations=3))
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
    a, _, y = _planted(m, n, k, seed=seed, epsilon=eps)
    res = solve_bp(a, y, SolverConfig(epsilon=eps, max_iterations=cap))
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


def _solve_bp_matmul_loop(a, y, cfg):
    """solve_bp as it was before the lean loop: matmul gemvs, u += x; u -= z,
    and the dual residual on every iteration."""
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    cost = CostCounter()
    u_svd, s_all, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s_all > TOL.rank_rel * max(s_all[0], 1e-300)))
    ur, s, vr = u_svd[:, :rank], s_all[:rank], vt[:rank].T  # vr: N x r
    cost.charge(mult=4 * m * m * n, add=4 * m * m * n)  # SVD setup, nominal
    b = ur.T @ y
    y_perp = float(np.linalg.norm(y - ur @ b))
    if y_perp > cfg.epsilon + TOL.reachability:
        raise NoFeasibleSolution("y outside the reachable residual ball")
    eps_r = float(np.sqrt(max(0.0, cfg.epsilon ** 2 - y_perp ** 2)))
    b_over_s = b / s

    rho = ADMM_RHO
    z, z_old, u = np.zeros(n), np.zeros(n), np.zeros(n)
    v, x, w, diff = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    c, dc, miss, work = np.empty(rank), np.empty(rank), np.empty(rank), np.empty(rank)
    converged = False
    bisections = 0
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        np.subtract(z, u, out=v)
        np.matmul(vr.T, v, out=c)
        c_new, bisected = _project_ball(s, b, b_over_s, eps_r, c, miss, work)
        bisections += bisected
        np.subtract(c_new, c, out=dc)
        np.matmul(vr, dc, out=x)
        np.add(v, x, out=x)
        # z = sign(x + u) * max(|x + u| - 1/rho, 0), written over the older iterate
        z_old, z = z, z_old
        np.add(x, u, out=w)
        np.sign(w, out=z)
        np.abs(w, out=w)
        np.subtract(w, 1.0 / rho, out=w)
        np.maximum(w, 0.0, out=w)
        np.multiply(z, w, out=z)
        np.add(u, x, out=u)
        np.subtract(u, z, out=u)
        np.subtract(x, z, out=diff)
        r_primal = sqrt(diff.dot(diff))
        np.subtract(z, z_old, out=diff)
        r_dual = rho * sqrt(diff.dot(diff))
        scale = max(1.0, sqrt(z.dot(z)))
        if r_primal <= cfg.convergence_tol * scale and r_dual <= cfg.convergence_tol * scale:
            converged = True
            break
        if it % 10 == 0:
            if r_primal > 10.0 * r_dual and rho < 1e4:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_primal and rho > 1e-4:
                rho /= 2.0
                u *= 2.0
    # per iteration: ball residual; x update; shrink and dual step; three norms
    cost.charge(
        mult=it * (2 * rank + 2 * n * rank + n + 2 * n + 2) + bisections * 200 * 3 * rank,
        add=it * (3 * rank - 1 + 2 * n * rank + n + 4 * n + 4 * n - 2)
        + bisections * 200 * 2 * rank,
        cmp=it * (n + 2) + bisections * 201,
    )

    alpha = z.copy()
    # guarded debias: least squares on the detected support
    supp = np.flatnonzero(np.abs(z) > TOL.zero_tau * max(float(np.linalg.norm(z)), 1.0))
    if 0 < len(supp) <= m:
        cost.charge_least_squares(m, len(supp), 1)
        try:
            coef = least_squares(mat[:, supp], y)
        except RankDeficient:
            pass
        else:
            cand = np.zeros(n)
            cand[supp] = coef
            feas_ok = np.linalg.norm(mat @ cand - y) <= max(cfg.epsilon, 0.0) + cfg.convergence_tol
            l1_ok = np.sum(np.abs(cand)) <= np.sum(np.abs(z)) + cfg.convergence_tol
            if feas_ok and l1_ok:
                alpha = cand
    return _finish(a, alpha, y, cost, converged, iterations=it)




def _assert_bp_matches_matmul_loop(a, y, cfg):
    """Same iterations, verdict, costs, support and alpha_hat bytes; or the same error."""
    try:
        old = _solve_bp_matmul_loop(a, y, cfg)
    except EtrLabError as exc:
        with pytest.raises(type(exc)):
            solve_bp(a, y, cfg)
        return None
    new = solve_bp(a, y, cfg)
    assert new.iterations == old.iterations
    assert new.converged is old.converged
    assert (new.cost.multiplies, new.cost.additions, new.cost.comparisons) == (
        old.cost.multiplies, old.cost.additions, old.cost.comparisons)
    assert new.support == old.support
    assert new.alpha_hat.tobytes() == old.alpha_hat.tobytes()
    return new


def test_bp_matches_matmul_loop_bit_for_bit():
    # caps straddle the first rho update at iteration 10; every 84 trials hold
    # each (cap, n, epsilon) once. An epsilon > 0 iteration runs the bisection
    # at about 30x the cost, so past cap 11 epsilon > 0 is kept only in the
    # first round at n <= 16.
    caps, epsilons, sizes = (1, 9, 10, 11, 50, 400, 2000), (0.0, 0.01, 0.1), (8, 16, 32, 64)
    gen = np.random.default_rng(17)
    seen = set()
    for trial in range(504):
        cap, n, eps = caps[trial % 7], sizes[(trial // 7) % 4], epsilons[(trial // 28) % 3]
        if eps and cap >= 50 and (trial >= 84 or n > 16):
            eps = 0.0
        m = int(gen.integers(1, n + 1))
        mat = gen.normal(size=(m, n))
        if trial % 5 == 0 and m > 1:  # a repeated row: rank-deficient A
            mat[-1] = mat[0]
        if trial % 11 == 0:
            mat[:, int(gen.integers(n))] = 0.0
        k = int(gen.integers(1, max(m // 3, 1) + 1))
        alpha = np.zeros(n)
        alpha[gen.choice(n, k, replace=False)] = gen.normal(size=k)
        noise = gen.normal(size=m)
        if trial % 13 == 0:
            y = np.zeros(m)
        elif trial % 17 == 0:  # off the range of a rank-deficient A
            y = noise
        else:
            y = mat @ alpha + 0.5 * eps * noise / np.linalg.norm(noise)
        res = _assert_bp_matches_matmul_loop(
            EffectiveSensing(mat), y, SolverConfig(epsilon=eps, max_iterations=cap))
        seen.add("error" if res is None else (eps > 0, res.converged))
    assert seen == {"error", (False, True), (False, False), (True, True), (True, False)}


def test_solve_rescales_omp_on_unnormalized_matrix():
    a, inst, y = _planted(12, 24, 2, seed=6)
    res = solve("omp", a, y, SolverConfig(max_sparsity=2))
    assert res.support == inst.support
    np.testing.assert_allclose(a.a @ res.alpha_hat, y, atol=1e-9)
    battery = run_battery(a, y, SolverConfig(max_sparsity=2))
    omp = next(e for e in battery if e.solver == "omp")
    assert omp.result.alpha_hat.tobytes() == res.alpha_hat.tobytes()


def test_solver_config_is_keyword_only():
    # the solver is named by solve(name, ...); a positional name must not
    # land in epsilon
    with pytest.raises(TypeError):
        SolverConfig("omp")


@pytest.mark.parametrize("setting", [{"epsilon": -0.01}, {"max_sparsity": -1}])
def test_solver_config_rejects_negative_settings(setting):
    # once built, basis pursuit would raise NoFeasibleSolution, OMP return an
    # unconverged dense or empty support
    with pytest.raises(InvalidSparsity, match=next(iter(setting))):
        SolverConfig(**setting)


# ------------------------------------------------------------- battery


def test_cost_counters_deterministic():
    a, inst, y = _planted(8, 12, 2, seed=9)
    t1 = solve_l0(a, y, SolverConfig(max_sparsity=2)).cost
    t2 = solve_l0(a, y, SolverConfig(max_sparsity=2)).cost
    assert (t1.multiplies, t1.additions, t1.comparisons) == (
        t2.multiplies, t2.additions, t2.comparisons
    )
    assert t1.total == t1.multiplies + t1.additions + t1.comparisons
    assert t1.total > 0


def test_battery_identity_all_agree():
    psi = build_dictionary("identity", 4)
    inst = plant(psi, 1, RandomStream(44))
    a = EffectiveSensing(np.eye(4))
    entries = run_battery(a, inst.x)
    assert [e.solver for e in entries] == ["l0-exhaustive", "omp", "basis-pursuit"]
    for e in entries:
        assert e.error is None
        assert e.result.support == inst.support


def test_battery_cost_ordering_16x32():
    a, inst, y = _planted(16, 32, 3, seed=21)
    entries = {e.solver: e for e in run_battery(a, y, SolverConfig(max_sparsity=3))}
    total_l0 = entries["l0-exhaustive"].result.cost.total
    assert total_l0 > entries["basis-pursuit"].result.cost.total
    assert total_l0 > entries["omp"].result.cost.total


def test_battery_records_failures_without_aborting():
    a = EffectiveSensing(build_sensing("gaussian", 8, 200, seed=1))
    entries = run_battery(a, np.ones(8), SolverConfig(max_sparsity=8))
    l0 = next(e for e in entries if e.solver == "l0-exhaustive")
    assert l0.result is None and "EnumerationTooLarge" in l0.error
    assert any(e.result is not None for e in entries)


def test_battery_lets_programming_errors_crash(monkeypatch):
    def broken(*args, **kwargs):
        raise TypeError("bug in a solver")

    monkeypatch.setitem(solvers._SOLVE, "basis-pursuit", broken)
    a, inst, y = _planted(8, 16, 1, seed=5)
    with pytest.raises(TypeError, match="bug in a solver"):
        run_battery(a, y)


def test_l0_stability_bound_with_exact_support():
    # ||x_hat - x|| <= 2 eps / gamma_2k for the oracle with support size <= k
    for t in range(10):
        eps = 1e-2
        a, inst, y = _planted(10, 12, 2, seed=3000 + t, epsilon=eps)
        g = gamma_exact(a, 4)
        if g <= 1e-10:
            continue
        res = solve_l0(a, y, SolverConfig(epsilon=eps, max_sparsity=2))
        assert len(res.support) <= 2
        x_hat = build_dictionary("identity", 12) @ res.alpha_hat
        assert float(np.linalg.norm(x_hat - inst.x)) / eps <= 2.0 / g + 1e-9


@given(st.integers(min_value=0, max_value=300))
@settings(max_examples=25, deadline=None)
def test_solvers_agree_on_wellposed_instances(seed):
    a, inst, y = _planted(10, 14, 2, seed=seed)
    r0 = solve_l0(a, y, SolverConfig(max_sparsity=2))
    rb = solve_bp(a, y, SolverConfig())
    assert r0.support == inst.support
    if np.linalg.norm(rb.alpha_hat - inst.alpha_star) <= 1e-4:
        assert rb.support == r0.support
