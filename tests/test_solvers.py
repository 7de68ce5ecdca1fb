import re
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
    is_orthonormal,
    normalize_columns,
)
from etrlab.errors import (
    EnumerationTooLarge, EtrLabError, InvalidSetting, InvalidSparsity, NoFeasibleSolution,
    NotNormalized, RankDeficient, Stalled,
)
from etrlab.geometry import colex_supports, gamma_exact
from etrlab.numerics import TOL, least_squares, stack_fit
from etrlab.rng import RandomStream
from etrlab.solvers import (
    SOLVER_NAMES,
    SUPPORT_GUARD,
    CostCounter,
    RecoveryResult,
    SolverConfig,
    run_battery,
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
    inst = plant(psi, k, s.split(2).split_bases(3))
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
    # 400 + C(400, 2) supports fit under the guard, adding C(400, 3) does not
    a = EffectiveSensing(build_sensing("gaussian", 8, 400, seed=1))
    with pytest.raises(EnumerationTooLarge):
        solve_l0(a, np.ones(8), SolverConfig(max_sparsity=8))


def test_one_support_guard_stops_l0_and_k_psi_before_the_same_size(monkeypatch):
    # C(10, 1) + C(10, 2) = 55 supports reach size 2; a guard one lower stops both
    # searches before it, and a guard of 55 stops both before size 3
    psi = np.random.default_rng(6).normal(size=(6, 10))
    assert not is_orthonormal(psi)
    two = psi[:, [2, 5]] @ np.array([1.0, -2.0])
    three = psi[:, [1, 4, 8]] @ np.array([1.0, -2.0, 0.5])

    def k_psi(y):  # the support of y in psi: the l0 search at epsilon = TOL.zero_tau * ||y||
        return solve_l0(EffectiveSensing(psi), y,
                        SolverConfig(epsilon=TOL.zero_tau * np.linalg.norm(y))).support

    searches = (k_psi, lambda y: solve_l0(EffectiveSensing(psi), y, SolverConfig()).support)
    monkeypatch.setattr(solvers, "SUPPORT_GUARD", 55)
    for search in searches:
        assert search(two) == (2, 5)
        with pytest.raises(EnumerationTooLarge, match="exceed 55"):
            search(three)
    monkeypatch.setattr(solvers, "SUPPORT_GUARD", 54)
    for search in searches:
        with pytest.raises(EnumerationTooLarge, match="exceed 54"):
            search(two)


def test_l0_noise_tolerance():
    a, inst, y = _planted(8, 10, 2, seed=5, epsilon=1e-2)
    res = solve_l0(a, y, SolverConfig(epsilon=1e-2, max_sparsity=3))
    assert res.residual_norm <= 1e-2 + 1e-10
    assert len(res.support) <= 2


# The reference solvers below end as the solvers did, through verbatim copies
# of solvers._finish and numerics.detected_support in their np.linalg.norm form,
# so a change to either moves only one side of each comparison.


def _detected_support_before(v):
    return np.flatnonzero(np.abs(v) > TOL.zero_tau * max(float(np.linalg.norm(v)), 1.0))


def _finish_before(a, alpha, y, cost, converged, iterations=0):
    return RecoveryResult(
        alpha_hat=alpha,
        support=tuple(_detected_support_before(alpha)),
        residual_norm=float(np.linalg.norm(a.a @ alpha - y)),
        cost=cost,
        converged=converged,
        iterations=iterations,
    )


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
        return _finish_before(a, np.zeros(n), y, cost, True)
    examined = 0
    for size in range(1, kmax + 1):
        examined += comb(n, size)
        if examined > SUPPORT_GUARD:
            raise EnumerationTooLarge(f"cumulative supports exceed {SUPPORT_GUARD}")
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
                return _finish_before(a, alpha, y, cost, True)
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


def _l0_problems(trials, ys_per_matrix=1):
    """(mat, k, eps, ys): random m x 16 matrices, some with exactly singular
    supports or a zero column, and observations of k-sparse alphas within eps."""
    gen = np.random.default_rng(11)
    for trial in range(trials):
        m, k = int(gen.integers(2, 17)), int(gen.integers(1, 4))
        mat = gen.normal(size=(m, 16))
        if trial % 5 == 0:  # exactly singular supports: a column and a copy or multiple
            mat[:, 7] = mat[:, 3] * (1.0 if trial % 10 else 2.0)
        if trial % 7 == 0:
            mat[:, 5] = 0.0
        eps = 0.01 if trial % 2 else 0.0
        ys = []
        for _ in range(ys_per_matrix):
            alpha = np.zeros(16)
            alpha[gen.choice(16, k, replace=False)] = gen.normal(size=k)
            noise = gen.normal(size=m)
            ys.append(mat @ alpha + eps * noise / np.linalg.norm(noise))
        yield mat, k, eps, ys


@pytest.mark.parametrize("chunk_bytes", [geometry.CHUNK_BYTES, 2000])
def test_l0_search_matches_one_at_a_time_loop(monkeypatch, chunk_bytes):
    # 2000 bytes cuts sizes 2 and 3 into chunks of 5 to 62 supports
    monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
    sizes = []
    for mat, k, eps, (y,) in _l0_problems(300):
        res = _assert_l0_matches_one_at_a_time(
            EffectiveSensing(mat), y, SolverConfig(epsilon=eps, max_sparsity=k))
        sizes.append(-1 if res is None else len(res.support))
    assert {1, 2, 3} <= set(sizes)


def _minimal_support_before(mat, y, tol, max_size, guard):
    """The l0 support search as it was before it kept fits per matrix, verbatim
    but for numerics.least_squares' stack path written out, through the stack-only
    solve_gram of _solve_gram_stacked."""
    n = mat.shape[1]
    tallies = []
    for size in range(1, max_size + 1):
        if sum(comb(n, s) for s in range(1, size + 1)) > guard:
            raise EnumerationTooLarge(f"cumulative supports exceed {guard}")
        examined = nonsingular = 0
        for block, stack in geometry.support_chunks(mat, size):
            a_t = stack.transpose(0, 2, 1)
            coef = _solve_gram_stacked(a_t @ stack, a_t @ y)
            resid = (stack @ coef[:, :, None])[:, :, 0] - y
            norms = np.sqrt(resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
            hits = np.flatnonzero(norms <= tol)
            stop = int(hits[0]) + 1 if hits.size else len(block)
            examined += stop
            nonsingular += int(np.count_nonzero(~np.isnan(coef[:stop, 0])))
            if hits.size:
                tallies.append((size, examined, nonsingular))
                return tuple(int(i) for i in block[stop - 1]), coef[stop - 1], tallies
        tallies.append((size, examined, nonsingular))
    return None, None, tallies


def _assert_l0_matches_the_search_before(a, y, cfg):
    """solve_l0 against _minimal_support_before: the same support, alpha_hat bytes and
    cost counts, those charged per size from the reference's tallies as solve_l0 charged
    them before the search moved into it; or both infeasible. Returns the reference's
    support, None when nothing fits."""
    mat = a.a
    m, n = mat.shape
    cost = CostCounter()
    cost.charge(add=2 * m - 1, mult=m, cmp=1)  # ||y|| feasibility probe
    support, coef, tallies = _minimal_support_before(
        mat, y, cfg.epsilon + TOL.feasibility_slack, cfg.max_sparsity, SUPPORT_GUARD)
    for size, examined, nonsingular in tallies:
        cost.charge_least_squares(m, size, examined)
        cost.charge_residual(m, size, nonsingular)
        cost.charge(cmp=nonsingular)
    if support is None:
        with pytest.raises(NoFeasibleSolution):
            solve_l0(a, y, cfg)
        return None
    alpha = np.zeros(n)
    alpha[list(support)] = coef
    got = solve_l0(a, y, cfg)
    assert got.support == tuple(_detected_support_before(alpha))
    assert got.alpha_hat.tobytes() == alpha.tobytes()
    counts = (got.cost.multiplies, got.cost.additions, got.cost.comparisons)
    assert counts == (cost.multiplies, cost.additions, cost.comparisons)
    return support


@pytest.fixture
def fits_made(monkeypatch):
    """A cold l0 fit memo, and the number of chunk fits computed so far."""
    monkeypatch.setattr(solvers, "_chunk_fits", solvers._ChunkFits(None))
    made = [0]

    def counted(stack):
        made[0] += 1
        return stack_fit(stack)

    monkeypatch.setattr(solvers, "stack_fit", counted)
    return made


@pytest.mark.parametrize("chunk_bytes", [geometry.CHUNK_BYTES, 2000])
def test_l0_fit_memo_cold_and_warm_match_the_search_without_it(monkeypatch, fits_made,
                                                                chunk_bytes):
    monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
    hits = 0
    for mat, k, eps, ys in _l0_problems(100, ys_per_matrix=3):
        a, cfg = EffectiveSensing(mat), SolverConfig(epsilon=eps, max_sparsity=k)
        for y in ys:  # the first search is cold, later ones meet kept fits
            found = _assert_l0_matches_the_search_before(a, y, cfg)
            made = fits_made[0]
            _assert_l0_matches_the_search_before(a, y, cfg)
            assert fits_made[0] == made  # every chunk that search walked is kept
            hits += found is not None
    assert hits > 250


def test_l0_fit_memo_serves_no_stale_fit(fits_made, monkeypatch):
    mat = np.random.default_rng(2).normal(size=(6, 10))
    y = mat[:, [2, 4, 7]] @ np.array([1.0, -0.5, 2.0])

    def search():
        return _assert_l0_matches_the_search_before(
            EffectiveSensing(mat), y, SolverConfig(max_sparsity=3))

    assert search() == (2, 4, 7)
    # 2000 bytes: size 2 in chunks of 20 supports where the kept fits hold all 45
    monkeypatch.setattr(geometry, "CHUNK_BYTES", 2000)
    assert search() == (2, 4, 7)
    made = fits_made[0]
    mat[:, 0] = y / 3.0  # edited in place: now one column fits
    assert search() == (0,)
    assert fits_made[0] == made + 1


def test_l0_fit_memo_holds_at_most_its_bound(fits_made):
    # sizes 1..3 of 40 columns at m = 16 gather about 4.7 MiB of fits
    gen = np.random.default_rng(4)
    a, y = EffectiveSensing(gen.normal(size=(16, 40))), gen.normal(size=16)
    cfg = SolverConfig(max_sparsity=3)
    chunks = sum(geometry.chunk_count(40, size, geometry.chunk_rows(16, size))
                 for size in (1, 2, 3))
    assert _assert_l0_matches_the_search_before(a, y, cfg) is None  # every chunk is walked
    memo = solvers._chunk_fits
    held = sum(block.nbytes + fit.nbytes for block, fit in memo.fits.values())
    assert held == memo.nbytes <= solvers.FIT_MEMO_BYTES
    assert fits_made[0] == chunks > len(memo.fits)
    # the kept chunks are served, the others fitted again and still not kept
    assert _assert_l0_matches_the_search_before(a, y, cfg) is None
    assert fits_made[0] == 2 * chunks - len(memo.fits)
    assert solvers._chunk_fits is memo and memo.nbytes == held


@pytest.mark.parametrize("offset", [-1, 0, 1])
def test_l0_search_hit_at_a_chunk_boundary(offset):
    m, n = 3, 110
    rows = geometry.CHUNK_BYTES // (8 * m * 2)  # size-2 supports per chunk
    assert comb(n, 2) > rows + 1
    mat = np.random.default_rng(5).normal(size=(m, n))
    support = list(colex_supports(n, 2))[rows + offset]
    y = mat[:, list(support)] @ np.array([0.7, -1.3])
    a, cfg = EffectiveSensing(mat), SolverConfig(max_sparsity=2)
    assert _assert_l0_matches_one_at_a_time(a, y, cfg).support == support
    assert _assert_l0_matches_the_search_before(a, y, cfg) == support


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
    with pytest.raises(NotNormalized, match="zero column") as omp_error:
        solve_omp(a, E1, SolverConfig())
    (entry,) = run_battery(a, E1, SolverConfig(), ("omp",))
    assert entry.result is None and entry.error == f"NotNormalized: {omp_error.value}"
    with pytest.raises(NotNormalized) as normalize_error:
        normalize_columns(a.a)
    assert str(omp_error.value) == str(normalize_error.value) == "zero column cannot be normalized"
    assert geometry.gamma_lower_coherence(a, 2) == 0.0


def _solve_omp_unit_columns(a, y, cfg):
    """solve_omp as it was when it required unit-norm columns."""
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    norms = np.linalg.norm(mat, axis=0)
    if not np.allclose(norms, 1.0, atol=1e-8):
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
    return _finish_before(a, alpha, y, cost, converged, iterations=iters)


def _omp_rescaled(a, y, cfg):
    """OMP on the column-normalized matrix, coefficients mapped back: the path
    `solve` took for OMP before solve_omp normalized by itself."""
    norms = np.linalg.norm(a.a, axis=0)
    if np.any(norms == 0.0):
        raise NotNormalized("zero column")
    res = _solve_omp_unit_columns(EffectiveSensing(a.a / norms), y, cfg)
    alpha = res.alpha_hat / norms
    out = _finish_before(a, alpha, y, res.cost, res.converged, iterations=res.iterations)
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
        inst = plant(coeff_basis, 2, RandomStream(31, t).split_bases(3))
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


def test_bp_tied_correlations_join_one_per_step():
    # columns 0 and 1 tie at lam = 2: column 0 joins first, column 1 on a
    # zero-length second step, and the third step reaches lam = 0
    y = np.array([2.0, -2.0, 0.5, 0.0])
    res = solve_bp(I4, y, SolverConfig())
    assert res.alpha_hat.tobytes() == y.tobytes()
    assert (res.iterations, res.converged) == (3, True)


def test_bp_zero_observation():
    res = solve_bp(I4, np.zeros(4), SolverConfig())
    np.testing.assert_allclose(res.alpha_hat, np.zeros(4), atol=1e-12)


def test_converged_is_a_python_bool_when_y_starts_inside_the_ball():
    # a record writes a Python bool as 1/0 but numpy's bool as True/False
    y = np.array([1e-3, 0.0, 0.0, 0.0])
    for entry in run_battery(I4, y, SolverConfig(epsilon=0.01)):
        assert type(entry.result.converged) is bool and entry.result.converged, entry.solver


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
        assert res.converged
        assert np.linalg.norm(a.a @ res.alpha_hat - y) <= eps + 1e-6
        # planted alpha is feasible, so it certifies l1 optimality
        assert np.sum(np.abs(res.alpha_hat)) <= np.sum(np.abs(inst.alpha_star)) + 1e-6


def test_bp_unreachable_observation():
    a = EffectiveSensing(np.array([[1.0, 0.5], [0.0, 0.0]]))
    with pytest.raises(NoFeasibleSolution):
        solve_bp(a, np.array([0.0, 1.0]), SolverConfig(epsilon=0.1))


def test_bp_not_converged_still_returns():
    # a 3-sparse answer takes at least three path steps
    a, inst, y = _planted(16, 32, 3, seed=4)
    res = solve_bp(a, y, SolverConfig(max_iterations=1))
    assert res.iterations == 1
    assert res.converged is False
    assert res.alpha_hat.shape == (32,)


@pytest.mark.parametrize("epsilon", [0.0, 0.01])
@pytest.mark.parametrize("sensing, basis", [("bernoulli", "identity"),
                                            ("row-subsample", "hadamard")])
def test_bp_degenerate_ensembles_are_certified_or_say_so(sensing, basis, epsilon):
    # +-1 entries make exact correlation ties and singular active sets; each
    # answer is finite and repeatable, and either certified optimal (feasible,
    # and no larger in l1 than the feasible planted alpha) or unconverged
    d, m, k = 32, 12, 3
    psi = build_dictionary(basis, d)
    cfg = SolverConfig(epsilon=epsilon)
    outcomes = set()
    for t in range(32):
        s = RandomStream(91, m).split(t)
        phi = build_sensing(sensing, m, d, seed=s.split(0).as_seed())
        inst = plant(psi, k, s.split(1).split_bases(3))
        y = observe(inst.x, phi, epsilon, s.split(2))
        a = compose(phi, psi)
        res, again = solve_bp(a, y, cfg), solve_bp(a, y, cfg)
        assert np.all(np.isfinite(res.alpha_hat))
        assert (again.alpha_hat.tobytes(), again.converged) == (res.alpha_hat.tobytes(),
                                                                 res.converged)
        if res.converged:
            assert res.residual_norm <= epsilon + TOL.feasibility_slack
            assert np.sum(np.abs(res.alpha_hat)) <= np.sum(np.abs(inst.alpha_star)) + 1e-9
        outcomes.add(res.converged)
    assert outcomes == {True, False}  # these seeds reach both outcomes


def _bp_random_shapes(trials):
    """(mat, alpha, y, eps, off_range, distance): every row count from 1 to n,
    repeated rows (rank-deficient A), zero columns, and observations off the
    range of A; the planted alpha is feasible except for the off-range ones.
    distance is y's least-squares distance from range(A)."""
    gen = np.random.default_rng(17)
    for trial in range(trials):
        n, eps = (8, 16, 32, 64)[trial % 4], (0.0, 0.01, 0.1)[trial % 3]
        m = int(gen.integers(1, n + 1))
        mat = gen.normal(size=(m, n))
        if trial % 5 == 0 and m > 1:
            mat[-1] = mat[0]
        if trial % 11 == 0:
            mat[:, int(gen.integers(n))] = 0.0
        k = int(gen.integers(1, max(m // 3, 1) + 1))
        alpha = np.zeros(n)
        alpha[gen.choice(n, k, replace=False)] = gen.normal(size=k)
        noise = gen.normal(size=m)
        off_range = trial % 17 == 0
        y = noise if off_range else mat @ alpha + 0.5 * eps * noise / np.linalg.norm(noise)
        distance = np.linalg.norm(mat @ np.linalg.lstsq(mat, y, rcond=None)[0] - y)
        yield mat, alpha, y, eps, off_range, distance


def test_bp_random_shapes_certify_what_they_return():
    certified = solved = 0
    for mat, alpha, y, eps, off_range, distance in _bp_random_shapes(300):
        try:
            res = solve_bp(EffectiveSensing(mat), y, SolverConfig(epsilon=eps))
        except NoFeasibleSolution:
            assert distance > eps
            continue
        solved += 1
        assert np.all(np.isfinite(res.alpha_hat))
        if res.converged:
            certified += 1
            assert res.residual_norm <= eps + TOL.feasibility_slack
            if not off_range:
                assert np.sum(np.abs(res.alpha_hat)) <= np.sum(np.abs(alpha)) + 1e-9
    assert certified >= 0.98 * solved


@pytest.mark.xfail(strict=True, raises=NoFeasibleSolution,
                   reason="the one-step bar on a dropped column ends the path early "
                          "(ROADMAP item 3)")
def test_bp_solves_the_square_instance_its_drop_bar_strands():
    # trial 153: n = m = 16, eps = 0, y = noise, which lies in range(A) up to
    # rounding; the path drops the 16th column with 15 active, the bar leaves
    # none free to join, and the step runs to lambda = 0 short of y
    mat, _, y, eps, off_range, distance = list(_bp_random_shapes(154))[153]
    assert mat.shape == (16, 16) and eps == 0.0 and off_range and distance < 1e-13
    res = solve_bp(EffectiveSensing(mat), y, SolverConfig(epsilon=eps))
    assert res.converged and res.residual_norm <= TOL.feasibility_slack


def _solve_gram_stacked(gram, rhs):
    """numerics.solve_gram as it was when it took only a (B, c, c) stack."""
    lam = np.linalg.eigvalsh(gram)
    ok = (lam[:, 0] > 0) & (lam[:, 0] >= TOL.rank_rel ** 2 * np.maximum(lam[:, -1], 1e-300))
    coef = np.full(rhs.shape, np.nan)
    try:
        coef[ok] = np.linalg.solve(gram[ok], rhs[ok, :, None])[..., 0]
    except np.linalg.LinAlgError:  # an exactly singular member fails the whole solve
        for i in np.flatnonzero(ok):
            try:
                coef[i] = np.linalg.solve(gram[i], rhs[i])
            except np.linalg.LinAlgError:
                pass
    return coef


def _solve_bp_one_side_at_a_time(a, y, cfg):
    """solve_bp as it was before its step kept buffers: a stack-of-one Gram solve,
    one pass per join side, a free mask rebuilt every step, a vectorized drop test."""
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    eps = cfg.epsilon
    cost = CostCounter()
    x = np.zeros(n)
    res = y.copy()
    corr = mat.T @ y
    cost.charge(mult=n * m, add=n * (m - 1), cmp=n)
    lam = lam_start = float(np.max(np.abs(corr)))
    active: list[int] = []
    dropped = -1
    event = int(np.argmax(np.abs(corr)))
    steps = 0
    converged = ended = np.linalg.norm(y) <= eps or lam == 0.0
    while not ended and steps < cfg.max_iterations:
        if event >= 0:
            active.append(event)
        else:
            dropped = active.pop(~event)
            x[dropped] = 0.0
        signs = np.sign(corr[active])
        sub = mat[:, active]
        steps += 1
        cost.charge_least_squares(m, len(active), 1)
        cost.charge(mult=n * m, add=n * m, cmp=n + len(active))
        d = _solve_gram_stacked((sub.T @ sub)[None], signs[None])[0]
        if np.isnan(d[0]):
            break
        u = sub @ d
        slope = mat.T @ u
        joins = np.full(n, np.inf)
        free = np.ones(n, dtype=bool)
        free[active] = False
        if event < 0:
            free[dropped] = False
        np.divide(lam - corr, 1.0 - slope, out=joins, where=free & (slope < 1.0))
        other = np.full(n, np.inf)
        np.divide(lam + corr, 1.0 + slope, out=other, where=free & (slope > -1.0))
        joins = np.maximum(np.minimum(joins, other), 0.0)
        j = int(np.argmin(joins))
        drops = np.full(len(active), np.inf)
        np.divide(-x[active], d, out=drops, where=d != 0.0)
        drops[drops <= 0.0] = np.inf
        i = int(np.argmin(drops))
        event, gamma = (j, joins[j]) if joins[j] < drops[i] else (~i, drops[i])
        if lam - gamma <= TOL.path_end * lam_start:
            gamma, ended = lam, True
        stop = False
        if eps > 0.0:
            ru, uu, excess = res.dot(u), u.dot(u), res.dot(res) - eps * eps
            disc = ru * ru - uu * excess
            root = excess / (ru + sqrt(disc)) if disc >= 0.0 else np.inf
            stop = root < gamma
            gamma = min(gamma, root)
        x[active] += gamma * d
        res -= gamma * u
        corr -= gamma * slope
        lam -= gamma
        if stop or ended:
            nu = (y - mat @ x) / lam if stop else u
            l1 = float(np.sum(np.abs(x)))
            gap = l1 - (nu.dot(y) - eps * sqrt(nu.dot(nu)))
            converged = bool(np.max(np.abs(mat.T @ nu)) <= 1.0 + TOL.bound_slack
                             and gap <= TOL.bound_slack * max(l1, 1.0))
            break
    result = _finish_before(a, x, y, cost, converged, iterations=steps)
    if ended and result.residual_norm > eps + TOL.reachability:
        raise NoFeasibleSolution("y outside the reachable residual ball")
    return result


def _bp_reference_instances():
    """(A, y, epsilon, cap): phase geometry at d = 64 over the phase m sweep; +-1
    ensembles at d = 32, with exact ties and singular active sets; random shapes
    with zero columns, repeated rows, dense y (off the range of A when a row repeats)
    and small step caps."""
    for epsilon in (0.0, 0.01):
        for m in (4, 6, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48):
            for t in range(2):
                a, _, y = _planted(m, 64, 3, seed=100 * m + t, epsilon=epsilon)
                yield a.a, y, epsilon, 4000
        for sensing, basis in (("bernoulli", "identity"), ("row-subsample", "hadamard"),
                               ("row-subsample", "identity")):
            psi = build_dictionary(basis, 32)
            for m in (8, 12, 16, 24):
                for t in range(6):
                    s = RandomStream(91, m).split(t)
                    phi = build_sensing(sensing, m, 32, seed=s.split(0).as_seed())
                    inst = plant(psi, 3, s.split(1).split_bases(3))
                    yield phi @ psi, observe(inst.x, phi, epsilon, s.split(2)), epsilon, 4000
    gen = np.random.default_rng(29)
    for trial in range(480):
        n, eps = (8, 16, 32, 64)[trial % 4], (0.0, 0.01, 0.1)[trial // 12 % 3]
        m = int(gen.integers(1, n + 1))
        mat = gen.normal(size=(m, n))
        if trial % 5 == 0 and m > 1:
            mat[-1] = mat[0]
        if trial % 7 == 0:
            mat[:, int(gen.integers(n))] = 0.0
        k = int(gen.integers(1, max(m // 3, 1) + 1))
        alpha = np.zeros(n)
        alpha[gen.choice(n, k, replace=False)] = gen.normal(size=k)
        noise = gen.normal(size=m)
        # a dense y takes long paths with many drops; with a repeated row it is off range(A)
        y = noise if trial // 4 % 2 else mat @ alpha + 0.5 * eps * noise / np.linalg.norm(noise)
        yield mat, y, eps, (1, 3, 4000)[trial % 3]


def test_bp_matches_the_one_side_at_a_time_path_bit_for_bit():
    seen = set()
    for mat, y, eps, cap in _bp_reference_instances():
        a, cfg = EffectiveSensing(mat), SolverConfig(epsilon=eps, max_iterations=cap)
        try:
            old = _solve_bp_one_side_at_a_time(a, y, cfg)
        except EtrLabError as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                solve_bp(a, y, cfg)
            seen.add(type(exc).__name__)
            continue
        new = solve_bp(a, y, cfg)
        assert new.alpha_hat.tobytes() == old.alpha_hat.tobytes()
        assert new.support == old.support
        assert (new.iterations, new.converged) == (old.iterations, old.converged)
        assert (new.cost.multiplies, new.cost.additions, new.cost.comparisons) == (
            old.cost.multiplies, old.cost.additions, old.cost.comparisons)
        assert new.residual_norm == old.residual_norm
        seen.add((eps > 0, new.converged, new.iterations == cap))
    assert seen >= {"NoFeasibleSolution", (False, True, False), (True, True, False),
                    (False, False, False), (False, False, True), (True, False, True)}


def test_solve_rescales_omp_on_unnormalized_matrix():
    a, inst, y = _planted(12, 24, 2, seed=6)
    res = solve_omp(a, y, SolverConfig(max_sparsity=2))
    assert res.support == inst.support
    np.testing.assert_allclose(a.a @ res.alpha_hat, y, atol=1e-9)
    battery = run_battery(a, y, SolverConfig(max_sparsity=2))
    omp = next(e for e in battery if e.solver == "omp")
    assert omp.result.alpha_hat.tobytes() == res.alpha_hat.tobytes()


def test_solver_config_is_keyword_only():
    # solvers are named by run_battery's names; a positional name must not
    # land in epsilon
    with pytest.raises(TypeError):
        SolverConfig("omp")


@pytest.mark.parametrize("setting", [{"epsilon": -0.01}, {"max_sparsity": -1}])
def test_solver_config_rejects_negative_settings(setting):
    # once built, basis pursuit would raise NoFeasibleSolution, OMP return an
    # unconverged dense or empty support; a noise level is a setting, not a sparsity
    error = InvalidSparsity if "max_sparsity" in setting else InvalidSetting
    with pytest.raises(error, match=next(iter(setting))):
        SolverConfig(**setting)


def test_solver_config_rejects_an_infinite_epsilon():
    # the noise drawn on an infinite sphere is not finite, nor is any residual bound
    with pytest.raises(InvalidSetting, match="epsilon must be finite"):
        SolverConfig(epsilon=float("inf"))


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
    inst = plant(psi, 1, RandomStream(44).split_bases(3))
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
    a = EffectiveSensing(build_sensing("gaussian", 8, 400, seed=1))
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


def test_battery_raises_on_an_unknown_solver_before_any_runs(monkeypatch):
    # a misspelt name is a programming error, not a failed-trial row beside OMP's
    ran = []
    monkeypatch.setitem(solvers._SOLVE, "omp", lambda *args: ran.append(args))
    a, inst, y = _planted(8, 16, 1, seed=5)
    with pytest.raises(InvalidSetting, match=r"unknown solvers \['lasso'\]"):
        run_battery(a, y, SolverConfig(), ("omp", "lasso"))
    assert not ran


def test_battery_checks_its_names_once(monkeypatch):
    checked = []
    monkeypatch.setattr(solvers, "check_solvers", checked.append)
    a, inst, y = _planted(8, 16, 1, seed=5)
    entries = run_battery(a, y, SolverConfig(max_sparsity=1))
    assert [e.solver for e in entries] == list(SOLVER_NAMES)
    assert checked == [SOLVER_NAMES]


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
