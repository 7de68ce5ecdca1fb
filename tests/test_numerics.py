import warnings
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from hypothesis.extra import numpy as hnp

from etrlab import numerics
from etrlab.dictionaries import EffectiveSensing, build_sensing
from etrlab.errors import IoFailure, RankDeficient
from etrlab.geometry import support_chunks
from etrlab.numerics import (
    TOL,
    least_squares,
    load_matrix,
    load_vector,
    save_matrix,
    smallest_singular_pair,
    smallest_singular_value,
    solve_gram,
    stack_coefficients,
    stack_fit,
    vector_norm,
)
from etrlab.rng import RandomStream

finite = st.floats(min_value=-10, max_value=10, allow_nan=False)


def test_least_squares_identity():
    np.testing.assert_allclose(least_squares(np.eye(2), [3.0, -1.0]), [3.0, -1.0])


def test_least_squares_single_column_projection():
    # oracle: projection coefficient is <a, y> / <a, a>, by hand = 1/sqrt(2)
    a = np.array([[1.0], [1.0]]) / np.sqrt(2)
    c = least_squares(a, [1.0, 0.0])
    assert c[0] == pytest.approx(1 / np.sqrt(2), rel=1e-12)


def test_least_squares_orthonormal_columns_drop_third_coord():
    a = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
    np.testing.assert_allclose(least_squares(a, [2.0, 5.0, 7.0]), [2.0, 5.0])


def test_least_squares_rank_deficient():
    a = np.column_stack([np.ones(3), np.ones(3)])
    with pytest.raises(RankDeficient):
        least_squares(a, np.arange(3.0))


def test_least_squares_stack_marks_singular_members_only():
    # copies and multiples of a column: singular to LU, though the Gram
    # eigenvalue test alone may pass them; the stack solve must not fail
    gen = np.random.default_rng(3)
    members = []
    for i in range(12):
        mat = gen.normal(size=(5, 3))
        if i % 3 == 0:
            mat[:, 2] = mat[:, 0] * (1.0 if i % 2 else 2.0)
        members.append(np.asfortranarray(mat))
    y = gen.normal(size=5)
    # each slice keeps its member's column-major layout, so the BLAS calls match
    stack = np.stack([mat.T for mat in members]).transpose(0, 2, 1)
    coef = stack_coefficients(stack_fit(stack), y)
    assert coef.shape == (12, 3)
    for i, mat in enumerate(members):
        if i % 3 == 0:
            assert np.all(np.isnan(coef[i]))
            with pytest.raises(RankDeficient):
                least_squares(mat, y)
        else:
            assert coef[i].tobytes() == least_squares(mat, y).tobytes()


def test_solve_gram_one_matrix_matches_a_stack_of_one():
    # one (c, c) Gram matrix runs the stack's eigvalsh, rank test and LU solve: the
    # same bytes, and the same all-NaN answer when the Gram matrix is rank deficient
    seen = set()
    for mat, y in _ls_problems():
        c = mat.shape[1]
        gram, rhs = mat.T @ mat, mat.T @ y
        one = solve_gram(gram, rhs)
        assert one.shape == (c,)
        assert one.tobytes() == stack_coefficients(stack_fit(mat[None]), y)[0].tobytes()
        lam = np.linalg.eigvalsh(gram)
        passes = bool(lam[0] > 0 and lam[0] >= TOL.rank_rel ** 2 * max(lam[-1], 1e-300))
        try:
            np.linalg.solve(gram, rhs)
            lu = True
        except np.linalg.LinAlgError:
            lu = False
        if passes and lu:
            assert np.all(np.isfinite(one))
        else:
            assert np.all(np.isnan(one))
        seen.add((passes, lu))
    # well conditioned, rejected by the eigenvalue test, and singular only to LU
    assert seen >= {(True, True), (False, True), (True, False)}
    # the edges of the rank test: one matrix decides on Python floats, a stack on
    # arrays, and both must reject exactly the same Gram matrices
    for gram, passes in _rank_test_edges():
        rhs = np.arange(1.0, len(gram) + 1.0)
        one = solve_gram(gram, rhs)
        assert one.tobytes() == _solve_gram_before(gram[None], rhs[None])[0].tobytes()
        if passes is not None:
            assert bool(np.all(np.isfinite(one))) is passes, gram


def _rank_test_edges():
    """(Gram matrix, whether it passes the rank test, or None where only the
    agreement of both forms is pinned)."""
    rel2 = TOL.rank_rel ** 2
    for hi in (1.0, 3.0, 7.5e5):
        at = rel2 * hi
        # eigvalsh of a diagonal matrix returns its diagonal: the edge is really tested
        assert np.linalg.eigvalsh(np.diag([at, hi])).tolist() == [at, hi]
        yield np.diag([at, hi]), True
        yield np.diag([np.nextafter(at, np.inf), hi]), True
        yield np.diag([np.nextafter(at, 0.0), hi]), False
    for lo in (0.0, -0.0, -1e-30, -1.0):  # lambda_min <= 0
        yield np.diag([lo, 1.0]), False
    for lo, hi in ((5e-324, 1e-301), (1e-310, 1e-305), (1e-305, 1e-301)):  # lambda_max < 1e-300
        yield np.diag([lo, hi]), None
    mat = RandomStream(8).gaussians(12).reshape(4, 3)
    mat[:, 2] = mat[:, 0]  # an exactly duplicated column
    yield mat.T @ mat, None


def _norm_cases():
    gen = np.random.default_rng(11)
    big = gen.normal(size=3000)
    yield big[:64]                       # contiguous
    yield big[::3]                       # strided
    yield big[::-1]                      # reversed
    yield big[-2::-7]                    # reversed and strided
    yield big[:12].reshape(3, 4).T[1]    # a row of a transposed view
    yield np.zeros(17)
    yield np.array([-0.0])
    yield np.array([5e-324, -5e-324, 1e-310])   # subnormal; the squares underflow to 0
    yield np.array([1e-160, 3e-170])             # the squares are subnormal
    yield np.array([1e200, -1e200, 1.0])         # the sum of squares overflows to inf
    yield np.array([np.inf, 1.0])
    yield np.array([-2.5])                       # length 1
    yield np.array([np.nan, 1.0])
    for size in (1, 2, 3, 7, 64, 129, 3072):
        v = gen.normal(size=3 * size) * 10.0 ** gen.uniform(-5, 5)
        yield v[::3]
        yield v[:size]


def test_vector_norm_has_the_bits_of_np_linalg_norm():
    for v in _norm_cases():
        with np.errstate(over="ignore"):  # both warn where the dot overflows
            got, want = vector_norm(v), float(np.linalg.norm(v))
        assert type(got) is float
        assert np.array_equal(got, want, equal_nan=True) and repr(got) == repr(want), v
    gen = np.random.default_rng(12)
    for _ in range(2000):
        big = gen.normal(size=int(gen.integers(3, 400)))
        v = big[int(gen.integers(0, 3))::int(gen.choice([-3, -2, -1, 1, 2, 3]))]
        assert vector_norm(v) == float(np.linalg.norm(v))


@given(hnp.arrays(float, (6, 3), elements=finite), hnp.arrays(float, (6,), elements=finite))
@settings(max_examples=100, deadline=None)
def test_residual_orthogonal_to_columns(a, y):
    s = np.linalg.svd(a, compute_uv=False)
    if s[0] < 1e-6 or s[-1] < 1e-6 * s[0]:
        return
    c = least_squares(a, y)
    residual = y - a @ c
    scale = max(np.linalg.norm(y), 1.0) * max(s[0], 1.0)
    assert np.all(np.abs(a.T @ residual) <= 1e-9 * scale)


def test_sigma_min_identity():
    assert smallest_singular_value(np.eye(4)) == pytest.approx(1.0, abs=1e-14)


def test_sigma_min_duplicate_columns():
    e1 = np.array([1.0, 0.0])
    assert smallest_singular_value(np.column_stack([e1, e1])) <= 1e-12


def test_sigma_min_correlated_pair():
    # Gram eigenvalues 1 +- 1/sqrt(2) by direct 2x2 characteristic polynomial
    e1, e2 = np.eye(2)
    m = np.column_stack([e1, (e1 + e2) / np.sqrt(2)])
    expected = np.sqrt(1 - 1 / np.sqrt(2))
    assert smallest_singular_value(m) == pytest.approx(expected, rel=1e-10)


def test_sigma_min_wide_matrix_is_zero():
    assert smallest_singular_value(np.ones((2, 5))) == 0.0


def test_sigma_min_runs_an_svd_only_on_square_and_tall_inputs(monkeypatch):
    gen = np.random.default_rng(5)
    for shape in ((5, 3), (4, 4), (1, 1), (6, 1)):
        m = gen.normal(size=shape)
        got = smallest_singular_value(m)
        assert type(got) is float
        assert np.float64(got).tobytes() == np.linalg.svd(m, compute_uv=False)[-1].tobytes()

    def refuse(*args, **kwargs):
        raise AssertionError("svd called on a wide matrix")

    monkeypatch.setattr(np.linalg, "svd", refuse)
    monkeypatch.setattr(numerics, "_SVD", refuse)
    for shape in ((1, 2), (3, 7), (0, 2), (5, 6)):
        assert smallest_singular_value(gen.normal(size=shape)) == 0.0


def test_sigma_min_input_contract():
    def bits(x):
        return np.float64(x).tobytes()

    for scalar in (3, np.float64(-3.0), np.array(3.0)):  # 0-d: a 1 x 1 matrix
        assert smallest_singular_value(scalar) == 3.0
    for row in ([1.0, 2.0], np.array([1.0, 2.0])):  # 1-d: one row, so 1 x 2 and wide
        assert smallest_singular_value(row) == 0.0
    reference = np.linalg.svd(np.array([[3.0], [4.0], [0.0]]), compute_uv=False)[-1]
    for tall in ([[3], [4], [0]], np.array([[3], [4], [0]]),
                 np.array([[3.0], [4.0], [0.0]], dtype=">f8")):
        assert bits(smallest_singular_value(tall)) == bits(reference)
    # single precision input is decomposed in double precision
    m32 = np.random.default_rng(3).normal(size=(5, 3)).astype(np.float32)
    assert bits(smallest_singular_value(m32)) == bits(
        np.linalg.svd(m32.astype(float), compute_uv=False)[-1])
    # the tall column-major slices gamma_exact passes, as support_chunks makes them
    mat = np.random.default_rng(8).normal(size=(6, 8))
    block, stack = next(support_chunks(mat, 3))
    for support, sub in zip(block, stack):
        assert sub.shape == (6, 3) and sub.flags.f_contiguous and not sub.flags.c_contiguous
        got = smallest_singular_value(sub)
        assert type(got) is float
        assert bits(got) == bits(np.linalg.svd(sub, compute_uv=False)[-1])
        assert bits(got) == bits(np.linalg.svd(mat[:, list(support)], compute_uv=False)[-1])


def _bits(x):
    return np.float64(x).tobytes()


def _np_linalg_sigma_min(m):
    return np.linalg.svd(m, compute_uv=False)[-1]


def _perturbation_submatrices(trials):
    """The 28 tall 6 x 2 column pairs of perturbation.cfg's first `trials` sensing matrices."""
    base = RandomStream(42)
    for t in range(trials):
        mat = EffectiveSensing(build_sensing("gaussian", 6, 8, seed=base.split(t).split(0).as_seed())).a
        for _, stack in support_chunks(mat, 2):
            yield from stack


def _regime_shaped_matrices():
    """regime.cfg's square and tall (m, r) supports, C- and F-ordered and as strided views."""
    gen = np.random.default_rng(11)
    for m in (2, 4, 6, 8, 12, 16):
        for r in range(1, min(m, 6) + 1):
            mat = gen.normal(size=(m, r))
            yield mat
            yield np.asfortranarray(mat)
            yield gen.normal(size=(2 * m, 3 * r))[::2, ::3]
            yield gen.normal(size=(m + 3, r + 2))[1:m + 1, 2:]


def _awkward_matrices():
    """Rank-deficient, zero-column, huge, tiny and subnormal inputs."""
    gen = np.random.default_rng(12)
    for m, r in ((2, 2), (6, 2), (6, 4), (16, 6)):
        mat = gen.normal(size=(m, r))
        dup = mat.copy()
        dup[:, -1] = dup[:, 0]
        zero = mat.copy()
        zero[:, 0] = 0.0
        yield from (dup, zero, np.zeros((m, r)), mat * 1e300, mat * 1e-300, dup * 1e-300,
                    mat * 1e-310, np.full((m, r), 5e-324))


def _converted_inputs():
    """float32, int, big-endian, Python-list and strided inputs, which the entry
    makes float64 arrays (or takes as they are, when already float64 and 2-D)."""
    gen = np.random.default_rng(13)
    for m, r in ((2, 1), (2, 2), (6, 2), (6, 4), (16, 6)):
        mat = gen.normal(size=(m, r))
        yield mat.astype(np.float32)
        yield np.rint(4.0 * mat).astype(np.int64)
        yield mat.astype(">f8")
        yield mat.tolist()
        yield mat[::-1, ::-1]
        yield gen.normal(size=(3 * m, 2 * r))[::-3, 1::2]


def test_sigma_min_has_the_bits_of_np_linalg_svd():
    subs = [*_perturbation_submatrices(300), *_regime_shaped_matrices(), *_awkward_matrices()]
    assert len(subs) > 300 * 28
    for sub in subs:
        assert _bits(smallest_singular_value(sub)) == _bits(_np_linalg_sigma_min(sub))
    # np.linalg.svd would decompose float32 in single precision; sigma_min takes float64
    for sub in _converted_inputs():
        assert _bits(smallest_singular_value(sub)) == _bits(
            _np_linalg_sigma_min(np.asarray(sub, dtype=float)))
    # alternating widths: each call gets its own matrix's values
    gen = np.random.default_rng(14)
    mats = [gen.normal(size=(8, r)) * 10.0 ** r for r in range(1, 7)]
    expected = [_bits(_np_linalg_sigma_min(mat)) for mat in mats]
    for r in (5, 0, 3, 1, 5, 2, 0, 4, 3, 5, 1, 0, 2):
        assert _bits(smallest_singular_value(mats[r])) == expected[r]


def test_sigma_min_is_thread_safe():
    # two threads, each on its own matrix: every call returns that matrix's sigma_min
    def wrong_results(mat):
        expected = _bits(_np_linalg_sigma_min(mat))
        return sum(_bits(smallest_singular_value(mat)) != expected for _ in range(5000))

    gen = np.random.default_rng(30)
    mats = [gen.normal(size=(40, 30)), 1e3 * gen.normal(size=(40, 30))]
    with ThreadPoolExecutor(max_workers=2) as pool:
        futures = [pool.submit(wrong_results, mat) for mat in mats]
        assert [f.result() for f in futures] == [0, 0]


def _outcome(func, *args):
    """The bytes func returns, or the LinAlgError it raises."""
    with warnings.catch_warnings():  # the gufuncs warn of the invalid values they return
        warnings.simplefilter("ignore", RuntimeWarning)
        try:
            return np.asarray(func(*args)).tobytes()
        except np.linalg.LinAlgError as exc:
            return f"LinAlgError: {exc}"


def _non_finite(shape):
    base = np.eye(*shape)
    for bad in (np.inf, -np.inf, np.nan):
        one = base.copy()
        one[0, -1] = one[-1, 0] = bad
        yield one
        yield np.full(shape, bad)


def test_sigma_min_fails_as_np_linalg_svd_does_on_non_finite_input():
    outcomes = set()
    for mat in _non_finite((6, 2)):
        got = _outcome(smallest_singular_value, mat)
        assert got == _outcome(_np_linalg_sigma_min, mat)
        outcomes.add(got)
    # inf gives NaN, NaN raises
    assert {_bits(np.nan), "LinAlgError: SVD did not converge"} <= outcomes


def test_warnings_as_errors_leave_np_linalgs_outcome():
    # the gufuncs warn of the invalid values they return; raised as errors,
    # those warnings must not stand in for np.linalg's LinAlgError
    def strict(func, *args):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                return np.asarray(func(*args)).tobytes()
            except np.linalg.LinAlgError as exc:
                return f"LinAlgError: {exc}"

    for mat in _non_finite((6, 2)):
        assert strict(smallest_singular_value, mat) == _outcome(_np_linalg_sigma_min, mat)
    for gram in _non_finite((3, 3)):
        rhs = np.ones(3)
        assert strict(solve_gram, gram, rhs) == _outcome(_solve_gram_before, gram, rhs)


def _solve_gram_before(gram, rhs):
    # solve_gram as it was when every call went through np.linalg, verbatim
    lam = np.linalg.eigvalsh(gram)
    ok = (lam[..., 0] > 0) & (lam[..., 0] >= TOL.rank_rel ** 2 * np.maximum(lam[..., -1], 1e-300))
    if gram.ndim == 2:
        if ok:
            try:
                return np.linalg.solve(gram, rhs)
            except np.linalg.LinAlgError:
                pass
        return np.full(rhs.shape, np.nan)
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


def _ls_problems():
    """400 (A, y) pairs, A m x c with 2 <= m < 8 and 1 <= c < 6; every fourth A has
    a column copied, multiplied or copied up to rounding-sized noise, or zeroed."""
    gen = np.random.default_rng(3)
    for trial in range(400):
        m, c = int(gen.integers(2, 8)), int(gen.integers(1, 6))
        mat = gen.normal(size=(m, c))
        if trial % 4 == 1 and c > 1:  # a copy or a multiple of a column
            mat[:, -1] = mat[:, 0] * (1.0 if trial % 8 else 2.0)
        if trial % 4 == 2 and c > 1:  # a copy up to rounding-sized noise
            mat[:, -1] = mat[:, 0] + 1e-13 * gen.normal(size=m)
        if trial % 4 == 3:
            mat[:, 0] = 0.0
        yield mat, gen.normal(size=m)


def _gram_problems():
    # the (gram, rhs) of each of _ls_problems
    for mat, y in _ls_problems():
        yield mat.T @ mat, mat.T @ y


def _stack_problems():
    # _ls_problems grouped by shape into (B, m, c) stacks, each with its members' ys;
    # the copied and multiplied columns make some members singular only to LU
    by_shape = {}
    for mat, y in _ls_problems():
        by_shape.setdefault(mat.shape, []).append((mat, y))
    for pairs in by_shape.values():
        yield np.stack([mat for mat, _ in pairs]), [y for _, y in pairs]


def _stack_outcomes():
    """The outcome of stack_coefficients on each stack of _stack_problems and each
    of its members' ys, with that of _solve_gram_before on the Gram stack."""
    for stack, ys in _stack_problems():
        a_t = stack.transpose(0, 2, 1)
        fit = stack_fit(stack)
        for y in ys:
            yield (_outcome(stack_coefficients, fit, y),
                   _outcome(_solve_gram_before, a_t @ stack, a_t @ y))


def test_solve_gram_has_the_bytes_of_its_np_linalg_form():
    problems = list(_gram_problems())
    assert len(problems) == 400
    for gram, rhs in problems:
        assert solve_gram(gram, rhs).tobytes() == _solve_gram_before(gram, rhs).tobytes()
    stacked = list(_stack_outcomes())
    assert len(stacked) == 400
    for got, want in stacked:
        assert got == want
    outcomes = set()
    for gram in _non_finite((3, 3)):
        got = _outcome(solve_gram, gram, np.ones(3))
        assert got == _outcome(_solve_gram_before, gram, np.ones(3))
        outcomes.add(got)
    assert "LinAlgError: Eigenvalues did not converge" in outcomes


def test_np_linalg_fallbacks_give_the_same_bytes(monkeypatch):
    subs = [*_perturbation_submatrices(20), *_regime_shaped_matrices(), *_awkward_matrices(),
            *_non_finite((6, 2))]
    problems = [*_gram_problems(), *((gram, np.ones(3)) for gram in _non_finite((3, 3)))]

    def outcomes():
        return ([_outcome(smallest_singular_value, sub) for sub in subs],
                [_outcome(solve_gram, gram, rhs) for gram, rhs in problems],
                [got for got, _ in _stack_outcomes()])

    bound = outcomes()
    for name in ("_SVD", "_EIGVALSH", "_SOLVE1"):
        assert getattr(numerics, name) is not None  # numpy 2 has all three
        monkeypatch.setattr(numerics, name, None)
    assert outcomes() == bound


@given(hnp.arrays(float, (5, 4), elements=finite))
@settings(max_examples=100, deadline=None)
def test_sigma_min_bounded_by_column_norms(m):
    sigma = smallest_singular_value(m)
    assert sigma <= np.min(np.linalg.norm(m, axis=0)) + 1e-9


@given(hnp.arrays(float, (5, 4), elements=finite), st.permutations(range(4)))
@settings(max_examples=50, deadline=None)
def test_sigma_min_column_permutation_invariant(m, perm):
    assert smallest_singular_value(m) == pytest.approx(
        smallest_singular_value(m[:, list(perm)]), abs=1e-12
    )


def test_singular_pair_gives_kernel_direction():
    e1, e2 = np.eye(2)
    m = np.column_stack([e1, e2, (e1 + e2) / np.sqrt(2)])
    sigma, v = smallest_singular_pair(m)
    assert sigma <= 1e-12
    np.testing.assert_allclose(m @ v, 0.0, atol=1e-12)
    # kernel is spanned by (1, 1, -sqrt(2)) up to scale
    ref = np.array([1.0, 1.0, -np.sqrt(2)])
    cosine = abs(v @ ref) / (np.linalg.norm(v) * np.linalg.norm(ref))
    assert cosine == pytest.approx(1.0, abs=1e-10)


def test_matrix_csv_roundtrip(tmp_path):
    m = np.array([[1.0, 1 / 3], [np.pi, -2e-17]])
    path = tmp_path / "m.csv"
    save_matrix(path, m)
    assert open(path).readline().strip() == "2,2"
    np.testing.assert_array_equal(load_matrix(path), m)


def test_vector_csv_roundtrip(tmp_path):
    v = np.array([3.0, -1.0, 1e-300])
    path = tmp_path / "v.csv"
    save_matrix(path, v.reshape(-1, 1))
    np.testing.assert_array_equal(load_vector(path), v)


def test_load_matrix_shape_mismatch(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("3,2\n1,2\n3,4\n")
    with pytest.raises(IoFailure):
        load_matrix(path)


def test_load_matrix_missing_file(tmp_path):
    with pytest.raises(IoFailure):
        load_matrix(tmp_path / "nope.csv")
