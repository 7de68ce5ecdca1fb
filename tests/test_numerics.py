import warnings

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
    coef = least_squares(np.stack([mat.T for mat in members]).transpose(0, 2, 1), y)
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
    gen = np.random.default_rng(3)
    seen = set()
    for trial in range(400):
        m, c = int(gen.integers(2, 8)), int(gen.integers(1, 6))
        mat = gen.normal(size=(m, c))
        if trial % 4 == 1 and c > 1:  # a copy or a multiple of a column
            mat[:, -1] = mat[:, 0] * (1.0 if trial % 8 else 2.0)
        if trial % 4 == 2 and c > 1:  # a copy up to rounding-sized noise
            mat[:, -1] = mat[:, 0] + 1e-13 * gen.normal(size=m)
        if trial % 4 == 3:
            mat[:, 0] = 0.0
        gram, rhs = mat.T @ mat, mat.T @ gen.normal(size=m)
        one = solve_gram(gram, rhs)
        assert one.shape == (c,)
        assert one.tobytes() == solve_gram(gram[None], rhs[None])[0].tobytes()
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


def test_sigma_min_has_the_bits_of_np_linalg_svd():
    subs = [*_perturbation_submatrices(300), *_regime_shaped_matrices(), *_awkward_matrices()]
    assert len(subs) > 300 * 28
    for sub in subs:
        assert _bits(smallest_singular_value(sub)) == _bits(_np_linalg_sigma_min(sub))


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


def _gram_problems():
    # the generator of test_solve_gram_one_matrix_matches_a_stack_of_one, grouped
    # by size into stacks; every fourth stack member is singular only to LU
    gen = np.random.default_rng(3)
    by_size = {}
    for trial in range(400):
        m, c = int(gen.integers(2, 8)), int(gen.integers(1, 6))
        mat = gen.normal(size=(m, c))
        if trial % 4 == 1 and c > 1:  # a copy or a multiple of a column
            mat[:, -1] = mat[:, 0] * (1.0 if trial % 8 else 2.0)
        if trial % 4 == 2 and c > 1:  # a copy up to rounding-sized noise
            mat[:, -1] = mat[:, 0] + 1e-13 * gen.normal(size=m)
        if trial % 4 == 3:
            mat[:, 0] = 0.0
        gram, rhs = mat.T @ mat, mat.T @ gen.normal(size=m)
        by_size.setdefault(c, []).append((gram, rhs))
        yield gram, rhs
    for pairs in by_size.values():
        yield np.stack([g for g, _ in pairs]), np.stack([r for _, r in pairs])


def test_solve_gram_has_the_bytes_of_its_np_linalg_form():
    problems = list(_gram_problems())
    assert len(problems) == 405
    for gram, rhs in problems:
        assert solve_gram(gram, rhs).tobytes() == _solve_gram_before(gram, rhs).tobytes()
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
                [_outcome(solve_gram, gram, rhs) for gram, rhs in problems])

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
