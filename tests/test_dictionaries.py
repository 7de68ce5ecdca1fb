import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab.dictionaries import (
    build_dictionary,
    build_sensing,
    compose,
    is_orthonormal,
    mutual_coherence,
    normalize_columns,
    self_coherence,
)
from etrlab.errors import DimensionMismatch, NotNormalized, NotOrthonormal, UnsupportedDimension


def test_identity_dictionary():
    np.testing.assert_array_equal(build_dictionary("identity", 4), np.eye(4))


def test_hadamard_entries_and_orthonormality():
    psi = build_dictionary("hadamard", 4)
    assert np.all(np.abs(psi) == 0.5)
    np.testing.assert_allclose(psi.T @ psi, np.eye(4), atol=1e-12)


def test_hadamard_requires_power_of_two():
    with pytest.raises(UnsupportedDimension):
        build_dictionary("hadamard", 6)


def test_dct_orthonormal():
    psi = build_dictionary("dct", 8)
    np.testing.assert_allclose(psi.T @ psi, np.eye(8), atol=1e-12)


def test_random_orthonormal_deterministic():
    a = build_dictionary("random-orthonormal", 8, seed=7)
    b = build_dictionary("random-orthonormal", 8, seed=7)
    np.testing.assert_array_equal(a, b)
    np.testing.assert_allclose(a.T @ a, np.eye(8), atol=1e-10)
    c = build_dictionary("random-orthonormal", 8, seed=8)
    assert not np.array_equal(a, c)


def test_identity_sensing():
    np.testing.assert_array_equal(build_sensing("identity", 4, 4), np.eye(4))
    with pytest.raises(UnsupportedDimension):
        build_sensing("identity", 3, 4)


def test_row_subsample():
    phi = build_sensing("row-subsample", 2, 4, seed=5)
    assert phi.shape == (2, 4)
    # two distinct rows of the identity
    assert np.all(phi.sum(axis=1) == 1.0)
    assert np.all((phi == 0) | (phi == 1))
    assert not np.array_equal(phi[0], phi[1])


def test_gaussian_column_norm_concentration():
    phi = build_sensing("gaussian", 32, 64, seed=11)
    norms = np.linalg.norm(phi, axis=0)
    assert np.all((norms > 0.5) & (norms < 1.5))


def test_bernoulli_entries():
    phi = build_sensing("bernoulli", 4, 6, seed=2)
    assert np.all(np.abs(phi) == 0.5)


def test_compose_identity_pair():
    phi = build_sensing("identity", 4, 4)
    psi = build_dictionary("identity", 4)
    np.testing.assert_array_equal(compose(phi, psi).a, np.eye(4))


def test_compose_row_selection():
    phi = build_sensing("row-subsample", 2, 4, seed=5)
    psi = build_dictionary("identity", 4)
    np.testing.assert_array_equal(compose(phi, psi).a, phi)


def test_compose_hadamard_entries():
    phi = build_sensing("identity", 4, 4)
    psi = build_dictionary("hadamard", 4)
    assert np.all(np.abs(compose(phi, psi).a) == 0.5)


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(build_sensing("gaussian", 2, 8, seed=1), build_dictionary("identity", 4))


def test_mutual_coherence_identical_bases():
    i4 = build_dictionary("identity", 4)
    assert mutual_coherence(i4, i4) == pytest.approx(1.0, abs=1e-14)


def test_mutual_coherence_identity_hadamard():
    assert mutual_coherence(
        build_dictionary("identity", 4), build_dictionary("hadamard", 4)
    ) == pytest.approx(0.5, abs=1e-14)


def test_mutual_coherence_identity_dct():
    # oracle: the largest |entry| of the orthonormal DCT-II matrix is
    # sqrt(2/d) * cos(pi / (2d)), attained at row 0 of column 1
    d = 8
    expected = np.sqrt(2.0 / d) * np.cos(np.pi / (2 * d))
    got = mutual_coherence(build_dictionary("identity", d), build_dictionary("dct", d))
    assert got == pytest.approx(expected, rel=1e-12)
    assert got >= 1.0 / np.sqrt(d)


def test_mutual_coherence_rejects_nonorthonormal():
    i4 = build_dictionary("identity", 4)
    skew = np.ones((4, 4)) / 2.0
    with pytest.raises(NotOrthonormal):
        mutual_coherence(i4, skew)
    # orthonormal columns that span only part of R^d do not make a basis
    tall = i4[:, :3]
    with pytest.raises(NotOrthonormal):
        mutual_coherence(tall, tall)
    assert is_orthonormal(i4) and not is_orthonormal(skew) and not is_orthonormal(tall)


@given(
    st.sampled_from(["identity", "hadamard", "dct", "random-orthonormal"]),
    st.sampled_from(["identity", "hadamard", "dct", "random-orthonormal"]),
    st.sampled_from([4, 8, 16]),
    st.integers(min_value=0, max_value=100),
)
@settings(max_examples=40, deadline=None)
def test_coherence_bounds_and_symmetry(kind1, kind2, d, seed):
    p1 = build_dictionary(kind1, d, seed=seed)
    p2 = build_dictionary(kind2, d, seed=seed + 1)
    mu = mutual_coherence(p1, p2)
    assert 1.0 / np.sqrt(d) - 1e-12 <= mu <= 1.0 + 1e-12
    assert mu == pytest.approx(mutual_coherence(p2, p1), abs=0.0)


def test_self_coherence_examples():
    assert self_coherence(np.eye(4)) == 0.0
    e1 = np.array([1.0, 0.0])
    dup = np.column_stack([e1, e1])
    assert self_coherence(dup) == pytest.approx(1.0, abs=1e-14)
    e2 = np.array([0.0, 1.0])
    tri = np.column_stack([e1, e2, (e1 + e2) / np.sqrt(2)])
    assert self_coherence(tri) == pytest.approx(1 / np.sqrt(2), rel=1e-12)


def test_self_coherence_single_column():
    assert self_coherence(np.array([[1.0], [0.0]])) == 0.0


def test_self_coherence_normalizes_its_own_columns():
    # the coherence of the columns' directions, whatever their norms: that of
    # normalize_columns(mat); a zero column has no direction
    mat = np.random.default_rng(5).normal(size=(6, 9)) * np.logspace(-3, 3, 9)
    assert self_coherence(mat) == pytest.approx(self_coherence(normalize_columns(mat)), rel=1e-14)
    assert self_coherence(2 * np.eye(3)) == 0.0
    with pytest.raises(NotNormalized, match="zero column"):
        self_coherence(np.column_stack([np.ones(3), np.zeros(3)]))


def test_compose_with_identity_preserves_coherence():
    psi = build_dictionary("hadamard", 8)
    a = compose(build_sensing("identity", 8, 8), psi)
    ident = build_dictionary("identity", 8)
    assert self_coherence(a.a) == pytest.approx(self_coherence(psi), abs=1e-12)
    assert mutual_coherence(ident, psi) == pytest.approx(np.max(np.abs(a.a)), abs=1e-12)


def test_normalize_columns():
    a = np.array([[3.0, 0.0], [4.0, 2.0]])
    n = normalize_columns(a)
    np.testing.assert_allclose(np.linalg.norm(n, axis=0), 1.0)
