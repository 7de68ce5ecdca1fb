import itertools
import math
from math import comb

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab import geometry
from etrlab.dictionaries import EffectiveSensing, build_sensing, normalize_columns
from etrlab.errors import DegenerateGamma, EnumerationTooLarge, InvalidSparsity, NonFiniteMatrix
from etrlab.geometry import (
    colex_supports,
    gamma_exact,
    gamma_lower_coherence,
    gamma_sampled,
    geometry_report,
    perturbation_check,
)
from etrlab.numerics import TOL, smallest_singular_pair, smallest_singular_value
from etrlab.rng import RandomStream

E1 = np.array([1.0, 0.0])
E2 = np.array([0.0, 1.0])
TRI = EffectiveSensing(np.column_stack([E1, E2, (E1 + E2) / np.sqrt(2)]))


def _random_a(m, n, seed, normalized=False):
    phi = build_sensing("gaussian", m, n, seed=seed)
    if normalized:
        return EffectiveSensing(normalize_columns(phi))
    return EffectiveSensing(phi)


def test_colex_order_is_documented():
    assert list(colex_supports(4, 2)) == [
        (0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 3)
    ]
    assert list(colex_supports(3, 0)) == [()]


@pytest.mark.parametrize("chunk_bytes", [geometry.CHUNK_BYTES, 1, 100])
def test_support_chunks_follow_colex_order(monkeypatch, chunk_bytes):
    monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
    for n in range(1, 13):
        mat = np.arange(3.0 * n).reshape(3, n)
        for r in range(1, n + 1):
            blocks = [block for block, _ in geometry.support_chunks(mat, r)]
            want = sorted(itertools.combinations(range(n), r), key=lambda s: s[::-1])
            assert np.concatenate(blocks).tolist() == [list(s) for s in want]
            assert list(colex_supports(n, r)) == want


def test_colex_unranking_past_int64_binomials():
    # C(69, 34) > 2**63: the unclipped table would overflow
    assert comb(69, 34) > np.iinfo(np.int64).max
    blocks = [block for block, _ in geometry.support_chunks(np.zeros((1, 70)), 67)]
    rows = np.concatenate(blocks)
    assert len(rows) == comb(70, 67)
    assert rows[0].tolist() == list(range(67))
    assert rows[-1].tolist() == list(range(3, 70))
    assert np.all(np.diff(rows, axis=1) > 0)


def test_gamma_exact_identity():
    assert gamma_exact(EffectiveSensing(np.eye(4)), 2) == pytest.approx(1.0, abs=1e-12)


def test_gamma_exact_duplicate_columns_with_witness():
    a = EffectiveSensing(np.column_stack([E1, E1, E2]))
    g, witness, examined = gamma_exact(a, 2, with_witness=True)
    assert g <= 1e-12
    assert examined == 3
    assert witness is not None
    assert np.sum(np.abs(witness) > 1e-12) <= 2
    assert np.linalg.norm(a.a @ witness) <= 1e-10 * np.linalg.norm(witness)
    # kernel direction proportional to (1, -1, 0)
    cosine = abs(witness @ np.array([1.0, -1.0, 0.0])) / (np.linalg.norm(witness) * np.sqrt(2))
    assert cosine == pytest.approx(1.0, abs=1e-10)


def test_gamma_exact_three_column_example():
    assert gamma_exact(TRI, 2) == pytest.approx(np.sqrt(1 - 1 / np.sqrt(2)), rel=1e-10)
    g3, witness, _ = gamma_exact(TRI, 3, with_witness=True)
    assert g3 == 0.0
    ref = np.array([1.0, 1.0, -np.sqrt(2)])
    cosine = abs(witness @ ref) / (np.linalg.norm(witness) * np.linalg.norm(ref))
    assert cosine == pytest.approx(1.0, abs=1e-10)


def test_gamma_exact_size_guard():
    a = _random_a(4, 60, seed=1)
    with pytest.raises(EnumerationTooLarge):
        gamma_exact(a, 5)  # binomial(60, 5) > 1e6


def test_gamma_exact_bad_r():
    with pytest.raises(InvalidSparsity):
        gamma_exact(TRI, 0)


def test_gamma_sampled_identity():
    a = EffectiveSensing(np.eye(4))
    assert gamma_sampled(a, 2, 5, RandomStream(3)) == pytest.approx(1.0, abs=1e-12)


@given(st.integers(min_value=0, max_value=200), st.integers(min_value=1, max_value=40))
@settings(max_examples=40, deadline=None)
def test_gamma_sampled_upper_bounds_exact(seed, trials):
    a = _random_a(6, 8, seed=seed)
    assert gamma_sampled(a, 2, trials, RandomStream(seed, 1)) >= gamma_exact(a, 2) - 1e-12


@given(st.integers(min_value=0, max_value=200))
@settings(max_examples=40, deadline=None)
def test_gamma_monotone_in_r(seed):
    a = _random_a(6, 8, seed=seed)
    gammas = [gamma_exact(a, r) for r in (1, 2, 3)]
    assert gammas[0] >= gammas[1] - 1e-12 >= gammas[2] - 2e-12


@given(st.integers(min_value=0, max_value=200), st.sampled_from([2, 3]))
@settings(max_examples=40, deadline=None)
def test_coherence_bound_below_exact(seed, r):
    a = _random_a(8, 10, seed=seed, normalized=True)
    assert gamma_lower_coherence(a, r) <= gamma_exact(a, r) + 1e-10


@given(st.integers(min_value=0, max_value=200), st.sampled_from([2, 3]),
       st.sampled_from([False, True]))
@settings(max_examples=40, deadline=None)
def test_coherence_bound_below_exact_on_unnormalized_columns(seed, r, rescale):
    a = _random_a(8, 10, seed=seed)
    if rescale:  # column norms spread over two decades
        a = EffectiveSensing(a.a * np.random.default_rng(seed).uniform(0.1, 10.0, size=10))
    lower = gamma_lower_coherence(a, r)
    assert 0.0 <= lower <= gamma_exact(a, r) + 1e-10


@pytest.mark.parametrize("m", [2, 4, 6, 8, 12, 16])
def test_coherence_bound_below_exact_on_regime_shapes(m):
    # regime.cfg's Gaussian sensing, d = n = 16, at each r = 2k it enumerates
    a = _random_a(m, 16, seed=100 + m)
    assert not np.allclose(np.linalg.norm(a.a, axis=0), 1.0, atol=1e-8)
    for r in (2, 4, 6):
        assert 0.0 <= gamma_lower_coherence(a, r) <= gamma_exact(a, r) + 1e-10
    assert gamma_lower_coherence(a, 2) > 0.0 or m == 2


def test_coherence_bound_scales_with_the_smallest_column():
    assert gamma_lower_coherence(EffectiveSensing(3.0 * np.eye(4)), 3) == 3.0
    scaled = EffectiveSensing(TRI.a * np.array([2.0, 0.5, 4.0]))
    assert gamma_lower_coherence(scaled, 2) == pytest.approx(
        0.5 * np.sqrt(1 - 1 / np.sqrt(2)), rel=1e-12)
    assert gamma_lower_coherence(EffectiveSensing(np.column_stack([E1, E2, 0 * E1])), 2) == 0.0


def test_gamma_one_is_smallest_column_norm():
    a = _random_a(6, 8, seed=77)
    assert gamma_exact(a, 1) == pytest.approx(np.min(np.linalg.norm(a.a, axis=0)), rel=1e-10)
    an = _random_a(6, 8, seed=77, normalized=True)
    assert gamma_exact(an, 1) == pytest.approx(1.0, abs=1e-10)


def test_coherence_bound_examples():
    assert gamma_lower_coherence(EffectiveSensing(np.eye(4)), 3) == 1.0
    assert gamma_lower_coherence(TRI, 2) == pytest.approx(np.sqrt(1 - 1 / np.sqrt(2)), rel=1e-12)
    # clamped regime: mu = 1/sqrt(2), r = 4 => 1 - 3 mu < 0
    assert gamma_lower_coherence(TRI, 4) == 0.0


def test_gamma_zero_iff_sparse_kernel_exists():
    # exhaustive null-space cross-check on tiny instances
    def has_sparse_kernel(a, r):
        for support in colex_supports(a.a.shape[1], r):
            sub = a.a[:, list(support)]
            if sub.shape[1] > sub.shape[0]:
                return True
            if np.linalg.svd(sub, compute_uv=False)[-1] <= 1e-10:
                return True
        return False

    for seed in range(30):
        a = _random_a(3, 6, seed=seed)
        for r in (2, 4):
            assert (gamma_exact(a, r) <= 1e-10) == has_sparse_kernel(a, r)


def test_perturbation_check_zero_difference():
    z = np.array([1.0, 0.0, 0.0])
    holds, slack = perturbation_check(TRI, z, z, 0.5)
    assert holds and slack == 0.0


def test_perturbation_check_isometry_equality():
    a = EffectiveSensing(np.eye(3))
    z1 = np.array([1.0, 0.0, 0.0])
    z2 = np.array([0.0, 2.0, 0.0])
    holds, slack = perturbation_check(a, z1, z2, 1.0)
    assert holds
    assert slack == pytest.approx(0.0, abs=1e-12)


def test_perturbation_check_degenerate_gamma():
    with pytest.raises(DegenerateGamma):
        perturbation_check(TRI, np.zeros(3), np.zeros(3), 1e-12)


def test_geometry_report_exact_mode():
    rep = geometry_report(_random_a(8, 12, seed=3, normalized=True), 2)
    assert rep.method == "exact"
    assert rep.gamma_lower <= rep.gamma_exact <= rep.gamma_upper + 1e-15
    assert rep.injective_on_r_sparse == "yes"
    assert rep.supports_examined == 66


def test_geometry_report_sampled_mode(monkeypatch):
    # C(12, 2) = 66 supports: exact at a guard of 66, sampled just below it
    a = _random_a(8, 12, seed=3)
    monkeypatch.setattr(geometry, "EXACT_GUARD", 66)
    assert geometry_report(a, 2, RandomStream(1)).method == "exact"
    monkeypatch.setattr(geometry, "EXACT_GUARD", 65)
    rep = geometry_report(a, 2, RandomStream(1))
    assert rep.method == "sampled"
    assert rep.gamma_exact is None
    assert rep.injective_on_r_sparse == "unknown"
    assert rep.supports_examined == geometry.SAMPLED_SUPPORTS
    assert rep.gamma_upper == gamma_sampled(a, 2, geometry.SAMPLED_SUPPORTS, RandomStream(1))


def test_geometry_report_duplicate_columns():
    a = EffectiveSensing(np.column_stack([E1, E1, E2]))
    rep = geometry_report(a, 2)
    assert rep.injective_on_r_sparse == "no"
    assert rep.witness is not None


def test_geometry_report_says_no_only_when_gamma_exact_finds_a_witness(monkeypatch):
    # sigma_min = 1e-10 sits exactly at the cutoff 1e-10 * max column norm:
    # gamma_exact's strict test finds no kernel direction, so the report says yes
    a = EffectiveSensing(np.diag([1.0, 1e-10]))
    cutoff = geometry._zero_cutoff(a.a)
    g, witness, _ = gamma_exact(a, 2, with_witness=True)
    assert g == cutoff == 1e-10 and witness is None
    rep = geometry_report(a, 2)
    assert rep.method == "exact" and rep.witness is None
    assert rep.injective_on_r_sparse == "yes"
    # sampled, the same support gives the same sigma and the same strict test
    monkeypatch.setattr(geometry, "EXACT_GUARD", 0)
    rep = geometry_report(a, 2, RandomStream(1))
    assert rep.method == "sampled" and rep.gamma_upper == cutoff
    assert rep.injective_on_r_sparse == "unknown"
    rep = geometry_report(EffectiveSensing(np.diag([1.0, 0.5e-10])), 2, RandomStream(1))
    assert rep.injective_on_r_sparse == "no"


@pytest.mark.parametrize("shape", [(3, 4), (4, 4)])
def test_a_zero_matrix_is_not_injective(monkeypatch, shape):
    # the zero cutoff of a zero matrix is 0.0, and sigma_min = 0.0 counts as zero against it
    a = EffectiveSensing(np.zeros(shape))
    assert geometry._zero_cutoff(a.a) == 0.0
    g, witness, _ = gamma_exact(a, 2, with_witness=True)
    assert g == 0.0 and witness is not None
    assert np.count_nonzero(witness) <= 2 and np.linalg.norm(witness) == pytest.approx(1.0)
    assert geometry_report(a, 2).injective_on_r_sparse == "no"
    monkeypatch.setattr(geometry, "EXACT_GUARD", 0)
    rep = geometry_report(a, 2, RandomStream(1))
    assert rep.method == "sampled" and rep.injective_on_r_sparse == "no"


@pytest.mark.parametrize("r", [-1, 0, 5])
def test_report_and_sampled_gamma_raise_the_r_range_error_of_check_exact(r):
    a = EffectiveSensing(np.eye(4))
    with pytest.raises(InvalidSparsity) as expected:
        geometry.check_exact(4, r)
    for call in (lambda: geometry_report(a, r, RandomStream(1)),
                 lambda: gamma_sampled(a, r, 10, RandomStream(1))):
        with pytest.raises(InvalidSparsity) as raised:
            call()
        assert str(raised.value) == str(expected.value) == f"r={r} outside 1..4"


def test_geometry_report_bounds_unnormalized_columns_and_lets_errors_through(monkeypatch):
    rep = geometry_report(_random_a(8, 12, seed=3), 2)
    assert 0.0 < rep.gamma_lower <= rep.gamma_exact

    def broken(a, r):
        raise ValueError("not a normalization problem")

    monkeypatch.setattr(geometry, "gamma_lower_coherence", broken)
    with pytest.raises(ValueError):
        geometry_report(_random_a(8, 12, seed=3, normalized=True), 2)


# ------------------------------------------ chunked enumeration in gamma_exact


def _old_gamma_exact(a, r):
    # verbatim copy of the one-support-at-a-time loop that predates support_chunks
    mat = a.a
    n = mat.shape[1]
    total = comb(n, r)
    best = np.inf
    best_support: tuple[int, ...] = ()
    for support in colex_supports(n, r):
        sigma = smallest_singular_value(mat[:, list(support)])
        if sigma < best:
            best = sigma
            best_support = support
    witness = None
    if geometry._is_zero(best, geometry._zero_cutoff(a.a)):
        _, direction = smallest_singular_pair(mat[:, list(best_support)])
        witness = np.zeros(n)
        witness[list(best_support)] = direction
        best = max(best, 0.0)
    return best, witness, total


def _assert_gamma_matches_old_loop(mat, r):
    a = EffectiveSensing(mat)
    new = gamma_exact(a, r, with_witness=True)
    old = _old_gamma_exact(a, r)
    assert type(new[0]) is type(old[0])
    assert np.float64(new[0]).tobytes() == np.float64(old[0]).tobytes()
    assert (new[1] is None) == (old[1] is None)
    if old[1] is not None:
        assert new[1].tobytes() == old[1].tobytes()
    assert new[2] == old[2]
    return new


def _special_matrices():
    gen = np.random.default_rng(17)
    for trial in range(60):
        m, n = int(gen.integers(1, 7)), int(gen.integers(1, 9))
        mat = gen.normal(size=(m, n))
        if n >= 4 and trial % 3 == 0:  # a copy: gamma = 0 with a witness
            mat[:, 3] = mat[:, 1]
        if n >= 6 and trial % 4 == 0:  # a parallel column, second zero-gamma support
            mat[:, 5] = -2.0 * mat[:, 2]
        if n >= 3 and trial % 5 == 0:
            mat[:, 2] = 0.0
        yield mat
    # exact ties: every support has the same sigma
    yield np.eye(4)
    yield np.column_stack([np.eye(3), np.eye(3)])
    yield np.kron(np.eye(2), np.ones((2, 2)))
    yield np.zeros((0, 3))  # no rows: every support is wide


@pytest.mark.parametrize("chunk_bytes", [geometry.CHUNK_BYTES, 1, 100, 200])
def test_gamma_exact_matches_one_support_at_a_time(monkeypatch, chunk_bytes):
    # 1 byte: one support per chunk; 100 and 200 bytes: chunks of 1 to 12 supports
    monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
    witnesses = wide = 0
    for mat in _special_matrices():
        for r in range(1, mat.shape[1] + 1):
            _, witness, _ = _assert_gamma_matches_old_loop(mat, r)
            witnesses += witness is not None
            wide += r > mat.shape[0]
    assert witnesses > 50 and wide > 50


@pytest.mark.parametrize("position", [-1, 0, 1])
def test_gamma_exact_minimum_at_a_chunk_boundary(monkeypatch, position):
    m, n, r = 4, 12, 2
    monkeypatch.setattr(geometry, "CHUNK_BYTES", 8 * m * r * 5)  # five supports per chunk
    supports = list(colex_supports(n, r))
    for first in (5 + position, 10 + position):
        mat = np.random.default_rng(first).normal(size=(m, n))
        lo, hi = supports[first]
        mat[:, hi] = 3.0 * mat[:, lo]
        later = supports[first + 7]  # a near-copy: the runner-up sits in a later chunk
        mat[:, later[1]] = mat[:, later[0]] + 1e-6 * mat[:, 0]
        g, witness, _ = _assert_gamma_matches_old_loop(mat, r)
        assert g < 1e-12
        assert set(np.flatnonzero(witness)) == {lo, hi}


@pytest.mark.parametrize("chunk_bytes, near_copy, chunk, row", [
    (geometry.CHUNK_BYTES, (10, 11), 0, 65),  # all 66 supports in one chunk, the minimum last
    (8 * 8 * 2 * 5, (10, 11), 13, 0),  # chunks of five: the 66th support alone in the last
    (8 * 8 * 2 * 5, (2, 3), 1, 0),  # the 6th support, first of the second chunk
])
def test_gamma_exact_enumerates_every_support(monkeypatch, chunk_bytes, near_copy, chunk, row):
    # the unique minimum sits on the near-copy pair, which opens or closes a chunk; a
    # gamma_exact that skips its last support or its last chunk returns a larger value
    monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
    m, n, r = 8, 12, 2
    gen = np.random.default_rng(12)
    mat = gen.normal(size=(m, n))
    lo, hi = near_copy
    mat[:, hi] = mat[:, lo] + 1e-3 * gen.normal(size=m)
    blocks = [block.tolist() for block, _ in geometry.support_chunks(mat, r)]
    assert blocks[chunk][row] == list(near_copy) and sum(map(len, blocks)) == comb(n, r)
    assert blocks[-1][-1] == [10, 11]
    sigmas = {s: smallest_singular_value(mat[:, list(s)])
              for s in itertools.combinations(range(n), r)}
    first, second = sorted(sigmas, key=sigmas.get)[:2]
    assert first == near_copy and sigmas[first] < sigmas[second] / 10
    assert gamma_exact(EffectiveSensing(mat), r) == sigmas[near_copy]


@pytest.mark.parametrize("chunk_bytes", [geometry.CHUNK_BYTES, 1, 8 * 4 * 2 * 5, 8 * 4 * 2 * 2])
def test_gamma_exact_never_takes_a_nan_sigma(monkeypatch, chunk_bytes):
    # sigma is NaN on every support holding column 0, marked by the value 7.0 at
    # [0, 0], so chunks lead with NaN; (1, 2) is a parallel pair, colex index 2,
    # behind two NaNs. A matrix holding an inf or NaN is refused before the
    # enumeration, so the NaN sigmas are injected into finite matrices.
    monkeypatch.setattr(geometry, "CHUNK_BYTES", chunk_bytes)
    sigmas = []

    def recorded(sub):
        sigmas.append(np.nan if sub[0, 0] == 7.0 else smallest_singular_value(sub))
        return sigmas[-1]

    monkeypatch.setattr(geometry, "smallest_singular_value", recorded)
    gen = np.random.default_rng(23)
    mats = []
    for trial in range(6):
        mat = gen.normal(size=(4, 8))
        mat[0, 0] = 7.0
        if trial % 2 == 0:
            mat[:, 2] = -3.0 * mat[:, 1]
        mats.append(mat)
    mats.append(np.vstack([np.full((1, 3), 7.0), np.eye(3)]))  # every support NaN
    for mat in mats:
        for r in range(1, min(mat.shape) + 1):  # tall or square: wide supports skip the SVD
            sigmas.clear()
            g, witness, _ = gamma_exact(EffectiveSensing(mat), r, with_witness=True)
            assert sigmas[0] != sigmas[0]  # the first support holds column 0
            finite = [s for s in sigmas if s == s]
            assert g == (min(finite) if finite else np.inf)
            if witness is not None:
                assert witness[0] == 0.0
    assert g == np.inf and witness is None


@pytest.mark.parametrize("entry", [np.inf, -np.inf, np.nan])
def test_gamma_refuses_a_non_finite_matrix_before_any_svd(monkeypatch, entry):
    # an inf made the witness SVD hang, and a NaN hid every support holding it
    def hangs(sub):
        raise AssertionError("the witness SVD ran on a non-finite matrix")

    monkeypatch.setattr(geometry, "smallest_singular_pair", hangs)
    mat = np.random.default_rng(31).normal(size=(4, 8))
    mat[0, 0] = entry
    a = EffectiveSensing(mat)
    for r in (1, 2, 4, 8):
        with pytest.raises(NonFiniteMatrix, match="not finite"):
            gamma_exact(a, r)
        with pytest.raises(NonFiniteMatrix, match="not finite"):
            geometry_report(a, r)
    with pytest.raises(NonFiniteMatrix, match="not finite"):
        gamma_sampled(a, 2, 5, RandomStream(1))
    monkeypatch.setattr(geometry, "EXACT_GUARD", 0)  # the sampled branch
    with pytest.raises(NonFiniteMatrix, match="not finite"):
        geometry_report(a, 2, RandomStream(1))


def test_gamma_keeps_a_finite_matrix_whose_squares_overflow():
    # the cutoff is inf, but every entry is finite: the enumeration runs as before
    mat = np.random.default_rng(37).normal(size=(4, 8)) * 1e160
    mat[:, 5] = mat[:, 3]
    with np.errstate(over="ignore"):
        g, witness, _ = _assert_gamma_matches_old_loop(mat, 2)
    assert witness is not None


def _old_zero_cutoff(a):
    return TOL.gamma_zero * float(np.max(np.linalg.norm(a, axis=0)))


def _rescaled_zero_cutoff(a):
    # _old_zero_cutoff of a scaled by the power of two that brings its largest entry
    # into [1/2, 1), scaled back
    e = math.frexp(float(np.max(np.abs(a))))[1]
    return math.ldexp(_old_zero_cutoff(np.ldexp(a, -e)), e)


def test_zero_cutoff_has_the_bits_of_the_largest_linalg_norm():
    gen = np.random.default_rng(29)
    mats = [np.zeros((0, 3)), np.zeros((4, 5)), np.ones((1, 1))]
    for trial in range(400):
        m, n = int(gen.integers(1, 20)), int(gen.integers(1, 20))
        mat = gen.normal(size=(m, n)) * 10.0 ** gen.integers(-3, 4)
        if trial % 3 == 0:
            mat[:, gen.integers(0, n)] = 0.0
        mats.append(mat)
    for scale in (1e150, 1e-150, 1e160, 1e-160, 1e-170):  # 1e160 squared overflows to inf
        mats += [mat * scale for mat in mats[3:60]]
    overflow = underflow = 0
    for mat in mats:
        with np.errstate(over="ignore"):
            got = geometry._zero_cutoff(mat)
            old = _old_zero_cutoff(mat)
        assert type(got) is float
        # squares that overflow to inf, or underflow to 0 in a nonzero matrix, are
        # rescaled by a power of two; every other matrix keeps the old bits
        if old == np.inf or (old == 0.0 and mat.any()):
            assert 0.0 < got == _rescaled_zero_cutoff(mat) < np.inf
        else:
            assert got == old
        overflow += old == np.inf
        underflow += old == 0.0 and mat.any()
        if old == np.inf:  # where warnings are errors the old form raises, the new rescales
            with pytest.raises(RuntimeWarning, match="overflow encountered in multiply"):
                _old_zero_cutoff(mat)
            assert geometry._zero_cutoff(mat) == _rescaled_zero_cutoff(mat)
    assert overflow > 50 and underflow > 20


@pytest.mark.parametrize("scale", [1e160, 1e-170])
def test_report_rescales_a_matrix_whose_squares_overflow_or_underflow(scale):
    # 1e160 squared overflows to inf and 1e-170 squared underflows to 0: the zero
    # cutoff and the coherence bound see them through a power-of-two scaling, with
    # no overflow warning raised where warnings are errors
    mat = np.random.default_rng(41).normal(size=(6, 8)) * scale
    for r in (2, 3):
        rep = geometry_report(EffectiveSensing(mat), r)
        assert rep.witness is None and rep.injective_on_r_sparse == "yes"
        if r == 2:
            assert 0.0 < rep.gamma_lower <= rep.gamma_exact
    mat[:, 5] = mat[:, 2]
    rep = geometry_report(EffectiveSensing(mat), 2)
    assert rep.witness is not None and rep.injective_on_r_sparse == "no"
    assert np.count_nonzero(rep.witness) == 2


def test_gamma_exact_calls_smallest_singular_value_once_per_support(monkeypatch):
    calls = []

    def counted(sub):
        calls.append(sub.shape)
        return smallest_singular_value(sub)

    monkeypatch.setattr(geometry, "smallest_singular_value", counted)
    for m, n, r in ((6, 8, 2), (3, 7, 4), (16, 16, 3), (5, 5, 5)):
        calls.clear()
        gamma_exact(_random_a(m, n, seed=m * n + r), r)
        assert len(calls) == comb(n, r)
        assert set(calls) == {(m, r)}


def test_perturbation_check_slack_is_the_linalg_norm_form():
    # the slack is ||A h|| / gamma - ||h|| with both norms as np.linalg.norm takes them
    for t in range(300):
        m, n = 1 + t % 7, 2 + t % 11
        a = _random_a(m, n, seed=t)
        s = RandomStream(77, t)
        z1 = s.split(0).gaussians(n) * 10.0 ** (t % 5 - 2)
        z2 = z1 if t % 50 == 0 else s.split(1).gaussians(n)
        g = 0.01 + s.split(2).uniforms(1)[0]
        h = z1 - z2
        lhs = float(np.linalg.norm(h))
        rhs = float(np.linalg.norm(a.a @ h)) / g
        holds, slack = perturbation_check(a, z1, z2, g)
        assert slack == rhs - lhs
        assert holds == (rhs - lhs >= -TOL.bound_slack * max(lhs, 1.0))
