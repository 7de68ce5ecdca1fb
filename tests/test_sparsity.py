import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab.dictionaries import (EffectiveSensing, build_dictionary, build_sensing, compose,
                                 mutual_coherence)
from etrlab.errors import (DimensionMismatch, InvalidSetting, InvalidSparsity, NotOrthonormal,
                           ZeroSignal)
from etrlab.numerics import TOL
from etrlab.rng import RandomStream
from etrlab.solvers import SolverConfig, solve_l0
from etrlab.sparsity import (
    MIN_COEFF,
    PlantedInstance,
    effective_sparsity,
    observe,
    plant,
    validate_instance,
)


def _k_psi_l0(x, psi):
    """Support of x in a general psi: the l0 search at epsilon = TOL.zero_tau * ||x||."""
    cfg = SolverConfig(epsilon=TOL.zero_tau * np.linalg.norm(x))
    return solve_l0(EffectiveSensing(psi), x, cfg).support


def test_complexity_identity_basis_counts_nonzeros():
    assert effective_sparsity(np.array([0.0, 3.0, 0.0, -1.0]), build_dictionary("identity", 4)) == 2


def test_complexity_constant_vector_in_hadamard():
    # the constant vector is the first Hadamard column: one coefficient
    x = np.ones(4) / 2.0
    assert effective_sparsity(x, build_dictionary("hadamard", 4)) == 1


def test_complexity_spike_in_hadamard_is_dense():
    x = np.zeros(4)
    x[0] = 1.0
    assert effective_sparsity(x, build_dictionary("hadamard", 4)) == 4


@pytest.mark.parametrize("gap", [1e-13, 1e-7])
def test_complexity_general_matrix_with_near_duplicate_column(gap):
    # e1 = (col1 - col0) / gap exactly, but the normal equations on {0, 1}
    # square a condition number of about 1/gap: at 1e-13 the pair is
    # singular to the rank test, at 1e-7 its fit misses tau, so both need
    # the three columns {2, 3, 4}.
    psi = np.zeros((4, 5))
    psi[0, 0] = psi[2, 2] = psi[3, 3] = 1.0
    psi[:, 1] = [1.0, gap, 0.0, 0.0]
    psi[1:, 4] = 1.0
    assert _k_psi_l0(np.array([0.0, 1.0, 0.0, 0.0]), psi) == (2, 3, 4)
    assert _k_psi_l0(np.array([0.3, 1.0, 0.0, 0.0]), psi) == (0, 2, 3, 4)


def test_complexity_zero_signal():
    with pytest.raises(ZeroSignal):
        effective_sparsity(np.zeros(4), build_dictionary("identity", 4))


def test_effective_sparsity_rejects_a_basis_that_is_not_orthonormal():
    psi = np.eye(4)
    psi[0, 1] = 0.5
    with pytest.raises(NotOrthonormal):
        effective_sparsity(np.ones(4), psi)
    with pytest.raises(NotOrthonormal):
        effective_sparsity(np.ones(4), np.eye(4, 5))


def test_effective_sparsity_rejects_a_signal_of_another_length():
    with pytest.raises(DimensionMismatch, match="psi has 4 rows, x has 5 entries"):
        effective_sparsity(np.ones(5), build_dictionary("hadamard", 4))


def test_complexity_general_matrix_enumerates():
    # overcomplete matrix: x equals the third column; enumeration finds size 1
    e1, e2 = np.eye(2)
    mat = np.column_stack([e1, e2, (e1 + e2) / np.sqrt(2)])
    assert _k_psi_l0((e1 + e2) / np.sqrt(2), mat) == (2,)


def test_effective_sparsity_matched_basis():
    psi = build_dictionary("random-orthonormal", 16, seed=4)
    inst = plant(psi, 3, RandomStream(8).split_bases(3))
    assert effective_sparsity(inst.x, psi) == 3


def test_effective_sparsity_spike_in_hadamard16():
    x = np.zeros(16)
    x[0] = 1.0
    assert effective_sparsity(x, build_dictionary("hadamard", 16)) == 16


def test_effective_sparsity_generic_mismatch_is_dense():
    ident = build_dictionary("identity", 32)
    dense = 0
    for t in range(200):
        s = RandomStream(1234, t)
        psi = build_dictionary("random-orthonormal", 32, seed=s.split(0).as_seed())
        inst = plant(psi, 4, s.split(1).split_bases(3))
        dense += effective_sparsity(inst.x, ident) == 32
    assert dense >= 198  # >= 99% of draws


@given(st.integers(min_value=0, max_value=500), st.sampled_from([4, 8, 16]))
@settings(max_examples=60, deadline=None)
def test_uncertainty_product_bound(seed, d):
    x = RandomStream(seed, 99).gaussians(d)
    p1 = build_dictionary("identity", d)
    p2 = build_dictionary("hadamard", d)
    mu = mutual_coherence(p1, p2)
    k1 = effective_sparsity(x, p1)
    k2 = effective_sparsity(x, p2)
    assert k1 * k2 >= 1.0 / mu ** 2 - 1e-9


def test_subgroup_extremal_equality_d16():
    x = np.zeros(16)
    x[:4] = 1.0  # indicator of the XOR subgroup {0, 1, 2, 3}
    k_i = effective_sparsity(x, build_dictionary("identity", 16))
    k_h = effective_sparsity(x, build_dictionary("hadamard", 16))
    assert k_i == 4 and k_h == 4
    assert k_i * k_h == 16


def test_plant_basics():
    psi = build_dictionary("identity", 4)
    inst = plant(psi, 1, RandomStream(0, 1).split_bases(3))
    assert np.sum(inst.alpha_star != 0) == 1
    assert np.sum(inst.x != 0) == 1
    validate_instance(psi, inst)


def test_plant_full_density_boundary():
    psi = build_dictionary("identity", 6)
    inst = plant(psi, 6, RandomStream(9).split_bases(3))
    assert np.all(inst.alpha_star != 0)
    assert np.min(np.abs(inst.alpha_star)) >= 0.1


def test_plant_deterministic():
    psi = build_dictionary("random-orthonormal", 8, seed=3)
    a = plant(psi, 3, RandomStream(5, 2).split_bases(3))
    b = plant(psi, 3, RandomStream(5, 2).split_bases(3))
    np.testing.assert_array_equal(a.alpha_star, b.alpha_star)


def _old_plant(psi, k, stream):
    """Verbatim copy of plant as it built alpha with numpy arrays."""
    n = psi.shape[1]
    if not 1 <= k <= n:
        raise InvalidSparsity(f"k={k} outside 1..{n}")
    support = stream.split(0).choose_without_replacement(n, k)
    signs = np.where(stream.split(1).uniforms(k) < 0.5, -1.0, 1.0)
    magnitudes = MIN_COEFF + np.abs(stream.split(2).gaussians(k))
    alpha = np.zeros(n)
    alpha[support] = signs * magnitudes
    return PlantedInstance(alpha_star=alpha, x=psi @ alpha, k=k)


# k = 1, 2, 3 and 20 on 10^4 streams each; then k = 12, 13, 16 and 17, and n = 64,
# on fewer
PLANT_SHAPES = [pytest.param(24, k, 10_000, id=str(k)) for k in (1, 2, 3, 20)]
PLANT_SHAPES += [pytest.param(24, k, 2_500, id=str(k)) for k in (12, 13, 16, 17)]
PLANT_SHAPES += [pytest.param(64, 33, 2_500, id="n64-33")]


@pytest.mark.parametrize("n, k, streams", PLANT_SHAPES)
def test_plant_matches_array_form_on_many_streams(n, k, streams):
    psi = build_dictionary("random-orthonormal", n, seed=k)
    base = RandomStream(31, k)
    for t in range(streams):
        s = base.split(t)
        new, old = plant(psi, k, s.split_bases(3)), _old_plant(psi, k, s)
        assert np.array_equal(new.alpha_star, old.alpha_star), t
        assert new.alpha_star.tobytes() == old.alpha_star.tobytes()
        assert new.x.tobytes() == old.x.tobytes()
        assert new.k == old.k


def test_plant_invalid_k():
    psi = build_dictionary("identity", 4)
    with pytest.raises(InvalidSparsity):
        plant(psi, 0, RandomStream(1).split_bases(3))
    with pytest.raises(InvalidSparsity):
        plant(psi, 5, RandomStream(1).split_bases(3))


def test_observe_noiseless():
    phi = build_sensing("identity", 4, 4)
    x = np.array([1.0, 2.0, 3.0, 4.0])
    np.testing.assert_array_equal(observe(x, phi, 0.0, RandomStream(1)), x)
    phi = build_sensing("gaussian", 6, 8, seed=2)
    x = RandomStream(3).gaussians(8)
    np.testing.assert_array_equal(observe(x, phi, 0.0, RandomStream(4)), phi @ x)


def test_observe_noise_attains_bound():
    phi = build_sensing("gaussian", 6, 8, seed=2)
    x = RandomStream(3).gaussians(8)
    y = observe(x, phi, 0.5, RandomStream(4))
    assert np.linalg.norm(y - phi @ x) == pytest.approx(0.5, abs=1e-12)


@pytest.mark.parametrize("epsilon", [float("inf"), float("nan")])
def test_observe_rejects_a_non_finite_epsilon(epsilon):
    phi = build_sensing("gaussian", 6, 8, seed=2)
    with pytest.raises(InvalidSetting, match="epsilon must be finite"):
        observe(RandomStream(3).gaussians(8), phi, epsilon, RandomStream(4))


@pytest.mark.parametrize("epsilon", [float("nan"), float("inf"), -1.0])
def test_observe_and_solver_config_reject_an_epsilon_with_one_message(epsilon):
    phi = build_sensing("gaussian", 6, 8, seed=2)
    with pytest.raises(InvalidSetting) as observed:
        observe(RandomStream(3).gaussians(8), phi, epsilon, RandomStream(4))
    with pytest.raises(InvalidSetting) as configured:
        SolverConfig(epsilon=epsilon)
    assert str(observed.value) == str(configured.value) == (
        f"epsilon must be finite and >= 0, got {epsilon}")


def test_observe_dimension_mismatch():
    phi = build_sensing("gaussian", 3, 5, seed=0)
    with pytest.raises(DimensionMismatch):
        observe(np.ones(4), phi, 0.0, RandomStream(0))


def test_plant_observe_recover_via_l0():
    # m >= 2k with gamma_2k > 0: the exhaustive oracle recovers the plant
    psi = build_dictionary("random-orthonormal", 10, seed=6)
    for t in range(10):
        s = RandomStream(60, t)
        inst = plant(psi, 2, s.split(0).split_bases(3))
        phi = build_sensing("gaussian", 6, 10, seed=s.split(1).as_seed())
        y = observe(inst.x, phi, 0.0, s.split(2))
        res = solve_l0(compose(phi, psi), y, SolverConfig(max_sparsity=3))
        np.testing.assert_allclose(res.alpha_hat, inst.alpha_star, atol=1e-8)
