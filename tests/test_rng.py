import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from etrlab.config import load_config
from etrlab.errors import InvalidSparsity
from etrlab.harness import perturbation_bases
from etrlab.rng import (
    GAMMA,
    MASK64,
    PAIR_DRAW,
    RandomStream,
    base_uniforms,
    fisher_yates,
    mix64,
    split_indices,
    stream_bases,
)

SEEDS = st.integers(min_value=0, max_value=MASK64)


def test_same_stream_same_values():
    a = RandomStream(42, 3).gaussians(8)
    b = RandomStream(42, 3).gaussians(8)
    np.testing.assert_array_equal(a, b)


def test_empty_draw():
    assert RandomStream(1).gaussians(0).shape == (0,)
    assert RandomStream(1).uniforms(0).shape == (0,)


def test_gaussian_moments():
    g = RandomStream(2024, 0).gaussians(10 ** 5)
    assert abs(g.mean()) < 0.02
    assert abs(g.var() - 1.0) < 0.05


def test_uniform_serial_correlation():
    for idx in (0, 1, 17):
        u = RandomStream(99, idx).uniforms(10 ** 5)
        r = np.corrcoef(u[:-1], u[1:])[0, 1]
        assert abs(r) < 0.02


def test_distinct_streams_differ():
    a = RandomStream(5, 0).uniforms(32)
    b = RandomStream(5, 1).uniforms(32)
    assert not np.array_equal(a, b)


@given(SEEDS, st.integers(min_value=0, max_value=2 ** 32), st.integers(min_value=1, max_value=64))
@settings(max_examples=30, deadline=None)
def test_determinism_property(seed, idx, count):
    s1 = RandomStream(seed, idx)
    s2 = RandomStream(seed, idx)
    np.testing.assert_array_equal(s1.uniforms(count), s2.uniforms(count))
    np.testing.assert_array_equal(s1.gaussians(count), s2.gaussians(count))


@given(SEEDS)
@settings(max_examples=50, deadline=None)
def test_mix64_stays_in_range(z):
    assert 0 <= mix64(z) <= MASK64


def test_uniforms_in_unit_interval():
    u = RandomStream(7).uniforms(4096)
    assert np.all(u >= 0.0) and np.all(u < 1.0)


def test_choose_without_replacement():
    for k in (1, 4, 10):
        picks = RandomStream(3, k).choose_without_replacement(10, k)
        assert len(set(picks.tolist())) == k
        assert all(0 <= p < 10 for p in picks)


@pytest.mark.parametrize("n, k", [(3, 5), (0, 1), (4, -1), (0, -1), (2, 40)])
def test_choose_rejects_k_outside_0_to_n(n, k):
    with pytest.raises(InvalidSparsity):
        RandomStream(3).choose_without_replacement(n, k)
    if k >= 0:
        with pytest.raises(InvalidSparsity):
            fisher_yates(n, [0.5] * k)


def test_choose_covers_all_positions():
    # every index shows up across many draws (sanity against bias bugs)
    seen = set()
    for t in range(200):
        seen.update(RandomStream(11, t).choose_without_replacement(8, 2).tolist())
    assert seen == set(range(8))


def test_split_reproducible_and_distinct():
    s = RandomStream(123, 4)
    assert s.split(2) == RandomStream(123, 4).split(2)
    assert s.split(1) != s.split(2)


def test_known_reference_values():
    # frozen outputs; any change here silently breaks every shipped report
    u = RandomStream(42, 0).uniforms(3)
    assert u.tolist() == pytest.approx(
        [0.006083298670230497, 0.2881313913458531, 0.970540546300475], abs=0.0
    )
    g = RandomStream(42, 0).gaussians(2)
    assert g.tolist() == pytest.approx(
        [-0.02621479095083326, 0.1073151404407629], abs=0.0
    )


# ------------------------------------------------ draws on Python ints and arrays
# Verbatim copies of the numpy-only draws that predate the Python-int paths
# and the in-place array path; the current draws must match them byte for
# byte.


def _mix64_array(z):
    # uint64 arrays wrap silently, matching the masked Python-int path
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def _old_words(stream, count, offset):
    base = np.uint64(stream._base)
    idx = np.arange(offset + 1, offset + count + 1, dtype=np.uint64)
    return _mix64_array(base + idx * np.uint64(GAMMA))


def _old_uniforms(stream, count, offset=0):
    if count == 0:
        return np.zeros(0)
    return (_old_words(stream, count, offset) >> np.uint64(11)) * 2.0 ** -53


def _old_gaussians(stream, count):
    if count == 0:
        return np.zeros(0)
    pairs = (count + 1) // 2
    u = _old_uniforms(stream, 2 * pairs)
    u1 = 1.0 - u[0::2]
    u2 = u[1::2]
    r = np.sqrt(-2.0 * np.log(u1))
    theta = 2.0 * np.pi * u2
    out = np.empty(2 * pairs)
    out[0::2] = r * np.cos(theta)
    out[1::2] = r * np.sin(theta)
    return out[:count]


def _old_integers_below(stream, bounds):
    bounds = np.asarray(bounds, dtype=np.int64)
    u = _old_uniforms(stream, len(bounds))
    return np.minimum((u * bounds).astype(np.int64), bounds - 1)


def _old_choose_without_replacement(stream, n, k):
    pool = np.arange(n)
    draws = _old_integers_below(stream, np.arange(n, n - k, -1))
    for i, r in enumerate(draws):
        j = i + int(r)
        pool[i], pool[j] = pool[j], pool[i]
    return np.sort(pool[:k])


def _same_bytes(new, old):
    assert new.dtype == old.dtype
    assert new.shape == old.shape
    assert new.tobytes() == old.tobytes()


# stream indices from 0 to 2^63, including values whose bases sit near 2^64
STREAMS = [RandomStream(seed, idx) for seed in (0, 42, MASK64)
           for idx in (0, 1, 2 ** 32, 2 ** 63 - 1, 2 ** 63)]


@pytest.mark.parametrize("stream", STREAMS, ids=lambda s: f"{s.master_seed}-{s.stream_index}")
def test_draws_match_numpy_only_path(stream):
    for count in range(41):  # across PAIR_DRAW
        _same_bytes(stream.uniforms(count), _old_uniforms(stream, count))
        _same_bytes(np.array(base_uniforms(stream.as_seed(), count)), _old_uniforms(stream, count))
        _same_bytes(stream.gaussians(count), _old_gaussians(stream, count))


@given(SEEDS, st.integers(min_value=0, max_value=2 ** 63), st.data())
@settings(max_examples=200, deadline=None)
def test_choose_matches_numpy_only_path(seed, idx, data):
    n = data.draw(st.integers(min_value=0, max_value=80))
    k = data.draw(st.integers(min_value=0, max_value=n))
    stream = RandomStream(seed, idx)
    _same_bytes(stream.choose_without_replacement(n, k),
                _old_choose_without_replacement(stream, n, k))


# the sensing draws of the shipped configs: phase.cfg's m * 64, perturbation.cfg's
# 6 * 8 and regime.cfg's m * 16, each over its m_sweep
ARRAY_COUNTS = sorted({*(m * 64 for m in (4, 6, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48)),
                       6 * 8, *(m * 16 for m in (2, 4, 6, 8, 12, 16))})


@pytest.mark.parametrize("count", ARRAY_COUNTS)
def test_array_draws_match_numpy_only_path_at_shipped_sizes(count):
    base = RandomStream(2027, count)
    for t in range(200):
        s = base.split(t)
        _same_bytes(s.uniforms(count), _old_uniforms(s, count))
        _same_bytes(s.gaussians(count), _old_gaussians(s, count))
    for s in STREAMS:
        _same_bytes(s.gaussians(count), _old_gaussians(s, count))


def test_choose_matches_numpy_only_path_at_every_size():
    stream = RandomStream(42, 7)
    for n in range(81):
        for k in range(n + 1):
            s = stream.split(n * 81 + k)
            _same_bytes(s.choose_without_replacement(n, k),
                        _old_choose_without_replacement(s, n, k))


# ------------------------------------------------ one Box-Muller pair on floats
# The pair path does log, cos and sin with numpy on scalars; `math` gives
# other bits on some hosts, so the pair is compared with the array form
# (_old_gaussians, a verbatim copy) on many streams, not on a handful.


@pytest.mark.parametrize("count", [1, 2, 3, 4, PAIR_DRAW, PAIR_DRAW + 1, 16])
def test_gaussians_match_array_box_muller_on_many_streams(count):
    base = RandomStream(2026, 5)
    for t in range(10_000):
        s = base.split(t)
        new, old = s.gaussians(count), _old_gaussians(s, count)
        assert np.array_equal(new, old), (t, new, old)
        _same_bytes(new, old)


def test_split_bases_are_the_child_seeds():
    # on the edge streams and 2000 children of a master stream, at several counts
    streams = STREAMS + [RandomStream(2028, 3).split(t) for t in range(2000)]
    for i, s in enumerate(streams):
        count = (0, 1, 3, 17)[i % 4]
        assert s.split_bases(count) == [s.split(c).as_seed() for c in range(count)]


# the edge streams plus stream index 2^64 - 1 and negative or huge master seeds
FAMILY_STREAMS = STREAMS + [RandomStream(seed, idx) for seed in (-1, -(2 ** 70), 2 ** 80 + 3, 7)
                            for idx in (0, 5, MASK64)]


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("count", [0, 1, 3, 17])
def test_family_helpers_match_the_scalar_chains(count):
    children = np.arange(count)
    for s in FAMILY_STREAMS:
        assert stream_bases(s.master_seed, [s.stream_index]).tolist() == [s.as_seed()]
        index = split_indices(s.stream_index, children)
        assert index.dtype == np.uint64
        assert index.tolist() == [s.split(c).stream_index for c in range(count)]
        assert stream_bases(s.master_seed, index).tolist() == [s.split(c).as_seed()
                                                               for c in range(count)]
    # both broadcast: every stream index of one master seed against every child
    indices = np.array([s.stream_index for s in STREAMS[:5]], dtype=np.uint64)
    grid = split_indices(indices[:, None], children)
    assert grid.tolist() == [[s.split(c).stream_index for c in range(count)] for s in STREAMS[:5]]
    assert stream_bases(0, grid).tolist() == [s.split_bases(count) for s in STREAMS[:5]]


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_perturbation_family_is_the_scalar_chains():
    cfg = load_config(os.path.join(os.path.dirname(__file__), "..", "configs", "perturbation.cfg"))
    bases = np.array(list(perturbation_bases(cfg.master_seed, cfg.trials_per_cell)))
    assert bases.shape == (cfg.trials_per_cell, 7) and bases.dtype == np.uint64
    root = RandomStream(cfg.master_seed)
    for t, row in enumerate(bases.tolist()):
        trial = root.split(t)
        assert row == [trial.split(0).as_seed(),
                       *(trial.split(p).split(j).as_seed() for p in (1, 2) for j in range(3))], t


def test_streams_hold_no_instance_dict():
    s = RandomStream(1, 2)
    assert not hasattr(s, "__dict__")
    with pytest.raises(AttributeError):
        s.stream_index = 3
