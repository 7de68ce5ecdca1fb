"""Deterministic random streams.

Counter-based generator built on the splitmix64 finalizer: the i-th raw
word of a stream is ``mix64(base + (i+1) * GAMMA)`` where ``base`` is a
64-bit hash of (master_seed, stream_index). Every output is a pure
function of (master_seed, stream_index, position), so streams are
immutable values and trivially splittable. The uint64 words and the
uniforms are bit-identical across platforms. The normals are not: they
go through numpy's log, cos and sin loops, which change with numpy's
CPU dispatch (with NPY_DISABLE_CPU_FEATURES=X86_V4, np.log gives other
bits), so they are bit-identical on one host and numpy build. No
platform RNG is used anywhere in the package.

The small draws are module functions of a stream's 64-bit base:
`base_uniforms` runs splitmix64 on Python ints, `base_gaussians` the
Box-Muller transform pair by pair on Python floats, and `fisher_yates`
picks a sorted support from uniforms. `sparsity.plant` draws from the
bases `RandomStream.split_bases` gives, building no stream; the methods
use these functions for draws of at most SMALL_DRAW words and PAIR_DRAW
normals, below which the numpy path costs more. Both paths do the same
integer arithmetic mod 2^64 and exact scaling, and 1 - u, -2 * log, sqrt,
2 * pi * u and the products are correctly rounded: the bits are the same.
log, cos and sin are not exact, and numpy's float64 loops (SIMD ones on
hosts that have them) need not agree with the C library behind `math`:
on an AVX-512 Xeon, `math` gave other bits than numpy for 323 of 200 000
normals. So the pair calls numpy's own `np.log`, `np.cos` and `np.sin`
on scalars, which run the same loops as the array path; the tests
compare both paths with `np.array_equal` on 10^4 streams per count.

Larger draws work in place: the words are mixed and shifted inside the
one uint64 array that `np.arange` makes, and the Box-Muller transform
writes into two buffers and the output array. log, cos and sin still read
and write contiguous arrays, so they run the same loops as before; every
other step is correctly rounded wherever it writes.

The uint64 constants of the numpy path are built once, at import, and
mix64(master_seed), which every stream of a run shares, is kept for the
last SEED_CACHE master seeds; neither changes a bit of any draw.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import pi, sqrt

import numpy as np

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment from splitmix64

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB
SMALL_DRAW = 16  # uniforms draws of at most this many words run on Python ints
PAIR_DRAW = 12  # gaussians draws of at most this many normals run pair by pair on floats
SEED_CACHE = 16  # hashed master seeds kept for reuse


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int, reduced mod 2^64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


@lru_cache(maxsize=SEED_CACHE)
def _seed_hash(master_seed: int) -> int:
    return mix64(master_seed)


_U11, _U27, _U30, _U31 = (np.uint64(s) for s in (11, 27, 30, 31))
_UM1, _UM2, _UGAMMA = np.uint64(_M1), np.uint64(_M2), np.uint64(GAMMA)


def _mix64_in_place(z: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer on a uint64 array, written over z; returns z.

    uint64 arrays wrap silently, matching the masked Python-int path.
    """
    z ^= z >> _U30
    z *= _UM1
    z ^= z >> _U27
    z *= _UM2
    z ^= z >> _U31
    return z


@dataclass(frozen=True, slots=True)
class RandomStream:
    """Immutable handle on one deterministic scalar sequence."""

    master_seed: int
    stream_index: int = 0

    @property
    def _base(self) -> int:
        return mix64(_seed_hash(self.master_seed) ^ mix64((self.stream_index + 1) * GAMMA))

    def as_seed(self) -> int:
        """64-bit seed for builders that take an integer seed."""
        return self._base

    def split(self, n: int) -> "RandomStream":
        """Derive the n-th child stream; children never collide in practice."""
        child = mix64(mix64(self.stream_index) + (n + 1) * GAMMA)
        return RandomStream(self.master_seed, child)

    def split_bases(self, count: int) -> list[int]:
        """The bases (as_seed) of split(0) ... split(count - 1), without the streams."""
        seed, index = _seed_hash(self.master_seed), mix64(self.stream_index)
        return [mix64(seed ^ mix64((mix64(index + (i + 1) * GAMMA) + 1) * GAMMA))
                for i in range(count)]

    def _words(self, count: int) -> np.ndarray:
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _UGAMMA
        z += np.uint64(self._base)
        return _mix64_in_place(z)

    def uniforms(self, count: int) -> np.ndarray:
        """count i.i.d. uniforms in [0, 1), 53-bit resolution."""
        if count <= SMALL_DRAW:
            return np.array(base_uniforms(self._base, count))
        words = self._words(count)
        words >>= _U11
        return words * 2.0 ** -53

    def gaussians(self, count: int) -> np.ndarray:
        """count i.i.d. standard normals via the Box-Muller transform.

        Regenerates from the stream head, so repeated calls with equal
        arguments return identical values.
        """
        if count <= PAIR_DRAW:
            return np.array(base_gaussians(self._base, count))
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        r = np.subtract(1.0, u[0::2])  # (0, 1]: keeps log finite
        np.log(r, out=r)
        r *= -2.0
        np.sqrt(r, out=r)
        theta = np.multiply(u[1::2], 2.0 * np.pi)
        cos = np.cos(theta)
        sin = np.sin(theta, out=theta)
        out = np.empty(2 * pairs)
        np.multiply(r, cos, out=out[0::2])
        np.multiply(r, sin, out=out[1::2])
        return out[:count]

    def integers_below(self, bounds) -> np.ndarray:
        """One integer in [0, b) for each b in bounds (floor of a uniform)."""
        bounds = np.asarray(bounds, dtype=np.int64)
        u = self.uniforms(len(bounds))
        return np.minimum((u * bounds).astype(np.int64), bounds - 1)

    def choose_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), uniform, via partial Fisher-Yates."""
        draws = base_uniforms(self._base, k) if k <= SMALL_DRAW else self.uniforms(k).tolist()
        return np.array(fisher_yates(n, draws), dtype=np.int64)


def base_uniforms(base: int, count: int) -> list[float]:
    """The first count uniforms of the stream with this base, as Python floats."""
    return [(mix64(base + i * GAMMA) >> 11) * 2.0 ** -53 for i in range(1, count + 1)]


def base_gaussians(base: int, count: int) -> list[float]:
    """The first count normals of the stream with this base, pair by pair on floats."""
    u = base_uniforms(base, count + count % 2)
    out = []
    for i in range(0, count, 2):
        r = sqrt(-2.0 * float(np.log(1.0 - u[i])))
        theta = 2.0 * pi * u[i + 1]
        out.append(r * float(np.cos(theta)))
        if i + 1 < count:
            out.append(r * float(np.sin(theta)))
    return out


def fisher_yates(n: int, draws: list[float]) -> list[int]:
    """Sorted indices of range(n): swap i takes draws[i] to one of the n - i left."""
    pool = list(range(n))
    for i, u in enumerate(draws):
        j = i + min(int(u * (n - i)), n - i - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:len(draws)])
