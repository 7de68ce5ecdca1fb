"""Deterministic random streams.

Counter-based generator built on the splitmix64 finalizer: the i-th raw
word of a stream is ``mix64(base + (i+1) * GAMMA)`` where ``base`` is a
64-bit hash of (master_seed, stream_index). Every output is a pure
function of (master_seed, stream_index, position), so streams are
immutable values, trivially splittable, and bit-identical across
platforms. No platform RNG is used anywhere in the package.

Draws of at most SMALL_DRAW words compute splitmix64 on Python ints,
which is cheaper than the numpy uint64 path at that size; both paths
do the same integer arithmetic mod 2^64 and the same exact float
scaling, so a draw gives the same bits whichever path makes it.

A draw of one or two normals (one Box-Muller pair) runs on Python
floats too: 1 - u, -2 * log, the square root, 2 * pi * u and the
products are IEEE-exact, so Python floats give the array path's bits.
log, cos and sin are not exact, and numpy's float64 loops (SIMD ones on
hosts that have them) need not agree with the C library behind `math`:
on an AVX-512 Xeon, `math` gave other bits than numpy for 323 of 200 000
normals. So the pair calls numpy's own `np.log`, `np.cos` and `np.sin`
on scalars, which run the same loops as the array path; the tests
compare both paths with `np.array_equal` on 10^4 streams per count.

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


def _mix64_array(z: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap silently, matching the masked Python-int path
    z = (z ^ (z >> _U30)) * _UM1
    z = (z ^ (z >> _U27)) * _UM2
    return z ^ (z >> _U31)


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

    def _words(self, count: int) -> np.ndarray:
        base = np.uint64(self._base)
        idx = np.arange(1, count + 1, dtype=np.uint64)
        return _mix64_array(base + idx * _UGAMMA)

    def _small_uniforms(self, count: int) -> list[float]:
        # the first count uniforms, for count <= SMALL_DRAW, as Python floats
        base = self._base
        return [(mix64(base + i * GAMMA) >> 11) * 2.0 ** -53 for i in range(1, count + 1)]

    def uniforms(self, count: int) -> np.ndarray:
        """count i.i.d. uniforms in [0, 1), 53-bit resolution."""
        if count == 0:
            return np.zeros(0)
        if count <= SMALL_DRAW:
            return np.array(self._small_uniforms(count))
        return (self._words(count) >> _U11) * 2.0 ** -53

    def gaussians(self, count: int) -> np.ndarray:
        """count i.i.d. standard normals via the Box-Muller transform.

        Regenerates from the stream head, so repeated calls with equal
        arguments return identical values.
        """
        if count == 0:
            return np.zeros(0)
        if count <= 2:
            u1, u2 = self._small_uniforms(2)
            r = sqrt(-2.0 * float(np.log(1.0 - u1)))
            theta = 2.0 * pi * u2
            if count == 1:
                return np.array([r * float(np.cos(theta))])
            return np.array([r * float(np.cos(theta)), r * float(np.sin(theta))])
        pairs = (count + 1) // 2
        u = self.uniforms(2 * pairs)
        u1 = 1.0 - u[0::2]  # (0, 1]: keeps log finite
        u2 = u[1::2]
        r = np.sqrt(-2.0 * np.log(u1))
        theta = 2.0 * np.pi * u2
        out = np.empty(2 * pairs)
        out[0::2] = r * np.cos(theta)
        out[1::2] = r * np.sin(theta)
        return out[:count]

    def integers_below(self, bounds) -> np.ndarray:
        """One integer in [0, b) for each b in bounds (floor of a uniform)."""
        bounds = np.asarray(bounds, dtype=np.int64)
        u = self.uniforms(len(bounds))
        return np.minimum((u * bounds).astype(np.int64), bounds - 1)

    def choose_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), uniform, via partial Fisher-Yates.

        Swap i draws from the n - i positions left, as integers_below does.
        """
        pool = list(range(n))
        draws = self._small_uniforms(k) if k <= SMALL_DRAW else self.uniforms(k).tolist()
        for i, u in enumerate(draws):
            j = i + min(int(u * (n - i)), n - i - 1)
            pool[i], pool[j] = pool[j], pool[i]
        return np.array(sorted(pool[:k]), dtype=np.int64)

