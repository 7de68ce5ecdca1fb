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

The stream methods draw arrays, whatever the count: the uint64 words are
mixed and shifted in place inside the one array that `np.arange` makes,
and the Box-Muller transform writes into two buffers and the output
array. `sparsity.plant` draws Python values from the three bases its
caller passes, building no stream: `base_uniforms`, `base_gaussians`,
which runs the transform pair by pair on Python floats, and
`fisher_yates`, which picks a sorted support from uniforms and which
`choose_without_replacement` runs too.

The float path and the array path do the same integer arithmetic mod
2^64 and exact scaling, and 1 - u, -2 * log, sqrt, 2 * pi * u and the
products are correctly rounded: the bits are the same. log, cos and sin
are not exact, and numpy's float64 loops (SIMD ones on hosts that have
them) need not agree with the C library behind `math`: on an AVX-512
Xeon, `math` gave other bits than numpy for 323 of 200 000 normals. So
`base_gaussians` calls numpy's own `np.log`, `np.cos` and `np.sin` on
scalars, which run the same loops as the array path, and the array
path's log, cos and sin read and write contiguous arrays; the tests
compare both paths with `np.array_equal` on 10^4 streams per count.

A stream's base and its children's indices are pure functions of
(master_seed, stream_index), so a whole family of them is computed on
uint64 arrays: `split_indices` gives the stream_index of `.split(n)` and
`stream_bases` the `as_seed()` of `RandomStream(master_seed, i)`, both
broadcasting and mixing in place with the same wrapping arithmetic as
`mix64`. `RandomStream.split_bases` computes the same on Python ints,
which costs less for a plant's three bases. The perturbation suite takes
its trials' sensing seeds and plant bases from such passes, a block of
trials at a time. The uint64 constants of the numpy path are built once,
at import.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import pi, sqrt

import numpy as np

from .errors import InvalidSetting, InvalidSparsity

MASK64 = (1 << 64) - 1
GAMMA = 0x9E3779B97F4A7C15  # golden-ratio increment from splitmix64

_M1 = 0xBF58476D1CE4E5B9
_M2 = 0x94D049BB133111EB


def check_seed(seed: int) -> None:
    """Raise InvalidSetting for a master seed outside 0..2^64-1, which mix64 would alias."""
    if not 0 <= seed <= MASK64:
        raise InvalidSetting(f"seed must be a u64 (0..2**64-1), got {seed}")


def mix64(z: int) -> int:
    """splitmix64 finalizer on a Python int, reduced mod 2^64."""
    z &= MASK64
    z = ((z ^ (z >> 30)) * _M1) & MASK64
    z = ((z ^ (z >> 27)) * _M2) & MASK64
    return z ^ (z >> 31)


_U1, _U11, _U27, _U30, _U31 = (np.uint64(s) for s in (1, 11, 27, 30, 31))
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
        return mix64(mix64(self.master_seed) ^ mix64((self.stream_index + 1) * GAMMA))

    def as_seed(self) -> int:
        """64-bit seed for builders that take an integer seed."""
        return self._base

    def split(self, n: int) -> "RandomStream":
        """Derive the n-th child stream; children never collide in practice."""
        child = mix64(mix64(self.stream_index) + (n + 1) * GAMMA)
        return RandomStream(self.master_seed, child)

    def split_bases(self, count: int) -> list[int]:
        """The bases (as_seed) of split(0) ... split(count - 1), without the streams.

        `stream_bases(master_seed, split_indices(stream_index, range(count)))` on
        Python ints: for the three bases of a plant this takes 5 us where the arrays
        take 25 us (timeit), and the array form made phase run_s slower in 4 of 5 pairs.
        """
        seed, index = mix64(self.master_seed), mix64(self.stream_index)
        return [mix64(seed ^ mix64((mix64(index + (i + 1) * GAMMA) + 1) * GAMMA))
                for i in range(count)]

    def _words(self, count: int) -> np.ndarray:
        z = np.arange(1, count + 1, dtype=np.uint64)
        z *= _UGAMMA
        z += np.uint64(self._base)
        return _mix64_in_place(z)

    def uniforms(self, count: int) -> np.ndarray:
        """count i.i.d. uniforms in [0, 1), 53-bit resolution."""
        words = self._words(count)
        words >>= _U11
        return words * 2.0 ** -53

    def gaussians(self, count: int) -> np.ndarray:
        """count i.i.d. standard normals via the Box-Muller transform.

        Regenerates from the stream head, so repeated calls with equal
        arguments return identical values.
        """
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

    def choose_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), uniform, via partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise InvalidSparsity(f"cannot choose {k} of {n}")
        return np.array(fisher_yates(n, base_uniforms(self._base, k)), dtype=np.int64)


def split_indices(indices, n) -> np.ndarray:
    """stream_index of RandomStream(s, i).split(n), broadcast over i in indices and n.

    Both are taken as uint64 arrays (values in 0 .. 2^64 - 1); the result is
    mix64(mix64(i) + (n + 1) * GAMMA) as a uint64 array of the broadcast shape.
    """
    index = _mix64_in_place(np.array(indices, dtype=np.uint64))
    step = np.array(n, dtype=np.uint64)
    step += _U1
    step *= _UGAMMA
    return _mix64_in_place(np.asarray(index + step))  # asarray: 0-d sums come back scalars


def stream_bases(master_seed: int, indices) -> np.ndarray:
    """as_seed() of RandomStream(master_seed, i) for i in indices, a uint64 array.

    The indices are taken as uint64 (values in 0 .. 2^64 - 1); the result is
    mix64(mix64(master_seed) ^ mix64((i + 1) * GAMMA)).
    """
    z = np.array(indices, dtype=np.uint64)
    z += _U1
    z *= _UGAMMA
    _mix64_in_place(z)
    z ^= np.uint64(mix64(master_seed))
    return _mix64_in_place(z)


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
    if len(draws) > n:
        raise InvalidSparsity(f"cannot choose {len(draws)} of {n}")
    pool = list(range(n))
    for i, u in enumerate(draws):
        j = i + min(int(u * (n - i)), n - i - 1)
        pool[i], pool[j] = pool[j], pool[i]
    return sorted(pool[:len(draws)])
