"""Restricted distinguishability: exact enumeration, sampling, and bounds.

gamma_r(A) is the worst contraction of r-sparse directions under A. We
compute it exactly by minimizing sigma_min over all column submatrices
(colex support order, first occurrence wins ties), estimate it from
sampled supports (an upper bound), and lower-bound it through the
Gershgorin coherence inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb, frexp, isfinite, ldexp, sqrt
from typing import Iterator, Optional

import numpy as np

from .dictionaries import EffectiveSensing, column_norms, self_coherence
from .errors import (DegenerateGamma, EnumerationTooLarge, InvalidSetting, InvalidSparsity,
                     NonFiniteMatrix, NotNormalized)
from .numerics import TOL, smallest_singular_pair, smallest_singular_value, vector_norm

EXACT_GUARD = 10 ** 6
SAMPLED_SUPPORTS = 200  # supports geometry_report samples past EXACT_GUARD
CHUNK_BYTES = 2 ** 18  # gathered columns per stack in support_chunks
BLOCK_CACHE = 16  # colex blocks kept; without them perturbation ran 11.2 % slower


@dataclass(frozen=True)
class GeometryReport:
    r: int
    gamma_exact: Optional[float]
    gamma_upper: float
    gamma_lower: float
    injective_on_r_sparse: str  # yes | no | unknown
    witness: Optional[np.ndarray]
    supports_examined: int
    method: str  # exact | sampled


def colex_supports(n: int, r: int) -> Iterator[tuple[int, ...]]:
    """Size-r subsets of range(n), colex order: support_chunks rows of a (0, n) matrix."""
    for block, _ in support_chunks(np.empty((0, n)), r):
        yield from map(tuple, block.tolist())


def support_chunks(mat: np.ndarray, size: int) -> Iterator[tuple[np.ndarray, np.ndarray]]:
    """(block, stack) over the colex supports of `size` columns of mat.

    block is a (B, size) array of column indices, CHUNK_BYTES of gathered
    columns per chunk; stack[b] equals mat[:, list(block[b])] in values
    and layout: rows of mat.T give each slice that column-major layout, so
    numpy takes the same BLAS and LAPACK paths as on the single submatrix.
    Only that gather runs per call. The blocks are read-only and shared:
    `_colex_block` caches the last BLOCK_CACHE of them, keyed by (n, size,
    rows per chunk, chunk index). A block holds at most CHUNK_BYTES (for
    size <= CHUNK_BYTES / 8), so the cache never holds more than
    BLOCK_CACHE * CHUNK_BYTES = 4 MiB, however large C(n, size) is.
    """
    m, n = mat.shape
    rows = chunk_rows(m, size)
    for chunk in range(chunk_count(n, size, rows)):
        yield support_chunk(mat, size, rows, chunk)


def chunk_rows(m: int, size: int) -> int:
    """Supports per support_chunks chunk: CHUNK_BYTES of gathered m-row columns."""
    return max(1, CHUNK_BYTES // (8 * max(m, 1) * max(size, 1)))


def chunk_count(n: int, size: int, rows: int) -> int:
    """Chunks of `rows` supports that cover the C(n, size) colex supports."""
    return -(-comb(n, size) // rows)


def support_chunk(mat: np.ndarray, size: int, rows: int, chunk: int):
    """(block, stack) of chunk `chunk` of support_chunks(mat, size), whose chunks
    hold `rows` supports each."""
    block = _colex_block(mat.shape[1], size, rows, chunk)
    return block, mat.T[block].transpose(0, 2, 1)


def _binomials(n: int, size: int) -> np.ndarray:
    """C(c, i) for i = 0..size and c = 0..n-1, clipped at C(n, size).

    The clip keeps the table in int64 and changes no colex unranking search.
    """
    total = comb(n, size)
    return np.array([[min(comb(c, i), total) for c in range(n)] for i in range(size + 1)],
                    dtype=np.int64)


@lru_cache(maxsize=BLOCK_CACHE)
def _colex_block(n: int, size: int, rows: int, chunk: int) -> np.ndarray:
    """Supports of colex ranks chunk * rows onward, at most rows of them.

    Unranked in the combinatorial number system: for i = size..1, c_i is
    the largest c with C(c, i) <= rank, then rank -= C(c_i, i).
    """
    table = _binomials(n, size)
    rank = np.arange(chunk * rows, min((chunk + 1) * rows, comb(n, size)), dtype=np.int64)
    block = np.empty((rank.size, size), dtype=np.intp)
    for i in range(size, 0, -1):
        block[:, i - 1] = c = np.searchsorted(table[i], rank, "right") - 1
        rank -= table[i, c]
    block.flags.writeable = False
    return block


def _unit_scaled(a: np.ndarray) -> tuple[np.ndarray, int]:
    """(a * 2^-e, e), e putting the largest |entry| in [1/2, 1): exact unless an entry
    falls to a subnormal, so norms and ratios of the result are a's, shifted by e."""
    e = frexp(float(np.abs(a).max(initial=0.0)))[1]
    return np.ldexp(a, -e), e


def _zero_cutoff(a: np.ndarray) -> float:
    """TOL.gamma_zero times the largest np.linalg.norm(a, axis=0), whose formula this
    is; a correctly rounded sqrt is monotone, so one sqrt of the max gives its bits.
    Only a cutoff that is 0 or not finite (an overflow warning raised as an error
    counts as inf) pays the scan that refuses an inf or NaN entry; a finite matrix
    whose squares overflow, or underflow to 0, is then scaled by a power of two. In
    numpy's default warning mode, numpy still prints its overflow warning once."""
    try:
        cutoff = TOL.gamma_zero * sqrt((a * a).sum(axis=0).max())
    except RuntimeWarning:
        cutoff = np.inf
    if cutoff == 0.0 or not isfinite(cutoff):
        if not np.isfinite(a).all():
            raise NonFiniteMatrix("the matrix is not finite: it holds an inf or a NaN")
        scaled, e = _unit_scaled(a)
        cutoff = ldexp(TOL.gamma_zero * sqrt((scaled * scaled).sum(axis=0).max()), e)
    return cutoff


def _is_zero(sigma: float, cutoff: float) -> bool:
    """The zero-gamma test: sigma below its _zero_cutoff, or 0.0 whatever the cutoff."""
    return sigma < cutoff or sigma <= 0.0


def gamma_is_zero(gamma: float) -> bool:
    """The zero test on a gamma value whose matrix is not at hand: gamma <= TOL.gamma_zero."""
    return gamma <= TOL.gamma_zero


def check_gamma(gamma_2k: float) -> None:
    """Raise InvalidSetting for a gamma_2k that is not finite, DegenerateGamma for a zero one."""
    if not isfinite(gamma_2k):
        raise InvalidSetting(f"gamma_2k must be finite, got {gamma_2k}")
    if gamma_is_zero(gamma_2k):
        raise DegenerateGamma(f"gamma_2k = {gamma_2k} is numerically zero")


def _check_r(n: int, r: int) -> None:
    """Raise InvalidSparsity for a support size r outside 1..n."""
    if not 1 <= r <= n:
        raise InvalidSparsity(f"r={r} outside 1..{n}")


def check_exact(n: int, r: int) -> int:
    """C(n, r), the supports `gamma_exact` on n columns enumerates; raises where it would."""
    _check_r(n, r)
    total = comb(n, r)
    if total > EXACT_GUARD:
        raise EnumerationTooLarge(f"binomial({n},{r}) = {total} > {EXACT_GUARD}")
    return total


def gamma_exact(a: EffectiveSensing, r: int, with_witness: bool = False):
    """min sigma_min(A_S) over all |S| = r; 0 iff A loses injectivity at r.

    Returns the value, or (value, witness, supports_examined) when
    with_witness is set; witness is an r-sparse kernel direction in R^N
    when the minimum is numerically zero, else None.
    """
    mat = a.a
    n = mat.shape[1]
    total = check_exact(n, r)
    cutoff = _zero_cutoff(mat)
    best = np.inf
    best_support: tuple[int, ...] = ()
    for block, stack in support_chunks(mat, r):
        sigmas = [smallest_singular_value(sub) for sub in stack]
        # best leads, so NaN never wins and ties keep the first minimum in colex order
        low = min(best, *sigmas)
        if low < best:
            best = low
            best_support = tuple(block[sigmas.index(low)].tolist())
    witness = None
    if _is_zero(best, cutoff):
        _, direction = smallest_singular_pair(mat[:, list(best_support)])
        witness = np.zeros(n)
        witness[list(best_support)] = direction
    if with_witness:
        return best, witness, total
    return best


def gamma_sampled(a: EffectiveSensing, r: int, trials: int, stream) -> float:
    """Minimum of sigma_min over the supports stream.split(t) draws for t < trials, which
    may repeat: an upper bound on gamma_r, whatever the trials (see `geometry_report`)."""
    mat = a.a
    n = mat.shape[1]
    if trials < 1:
        raise InvalidSetting("trials must be >= 1")
    _check_r(n, r)
    _zero_cutoff(mat)  # refuses an inf or NaN, as gamma_exact does
    best = np.inf
    for t in range(trials):
        support = stream.split(t).choose_without_replacement(n, r)
        best = min(best, smallest_singular_value(mat[:, support]))
    return float(best)


def gamma_lower_coherence(a: EffectiveSensing, r: int) -> float:
    """Gershgorin bound min_j ||a_j|| sqrt(max(0, 1 - (r-1) mu)), mu the self
    coherence of A; 0.0 when A has a zero column.

    sigma_min(A_S) >= min_{j in S} ||a_j|| sigma_min of the normalized A_S, so
    the bound holds for any column norms; `_unit_scaled` keeps their squares
    from overflowing or underflowing.
    """
    scaled, e = _unit_scaled(a.a)
    try:
        norms = column_norms(scaled)
    except NotNormalized:
        return 0.0
    mu = self_coherence(scaled)
    return ldexp(float(np.min(norms)) * float(np.sqrt(max(0.0, 1.0 - (r - 1) * mu))), e)


def perturbation_check(
    a: EffectiveSensing, z1: np.ndarray, z2: np.ndarray, gamma_2k: float
) -> tuple[bool, float]:
    """Check ||z1 - z2|| <= ||A (z1 - z2)|| / gamma_2k; returns (holds, slack). A gamma_2k
    that is not finite, or is zero, raises as in `check_gamma`."""
    check_gamma(gamma_2k)
    h = np.asarray(z1, dtype=float) - np.asarray(z2, dtype=float)
    lhs = vector_norm(h)
    rhs = vector_norm(a.a @ h) / gamma_2k
    slack = rhs - lhs
    return slack >= -TOL.bound_slack * max(lhs, 1.0), slack


def geometry_report(a: EffectiveSensing, r: int, stream=None) -> GeometryReport:
    """Assemble the gamma triple; the method used is always recorded.

    gamma_r is exact unless `check_exact` finds C(n, r) past EXACT_GUARD; then it
    is the upper bound from SAMPLED_SUPPORTS supports drawn from `stream`.
    """
    try:
        check_exact(a.a.shape[1], r)
    except EnumerationTooLarge:
        exact = witness = None
        examined = SAMPLED_SUPPORTS
        upper = gamma_sampled(a, r, SAMPLED_SUPPORTS, stream)
        lower = gamma_lower_coherence(a, r)
        injective = "no" if _is_zero(upper, _zero_cutoff(a.a)) else "unknown"
    else:
        exact, witness, examined = gamma_exact(a, r, with_witness=True)
        upper = exact
        lower = min(gamma_lower_coherence(a, r), exact)  # absorb the tight r = 2 bound's rounding
        injective = "no" if witness is not None else "yes"
    return GeometryReport(
        r=r,
        gamma_exact=exact,
        gamma_upper=float(upper),
        gamma_lower=lower,
        injective_on_r_sparse=injective,
        witness=witness,
        supports_examined=examined,
        method="sampled" if exact is None else "exact",
    )
