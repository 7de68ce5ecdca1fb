"""Representation bases, sensing operators, and coherence quantities.

Builders return plain arrays: d x d orthonormal bases (identity,
Hadamard, DCT-II, Haar-random orthonormal) and m x d sensing ensembles
(gaussian, bernoulli, row-subsample, identity), all deterministic
functions of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import DimensionMismatch, NotNormalized, NotOrthonormal, UnsupportedDimension
from .numerics import TOL
from .rng import RandomStream

DICTIONARY_KINDS = ("identity", "hadamard", "dct", "random-orthonormal")
SENSING_KINDS = ("gaussian", "bernoulli", "row-subsample", "identity")


@dataclass(frozen=True)
class EffectiveSensing:
    a: np.ndarray  # m x N


def _hadamard(d: int) -> np.ndarray:
    # Sylvester construction: H[i, j] = (-1)^popcount(i & j) / sqrt(d)
    h = np.ones((1, 1))
    while h.shape[0] < d:
        h = np.block([[h, h], [h, -h]])
    return h / np.sqrt(d)


def _dct2(d: int) -> np.ndarray:
    # orthonormal DCT-II; column k samples cos(pi*(2n+1)*k / (2d))
    n = np.arange(d)[:, None]
    k = np.arange(d)[None, :]
    psi = np.sqrt(2.0 / d) * np.cos(np.pi * (2 * n + 1) * k / (2 * d))
    psi[:, 0] /= np.sqrt(2.0)
    return psi


def check_dictionary(kind: str, d: int) -> None:
    """Raise UnsupportedDimension where `build_dictionary(kind, d)` would; draws nothing."""
    if kind not in DICTIONARY_KINDS:
        raise UnsupportedDimension(f"unknown basis {kind!r}; known: {', '.join(DICTIONARY_KINDS)}")
    if d < 1:
        raise UnsupportedDimension(f"d must be >= 1, got d = {d}")
    if kind == "hadamard" and d & (d - 1):
        raise UnsupportedDimension(f"hadamard needs d a power of 2, got d = {d}")
    if kind == "dct" and d < 2:
        raise UnsupportedDimension(f"dct needs d >= 2, got d = {d}")


def check_sensing(kind: str, m: int, d: int) -> None:
    """Raise UnsupportedDimension where `build_sensing(kind, m, d)` would; draws nothing."""
    if kind not in SENSING_KINDS:
        raise UnsupportedDimension(f"unknown sensing {kind!r}; known: {', '.join(SENSING_KINDS)}")
    if m < 1 or d < 1:
        raise UnsupportedDimension(f"m must be >= 1 and d >= 1, got m = {m}, d = {d}")
    if kind == "row-subsample" and m > d:
        raise UnsupportedDimension(f"row-subsample needs m <= d, got m = {m} > d = {d}")
    if kind == "identity" and m != d:
        raise UnsupportedDimension(f"identity needs m = d, got m = {m}, d = {d}")


def build_dictionary(kind: str, d: int, seed: int = 0) -> np.ndarray:
    """Orthonormal basis of R^d; deterministic in (kind, d, seed)."""
    check_dictionary(kind, d)
    if kind == "identity":
        return np.eye(d)
    if kind == "hadamard":
        return _hadamard(d)
    if kind == "dct":
        return _dct2(d)
    # random-orthonormal
    g = RandomStream(seed).split(0).gaussians(d * d).reshape(d, d)
    q, r = np.linalg.qr(g)
    return q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism


def build_sensing(kind: str, m: int, d: int, seed: int = 0) -> np.ndarray:
    """Sensing ensemble draw; deterministic in (kind, m, d, seed)."""
    check_sensing(kind, m, d)
    stream = RandomStream(seed).split(1)
    if kind == "gaussian":
        phi = stream.gaussians(m * d).reshape(m, d)
        phi /= sqrt(m)  # in place: the draw is a fresh array
        return phi
    if kind == "bernoulli":
        u = stream.uniforms(m * d).reshape(m, d)
        return np.where(u < 0.5, -1.0, 1.0) / sqrt(m)
    if kind == "row-subsample":
        return np.eye(d)[stream.choose_without_replacement(d, m)]
    # identity
    return np.eye(d)


def compose(phi: np.ndarray, psi: np.ndarray) -> EffectiveSensing:
    """Effective sensing matrix, the product of operator and basis."""
    if phi.shape[1] != psi.shape[0]:
        raise DimensionMismatch(f"phi has {phi.shape[1]} columns, psi has {psi.shape[0]} rows")
    return EffectiveSensing(phi @ psi)


def column_norms(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=0); raises NotNormalized if a column is zero."""
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise NotNormalized("zero column cannot be normalized")
    return norms


def normalize_columns(a: np.ndarray) -> np.ndarray:
    return a / column_norms(a)


def is_orthonormal(psi: np.ndarray) -> bool:
    """Square, with psi^T psi within TOL.ortho of the identity."""
    if psi.shape[0] != psi.shape[1]:
        return False
    return bool(np.allclose(psi.T @ psi, np.eye(psi.shape[1]), atol=TOL.ortho))


def mutual_coherence(psi1: np.ndarray, psi2: np.ndarray) -> float:
    """Largest |<column_i, column_j>| across the two orthonormal bases."""
    if psi1.shape[0] != psi2.shape[0]:
        raise DimensionMismatch(f"d={psi1.shape[0]} vs d={psi2.shape[0]}")
    if not (is_orthonormal(psi1) and is_orthonormal(psi2)):
        raise NotOrthonormal("basis fails the orthonormality check")
    return float(np.max(np.abs(psi1.T @ psi2)))


def self_coherence(mat: np.ndarray) -> float:
    """max_{i != j} |<a_i, a_j>| over the columns of mat, normalized by
    `normalize_columns`; raises NotNormalized if a column is zero."""
    mat = normalize_columns(mat)
    gram = np.abs(mat.T @ mat)
    np.fill_diagonal(gram, 0.0)
    return float(np.max(gram))
