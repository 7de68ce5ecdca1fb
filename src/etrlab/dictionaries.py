"""Representation bases, sensing operators, and coherence quantities.

Builders return orthonormal bases (identity, Hadamard, DCT-II,
Haar-random orthonormal) and sensing ensembles (gaussian, bernoulli,
row-subsample, identity), all deterministic functions of their seed.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NotNormalized, NotOrthonormal, UnsupportedDimension
from .numerics import TOL
from .rng import RandomStream

DICTIONARY_KINDS = ("identity", "hadamard", "dct", "random-orthonormal")
SENSING_KINDS = ("gaussian", "bernoulli", "row-subsample", "identity")


@dataclass(frozen=True)
class Dictionary:
    psi: np.ndarray  # d x N, unit-norm columns
    kind: str
    d: int
    n: int


@dataclass(frozen=True)
class SensingOperator:
    phi: np.ndarray  # m x d
    kind: str
    m: int
    d: int


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


def build_dictionary(kind: str, d: int, seed: int = 0) -> Dictionary:
    """Orthonormal basis of R^d; deterministic in (kind, d, seed)."""
    if kind not in DICTIONARY_KINDS:
        raise UnsupportedDimension(f"unknown dictionary kind {kind!r}")
    if d < 1:
        raise UnsupportedDimension("d must be positive")
    if kind == "identity":
        psi = np.eye(d)
    elif kind == "hadamard":
        if d & (d - 1) != 0:
            raise UnsupportedDimension(f"hadamard needs d a power of 2, got {d}")
        psi = _hadamard(d)
    elif kind == "dct":
        if d < 2:
            raise UnsupportedDimension("dct needs d >= 2")
        psi = _dct2(d)
    else:  # random-orthonormal
        g = RandomStream(seed).split(0).gaussians(d * d).reshape(d, d)
        q, r = np.linalg.qr(g)
        psi = q * np.sign(np.diag(r))  # fix QR sign ambiguity for determinism
    return Dictionary(psi=psi, kind=kind, d=d, n=d)


def build_sensing(kind: str, m: int, d: int, seed: int = 0) -> SensingOperator:
    """Sensing ensemble draw; deterministic in (kind, m, d, seed)."""
    if kind not in SENSING_KINDS:
        raise UnsupportedDimension(f"unknown sensing kind {kind!r}")
    if m < 1 or d < 1:
        raise UnsupportedDimension("m and d must be positive")
    if kind in ("row-subsample", "identity") and m > d:
        raise UnsupportedDimension(f"{kind} needs m <= d, got m={m} > d={d}")
    stream = RandomStream(seed).split(1)
    if kind == "gaussian":
        phi = stream.gaussians(m * d).reshape(m, d) / np.sqrt(m)
    elif kind == "bernoulli":
        u = stream.uniforms(m * d).reshape(m, d)
        phi = np.where(u < 0.5, -1.0, 1.0) / np.sqrt(m)
    elif kind == "row-subsample":
        rows = stream.choose_without_replacement(d, m)
        phi = np.eye(d)[rows]
    else:  # identity
        if m != d:
            raise UnsupportedDimension("identity sensing needs m == d")
        phi = np.eye(d)
    return SensingOperator(phi=phi, kind=kind, m=m, d=d)


def compose(phi: SensingOperator, psi: Dictionary, normalize: bool = False) -> EffectiveSensing:
    """Effective sensing matrix, the product of operator and basis."""
    if phi.d != psi.d:
        raise DimensionMismatch(f"phi.d={phi.d} != psi.d={psi.d}")
    a = phi.phi @ psi.psi
    if normalize:
        a = normalize_columns(a)
    return EffectiveSensing(a)


def normalize_columns(a: np.ndarray) -> np.ndarray:
    norms = np.linalg.norm(a, axis=0)
    if np.any(norms == 0.0):
        raise NotNormalized("zero column cannot be normalized")
    return a / norms


def _check_orthonormal(psi: Dictionary) -> None:
    gram = psi.psi.T @ psi.psi
    if not np.allclose(gram, np.eye(psi.n), atol=TOL.ortho):
        raise NotOrthonormal(f"{psi.kind} basis fails the orthonormality check")


def mutual_coherence(psi1: Dictionary, psi2: Dictionary) -> float:
    """Largest |<column_i, column_j>| across the two orthonormal bases."""
    if psi1.d != psi2.d:
        raise DimensionMismatch(f"d={psi1.d} vs d={psi2.d}")
    _check_orthonormal(psi1)
    _check_orthonormal(psi2)
    return float(np.max(np.abs(psi1.psi.T @ psi2.psi)))


def self_coherence(a: EffectiveSensing) -> float:
    """max_{i != j} |<a_i, a_j>| over unit-normalized columns."""
    mat = a.a
    norms = np.linalg.norm(mat, axis=0)
    if not np.allclose(norms, 1.0, atol=TOL.unit_norm):
        raise NotNormalized("self_coherence requires unit-norm columns")
    if mat.shape[1] == 1:
        return 0.0
    gram = np.abs(mat.T @ mat)
    np.fill_diagonal(gram, 0.0)
    return float(np.max(gram))
