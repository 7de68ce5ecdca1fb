"""Representation complexity K_Psi and planted instances."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

import numpy as np

from .dictionaries import is_orthonormal
from .errors import DimensionMismatch, InvalidSetting, InvalidSparsity, NotOrthonormal, ZeroSignal
# least_squares stays importable from here: bench/tracing.py patches sparsity.least_squares
from .numerics import TOL, least_squares, vector_norm  # noqa: F401
from .rng import RandomStream, base_gaussians, base_uniforms, fisher_yates

MIN_COEFF = 0.1  # planted magnitudes bounded away from the zero threshold


@dataclass(frozen=True)
class PlantedInstance:
    alpha_star: np.ndarray
    x: np.ndarray


def effective_sparsity(x: np.ndarray, psi: np.ndarray) -> int:
    """K_Psi(x), the minimal support expressing x in the orthonormal basis psi: the
    count of entries of psi^T x above TOL.zero_tau * ||x||.

    For any other psi, K_Psi(x) is the support size of
    `solvers.solve_l0(EffectiveSensing(psi), x, SolverConfig(epsilon=TOL.zero_tau * ||x||))`.
    """
    x = np.asarray(x, dtype=float)
    xnorm = vector_norm(x)
    if xnorm == 0.0:
        raise ZeroSignal("effective sparsity of the zero signal is undefined")
    if psi.shape[0] != x.shape[0]:
        raise DimensionMismatch(f"psi has {psi.shape[0]} rows, x has {x.shape[0]} entries")
    if not is_orthonormal(psi):
        raise NotOrthonormal("effective_sparsity requires an orthonormal basis")
    return int(np.count_nonzero(np.abs(psi.T @ x) > TOL.zero_tau * xnorm))


def check_sparsity(k: int, n: int) -> None:
    """Raise InvalidSparsity where `plant` of k coefficients in n columns would."""
    if not 1 <= k <= n:
        raise InvalidSparsity(f"need 1 <= k <= n, got k = {k}, n = {n}")


def check_epsilon(epsilon: float) -> None:
    """Raise InvalidSetting where `observe` and `SolverConfig` would on this noise level."""
    if not 0.0 <= epsilon < inf:  # NaN fails too
        raise InvalidSetting(f"epsilon must be finite and >= 0, got {epsilon}")


def plant(psi: np.ndarray, k: int, bases) -> PlantedInstance:
    """k-sparse coefficients in the columns of psi with magnitudes >= 0.1,
    deterministic per bases: the three 64-bit stream bases the caller passes, for a
    stream s `s.split_bases(3)` (the bases of s.split(0), split(1) and split(2)).
    Support, signs and magnitudes come as Python values from those bases, each entry
    with the bits of the array form sign * (MIN_COEFF + |g|), the sign -1.0 where u < 0.5.
    The array form itself, drawn from the same bases, costs more: 44 us a plant where
    this writer takes 9 us at n = 8, k = 1 (perturbation's 20 000 plants), and 34-37 us
    where it takes 14-17 us at k = 3 and 4 (timeit, best of 7 x 2000, one core)."""
    n = psi.shape[1]
    check_sparsity(k, n)
    support_base, sign_base, magnitude_base = bases
    alpha = np.zeros(n)
    for i, u, g in zip(fisher_yates(n, base_uniforms(support_base, k)),
                       base_uniforms(sign_base, k), base_gaussians(magnitude_base, k)):
        alpha[i] = (-1.0 if u < 0.5 else 1.0) * (MIN_COEFF + abs(g))
    return PlantedInstance(alpha_star=alpha, x=psi @ alpha)


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


def check_magnitudes(alpha: np.ndarray) -> None:
    """Raise InvalidSparsity for a nonzero entry of alpha below `plant`'s MIN_COEFF floor."""
    if np.any((alpha != 0) & (np.abs(alpha) < MIN_COEFF)):
        raise InvalidSparsity("planted coefficient below the 0.1 magnitude floor")
