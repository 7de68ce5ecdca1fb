"""Dense linear-algebra primitives and matrix/vector CSV serialization.

Matrices and vectors are plain float64 numpy arrays throughout the
package; all functions here are pure. Numerical policy (every tolerance
used downstream) lives in a single `Tolerances` record.

The hot calls skip numpy.linalg's Python wrappers. At import the module
binds numpy's own LAPACK gufuncs from `numpy.linalg._umath_linalg`: `svd`
(singular values), `eigvalsh_lo` and `solve1`, each only if it exists with
the core signature and the 'd->d' / 'dd->d' loop that np.linalg calls it
with. np.linalg.svd(compute_uv=False), eigvalsh and solve make these same
calls on float64 input after their argument checks, so the bits are
np.linalg's. Where a gufunc is not bound (numpy 1.x has no `svd` gufunc),
or where it returns NaN, the public np.linalg call runs instead.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IoFailure, RankDeficient


@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for numerical thresholds."""

    rank_rel: float = 1e-12        # sigma_min / sigma_max below this => rank deficient
    ortho: float = 1e-10           # orthonormality of basis Gram matrices
    zero_tau: float = 1e-8         # relative magnitude threshold for "zero" coefficients
    gamma_zero: float = 1e-10      # gamma treated as exactly 0 below this
    feasibility_slack: float = 1e-10
    bound_slack: float = 1e-9      # rounding allowed when checking a proven inequality
    unit_norm: float = 1e-8        # column norms this close to 1 count as normalized
    omp_stall: float = 1e-12       # OMP stops when no column correlates above this
    reachability: float = 1e-8     # BP: residual off range(A) allowed beyond epsilon
    path_end: float = 1e-9         # BP: the path ends once lambda falls below this times its start


TOL = Tolerances()
_FLOAT64 = np.dtype(np.float64)


def _gufunc(name: str, signature: str, types: str) -> np.ufunc | None:
    """numpy's LAPACK gufunc `name` if it has this core signature and loop, else None."""
    try:
        from numpy.linalg import _umath_linalg
    except ImportError:
        return None
    func = getattr(_umath_linalg, name, None)
    if isinstance(func, np.ufunc) and func.signature == signature and types in func.types:
        return func
    return None


_SVD = _gufunc("svd", "(m,n)->(p)", "d->d")
_EIGVALSH = _gufunc("eigvalsh_lo", "(m,m)->(m)", "d->d")
_SOLVE1 = _gufunc("solve1", "(m,m),(m)->(m)", "dd->d")


def detected_support(v: np.ndarray) -> np.ndarray:
    """Indices of the entries of v above TOL.zero_tau * max(||v||, 1)."""
    return np.flatnonzero(np.abs(v) > TOL.zero_tau * max(float(np.linalg.norm(v)), 1.0))


def _full_rank(lo, hi):
    """The rank test on the extreme eigenvalues of Gram matrices (floats or arrays)."""
    return (lo > 0) & (lo >= TOL.rank_rel ** 2 * np.maximum(hi, 1e-300))


def _eigvalsh(gram: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of one float64 matrix, through the bound gufunc.

    A NaN smallest eigenvalue comes from NaN input or no convergence (the
    gufunc then warns of an invalid value); np.linalg.eigvalsh reruns, so the
    outcome is its own: the same LinAlgError, or the same NaN.
    """
    if _EIGVALSH is not None:
        lam = _EIGVALSH(gram, signature="d->d")
        if lam[0] == lam[0]:
            return lam
    return np.linalg.eigvalsh(gram)


def _lu_solve(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """gram^-1 rhs for one (c, c) matrix and a (c,) rhs, or a (B, c, c) stack and
    (B, c); the answer for a matrix that is singular to LU is NaN.

    The bound `solve1` gufunc solves the whole stack at once: a singular member
    gets NaN and raises the invalid flag, which np.linalg.solve turns into
    LinAlgError and which is ignored here, with the over-, under- and
    divide-flags np.linalg ignores too. Unbound, np.linalg.solve solves each
    matrix in turn and a LinAlgError leaves its NaN.
    """
    if _SOLVE1 is not None:
        with np.errstate(all="ignore"):
            return _SOLVE1(gram, rhs, signature="dd->d")
    coef = np.full(rhs.shape, np.nan)
    for i in np.ndindex(gram.shape[:-2]):
        try:
            coef[i] = np.linalg.solve(gram[i], rhs[i])
        except np.linalg.LinAlgError:
            pass
    return coef


def solve_gram(gram: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solutions c of gram @ c = rhs for one (c, c) Gram matrix and a (c,) rhs,
    or a stack (B, c, c) of them and a (B, c) rhs, all float64.

    A Gram matrix is rank deficient when it is singular to the LU solve, or
    its smallest eigenvalue is not positive or below rank_rel^2 times the
    largest; its row of the (B, c) result, or the whole (c,) result, is NaN.

    One matrix, every homotopy step and every OMP fit, runs the bound
    `eigvalsh_lo` gufunc with no errstate (`_eigvalsh`); a stack runs
    np.linalg.eigvalsh, the same gufunc call. Both run the same rank test and
    `solve1` LU solve (`_lu_solve`), so one matrix and a stack of one give the
    same bytes.
    """
    if gram.ndim == 2:
        lam = _eigvalsh(gram)
        if _full_rank(lam[0], lam[-1]):
            return _lu_solve(gram, rhs)
        return np.full(rhs.shape, np.nan)
    lam = np.linalg.eigvalsh(gram)
    coef = np.full(rhs.shape, np.nan)
    ok = _full_rank(lam[:, 0], lam[:, -1])
    coef[ok] = _lu_solve(gram[ok], rhs[ok])
    return coef


def least_squares(a_sub: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for a_sub @ c ~ y from the normal equations.

    a_sub is one (m, c) matrix or a stack (B, m, c) sharing y. When a Gram
    matrix is rank deficient (`solve_gram`), a single matrix raises
    RankDeficient and a stack member gets a NaN row in the (B, c) result.
    """
    a_sub = np.asarray(a_sub, dtype=float)
    y = np.asarray(y, dtype=float)
    if a_sub.ndim == 3:
        a_t = a_sub.transpose(0, 2, 1)
        return solve_gram(a_t @ a_sub, a_t @ y)
    a_sub = np.atleast_2d(a_sub)
    coef = solve_gram(a_sub.T @ a_sub, a_sub.T @ y)
    if np.isnan(coef[0]):
        raise RankDeficient(f"the Gram matrix of {a_sub.shape[1]} columns is rank deficient")
    return coef


def smallest_singular_value(m: np.ndarray) -> float:
    """sigma_min of m as an operator on its column space coordinates.

    A wide matrix has a nontrivial kernel and gets 0.0 without an SVD.
    Otherwise sigma_min comes from a direct SVD, with absolute accuracy
    ~eps * sigma_max, which a Gram-matrix eigensolve cannot deliver near
    zero; a tall singular matrix gets that computed value. Never negative.
    Input that is not a 2-D float64 ndarray is first made one as by
    np.atleast_2d(np.asarray(m, dtype=float)): a vector is one row.

    The SVD is the bound `svd` gufunc, called with no errstate: the last of
    np.linalg.svd(m, compute_uv=False), to the bit. A NaN result means NaN
    input or no convergence (the gufunc then warns of an invalid value), and
    np.linalg.svd reruns, so the outcome is its own: the same LinAlgError, or
    the same NaN for infinite input.
    """
    if not (type(m) is np.ndarray and m.ndim == 2 and m.dtype is _FLOAT64):
        m = np.atleast_2d(np.asarray(m, dtype=float))
    if m.shape[1] > m.shape[0]:
        return 0.0
    if _SVD is not None:
        sigma = float(_SVD(m, signature="d->d")[-1])
        if sigma == sigma:
            return sigma
    return float(np.linalg.svd(m, compute_uv=False)[-1])


def smallest_singular_pair(m: np.ndarray) -> tuple[float, np.ndarray]:
    """(sigma_min, right singular vector attaining it)."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    _, s, vt = np.linalg.svd(m)
    sigma = 0.0 if m.shape[1] > m.shape[0] else float(s[-1])
    return sigma, vt[-1]


def save_matrix(path, m: np.ndarray) -> None:
    """Write a matrix in the lab CSV format: header `rows,cols`, 17 sig digits."""
    m = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = m.shape
    try:
        with open(path, "w") as fh:
            fh.write(f"{rows},{cols}\n")
            for r in range(rows):
                fh.write(",".join(f"{v:.17g}" for v in m[r]) + "\n")
    except OSError as exc:
        raise IoFailure(str(exc)) from exc


def load_matrix(path) -> np.ndarray:
    """Read a matrix written by save_matrix; validates the declared shape."""
    try:
        with open(path) as fh:
            header = fh.readline().strip()
            rows, cols = (int(t) for t in header.split(","))
            data = [
                [float(t) for t in line.strip().split(",")]
                for line in fh
                if line.strip()
            ]
    except (OSError, ValueError) as exc:
        raise IoFailure(f"{path}: {exc}") from exc
    m = np.array(data, dtype=float)
    if m.shape != (rows, cols):
        raise IoFailure(f"{path}: declared {rows}x{cols}, found {m.shape}")
    if not np.all(np.isfinite(m)):
        raise IoFailure(f"{path}: non-finite entries")
    return m


def load_vector(path) -> np.ndarray:
    m = load_matrix(path)
    if m.shape[1] != 1:
        raise IoFailure(f"{path}: expected a single column, found {m.shape[1]}")
    return m[:, 0]
