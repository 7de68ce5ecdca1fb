"""Dense linear-algebra primitives and matrix/vector CSV serialization.

Matrices and vectors are plain float64 numpy arrays throughout the
package; all functions here are pure. Numerical policy (every tolerance
used downstream) lives in a single `Tolerances` record. Least squares
runs through the normal equations, one routine per shape: `solve_gram`
solves one (c, c) Gram matrix, which `least_squares` forms for one (m, c)
matrix, and a (B, m, c) stack is fitted in two steps, `stack_fit` once
per stack and `stack_coefficients` once per y.

The hot calls skip numpy.linalg's Python wrappers. At import the module
binds numpy's own LAPACK gufuncs from `numpy.linalg._umath_linalg`: `svd`
(singular values), `eigvalsh_lo` and `solve1`, each only if it exists with
the core signature and the 'd->d' / 'dd->d' loop that np.linalg calls it
with. np.linalg.svd(compute_uv=False), eigvalsh and solve make these same
calls on float64 input after their argument checks, so the bits are
np.linalg's; float64 input selects `svd`'s loop without `signature=`. Where
a gufunc is not bound (numpy 1.x has no `svd` gufunc), or where it returns
NaN, np.linalg runs instead. Bound, a 6x2 svd takes 2.5 us, a 5x5 eigvalsh
2.5 us and a 5x5 solve 1.3 us, where np.linalg takes 5.1, 5.6 and 4.6 us
(timeit, one BLAS thread).

The hot path also skips numpy's scalar machinery. `vector_norm` is
np.linalg.norm's own formula for a float64 vector (ravel in memory order,
dot, square root) without its argument checks, and gives its answer to
the bit; np.linalg.norm in its place made perturbation 2.4 % slower.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt

import numpy as np

from .errors import IoFailure, RankDeficient


@dataclass(frozen=True)
class Tolerances:
    """Single source of truth for numerical thresholds."""

    rank_rel: float = 1e-12        # sigma_min / sigma_max below this => rank deficient
    ortho: float = 1e-10           # orthonormality of basis Gram matrices
    zero_tau: float = 1e-8         # relative magnitude threshold for "zero" coefficients
    gamma_zero: float = 1e-10      # factor on the largest column norm: sigma below it is 0
    feasibility_slack: float = 1e-10
    bound_slack: float = 1e-9      # rounding allowed when checking a proven inequality
    omp_stall: float = 1e-12       # OMP stops when no column correlates above this
    reachability: float = 1e-8     # BP: residual off range(A) allowed beyond epsilon
    path_end: float = 1e-9         # BP: the path ends once lambda falls below this times its start
    success_rel_error: float = 1e-4  # recovery succeeds at relative error <= this
    functional_slack: float = 1e-12  # rounding allowed below the uncertainty functional's floor


TOL = Tolerances()
_RANK_REL2 = TOL.rank_rel ** 2  # the rank test compares eigenvalues, squares of singular values
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


def vector_norm(v: np.ndarray) -> float:
    """float(np.linalg.norm(v)) of a float64 array, to the bit.

    np.linalg.norm's own formula for ord=None: sqrt of the dot of the ravel in
    memory order. The ravel matters: the dot of a strided view runs another
    BLAS kernel, which sums in another order and can differ in the last bit.
    """
    x = v.ravel(order="K")
    return sqrt(x.dot(x))


def detected_support(v: np.ndarray) -> np.ndarray:
    """Indices of the entries of the float64 vector v above TOL.zero_tau * max(||v||, 1)."""
    return np.flatnonzero(np.abs(v) > TOL.zero_tau * max(vector_norm(v), 1.0))


def _full_rank(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """The rank test on the extreme eigenvalues of Gram matrices, arrays or scalars."""
    return (lo > 0) & (lo >= _RANK_REL2 * np.maximum(hi, 1e-300))


def _eigvalsh(gram: np.ndarray) -> np.ndarray:
    """np.linalg.eigvalsh of one float64 matrix, through the bound gufunc.

    A NaN smallest eigenvalue comes from NaN input or no convergence (the
    gufunc then warns of an invalid value); np.linalg.eigvalsh reruns, so the
    outcome is its own: the same LinAlgError, or the same NaN. Where warnings
    are errors, that warning raises and np.linalg reruns just the same.
    """
    if _EIGVALSH is not None:
        try:
            lam = _EIGVALSH(gram, signature="d->d")
        except RuntimeWarning:
            pass
        else:
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
    """The solution c of gram @ c = rhs for one (c, c) float64 Gram matrix and a
    (c,) rhs; all NaN when the Gram matrix is rank deficient: singular to the LU
    solve, or its smallest eigenvalue not positive or below rank_rel^2 times the
    largest.

    Every homotopy step and every OMP fit runs it: the bound `eigvalsh_lo`
    gufunc with no errstate (`_eigvalsh`), the rank test `_full_rank` and the
    `solve1` LU solve (`_lu_solve`), the same calls `stack_coefficients`
    makes on a stack of one.
    """
    lam = _eigvalsh(gram)
    if _full_rank(lam[0], lam[-1]):
        return _lu_solve(gram, rhs)
    return np.full(rhs.shape, np.nan)


@dataclass(frozen=True, slots=True)
class StackFit:
    """The half of least squares on a (B, m, c) stack that does not depend on y.

    full_rank marks the members whose Gram matrix passes the rank test of
    `solve_gram`, run on arrays (`_full_rank` of the stacked np.linalg.eigvalsh),
    and grams holds those Gram matrices in stack order.
    """

    stack: np.ndarray
    full_rank: np.ndarray
    grams: np.ndarray

    @property
    def nbytes(self) -> int:
        return self.stack.nbytes + self.full_rank.nbytes + self.grams.nbytes


def stack_fit(a_sub: np.ndarray) -> StackFit:
    """The Gram matrices of a (B, m, c) stack and their rank test: the y-independent
    step of least squares on a stack."""
    a_sub = np.asarray(a_sub, dtype=float)
    gram = a_sub.transpose(0, 2, 1) @ a_sub
    lam = np.linalg.eigvalsh(gram)
    ok = _full_rank(lam[:, 0], lam[:, -1])
    return StackFit(a_sub, ok, gram[ok])


def stack_coefficients(fit: StackFit, y: np.ndarray) -> np.ndarray:
    """The (B, c) least-squares coefficients of fit.stack @ c ~ y, NaN rows for the
    rank-deficient members: the y-dependent step of least squares on a stack. Each
    row has the bytes of solve_gram on its member's Gram matrix."""
    rhs = fit.stack.transpose(0, 2, 1) @ np.asarray(y, dtype=float)
    coef = np.full(rhs.shape, np.nan)
    coef[fit.full_rank] = _lu_solve(fit.grams, rhs[fit.full_rank])
    return coef


def least_squares(a_sub: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Least-squares coefficients for one (m, c) matrix, a_sub @ c ~ y, from the
    normal equations; raises RankDeficient when `solve_gram` finds the Gram
    matrix rank deficient.

    A (B, m, c) stack sharing y goes through `stack_fit` and then
    `stack_coefficients`, which give a rank-deficient member a NaN row.
    """
    a_sub = np.atleast_2d(np.asarray(a_sub, dtype=float))
    y = np.asarray(y, dtype=float)
    coef = solve_gram(a_sub.T @ a_sub, a_sub.T @ y)
    if coef[0] != coef[0]:  # NaN: rank deficient
        raise RankDeficient(f"the Gram matrix of {a_sub.shape[1]} columns is rank deficient")
    return coef


def smallest_singular_value(m: np.ndarray) -> float:
    """sigma_min of m as an operator on its column space coordinates.

    A wide matrix has a nontrivial kernel and gets 0.0 without an SVD.
    Otherwise sigma_min comes from a direct SVD, with absolute accuracy
    ~eps * sigma_max, which a Gram-matrix eigensolve cannot deliver near
    zero; a tall singular matrix gets that computed value. Never negative.
    Input that is not a 2-D float64 ndarray is first made one as by
    np.atleast_2d(np.asarray(m, dtype=float)): a vector is one row. Checking
    first pays: converting every input made perturbation 11.2 % slower.

    The SVD is the bound `svd` gufunc, with no errstate and no signature: the
    float64 input selects the 'd->d' loop, so the last value is
    np.linalg.svd(m, compute_uv=False)'s, to the bit. A NaN result means NaN
    input or no convergence (the gufunc then warns of an invalid value), and
    np.linalg.svd reruns, so the outcome is its own: the same LinAlgError, or
    the same NaN for infinite input. Where warnings are errors, that warning
    raises and np.linalg.svd reruns just the same.
    """
    if not (type(m) is np.ndarray and m.ndim == 2 and m.dtype is _FLOAT64):
        m = np.atleast_2d(np.asarray(m, dtype=float))
    rows, cols = m.shape
    if cols > rows:
        return 0.0
    if _SVD is not None:
        try:
            sigma = _SVD(m).item(-1)
        except RuntimeWarning:
            pass
        else:
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
