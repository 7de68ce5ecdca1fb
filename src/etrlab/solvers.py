"""Recovery procedures with arithmetic-operation accounting.

Three solvers share one result type: exhaustive minimum-support search,
orthogonal greedy pursuit, and basis pursuit solved exactly by the lasso
homotopy. Each result says whether it is what its solver promises: l0 and
OMP fit within epsilon, and basis pursuit carries a dual certificate of
l1 optimality.

Cost convention: counters charge the scalar multiplies, additions, and
comparisons of the textbook inner loops (least-squares subroutines
included) through closed-form per-step formulas rather than per-scalar
instrumentation. The formulas are deterministic in the problem sizes and
step counts, so identical inputs always give identical totals. RNG, I/O
and certificate checks are never charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb, sqrt
from typing import Optional

import numpy as np

from .dictionaries import EffectiveSensing, column_norms
from .errors import (EnumerationTooLarge, EtrLabError, InvalidSetting, InvalidSparsity,
                     NoFeasibleSolution, RankDeficient, Stalled)
from .geometry import BLOCK_CACHE, CHUNK_BYTES, chunk_count, chunk_rows, support_chunk
from .numerics import (TOL, detected_support, least_squares, solve_gram, stack_coefficients,
                       stack_fit, vector_norm)
from .sparsity import check_epsilon

SUPPORT_GUARD = 10 ** 7  # cumulative supports solve_l0 may examine
FIT_MEMO_BYTES = BLOCK_CACHE * CHUNK_BYTES  # 4 MiB, the bound of the colex block cache


@dataclass(kw_only=True)
class SolverConfig:
    epsilon: float = 0.0
    max_sparsity: int = 0  # 0: defaults to min(m, N) at solve time
    max_iterations: int = 4000  # basis pursuit's path-step cap

    def __post_init__(self):
        check_epsilon(self.epsilon)
        if self.max_sparsity < 0:
            raise InvalidSparsity(f"max_sparsity must be >= 0, got {self.max_sparsity}")
        if self.max_iterations < 1:
            raise InvalidSetting(f"max_iterations must be >= 1, got {self.max_iterations}")


@dataclass
class CostCounter:
    multiplies: int = 0
    additions: int = 0
    comparisons: int = 0

    @property
    def total(self) -> int:
        return self.multiplies + self.additions + self.comparisons

    def charge(self, mult: int = 0, add: int = 0, cmp: int = 0) -> None:
        self.multiplies += mult
        self.additions += add
        self.comparisons += cmp

    def charge_least_squares(self, m: int, c: int, count: int) -> None:
        # count solves of the normal equations: Gram, rhs, Cholesky + two triangular solves
        ops = count * (m * c * c + m * c + c ** 3 // 3 + 2 * c * c)
        self.charge(mult=ops, add=ops)

    def charge_residual(self, m: int, c: int, count: int) -> None:
        # count residuals: A_S @ coef, subtraction, and the norm
        self.charge(mult=count * (m * c + m), add=count * (m * c + m + m - 1), cmp=0)


@dataclass
class RecoveryResult:
    alpha_hat: np.ndarray
    support: tuple[int, ...]
    residual_norm: float
    cost: CostCounter
    converged: bool
    iterations: int = 0


@dataclass
class BatteryEntry:
    solver: str
    result: Optional[RecoveryResult]
    error: Optional[str] = None


def _finish(a, alpha, y, cost, converged, iterations=0) -> RecoveryResult:
    return RecoveryResult(
        alpha_hat=alpha,
        support=tuple(detected_support(alpha)),
        residual_norm=vector_norm(a.a @ alpha - y),
        cost=cost,
        converged=converged,
        iterations=iterations,
    )


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


def solve_l0(a: EffectiveSensing, y: np.ndarray, cfg: SolverConfig) -> RecoveryResult:
    """Exact minimum-support solution by enumeration in increasing size.

    Sizes 1..max_sparsity in order, colex order within a size, one least-squares
    stack per geometry.support_chunks chunk; the first support whose residual is
    <= epsilon + TOL.feasibility_slack is returned, so the result has minimal
    support size by construction. Exponential cost. Raises EnumerationTooLarge
    before a size that takes the cumulative support count past SUPPORT_GUARD.

    Each chunk's y-independent fit (`numerics.stack_fit`: the gathered stack, its
    Gram matrices and their rank test) is kept in `_ChunkFits` for the matrix last
    seen, so a solve on the same `a` with another y pays only `stack_coefficients`
    and the residual. Its keys hold the matrix's bytes and the chunk layout, so no
    stale fit is served, and a kept fit has the bytes of a fresh one. The
    CostCounter still charges every fit, once per chunk: a least-squares solve per
    support examined, and a residual and a comparison per non-singular one. It
    counts the textbook cost of the search, not what this process kept.
    """
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    kmax = cfg.max_sparsity or min(m, n)
    if kmax > n:
        raise InvalidSparsity(f"max_sparsity {kmax} > N = {n}")
    feas = cfg.epsilon + TOL.feasibility_slack
    cost = CostCounter()
    cost.charge(add=2 * m - 1, mult=m, cmp=1)  # ||y|| feasibility probe
    if vector_norm(y) <= feas:
        return _finish(a, np.zeros(n), y, cost, True)
    fits = _fits_for(mat)
    for size in range(1, kmax + 1):
        if sum(comb(n, s) for s in range(1, size + 1)) > SUPPORT_GUARD:
            raise EnumerationTooLarge(f"cumulative supports exceed {SUPPORT_GUARD}")
        rows = chunk_rows(m, size)
        for chunk in range(chunk_count(n, size, rows)):
            block, fit = fits.chunk(mat, size, rows, chunk)
            coef = stack_coefficients(fit, y)
            resid = (fit.stack @ coef[:, :, None])[:, :, 0] - y
            # sqrt of the BLAS dot r . r, as np.linalg.norm computes it; NaN never fits
            norms = np.sqrt(resid[:, None, :] @ resid[:, :, None])[:, 0, 0]
            hits = np.flatnonzero(norms <= feas)
            stop = int(hits[0]) + 1 if hits.size else len(block)
            nonsingular = int(np.count_nonzero(~np.isnan(coef[:stop, 0])))
            cost.charge_least_squares(m, size, stop)
            cost.charge_residual(m, size, nonsingular)
            cost.charge(cmp=nonsingular)
            if hits.size:
                alpha = np.zeros(n)
                alpha[block[stop - 1]] = coef[stop - 1]
                return _finish(a, alpha, y, cost, True)
    raise NoFeasibleSolution(f"no support up to size {kmax} fits within epsilon")


def solve_omp(a: EffectiveSensing, y: np.ndarray, cfg: SolverConfig) -> RecoveryResult:
    """Orthogonal matching pursuit; one column per iteration, ties to lowest index.

    Runs on the column-normalized matrix and maps the coefficients back, so
    alpha_hat holds coefficients of `a` itself.
    """
    y = np.asarray(y, dtype=float)
    norms = column_norms(a.a)
    mat = a.a / norms
    m, n = mat.shape
    kmax = cfg.max_sparsity or min(m, n)
    feas = cfg.epsilon + TOL.feasibility_slack
    cost = CostCounter()
    support: list[int] = []
    residual = y.copy()
    coef = np.zeros(0)
    iters = 0
    while vector_norm(residual) > feas and len(support) < kmax:
        corr = np.abs(mat.T @ residual)
        cost.charge(mult=n * m + m, add=n * (m - 1), cmp=n)
        corr[support] = -1.0
        pick = int(np.argmax(corr))
        if corr[pick] < TOL.omp_stall:
            raise Stalled(f"correlation max below {TOL.omp_stall:g} with residual above epsilon")
        support.append(pick)
        cols = mat[:, support]
        cost.charge_least_squares(m, len(support), 1)
        try:
            coef = least_squares(cols, y)
        except RankDeficient:
            raise Stalled("selected columns became rank deficient") from None
        residual = y - cols @ coef
        cost.charge_residual(m, len(support), 1)
        iters += 1
    alpha = np.zeros(n)
    if support:
        alpha[support] = coef
    converged = vector_norm(residual) <= feas
    return _finish(a, alpha / norms, y, cost, converged, iterations=iters)


def solve_bp(a: EffectiveSensing, y: np.ndarray, cfg: SolverConfig) -> RecoveryResult:
    """min ||z||_1 s.t. ||Az - y|| <= epsilon, exactly, by the lasso homotopy.

    Follows the minimizer x(lam) of ||y - Ax||^2 / 2 + lam ||x||_1 from
    lam = ||A^T y||_inf, where x = 0, down to 0 (Osborne, Presnell & Turlach
    2000; Donoho & Tsaig 2008). On each step the active set S and its signs s
    are fixed and x_S moves along d = (A_S^T A_S)^-1 s; the step ends at the
    first join (an inactive correlation reaching lam; one per step, lowest
    index first, zero-length steps allowed), the first drop (an active
    coefficient reaching 0), or lam = 0. A step that ends within
    TOL.path_end * lam_start of 0 ends the path there, since joins that
    close to 0 are rounding. For epsilon > 0 the residual falls along each
    step, so the path stops where ||y - Ax|| = epsilon, one scalar quadratic.

    `converged` is a dual certificate that x is optimal: a nu with
    ||A^T nu||_inf <= 1 whose dual value nu.y - epsilon ||nu|| is ||x||_1, both
    up to TOL.bound_slack. At lam = 0, nu = A_S d (Fuchs); at the epsilon
    stop, nu = (y - Ax) / lam. The value check rejects an x whose signs
    disagree with s, which exact ties can produce. A rank-deficient active
    set or the step cap (`max_iterations`) stops the path uncertified. A path
    that reaches lam = 0 with residual above epsilon + TOL.reachability
    raises NoFeasibleSolution.

    Each step is charged the correlation update, one least-squares solve on
    S and n + |S| comparisons for the join and drop tests. The steps' sizes
    |S| are kept and the CostCounter is charged once, after the path, with the
    same per-step formulas, so the totals are those of a charge per step.

    The step keeps its buffers for the whole solve, and its arithmetic is the
    textbook two-sided step's to the bit: both join sides come from one pass
    over the pairs (corr, -corr) and (slope, -slope), exact since
    lam - (-c) = lam + c, 1 - (-s) = 1 + s and 1 - s > 0 iff s < 1; the drop
    test divides Python floats, the same IEEE division, and keeps the first
    minimum; d comes from the same LAPACK eigvalsh and LU solve calls
    (`solve_gram` on one Gram matrix, as on a stack of one), whose NaN answer
    for a rank-deficient S the step detects as d[0] != d[0].
    """
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    eps = cfg.epsilon
    cost = CostCounter()
    x = np.zeros(n)
    res = y.copy()  # y - Ax, kept only for epsilon > 0
    # row 0 of each pair is corr or slope, row 1 its negation: one pass tests both join sides
    pm_corr = np.empty((2, n))
    corr = np.matmul(mat.T, y, out=pm_corr[0])
    np.negative(corr, out=pm_corr[1])
    # an event is a join, the column index j >= 0, or a drop, ~i < 0 for active[i]
    event = int(np.abs(corr).argmax())
    lam = lam_start = abs(corr.item(event))  # max |corr|, NaN included
    pm_slope = np.empty((2, n))
    slope = pm_slope[0]
    num, den, ratio = np.empty((2, n)), np.empty((2, n)), np.empty((2, n))
    open_side = np.empty((2, n), dtype=bool)
    joins = np.empty(n)
    # free: may join this step; false on the active set and, for one step, the column
    # dropped last, which sits on the boundary and may not rejoin at once
    free = np.ones(n, dtype=bool)
    active: list[int] = []
    sizes: list[int] = []  # |S| of each step, charged after the path
    barred = -1
    steps = 0
    converged = ended = vector_norm(y) <= eps or lam == 0.0
    while not ended and steps < cfg.max_iterations:
        if barred >= 0:
            free[barred] = True
        if event >= 0:
            active.append(event)
            free[event] = False
            barred = -1
        else:
            barred = active.pop(~event)
            x[barred] = 0.0
        idx = np.array(active)
        signs = np.sign(corr[idx])
        sub = mat[:, idx]
        steps += 1
        sizes.append(len(active))
        d = solve_gram(sub.T @ sub, signs)
        if d[0] != d[0]:
            break
        u = sub @ d
        np.matmul(mat.T, u, out=slope)
        np.negative(slope, out=pm_slope[1])
        # join: |corr_j - g * slope_j| = lam - g, so g = (lam -+ corr_j) / (1 -+ slope_j) on
        # a side whose denominator is positive; a negative ratio is a tie, joined at g = 0
        np.subtract(lam, pm_corr, out=num)
        np.subtract(1.0, pm_slope, out=den)
        np.greater(den, 0.0, out=open_side)
        open_side &= free
        ratio.fill(np.inf)
        np.divide(num, den, out=ratio, where=open_side)
        np.minimum(ratio[0], ratio[1], out=joins)
        np.maximum(joins, 0.0, out=joins)
        j = int(joins.argmin())
        join = joins.item(j)
        # drop: x_i + g * d_i = 0 on the first g > 0; the first minimum wins
        x_s = x[idx]
        i, drop = 0, np.inf
        for k, (xk, dk) in enumerate(zip(x_s.tolist(), d.tolist())):
            if dk != 0.0 and 0.0 < (g := -xk / dk) < drop:
                i, drop = k, g
        event, gamma = (j, join) if join < drop else (~i, drop)
        if lam - gamma <= TOL.path_end * lam_start:
            gamma, ended = lam, True
        stop = False
        if eps > 0.0:
            # smaller root of ||res - g u||^2 = eps^2, in the form that avoids cancellation;
            # taken only below gamma, so lam stays positive
            ru, uu, excess = res.dot(u), u.dot(u), res.dot(res) - eps * eps
            disc = ru * ru - uu * excess
            root = excess / (ru + sqrt(disc)) if disc >= 0.0 else np.inf
            stop = root < gamma
            gamma = min(gamma, root)
            res -= gamma * u
        x_s += gamma * d
        x[idx] = x_s
        pm_corr -= gamma * pm_slope
        lam -= gamma
        if stop or ended:
            # dual certificate: ||A^T nu||_inf <= 1 and no gap to the dual value
            nu = (y - mat @ x) / lam if stop else u
            l1 = float(np.abs(x).sum())
            gap = l1 - (nu.dot(y) - eps * vector_norm(nu))
            converged = bool(np.abs(mat.T @ nu).max() <= 1.0 + TOL.bound_slack
                             and gap <= TOL.bound_slack * max(l1, 1.0))
            break
    # the correlation A^T y, then per step: a least-squares solve on S, the correlation
    # update and n + |S| comparisons
    cost.charge(mult=n * m, add=n * (m - 1), cmp=n)
    for size in set(sizes):
        cost.charge_least_squares(m, size, sizes.count(size))
    cost.charge(mult=steps * n * m, add=steps * n * m, cmp=steps * n + sum(sizes))
    result = _finish(a, x, y, cost, converged, iterations=steps)
    if ended and result.residual_norm > eps + TOL.reachability:
        raise NoFeasibleSolution("y outside the reachable residual ball")
    return result


_SOLVE = {"l0-exhaustive": solve_l0, "omp": solve_omp, "basis-pursuit": solve_bp}
SOLVER_NAMES = tuple(_SOLVE)  # the order run_battery runs them in by default


def check_solvers(names) -> None:
    """Raise InvalidSetting for a name `run_battery` does not know."""
    unknown = [name for name in names if name not in SOLVER_NAMES]
    if unknown:
        raise InvalidSetting(f"unknown solvers {unknown}; known: {', '.join(SOLVER_NAMES)}")


def run_battery(
    a: EffectiveSensing,
    y: np.ndarray,
    cfg: Optional[SolverConfig] = None,
    names: tuple[str, ...] = SOLVER_NAMES,
) -> list[BatteryEntry]:
    """Run the named solvers in order with one config; a lab error or LinAlgError in one
    solver becomes its entry's error instead of aborting the battery. An unknown name
    raises before any solver runs; any other exception is a bug and propagates."""
    check_solvers(names)
    cfg = cfg or SolverConfig()
    entries = []
    for name in names:
        try:
            entries.append(BatteryEntry(name, _SOLVE[name](a, y, cfg)))
        except (EtrLabError, np.linalg.LinAlgError) as exc:  # recorded, battery continues
            entries.append(BatteryEntry(name, None, error=f"{type(exc).__name__}: {exc}"))
    return entries
