"""Recovery procedures with arithmetic-operation accounting.

Three solvers share one result type: exhaustive minimum-support search,
orthogonal greedy pursuit, and an alternating-direction l1 solver.

Cost convention: counters charge the scalar multiplies, additions, and
comparisons of the textbook inner loops (least-squares subroutines
included) through closed-form per-step formulas rather than per-scalar
instrumentation. The formulas are deterministic in the problem sizes and
iteration counts, so identical inputs always give identical totals.
RNG and I/O are never charged.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import sqrt
from typing import Optional

import numpy as np

from .dictionaries import EffectiveSensing
from .errors import (
    EtrLabError, InvalidSparsity, NoFeasibleSolution, NotNormalized, RankDeficient, Stalled,
)
from .numerics import TOL, detected_support, least_squares
from .sparsity import minimal_support

L0_SUPPORT_GUARD = 10 ** 7
ADMM_RHO = 1.0  # initial ADMM penalty; adapted x2 / /2 within [1e-4, 1e4]
SOLVER_NAMES = ("l0-exhaustive", "omp", "basis-pursuit")


@dataclass(kw_only=True)
class SolverConfig:
    epsilon: float = 0.0
    max_sparsity: int = 0  # 0: defaults to min(m, N) at solve time
    max_iterations: int = 4000
    convergence_tol: float = 1e-8

    def __post_init__(self):
        if not self.epsilon >= 0.0:
            raise InvalidSparsity(f"epsilon must be >= 0, got {self.epsilon}")
        if self.max_sparsity < 0:
            raise InvalidSparsity(f"max_sparsity must be >= 0, got {self.max_sparsity}")
        if not 0.0 < self.convergence_tol <= 1e-2:
            raise InvalidSparsity("convergence_tol must lie in (0, 1e-2]")
        if self.max_iterations < 1:
            raise InvalidSparsity("max_iterations must be >= 1")


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
        residual_norm=float(np.linalg.norm(a.a @ alpha - y)),
        cost=cost,
        converged=converged,
        iterations=iterations,
    )


def solve_l0(a: EffectiveSensing, y: np.ndarray, cfg: SolverConfig) -> RecoveryResult:
    """Exact minimum-support solution by enumeration in increasing size.

    Supports of a given size are visited in colex order; the first
    feasible support (residual <= epsilon + 1e-10) is returned, so the
    result has minimal support size by construction. Exponential cost.
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
    if np.linalg.norm(y) <= feas:
        return _finish(a, np.zeros(n), y, cost, True)
    support, coef, tallies = minimal_support(mat, y, feas, kmax, L0_SUPPORT_GUARD)
    for size, examined, nonsingular in tallies:  # a residual and a comparison per non-singular fit
        cost.charge_least_squares(m, size, examined)
        cost.charge_residual(m, size, nonsingular)
        cost.charge(cmp=nonsingular)
    if support is None:
        raise NoFeasibleSolution(f"no support up to size {kmax} fits within epsilon")
    alpha = np.zeros(n)
    alpha[list(support)] = coef
    return _finish(a, alpha, y, cost, True)


def solve_omp(a: EffectiveSensing, y: np.ndarray, cfg: SolverConfig) -> RecoveryResult:
    """Orthogonal matching pursuit; one column per iteration, ties to lowest index.

    Runs on the column-normalized matrix and maps the coefficients back, so
    alpha_hat holds coefficients of `a` itself.
    """
    y = np.asarray(y, dtype=float)
    norms = np.linalg.norm(a.a, axis=0)
    if np.any(norms == 0.0):
        raise NotNormalized("zero column")
    mat = a.a / norms
    m, n = mat.shape
    kmax = cfg.max_sparsity or min(m, n)
    feas = cfg.epsilon + TOL.feasibility_slack
    cost = CostCounter()
    support: list[int] = []
    residual = y.copy()
    coef = np.zeros(0)
    iters = 0
    while np.linalg.norm(residual) > feas and len(support) < kmax:
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
    converged = bool(np.linalg.norm(residual) <= feas)
    return _finish(a, alpha / norms, y, cost, converged, iterations=iters)


def _project_ball(s, b, b_over_s, eps_r, c, miss, work):
    """Project coords c onto {c' : ||s*c' - b|| <= eps_r}: (new coords, bisected).

    Returns c itself when it is already inside, and `b_over_s` (b / s) when
    eps_r = 0. Otherwise a bisection finds the multiplier lam. It keeps
    norm_at(lo) > eps_r >= norm_at(hi), so once the midpoint rounds to lo or
    hi no later step moves either end: the loop stops there, with the hi
    that all 200 steps would reach. The caller charges 200 steps for every
    bisection. `miss` and `work` are scratch vectors of c's length.
    """
    np.multiply(s, c, out=miss)
    np.subtract(miss, b, out=miss)
    if sqrt(miss.dot(miss)) <= eps_r:
        return c, False
    if eps_r == 0.0:
        return b_over_s, False
    # c'(lam) = (c + lam*s*b) / (1 + lam*s^2); ||s*c' - b|| decreasing in lam
    def norm_at(lam):
        np.multiply(s, lam, out=work)
        np.multiply(work, s, out=work)
        np.add(work, 1.0, out=work)
        np.divide(miss, work, out=work)
        return sqrt(work.dot(work))

    lo, hi = 0.0, 1.0
    while norm_at(hi) > eps_r:
        hi *= 4.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if norm_at(mid) > eps_r:
            lo = mid
        else:
            hi = mid
    lam = hi
    return (c + lam * s * b) / (1.0 + lam * s * s), True


def solve_bp(a: EffectiveSensing, y: np.ndarray, cfg: SolverConfig) -> RecoveryResult:
    """min ||z||_1 s.t. ||Az - y|| <= epsilon by alternating directions.

    Splitting x = proj_C(z - u), z = shrink(x + u, 1/rho), u += x - z,
    where C is the residual ball (the epsilon = 0 case degenerates to the
    affine set and is projected exactly, no tolerance schedule needed).
    The projection runs in the coordinates of a cached SVD of A. Residual
    balancing doubles/halves rho, capped to [1e-4, 1e4]. The sparse
    iterate z is the reported solution; a support-restricted debias step
    replaces it only when that strictly improves both feasibility and the
    l1 objective.

    The iterations reuse preallocated vectors, and their cost is charged
    once per solve: the iteration count times the per-iteration counts,
    plus 200 nominal steps for every iteration that ran the bisection.

    Each iterate is bit-identical to the textbook loop (matmul gemvs,
    `u += x; u -= z`, the dual residual every iteration) for three reasons:
    `ndarray.dot(..., out=)` and `np.matmul(..., out=)` both call the same
    `cblas_dgemv` on these contiguous operands; `u = w - z` reuses
    w = x + u, and IEEE addition commutes, so x + u == u + x; and the dual
    residual rho * ||z - z_old|| is read at only two points, the convergence
    test once the primal test has passed and the rho update on every 10th
    iteration, so it is computed only there.
    """
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    cost = CostCounter()
    u_svd, s_all, vt = np.linalg.svd(mat, full_matrices=False)
    rank = int(np.sum(s_all > TOL.rank_rel * max(s_all[0], 1e-300)))
    ur, s, vr = u_svd[:, :rank], s_all[:rank], vt[:rank].T  # vr: N x r
    cost.charge(mult=4 * m * m * n, add=4 * m * m * n)  # SVD setup, nominal
    b = ur.T @ y
    y_perp = float(np.linalg.norm(y - ur @ b))
    if y_perp > cfg.epsilon + TOL.reachability:
        raise NoFeasibleSolution("y outside the reachable residual ball")
    eps_r = float(np.sqrt(max(0.0, cfg.epsilon ** 2 - y_perp ** 2)))
    b_over_s = b / s

    rho = ADMM_RHO
    tol = cfg.convergence_tol
    z, z_old, u = np.zeros(n), np.zeros(n), np.zeros(n)
    v, x, w, mag, diff = np.empty(n), np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    c, dc, miss, work = np.empty(rank), np.empty(rank), np.empty(rank), np.empty(rank)
    vr_t = vr.T
    add, subtract, multiply = np.add, np.subtract, np.multiply
    absolute, sign, maximum = np.abs, np.sign, np.maximum
    converged = False
    bisections = 0
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        subtract(z, u, v)
        vr_t.dot(v, out=c)
        c_new, bisected = _project_ball(s, b, b_over_s, eps_r, c, miss, work)
        bisections += bisected
        subtract(c_new, c, dc)
        vr.dot(dc, out=x)
        add(v, x, x)
        # z = sign(x + u) * max(|x + u| - 1/rho, 0), written over the older iterate
        z_old, z = z, z_old
        add(x, u, w)
        sign(w, z)
        absolute(w, mag)
        subtract(mag, 1.0 / rho, mag)
        maximum(mag, 0.0, out=mag)  # positional out is deprecated for maximum
        multiply(z, mag, z)
        subtract(w, z, u)
        subtract(x, z, diff)
        r_primal = sqrt(diff.dot(diff))
        limit = tol * max(1.0, sqrt(z.dot(z)))
        adapt = it % 10 == 0
        if r_primal > limit and not adapt:
            continue
        subtract(z, z_old, diff)
        r_dual = rho * sqrt(diff.dot(diff))
        if r_primal <= limit and r_dual <= limit:
            converged = True
            break
        if adapt:
            if r_primal > 10.0 * r_dual and rho < 1e4:
                rho *= 2.0
                u /= 2.0
            elif r_dual > 10.0 * r_primal and rho > 1e-4:
                rho /= 2.0
                u *= 2.0
    # per iteration: ball residual; x update; shrink and dual step; three norms
    cost.charge(
        mult=it * (2 * rank + 2 * n * rank + n + 2 * n + 2) + bisections * 200 * 3 * rank,
        add=it * (3 * rank - 1 + 2 * n * rank + n + 4 * n + 4 * n - 2)
        + bisections * 200 * 2 * rank,
        cmp=it * (n + 2) + bisections * 201,
    )

    alpha = z.copy()
    # guarded debias: least squares on the detected support
    supp = detected_support(z)
    if 0 < len(supp) <= m:
        cost.charge_least_squares(m, len(supp), 1)
        try:
            coef = least_squares(mat[:, supp], y)
        except RankDeficient:
            pass
        else:
            cand = np.zeros(n)
            cand[supp] = coef
            feas_ok = np.linalg.norm(mat @ cand - y) <= cfg.epsilon + cfg.convergence_tol
            l1_ok = np.sum(np.abs(cand)) <= np.sum(np.abs(z)) + cfg.convergence_tol
            if feas_ok and l1_ok:
                alpha = cand
    return _finish(a, alpha, y, cost, converged, iterations=it)


_SOLVE = {"l0-exhaustive": solve_l0, "omp": solve_omp, "basis-pursuit": solve_bp}


def solve(name: str, a, y, cfg) -> RecoveryResult:
    """Dispatch to one solver by name."""
    if name not in _SOLVE:
        raise InvalidSparsity(f"unknown solver {name!r}")
    return _SOLVE[name](a, y, cfg)


def run_battery(
    a: EffectiveSensing,
    y: np.ndarray,
    cfg: Optional[SolverConfig] = None,
    names: tuple[str, ...] = SOLVER_NAMES,
) -> list[BatteryEntry]:
    """Run the named solvers in order with one config; a lab error or
    LinAlgError in one solver becomes its entry's error instead of aborting the
    battery. Any other exception is a bug and propagates."""
    cfg = cfg or SolverConfig()
    entries = []
    for name in names:
        try:
            entries.append(BatteryEntry(name, solve(name, a, y, cfg)))
        except (EtrLabError, np.linalg.LinAlgError) as exc:  # recorded, battery continues
            entries.append(BatteryEntry(name, None, error=f"{type(exc).__name__}: {exc}"))
    return entries
