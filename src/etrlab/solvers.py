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
from math import comb, sqrt
from typing import Optional

import numpy as np

from .dictionaries import EffectiveSensing
from .errors import (
    EnumerationTooLarge,
    InvalidSparsity,
    NoFeasibleSolution,
    NotNormalized,
    Stalled,
)
from .geometry import colex_supports
from .numerics import TOL
from .sparsity import PlantedInstance

L0_SUPPORT_GUARD = 10 ** 7
SOLVER_NAMES = ("l0-exhaustive", "omp", "basis-pursuit")


@dataclass
class SolverConfig:
    solver: str = "basis-pursuit"
    epsilon: float = 0.0
    max_sparsity: int = 0  # 0: defaults to min(m, N) at solve time
    max_iterations: int = 4000
    convergence_tol: float = 1e-8
    rho: float = 1.0  # ADMM penalty; adapted x2 / /2 within [1e-4, 1e4]

    def __post_init__(self):
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

    def charge_least_squares(self, m: int, c: int) -> None:
        # normal equations: Gram, rhs, Cholesky factor + two triangular solves
        self.charge(
            mult=m * c * c + m * c + c ** 3 // 3 + 2 * c * c,
            add=m * c * c + m * c + c ** 3 // 3 + 2 * c * c,
        )

    def charge_residual(self, m: int, c: int) -> None:
        # A_S @ coef, subtraction, and the norm
        self.charge(mult=m * c + m, add=m * c + m + m - 1, cmp=0)


@dataclass
class RecoveryResult:
    alpha_hat: np.ndarray
    x_hat: np.ndarray
    support: tuple[int, ...]
    residual_norm: float
    cost: CostCounter
    converged: bool
    stability_ratio: Optional[float] = None
    iterations: int = 0


@dataclass
class BatteryEntry:
    solver: str
    result: Optional[RecoveryResult]
    error: Optional[str] = None


def _ls_on_support(mat: np.ndarray, y: np.ndarray):
    """Fast support-restricted least squares; None when numerically singular."""
    gram = mat.T @ mat
    try:
        coef = np.linalg.solve(gram, mat.T @ y)
    except np.linalg.LinAlgError:
        return None
    lam = np.linalg.eigvalsh(gram)
    if lam[0] < TOL.rank_rel ** 2 * max(lam[-1], 1e-300) or lam[0] <= 0:
        return None
    return coef


def _finish(a, alpha, y, cost, converged, psi, truth, epsilon, iterations=0) -> RecoveryResult:
    x_hat = psi @ alpha if psi is not None else alpha.copy()
    result = RecoveryResult(
        alpha_hat=alpha,
        x_hat=x_hat,
        support=tuple(np.flatnonzero(np.abs(alpha) > TOL.zero_tau * max(np.linalg.norm(alpha), 1.0))),
        residual_norm=float(np.linalg.norm(a.a @ alpha - y)),
        cost=cost,
        converged=converged,
        iterations=iterations,
    )
    if truth is not None and epsilon > 0:
        result.stability_ratio = float(np.linalg.norm(result.x_hat - truth.x)) / epsilon
    return result


def solve_l0(
    a: EffectiveSensing,
    y: np.ndarray,
    cfg: SolverConfig,
    psi: Optional[np.ndarray] = None,
    truth: Optional[PlantedInstance] = None,
) -> RecoveryResult:
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
        return _finish(a, np.zeros(n), y, cost, True, psi, truth, cfg.epsilon)
    examined = 0
    for size in range(1, kmax + 1):
        examined += comb(n, size)
        if examined > L0_SUPPORT_GUARD:
            raise EnumerationTooLarge(f"cumulative supports exceed {L0_SUPPORT_GUARD}")
        for support in colex_supports(n, size):
            cols = mat[:, list(support)]
            cost.charge_least_squares(m, size)
            coef = _ls_on_support(cols, y)
            if coef is None:
                continue
            cost.charge_residual(m, size)
            cost.charge(cmp=1)
            if np.linalg.norm(cols @ coef - y) <= feas:
                alpha = np.zeros(n)
                alpha[list(support)] = coef
                return _finish(a, alpha, y, cost, True, psi, truth, cfg.epsilon)
    raise NoFeasibleSolution(f"no support up to size {kmax} fits within epsilon")


def solve_omp(
    a: EffectiveSensing,
    y: np.ndarray,
    cfg: SolverConfig,
    psi: Optional[np.ndarray] = None,
    truth: Optional[PlantedInstance] = None,
) -> RecoveryResult:
    """Orthogonal matching pursuit; one column per iteration, ties to lowest index."""
    y = np.asarray(y, dtype=float)
    mat = a.a
    m, n = mat.shape
    norms = np.linalg.norm(mat, axis=0)
    if not np.allclose(norms, 1.0, atol=1e-8):
        raise NotNormalized("OMP requires unit-norm columns")
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
        if corr[pick] < 1e-12:
            raise Stalled("correlation max below 1e-12 with residual above epsilon")
        support.append(pick)
        cols = mat[:, support]
        cost.charge_least_squares(m, len(support))
        coef = _ls_on_support(cols, y)
        if coef is None:
            raise Stalled("selected columns became rank deficient")
        residual = y - cols @ coef
        cost.charge_residual(m, len(support))
        iters += 1
    alpha = np.zeros(n)
    if support:
        alpha[support] = coef
    converged = bool(np.linalg.norm(residual) <= feas)
    return _finish(a, alpha, y, cost, converged, psi, truth, cfg.epsilon, iterations=iters)


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


def solve_bp(
    a: EffectiveSensing,
    y: np.ndarray,
    cfg: SolverConfig,
    psi: Optional[np.ndarray] = None,
    truth: Optional[PlantedInstance] = None,
) -> RecoveryResult:
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
    if y_perp > cfg.epsilon + 1e-8:
        raise NoFeasibleSolution("y outside the reachable residual ball")
    eps_r = float(np.sqrt(max(0.0, cfg.epsilon ** 2 - y_perp ** 2)))
    b_over_s = b / s

    rho = cfg.rho
    z, z_old, u = np.zeros(n), np.zeros(n), np.zeros(n)
    v, x, w, diff = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    c, dc, miss, work = np.empty(rank), np.empty(rank), np.empty(rank), np.empty(rank)
    converged = False
    bisections = 0
    it = 0
    for it in range(1, cfg.max_iterations + 1):
        np.subtract(z, u, out=v)
        np.matmul(vr.T, v, out=c)
        c_new, bisected = _project_ball(s, b, b_over_s, eps_r, c, miss, work)
        bisections += bisected
        np.subtract(c_new, c, out=dc)
        np.matmul(vr, dc, out=x)
        np.add(v, x, out=x)
        # z = sign(x + u) * max(|x + u| - 1/rho, 0), written over the older iterate
        z_old, z = z, z_old
        np.add(x, u, out=w)
        np.sign(w, out=z)
        np.abs(w, out=w)
        np.subtract(w, 1.0 / rho, out=w)
        np.maximum(w, 0.0, out=w)
        np.multiply(z, w, out=z)
        np.add(u, x, out=u)
        np.subtract(u, z, out=u)
        np.subtract(x, z, out=diff)
        r_primal = sqrt(diff.dot(diff))
        np.subtract(z, z_old, out=diff)
        r_dual = rho * sqrt(diff.dot(diff))
        scale = max(1.0, sqrt(z.dot(z)))
        if r_primal <= cfg.convergence_tol * scale and r_dual <= cfg.convergence_tol * scale:
            converged = True
            break
        if it % 10 == 0:
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
    supp = np.flatnonzero(np.abs(z) > TOL.zero_tau * max(float(np.linalg.norm(z)), 1.0))
    if 0 < len(supp) <= m:
        coef = _ls_on_support(mat[:, supp], y)
        cost.charge_least_squares(m, len(supp))
        if coef is not None:
            cand = np.zeros(n)
            cand[supp] = coef
            feas_ok = np.linalg.norm(mat @ cand - y) <= max(cfg.epsilon, 0.0) + cfg.convergence_tol
            l1_ok = np.sum(np.abs(cand)) <= np.sum(np.abs(z)) + cfg.convergence_tol
            if feas_ok and l1_ok:
                alpha = cand
    return _finish(a, alpha, y, cost, converged, psi, truth, cfg.epsilon, iterations=it)


_SOLVE = {"l0-exhaustive": solve_l0, "omp": solve_omp, "basis-pursuit": solve_bp}


def solve(name: str, a, y, cfg, psi=None, truth=None) -> RecoveryResult:
    """Dispatch to one solver; OMP on a matrix not flagged column-normalized
    runs on the rescaled matrix with its coefficients mapped back."""
    if name not in _SOLVE:
        raise InvalidSparsity(f"unknown solver {name!r}")
    if name == "omp" and not a.column_normalized:
        return _omp_rescaled(a, y, cfg, psi, truth)
    return _SOLVE[name](a, y, cfg, psi=psi, truth=truth)


def run_battery(
    a: EffectiveSensing,
    y: np.ndarray,
    truth: Optional[PlantedInstance] = None,
    configs: Optional[dict[str, SolverConfig]] = None,
    psi: Optional[np.ndarray] = None,
) -> list[BatteryEntry]:
    """Run all three solvers; per-solver failures become entries, not aborts."""
    configs = configs or {}
    entries = []
    for name in SOLVER_NAMES:
        cfg = configs.get(name, SolverConfig(solver=name))
        try:
            entries.append(BatteryEntry(name, solve(name, a, y, cfg, psi=psi, truth=truth)))
        except Exception as exc:  # recorded, battery continues
            entries.append(BatteryEntry(name, None, error=f"{type(exc).__name__}: {exc}"))
    return entries


def _omp_rescaled(a, y, cfg, psi, truth) -> RecoveryResult:
    """OMP on the column-normalized matrix, coefficients mapped back."""
    norms = np.linalg.norm(a.a, axis=0)
    if np.any(norms == 0.0):
        raise NotNormalized("zero column")
    res = solve_omp(EffectiveSensing(a.a / norms, True), y, cfg, psi=None, truth=None)
    alpha = res.alpha_hat / norms
    out = _finish(a, alpha, y, res.cost, res.converged, psi, truth, cfg.epsilon,
                  iterations=res.iterations)
    return out
