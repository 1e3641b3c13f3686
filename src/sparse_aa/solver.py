"""Block proximal-gradient descent for the penalized sparse-archetype objective

    Psi(W, Wt, H) = ||X - W H||_F^2 + lam * ||H - Wt X||_F^2

over nonnegative ell-sparse H and row-stochastic W, Wt.  One sweep updates
H, then W, then Wt, each by a half-step of its block gradient (step
``1/(2 L_block)``) followed by the block's exact projection.  The three
displayed update rules fold the leading minus sign of each gradient into
the step, so every block is a descent step; the objective never increases
across a sweep.  ``step_H``, ``step_W`` and ``step_Wt`` are those block
steps on plain arrays: each returns the new block and its Lipschitz
constant, and none validates its input: ``solve``, ``objective``,
``stationarity_residual`` and ``continuation`` do that once at the boundary.

A sweep costs O(k*n) beyond its matrix products: the top-ell step selects
the ell-th largest magnitude with ``np.partition`` instead of sorting all
k*n entries.  ``solve`` also hands the residual ``X - W H`` and the product
``Wt X`` of each objective evaluation to the next sweep, whose H-step and
Wt-step would otherwise compute them again from the same arrays.  Both
leave every iterate, objective value and step size unchanged bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import (
    Factorization,
    InvalidInputError,
    SaaConfig,
    _spectral_norm_raw,
    as_matrix,
)
from .projections import _simplex_rows_raw, _topk_raw, _topk_threshold

_OBJ_FLOOR = 1e-30


@dataclass(frozen=True)
class ObjectiveBreakdown:
    fit: float
    reg: float
    total: float


@dataclass
class SolveTrace:
    """Per-sweep objective values and step sizes of one solve."""

    objectives: list[float] = field(default_factory=list)
    fits: list[float] = field(default_factory=list)
    regs: list[float] = field(default_factory=list)
    step_sizes: list[tuple[float, float, float]] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False
    stationarity_residual: float = float("nan")
    boundary_tie: bool = False

    def rows(self) -> list[tuple[int, float, float, float]]:
        return [
            (i, self.fits[i], self.regs[i], self.objectives[i])
            for i in range(len(self.objectives))
        ]


@dataclass(frozen=True)
class StationarityReport:
    """Largest block change after one full sweep, plus the top-ell tie flag."""

    residual: float
    boundary_tie: bool


def _objective_raw(X, H, W, Wt, lam: float):
    """``(fit, reg, total, X - W H, Wt X)``; the last two feed the next sweep."""
    r1 = X - W @ H
    wtx = Wt @ X
    r2 = H - wtx
    fit = float(np.sum(r1 * r1))
    reg = float(np.sum(r2 * r2))
    return fit, reg, fit + lam * reg, r1, wtx


def objective(X, fac: Factorization, lam: float) -> ObjectiveBreakdown:
    """Exact evaluation of the penalized objective and its two terms."""
    Xm = as_matrix(X, "X")
    if fac.W.shape[0] != Xm.shape[0] or fac.H.shape[1] != Xm.shape[1]:
        raise InvalidInputError("objective: shapes of X and factorization differ")
    fit, reg, total, _, _ = _objective_raw(Xm, fac.H, fac.W, fac.Wt, lam)
    return ObjectiveBreakdown(fit=fit, reg=reg, total=total)


def grad_H(X, fac: Factorization, lam: float) -> np.ndarray:
    return -2.0 * fac.W.T @ (X - fac.W @ fac.H) + 2.0 * lam * (fac.H - fac.Wt @ X)


def grad_W(X, fac: Factorization) -> np.ndarray:
    return -2.0 * (X - fac.W @ fac.H) @ fac.H.T


def grad_Wt(X, fac: Factorization, lam: float) -> np.ndarray:
    return -2.0 * lam * (fac.H - fac.Wt @ X) @ X.T


def _h_target_raw(X, H, W, Wt, lam, l1, r1=None, wtx=None):
    """Clamped gradient step on H, the input of the top-ell selection.

    ``r1 = X - W H`` and ``wtx = Wt X`` are computed when not given.
    """
    if r1 is None:
        r1 = X - W @ H
    if wtx is None:
        wtx = Wt @ X
    return np.maximum(H - (-(W.T @ r1) + lam * (H - wtx)) / l1, 0.0)


def step_H(X, H, W, Wt, lam, ell, r1=None, wtx=None):
    """Proximal descent step on H: clamp the gradient step, then keep the
    top ``ell`` entries.  Returns ``(H1, L1)`` with ``L1 = 2 (lam + ||W||^2)``.

    ``r1 = X - W H`` and ``wtx = Wt X`` are computed when not given.
    """
    sw = _spectral_norm_raw(W)
    l1 = 2.0 * (lam + sw * sw)
    out, _ = _topk_raw(_h_target_raw(X, H, W, Wt, lam, l1, r1, wtx), ell)
    return out, l1


def step_W(X, H, W, eps):
    """Projected descent step on W; the gradient does not involve ``lam``.
    Returns ``(W1, L2)`` with ``L2 = 2 max(||H||^2, eps)``."""
    sh = _spectral_norm_raw(H)
    l2 = 2.0 * max(sh * sh, eps)
    return _simplex_rows_raw(W + ((X - W @ H) @ H.T) / l2), l2


def step_Wt(X, H, Wt, lam, smax_x, wtx=None):
    """Projected descent step on Wt; returns ``(Wt1, L3)`` with
    ``L3 = 2 lam ||X||^2``.  ``L3 == 0`` (``lam == 0`` or ``X == 0``) makes
    the block's objective constant, so ``Wt`` is returned unchanged.
    ``wtx = Wt X`` is computed when not given."""
    l3 = 2.0 * lam * smax_x * smax_x
    if l3 == 0.0:
        return Wt.copy(), l3
    if wtx is None:
        wtx = Wt @ X
    return _simplex_rows_raw(Wt + (lam / l3) * ((H - wtx) @ X.T)), l3


def default_init(X, cfg: SaaConfig) -> Factorization:
    """Feasible-by-construction start: uniform weights, thresholded Wt X."""
    Xm = as_matrix(X, "X")
    m = Xm.shape[0]
    W = np.full((m, cfg.k), 1.0 / cfg.k)
    Wt = np.full((cfg.k, m), 1.0 / m)
    H, _ = _topk_raw(np.maximum(Wt @ Xm, 0.0), cfg.ell)
    return Factorization(H=H, W=W, Wt=Wt)


def _sweep_raw(X, H, W, Wt, lam, ell, eps, smax_x, r1=None, wtx=None):
    """One H, W, Wt sweep; ``r1 = X - W H`` and ``wtx = Wt X`` of the input
    iterate are computed when not given."""
    if wtx is None:
        wtx = Wt @ X
    H1, l1 = step_H(X, H, W, Wt, lam, ell, r1, wtx)
    W1, l2 = step_W(X, H1, W, eps)
    Wt1, l3 = step_Wt(X, H1, Wt, lam, smax_x, wtx)
    return H1, W1, Wt1, (l1, l2, l3)


def solve(
    X,
    init: Factorization | None,
    cfg: SaaConfig,
    lam: float | None = None,
) -> tuple[Factorization, SolveTrace]:
    """Run sweeps until the objective decrease and the iterate movement both
    fall below their tolerances, or ``cfg.max_iter`` sweeps elapse.

    ``lam`` overrides the configured penalty (used by continuation); the
    default is the last value of the schedule.
    """
    Xm = as_matrix(X, "X")
    if lam is None:
        lam = cfg.final_lambda
    if lam <= 0:
        raise InvalidInputError("solve: lam must be positive")
    fac = default_init(Xm, cfg) if init is None else init.copy()
    try:
        fac.validate(cfg.ell)
    except InvalidInputError as exc:
        raise InvalidInputError(f"solve: infeasible initialization: {exc}") from exc
    if fac.H.shape != (cfg.k, Xm.shape[1]) or fac.W.shape[0] != Xm.shape[0]:
        raise InvalidInputError("solve: initialization shape mismatch")

    smax_x = _spectral_norm_raw(Xm)
    H, W, Wt = fac.H, fac.W, fac.Wt
    trace = SolveTrace()
    fit, reg, total, r1, wtx = _objective_raw(Xm, H, W, Wt, lam)
    trace.objectives.append(total)
    trace.fits.append(fit)
    trace.regs.append(reg)

    for _ in range(cfg.max_iter):
        H1, W1, Wt1, (l1, l2, l3) = _sweep_raw(
            Xm, H, W, Wt, lam, cfg.ell, cfg.eps_safeguard, smax_x, r1, wtx
        )
        fit, reg, new_total, r1, wtx = _objective_raw(Xm, H1, W1, Wt1, lam)
        change = max(
            float(np.linalg.norm(H1 - H)),
            float(np.linalg.norm(W1 - W)),
            float(np.linalg.norm(Wt1 - Wt)),
        )
        trace.iterations += 1
        trace.objectives.append(new_total)
        trace.fits.append(fit)
        trace.regs.append(reg)
        trace.step_sizes.append((0.5 / l1, 0.5 / l2, 0.5 / l3 if l3 > 0 else np.inf))
        decreased_enough = (total - new_total) <= cfg.tol_objective * max(
            total, _OBJ_FLOOR
        )
        H, W, Wt, total = H1, W1, Wt1, new_total
        if decreased_enough and change <= cfg.tol_stationary:
            trace.converged = True
            break

    out = Factorization(H=H, W=W, Wt=Wt)
    report = stationarity_residual(Xm, out, cfg, lam=lam, smax_x=smax_x)
    trace.stationarity_residual = report.residual
    trace.boundary_tie = report.boundary_tie
    return out, trace


def stationarity_residual(
    X,
    fac: Factorization,
    cfg: SaaConfig,
    lam: float | None = None,
    smax_x: float | None = None,
) -> StationarityReport:
    """Apply one full sweep from ``fac`` and measure the largest block change.

    A zero residual means ``fac`` is a fixed point of the sweep map.  Also
    reports whether the clamped H-step target has a magnitude tie at the
    sparsity boundary, in which case the thresholded update is not unique.
    """
    Xm = as_matrix(X, "X")
    if lam is None:
        lam = cfg.final_lambda
    if lam <= 0:
        raise InvalidInputError("stationarity_residual: lam must be positive")
    if smax_x is None:
        smax_x = _spectral_norm_raw(Xm)
    H1, W1, Wt1, (l1, _, _) = _sweep_raw(
        Xm, fac.H, fac.W, fac.Wt, lam, cfg.ell, cfg.eps_safeguard, smax_x
    )
    residual = max(
        float(np.linalg.norm(H1 - fac.H)),
        float(np.linalg.norm(W1 - fac.W)),
        float(np.linalg.norm(Wt1 - fac.Wt)),
    )
    # a tie: more than ell entries reach the (positive) selection threshold
    target = _h_target_raw(Xm, fac.H, fac.W, fac.Wt, lam, l1)
    thr = _topk_threshold(target.ravel(), cfg.ell)
    tie = thr is not None and thr > 0.0 and np.count_nonzero(target >= thr) > cfg.ell
    return StationarityReport(residual=residual, boundary_tie=bool(tie))
