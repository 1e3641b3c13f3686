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

``solve`` reports how it stopped, not whether its result is stationary.
The certificate is ``stationarity_residual``: one sweep at the final
penalty from a given factorization.  The CLI takes it once, from the
factorization it writes, after local search when that runs.

``solve`` adds inertia in the style of iPALM (Pock & Sabach, SIAM J.
Imaging Sci. 2016): each sweep after the first starts from the extrapolated
point ``B + beta (B - B_prev)`` of every block, with the FISTA weight
``beta = (t - 1) / t_next``.  The result is accepted only if its objective
is no higher than the current one; otherwise ``solve`` takes the plain
sweep from the current iterate and restarts the weight at zero, so descent
stays monotone and every iterate stays feasible.  A rejected extrapolation
costs one extra sweep.

A sweep costs O(k*n) beyond its matrix products: the top-ell step selects
the ell-th largest magnitude with ``np.partition`` instead of sorting all
k*n entries, and the H-step and Wt-step share one product ``Wt X``.
"""

from __future__ import annotations

import math
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
_EPS_W = 1e-6  # floor on ||H||^2 in the W-step constant, for H = 0


@dataclass(frozen=True)
class ObjectiveBreakdown:
    fit: float
    reg: float
    total: float


@dataclass
class SolveTrace:
    """Per-sweep objective values and step sizes of one solve, and whether it
    stopped on its tolerances; ``stationarity_residual`` certifies a result."""

    objectives: list[float] = field(default_factory=list)
    fits: list[float] = field(default_factory=list)
    regs: list[float] = field(default_factory=list)
    step_sizes: list[tuple[float, float, float]] = field(default_factory=list)
    converged: bool = False

    @property
    def iterations(self) -> int:
        """Accepted sweeps: one per objective after the starting one."""
        return len(self.objectives) - 1

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
    """``(fit, reg, total)`` on plain arrays."""
    r1 = W @ H
    np.subtract(X, r1, out=r1)
    r2 = Wt @ X
    np.subtract(H, r2, out=r2)
    fit = float(np.multiply(r1, r1, out=r1).sum())
    reg = float(np.multiply(r2, r2, out=r2).sum())
    return fit, reg, fit + lam * reg


def objective(X, fac: Factorization, lam: float) -> ObjectiveBreakdown:
    """Exact evaluation of the penalized objective and its two terms."""
    Xm = as_matrix(X, "X")
    if fac.W.shape[0] != Xm.shape[0] or fac.H.shape[1] != Xm.shape[1]:
        raise InvalidInputError("objective: shapes of X and factorization differ")
    fit, reg, total = _objective_raw(Xm, fac.H, fac.W, fac.Wt, lam)
    return ObjectiveBreakdown(fit=fit, reg=reg, total=total)


def grad_H(X, fac: Factorization, lam: float) -> np.ndarray:
    return -2.0 * fac.W.T @ (X - fac.W @ fac.H) + 2.0 * lam * (fac.H - fac.Wt @ X)


def grad_W(X, fac: Factorization) -> np.ndarray:
    return -2.0 * (X - fac.W @ fac.H) @ fac.H.T


def grad_Wt(X, fac: Factorization, lam: float) -> np.ndarray:
    return -2.0 * lam * (fac.H - fac.Wt @ X) @ X.T


def _h_target_raw(X, H, W, lam, l1, wtx):
    """Clamped gradient step on H, the input of the top-ell selection;
    ``wtx = Wt X``.

    ``max(H - (-(W^T (X - W H)) + lam (H - wtx)) / l1, 0)`` in that order,
    computed in place on its temporaries (``-a + b`` is ``b - a`` bit for
    bit)."""
    R = W @ H
    np.subtract(X, R, out=R)
    D = H - wtx
    D *= lam
    np.subtract(D, W.T @ R, out=D)
    D /= l1
    np.subtract(H, D, out=D)
    return np.maximum(D, 0.0, out=D)


def step_H(X, H, W, lam, ell, wtx):
    """Proximal descent step on H, given ``wtx = Wt X``: clamp the gradient
    step, then keep the top ``ell`` entries.  Returns ``(H1, L1)`` with
    ``L1 = 2 (lam + ||W||^2)``."""
    sw = _spectral_norm_raw(W)
    l1 = 2.0 * (lam + sw * sw)
    return _topk_raw(_h_target_raw(X, H, W, lam, l1, wtx), ell), l1


def step_W(X, H, W):
    """Projected descent step on W; the gradient does not involve ``lam``.
    Returns ``(W1, L2)`` with ``L2 = 2 max(||H||^2, _EPS_W)``."""
    sh = _spectral_norm_raw(H)
    l2 = 2.0 * max(sh * sh, _EPS_W)
    # W + ((X - W H) H^T) / l2, in place on the temporaries
    R = W @ H
    np.subtract(X, R, out=R)
    G = R @ H.T
    G /= l2
    G += W
    return _simplex_rows_raw(G), l2


def step_Wt(X, H, Wt, lam, smax_x, wtx):
    """Projected descent step on Wt, given ``wtx = Wt X``; returns
    ``(Wt1, L3)`` with ``L3 = 2 lam ||X||^2``.  ``L3 == 0`` (``lam == 0`` or
    ``X == 0``) makes the block's objective constant, so ``Wt`` is returned
    unchanged."""
    l3 = 2.0 * lam * smax_x * smax_x
    if l3 == 0.0:
        return Wt.copy(), l3
    # Wt + (lam / l3) ((H - wtx) X^T), in place on the product
    G = (H - wtx) @ X.T
    G *= lam / l3
    G += Wt
    return _simplex_rows_raw(G), l3


def default_init(X, cfg: SaaConfig) -> Factorization:
    """The pipeline's one start: FurthestSum rows of X (Mørup & Hansen,
    Neurocomputing 2012), uniform W and the thresholded Wt X.

    The first archetype is the row of largest Euclidean norm; each next one
    is the unchosen row with the largest summed Euclidean distance to the
    rows already chosen, ties to the lowest index.  With m < k the choice
    cycles through the m chosen rows.  Wt holds those rows' indicators, so
    Wt X has k distinct rows whenever X does.
    """
    Xm = as_matrix(X, "X")
    m, k = Xm.shape[0], cfg.k
    chosen = [int(np.argmax(np.linalg.norm(Xm, axis=1)))]
    summed = np.zeros(m)
    while len(chosen) < min(m, k):
        summed += np.linalg.norm(Xm - Xm[chosen[-1]], axis=1)
        summed[chosen] = -np.inf
        chosen.append(int(np.argmax(summed)))
    Wt = np.zeros((k, m))
    Wt[np.arange(k), np.resize(chosen, k)] = 1.0
    H = _topk_raw(np.maximum(Wt @ Xm, 0.0), cfg.ell)
    return Factorization(H=H, W=np.full((m, k), 1.0 / k), Wt=Wt)


def zero_init(X: np.ndarray, cfg: SaaConfig) -> Factorization:
    """The paper's baseline start: H = 0 with uniform weight rows."""
    (m, n), k = X.shape, cfg.k
    return Factorization(
        H=np.zeros((k, n)), W=np.full((m, k), 1.0 / k), Wt=np.full((k, m), 1.0 / m)
    )


def _sweep_raw(X, H, W, Wt, lam, ell, smax_x):
    """One H, W, Wt sweep; the H-step and the Wt-step share ``Wt X``."""
    wtx = Wt @ X
    H1, l1 = step_H(X, H, W, lam, ell, wtx)
    W1, l2 = step_W(X, H1, W)
    Wt1, l3 = step_Wt(X, H1, Wt, lam, smax_x, wtx)
    return H1, W1, Wt1, (l1, l2, l3)


def _block_change(new, old) -> float:
    """Largest Frobenius norm of the change of the blocks ``(H, W, Wt)``."""
    return max(float(np.linalg.norm(b1 - b0)) for b1, b0 in zip(new, old))


def solve(
    X,
    init: Factorization | None,
    cfg: SaaConfig,
    lam: float | None = None,
) -> tuple[Factorization, SolveTrace]:
    """Run sweeps until the objective decrease and the iterate movement both
    fall below their tolerances, or ``cfg.max_iter`` sweeps elapse.

    Each sweep after the first is extrapolated from the last two iterates
    and falls back to the plain sweep when that would raise the objective
    (see the module docstring).  ``trace.iterations`` counts accepted
    sweeps, and ``trace.step_sizes`` holds the accepted sweeps' steps; a
    rejected extrapolation is not recorded but costs one extra sweep.

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
    ell = cfg.ell
    H, W, Wt = fac.H, fac.W, fac.Wt
    H_prev, W_prev, Wt_prev = H, W, Wt
    trace = SolveTrace()
    fit, reg, total = _objective_raw(Xm, H, W, Wt, lam)
    trace.objectives.append(total)
    trace.fits.append(fit)
    trace.regs.append(reg)

    t = 1.0
    for _ in range(cfg.max_iter):
        t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
        beta = (t - 1.0) / t_next
        accepted = False
        if beta > 0.0:
            H1, W1, Wt1, ls = _sweep_raw(
                Xm,
                H + beta * (H - H_prev),
                W + beta * (W - W_prev),
                Wt + beta * (Wt - Wt_prev),
                lam, ell, smax_x,
            )
            new = _objective_raw(Xm, H1, W1, Wt1, lam)
            accepted = new[2] <= total
        if not accepted:
            # plain sweep from the current iterate; a rejection restarts momentum
            H1, W1, Wt1, ls = _sweep_raw(Xm, H, W, Wt, lam, ell, smax_x)
            new = _objective_raw(Xm, H1, W1, Wt1, lam)
            if beta > 0.0:
                t_next = 1.0
        fit, reg, new_total = new
        l1, l2, l3 = ls
        change = _block_change((H1, W1, Wt1), (H, W, Wt))
        trace.objectives.append(new_total)
        trace.fits.append(fit)
        trace.regs.append(reg)
        trace.step_sizes.append((0.5 / l1, 0.5 / l2, 0.5 / l3 if l3 > 0 else np.inf))
        decreased_enough = (total - new_total) <= cfg.tol_objective * max(
            total, _OBJ_FLOOR
        )
        H_prev, W_prev, Wt_prev = H, W, Wt
        H, W, Wt, total, t = H1, W1, Wt1, new_total, t_next
        if decreased_enough and change <= cfg.tol_stationary:
            trace.converged = True
            break

    return Factorization(H=H, W=W, Wt=Wt), trace


def stationarity_residual(X, fac: Factorization, cfg: SaaConfig) -> StationarityReport:
    """Apply one full sweep at ``cfg.final_lambda`` from ``fac`` and measure
    the largest block change.

    A zero residual means ``fac`` is a fixed point of the sweep map.  Also
    reports whether the clamped H-step target has a magnitude tie at the
    sparsity boundary, in which case the thresholded update is not unique.
    """
    Xm = as_matrix(X, "X")
    (m, n), k = Xm.shape, cfg.k
    if (fac.H.shape, fac.W.shape, fac.Wt.shape) != ((k, n), (m, k), (k, m)):
        raise InvalidInputError("stationarity_residual: shapes of X, k and fac differ")
    lam = cfg.final_lambda
    smax_x = _spectral_norm_raw(Xm)
    H1, W1, Wt1, (l1, _, _) = _sweep_raw(Xm, fac.H, fac.W, fac.Wt, lam, cfg.ell, smax_x)
    residual = _block_change((H1, W1, Wt1), (fac.H, fac.W, fac.Wt))
    # a tie: more than ell entries reach the (positive) selection threshold
    target = _h_target_raw(Xm, fac.H, fac.W, lam, l1, fac.Wt @ Xm)
    thr = _topk_threshold(target.ravel(), cfg.ell)
    tie = thr is not None and thr > 0.0 and np.count_nonzero(target >= thr) > cfg.ell
    return StationarityReport(residual=residual, boundary_tie=bool(tie))
