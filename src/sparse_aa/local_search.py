"""Support-swap refinement of a stationary factorization.

One proposal per outer round: drop the smallest nonzero archetype entry,
let the off-support coordinate with the most negative objective gradient
enter, refit (W, Wt, t) on the frozen support in one pass of convex
solves, and accept only strict objective decreases.  The first rejected
proposal terminates the search; with deterministic selection rules a
rejected state would re-propose the same pair forever.

Both weight fits minimize f(M) = ||Y - M B||^2 with B fixed for the fit
(W: Y = X, B = H; Wt: Y = H, B = X).  They run in the reduced space of a
QR factorization B^T = Q R: f(M) = c + ||Y Q - M R^T||^2 with
c = ||Y - (Y Q) Q^T||^2, an exact orthogonal split into two sums of
squares.  For an m x n X and k archetypes an evaluation of f or of its
gradient costs O(m k^2) in the W fit and O(k m^2) in the Wt fit, instead
of the O(m k n) of forming the m x n residual.

The fits step in the tangent space of the simplex.  Every iterate and
extrapolated point keeps unit row sums, so only the curvature along
row-sum-zero directions matters: the step is 1/L with
L = 2 ||B - mean row of B||^2, not 2 ||B||^2, and the gradient drops its
component along the all-ones direction, which the simplex projection
ignores anyway (-2 (Y - M B) (B - mean row)^T).  The set of minimizers is
unchanged.  X is fixed for a whole search, so the Wt fit's QR of X^T, its
centered R and its step constant are taken once per ``local_search``, not
once per refit.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from ._fista import minimize as _minimize
from .core import (
    Factorization,
    InvalidInputError,
    SaaConfig,
    _spectral_norm_raw,
    as_matrix,
    nnz,
)
from .projections import _simplex_rows_raw
from .solver import grad_H, objective

# swap_refit: tolerance and cap of each weight fit
_REFIT_INNER_TOL = 1e-10
_REFIT_INNER_MAX_ITER = 2_000


@dataclass(frozen=True)
class SwapProposal:
    """One accepted support swap: which coordinate left, which entered,
    the refit entry value, and the objective after the swap."""

    leaving: tuple[int, int] | None
    entering: tuple[int, int]
    t_star: float
    new_objective: float


def select_leaving(H) -> tuple[int, int]:
    """Coordinate of the smallest nonzero entry of ``H`` (row-major ties)."""
    Hm = as_matrix(H, "H")
    flat = Hm.ravel()
    idx = np.flatnonzero(flat != 0.0)
    if idx.size == 0:
        raise InvalidInputError("select_leaving: H has no nonzero entry")
    best = int(idx[np.argmin(flat[idx])])
    return best // Hm.shape[1], best % Hm.shape[1]


def select_entering(X, fac: Factorization, lam: float) -> tuple[int, int]:
    """Off-support coordinate with the most negative objective gradient.

    No sign gate: if every off-support gradient is positive the least
    positive one is still proposed, and the acceptance test rejects it.
    """
    Xm = as_matrix(X, "X")
    g = grad_H(Xm, fac, lam).ravel()
    off = np.flatnonzero(fac.H.ravel() == 0.0)
    if off.size == 0:
        raise InvalidInputError("select_entering: H already has full support")
    best = int(off[np.argmin(g[off])])
    return best // fac.H.shape[1], best % fac.H.shape[1]


def optimal_t(X, H_minus, W, Wt, lam: float, i2: int, j2: int) -> float:
    """Closed-form minimizer over the entering entry's value, clipped at 0."""
    Xm = as_matrix(X, "X")
    Hm = as_matrix(H_minus, "H_minus")
    Wm = as_matrix(W, "W")
    Wtm = as_matrix(Wt, "Wt")
    U = Xm - Wm @ Hm
    V = Hm - Wtm @ Xm
    col = Wm[:, i2]
    den = lam + float(col @ col)
    if den == 0.0:
        warnings.warn("optimal_t: degenerate denominator, returning 0", stacklevel=2)
        return 0.0
    num = float(U[:, j2] @ col) - lam * float(V[i2, j2])
    return max(num / den, 0.0)


def _fixed_factor(B):
    """The pieces of a weight fit against ``B`` that do not depend on ``Y``.

    Returns ``(Q, R, Rc, lipschitz)``: the reduced QR factorization
    ``B^T = Q R``, ``R`` with each row's mean taken out (``Rc``, so that
    ``Q Rc`` is ``(B - mean row of B)^T``), and the step constant
    ``2 ||Rc||_2^2 = 2 ||B - mean row of B||_2^2``.  The constant is 0 when
    all rows of ``B`` coincide, which rounding in ``Rc`` would hide.
    """
    Q, R = np.linalg.qr(B.T)
    Rc = R - R.mean(axis=1, keepdims=True)
    smax = 0.0 if (B == B[0]).all() else _spectral_norm_raw(Rc)
    return Q, R, Rc, 2.0 * smax * smax


def _reduced_lsq(Y, fixed):
    """``f(M) = ||Y - M B||^2`` and its gradient along the simplex through
    ``fixed = _fixed_factor(B)``, a QR of ``B^T``.

    With the reduced factorization ``B^T = Q R``, the part of ``Y`` outside
    the span of ``Q`` is fixed, so ``f(M) = c + ||Y Q - M R^T||^2`` with
    ``c = ||Y - (Y Q) Q^T||^2``.  Both terms are sums of squares, so ``f``
    keeps its relative accuracy as it goes to 0, and a rank-deficient ``B``
    needs no special case.  The gradient ``-2 (Y Q - M R^T) Rc`` is the
    full one with each row's mean, its all-ones component, taken out.
    """
    Q, R, Rc, _ = fixed
    YQ = Y @ Q
    c = float(np.linalg.norm(Y - YQ @ Q.T) ** 2)
    Rt = R.T
    return (
        lambda M: c + float(np.linalg.norm(YQ - M @ Rt) ** 2),
        lambda M: -2.0 * (YQ - M @ Rt) @ Rc,
    )


def _fit_weights_rows(M0, Y, fixed):
    """Minimize ``||Y - M B||^2`` over row-stochastic ``M`` from ``M0``,
    given ``fixed = _fixed_factor(B)``, with the step ``1/L`` of the
    curvature along the simplex, ``L = 2 ||B - mean row of B||_2^2``.

    When ``L = 0`` all rows of ``B`` coincide, ``f`` is constant on the
    simplex, and ``M0`` is returned.  Returns the minimizer and the number
    of gradient iterations used.
    """
    lipschitz = fixed[3]
    if lipschitz == 0.0:
        return M0, 0
    f, grad = _reduced_lsq(Y, fixed)
    M, _, used = _minimize(
        f,
        grad,
        _simplex_rows_raw,
        M0,
        step=1.0 / lipschitz,
        tol=_REFIT_INNER_TOL,
        max_iter=_REFIT_INNER_MAX_ITER,
    )
    return M, used


def swap_refit(
    X,
    fac: Factorization,
    lam: float,
    leaving: tuple[int, int] | None,
    entering: tuple[int, int],
    stats: dict | None = None,
    x_fixed=None,
) -> tuple[Factorization, float]:
    """Re-optimize (W, Wt, t) for the proposed support change in one pass.

    Fits W, then Wt, against H with the leaving entry dropped and the
    entering entry at 0, each warm-started from the caller's weights, then
    sets the entering value with ``optimal_t``.  Each fit minimizes
    ``||Y - M B||^2`` in the reduced space of a QR of ``B^T``
    (``_reduced_lsq``), so an inner evaluation costs O(m k^2) for W and
    O(k m^2) for Wt, not O(m k n).  The Wt fit's factor depends on X alone:
    ``local_search`` takes it once and passes it as ``x_fixed``
    (``_fixed_factor(X)``); without it the refit takes its own.  Returns the
    factorization and its objective.  When ``stats`` is given it receives
    the pass count and the total inner iterations.
    """
    Xm = as_matrix(X, "X")
    i2, j2 = entering
    Ht = fac.H.copy()
    if leaving is not None:
        if Ht[leaving] == 0.0:
            raise InvalidInputError("swap_refit: leaving coordinate not in support")
        Ht[leaving] = 0.0
    if Ht[i2, j2] != 0.0:
        raise InvalidInputError("swap_refit: entering coordinate already in support")
    if x_fixed is None:
        x_fixed = _fixed_factor(Xm)
    W, it_w = _fit_weights_rows(fac.W.copy(), Xm, _fixed_factor(Ht))
    Wt, it_wt = _fit_weights_rows(fac.Wt.copy(), Ht, x_fixed)
    Ht[i2, j2] = optimal_t(Xm, Ht, W, Wt, lam, i2, j2)
    if stats is not None:
        # perfbench's tracer sums "alternations" into local_search.alternations
        stats["alternations"] = 1
        stats["inner_iterations"] = it_w + it_wt
    out = Factorization(H=Ht, W=W, Wt=Wt)
    return out, objective(Xm, out, lam).total


def local_search(
    X,
    fac: Factorization,
    cfg: SaaConfig,
    max_swaps: int = 100,
) -> tuple[Factorization, int, list[SwapProposal]]:
    """Swap loop: propose, refit, accept on strict decrease, stop otherwise.

    When the support is below budget only an entering coordinate is chosen.
    Returns the best factorization, the number of accepted swaps, and the
    accepted-swap log.
    """
    if max_swaps < 0:
        raise InvalidInputError("local_search: max_swaps must be nonnegative")
    Xm = as_matrix(X, "X")
    lam = cfg.final_lambda
    cur = fac.copy()
    cur.validate(cfg.ell)
    psi = objective(Xm, cur, lam).total
    x_fixed = _fixed_factor(Xm)
    accepted: list[SwapProposal] = []
    for _ in range(max_swaps):
        if nnz(cur.H) >= cur.H.size:
            break
        if nnz(cur.H) < cfg.ell:
            leaving = None
        else:
            leaving = select_leaving(cur.H)
        entering = select_entering(Xm, cur, lam)
        cand, cand_psi = swap_refit(Xm, cur, lam, leaving, entering, x_fixed=x_fixed)
        if cand_psi < psi:
            accepted.append(
                SwapProposal(
                    leaving=leaving,
                    entering=entering,
                    t_star=float(cand.H[entering]),
                    new_objective=cand_psi,
                )
            )
            cur, psi = cand, cand_psi
        else:
            break
    return cur, len(accepted), accepted
