"""Convex-hull distance machinery.

The squared distance from a row ``x`` to the hull of the rows of ``Y`` is
the simplex-constrained least-squares problem

    min_alpha  || x - alpha @ Y ||_2^2   s.t.  alpha >= 0, sum(alpha) = 1.

``hull_distance_rows`` solves it for every row of ``X`` at once: the
weights of all rows form one ``(rows x hull)`` matrix that a row-batched
accelerated projected gradient (``_fista.minimize_rows``) drives.  Each row
keeps its own momentum, function-value restart and stopping test, so it
takes the iterations a solve of that row alone takes; only rows whose
distance is at rounding level can differ, because BLAS products differ in
the last ulp between batch shapes.  ``hull_distance`` is the one-row case.
These distances back the set distances and the robustness metrics.  The
archetype distances compare two sets of rows by nearest-row matching and
are evaluated exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._fista import minimize_rows
from .core import InvalidInputError, as_matrix, as_vector, spectral_norm
from .projections import _simplex_rows_raw


@dataclass(frozen=True)
class HullDistanceResult:
    """Squared distance to a convex hull and the weights realizing it."""

    sq_distance: float
    weights: np.ndarray
    iterations: int


def hull_distance(x, X, tol: float = 1e-10, max_iter: int = 5_000) -> HullDistanceResult:
    """Squared Euclidean distance from ``x`` to the hull of the rows of ``X``.

    Stops once the relative objective decrease falls below ``tol``.
    """
    xv = as_vector(x, "x")
    Xm = as_matrix(X, "X")
    if Xm.shape[0] == 0:
        raise InvalidInputError("hull_distance: X must have at least one row")
    if Xm.shape[1] != xv.shape[0]:
        raise InvalidInputError(
            f"hull_distance: dimension mismatch x({xv.shape[0]}) vs X{Xm.shape}"
        )
    sq, weights, its = _hull_rows(xv[None, :], Xm, tol, max_iter, spectral_norm(Xm))
    return HullDistanceResult(float(sq[0]), weights[0], int(its[0]))


def hull_distance_rows(X, Y, tol: float = 1e-10, max_iter: int = 5_000) -> np.ndarray:
    """Per-row squared hull distances ``D(X_i, Y)`` as a vector."""
    Xm = as_matrix(X, "X")
    Ym = as_matrix(Y, "Y")
    if Xm.shape[1] != Ym.shape[1]:
        raise InvalidInputError("hull_distance_rows: column counts differ")
    if Xm.shape[0] == 0:
        return np.zeros(0)
    if Ym.shape[0] == 0:
        raise InvalidInputError("hull_distance_rows: Y must have at least one row")
    smax = spectral_norm(Ym) if Ym.size else 0.0
    return _hull_rows(Xm, Ym, tol, max_iter, smax)[0]


def _hull_rows(
    Xm: np.ndarray, Ym: np.ndarray, tol: float, max_iter: int, smax: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Squared distances, weights and iteration counts for every row of
    ``Xm`` against the hull of the rows of ``Ym``."""
    r, p = Xm.shape[0], Ym.shape[0]
    alpha0 = np.full((r, p), 1.0 / p)
    if smax == 0.0:
        # every hull row is zero (or there are no columns): the hull is the origin
        return np.einsum("ij,ij->i", Xm, Xm), alpha0, np.zeros(r, dtype=np.int64)

    def f(al: np.ndarray, x: np.ndarray) -> np.ndarray:
        res = al @ Ym - x
        return np.einsum("ij,ij->i", res, res)

    alpha, sq, its = minimize_rows(
        f,
        lambda al, x: 2.0 * ((al @ Ym - x) @ Ym.T),
        _simplex_rows_raw,
        alpha0,
        Xm,
        step=1.0 / (2.0 * smax * smax),
        tol=tol,
        max_iter=max_iter,
    )
    return sq, alpha, its


def set_hull_distance(X, Y, tol: float = 1e-10, max_iter: int = 5_000) -> float:
    """``D(X, Y)``: sum of squared hull distances of the rows of ``X``."""
    return float(hull_distance_rows(X, Y, tol, max_iter).sum())


def set_hull_distance_l1(X, Y, tol: float = 1e-10, max_iter: int = 5_000) -> float:
    """Sum of (non-squared) row hull distances, the l1 companion of D."""
    rows = hull_distance_rows(X, Y, tol, max_iter)
    return float(np.sqrt(np.maximum(rows, 0.0)).sum())


def _pairwise_sq_distances(H1: np.ndarray, H2: np.ndarray) -> np.ndarray:
    diff = H1[:, None, :] - H2[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _row_set_distances(H1, H2, name: str) -> np.ndarray:
    """Squared distances from the rows of ``H1`` to those of ``H2``, checked:
    two matrices with equal column counts and a nonempty ``H2``."""
    A = as_matrix(H1, "H1")
    B = as_matrix(H2, "H2")
    if A.shape[1] != B.shape[1]:
        raise InvalidInputError(f"{name}: column counts differ")
    if B.shape[0] == 0:
        raise InvalidInputError(f"{name}: H2 must be nonempty")
    return _pairwise_sq_distances(A, B)


def nearest_row_assignment(H1, H2) -> np.ndarray:
    """For each row of ``H1``, the index of the nearest row of ``H2``."""
    return np.argmin(_row_set_distances(H1, H2, "nearest_row_assignment"), axis=1)


def archetype_distance(H1, H2) -> float:
    """Sum over rows of ``H1`` of the squared distance to the nearest row
    of ``H2``.  Asymmetric in its arguments."""
    return float(_row_set_distances(H1, H2, "archetype_distance").min(axis=1).sum())


def archetype_distance_l1(H1, H2) -> float:
    """Nearest-row distance sum without squaring."""
    d = _row_set_distances(H1, H2, "archetype_distance_l1")
    return float(np.sqrt(np.maximum(d.min(axis=1), 0.0)).sum())


def archetype_spread(H0) -> float:
    """Largest pairwise row distance ``b(H0)``."""
    A = as_matrix(H0, "H0")
    if A.shape[0] == 0:
        raise InvalidInputError("archetype_spread: empty matrix")
    d = _pairwise_sq_distances(A, A)
    return float(np.sqrt(max(d.max(), 0.0)))
