"""Shared matrix utilities, configuration, and factorization state.

All solver math runs on dense row-major ``float64`` arrays: rows are data
points or archetypes throughout.  Matrices are validated once at the API
boundary (finite entries, 2-D shape) and passed around as plain numpy
arrays afterwards.
"""

from __future__ import annotations

import json
import math
import warnings
from dataclasses import dataclass
from typing import Sequence

import numpy as np

ROW_SUM_TOL = 1e-9


class InvalidInputError(ValueError):
    """Raised when an argument violates a documented precondition."""


def as_matrix(a, name: str = "matrix") -> np.ndarray:
    """Validate and return ``a`` as a C-contiguous 2-D float64 array.

    Rejects non-2-D input and any NaN/Inf entry.
    """
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 2:
        raise InvalidInputError(f"{name}: expected a 2-D matrix, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name}: non-finite entries are not admitted")
    return arr


def as_vector(a, name: str = "vector") -> np.ndarray:
    arr = np.ascontiguousarray(a, dtype=np.float64)
    if arr.ndim != 1:
        raise InvalidInputError(f"{name}: expected a 1-D vector, got ndim={arr.ndim}")
    if arr.size and not np.isfinite(arr).all():
        raise InvalidInputError(f"{name}: non-finite entries are not admitted")
    return arr


def spectral_norm(a) -> float:
    """Largest singular value of ``a``: the square root of the largest
    eigenvalue of the Gram matrix of ``a`` or of its transpose, whichever
    is smaller."""
    A = as_matrix(a, "A")
    if A.size == 0:
        raise InvalidInputError("spectral_norm: empty matrix")
    return _spectral_norm_raw(A)


def _spectral_norm_raw(A: np.ndarray) -> float:
    if A.shape[0] < A.shape[1]:
        A = A.T  # singular values are transpose-invariant; keep the Gram small
    return math.sqrt(max(float(np.linalg.eigvalsh(A.T @ A)[-1]), 0.0))


def nnz(a) -> int:
    """Number of nonzero entries."""
    return int(np.count_nonzero(as_matrix(a, "A")))


def support(a) -> list[tuple[int, int]]:
    """Indices ``(i, j)`` with ``a_ij != 0``, in row-major order."""
    rows, cols = np.nonzero(as_matrix(a, "A"))
    return list(zip(rows.tolist(), cols.tolist()))


@dataclass
class SaaConfig:
    """Solver configuration.

    ``lam`` is either a single penalty value or a strictly decreasing
    continuation schedule.  ``ell`` is the global budget on the number of
    nonzero archetype entries.
    """

    k: int
    ell: int
    lam: float | Sequence[float] = 1.0
    tol_objective: float = 1e-8
    tol_stationary: float = 1e-7
    max_iter: int = 10_000

    def __post_init__(self) -> None:
        if self.k < 1:
            raise InvalidInputError("SaaConfig: k must be a positive integer")
        if self.ell < 1:
            raise InvalidInputError("SaaConfig: ell must be a positive integer")
        if self.ell < self.k:
            warnings.warn(
                "ell < k: some archetype rows are forced to zero", stacklevel=3
            )
        sched = self.lambda_schedule
        if not all(0 < v < math.inf for v in sched):
            raise InvalidInputError("SaaConfig: lambda values must be finite and positive")
        if len(sched) > 1 and any(b >= a for a, b in zip(sched, sched[1:])):
            raise InvalidInputError(
                "SaaConfig: lambda schedule must be strictly decreasing"
            )
        tols = (self.tol_objective, self.tol_stationary)
        if not all(0 < tol < math.inf for tol in tols):
            raise InvalidInputError("SaaConfig: tolerances must be finite and positive")
        if self.max_iter < 1:
            raise InvalidInputError("SaaConfig: max_iter must be positive")

    @property
    def lambda_schedule(self) -> tuple[float, ...]:
        if np.isscalar(self.lam):
            return (float(self.lam),)
        return tuple(float(v) for v in self.lam)

    @property
    def final_lambda(self) -> float:
        return self.lambda_schedule[-1]

    def to_json(self) -> dict:
        return {
            "k": self.k,
            "ell": self.ell,
            "lambda": list(self.lambda_schedule),
            "tol_objective": self.tol_objective,
            "tol_stationary": self.tol_stationary,
            "max_iter": self.max_iter,
        }


@dataclass
class Factorization:
    """Solver state ``(H, W, Wt)``.

    ``H`` holds the archetypes (k x n), ``W`` the data weights (m x k) and
    ``Wt`` the archetype weights (k x m); both weight matrices are
    row-stochastic.
    """

    H: np.ndarray
    W: np.ndarray
    Wt: np.ndarray

    def __post_init__(self) -> None:
        self.H = as_matrix(self.H, "H")
        self.W = as_matrix(self.W, "W")
        self.Wt = as_matrix(self.Wt, "Wt")

    def validate(self, ell: int | None = None) -> None:
        """Check nonnegativity, row sums, sparsity, and shape consistency."""
        k, n = self.H.shape
        m = self.W.shape[0]
        if self.W.shape != (m, k) or self.Wt.shape != (k, m):
            raise InvalidInputError(
                f"Factorization: inconsistent shapes H{self.H.shape} "
                f"W{self.W.shape} Wt{self.Wt.shape}"
            )
        if np.any(self.H < 0):
            raise InvalidInputError("Factorization: H must be nonnegative")
        if ell is not None and nnz(self.H) > ell:
            raise InvalidInputError(f"Factorization: ||H||_0 exceeds budget {ell}")
        for name, M in (("W", self.W), ("Wt", self.Wt)):
            if np.any(M < 0):
                raise InvalidInputError(f"Factorization: {name} must be nonnegative")
            if np.max(np.abs(M.sum(axis=1) - 1.0), initial=0.0) > ROW_SUM_TOL:
                raise InvalidInputError(
                    f"Factorization: rows of {name} must sum to one"
                )

    def copy(self) -> "Factorization":
        return Factorization(self.H.copy(), self.W.copy(), self.Wt.copy())


def write_matrix_csv(path, a) -> None:
    """Plain numeric CSV, one matrix row per line, no header."""
    A = as_matrix(a, "matrix")
    np.savetxt(path, A, delimiter=",", fmt="%.17g")


def _loadtxt(path, **kwargs) -> np.ndarray:
    """``np.loadtxt`` without numpy's empty-input warning (callers reject a
    file with no rows themselves); a cell that does not parse is invalid
    input naming ``path``."""
    try:
        with warnings.catch_warnings():
            warnings.filterwarnings("ignore", "loadtxt: input contained no data")
            return np.loadtxt(path, **kwargs)
    except ValueError as exc:  # a cell that does not parse, or a ragged row
        raise InvalidInputError(f"{path}: {exc}") from None


def read_matrix_csv(path) -> np.ndarray:
    """A headerless numeric CSV with at least one row, as a matrix."""
    arr = _loadtxt(path, delimiter=",", ndmin=2, dtype=np.float64)
    if arr.shape[0] == 0:
        raise InvalidInputError(f"{path}: no data rows")
    return as_matrix(arr, str(path))


def write_json(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def read_json(path) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)
