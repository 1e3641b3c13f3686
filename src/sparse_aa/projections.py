"""The projections the solvers compose.

Row-wise Euclidean projection onto the unit simplex and global top-ell hard
thresholding.
"""

from __future__ import annotations

import functools

import numpy as np

from .core import InvalidInputError, as_matrix


def project_simplex_rows(a) -> np.ndarray:
    """Project each row of ``a`` onto ``{x >= 0, sum(x) = 1}``.

    Sort-and-threshold water filling: with the row sorted in decreasing
    order, the threshold is ``(cumsum(s)_rho - 1) / rho`` at the last index
    ``rho`` where ``s_rho`` stays above it.
    """
    A = as_matrix(a, "A")
    if A.shape[1] == 0:
        raise InvalidInputError("project_simplex_rows: empty rows")
    return _simplex_rows_raw(A)


@functools.lru_cache(maxsize=64)
def _counts(d: int) -> np.ndarray:
    """1, 2, ..., d as read-only floats."""
    counts = np.arange(1, d + 1, dtype=np.float64)
    counts.flags.writeable = False
    return counts


def _simplex_rows_raw(A: np.ndarray) -> np.ndarray:
    m, d = A.shape
    s = A.copy()
    s.sort(axis=1)
    s = s[:, ::-1]
    ratio = s.cumsum(axis=1)  # a new C-ordered array
    ratio -= 1.0
    ratio /= _counts(d)  # candidate thresholds
    above = s > ratio
    # the last column above, counted back from each row's end; the offsets
    # are not cached per shape, because the row-batched hull solver's active
    # set passes hundreds of row counts
    row_ends = np.arange(d - 1, m * d, d)
    theta = ratio.ravel()[row_ends - above[:, ::-1].argmax(axis=1)]
    out = A - theta[:, None]
    np.maximum(out, 0.0, out=out)
    # the first column is above (s_1 > s_1 - 1) unless s_1 - 1 rounds to s_1;
    # a row with no column above is projected again shifted to a zero
    # maximum, which leaves its projection unchanged and puts column 0 above;
    # a row whose maximum is not finite (a NaN or +inf entry, or all -inf)
    # has no such shift
    if np.count_nonzero(above[:, 0]) < m:
        lost = ~above.any(axis=1)
        B = A[lost]
        top = B.max(axis=1, keepdims=True)
        if not np.isfinite(top).all():
            raise FloatingPointError("simplex projection: a row has no finite maximum")
        out[lost] = _simplex_rows_raw(B - top)
    return out


def project_sparse(a, ell: int) -> np.ndarray:
    """Keep the ``ell`` largest-magnitude entries of ``a``, zero the rest.

    The budget is global over all entries, not per row.  Magnitude ties are
    broken by row-major index order (earlier index wins), which keeps the
    projection deterministic.  Zeros are never kept, so the retained
    coordinates are exactly the nonzeros of the result.
    """
    A = as_matrix(a, "A")
    if ell < 0:
        raise InvalidInputError("project_sparse: ell must be nonnegative")
    return _topk_raw(A, ell)


def _topk_threshold(flat: np.ndarray, ell: int) -> float | None:
    """The ``ell``-th largest entry of ``flat`` (``ell >= 1``), or None when
    ``ell`` covers every entry.  O(size): a selection, not a sort."""
    if ell >= flat.size:
        return None
    return float(np.partition(flat, flat.size - ell)[flat.size - ell])


def _topk_raw(A: np.ndarray, ell: int) -> np.ndarray:
    """Top-``ell`` magnitudes of ``A``, the rest zeroed.

    Every entry above the ``ell``-th largest magnitude is kept, and the rest
    of the budget goes to the lowest-index entries equal to it.  Zeros are
    never kept.
    """
    flat = np.abs(A).ravel()
    if ell <= 0:
        return np.zeros_like(A)
    thr = _topk_threshold(flat, ell)
    if thr is None or thr == 0.0:
        mask = flat > 0.0
    else:
        mask = flat >= thr
        extra = np.count_nonzero(mask) - ell
        if extra:
            # ties at the threshold: the highest indices give way
            mask[np.flatnonzero(flat == thr)[-extra:]] = False
    return np.where(mask.reshape(A.shape), A, 0.0)
