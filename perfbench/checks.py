"""Output checks computed apart from the package.

Everything here reads the CLI artifacts with ``numpy.loadtxt``/``csv``/
``json`` and recomputes the checked quantity with plain numpy: the
objective, the nearest-row distances, and hull distances by exhaustive
support enumeration of the simplex-constrained least-squares problem.
Each check returns a list of failure messages; an empty list means the
outputs are correct.
"""

from __future__ import annotations

import csv
import itertools
import json
import math
from pathlib import Path

import numpy as np

ROW_SUM_TOL = 1e-9
REL_TOL = 1e-9


def load(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", ndmin=2)


def close(a: float, b: float, rel: float = REL_TOL, abs_: float = 1e-12) -> bool:
    return abs(a - b) <= max(rel * max(abs(a), abs(b)), abs_)


def nearest_row_sum(A: np.ndarray, B: np.ndarray) -> float:
    """Sum over rows of ``A`` of the squared distance to the nearest row of ``B``."""
    total = 0.0
    for a in A:
        total += min(float(np.sum((a - b) ** 2)) for b in B)
    return total


def hull_sq_distances(P: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Squared distance of every row of ``P`` to the convex hull of the rows
    of ``V``, by enumerating the support of the hull weights.

    On each support the sum-to-one constrained least-squares KKT system is
    solved for all points at once; candidates with a negative weight are
    infeasible and discarded.  Exact up to rounding for small ``len(V)``.
    """
    k = V.shape[0]
    best = np.full(P.shape[0], np.inf)
    for size in range(1, k + 1):
        for sub in itertools.combinations(range(k), size):
            Vs = V[list(sub)]
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = 2.0 * Vs @ Vs.T
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.vstack([2.0 * Vs @ P.T, np.ones((1, P.shape[0]))])
            sol = np.linalg.lstsq(kkt, rhs, rcond=None)[0][:size]
            feasible = np.all(sol >= -1e-9, axis=0)
            alpha = np.maximum(sol, 0.0)
            alpha /= np.maximum(alpha.sum(axis=0), 1e-300)
            resid = alpha.T @ Vs - P
            d = np.where(feasible, np.einsum("ij,ij->i", resid, resid), np.inf)
            best = np.minimum(best, d)
    return best


def check_fit(data: Path, fit: Path, report: Path, ell: int, lam: float) -> list[str]:
    """Checks on the artifacts of one ``fit`` plus ``eval`` of the pipeline."""
    bad = []
    X, H0 = load(data / "X.csv"), load(data / "H0.csv")
    H, W, Wt = load(fit / "H.csv"), load(fit / "W.csv"), load(fit / "Wt.csv")
    summary = json.loads((fit / "summary.json").read_text())

    if np.any(H < 0):
        bad.append("H has a negative entry")
    if np.count_nonzero(H) > ell:
        bad.append(f"nnz(H) = {np.count_nonzero(H)} exceeds ell = {ell}")
    for name, M in (("W", W), ("Wt", Wt)):
        if np.any(M < 0):
            bad.append(f"{name} has a negative entry")
        dev = float(np.max(np.abs(M.sum(axis=1) - 1.0)))
        if dev > ROW_SUM_TOL:
            bad.append(f"{name} row sums deviate from 1 by {dev:.3g}")

    psi = float(np.sum((X - W @ H) ** 2) + lam * np.sum((H - Wt @ X) ** 2))
    psi_summary = summary["objective"]["total"]
    if not close(psi, psi_summary):
        bad.append(f"recomputed psi {psi!r} != summary.json {psi_summary!r}")

    with open(fit / "trace.csv", newline="", encoding="utf-8") as fh:
        totals = [float(r["total"]) for r in csv.DictReader(fh)]
    if any(b > a for a, b in zip(totals, totals[1:])):
        bad.append("trace.csv totals increase")
    if not totals or psi_summary > totals[-1]:
        bad.append("final psi exceeds the last trace total")

    mip = summary["mip"]
    if mip is not None and not mip["best_lower"] <= mip["best_upper"]:
        bad.append(f"best_lower {mip['best_lower']} > best_upper {mip['best_upper']}")

    with open(report / "reports.csv", newline="", encoding="utf-8") as fh:
        rows = list(csv.DictReader(fh))
    if len(rows) != 1:
        bad.append(f"reports.csv has {len(rows)} rows, expected 1")
    else:
        weak, strong = nearest_row_sum(H0, H), nearest_row_sum(H, H0)
        if not close(float(rows[0]["weak"]), weak):
            bad.append(f"reports.csv weak {rows[0]['weak']} != brute force {weak!r}")
        if not close(float(rows[0]["strong"]), strong):
            bad.append(f"reports.csv strong {rows[0]['strong']} != brute force {strong!r}")
        if not close(float(rows[0]["psi"]), psi_summary):
            bad.append("reports.csv psi differs from summary.json")
    return bad


# hull distances come out of an accelerated gradient method stopped on a
# relative decrease of 1e-10, so they carry an absolute error far above
# rounding; these bounds hold with a wide margin on every seed tried
HULL_ABS_TOL = 1e-6
HULL_REL_TOL = 1e-4


def check_report(rep, H0, H, X0, exact_x0_fit_sq: float, exact_sep_sq: float,
                 is_truth: bool) -> list[str]:
    """Checks on one ``robustness_report`` of candidate ``H`` against truth ``H0``.

    ``exact_x0_fit_sq`` and ``exact_sep_sq`` are the squared set hull
    distances behind ``x0_fit_lhs`` and ``sep``, from ``hull_sq_distances``.
    """
    bad = []
    for key, val in rep.to_json().items():
        vals = val.values() if isinstance(val, dict) else [val]
        for v in vals:
            if isinstance(v, float) and not math.isfinite(v):
                bad.append(f"report field {key} is not finite")
    weak, strong = nearest_row_sum(H0, H), nearest_row_sum(H, H0)
    if not close(rep.weak, weak):
        bad.append(f"weak {rep.weak!r} != brute force {weak!r}")
    if not close(rep.strong, strong):
        bad.append(f"strong {rep.strong!r} != brute force {strong!r}")
    for name, got, ref in (("x0_fit_lhs", rep.x0_fit_lhs**2, exact_x0_fit_sq),
                           ("sep", rep.sep**2, exact_sep_sq)):
        rows = X0.shape[0] if name == "x0_fit_lhs" else H0.shape[0]
        if abs(got - ref) > HULL_ABS_TOL * rows + HULL_REL_TOL * ref:
            bad.append(f"{name}^2 {got!r} != support enumeration {ref!r}")
    if is_truth:
        if rep.weak != 0.0 or rep.strong != 0.0:
            bad.append("candidate H0 has nonzero weak/strong distance")
        if rep.x0_fit_lhs**2 > HULL_ABS_TOL * X0.shape[0]:
            bad.append(f"candidate H0: x0_fit_lhs {rep.x0_fit_lhs!r} is not ~0")
    return bad


def check_hull_rows(hull_distance, rows: np.ndarray, V: np.ndarray) -> list[str]:
    """Package per-row hull distances against support enumeration."""
    exact = hull_sq_distances(rows, V)
    bad = []
    for i, (x, ref) in enumerate(zip(rows, exact)):
        got = hull_distance(x, V).sq_distance
        if abs(got - ref) > HULL_ABS_TOL + HULL_REL_TOL * ref:
            bad.append(f"sampled row {i}: hull distance {got!r} != enumeration {ref!r}")
    return bad
