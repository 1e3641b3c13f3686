"""Robustness metrics, bound evaluation, clustering scores, and fixtures.

The report measures how far recovered archetypes sit from the underlying
ones in both directions (weak: every true archetype has a nearby recovered
one; strong: every recovered archetype has a nearby true one), evaluates
the recovery bounds at their closed-form constants, and records whether
each inequality holds for the instance at hand.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import InvalidInputError, as_matrix
from .geometry import (
    archetype_distance,
    archetype_spread,
    nearest_row_assignment,
    set_hull_distance,
)
from .projections import project_sparse

SQRT2 = math.sqrt(2.0)


def robustness_constants(m: int, k: int, kappa: float, sigma_min: float) -> dict[str, float]:
    """The ten instance constants of the two-sided robustness bounds."""
    k15 = k ** 1.5
    m15 = m ** 1.5
    return {
        "c1": 4.0 * k15 * kappa**2 + (1.0 + SQRT2) * k15,
        "c2": 4.0 * m * k * kappa + (1.0 + SQRT2) * math.sqrt(k) * (k + k15),
        "c3": 2.0 * m15 * k * kappa + (1.0 + SQRT2) * k**2,
        "c4": k + 2.0 * k15 * kappa,
        "c5": (k + k15) + 2.0 * m * k,
        "c6": k15 + k * m15,
        "c7": sigma_min / (6.0 * math.sqrt(k)),
        "c8": 7.0 * k * kappa + 2.0 * (1.0 + SQRT2) * k**2 * kappa,
        "c9": 7.0 * kappa * (k + k15) + 2.0 * (1.0 + SQRT2) * k15 * m,
        "c10": 7.0 * kappa * k15 + (1.0 + SQRT2) * k15 * m15,
    }


def penalized_constants(m: int, k: int, kappa_h0: float, lam: float) -> tuple[float, float, float]:
    """Penalized-form robustness constants; diverge as lam -> 0 or infinity."""
    if lam <= 0:
        raise InvalidInputError("penalized_constants: lam must be positive")
    inner_a = k * math.sqrt(m) * math.sqrt(m + lam * k**2) + m * k
    inner_b = math.sqrt(m * k / lam + k**3) + k
    c1 = 2.0 * kappa_h0 * inner_a + (1.0 + SQRT2) * math.sqrt(k) * inner_b
    c2 = 7.0 * kappa_h0 * inner_b + (1.0 + SQRT2) * math.sqrt(k) * inner_a
    c3 = (1.0 + m) * k + k * math.sqrt(m) * math.sqrt(m + lam * k**2) + math.sqrt(
        m * k / lam + k**3
    )
    return c1, c2, c3


@dataclass
class RobustnessReport:
    """Distances, bound ingredients, and per-inequality verdicts."""

    m: int
    k: int
    n: int
    ell: int
    weak: float
    strong: float
    delta: float
    beta: float
    alpha: float
    spread_b: float
    sep: float
    pperp_norm: float
    h0_frob: float
    weak_via_strong_rhs: float
    weak_via_strong_holds: bool
    x0_fit_lhs: float
    x0_fit_rhs: float
    x0_fit_holds: bool
    # undefined (None) when H0 is rank-deficient
    kappa: float | None = None
    sigma_min: float | None = None
    constants: dict[str, float] | None = None
    weak_bound_rhs: float | None = None
    weak_bound_holds: bool | None = None
    strong_condition_lhs: float | None = None
    strong_condition_holds: bool | None = None
    strong_bound_rhs: float | None = None
    strong_bound_holds: bool | None = None
    sep_weak_rhs: float | None = None
    sep_weak_holds: bool | None = None
    sep_condition_holds: bool | None = None
    sep_strong_rhs: float | None = None
    sep_strong_holds: bool | None = None

    def to_json(self) -> dict:
        d = asdict(self)
        d["schema"] = "sparse-aa-robustness-v1"
        return d


def robustness_report(H0, H_hat, X0, Z, ell: int) -> RobustnessReport:
    """Evaluate both robustness distances and every bound for one instance.

    ``Z`` is the pre-clipping additive noise; ``delta`` uses its row norms.
    Rank-deficient ``H0`` leaves the constants (and the bounds that need
    them) undefined while the distances are still reported.
    """
    H0m = as_matrix(H0, "H0")
    Hm = as_matrix(H_hat, "H_hat")
    X0m = as_matrix(X0, "X0")
    Zm = as_matrix(Z, "Z")
    k, n = H0m.shape
    m = X0m.shape[0]
    if Hm.shape[1] != n or X0m.shape[1] != n or Zm.shape != X0m.shape:
        raise InvalidInputError("robustness_report: inconsistent shapes")

    weak = archetype_distance(H0m, Hm)
    strong = archetype_distance(Hm, H0m)
    delta = float(np.linalg.norm(Zm, axis=1).max()) if m else 0.0
    kept = project_sparse(H0m, ell)
    pperp = H0m - kept
    pperp_norm = float(np.linalg.norm(pperp))
    beta = math.sqrt(m) * pperp_norm
    spread = archetype_spread(H0m)
    x0_tilde = X0m[nearest_row_assignment(H0m, X0m)]
    sep = math.sqrt(max(set_hull_distance(H0m, x0_tilde), 0.0))
    h0_frob = float(np.linalg.norm(H0m))

    svals = np.linalg.svd(H0m, compute_uv=False)
    sigma_min = float(svals[k - 1]) if len(svals) >= k else 0.0
    full_rank = sigma_min > 1e-12 * max(float(svals[0]), 1.0)

    weak_via_strong_rhs = 2.0 * k * spread**2 + 2.0 * strong
    weak_via_strong_holds = weak <= weak_via_strong_rhs + 1e-9 * max(1.0, weak_via_strong_rhs)
    x0_fit_lhs = math.sqrt(max(set_hull_distance(X0m, Hm), 0.0))
    x0_fit_rhs = math.sqrt(m) * min(
        math.sqrt(weak), k * h0_frob + math.sqrt(strong)
    )
    x0_fit_holds = x0_fit_lhs <= x0_fit_rhs + 1e-9 * max(1.0, x0_fit_rhs)

    report_kwargs = {}
    if full_rank:
        kappa = float(svals[0]) / sigma_min
        c = robustness_constants(m, k, kappa, sigma_min)
        weak_rhs = c["c1"] * sep + c["c2"] * delta + c["c3"] * pperp_norm
        cond_lhs = c["c4"] * sep + c["c5"] * delta + c["c6"] * pperp_norm
        cond_ok = cond_lhs <= c["c7"]
        strong_rhs = c["c8"] * sep + c["c9"] * delta + c["c10"] * pperp_norm
        cor_weak_rhs = c["c2"] * delta
        cor_cond = c["c5"] * delta <= c["c7"]
        cor_strong_rhs = c["c9"] * delta
        report_kwargs = dict(
            kappa=kappa,
            sigma_min=sigma_min,
            constants=c,
            weak_bound_rhs=weak_rhs,
            weak_bound_holds=math.sqrt(weak) <= weak_rhs,
            strong_condition_lhs=cond_lhs,
            strong_condition_holds=cond_ok,
            strong_bound_rhs=strong_rhs,
            strong_bound_holds=(math.sqrt(strong) <= strong_rhs) if cond_ok else None,
            sep_weak_rhs=cor_weak_rhs,
            sep_weak_holds=math.sqrt(weak) <= cor_weak_rhs,
            sep_condition_holds=cor_cond,
            sep_strong_rhs=cor_strong_rhs,
            sep_strong_holds=(math.sqrt(strong) <= cor_strong_rhs) if cor_cond else None,
        )

    return RobustnessReport(
        m=m,
        k=k,
        n=n,
        ell=ell,
        weak=weak,
        strong=strong,
        delta=delta,
        beta=beta,
        alpha=delta + beta,
        spread_b=spread,
        sep=sep,
        pperp_norm=pperp_norm,
        h0_frob=h0_frob,
        weak_via_strong_rhs=weak_via_strong_rhs,
        weak_via_strong_holds=bool(weak_via_strong_holds),
        x0_fit_lhs=x0_fit_lhs,
        x0_fit_rhs=x0_fit_rhs,
        x0_fit_holds=bool(x0_fit_holds),
        **report_kwargs,
    )


@dataclass(frozen=True)
class ClusterMetrics:
    purity: float
    entropy: float
    confusion: np.ndarray


def cluster_metrics(true_labels, est_labels, k: int) -> ClusterMetrics:
    """Purity and normalized entropy from the cluster confusion counts.

    ``confusion[r, u]`` counts samples in true cluster ``u`` assigned to
    estimated cluster ``r``.  Empty estimated clusters contribute zero
    entropy; labels are 0-based in ``[0, k)``.
    """
    t = np.asarray(true_labels, dtype=np.int64)
    e = np.asarray(est_labels, dtype=np.int64)
    if t.shape != e.shape or t.ndim != 1:
        raise InvalidInputError("cluster_metrics: label vectors must match")
    if t.size == 0:
        raise InvalidInputError("cluster_metrics: empty labels")
    if t.min() < 0 or t.max() >= k or e.min() < 0 or e.max() >= k:
        raise InvalidInputError("cluster_metrics: labels out of range")
    m = t.size
    confusion = np.zeros((k, k), dtype=np.int64)
    np.add.at(confusion, (e, t), 1)
    purity = float(confusion.max(axis=1).sum()) / m
    if k == 1:
        entropy = 0.0
    else:
        row_tot = confusion.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            frac = confusion / row_tot[:, None]
            terms = np.where(confusion > 0, confusion * np.log2(frac), 0.0)
        entropy = -float(terms.sum()) / (m * math.log2(k))
    return ClusterMetrics(purity=purity, entropy=entropy, confusion=confusion)


def synth_instance(
    m: int,
    n: int,
    k: int,
    sigma_z: float,
    zero_frac: float = 0.2,
    seed: int = 0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Random archetype instance: uniform sparse H0, row-stochastic W0,
    X0 = W0 H0, and X = max(X0 + Z, 0) with Gaussian Z.

    ``Z`` is returned pre-clipping.  Deterministic for a given seed.
    """
    if min(m, n, k) < 1:
        raise InvalidInputError("synth_instance: m, n and k must be at least 1")
    if not 0.0 <= zero_frac < 1.0:
        raise InvalidInputError("synth_instance: zero_frac must be in [0, 1)")
    if not 0.0 <= sigma_z < math.inf:
        raise InvalidInputError("synth_instance: sigma_z must be finite and nonnegative")
    if seed < 0:
        raise InvalidInputError("synth_instance: seed must be nonnegative")
    rng = np.random.default_rng(seed)
    H0 = rng.uniform(size=(k, n))
    n_zero = int(math.ceil(zero_frac * k * n))
    if n_zero:
        flat_idx = rng.choice(k * n, size=n_zero, replace=False)
        H0.ravel()[flat_idx] = 0.0
    W0 = rng.uniform(size=(m, k))
    W0 /= W0.sum(axis=1, keepdims=True)
    X0 = W0 @ H0
    Z = rng.normal(0.0, sigma_z, size=(m, n)) if sigma_z > 0 else np.zeros((m, n))
    X = np.maximum(X0 + Z, 0.0)
    return X, X0, H0, W0, Z


def example1_fixture(theta: float):
    """Closed-form rotated-line instance: weakly but not strongly robust.

    Returns ``(X_theta, Z_theta, H_theta, H0, X0)`` for ``theta`` strictly
    inside ``(0, pi/4)``.  The noisy points lie on the segment between the
    two rows of ``H_theta``, and the first row of ``H_theta`` escapes to
    infinity as ``theta`` approaches ``pi/4``.
    """
    if not 0.0 < theta < math.pi / 4:
        raise InvalidInputError("example1_fixture: theta must lie in (0, pi/4)")
    X0 = np.array([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]])
    H0 = np.array([[1.0, 0.0], [0.0, 1.0]])
    root = math.sqrt(1.0 - math.cos(theta))
    shrink = 1.0 - math.sin(theta) / (SQRT2 * math.sin(theta + math.pi / 4))
    Z = np.array(
        [
            [
                root * math.cos(math.pi / 4 - theta / 2),
                root * math.sin(math.pi / 4 - theta / 2),
            ],
            [-math.sin(theta) / (SQRT2 * math.sin(theta + math.pi / 4)), 0.0],
            [0.0, 0.0],
        ]
    )
    X_theta = np.array(
        [
            [
                root * math.cos(math.pi / 4 - theta / 2),
                1.0 + root * math.sin(math.pi / 4 - theta / 2),
            ],
            [shrink, 0.0],
            [0.5, 0.5],
        ]
    )
    if not np.allclose(X_theta, X0 + Z, atol=1e-12):
        raise AssertionError("example1_fixture: X_theta != X0 + Z_theta")
    H_theta = np.array(
        [[0.0, shrink * math.tan(theta + math.pi / 4)], [shrink, 0.0]]
    )
    return X_theta, Z, H_theta, H0, X0


def appendixB_fixture():
    """Toy 2-D instance: the three fixed archetype sets plus a seeded
    separable data generator (uniform mixture points with the archetype
    rows appended)."""
    H0 = np.array([[0.15, 0.15], [0.1, 0.7], [0.7, 0.1]])
    H1 = np.array([[0.05, 0.05], [1.0, 0.1], [0.1, 1.0]])
    H2 = np.array([[0.0, 0.0], [0.0, 0.8], [0.8, 0.0]])

    def make_x0(seed: int = 0, n_points: int = 50) -> np.ndarray:
        rng = np.random.default_rng(seed)
        W0 = rng.uniform(size=(n_points, H0.shape[0]))
        W0 /= W0.sum(axis=1, keepdims=True)
        return np.vstack([W0 @ H0, H0])

    return H0, H1, H2, make_x0
