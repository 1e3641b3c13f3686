"""Initialization by binary convex optimization over the archetype support.

The large-penalty limit of the sparse-archetype problem asks only for an
ell-sparse nonnegative H close to row-convex combinations of the data:

    min ||H - Wt X||_F^2   s.t.  H >= 0, Wt row-stochastic, ||H||_0 <= ell.

``eval_F`` computes the convex inner value F(Z) for a fixed support pattern
Z (H box-constrained entrywise to [0, sqrt(b) Z]) exactly as a problem over
Wt alone, since the best H for a fixed Wt is a clip of Wt X.
``subgradient_F`` produces a valid cut from the inner minimizers, and
``outer_approximation`` alternates evaluation with a cut-based master
problem.  The master is a small MILP solved by ``BranchAndBound``, a
depth-first search that stops after ``NODE_CAP`` nodes by default; a master
is exact when its search ends under the cap.
"""

from __future__ import annotations

import copy
import math
from dataclasses import dataclass, field

import numpy as np

from ._fista import minimize as _minimize
from .core import (
    Factorization,
    InvalidInputError,
    SaaConfig,
    as_matrix,
    spectral_norm,
)
from .projections import _simplex_rows_raw
from .solver import SolveTrace, default_init, solve, step_W

_F_ABS_STOP = 1e-22
_GAP_REL = 1e-6  # relative gap that counts as closed
_GAP_ABS = 1e-9  # absolute gap that counts as closed when F is near zero
# tolerance floors of the warm-start solves before the last continuation λ;
# looser floors (1e-6, 1e-3) raised criterion 9's weak distance
_WARM_TOL_OBJECTIVE = 1e-8
_WARM_TOL_STATIONARY = 1e-4
NODE_CAP = 4_000  # default node cap of every master search


@dataclass(frozen=True)
class Cut:
    """One linear under-estimator of F: value and subgradient at ``pattern``."""

    pattern: np.ndarray
    value: float
    grad: np.ndarray

    @property
    def offset(self) -> float:
        """Constant term of the cut written as offset + <grad, Z>."""
        return self.value - float(np.sum(self.grad * self.pattern))


@dataclass
class CutSet:
    """Accumulated cuts with the incumbent bounds of the outer loop."""

    cuts: list[Cut] = field(default_factory=list)
    best_upper: float = math.inf
    best_lower: float = 0.0

    @property
    def gap(self) -> float | None:
        """Relative gap of the bounds; None while the lower bound is still
        the trivial 0, which certifies nothing (F >= 0 certifies F = 0)."""
        if self.best_upper <= _F_ABS_STOP:
            return 0.0
        if self.best_lower <= 0.0:
            return None
        return (self.best_upper - self.best_lower) / self.best_upper

    def add(self, cut: Cut) -> None:
        self.cuts.append(cut)
        self.best_upper = min(self.best_upper, cut.value)

    def closed(self) -> bool:
        """Whether the bounds agree to ``_GAP_REL`` relative (or ``_GAP_ABS``)."""
        return self.best_upper - self.best_lower <= max(
            _GAP_REL * max(self.best_upper, 0.0), _GAP_ABS
        )


def norm_bound_b(X, k: int) -> float:
    """Bound on ||H*||_F^2 for the support problem: k (max + sqrt(k) min)^2
    over the data row norms."""
    Xm = as_matrix(X, "X")
    if Xm.shape[0] == 0:
        raise InvalidInputError("norm_bound_b: X must be nonempty")
    if k < 1:
        raise InvalidInputError("norm_bound_b: k must be positive")
    norms = np.linalg.norm(Xm, axis=1)
    return float(k * (norms.max() + math.sqrt(k) * norms.min()) ** 2)


def eval_F(
    Z,
    X,
    b: float,
    ell: int | None = None,
    tol: float = 1e-10,
    max_iter: int = 20_000,
    wt0: np.ndarray | None = None,
) -> tuple[float, np.ndarray, np.ndarray]:
    """Value and minimizers of the inner convex problem at pattern ``Z``.

    For a fixed Wt the best H in the box [0, sqrt(b) Z] is clip(Wt X, 0,
    sqrt(b) Z), so F(Z) is exactly the minimum over row-stochastic Wt of
    f(Wt) = ||Wt X - clip(Wt X)||^2 (variable projection: Golub & Pereyra,
    SIAM J. Numer. Anal. 1973).  f is a squared distance to a box composed
    with a linear map, hence convex, and its gradient 2 (Wt X - clip(Wt X))
    X^T is 2 smax(X)^2-Lipschitz because A - clip(A) is nonexpansive; so
    accelerated projected gradient runs on Wt with step 1 / (2 smax(X)^2).
    The solve projects its start ``wt0`` (default uniform rows) once.
    Returns ``(F, clip(Wt X, 0, sqrt(b) Z), Wt)``.  ``Z`` may be a relaxed
    pattern in [0, 1]; binary patterns are the mainline use.
    """
    Zm = as_matrix(Z, "Z")
    Xm = as_matrix(X, "X")
    k, n = Zm.shape
    m = Xm.shape[0]
    if m == 0 or Xm.shape[1] != n:
        raise InvalidInputError("eval_F: X needs rows, and as many columns as Z")
    start = np.full((k, m), 1.0 / m) if wt0 is None else as_matrix(wt0, "wt0")
    if start.shape != (k, m):
        raise InvalidInputError(f"eval_F: wt0 must be {k} x {m}")
    if np.any(Zm < -1e-12) or np.any(Zm > 1.0 + 1e-12):
        raise InvalidInputError("eval_F: pattern entries must lie in [0, 1]")
    if ell is not None and Zm.sum() > ell + 1e-9:
        raise InvalidInputError("eval_F: pattern exceeds the sparsity budget")
    if b < 0:
        raise InvalidInputError("eval_F: b must be nonnegative")

    upper = math.sqrt(b) * np.clip(Zm, 0.0, 1.0)
    smax = spectral_norm(Xm) if Xm.size else 0.0

    def residual(Wt: np.ndarray) -> np.ndarray:
        A = Wt @ Xm
        return A - np.clip(A, 0.0, upper)

    def f(Wt: np.ndarray) -> float:
        r = residual(Wt)
        return float(np.sum(r * r))

    def grad(Wt: np.ndarray) -> np.ndarray:
        return 2.0 * residual(Wt) @ Xm.T

    # F <= k smax^2 is below _F_ABS_STOP on tiny or zero X: keep the start
    Wt, val, _ = _minimize(
        f,
        grad,
        _simplex_rows_raw,
        start,
        step=0.5 / (smax * smax) if smax > 1e-150 else 0.0,
        tol=tol,
        max_iter=max_iter,
        abs_stop=_F_ABS_STOP,
    )
    return val, np.clip(Wt @ Xm, 0.0, upper), Wt


def subgradient_F(H, Wt, X, b: float) -> np.ndarray:
    """Subgradient of F at the pattern whose inner minimizers are (H, Wt).

    Nonpositive entrywise: relaxing a pattern entry can only lower F.
    """
    Hm = as_matrix(H, "H")
    Wm = as_matrix(Wt, "Wt")
    Xm = as_matrix(X, "X")
    resid = Wm @ Xm - Hm
    lam_mult = np.where(resid > 0.0, 2.0 * resid, 0.0)
    return -math.sqrt(b) * lam_mult


@dataclass(frozen=True)
class MilpSolution:
    Z: np.ndarray
    eta: float
    optimal: bool
    nodes: int


class BranchAndBound:
    """Depth-first branch-and-bound for the cut-based master problem

        min_Z max_i (offset_i + <grad_i, Z>)   s.t. Z binary, sum(Z) <= ell.

    The node bound is the max over cuts of the cut's own greedy minimum
    (take the most negative free gradients up to the remaining budget),
    which lower-bounds the min-max.  Branches on the free variable with the
    largest absolute summed gradient, exploring the better-bound child
    first.  Zero-impact variables are fixed to zero up front: they never
    change any cut and the tie-break prefers sparser patterns.  The search
    stops after ``node_cap`` nodes (default ``NODE_CAP``) and then returns
    the best global lower bound instead of a certificate; it is exact when
    it ends under the cap, and ``node_cap=None`` never stops it early.

    The summed gradients never change and both children drop the branching
    variable, so the free set of a node depends only on its depth: the
    branching order is sorted once (stably, which keeps the first-maximum
    rule), and each greedy bound sum is computed once per (depth, remaining
    budget) within a call.  The greedy completion of a node's one-child is
    skipped when that child's bound already exceeds the incumbent by more
    than a rounding slack, since it cannot win.

    The free set and its gradient columns (``G.take(free, axis=1)``) are
    gathered once per depth; both child bounds and the child's greedy
    completion read that one gather.  Every sum keeps the order of the
    F-ordered fancy-indexed copies in ``tests/oracles.py``, so the search
    matches that oracle bit for bit: each cut sums its terms left to right
    when there are several cuts, and pairwise when there is one
    (``np.minimum(..., order="F").sum(axis=1)`` for a bound,
    ``G.T.compress(ones, axis=0).T.sum(axis=1)`` for a leaf value).
    """

    def __init__(self, node_cap: int | None = NODE_CAP):
        if node_cap is not None and node_cap < 0:
            raise InvalidInputError("BranchAndBound: node_cap must be nonnegative")
        self.node_cap = node_cap

    def minimize_cuts(self, offsets, grads, shape, ell) -> MilpSolution:
        """Best pattern found and ``eta``, a global lower bound on the
        optimum that equals it when ``optimal`` is true."""
        k, n = shape
        offs = np.asarray(offsets, dtype=np.float64)
        G = np.asarray(grads, dtype=np.float64).reshape(len(offs), k * n)
        if len(offs) == 0:
            raise InvalidInputError("minimize_cuts: need at least one cut")
        if not (np.isfinite(offs).all() and np.isfinite(G).all()):
            raise InvalidInputError(
                "minimize_cuts: cut offsets and gradients must be finite"
            )
        if np.any(G > 1e-12):
            raise InvalidInputError("minimize_cuts: cut gradients must be <= 0")
        N = k * n
        budget = int(min(ell, N))
        GT = G.T.copy()  # leaf values and branching steps read rows of G.T

        impact = -G.sum(axis=0)
        free0 = np.flatnonzero(impact > 0.0)
        # the node at depth d has order[d:] free; bounds and completions read
        # that set in ascending index order, as free0 lists it
        perm = np.argsort(-impact[free0], kind="stable")
        order = free0[perm]
        rank = np.empty(free0.size, dtype=np.intp)
        rank[perm] = np.arange(free0.size)
        n_free = free0.size

        at_depth, free_idx, G_free = -1, free0, G

        def gather(depth: int) -> tuple[np.ndarray, np.ndarray]:
            # the free set at depth and its gradient columns, kept until the
            # depth changes
            nonlocal at_depth, free_idx, G_free
            if depth != at_depth:
                free_idx = free0[rank >= depth]
                at_depth, G_free = depth, G.take(free_idx, axis=1)
            return free_idx, G_free

        sums: dict[tuple[int, int], np.ndarray] = {}

        def node_bound(base: np.ndarray, depth: int, room: int) -> float:
            # base[i] = offs[i] + sum of G_i over the fixed ones
            if room <= 0 or depth == n_free:
                return max(base.tolist())
            S = sums.get((depth, room))
            if S is None:
                part = gather(depth)[1]
                if part.shape[1] > room:
                    part = np.partition(part, room - 1, axis=1)[:, :room]
                S = sums[depth, room] = np.minimum(part, 0.0, order="F").sum(axis=1)
            return max((base + S).tolist())

        best_val = math.inf
        best_ones: np.ndarray | None = None
        # a bound and a leaf value each sum at most N + 1 terms of one cut, so
        # a completion's computed value is at least its computed bound minus
        # this, and a completion whose bound exceeds best_val by more cannot win
        slack = 4 * (N + 2) * np.finfo(np.float64).eps * float(
            (np.abs(offs) + np.abs(G).sum(axis=1)).max()
        )

        def consider(ones: np.ndarray) -> None:
            nonlocal best_val, best_ones
            val = max((offs + GT.compress(ones, axis=0).T.sum(axis=1)).tolist())
            if val < best_val or (
                val == best_val
                and best_ones is not None
                and _lex_smaller(ones, best_ones)
            ):
                best_val = val
                best_ones = ones.copy()

        # start from each cut's greedy pattern over the free variables, then
        # from the all-zeros pattern, which is always feasible
        zeros = np.zeros(N, dtype=bool)
        idx, sub = gather(0)
        for i in range(len(offs)):
            consider(_greedy_completion(zeros, idx, sub[i], budget))
        consider(zeros)

        fixed1 = np.zeros(N, dtype=bool)
        base0 = offs.copy()
        stack: list[tuple[float, np.ndarray, int, np.ndarray, int]] = [
            (node_bound(base0, 0, budget), fixed1, 0, base0, budget)
        ]
        nodes = 0
        open_bounds_min = math.inf
        capped = False
        while stack:
            if self.node_cap is not None and nodes >= self.node_cap:
                capped = True
                open_bounds_min = min([open_bounds_min] + [s[0] for s in stack])
                break
            bound, f1, depth, base, room = stack.pop()
            nodes += 1
            if bound > best_val:
                continue
            # on a tie, a subtree survives only if its forced ones can still
            # lead to a pattern lexicographically smaller than the incumbent
            if bound == best_val and not _lex_smaller(f1, best_ones):
                continue
            if depth == n_free or room == 0:
                consider(f1)
                continue
            # branch on the free variable with largest absolute summed gradient
            j = int(order[depth])
            f1_one = f1.copy()
            f1_one[j] = True
            base_one = base + GT[j]
            room_one = room - 1
            bound_one = node_bound(base_one, depth + 1, room_one)
            if bound_one <= best_val + slack:
                idx, sub = gather(depth + 1)
                consider(
                    _greedy_completion(f1_one, idx, sub[base_one.argmax()], room_one)
                )
            bound_zero = node_bound(base, depth + 1, room)
            children = [
                (bound_zero, f1, base, room),
                (bound_one, f1_one, base_one, room_one),
            ]
            # pop order is LIFO: push the higher-bound child first (ties: the
            # one-child first so the zero-child is explored first)
            if bound_one >= bound_zero:
                children.reverse()
            for bc, f1c, basec, roomc in children:
                if bc < best_val or (
                    bc == best_val and _lex_smaller(f1c, best_ones)
                ):
                    stack.append((bc, f1c, depth + 1, basec, roomc))

        assert best_ones is not None
        eta = best_val if not capped else min(best_val, open_bounds_min)
        Z = np.zeros(N, dtype=np.float64)
        Z[best_ones] = 1.0
        return MilpSolution(
            Z=Z.reshape(k, n), eta=float(eta), optimal=not capped, nodes=nodes
        )


def _greedy_completion(
    fixed1: np.ndarray, free_idx: np.ndarray, vals: np.ndarray, room: int
) -> np.ndarray:
    """``fixed1`` plus the up-to-``room`` most negative of ``vals``, one
    cut's gradients over ``free_idx``."""
    ones = fixed1.copy()
    if room > 0 and free_idx.size:
        if free_idx.size > room:
            pick = vals.argpartition(room - 1)[:room]
        else:
            pick = np.arange(free_idx.size)
        take = free_idx[pick[vals[pick] < 0.0]]
        ones[take] = True
    return ones


def _lex_smaller(a: np.ndarray, b: np.ndarray) -> bool:
    """Row-major lexicographic order on boolean patterns (0 before 1)."""
    diff = a != b
    if not diff.any():
        return False
    first = int(np.argmax(diff))
    return not a[first]


def milp_min_cuts(
    cuts: list[Cut],
    k: int,
    n: int,
    ell: int,
    backend: BranchAndBound | None = None,
) -> tuple[np.ndarray, float]:
    """Minimize the piecewise-linear cut model over feasible binary patterns."""
    if not cuts:
        raise InvalidInputError("milp_min_cuts: cut set is empty")
    if backend is None:
        backend = BranchAndBound()
    offsets = np.array([c.offset for c in cuts], dtype=np.float64)
    grads = np.stack([c.grad.ravel() for c in cuts])
    sol = backend.minimize_cuts(offsets, grads, (k, n), ell)
    return sol.Z, sol.eta


@dataclass
class OaResult:
    """Incumbent of the outer-approximation loop."""

    H: np.ndarray
    Wt: np.ndarray
    cutset: CutSet
    rounds: int
    converged: bool


def outer_approximation(
    X,
    cfg: SaaConfig,
    max_rounds: int = 50,
    backend: BranchAndBound | None = None,
) -> OaResult:
    """Alternate F evaluations and master solves until the optimality gap
    closes, the master repeats a pattern, or ``max_rounds`` patterns have
    been evaluated.

    The first pattern is the support of ``default_init``'s H and the first
    evaluation starts from its Wt; later ones start from the incumbent's.
    The lower bound starts at zero (F is a squared norm) and only improves;
    the returned incumbent is the best pattern evaluated so far together
    with its inner minimizers, and ``rounds`` counts the patterns evaluated.
    The last round ends on its evaluation, so a run makes at most
    ``max_rounds - 1`` master solves.  Masters run on ``backend``, by
    default a ``BranchAndBound`` that stops after ``NODE_CAP`` nodes; a
    master is exact when its search ends under the cap.
    """
    if max_rounds < 1:
        raise InvalidInputError("outer_approximation: max_rounds must be at least 1")
    Xm = as_matrix(X, "X")
    k, ell = cfg.k, cfg.ell
    n = Xm.shape[1]
    b = norm_bound_b(Xm, k)

    start = default_init(Xm, cfg)
    Z = (start.H > 0.0).astype(np.float64)

    cutset = CutSet()
    best = None  # (value, H, Wt)
    seen: set[bytes] = set()
    converged = False
    for r in range(max_rounds):
        key = Z.astype(np.int8).tobytes()
        if key in seen:
            converged = True
            break
        seen.add(key)
        val, Hs, Wts = eval_F(Z, Xm, b, ell, wt0=start.Wt if best is None else best[2])
        grad = subgradient_F(Hs, Wts, Xm, b)
        cutset.add(Cut(pattern=Z.copy(), value=val, grad=grad))
        if best is None or val < best[0]:
            best = (val, Hs, Wts)
        if cutset.closed():
            converged = True
            break
        if r == max_rounds - 1:
            break
        Z, eta = milp_min_cuts(cutset.cuts, k, n, ell, backend=backend)
        cutset.best_lower = min(max(cutset.best_lower, eta), cutset.best_upper)
        if cutset.closed():
            converged = True
            break

    assert best is not None
    return OaResult(
        H=best[1],
        Wt=best[2],
        cutset=cutset,
        rounds=len(cutset.cuts),
        converged=converged,
    )


def continuation(
    X,
    cfg: SaaConfig,
    oa: OaResult | None = None,
) -> tuple[Factorization, list[SolveTrace]]:
    """Warm-started solves along the decreasing penalty schedule, seeded by
    the outer-approximation incumbent ``oa``, which defaults to
    ``outer_approximation(X, cfg)``.

    The initial W is one projected descent step from ``default_init``'s W
    against the incumbent archetypes.  Only the last λ's solution is
    returned, so every earlier λ is a warm start: it stops at the tolerances
    of ``cfg`` loosened to at least ``_WARM_TOL_OBJECTIVE`` and
    ``_WARM_TOL_STATIONARY``, and the last λ uses those of ``cfg``.
    """
    Xm = as_matrix(X, "X")
    sched = cfg.lambda_schedule
    if oa is None:
        oa = outer_approximation(Xm, cfg)
    W, _ = step_W(Xm, oa.H, default_init(Xm, cfg).W)
    fac = Factorization(H=oa.H.copy(), W=W, Wt=oa.Wt.copy())
    # a copy, not dataclasses.replace, which reruns __post_init__ and its
    # ell < k warning
    warm = copy.copy(cfg)
    warm.tol_objective = max(cfg.tol_objective, _WARM_TOL_OBJECTIVE)
    warm.tol_stationary = max(cfg.tol_stationary, _WARM_TOL_STATIONARY)
    traces: list[SolveTrace] = []
    for i, lam in enumerate(sched):
        fac, trace = solve(Xm, fac, cfg if i == len(sched) - 1 else warm, lam=lam)
        traces.append(trace)
    return fac, traces
