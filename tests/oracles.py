"""Independent reference implementations used only by the tests.

Each oracle takes a brute-force or closed-form route that shares no code
with the library path it checks: active-set enumeration for the simplex
projection, support enumeration for hull distances, exhaustive pattern
enumeration for the cut MILP, central finite differences for gradients,
and golden-section search for the one-dimensional refit.  The top-ell and
sweep-loop oracles write the solver's work out the long way (a full stable
argsort; every residual recomputed, no residual carried between sweeps) as
references for bit-identity tests, as do the row-simplex and cut-master
branch-and-bound oracles (the textbook threshold formula; a free set and
bound sums rebuilt at every node), the swap-refit oracle (each weight
fit's objective and gradient formed from the full residual), and the
``eval_F`` loop oracle (every residual a fresh clip, the accelerated
iteration written inline).
"""

import itertools
import math

import numpy as np


def simplex_qp_oracle(y: np.ndarray) -> np.ndarray:
    """Euclidean projection onto the unit simplex by enumerating active sets.

    For every nonempty free set S the equality-constrained minimizer is
    y_S - theta with theta = (sum(y_S) - 1) / |S|; the best feasible
    candidate is the projection.
    """
    d = y.shape[0]
    best = None
    best_obj = math.inf
    for size in range(1, d + 1):
        for free in itertools.combinations(range(d), size):
            idx = list(free)
            theta = (y[idx].sum() - 1.0) / size
            x = np.zeros(d)
            x[idx] = y[idx] - theta
            if np.any(x[idx] < -1e-12):
                continue
            obj = float(np.sum((x - y) ** 2))
            if obj < best_obj - 1e-15:
                best_obj = obj
                best = x
    assert best is not None
    return np.maximum(best, 0.0)


def hull_qp_oracle(x: np.ndarray, X: np.ndarray) -> float:
    """Squared hull distance by enumerating supports of the weight vector.

    On each candidate support the equality-constrained least-squares system
    (KKT with the sum-to-one multiplier) is solved directly; infeasible
    candidates are discarded.
    """
    m = X.shape[0]
    best = math.inf
    for size in range(1, m + 1):
        for sub in itertools.combinations(range(m), size):
            idx = list(sub)
            Xs = X[idx]
            G = 2.0 * Xs @ Xs.T
            kkt = np.zeros((size + 1, size + 1))
            kkt[:size, :size] = G
            kkt[:size, size] = 1.0
            kkt[size, :size] = 1.0
            rhs = np.concatenate([2.0 * Xs @ x, [1.0]])
            sol, *_ = np.linalg.lstsq(kkt, rhs, rcond=None)
            alpha = sol[:size]
            if np.any(alpha < -1e-9):
                continue
            alpha = np.maximum(alpha, 0.0)
            s = alpha.sum()
            if s <= 0:
                continue
            alpha = alpha / s
            resid = alpha @ Xs - x
            best = min(best, float(resid @ resid))
    return best


def branch_and_bound_oracle(offsets, grads, shape, ell, node_cap=None):
    """The cut-master branch-and-bound written out with no per-depth reuse.

    Every node carries its own free index set, picks the branching variable
    by an argmax over the free summed gradients and deletes it for its
    children, and every node bound sums its greedy gradients afresh.
    Returns ``(Z, eta, optimal, nodes)``.

    Its sums fix the bit contract that ``BranchAndBound`` keeps: the
    fancy-indexed copies ``G[:, free_idx]`` and ``G[:, ones]`` are
    F-ordered, so each cut's bound and leaf sum runs left to right when
    there are several cuts and pairwise when there is one.
    """
    k, n = shape
    offs = np.asarray(offsets, dtype=np.float64)
    G = np.asarray(grads, dtype=np.float64).reshape(len(offs), k * n)
    N = k * n
    budget = int(min(ell, N))
    impact = -G.sum(axis=0)

    def lex_smaller(a, b):
        diff = a != b
        return bool(diff.any()) and not a[int(np.argmax(diff))]

    def leaf_value(ones):
        return float(np.max(offs + G[:, ones].sum(axis=1)))

    def node_bound(base, free_idx, room):
        if room <= 0 or free_idx.size == 0:
            return float(base.max())
        sub = G[:, free_idx]
        if free_idx.size > room:
            sub = np.partition(sub, room - 1, axis=1)[:, :room]
        return float((base + np.minimum(sub, 0.0).sum(axis=1)).max())

    def greedy_completion(fixed1, free_idx, room, i):
        ones = fixed1.copy()
        if room > 0 and free_idx.size:
            vals = G[i, free_idx]
            if free_idx.size > room:
                pick = np.argpartition(vals, room - 1)[:room]
            else:
                pick = np.arange(free_idx.size)
            ones[free_idx[pick[vals[pick] < 0.0]]] = True
        return ones

    fixed1 = np.zeros(N, dtype=bool)
    free0 = np.flatnonzero(impact > 0.0)
    best = [math.inf, None]

    def consider(ones):
        val = leaf_value(ones)
        if val < best[0] or (
            val == best[0] and best[1] is not None and lex_smaller(ones, best[1])
        ):
            best[0], best[1] = val, ones.copy()

    for i in range(len(offs)):
        consider(greedy_completion(fixed1, free0, budget, i))
    consider(fixed1)

    stack = [(node_bound(offs, free0, budget), fixed1, free0, offs.copy(), budget)]
    nodes = 0
    open_min = math.inf
    capped = False
    while stack:
        if node_cap is not None and nodes >= node_cap:
            capped = True
            open_min = min([open_min] + [s[0] for s in stack])
            break
        bound, f1, free_idx, base, room = stack.pop()
        nodes += 1
        if bound > best[0]:
            continue
        if bound == best[0] and not lex_smaller(f1, best[1]):
            continue
        if free_idx.size == 0 or room == 0:
            consider(f1)
            continue
        pos = int(np.argmax(impact[free_idx]))
        j = int(free_idx[pos])
        free_c = np.delete(free_idx, pos)
        f1_one = f1.copy()
        f1_one[j] = True
        base_one = base + G[:, j]
        consider(greedy_completion(f1_one, free_c, room - 1, int(np.argmax(base_one))))
        children = [
            (node_bound(base, free_c, room), f1, free_c, base, room, 0),
            (node_bound(base_one, free_c, room - 1), f1_one, free_c, base_one, room - 1, 1),
        ]
        children.sort(key=lambda c: (-c[0], -c[5]))
        for bc, f1c, freec, basec, roomc, _ in children:
            if bc < best[0] or (bc == best[0] and lex_smaller(f1c, best[1])):
                stack.append((bc, f1c, freec, basec, roomc))

    eta = best[0] if not capped else min(best[0], open_min)
    Z = np.zeros(N)
    Z[best[1]] = 1.0
    return Z.reshape(k, n), float(eta), not capped, nodes


def milp_enum_oracle(offsets, grads, N: int, ell: int):
    """Exhaustive minimum of max_i(offset_i + <grad_i, z>) over z binary
    with at most ell ones.  Returns (value, first lexicographic argmin)."""
    offs = list(offsets)
    G = [np.asarray(g, dtype=float).ravel() for g in grads]
    best = math.inf
    best_z = None
    for count in range(0, min(ell, N) + 1):
        for comb in itertools.combinations(range(N), count):
            z = np.zeros(N)
            z[list(comb)] = 1.0
            v = max(o + g @ z for o, g in zip(offs, G))
            if v < best - 1e-15:
                best = v
                best_z = z
    return best, best_z


def central_diff_grad(f, X: np.ndarray, h: float = 1e-6) -> np.ndarray:
    """Central finite differences of a scalar function of a matrix."""
    g = np.zeros_like(X)
    for idx in np.ndindex(*X.shape):
        Xp = X.copy()
        Xp[idx] += h
        Xm = X.copy()
        Xm[idx] -= h
        g[idx] = (f(Xp) - f(Xm)) / (2.0 * h)
    return g


def golden_section_min(f, lo: float, hi: float, tol: float = 1e-6) -> float:
    """Golden-section search for the minimizer of a unimodal f on [lo, hi],
    polished by one wide-spaced parabolic-vertex step.

    Pure bracketing bottoms out near sqrt(machine eps); the parabola fit
    through three points at spacing well above the noise floor recovers the
    vertex of a (locally) quadratic objective far more accurately.
    """
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - invphi * (b - a)
    d = a + invphi * (b - a)
    fc, fd = f(c), f(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - invphi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + invphi * (b - a)
            fd = f(d)
    t = 0.5 * (a + b)
    h = max(1e-3, 1e-3 * abs(t))
    f0, fp, fm = f(t), f(t + h), f(t - h)
    denom = fp - 2.0 * f0 + fm
    if denom > 0:
        vertex = t - 0.5 * h * (fp - fm) / denom
        if lo <= vertex <= hi:
            return vertex
        return min(max(vertex, lo), hi)
    return t


def purity_entropy_oracle(true_labels, est_labels, k: int):
    """Direct double-loop purity/entropy computation from the counts."""
    t = list(true_labels)
    e = list(est_labels)
    m = len(t)
    counts = [[0] * k for _ in range(k)]
    for ti, ei in zip(t, e):
        counts[ei][ti] += 1
    purity = sum(max(row) for row in counts) / m
    if k == 1:
        return purity, 0.0
    ent = 0.0
    for r in range(k):
        m_r = sum(counts[r])
        if m_r == 0:
            continue
        for u in range(k):
            c = counts[r][u]
            if c > 0:
                ent += c * math.log2(c / m_r)
    return purity, -ent / (m * math.log2(k))


def objective_loops_oracle(X, H, W, Wt, lam: float) -> float:
    """Naive triple-loop evaluation of the penalized objective."""
    m, n = X.shape
    k = H.shape[0]
    fit = 0.0
    for i in range(m):
        for j in range(n):
            pred = 0.0
            for r in range(k):
                pred += W[i, r] * H[r, j]
            fit += (X[i, j] - pred) ** 2
    reg = 0.0
    for r in range(k):
        for j in range(n):
            pred = 0.0
            for i in range(m):
                pred += Wt[r, i] * X[i, j]
            reg += (H[r, j] - pred) ** 2
    return fit + lam * reg


def topk_argsort_oracle(A: np.ndarray, ell: int):
    """Top-ell magnitudes of A by a full stable argsort of -|A|.

    Equal magnitudes stay in ascending index order, so ties go to the
    earlier row-major index; zero magnitudes are never kept.  Returns the
    thresholded matrix and the kept flat indices in selection order.
    """
    flat = np.abs(A).ravel()
    out = np.zeros_like(A)
    keep = np.empty(0, dtype=np.intp)
    if ell > 0 and flat.size:
        order = np.argsort(-flat, kind="stable")[: min(ell, flat.size)]
        keep = order[flat[order] > 0.0]
        out.ravel()[keep] = A.ravel()[keep]
    return out, keep


def simplex_rows_oracle(A: np.ndarray) -> np.ndarray:
    """Row-wise simplex projection by the textbook sort-and-threshold formula.

    Sorts each row in decreasing order, takes ``rho`` as the last index with
    ``s_rho - (cumsum(s)_rho - 1) / rho > 0`` and the threshold
    ``(cumsum(s)_rho - 1) / rho``; a reference for bit-identity tests.
    """
    s = np.sort(A, axis=1)[:, ::-1]
    css = np.cumsum(s, axis=1) - 1.0
    counts = np.arange(1, A.shape[1] + 1, dtype=np.float64)
    above = s - css / counts > 0
    rho = A.shape[1] - 1 - np.argmax(above[:, ::-1], axis=1)
    theta = css[np.arange(A.shape[0]), rho] / (rho + 1.0)
    return np.maximum(A - theta[:, None], 0.0)


def sweep_loop_oracle(X, cfg, lam: float, start, momentum: bool = True):
    """The block proximal-gradient solve written out with no shared work.

    Starts from the caller's factorization ``start``, and every block step
    recomputes its residuals from scratch.  It reuses only the
    library's spectral norm and simplex projection, which the sweep
    calls unchanged.  With ``momentum`` each sweep after the
    first starts from the extrapolated point ``B + beta (B - B_prev)`` of
    every block, with the FISTA weight ``beta = (t - 1) / t_next``; a result
    whose objective is above the current one is rejected for the plain
    sweep from the current iterate, and ``t`` restarts at 1.  Without it
    every sweep is the plain one.  Stops by the solver's rule and returns
    ``(H, W, Wt, objectives, step_sizes, ties, rejects)``: ``ties`` counts
    the accepted H-steps whose selection had to break a tie at the ell
    boundary, ``rejects`` the extrapolated sweeps that were rejected.
    """
    from sparse_aa.core import _spectral_norm_raw
    from sparse_aa.projections import _simplex_rows_raw
    from sparse_aa.solver import _EPS_W

    def psi(H, W, Wt):
        r1 = X - W @ H
        r2 = H - Wt @ X
        return float(np.sum(r1 * r1)) + lam * float(np.sum(r2 * r2))

    def sweep(H, W, Wt):
        sw = _spectral_norm_raw(W)
        l1 = 2.0 * (lam + sw * sw)
        pi = H - (-(W.T @ (X - W @ H)) + lam * (H - Wt @ X)) / l1
        target = np.maximum(pi, 0.0)
        s = np.sort(target.ravel())[::-1]
        tie = bool(s.size > cfg.ell and s[cfg.ell] > 0.0 and s[cfg.ell - 1] == s[cfg.ell])
        H1, _ = topk_argsort_oracle(target, cfg.ell)
        sh = _spectral_norm_raw(H1)
        l2 = 2.0 * max(sh * sh, _EPS_W)
        W1 = _simplex_rows_raw(W + ((X - W @ H1) @ H1.T) / l2)
        l3 = 2.0 * lam * sx * sx
        Wt1 = _simplex_rows_raw(Wt + (lam / l3) * ((H1 - Wt @ X) @ X.T))
        return H1, W1, Wt1, (0.5 / l1, 0.5 / l2, 0.5 / l3 if l3 > 0 else np.inf), tie

    H, W, Wt = start.H, start.W, start.Wt
    Hp, Wp, Wtp = H, W, Wt
    sx = _spectral_norm_raw(X)
    total = psi(H, W, Wt)
    objectives, steps, ties, rejects = [total], [], 0, 0
    t = 1.0
    for _ in range(cfg.max_iter):
        t_next = (1.0 + math.sqrt(1.0 + 4.0 * t * t)) / 2.0
        beta = (t - 1.0) / t_next if momentum else 0.0
        if beta > 0.0:
            out = sweep(H + beta * (H - Hp), W + beta * (W - Wp), Wt + beta * (Wt - Wtp))
            new_total = psi(*out[:3])
            if new_total > total:
                rejects += 1
                t_next = 1.0
                out = sweep(H, W, Wt)
                new_total = psi(*out[:3])
        else:
            out = sweep(H, W, Wt)
            new_total = psi(*out[:3])
        H1, W1, Wt1, step, tie = out
        ties += tie
        change = max(
            float(np.linalg.norm(H1 - H)),
            float(np.linalg.norm(W1 - W)),
            float(np.linalg.norm(Wt1 - Wt)),
        )
        objectives.append(new_total)
        steps.append(step)
        done = (total - new_total) <= cfg.tol_objective * max(total, 1e-30)
        Hp, Wp, Wtp = H, W, Wt
        H, W, Wt, total, t = H1, W1, Wt1, new_total, t_next
        if done and change <= cfg.tol_stationary:
            break
    return H, W, Wt, objectives, steps, ties, rejects


def eval_F_loop_oracle(Z, X, b: float, wt0=None, tol=1e-10, max_iter=20_000):
    """``eval_F`` written out with no shared work.

    Every residual is the fresh ``A - np.clip(A, 0, sqrt(b) Z)`` of
    ``A = Wt X``, its value ``np.sum(r * r)`` and its gradient
    ``2.0 * r @ X.T``; the accelerated projected gradient (Nesterov momentum,
    a restart to the plain step on overshoot, a plain-step probe before
    stopping, the absolute stop at 1e-22) is inlined from
    ``_fista.minimize``.  It reuses only the library's spectral norm and
    simplex projection, which ``eval_F`` calls unchanged.  Returns
    ``(F, H, Wt, restarts)``, ``restarts`` counting the momentum overshoots.
    """
    from sparse_aa.core import _spectral_norm_raw
    from sparse_aa.projections import _simplex_rows_raw as project

    k, m = Z.shape[0], X.shape[0]
    upper = math.sqrt(b) * np.clip(Z, 0.0, 1.0)

    def residual(Wt):
        A = Wt @ X
        return A - np.clip(A, 0.0, upper)

    def f(Wt):
        r = residual(Wt)
        return float(np.sum(r * r))

    def grad(Wt):
        return 2.0 * residual(Wt) @ X.T

    smax = _spectral_norm_raw(X)
    step = 0.5 / (smax * smax) if smax > 1e-150 else 0.0
    x = project(np.full((k, m), 1.0 / m) if wt0 is None else wt0)
    y, t, f_cur, restarts = x, 1.0, f(x), 0
    for _ in range(max_iter if step > 0.0 else 0):
        x_new = project(y - step * grad(y))
        f_new = f(x_new)
        if f_new > f_cur:
            restarts += 1
            y, t = x, 1.0
            x_new = project(y - step * grad(y))
            f_new = f(x_new)
        if f_cur - f_new <= tol * max(f_cur, 1e-30):
            probe = project(x_new - step * grad(x_new))
            f_probe = f(probe)
            if f_new - f_probe <= tol * max(f_new, 1e-30):
                x, f_cur = x_new, f_new
                break
            x, y, t, f_cur = probe, probe, 1.0, f_probe
        else:
            t_next = 0.5 * (1.0 + math.sqrt(1.0 + 4.0 * t * t))
            y = x_new + ((t - 1.0) / t_next) * (x_new - x)
            x, t, f_cur = x_new, t_next, f_new
        if f_cur <= 1e-22:
            break
    return f_cur, np.clip(x @ X, 0.0, upper), x, restarts


def swap_refit_oracle(X, fac, lam: float, leaving, entering):
    """One swap refit with every weight-fit residual formed in full.

    Drops ``leaving`` from H, fits W to ``||X - M Ht||^2`` and then Wt to
    ``||Ht - M X||^2`` over row-stochastic matrices, each from the caller's
    weights, with the objective and gradient built from the m x n (or
    k x n) residual, and sets the entering entry with ``optimal_t``.  Each
    fit steps along the simplex: against ``B`` its gradient is
    ``-2 (Y - M B) (B - mean row)^T`` and its step ``1 / (2 s^2)``, with
    ``s`` the 2-norm of ``B - mean row`` by SVD (0 when all rows of ``B``
    are equal).  It reuses the library's accelerated driver, simplex
    projection, fit constants, ``optimal_t`` and ``objective``, which the
    refit calls unchanged.  Returns
    ``(H, W, Wt, t_star, psi, inner_iterations)``.
    """
    from sparse_aa.core import Factorization
    from sparse_aa._fista import minimize
    from sparse_aa.local_search import _REFIT_INNER_MAX_ITER, _REFIT_INNER_TOL, optimal_t
    from sparse_aa.projections import _simplex_rows_raw
    from sparse_aa.solver import objective

    def fit(M0, f, grad, lipschitz):
        if lipschitz == 0.0:
            return M0, 0
        M, _, used = minimize(
            f, grad, _simplex_rows_raw, M0, step=1.0 / lipschitz,
            tol=_REFIT_INNER_TOL, max_iter=_REFIT_INNER_MAX_ITER,
        )
        return M, used

    Ht = fac.H.copy()
    if leaving is not None:
        Ht[leaving] = 0.0
    Hc = Ht - Ht.mean(axis=0)
    sh = 0.0 if (Ht == Ht[0]).all() else np.linalg.norm(Hc, 2)
    W, it_w = fit(
        fac.W.copy(),
        lambda M: float(np.linalg.norm(X - M @ Ht) ** 2),
        lambda M: -2.0 * (X - M @ Ht) @ Hc.T,
        2.0 * sh * sh,
    )
    Xc = X - X.mean(axis=0)
    sx = 0.0 if (X == X[0]).all() else np.linalg.norm(Xc, 2)
    Wt, it_wt = fit(
        fac.Wt.copy(),
        lambda M: float(np.linalg.norm(Ht - M @ X) ** 2),
        lambda M: -2.0 * (Ht - M @ X) @ Xc.T,
        2.0 * sx * sx,
    )
    t_star = optimal_t(X, Ht, W, Wt, lam, *entering)
    Ht[entering] = t_star
    psi = objective(X, Factorization(H=Ht, W=W, Wt=Wt), lam).total
    return Ht, W, Wt, t_star, psi, it_w + it_wt
