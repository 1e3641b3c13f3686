"""Independent reference implementations used only by the tests.

Each oracle takes a brute-force or closed-form route that shares no code
with the library path it checks: active-set enumeration for the simplex
projection, support enumeration for hull distances, exhaustive pattern
enumeration for the cut MILP, central finite differences for gradients,
and golden-section search for the one-dimensional refit.  The top-ell and
sweep-loop oracles write the solver's work out the long way (a full stable
argsort; every residual recomputed, no residual carried between sweeps) as
references for bit-identity tests.
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


def sweep_loop_oracle(X, cfg, lam: float, momentum: bool = True):
    """The block proximal-gradient solve written out with no shared work.

    Starts from the uniform weights and the thresholded ``Wt X``, and every
    block step recomputes its residuals from scratch.  It reuses only the
    library's power-iteration spectral norm and simplex projection, which
    the sweep calls unchanged.  With ``momentum`` each sweep after the
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
        l2 = 2.0 * max(sh * sh, cfg.eps_safeguard)
        W1 = _simplex_rows_raw(W + ((X - W @ H1) @ H1.T) / l2)
        l3 = 2.0 * lam * sx * sx
        Wt1 = _simplex_rows_raw(Wt + (lam / l3) * ((H1 - Wt @ X) @ X.T))
        return H1, W1, Wt1, (0.5 / l1, 0.5 / l2, 0.5 / l3 if l3 > 0 else np.inf), tie

    m, k = X.shape[0], cfg.k
    W = np.full((m, k), 1.0 / k)
    Wt = np.full((k, m), 1.0 / m)
    H, _ = topk_argsort_oracle(np.maximum(Wt @ X, 0.0), cfg.ell)
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
