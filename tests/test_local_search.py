import importlib
import math

import numpy as np
import pytest

from sparse_aa import (
    Factorization,
    InvalidInputError,
    SaaConfig,
    local_search,
    nnz,
    norm_bound_b,
    objective,
    optimal_t,
    select_entering,
    select_leaving,
    solve,
    swap_refit,
    synth_instance,
)
from sparse_aa.local_search import _reduced_lsq
from sparse_aa.solver import grad_H
from oracles import golden_section_min, swap_refit_oracle


def feasible_fac(rng, m=6, k=2, n=4, ell=5):
    H = rng.uniform(size=(k, n))
    drop = rng.choice(k * n, size=k * n - ell, replace=False)
    H.ravel()[drop] = 0.0
    W = rng.uniform(size=(m, k))
    W /= W.sum(axis=1, keepdims=True)
    Wt = rng.uniform(size=(k, m))
    Wt /= Wt.sum(axis=1, keepdims=True)
    return Factorization(H=H, W=W, Wt=Wt)


def test_select_leaving_cases():
    assert select_leaving(np.array([[3.0, 0.0], [0.0, 1.0]])) == (1, 1)
    assert select_leaving(np.array([[0.0, 0.0], [0.0, 7.0]])) == (1, 1)
    assert select_leaving(np.array([[1.0, 1.0]])) == (0, 0)  # row-major tie
    with pytest.raises(InvalidInputError):
        select_leaving(np.zeros((2, 2)))


def test_select_entering_cases():
    rng = np.random.default_rng(0)
    fac = feasible_fac(rng)
    X = rng.uniform(size=(6, 4))
    coord = select_entering(X, fac, lam=1.0)
    assert fac.H[coord] == 0.0
    g = grad_H(X, fac, 1.0)
    off = [idx for idx in np.ndindex(2, 4) if fac.H[idx] == 0.0]
    assert g[coord] == min(g[idx] for idx in off)

    full = Factorization(
        H=np.ones((2, 2)),
        W=np.full((3, 2), 0.5),
        Wt=np.full((2, 3), 1.0 / 3.0),
    )
    with pytest.raises(InvalidInputError):
        select_entering(np.ones((3, 2)), full, 1.0)


def test_select_entering_positive_gradients_still_returns():
    # no sign gate: the least positive off-support gradient is proposed
    rng = np.random.default_rng(3)
    fac = feasible_fac(rng)
    X = np.zeros((6, 4))  # gradients 2*lam*(H - Wt X) = 2*lam*H >= 0 plus W term
    coord = select_entering(X, fac, lam=1.0)
    assert fac.H[coord] == 0.0


def test_optimal_t_zero_residuals():
    rng = np.random.default_rng(1)
    k, n, m = 2, 3, 5
    W = rng.uniform(size=(m, k))
    W /= W.sum(axis=1, keepdims=True)
    Wt = rng.uniform(size=(k, m))
    Wt /= Wt.sum(axis=1, keepdims=True)
    H = np.zeros((k, n))
    X = W @ H  # U = 0
    H_target = Wt @ X  # equals 0 here, so V = 0 as well
    t = optimal_t(X, H, W, Wt, lam=1.0, i2=0, j2=1)
    assert t == 0.0


@pytest.mark.parametrize("seed", range(30))
def test_optimal_t_matches_golden_section(seed):
    rng = np.random.default_rng(seed)
    m, k, n = 5, 2, 4
    X = rng.uniform(size=(m, n)) * 2.0
    fac = feasible_fac(rng, m=m, k=k, n=n, ell=5)
    H_minus = fac.H.copy()
    i2, j2 = 1, 2
    H_minus[i2, j2] = 0.0
    lam = float(rng.uniform(0.2, 2.0))
    t = optimal_t(X, H_minus, fac.W, fac.Wt, lam, i2, j2)

    def obj(tv):
        Ht = H_minus.copy()
        Ht[i2, j2] = tv
        return (
            float(np.linalg.norm(X - fac.W @ Ht) ** 2)
            + lam * float(np.linalg.norm(Ht - fac.Wt @ X) ** 2)
        )

    t_max = math.sqrt(norm_bound_b(X, k))
    t_ref = golden_section_min(obj, 0.0, t_max, tol=1e-13)
    assert t == pytest.approx(max(t_ref, 0.0), abs=1e-8)


def test_optimal_t_negative_minimizer_clips_to_zero():
    # a large existing fit makes increasing the entry harmful: t = 0
    X = np.zeros((3, 2))
    W = np.array([[1.0, 0.0], [0.5, 0.5], [0.0, 1.0]])
    Wt = np.full((2, 3), 1.0 / 3.0)
    H_minus = np.array([[5.0, 0.0], [0.0, 5.0]])
    t = optimal_t(X, H_minus, W, Wt, lam=1.0, i2=0, j2=1)
    assert t == 0.0


def test_optimal_t_degenerate_denominator_warns():
    X = np.ones((2, 2))
    W = np.array([[1.0, 0.0], [1.0, 0.0]])  # second column zero
    Wt = np.full((2, 2), 0.5)
    H_minus = np.array([[1.0, 0.0], [0.0, 0.0]])
    with pytest.warns(UserWarning):
        t = optimal_t(X, H_minus, W, Wt, lam=0.0, i2=1, j2=1)
    assert t == 0.0


def test_swap_refit_self_swap_is_noop_up_to_refit():
    rng = np.random.default_rng(5)
    X, *_ = synth_instance(8, 4, 2, 0.1, seed=5)
    cfg = SaaConfig(k=2, ell=4, lam=1.0, max_iter=2_000, tol_stationary=1e-5)
    fac, _ = solve(X, None, cfg)
    before = objective(X, fac, 1.0).total
    coord = select_leaving(fac.H)
    out, after = swap_refit(X, fac, 1.0, leaving=coord, entering=coord)
    assert after <= before + 1e-9
    out.validate(cfg.ell)


def test_swap_refit_one_pass_does_not_raise_objective():
    rng = np.random.default_rng(6)
    m, k, n = 6, 2, 4
    X = rng.uniform(size=(m, n))
    fac = feasible_fac(rng, m=m, k=k, n=n, ell=5)
    lam = 0.7
    leaving = select_leaving(fac.H)
    entering = select_entering(X, fac, lam)
    stats = {}
    out, psi = swap_refit(X, fac, lam, leaving, entering, stats=stats)
    assert stats["alternations"] == 1
    assert psi == objective(X, out, lam).total
    # the refit starts from the caller's weights with the leaving entry dropped
    H_minus = fac.H.copy()
    H_minus[leaving] = 0.0
    start = objective(X, Factorization(H=H_minus, W=fac.W, Wt=fac.Wt), lam).total
    assert psi <= start + 1e-9


def test_local_search_max_swaps_bounds():
    rng = np.random.default_rng(9)
    X = rng.uniform(size=(6, 4))
    fac = feasible_fac(rng, ell=5)
    cfg = SaaConfig(k=2, ell=5, lam=1.0)
    with pytest.raises(InvalidInputError, match="max_swaps"):
        local_search(X, fac, cfg, max_swaps=-1)
    out, n_swaps, log = local_search(X, fac, cfg, max_swaps=0)
    assert (n_swaps, log) == (0, [])
    assert np.array_equal(out.H, fac.H)


def test_swap_refit_warm_start_reduces_iterations():
    # warm weights from the incumbent converge in fewer inner iterations
    # than a cold uniform start on the same proposal
    rng = np.random.default_rng(7)
    X, *_ = synth_instance(10, 5, 2, 0.1, seed=8)
    cfg = SaaConfig(k=2, ell=5, lam=1.0, max_iter=1_500, tol_stationary=1e-5)
    fac, _ = solve(X, None, cfg)
    lam = 1.0
    leaving = select_leaving(fac.H)
    entering = select_entering(X, fac, lam)
    warm_stats = {}
    swap_refit(X, fac, lam, leaving, entering, stats=warm_stats)

    cold = Factorization(
        H=fac.H.copy(),
        W=np.full_like(fac.W, 1.0 / fac.W.shape[1]),
        Wt=np.full_like(fac.Wt, 1.0 / fac.Wt.shape[1]),
    )
    cold_stats = {}
    swap_refit(X, cold, lam, leaving, entering, stats=cold_stats)
    assert warm_stats["inner_iterations"] <= cold_stats["inner_iterations"]


def test_local_search_accepts_only_strict_improvements():
    X, *_ = synth_instance(20, 10, 3, 0.1, seed=7)
    sched = tuple(np.geomspace(30.0, 1.0, 4))
    cfg = SaaConfig(k=3, ell=15, lam=sched, max_iter=2_000, tol_stationary=1e-5)
    fac, _ = solve(X, None, cfg, lam=1.0)
    psi0 = objective(X, fac, 1.0).total
    out, n_swaps, log = local_search(X, fac, cfg, max_swaps=25)
    psis = [s.new_objective for s in log]
    assert all(b < a for a, b in zip([psi0] + psis, psis))
    assert len(log) == n_swaps
    out.validate(cfg.ell)
    assert nnz(out.H) <= cfg.ell
    assert objective(X, out, 1.0).total <= psi0


def test_local_search_stops_at_rejection_and_is_deterministic():
    X, *_ = synth_instance(12, 6, 2, 0.2, seed=9)
    cfg = SaaConfig(k=2, ell=6, lam=1.0, max_iter=2_000, tol_stationary=1e-5)
    fac, _ = solve(X, None, cfg)
    out1, n1, log1 = local_search(X, fac, cfg, max_swaps=50)
    out2, n2, log2 = local_search(X, fac, cfg, max_swaps=50)
    assert n1 == n2
    assert log1 == log2
    np.testing.assert_array_equal(out1.H, out2.H)

    # re-proposing from the terminal state yields the same rejected pair
    if nnz(out1.H) >= cfg.ell:
        leave_a = select_leaving(out1.H)
        enter_a = select_entering(X, out1, 1.0)
        leave_b = select_leaving(out1.H)
        enter_b = select_entering(X, out1, 1.0)
        assert (leave_a, enter_a) == (leave_b, enter_b)


def test_local_search_noop_when_no_improvement_possible():
    # an exactly factorized instance cannot be improved
    rng = np.random.default_rng(11)
    W = rng.uniform(size=(6, 2))
    W /= W.sum(axis=1, keepdims=True)
    H = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
    X = W @ H
    Wt = np.zeros((2, 6))
    Wt[:, :2] = np.array([[1.0, 0.0], [0.0, 1.0]])
    X[:2] = H  # make the first two data rows the archetypes themselves
    fac = Factorization(H=H, W=np.linalg.lstsq(H.T, X.T, rcond=None)[0].T, Wt=Wt)
    # rebuild a clean feasible factorization instead: W rows projected
    from sparse_aa import project_simplex_rows

    fac = Factorization(H=H, W=project_simplex_rows(fac.W), Wt=Wt)
    cfg = SaaConfig(k=2, ell=2, lam=1.0)
    out, n_swaps, log = local_search(X, fac, cfg, max_swaps=10)
    psi_in = objective(X, fac, 1.0).total
    psi_out = objective(X, out, 1.0).total
    assert psi_out <= psi_in
    if n_swaps == 0:
        np.testing.assert_array_equal(out.H, fac.H)


def test_local_search_under_budget_uses_entering_only():
    rng = np.random.default_rng(13)
    X, *_ = synth_instance(8, 4, 2, 0.1, seed=13)
    fac = feasible_fac(rng, m=8, k=2, n=4, ell=3)
    cfg = SaaConfig(k=2, ell=6, lam=1.0)  # budget above current support
    out, n_swaps, log = local_search(X, fac, cfg, max_swaps=3)
    for swap in log:
        if nnz(fac.H) < cfg.ell:
            assert swap.leaving is None
        break


def row_stochastic(rng, rows, cols):
    M = rng.uniform(size=(rows, cols))
    return M / M.sum(axis=1, keepdims=True)


def reduced_lsq_cases():
    """(Y, B) pairs of both fits: W fits Y = X to B = H, Wt fits Y = H to
    B = X."""
    rng = np.random.default_rng(21)
    cases = {}
    for m, n, k in [(7, 5, 2), (12, 30, 4), (40, 300, 5)]:
        X, H = rng.uniform(size=(m, n)), rng.uniform(size=(k, n))
        cases[f"random-W-{m}x{n}x{k}"] = (X, H)
        cases[f"random-Wt-{m}x{n}x{k}"] = (H, X)
    X, H = rng.uniform(size=(9, 6)), np.tile(rng.uniform(size=(1, 6)), (3, 1))
    cases["duplicate-rows-W"] = (X, H)  # rank-1 H: R is singular
    cases["duplicate-rows-Wt"] = (H, X)
    H = rng.uniform(size=(3, 6))
    H[1] = 0.0
    cases["zero-row-W"] = (X, H)
    cases["zero-row-Wt"] = (H, X)
    X, H = rng.uniform(size=(8, 3)), rng.uniform(size=(5, 3))
    cases["n-below-k-W"] = (X, H)
    X, H = rng.uniform(size=(10, 4)), rng.uniform(size=(3, 4))
    cases["n-below-m-Wt"] = (H, X)
    return cases


@pytest.mark.parametrize("name", sorted(reduced_lsq_cases()))
def test_reduced_lsq_matches_residual_form(name):
    Y, B = reduced_lsq_cases()[name]
    f, grad = _reduced_lsq(Y, B)
    rng = np.random.default_rng(22)
    for _ in range(3):
        M = row_stochastic(rng, Y.shape[0], B.shape[0])
        R = Y - M @ B
        f_ref = float(np.sum(R * R))
        g_ref = -2.0 * R @ B.T
        assert abs(f(M) - f_ref) <= 1e-12 * f_ref
        assert np.linalg.norm(grad(M) - g_ref) <= 1e-12 * np.linalg.norm(g_ref)


@pytest.mark.parametrize("name", sorted(reduced_lsq_cases()))
def test_reduced_lsq_exact_fit_is_near_zero(name):
    # both terms are sums of squares: no cancellation as f goes to 0
    _, B = reduced_lsq_cases()[name]
    rng = np.random.default_rng(23)
    M = row_stochastic(rng, 6, B.shape[0])
    Y = M @ B
    f, _ = _reduced_lsq(Y, B)
    assert 0.0 <= f(M) <= 1e-20 * float(np.sum(Y * Y))


def swap_refit_case(name):
    """(X, fac, lam, leaving) of one proposal; the entering coordinate is
    ``select_entering``'s."""
    rng = np.random.default_rng(24)
    if name == "random":
        fac = feasible_fac(rng, m=6, k=2, n=4, ell=5)
        return rng.uniform(size=(6, 4)), fac, 0.7, select_leaving(fac.H)
    if name == "identical-rows":
        X, *_ = synth_instance(20, 10, 3, 0.1, seed=7)
        fac, _ = solve(X, None, SaaConfig(k=3, ell=15, lam=1.0, max_iter=500))
        assert len({tuple(row) for row in fac.H}) == 1
        return X, fac, 1.0, select_leaving(fac.H)
    X, *_ = synth_instance(12, 30, 4, 0.1, seed=3)  # under budget: nothing leaves
    return X, feasible_fac(rng, m=12, k=4, n=30, ell=40), 0.5, None


@pytest.mark.parametrize("name", ["random", "identical-rows", "under-budget"])
def test_swap_refit_matches_residual_form_oracle(name):
    X, fac, lam, leaving = swap_refit_case(name)
    entering = select_entering(X, fac, lam)
    stats = {}
    out, psi = swap_refit(X, fac, lam, leaving, entering, stats=stats)
    H, W, Wt, t_star, psi_ref, inner = swap_refit_oracle(X, fac, lam, leaving, entering)
    assert stats["inner_iterations"] == inner
    assert np.abs(out.W - W).max() <= 1e-9
    assert np.abs(out.Wt - Wt).max() <= 1e-9
    assert abs(out.H[entering] - t_star) <= 1e-9
    assert abs(psi - psi_ref) <= 1e-12 * psi_ref
    assert np.array_equal(out.H != 0.0, H != 0.0)


def test_local_search_accepts_the_oracle_swap_sequence(monkeypatch):
    X, *_ = synth_instance(23, 10, 3, 0.1, seed=0)
    cfg = SaaConfig(k=3, ell=15, lam=tuple(np.geomspace(30.0, 1.0, 4)),
                    max_iter=2_000, tol_stationary=1e-5)
    fac, _ = solve(X, None, cfg)
    _, n_swaps, log = local_search(X, fac, cfg)

    def oracle_refit(X, fac, lam, leaving, entering, stats=None):
        H, W, Wt, _, psi, _ = swap_refit_oracle(X, fac, lam, leaving, entering)
        return Factorization(H=H, W=W, Wt=Wt), psi

    ls_mod = importlib.import_module("sparse_aa.local_search")
    monkeypatch.setattr(ls_mod, "swap_refit", oracle_refit)
    _, n_ref, log_ref = local_search(X, fac, cfg)
    assert n_swaps == n_ref >= 3
    assert [(s.leaving, s.entering) for s in log] == [
        (s.leaving, s.entering) for s in log_ref
    ]
