import copy
import itertools
import math

import numpy as np
import pytest

from sparse_aa import (
    BranchAndBound,
    Cut,
    InvalidInputError,
    SaaConfig,
    continuation,
    eval_F,
    hull_distance,
    local_search,
    milp_min_cuts,
    nnz,
    norm_bound_b,
    objective,
    outer_approximation,
    solve,
    subgradient_F,
    synth_instance,
)
import sparse_aa.mip_init as mip_init
from sparse_aa.cli import zero_init
from sparse_aa.mip_init import CutSet
from oracles import branch_and_bound_oracle, milp_enum_oracle


def test_norm_bound_b_cases():
    assert norm_bound_b(np.eye(2), 2) == pytest.approx(2.0 * (1.0 + math.sqrt(2.0)) ** 2)
    X = np.array([[3.0, 4.0], [0.0, 0.0]])
    assert norm_bound_b(X, 3) == pytest.approx(3.0 * 25.0)
    rng = np.random.default_rng(0)
    Y = rng.uniform(size=(4, 3))
    assert norm_bound_b(2.5 * Y, 2) == pytest.approx(2.5**2 * norm_bound_b(Y, 2))


def test_eval_F_all_ones_is_zero():
    rng = np.random.default_rng(1)
    X = rng.uniform(size=(6, 4))
    b = norm_bound_b(X, 2)
    Z = np.ones((2, 4))
    val, H, Wt = eval_F(Z, X, b, ell=8)
    assert val <= 1e-10
    np.testing.assert_allclose(H, Wt @ X, atol=1e-5)


def test_eval_F_all_zeros_is_k_times_origin_distance():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(5, 3)) + 0.5
    b = norm_bound_b(X, 3)
    val, H, Wt = eval_F(np.zeros((3, 3)), X, b, ell=9, tol=1e-12)
    origin = hull_distance(np.zeros(3), X, tol=1e-12).sq_distance
    assert val == pytest.approx(3.0 * origin, rel=1e-5)
    assert np.all(H == 0.0)


def test_eval_F_rejects_bad_patterns():
    X = np.eye(3)
    b = norm_bound_b(X, 2)
    with pytest.raises(InvalidInputError):
        eval_F(np.full((2, 3), 2.0), X, b)  # entries above 1
    with pytest.raises(InvalidInputError):
        eval_F(np.ones((2, 3)), X, b, ell=3)  # budget exceeded
    # a start that is not k x m or not finite, and an X with no rows
    with pytest.raises(InvalidInputError):
        eval_F(np.ones((2, 3)), X, b, wt0=np.full((2, 4), 0.25))
    with pytest.raises(InvalidInputError):
        eval_F(np.ones((2, 3)), X, b, wt0=np.array([[np.nan, 0.5, 0.5], [1.0, 0.0, 0.0]]))
    with pytest.raises(InvalidInputError):
        eval_F(np.ones((2, 3)), np.zeros((0, 3)), b)


def test_eval_F_restart_invariance():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(5, 4))
    b = norm_bound_b(X, 2)
    Z = (rng.random((2, 4)) < 0.6).astype(float)
    ref, _, _ = eval_F(Z, X, b, tol=1e-12)
    for trial in range(5):
        rng2 = np.random.default_rng(trial)
        wt0 = rng2.uniform(size=(2, 5))
        wt0 /= wt0.sum(axis=1, keepdims=True)
        val, _, _ = eval_F(Z, X, b, tol=1e-12, wt0=wt0)
        assert val == pytest.approx(ref, rel=1e-6, abs=1e-10)


@pytest.mark.parametrize("case", ["binary", "relaxed", "zero column", "zero X"])
def test_eval_F_returns_the_clip_of_its_weights(case):
    # subgradient_F reads the residual Wt X - H as the part of Wt X cut off
    # by the box, so H must be exactly that clip and F its squared norm
    rng = np.random.default_rng(6)
    X = rng.uniform(size=(5, 4))
    Z = (rng.random((3, 4)) < 0.5).astype(float)
    if case == "relaxed":
        Z = rng.uniform(size=(3, 4))
    elif case == "zero column":
        X[:, 1] = 0.0
    elif case == "zero X":
        X[:] = 0.0
    b = norm_bound_b(X, 3)
    val, H, Wt = eval_F(Z, X, b, tol=1e-12)
    np.testing.assert_array_equal(H, np.clip(Wt @ X, 0.0, math.sqrt(b) * Z))
    assert val == pytest.approx(float(np.sum((Wt @ X - H) ** 2)), rel=1e-12, abs=1e-300)
    np.testing.assert_allclose(Wt.sum(axis=1), 1.0, rtol=1e-12)
    assert np.all(Wt >= 0.0)
    if case == "zero X":  # F is constant at 0, and the uniform start comes back
        assert val == 0.0
        np.testing.assert_allclose(Wt, 0.2, rtol=1e-15)


def test_subgradient_zero_at_exact_fit():
    rng = np.random.default_rng(4)
    X = rng.uniform(size=(5, 3))
    b = norm_bound_b(X, 2)
    val, H, Wt = eval_F(np.ones((2, 3)), X, b)
    G = subgradient_F(H, Wt, X, b)
    assert np.all(G <= 0.0)
    assert np.max(np.abs(G)) <= 1e-4


def test_subgradient_formula_at_zero_pattern():
    rng = np.random.default_rng(5)
    X = rng.uniform(size=(4, 3)) + 0.2
    b = norm_bound_b(X, 2)
    _, H, Wt = eval_F(np.zeros((2, 3)), X, b, tol=1e-13)
    G = subgradient_F(H, Wt, X, b)
    resid = Wt @ X - H
    expect = -math.sqrt(b) * np.where(resid > 0, 2 * resid, 0.0)
    np.testing.assert_allclose(G, expect, atol=1e-12)
    assert np.all(G <= 0.0)


@pytest.mark.parametrize("seed", range(20))
def test_cut_inequality_binary_pairs(seed):
    rng = np.random.default_rng(seed)
    m, k, n = 4, 2, 3
    X = rng.uniform(size=(m, n))
    b = norm_bound_b(X, k)
    ell = 4
    Z1 = np.zeros(k * n)
    Z1[rng.choice(k * n, size=rng.integers(0, ell + 1), replace=False)] = 1.0
    Z1 = Z1.reshape(k, n)
    Z2 = np.zeros(k * n)
    Z2[rng.choice(k * n, size=rng.integers(0, ell + 1), replace=False)] = 1.0
    Z2 = Z2.reshape(k, n)
    f1, H1, Wt1 = eval_F(Z1, X, b, ell, tol=1e-12)
    f2, _, _ = eval_F(Z2, X, b, ell, tol=1e-12)
    G1 = subgradient_F(H1, Wt1, X, b)
    assert f2 >= f1 + float(np.sum(G1 * (Z2 - Z1))) - 1e-6


def test_cut_inequality_relaxed_perturbation():
    rng = np.random.default_rng(77)
    X = rng.uniform(size=(4, 3))
    b = norm_bound_b(X, 2)
    ell = 4
    Z = np.zeros((2, 3))
    Z[0, 0] = 1.0
    f0, H, Wt = eval_F(Z, X, b, ell, tol=1e-13)
    G = subgradient_F(H, Wt, X, b)
    for delta in (0.25, 0.5, 1.0):
        Zp = Z.copy()
        Zp[1, 2] = delta  # relaxed coordinate in [0, 1]
        fp, _, _ = eval_F(Zp, X, b, ell, tol=1e-13)
        assert fp >= f0 + float(np.sum(G * (Zp - Z))) - 1e-6


def test_milp_single_cut_greedy():
    rng = np.random.default_rng(6)
    G = -rng.uniform(0.5, 2.0, size=(2, 4))
    Z0 = np.zeros((2, 4))
    cut = Cut(pattern=Z0, value=5.0, grad=G)
    Z, eta = milp_min_cuts([cut], 2, 4, 3)
    # optimum takes the three most negative gradient entries
    order = np.argsort(G.ravel())[:3]
    expect = np.zeros(8)
    expect[order] = 1.0
    np.testing.assert_array_equal(Z.ravel(), expect)
    assert eta == pytest.approx(5.0 + G.ravel()[order].sum())


def test_milp_constant_cuts_tie_break_to_zero():
    cuts = [
        Cut(pattern=np.zeros((2, 2)), value=3.0, grad=np.zeros((2, 2))),
        Cut(pattern=np.ones((2, 2)), value=1.0, grad=np.zeros((2, 2))),
    ]
    Z, eta = milp_min_cuts(cuts, 2, 2, 2)
    np.testing.assert_array_equal(Z, np.zeros((2, 2)))
    assert eta == pytest.approx(3.0)


@pytest.mark.parametrize("seed", range(30))
def test_milp_matches_enumeration(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 3))
    n = int(rng.integers(2, 9 - 4 * (k - 1)))
    ell = int(rng.integers(1, k * n + 1))
    n_cuts = int(rng.integers(1, 6))
    cuts = []
    for _ in range(n_cuts):
        Zi = (rng.random((k, n)) < 0.4).astype(float)
        G = -(rng.random((k, n)) * 3.0) * (rng.random((k, n)) < 0.7)
        cuts.append(Cut(pattern=Zi, value=float(rng.random() * 4.0), grad=G))
    Z, eta = milp_min_cuts(cuts, k, n, ell)
    want, _ = milp_enum_oracle(
        [c.offset for c in cuts], [c.grad for c in cuts], k * n, ell
    )
    achieved = max(c.offset + float(np.sum(c.grad * Z)) for c in cuts)
    assert eta == pytest.approx(want, abs=1e-9)
    assert achieved == pytest.approx(want, abs=1e-9)


def test_milp_node_cap_gives_valid_bound():
    rng = np.random.default_rng(123)
    k, n, ell = 2, 8, 8
    cuts = []
    for _ in range(6):
        G = -rng.uniform(0.1, 3.0, size=(k, n))
        cuts.append(Cut(pattern=np.zeros((k, n)), value=float(rng.uniform(1, 5)), grad=G))
    Z_opt, eta_opt = milp_min_cuts(cuts, k, n, ell)
    backend = BranchAndBound(node_cap=5)
    Z_cap, eta_cap = milp_min_cuts(cuts, k, n, ell, backend=backend)
    assert eta_cap <= eta_opt + 1e-12
    achieved = max(c.offset + float(np.sum(c.grad * Z_cap)) for c in cuts)
    assert achieved >= eta_opt - 1e-9  # incumbent is feasible, so above optimum


def random_master(seed):
    """A random cut master: 1-8 cuts with ties, zero-impact columns and
    budgets from 1 to past k*n."""
    rng = np.random.default_rng(seed)
    k, n = int(rng.integers(1, 4)), int(rng.integers(1, 7))
    n_cuts = int(rng.integers(1, 9))
    G = -rng.exponential(size=(n_cuts, k * n)) * (rng.random((n_cuts, k * n)) < 0.7)
    if seed % 2:
        G = np.round(G, 1)  # ties in gradients and summed gradients
    G[:, rng.random(k * n) < 0.2] = 0.0  # zero-impact columns
    offsets = rng.uniform(0.0, 3.0, size=n_cuts)
    ell = [1, max(1, k * n // 2), k * n, k * n + 3][seed % 4]
    return offsets, G, (k, n), ell


@pytest.mark.parametrize("node_cap", [None, 50, 3])
@pytest.mark.parametrize("seed", range(40))
def test_branch_and_bound_matches_oracle_bits(seed, node_cap):
    offsets, G, shape, ell = random_master(seed)
    sol = BranchAndBound(node_cap).minimize_cuts(offsets, G, shape, ell)
    Z, eta, optimal, nodes = branch_and_bound_oracle(offsets, G, shape, ell, node_cap)
    assert sol.Z.tobytes() == Z.tobytes()
    assert (sol.eta, sol.optimal, sol.nodes) == (eta, optimal, nodes)


def wide_master(n_cuts, seed):
    """A cut master at the benchmark's wide shape (k=5, n=300, ell=750).

    Two cuts have disjoint negative supports that cover all 1,500 entries,
    as in the wide fit's capped master, and compete for the max.  One and
    three cuts draw their supports at random; with three, the first cut
    dominates, so the search closes under the cap and ``eta`` is a leaf
    value summed left to right."""
    rng = np.random.default_rng(seed)
    k, n, ell = 5, 300, 750
    G = -rng.exponential(size=(n_cuts, k * n))
    if n_cuts == 2:
        mask = np.zeros(k * n, dtype=bool)
        mask[rng.permutation(k * n)[:723]] = True
        G[0, ~mask] = 0.0
        G[1, mask] = 0.0
    else:
        G *= rng.random((n_cuts, k * n)) < 0.6
    scale = [0.9, 0.3, 0.3] if n_cuts == 3 else rng.uniform(0.5, 0.7, size=n_cuts)
    offsets = -G.sum(axis=1) * scale
    return offsets, G, (k, n), ell


@pytest.mark.parametrize("node_cap", [50, 300])
@pytest.mark.parametrize("n_cuts", [1, 2, 3])
def test_branch_and_bound_matches_oracle_bits_at_wide_shape(n_cuts, node_cap):
    # large free sets run the bound's partition path, and one cut sums
    # pairwise where several sum left to right per cut
    offsets, G, shape, ell = wide_master(n_cuts, seed=n_cuts)
    sol = BranchAndBound(node_cap).minimize_cuts(offsets, G, shape, ell)
    Z, eta, optimal, nodes = branch_and_bound_oracle(offsets, G, shape, ell, node_cap)
    assert sol.Z.tobytes() == Z.tobytes()
    assert (sol.eta, sol.optimal, sol.nodes) == (eta, optimal, nodes)
    assert np.float64(sol.eta).tobytes() == np.float64(eta).tobytes()


@pytest.mark.parametrize(
    "offsets, grads",
    [
        ([math.nan], [[-1.0, -2.0]]),
        ([math.inf], [[-1.0, -2.0]]),
        ([1.0], [[math.nan, -2.0]]),
        ([1.0], [[-math.inf, -2.0]]),
    ],
    ids=["nan-offset", "inf-offset", "nan-grad", "neg-inf-grad"],
)
def test_branch_and_bound_rejects_non_finite_cuts(offsets, grads):
    with pytest.raises(InvalidInputError, match="finite"):
        BranchAndBound().minimize_cuts(offsets, grads, (1, 2), 1)


def test_milp_requires_cuts():
    with pytest.raises(InvalidInputError):
        milp_min_cuts([], 2, 2, 2)


def test_outer_approximation_zero_value_terminates_immediately():
    # nonnegative data whose thresholded uniform image already fits exactly:
    # any pattern covering the support of Wt0 X gives F = 0
    X = np.array([[1.0, 0.0], [1.0, 0.0], [2.0, 0.0]])
    cfg = SaaConfig(k=2, ell=2, lam=1.0)
    res = outer_approximation(X, cfg)
    assert res.converged
    assert res.rounds == 1
    assert res.cutset.best_upper <= 1e-9
    assert res.cutset.gap == pytest.approx(0.0, abs=1e-9)


@pytest.mark.parametrize("seed", range(6))
def test_outer_approximation_matches_exhaustive(seed):
    rng = np.random.default_rng(seed)
    X = rng.uniform(size=(5, 3)) + 0.1
    cfg = SaaConfig(k=2, ell=3, lam=1.0)
    res = outer_approximation(X, cfg, max_rounds=100)
    assert res.converged
    b = norm_bound_b(X, 2)
    best = math.inf
    for count in range(0, 4):
        for comb in itertools.combinations(range(6), count):
            z = np.zeros(6)
            z[list(comb)] = 1.0
            v, _, _ = eval_F(z.reshape(2, 3), X, b, 3)
            best = min(best, v)
    assert res.cutset.best_upper == pytest.approx(best, rel=1e-5, abs=1e-8)
    # the incumbent bounds bracket the exhaustive optimum
    assert res.cutset.best_lower <= best + 1e-8
    assert res.cutset.best_upper >= best - 1e-8


def test_outer_approximation_bounds_monotone():
    X, *_ = synth_instance(10, 5, 2, 0.1, seed=13)
    cfg = SaaConfig(k=2, ell=5, lam=1.0)
    lowers = []
    uppers = []

    class RecordingBackend(BranchAndBound):
        def minimize_cuts(self, offsets, grads, shape, ell):
            sol = super().minimize_cuts(offsets, grads, shape, ell)
            lowers.append(sol.eta)
            return sol

    res = outer_approximation(X, cfg, max_rounds=12, backend=RecordingBackend())
    cs = res.cutset
    assert cs.best_lower <= cs.best_upper + 1e-12
    assert cs.best_lower >= 0.0
    # recorded gap history non-increasing in the lower bound dimension
    assert all(b2 >= b1 - 1e-9 for b1, b2 in zip(lowers, lowers[1:])) or len(lowers) < 2


@pytest.mark.parametrize("seed", range(8))
def test_eval_F_matches_slsqp(seed):
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(seed)
    m, k, n = 4, 2, 3
    X = rng.uniform(size=(m, n))
    b = norm_bound_b(X, k)
    Z = (rng.random((k, n)) < 0.5).astype(float)
    val, H, Wt = eval_F(Z, X, b, ell=int(Z.sum()), tol=1e-13, max_iter=50_000)

    # the same QP over v = [vec(H), vec(Wt)]: box bounds on H, Wt >= 0 with
    # unit row sums
    def split(v):
        return v[: k * n].reshape(k, n), v[k * n :].reshape(k, m)

    def f(v):
        Hv, Wv = split(v)
        r = Hv - Wv @ X
        return float(np.sum(r * r)), np.concatenate([2.0 * r.ravel(), (-2.0 * r @ X.T).ravel()])

    bounds = [(0.0, math.sqrt(b) * z) for z in Z.ravel()] + [(0.0, None)] * (k * m)
    rows = np.kron(np.eye(k), np.ones(m))
    sums = {"type": "eq", "fun": lambda v: rows @ v[k * n :] - 1.0,
            "jac": lambda v: np.hstack([np.zeros((k, k * n)), rows])}
    v0 = np.concatenate([np.zeros(k * n), np.full(k * m, 1.0 / m)])
    res = optimize.minimize(f, v0, jac=True, method="SLSQP", bounds=bounds,
                            constraints=[sums], options={"ftol": 1e-15, "maxiter": 1_000})
    assert res.success
    assert val == pytest.approx(res.fun, rel=1e-6, abs=1e-8)


def test_cut_validity_across_oa_run():
    X, *_ = synth_instance(8, 4, 2, 0.2, seed=21)
    cfg = SaaConfig(k=2, ell=4, lam=1.0)
    res = outer_approximation(X, cfg, max_rounds=10)
    cuts = res.cutset.cuts
    b = norm_bound_b(X, 2)
    for ci in cuts:
        for cj in cuts:
            # F(Z_j) >= F(Z_i) + <G_i, Z_j - Z_i>
            lhs = cj.value
            rhs = ci.value + float(np.sum(ci.grad * (cj.pattern - ci.pattern)))
            assert lhs >= rhs - 1e-6


def test_continuation_schedule_length_one_equals_mip_plus_solve():
    X, *_ = synth_instance(10, 6, 2, 0.1, seed=31)
    cfg1 = SaaConfig(k=2, ell=6, lam=1.0, max_iter=2_000, tol_stationary=1e-5)
    oa = outer_approximation(X, cfg1, max_rounds=5)
    fac_a, _ = continuation(X, cfg1, oa=oa)

    from sparse_aa import Factorization
    from sparse_aa.solver import step_W

    W = np.full((10, 2), 0.5)
    seeded = Factorization(H=oa.H.copy(), W=W, Wt=oa.Wt.copy())
    seeded.W, _ = step_W(X, seeded.H, seeded.W)
    fac_b, _ = solve(X, seeded, cfg1, lam=1.0)
    np.testing.assert_array_equal(fac_a.H, fac_b.H)
    np.testing.assert_array_equal(fac_a.W, fac_b.W)


def test_continuation_default_schedule_beats_zero_init_majority():
    wins = 0
    trials = 6
    for seed in range(trials):
        X, *_ = synth_instance(15, 8, 3, 0.1, seed=seed)
        sched = tuple(np.geomspace(30.0, 1.0, 8))
        cfg = SaaConfig(
            k=3, ell=12, lam=sched, max_iter=1_500, tol_stationary=1e-4
        )
        fac_saa, _ = continuation(X, cfg, oa=outer_approximation(X, cfg, max_rounds=4))
        psi_saa = objective(X, fac_saa, 1.0).total

        cfg_zero = SaaConfig(
            k=3, ell=12, lam=1.0, max_iter=1_500, tol_stationary=1e-4
        )
        fac_zero, _ = solve(X, zero_init(X, cfg_zero), cfg_zero)
        psi_zero = objective(X, fac_zero, 1.0).total
        if psi_saa <= psi_zero + 1e-9:
            wins += 1
    assert wins >= (trials + 1) // 2


def test_continuation_output_feasible():
    X, *_ = synth_instance(12, 6, 2, 0.15, seed=40)
    sched = tuple(np.geomspace(30.0, 1.0, 4))
    cfg = SaaConfig(k=2, ell=6, lam=sched, max_iter=1_000, tol_stationary=1e-4)
    fac, traces = continuation(X, cfg, oa=outer_approximation(X, cfg, max_rounds=3))
    fac.validate(cfg.ell)
    assert len(traces) == 4
    assert nnz(fac.H) <= cfg.ell


@pytest.mark.parametrize(
    "lam, tols, expected",
    [
        # tighter than the floors: the warm starts loosen, the last λ does not
        ((30.0, 10.0, 3.0, 1.0), (1e-11, 1e-7), [(1e-8, 1e-4)] * 3 + [(1e-11, 1e-7)]),
        # looser than the floors: every λ keeps the config's tolerances
        ((30.0, 10.0, 3.0, 1.0), (1e-6, 1e-3), [(1e-6, 1e-3)] * 4),
        # one λ is the last one
        (1.0, (1e-11, 1e-7), [(1e-11, 1e-7)]),
    ],
)
def test_continuation_warm_starts_stop_at_tolerance_floors(monkeypatch, lam, tols, expected):
    calls = []
    real_solve = mip_init.solve

    def recording_solve(X, init, cfg, lam=None):
        calls.append((lam, cfg.tol_objective, cfg.tol_stationary))
        return real_solve(X, init, cfg, lam=lam)

    monkeypatch.setattr(mip_init, "solve", recording_solve)
    X, *_ = synth_instance(10, 6, 2, 0.1, seed=31)
    cfg = SaaConfig(
        k=2, ell=6, lam=lam, tol_objective=tols[0], tol_stationary=tols[1], max_iter=50
    )
    before = copy.copy(cfg)
    continuation(X, cfg, oa=outer_approximation(X, cfg, max_rounds=1))
    assert [c[0] for c in calls] == list(cfg.lambda_schedule)
    assert [c[1:] for c in calls] == expected
    assert cfg == before


def test_default_init_seeds_oa_pattern_oa_wt_and_continuation_w(monkeypatch):
    # a row-asymmetric start with non-uniform weights: OA's first evaluation
    # must get its pattern and its Wt, and continuation's first solve
    # W = step_W(X, oa.H, start.W)
    from sparse_aa import Factorization
    from sparse_aa.solver import step_W

    X, *_ = synth_instance(10, 6, 2, 0.1, seed=31)
    cfg = SaaConfig(k=2, ell=6, lam=(3.0, 1.0), max_iter=50)
    rng = np.random.default_rng(5)
    W = rng.uniform(size=(10, 2))
    Wt = rng.uniform(size=(2, 10))
    H = np.zeros((2, 6))
    H[0, :4], H[1, 3:5] = 1.0, 2.0
    start = Factorization(
        H=H, W=W / W.sum(axis=1, keepdims=True), Wt=Wt / Wt.sum(axis=1, keepdims=True)
    )
    monkeypatch.setattr(mip_init, "default_init", lambda X, cfg: start.copy())
    evals, inits = [], []
    real_eval_F, real_solve = mip_init.eval_F, mip_init.solve

    def recording_eval_F(Z, X, b, ell, wt0=None):
        evals.append((np.array(Z), wt0))
        return real_eval_F(Z, X, b, ell, wt0=wt0)

    def recording_solve(X, init, cfg, lam=None):
        inits.append(init.copy())
        return real_solve(X, init, cfg, lam=lam)

    monkeypatch.setattr(mip_init, "eval_F", recording_eval_F)
    monkeypatch.setattr(mip_init, "solve", recording_solve)
    oa = outer_approximation(X, cfg, max_rounds=2)
    Z0, wt0 = evals[0]
    np.testing.assert_array_equal(Z0, (H > 0.0).astype(np.float64))
    np.testing.assert_array_equal(wt0, start.Wt)
    continuation(X, cfg, oa=oa)
    np.testing.assert_array_equal(inits[0].W, step_W(X, oa.H, start.W)[0])
    np.testing.assert_array_equal(inits[0].H, oa.H)
    np.testing.assert_array_equal(inits[0].Wt, oa.Wt)


@pytest.mark.parametrize("seed", [2, 5])
def test_wide_fit_does_not_depend_on_row_order(seed):
    # the wide benchmark's pipeline (OA 3 rounds at the default node cap,
    # continuation, local search) on six orders of the same rows: F, Psi and
    # the start do not depend on the order, so the final Psi agrees
    X, *_ = synth_instance(40, 300, 5, 0.1, seed=seed)
    cfg = SaaConfig(k=5, ell=750, lam=tuple(np.geomspace(30.0, 1.0, 8)))
    psis = []
    for p in range(6):
        Xp = X if p == 0 else X[np.random.default_rng(p).permutation(40)]
        oa = outer_approximation(Xp, cfg, max_rounds=3, backend=BranchAndBound(node_cap=4_000))
        fac = local_search(Xp, continuation(Xp, cfg, oa=oa)[0], cfg)[0]
        psis.append(objective(Xp, fac, cfg.final_lambda).total)
    assert max(psis) - min(psis) <= 1e-6 * min(psis)


class CountingBackend(BranchAndBound):
    """Exact or capped master that records each solution's pattern and bound."""

    def __init__(self, node_cap=None):
        super().__init__(node_cap)
        self.solutions = []

    def minimize_cuts(self, offsets, grads, shape, ell):
        sol = super().minimize_cuts(offsets, grads, shape, ell)
        self.solutions.append((sol.Z.copy(), sol.eta))
        return sol


def oa_exit_instance():
    X = np.random.default_rng(0).uniform(size=(5, 3)) + 0.1
    return X, SaaConfig(k=2, ell=3, lam=1.0)


def late_lift_instance():
    # the ninth master is the first whose eta lifts the bound
    X = np.random.default_rng(17).uniform(size=(4, 3))
    return X, SaaConfig(k=2, ell=2, lam=1.0)


def test_oa_exit_gap_closed_after_master():
    X, cfg = oa_exit_instance()
    backend = CountingBackend()
    res = outer_approximation(X, cfg, max_rounds=100, backend=backend)
    cs = res.cutset
    assert res.converged
    assert res.rounds == len(cs.cuts) == len(backend.solutions) == 20
    # the last master raised the bound onto the incumbent
    assert backend.solutions[-1][1] >= cs.best_upper == cs.best_lower
    assert cs.best_upper - cs.best_lower <= 1e-6 * cs.best_upper


def test_cutset_gap_is_a_certificate_or_none():
    cs = CutSet(best_upper=2.0)
    assert cs.gap is None  # the trivial lower bound 0 certifies nothing
    cs.best_lower = 0.5
    assert cs.gap == 0.75
    assert CutSet(best_upper=0.0).gap == 0.0  # F >= 0 certifies F = 0


def test_oa_exit_repeated_pattern():
    # a one-node master cannot certify, so it proposes a pattern already cut
    X, *_ = synth_instance(10, 5, 2, 0.1, seed=13)
    cfg = SaaConfig(k=2, ell=5, lam=1.0)
    backend = CountingBackend(node_cap=1)
    res = outer_approximation(X, cfg, max_rounds=30, backend=backend)
    cs = res.cutset
    assert res.converged
    assert res.rounds == len(cs.cuts) == len(backend.solutions) == 11
    # its one-node masters leave the bound at 0: no gap is certified
    assert cs.best_lower == 0.0 and cs.gap is None
    last_Z = backend.solutions[-1][0]
    assert any(np.array_equal(c.pattern, last_Z) for c in cs.cuts)


def test_oa_exit_max_rounds_keeps_last_master_bound():
    X, cfg = late_lift_instance()
    backend = CountingBackend()
    res = outer_approximation(X, cfg, max_rounds=10, backend=backend)
    cs = res.cutset
    assert not res.converged
    assert res.rounds == len(cs.cuts) == 10
    assert len(backend.solutions) == 9
    etas = [eta for _, eta in backend.solutions]
    assert max(etas[:-1]) <= 0.0 < etas[-1] < cs.best_upper
    # the master's eta counts towards the reported bound
    assert cs.best_lower == etas[-1]


def test_branch_and_bound_rejects_negative_node_cap():
    with pytest.raises(InvalidInputError, match="node_cap"):
        BranchAndBound(node_cap=-1)
    assert BranchAndBound(node_cap=0).node_cap == 0


@pytest.mark.parametrize("max_rounds", [0, -1])
def test_oa_rejects_max_rounds_below_one(max_rounds):
    X, cfg = oa_exit_instance()
    with pytest.raises(InvalidInputError, match="max_rounds"):
        outer_approximation(X, cfg, max_rounds=max_rounds)


def test_oa_last_round_ends_on_its_evaluation():
    # the ninth master would lift the bound, but the round that max_rounds
    # ends runs no master
    X, cfg = late_lift_instance()
    backend = CountingBackend()
    res = outer_approximation(X, cfg, max_rounds=9, backend=backend)
    assert not res.converged
    assert res.rounds == len(res.cutset.cuts) == 9
    assert len(backend.solutions) == 8
    assert res.cutset.best_lower == 0.0
    X, cfg = oa_exit_instance()
    for max_rounds in (1, 2, 3):
        backend = CountingBackend()
        res = outer_approximation(X, cfg, max_rounds=max_rounds, backend=backend)
        assert not res.converged
        assert res.rounds == len(res.cutset.cuts) == max_rounds
        assert len(backend.solutions) == res.rounds - 1
