"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria complete.  The two sweep criteria (trend reproduction, ablation
ordering) dominate the runtime.
"""

import itertools
import math
import time

import numpy as np
import pytest

from sparse_aa import (
    BranchAndBound,
    Cut,
    Factorization,
    SaaConfig,
    archetype_distance,
    archetype_spread,
    appendixB_fixture,
    cluster_metrics,
    continuation,
    eval_F,
    example1_fixture,
    hull_distance,
    local_search,
    milp_min_cuts,
    nnz,
    norm_bound_b,
    objective,
    outer_approximation,
    project_simplex_rows,
    robustness_report,
    select_entering,
    set_hull_distance,
    solve,
    stationarity_residual,
    subgradient_F,
    synth_instance,
)
from sparse_aa.cli import zero_init
from sparse_aa.geometry import hull_distance_rows
from sparse_aa.solver import grad_H, grad_W, grad_Wt
from oracles import (
    central_diff_grad,
    hull_qp_oracle,
    milp_enum_oracle,
    purity_entropy_oracle,
    simplex_qp_oracle,
)


def report(name: str, ok: bool, detail: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


# ---------------------------------------------------------------- 1 and 2


@pytest.fixture(scope="module")
def descent_runs():
    """50 solves shared by the monotone-descent and stationarity criteria."""
    runs = []
    started = time.monotonic()
    for seed in range(50):
        X, *_ = synth_instance(20, 10, 3, 0.1, seed=seed)
        cfg = SaaConfig(
            k=3, ell=15, lam=1.0, tol_stationary=9e-7, max_iter=30_000
        )
        fac, trace = solve(X, None, cfg)
        runs.append((X, cfg, fac, trace))
    return runs, time.monotonic() - started


def test_criterion_1_monotone_descent(descent_runs):
    runs, elapsed = descent_runs
    worst = 0.0
    for _, _, _, trace in runs:
        obj = np.asarray(trace.objectives)
        rel_increase = np.diff(obj) / np.maximum(obj[:-1], 1e-30)
        worst = max(worst, float(rel_increase.max(initial=-np.inf)))
    ok = worst <= 1e-9
    report(
        "criterion-1 monotone-descent",
        ok,
        f"50 instances, worst relative increase {worst:.3e} (tol 1e-9), "
        f"{elapsed:.0f}s",
    )


def test_criterion_2_stationarity(descent_runs):
    runs, _ = descent_runs
    residuals = []
    ties = 0
    all_converged = True
    for X, cfg, fac, trace in runs:
        all_converged &= trace.converged
        rep = stationarity_residual(X, fac, cfg)
        residuals.append(rep.residual)
        ties += rep.boundary_tie
    worst = max(residuals)
    ok = all_converged and worst < 1e-6
    report(
        "criterion-2 stationarity",
        ok,
        f"all converged: {all_converged}, worst residual {worst:.3e} "
        f"(tol 1e-6), boundary ties reported: {ties}/50",
    )


# --------------------------------------------------------------------- 3


def test_criterion_3_gradient_correctness():
    worst = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        m, k, n = 5, 3, 4
        X = rng.uniform(size=(m, n)) * 2.0
        H = rng.uniform(size=(k, n))
        H.ravel()[rng.choice(k * n, size=4, replace=False)] = 0.0
        W = rng.uniform(size=(m, k))
        W /= W.sum(axis=1, keepdims=True)
        Wt = rng.uniform(size=(k, m))
        Wt /= Wt.sum(axis=1, keepdims=True)
        fac = Factorization(H=H, W=W, Wt=Wt)
        lam = float(rng.uniform(0.3, 2.0))

        def psi(Hv, Wv, Wtv):
            return float(
                np.linalg.norm(X - Wv @ Hv) ** 2
                + lam * np.linalg.norm(Hv - Wtv @ X) ** 2
            )

        pairs = [
            (grad_H(X, fac, lam), central_diff_grad(lambda A: psi(A, W, Wt), H)),
            (grad_W(X, fac), central_diff_grad(lambda A: psi(H, A, Wt), W)),
            (grad_Wt(X, fac, lam), central_diff_grad(lambda A: psi(H, W, A), Wt)),
        ]
        for got, want in pairs:
            worst = max(
                worst, float(np.linalg.norm(got - want) / np.linalg.norm(want))
            )
        # per-coordinate gradients behind the entering-coordinate rule
        g = grad_H(X, fac, lam)
        fd = central_diff_grad(lambda A: psi(A, W, Wt), H)
        off = fac.H == 0.0
        per_coord = np.abs(g[off] - fd[off]) / np.maximum(np.abs(fd[off]), 1.0)
        worst = max(worst, float(per_coord.max()))
        coord = select_entering(X, fac, lam)
        assert fd[coord] == fd[off].min()  # the rule ranks like the oracle
    ok = worst <= 1e-5
    report(
        "criterion-3 gradient-correctness",
        ok,
        f"20 instances, worst relative error {worst:.3e} (tol 1e-5)",
    )


# --------------------------------------------------------------------- 4


def test_criterion_4_geometry_oracles():
    worst_hull = 0.0
    for seed in range(200):
        rng = np.random.default_rng(seed)
        m = int(rng.integers(1, 7))
        n = int(rng.integers(1, 5))
        X = rng.normal(scale=2.0, size=(m, n))
        x = rng.normal(scale=2.0, size=n)
        got = hull_distance(x, X).sq_distance
        want = hull_qp_oracle(x, X)
        worst_hull = max(worst_hull, abs(got - want))
    worst_simplex = 0.0
    for seed in range(200):
        rng = np.random.default_rng(1_000 + seed)
        d = int(rng.integers(1, 9))
        y = rng.normal(scale=2.0, size=d)
        got = project_simplex_rows(y[None, :])[0]
        want = simplex_qp_oracle(y)
        worst_simplex = max(worst_simplex, float(np.max(np.abs(got - want))))
    ok = worst_hull <= 1e-6 and worst_simplex <= 1e-9
    report(
        "criterion-4 geometry-oracles",
        ok,
        f"hull distance worst |err| {worst_hull:.3e} (tol 1e-6, 200 runs), "
        f"simplex projection worst |err| {worst_simplex:.3e} (tol 1e-9)",
    )


# --------------------------------------------------------------------- 5


def test_criterion_5_mip_oracles():
    started = time.monotonic()
    worst_gap = 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 3))
        n = int(rng.integers(2, 9 if k == 1 else 9 - (k - 1) * 1))
        n = max(2, min(n, 16 // k))
        ell = int(rng.integers(1, k * n + 1))
        cuts = []
        for _ in range(int(rng.integers(1, 6))):
            Zi = (rng.random((k, n)) < 0.4).astype(float)
            G = -(rng.random((k, n)) * 3.0) * (rng.random((k, n)) < 0.7)
            cuts.append(Cut(pattern=Zi, value=float(rng.random() * 4.0), grad=G))
        Z, eta = milp_min_cuts(cuts, k, n, ell)
        want, _ = milp_enum_oracle(
            [c.offset for c in cuts], [c.grad for c in cuts], k * n, ell
        )
        achieved = max(c.offset + float(np.sum(c.grad * Z)) for c in cuts)
        worst_gap = max(worst_gap, abs(eta - want), abs(achieved - want))
    milp_ok = worst_gap <= 1e-9

    lowers_monotone = True
    incumbent_exact = True
    worst_inc = 0.0
    for seed in range(20):
        rng = np.random.default_rng(10_000 + seed)
        X = rng.uniform(size=(5, 3)) + 0.05
        cfg = SaaConfig(k=2, ell=3, lam=1.0)
        lowers = []

        class Recording(BranchAndBound):
            def minimize_cuts(self, offsets, grads, shape, ell):
                sol = super().minimize_cuts(offsets, grads, shape, ell)
                lowers.append(sol.eta)
                return sol

        res = outer_approximation(X, cfg, max_rounds=100, backend=Recording())
        b = norm_bound_b(X, 2)
        best = math.inf
        for count in range(0, 4):
            for comb in itertools.combinations(range(6), count):
                z = np.zeros(6)
                z[list(comb)] = 1.0
                v, _, _ = eval_F(z.reshape(2, 3), X, b, 3)
                best = min(best, v)
        gap = abs(res.cutset.best_upper - best)
        worst_inc = max(worst_inc, gap)
        incumbent_exact &= gap <= max(1e-6 * best, 1e-8)
        clamped = [min(lo, res.cutset.best_upper) for lo in lowers]
        lowers_monotone &= all(b2 >= b1 - 1e-9 for b1, b2 in zip(clamped, clamped[1:]))
    elapsed = time.monotonic() - started
    ok = milp_ok and incumbent_exact and lowers_monotone
    report(
        "criterion-5 mip-oracles",
        ok,
        f"master vs enumeration worst |err| {worst_gap:.3e} (100 systems), "
        f"incumbent vs exhaustive worst |err| {worst_inc:.3e} (20 instances), "
        f"lower bounds monotone: {lowers_monotone}, {elapsed:.0f}s (< 300s: "
        f"{elapsed < 300})",
    )
    assert elapsed < 300


# --------------------------------------------------------------------- 6


def test_criterion_6_subgradient_validity():
    worst = -math.inf
    pairs = 0
    for inst in range(25):
        rng = np.random.default_rng(inst)
        m, k, n = 4, 2, 3
        ell = 4
        X = rng.uniform(size=(m, n))
        b = norm_bound_b(X, k)
        Z1 = np.zeros(k * n)
        Z1[rng.choice(k * n, size=int(rng.integers(0, ell + 1)), replace=False)] = 1.0
        Z1 = Z1.reshape(k, n)
        f1, H1, Wt1 = eval_F(Z1, X, b, ell, tol=1e-12)
        G1 = subgradient_F(H1, Wt1, X, b)
        for _ in range(20):
            Z2 = np.zeros(k * n)
            Z2[
                rng.choice(k * n, size=int(rng.integers(0, ell + 1)), replace=False)
            ] = 1.0
            Z2 = Z2.reshape(k, n)
            f2, _, _ = eval_F(Z2, X, b, ell, tol=1e-12)
            violation = f1 + float(np.sum(G1 * (Z2 - Z1))) - f2
            worst = max(worst, violation)
            pairs += 1
    ok = worst <= 1e-6
    report(
        "criterion-6 subgradient-validity",
        ok,
        f"{pairs} (Z, Z') pairs, worst cut violation {worst:.3e} (tol 1e-6)",
    )


# --------------------------------------------------------------------- 7


def _separable_sparse_instance(seed, m_mix=20, k=3, n=10, sigma_z=5e-5, zero_frac=0.4):
    rng = np.random.default_rng(seed)
    H0 = rng.uniform(size=(k, n))
    nz = int(math.ceil(zero_frac * k * n))
    H0.ravel()[rng.choice(k * n, size=nz, replace=False)] = 0.0
    W0 = rng.uniform(size=(m_mix, k))
    W0 /= W0.sum(axis=1, keepdims=True)
    X0 = np.vstack([W0 @ H0, H0])
    Z = rng.normal(0, sigma_z, size=X0.shape)
    X = np.maximum(X0 + Z, 0.0)
    return X, X0, H0, Z


def test_criterion_7_robustness_inequalities():
    started = time.monotonic()
    weak_via_strong_ok = True
    for seed in range(1_000):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 5))
        n = int(rng.integers(1, 5))
        H0 = rng.uniform(size=(k, n)) * rng.uniform(0.5, 3.0)
        H = rng.uniform(size=(k, n)) * rng.uniform(0.5, 3.0)
        lhs = archetype_distance(H0, H)
        rhs = 2 * k * archetype_spread(H0) ** 2 + 2 * archetype_distance(H, H0)
        weak_via_strong_ok &= lhs <= rhs + 1e-9 * max(1.0, rhs)

    x0_fit_ok = True
    for seed in range(1_000):
        rng = np.random.default_rng(50_000 + seed)
        m, k, n = 6, 3, 4
        H0 = rng.uniform(size=(k, n))
        W0 = rng.uniform(size=(m, k))
        W0 /= W0.sum(axis=1, keepdims=True)
        X0 = W0 @ H0
        H = rng.uniform(size=(k, n)) * rng.uniform(0.5, 2.0)
        lhs = math.sqrt(set_hull_distance(X0, H, tol=1e-11))
        rhs = math.sqrt(m) * min(
            math.sqrt(archetype_distance(H0, H)),
            k * float(np.linalg.norm(H0)) + math.sqrt(archetype_distance(H, H0)),
        )
        x0_fit_ok &= lhs <= rhs + 1e-8 * max(1.0, rhs)

    # Corollary bounds on separable ell-sparse instances solved to tolerance:
    # feasibility within 1e-4 on the per-point constraint and within 1e-7 on
    # the objective against the feasible reference P_ell(H0) = H0.
    cor_checked = 0
    cor_ok = True
    seed = 0
    while cor_checked < 20 and seed < 60:
        X, X0, H0, Z = _separable_sparse_instance(seed)
        seed += 1
        k, n = H0.shape
        ell = nnz(H0)
        sched = tuple(np.geomspace(30.0, 0.25, 8))
        cfg = SaaConfig(
            k=k, ell=ell, lam=sched, max_iter=6_000,
            tol_stationary=1e-7, tol_objective=1e-11,
        )
        fac, _ = continuation(X, cfg, oa=outer_approximation(X, cfg, max_rounds=8))
        fac, _, _ = local_search(X, fac, cfg, max_swaps=12)
        rep = robustness_report(H0, fac.H, X0, Z, ell)
        feas_gap = math.sqrt(hull_distance_rows(X, fac.H, tol=1e-12).max()) - rep.delta
        opt_gap = set_hull_distance(fac.H, X, tol=1e-12) - set_hull_distance(
            H0, X, tol=1e-12
        )
        if feas_gap > 1e-4 or opt_gap > 1e-7:
            continue  # not solved to tolerance: the bounds make no claim
        cor_checked += 1
        cor_ok &= bool(rep.sep_weak_holds)
        cor_ok &= bool(rep.sep_condition_holds)
        cor_ok &= bool(rep.sep_strong_holds)
    elapsed = time.monotonic() - started
    ok = weak_via_strong_ok and x0_fit_ok and cor_ok and cor_checked == 20
    report(
        "criterion-7 robustness-inequalities",
        ok,
        f"weak-via-strong bound on 1000 pairs: {weak_via_strong_ok}, noiseless-fit "
        f"bound on 1000 instances: {x0_fit_ok}, separable weak+strong bounds "
        f"on {cor_checked}/20 solved instances: {cor_ok}, {elapsed:.0f}s",
    )


# --------------------------------------------------------------------- 8


def test_criterion_8_fixture_facts():
    H0, H1, H2, make_x0 = appendixB_fixture()
    X0 = make_x0(seed=0)
    facts = {
        "D(X0,H0)=0": set_hull_distance(X0, H0) <= 1e-8,
        "D(H0,X0)=0": set_hull_distance(H0, X0) <= 1e-8,
        "D(X0,H1)=0": set_hull_distance(X0, H1) <= 1e-8,
        "D(H1,X0)>0": set_hull_distance(H1, X0) > 1e-8,
        "nnz(H2)=2": nnz(H2) == 2,
        "nnz(H0)=6": nnz(H0) == 6,
    }
    thetas = (0.1, math.pi / 8, 0.6)
    for theta in thetas:
        X_t, Z_t, H_t, H0e, _ = example1_fixture(theta)
        facts[f"D(X_t,H_t)=0@{theta:.3f}"] = set_hull_distance(X_t, H_t) <= 1e-8
        facts[f"|Z row|<=sqrt2@{theta:.3f}"] = (
            np.linalg.norm(Z_t, axis=1).max() <= math.sqrt(2.0) + 1e-12
        )
    # divergence of the strong distance toward the right endpoint
    seq = [
        archetype_distance(example1_fixture(t)[2], example1_fixture(t)[3])
        for t in (0.5, 0.7, math.pi / 4 - 1e-4)
    ]
    facts["L(H_t,H0) diverges"] = seq[0] < seq[1] < seq[2] and seq[2] > 1e3
    ok = all(facts.values())
    bad = [name for name, good in facts.items() if not good]
    report(
        "criterion-8 fixture-facts",
        ok,
        f"{len(facts)} facts checked" + (f", failing: {bad}" if bad else ""),
    )


# --------------------------------------------------------------------- 9


def _fit_saa_sweep(X, k, ell):
    sched = tuple(np.geomspace(30.0, 1.0, 4))
    cfg = SaaConfig(
        k=k, ell=ell, lam=sched, max_iter=1_200,
        tol_stationary=1e-4, tol_objective=1e-8,
    )
    oa = outer_approximation(
        X, cfg, max_rounds=3, backend=BranchAndBound(node_cap=4_000),
    )
    fac, _ = continuation(X, cfg, oa=oa)
    return fac


def test_criterion_9_trend_reproduction():
    started = time.monotonic()
    m, k, n = 50, 5, 200
    noise_means = {"weak": [], "strong": []}
    for sigma in (0.05, 0.2, 0.5):
        ws, ss = [], []
        for seed in range(10):
            X, _, H0, _, _ = synth_instance(m, n, k, sigma, seed=seed)
            fac = _fit_saa_sweep(X, k, n * k // 2)
            ws.append(archetype_distance(H0, fac.H))
            ss.append(archetype_distance(fac.H, H0))
        noise_means["weak"].append(float(np.mean(ws)))
        noise_means["strong"].append(float(np.mean(ss)))
    noise_ok = all(
        b >= a
        for key in noise_means
        for a, b in zip(noise_means[key], noise_means[key][1:])
    )

    sparsity_means = {"weak": [], "strong": []}
    for frac in (0.4, 0.6, 0.8):
        ws, ss = [], []
        for seed in range(10):
            X, _, H0, _, _ = synth_instance(m, n, k, 0.1, seed=seed)
            fac = _fit_saa_sweep(X, k, int(frac * n * k))
            ws.append(archetype_distance(H0, fac.H))
            ss.append(archetype_distance(fac.H, H0))
        sparsity_means["weak"].append(float(np.mean(ws)))
        sparsity_means["strong"].append(float(np.mean(ss)))
    sparsity_ok = all(
        b <= a
        for key in sparsity_means
        for a, b in zip(sparsity_means[key], sparsity_means[key][1:])
    )
    elapsed = time.monotonic() - started
    ok = noise_ok and sparsity_ok and elapsed < 900
    report(
        "criterion-9 trend-reproduction",
        ok,
        f"mean weak over sigma {['%.1f' % v for v in noise_means['weak']]} "
        f"non-decreasing: {noise_ok}; mean weak over ell "
        f"{['%.1f' % v for v in sparsity_means['weak']]} non-increasing: "
        f"{sparsity_ok}; {elapsed:.0f}s (< 900s)",
    )


# -------------------------------------------------------------------- 10


def test_criterion_10_ablation_ordering():
    started = time.monotonic()
    m, k, n = 40, 5, 300
    ell = n * k // 2
    ordered = 0
    ls_never_worse = True
    rows = []
    for seed in range(10):
        X, *_ = synth_instance(m, n, k, 0.1, seed=seed)
        sched = tuple(np.geomspace(30.0, 1.0, 8))
        cfg = SaaConfig(
            k=k, ell=ell, lam=sched, max_iter=1_000,
            tol_stationary=1e-4, tol_objective=1e-8,
        )
        cfg_zero = SaaConfig(
            k=k, ell=ell, lam=1.0, max_iter=1_000,
            tol_stationary=1e-4, tol_objective=1e-8,
        )
        fac_z, _ = solve(X, zero_init(X, cfg_zero), cfg_zero)
        psi_zero = objective(X, fac_z, 1.0).total
        oa = outer_approximation(
            X, cfg, max_rounds=3, backend=BranchAndBound(node_cap=4_000),
        )
        fac_s, _ = continuation(X, cfg, oa=oa)
        psi_saa = objective(X, fac_s, 1.0).total
        fac_l, _, _ = local_search(X, fac_s, cfg, max_swaps=25)
        psi_ls = objective(X, fac_l, 1.0).total
        ordered += psi_zero >= psi_saa >= psi_ls
        ls_never_worse &= psi_ls <= psi_saa
        rows.append((psi_zero, psi_saa, psi_ls))
    elapsed = time.monotonic() - started
    ok = ordered >= 7 and ls_never_worse and elapsed < 1_200
    report(
        "criterion-10 ablation-ordering",
        ok,
        f"zero >= saa >= saa+ls on {ordered}/10 seeds (need >= 7), "
        f"local search never worse: {ls_never_worse}, {elapsed:.0f}s (< 1200s)",
    )


# -------------------------------------------------------------------- 11


def test_criterion_11_clustering_metrics():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, 60))
        true = rng.integers(0, k, size=m)
        est = rng.integers(0, k, size=m)
        cm = cluster_metrics(true, est, k)
        p_ref, e_ref = purity_entropy_oracle(true, est, k)
        worst = max(worst, abs(cm.purity - p_ref), abs(cm.entropy - e_ref))
    perfect = cluster_metrics([0, 1, 2, 0], [2, 0, 1, 2], 3)
    exact_ok = perfect.purity == 1.0 and perfect.entropy == 0.0
    ok = worst <= 1e-12 and exact_ok
    report(
        "criterion-11 clustering-metrics",
        ok,
        f"50 label vectors, worst |err| vs hand count {worst:.3e}; "
        f"perfect assignment gives (1, 0) exactly: {exact_ok}",
    )
