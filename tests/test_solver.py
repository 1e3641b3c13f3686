import numpy as np
import pytest

from sparse_aa import (
    Factorization,
    InvalidInputError,
    SaaConfig,
    nnz,
    objective,
    solve,
    spectral_norm,
    stationarity_residual,
    synth_instance,
)
from sparse_aa.mip_init import continuation, outer_approximation
from sparse_aa.solver import (
    _EPS_W,
    default_init,
    grad_H,
    grad_W,
    grad_Wt,
    step_H,
    step_W,
    step_Wt,
)
from oracles import central_diff_grad, objective_loops_oracle, sweep_loop_oracle


def random_feasible(rng, m=5, k=3, n=4, ell=8):
    H = rng.uniform(size=(k, n))
    drop = rng.choice(k * n, size=k * n - ell, replace=False)
    H.ravel()[drop] = 0.0
    W = rng.uniform(size=(m, k))
    W /= W.sum(axis=1, keepdims=True)
    Wt = rng.uniform(size=(k, m))
    Wt /= Wt.sum(axis=1, keepdims=True)
    return Factorization(H=H, W=W, Wt=Wt)


def exact_point(rng, m=6, k=3, n=4):
    """A factorization with X = W H and H = Wt X exactly."""
    W = rng.uniform(size=(m, k))
    W /= W.sum(axis=1, keepdims=True)
    # make Wt pick k rows of X, then H := Wt X consistent with X = W H
    # start from any H0, iterate once: X = W H0; H = Wt X; X = W H ...
    H = rng.uniform(size=(k, n))
    Wt = np.zeros((k, m))
    for i in range(k):
        Wt[i, i] = 1.0
    for _ in range(200):
        X = W @ H
        H_new = Wt @ X
        if np.linalg.norm(H_new - H) < 1e-15:
            H = H_new
            break
        H = H_new
    X = W @ H
    return X, Factorization(H=H, W=W, Wt=Wt)


def test_objective_fixed_cases():
    rng = np.random.default_rng(0)
    X, fac = exact_point(rng)
    br = objective(X, fac, lam=2.0)
    assert br.total == pytest.approx(0.0, abs=1e-20)

    fac2 = random_feasible(rng)
    X2 = rng.uniform(size=(5, 4))
    br2 = objective(X2, fac2, lam=0.0)
    assert br2.total == br2.fit


@pytest.mark.parametrize("seed", range(5))
def test_objective_matches_loop_oracle(seed):
    rng = np.random.default_rng(seed)
    fac = random_feasible(rng)
    X = rng.uniform(size=(5, 4))
    lam = float(rng.uniform(0.1, 3.0))
    br = objective(X, fac, lam)
    want = objective_loops_oracle(X, fac.H, fac.W, fac.Wt, lam)
    assert br.total == pytest.approx(want, rel=1e-12)
    assert br.total == pytest.approx(br.fit + lam * br.reg, rel=1e-15)


@pytest.mark.parametrize("zero_x", [False, True], ids=["random-X", "zero-X"])
def test_first_step_sizes_are_quarter_inverse_lipschitz(zero_x):
    X = np.zeros((5, 3)) if zero_x else synth_instance(5, 3, 2, 0.1, seed=4)[0]
    cfg = SaaConfig(k=2, ell=4, lam=1.5, max_iter=1)
    fac0 = default_init(X, cfg)
    fac, trace = solve(X, fac0, cfg)
    s1, s2, s3 = trace.step_sizes[0]
    lam, eps = cfg.final_lambda, _EPS_W
    assert s1 == pytest.approx(1.0 / (4.0 * (lam + spectral_norm(fac0.W) ** 2)), rel=1e-12)
    assert s2 == pytest.approx(1.0 / (4.0 * max(spectral_norm(fac.H) ** 2, eps)), rel=1e-12)
    if zero_x:
        # H stays zero, so the W-step hits the eps floor; X = 0 makes the
        # Wt-block constant and its step unbounded
        assert s2 == 250000.0
        assert s3 == np.inf
    else:
        assert s3 == pytest.approx(1.0 / (4.0 * lam * spectral_norm(X) ** 2), rel=1e-12)


@pytest.mark.parametrize("seed", range(20))
def test_block_gradients_match_finite_differences(seed):
    rng = np.random.default_rng(seed)
    fac = random_feasible(rng)
    X = rng.uniform(size=(5, 4))
    lam = float(rng.uniform(0.2, 2.0))

    gh = grad_H(X, fac, lam)
    fd_h = central_diff_grad(
        lambda H: objective_unchecked(X, H, fac.W, fac.Wt, lam), fac.H
    )
    assert rel_err(gh, fd_h) < 1e-5

    gw = grad_W(X, fac)
    fd_w = central_diff_grad(
        lambda W: objective_unchecked(X, fac.H, W, fac.Wt, lam), fac.W
    )
    assert rel_err(gw, fd_w) < 1e-5

    gwt = grad_Wt(X, fac, lam)
    fd_wt = central_diff_grad(
        lambda Wt: objective_unchecked(X, fac.H, fac.W, Wt, lam), fac.Wt
    )
    assert rel_err(gwt, fd_wt) < 1e-5


def objective_unchecked(X, H, W, Wt, lam):
    return float(
        np.linalg.norm(X - W @ H) ** 2 + lam * np.linalg.norm(H - Wt @ X) ** 2
    )


def rel_err(a, b):
    return np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-12)


def test_step_H_fixed_point_and_feasibility():
    rng = np.random.default_rng(1)
    X, fac = exact_point(rng)
    out, _ = step_H(X, fac.H, fac.W, 1.5, nnz(fac.H), fac.Wt @ X)
    np.testing.assert_allclose(out, fac.H, atol=1e-12)

    fac2 = random_feasible(rng)
    X2 = rng.uniform(size=(5, 4))
    out2, _ = step_H(X2, fac2.H, fac2.W, 1.0, 6, fac2.Wt @ X2)
    assert np.all(out2 >= 0.0)
    assert nnz(out2) <= 6


def test_step_W_descends_and_fixed_point():
    rng = np.random.default_rng(2)
    X, fac = exact_point(rng)
    np.testing.assert_allclose(step_W(X, fac.H, fac.W)[0], fac.W, atol=1e-9)

    fac2 = random_feasible(rng)
    X2 = rng.uniform(size=(5, 4))
    before = objective(X2, fac2, 1.0)
    W_new, _ = step_W(X2, fac2.H, fac2.W)
    after = objective(X2, Factorization(H=fac2.H, W=W_new, Wt=fac2.Wt), 1.0)
    assert after.fit <= before.fit + 1e-12
    if np.linalg.norm(grad_W(X2, fac2)) > 1e-8:
        assert after.fit < before.fit


def test_step_Wt_fixed_point_and_lambda_zero():
    rng = np.random.default_rng(3)
    X, fac = exact_point(rng)
    sx = spectral_norm(X)
    np.testing.assert_allclose(
        step_Wt(X, fac.H, fac.Wt, 1.0, sx, fac.Wt @ X)[0], fac.Wt, atol=1e-9
    )

    fac2 = random_feasible(rng)
    X2 = rng.uniform(size=(5, 4))
    sx2 = spectral_norm(X2)
    wtx2 = fac2.Wt @ X2
    np.testing.assert_array_equal(step_Wt(X2, fac2.H, fac2.Wt, 0.0, sx2, wtx2)[0], fac2.Wt)
    before = objective(X2, fac2, 2.0)
    Wt_new, _ = step_Wt(X2, fac2.H, fac2.Wt, 2.0, sx2, wtx2)
    after = objective(X2, Factorization(H=fac2.H, W=fac2.W, Wt=Wt_new), 2.0)
    assert after.reg <= before.reg + 1e-12


def test_solve_exact_point_converges_immediately():
    rng = np.random.default_rng(4)
    X, fac = exact_point(rng)
    cfg = SaaConfig(k=3, ell=nnz(fac.H), lam=1.0)
    out, trace = solve(X, fac, cfg)
    assert trace.converged
    assert trace.iterations == 1
    assert trace.objectives[-1] == pytest.approx(trace.objectives[0], abs=1e-12)


def test_solve_monotone_and_stationary():
    X, X0, H0, W0, Z = synth_instance(20, 10, 3, 0.1, seed=11)
    cfg = SaaConfig(k=3, ell=15, lam=1.0, tol_stationary=9e-7, max_iter=30_000)
    fac, trace = solve(X, None, cfg)
    obj = np.array(trace.objectives)
    diffs = np.diff(obj)
    assert np.all(diffs <= 1e-9 * np.maximum(obj[:-1], 1.0))
    assert trace.converged
    rep = stationarity_residual(X, fac, cfg)
    assert rep.residual < 1e-6
    fac.validate(cfg.ell)


def test_solve_rejects_infeasible_init_and_nonpositive_lambda():
    X = np.abs(np.random.default_rng(5).normal(size=(4, 3)))
    cfg = SaaConfig(k=2, ell=3, lam=1.0)
    bad = Factorization(
        H=np.ones((2, 3)),  # nnz 6 > ell 3
        W=np.full((4, 2), 0.5),
        Wt=np.full((2, 4), 0.25),
    )
    with pytest.raises(InvalidInputError):
        solve(X, bad, cfg)
    with pytest.raises(InvalidInputError):
        solve(X, None, cfg, lam=0.0)


def test_stationarity_residual_zero_and_positive():
    rng = np.random.default_rng(6)
    X, fac = exact_point(rng)
    cfg = SaaConfig(k=3, ell=max(nnz(fac.H), 3), lam=1.0)
    rep = stationarity_residual(X, fac, cfg)
    assert rep.residual == pytest.approx(0.0, abs=1e-10)

    moving = random_feasible(rng)
    X2 = rng.uniform(size=(5, 4)) * 3.0
    rep2 = stationarity_residual(X2, moving, SaaConfig(k=3, ell=8, lam=1.0))
    assert rep2.residual > 1e-6

    # X is 6 x 4 and cfg.k = 3: a 5-column H, a 7-row W, or a k = 2
    # factorization is invalid input, not a broadcast error or a residual
    for bad in (
        Factorization(H=np.hstack([fac.H, fac.H[:, :1]]), W=fac.W, Wt=fac.Wt),
        Factorization(H=fac.H, W=np.vstack([fac.W, fac.W[:1]]), Wt=fac.Wt),
        Factorization(H=fac.H[:2], W=np.full((6, 2), 0.5), Wt=np.full((2, 6), 1 / 6)),
    ):
        with pytest.raises(InvalidInputError):
            stationarity_residual(X, bad, cfg)


def test_solve_deterministic():
    X, *_ = synth_instance(12, 6, 2, 0.2, seed=3)
    cfg = SaaConfig(k=2, ell=8, lam=1.0, max_iter=300)
    fac1, tr1 = solve(X, None, cfg)
    fac2, tr2 = solve(X, None, cfg)
    np.testing.assert_array_equal(fac1.H, fac2.H)
    np.testing.assert_array_equal(fac1.W, fac2.W)
    np.testing.assert_array_equal(fac1.Wt, fac2.Wt)
    assert tr1.objectives == tr2.objectives
    assert tr1.step_sizes == tr2.step_sizes


def test_default_init_feasible():
    X, *_ = synth_instance(10, 5, 2, 0.1, seed=9)
    cfg = SaaConfig(k=2, ell=4, lam=1.0)
    fac = default_init(X, cfg)
    fac.validate(cfg.ell)


def test_every_iterate_feasible():
    from sparse_aa.solver import _sweep_raw

    X, *_ = synth_instance(12, 6, 3, 0.2, seed=14)
    cfg = SaaConfig(k=3, ell=9, lam=1.0)
    fac = default_init(X, cfg)
    H, W, Wt = fac.H, fac.W, fac.Wt
    sx = spectral_norm(X)
    for _ in range(40):
        H, W, Wt, _ = _sweep_raw(X, H, W, Wt, 1.0, cfg.ell, sx)
        Factorization(H=H, W=W, Wt=Wt).validate(cfg.ell)


def test_trace_step_sizes_reflect_half_inverse_lipschitz():
    X, *_ = synth_instance(8, 5, 2, 0.05, seed=2)
    cfg = SaaConfig(k=2, ell=6, lam=2.0, max_iter=3, tol_objective=1e-16, tol_stationary=1e-16)
    fac, trace = solve(X, None, cfg)
    s1, s2, s3 = trace.step_sizes[-1]
    sx = spectral_norm(X)
    assert s3 == pytest.approx(0.5 / (2.0 * 2.0 * sx * sx), rel=1e-9)
    assert s1 > 0 and s2 > 0


@pytest.mark.parametrize("ell, tie", [(3, True), (4, False), (8, False)])
def test_stationarity_residual_flags_boundary_ties(ell, tie):
    # from H = 0 with uniform weights both rows of the H-step target are
    # equal, so an odd budget splits a pair of equal entries; ell = k*n
    # drops nothing and has no boundary
    X = np.random.default_rng(7).uniform(0.1, 1.0, size=(6, 4))
    fac = Factorization(H=np.zeros((2, 4)), W=np.full((6, 2), 0.5), Wt=np.full((2, 6), 1 / 6))
    rep = stationarity_residual(X, fac, SaaConfig(k=2, ell=ell, lam=1.0))
    assert rep.boundary_tie is tie  # a plain bool, as summary.json needs


def tie_instance():
    """Duplicated columns: H-step targets repeat values, so top-ell ties occur."""
    B = np.random.default_rng(1).uniform(size=(10, 3))
    return np.hstack([B, B]), SaaConfig(k=3, ell=7)


def random_instance():
    return np.random.default_rng(0).uniform(size=(15, 8)), SaaConfig(k=3, ell=13)


@pytest.mark.parametrize("make", [random_instance, tie_instance])
def test_solve_matches_sweep_loop_oracle_bit_for_bit(make):
    X, base = make()
    cfg = SaaConfig(k=base.k, ell=base.ell, max_iter=300, tol_objective=1e-300, tol_stationary=1e-300)
    fac, trace = solve(X, None, cfg, lam=1.0)
    H, W, Wt, objectives, steps, ties, rejects = sweep_loop_oracle(X, cfg, 1.0)
    assert trace.iterations == len(objectives) - 1
    # with tolerances of 1e-300 only an exact fixed point (no block moves)
    # stops before the cap; the tie instance reaches one after 201 sweeps
    assert trace.iterations == 300 or stationarity_residual(X, fac, cfg).residual == 0.0
    assert trace.objectives == objectives
    assert trace.step_sizes == steps
    assert fac.H.tobytes() == H.tobytes()
    assert fac.W.tobytes() == W.tobytes()
    assert fac.Wt.tobytes() == Wt.tobytes()
    assert rejects > 0  # the plain-sweep fallback is exercised
    if make is tie_instance:
        assert ties > 0


def test_momentum_converges_where_the_plain_loop_stops_at_its_cap():
    X = synth_instance(20, 10, 3, 0.1, seed=7)[0]
    cfg = SaaConfig(k=3, ell=15, max_iter=1_000)
    plain = sweep_loop_oracle(X, cfg, 1.0, momentum=False)[3]
    fac, trace = solve(X, None, cfg, lam=1.0)
    assert len(plain) - 1 == cfg.max_iter  # the plain loop is cut by its cap
    assert trace.converged and trace.iterations < cfg.max_iter
    assert trace.objectives[-1] <= plain[-1] * (1.0 + 1e-9)
    fac.validate(cfg.ell)


def test_first_sweep_is_the_plain_sweep():
    from sparse_aa.solver import _sweep_raw

    X = synth_instance(8, 5, 2, 0.05, seed=2)[0]
    cfg = SaaConfig(k=2, ell=6, lam=2.0, max_iter=1)
    fac0 = default_init(X, cfg)
    fac, trace = solve(X, fac0, cfg)
    H, W, Wt, (l1, l2, l3) = _sweep_raw(
        X, fac0.H, fac0.W, fac0.Wt, 2.0, cfg.ell, spectral_norm(X)
    )
    assert trace.iterations == 1
    assert trace.step_sizes == [(0.5 / l1, 0.5 / l2, 0.5 / l3)]
    assert trace.objectives[1] == objective(X, Factorization(H=H, W=W, Wt=Wt), 2.0).total
    for got, want in ((fac.H, H), (fac.W, W), (fac.Wt, Wt)):
        assert got.tobytes() == want.tobytes()


def edge_instances():
    rng = np.random.default_rng(3)
    B = rng.uniform(size=(6, 4))
    return {
        "ell=k*n": (B, 2, 8),
        "ell>k*n": (B, 2, 20),
        "m<k": (rng.uniform(size=(2, 4)), 3, 6),
        "duplicate rows": (np.vstack([B, B[:2]]), 2, 5),
        "zero rows": (np.vstack([B, np.zeros((2, 4))]), 2, 5),
        "zero column": (np.hstack([B, np.zeros((6, 1))]), 2, 6),
        "all-zero X": (np.zeros((5, 3)), 2, 4),
    }


def assert_same_solve(a, b):
    (fa, ta), (fb, tb) = a, b
    for M, N in ((fa.H, fb.H), (fa.W, fb.W), (fa.Wt, fb.Wt)):
        assert M.tobytes() == N.tobytes()
    assert ta.objectives == tb.objectives


@pytest.mark.parametrize("name", list(edge_instances()))
def test_solve_edge_cases_feasible_and_deterministic(name):
    X, k, ell = edge_instances()[name]
    cfg = SaaConfig(k=k, ell=ell, lam=1.0, max_iter=200)
    first = solve(X, None, cfg)
    assert_same_solve(first, solve(X, None, cfg))
    fac, trace = first
    fac.validate(ell)
    assert fac.H.shape == (k, X.shape[1]) and fac.W.shape == (X.shape[0], k)
    obj = np.array(trace.objectives)
    assert np.all(np.diff(obj) <= 1e-9 * np.maximum(obj[:-1], 1.0))
    if name == "zero column":
        assert not fac.H[:, -1].any()


@pytest.mark.parametrize("name", list(edge_instances()))
def test_continuation_edge_cases(name):
    X, k, ell = edge_instances()[name]
    cfg = SaaConfig(k=k, ell=ell, lam=(4.0, 2.0, 1.0), max_iter=200)
    fac, traces = continuation(X, cfg, oa=outer_approximation(X, cfg, max_rounds=2))
    fac2, traces2 = continuation(X, cfg, oa=outer_approximation(X, cfg, max_rounds=2))
    assert len(traces) == 3
    assert_same_solve((fac, traces[-1]), (fac2, traces2[-1]))
    fac.validate(ell)
