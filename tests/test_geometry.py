import math

import numpy as np
import pytest

from sparse_aa import (
    InvalidInputError,
    archetype_distance,
    archetype_distance_l1,
    archetype_spread,
    hull_distance,
    hull_distance_rows,
    nearest_row_assignment,
    set_hull_distance,
    set_hull_distance_l1,
)
from sparse_aa._fista import minimize, minimize_rows
from sparse_aa.core import spectral_norm
from sparse_aa.evaluation import appendixB_fixture, example1_fixture
from sparse_aa.geometry import _hull_rows
from sparse_aa.projections import _simplex_rows_raw
from oracles import hull_qp_oracle


def test_hull_distance_point_in_hull():
    X = np.array([[1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])
    for row in X:
        assert hull_distance(row, X).sq_distance <= 1e-10


def test_hull_distance_diagonal_case():
    res = hull_distance(np.array([1.0, 1.0]), np.array([[1.0, 0.0], [0.0, 1.0]]))
    assert res.sq_distance == pytest.approx(0.5, abs=1e-9)
    np.testing.assert_allclose(res.weights, [0.5, 0.5], atol=1e-6)


def test_hull_distance_weights_on_simplex():
    rng = np.random.default_rng(1)
    X = rng.normal(size=(5, 3))
    x = rng.normal(size=3)
    res = hull_distance(x, X)
    assert np.all(res.weights >= -1e-12)
    assert res.weights.sum() == pytest.approx(1.0, abs=1e-9)
    attained = float(np.sum((res.weights @ X - x) ** 2))
    assert attained == pytest.approx(res.sq_distance, abs=1e-12)


def test_hull_distance_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        hull_distance(np.array([1.0, 2.0, 3.0]), np.eye(2))


@pytest.mark.parametrize("seed", range(40))
def test_hull_distance_matches_support_enumeration(seed):
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, 7))
    n = int(rng.integers(1, 5))
    X = rng.normal(scale=2.0, size=(m, n))
    x = rng.normal(scale=2.0, size=n)
    got = hull_distance(x, X).sq_distance
    want = hull_qp_oracle(x, X)
    assert got == pytest.approx(want, abs=1e-6)


@pytest.mark.parametrize("seed", range(10))
def test_hull_distance_monotone_in_rows(seed):
    rng = np.random.default_rng(100 + seed)
    X = rng.normal(size=(5, 3))
    x = rng.normal(size=3)
    d_small = hull_distance(x, X[:4]).sq_distance
    d_full = hull_distance(x, X).sq_distance
    assert d_full <= d_small + 1e-8


def test_set_hull_distance_identity_and_fixture():
    rng = np.random.default_rng(2)
    X = rng.uniform(size=(4, 3))
    assert set_hull_distance(X, X) <= 1e-9

    H0, H1, _, make_x0 = appendixB_fixture()
    X0 = make_x0(seed=0)
    assert set_hull_distance(X0, H0) <= 1e-8
    assert set_hull_distance(H0, X0) <= 1e-8
    assert set_hull_distance(X0, H1) <= 1e-8
    assert set_hull_distance(H1, X0) > 1e-4


def test_example1_zero_distance():
    theta = math.pi / 8
    X_theta, _, H_theta, _, _ = example1_fixture(theta)
    assert set_hull_distance(X_theta, H_theta) <= 1e-8


def test_set_hull_distance_l1_cases():
    rng = np.random.default_rng(3)
    X = rng.uniform(size=(3, 2))
    assert set_hull_distance_l1(X, X) <= 1e-5

    one = rng.uniform(size=(1, 2)) + 2.0
    Y = rng.uniform(size=(2, 2))
    d = set_hull_distance(one, Y)
    dt = set_hull_distance_l1(one, Y)
    assert dt == pytest.approx(math.sqrt(d), rel=1e-6)


@pytest.mark.parametrize("seed", range(25))
def test_lemma1_chains_on_random_instances(seed):
    rng = np.random.default_rng(seed)
    m1 = int(rng.integers(1, 5))
    X = rng.normal(size=(m1, 2)) + 1.0
    Y = rng.normal(size=(int(rng.integers(1, 4)), 2))
    d_sqrt = math.sqrt(set_hull_distance(X, Y))
    d_l1 = set_hull_distance_l1(X, Y)
    assert d_l1 / math.sqrt(m1) <= d_sqrt + 1e-8
    assert d_sqrt <= d_l1 + 1e-8
    l_sqrt = math.sqrt(archetype_distance(X, Y))
    l_l1 = archetype_distance_l1(X, Y)
    assert l_l1 / math.sqrt(m1) <= l_sqrt + 1e-10
    assert l_sqrt <= l_l1 + 1e-10


def test_archetype_distance_cases():
    H = np.array([[1.0, 2.0], [3.0, 4.0]])
    assert archetype_distance(H, H) == 0.0
    H1 = np.array([[0.0, 0.0]])
    H2 = np.array([[0.0, 0.0], [5.0, 5.0]])
    assert archetype_distance(H1, H2) == 0.0
    assert archetype_distance(H2, H1) == pytest.approx(50.0)


def test_archetype_distance_example1_lower_bound():
    theta = math.pi / 8
    _, _, H_theta, H0, _ = example1_fixture(theta)
    shrink = 1.0 - math.sin(theta) / (math.sqrt(2.0) * math.sin(theta + math.pi / 4))
    bound = (shrink * math.tan(theta + math.pi / 4) - 1.0) ** 2
    assert archetype_distance(H_theta, H0) >= bound - 1e-12


def test_nearest_row_assignment():
    H1 = np.array([[0.0, 0.0], [10.0, 10.0]])
    H2 = np.array([[9.0, 9.0], [1.0, 1.0]])
    np.testing.assert_array_equal(nearest_row_assignment(H1, H2), [1, 0])


def test_archetype_spread_cases():
    assert archetype_spread(np.array([[1.0, 2.0]])) == 0.0
    assert archetype_spread(np.eye(2)) == pytest.approx(math.sqrt(2.0))
    H0 = np.array([[0.15, 0.15], [0.1, 0.7], [0.7, 0.1]])
    # hand enumeration of the three row pairs: the (0.1,0.7)-(0.7,0.1) pair
    # dominates at sqrt(0.36 + 0.36)
    assert archetype_spread(H0) == pytest.approx(math.sqrt(0.72))


@pytest.mark.parametrize("seed", range(50))
def test_weak_via_strong_inequality_random(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 5))
    n = int(rng.integers(1, 5))
    H0 = rng.uniform(size=(k, n))
    H = rng.uniform(size=(k, n)) * 2.0
    lhs = archetype_distance(H0, H)
    rhs = 2.0 * k * archetype_spread(H0) ** 2 + 2.0 * archetype_distance(H, H0)
    assert lhs <= rhs + 1e-9 * max(1.0, rhs)


@pytest.mark.parametrize("seed", range(20))
def test_x0_fit_inequality_random(seed):
    rng = np.random.default_rng(seed)
    m, k, n = 6, 3, 4
    H0 = rng.uniform(size=(k, n))
    W0 = rng.uniform(size=(m, k))
    W0 /= W0.sum(axis=1, keepdims=True)
    X0 = W0 @ H0
    H = rng.uniform(size=(k, n)) * 1.5
    lhs = math.sqrt(set_hull_distance(X0, H))
    rhs = math.sqrt(m) * min(
        math.sqrt(archetype_distance(H0, H)),
        k * np.linalg.norm(H0) + math.sqrt(archetype_distance(H, H0)),
    )
    assert lhs <= rhs + 1e-8 * max(1.0, rhs)


def test_hull_distance_rows_exposes_rowwise_max():
    rng = np.random.default_rng(9)
    X = rng.uniform(size=(4, 3)) + 1.0
    Y = rng.uniform(size=(3, 3))
    rows = hull_distance_rows(X, Y)
    assert rows.shape == (4,)
    assert set_hull_distance(X, Y) == pytest.approx(rows.sum())
    assert rows.max() >= rows.mean()


def _hull(kind: str, rng) -> np.ndarray:
    n = int(rng.integers(1, 5))
    if kind == "zero":
        return np.zeros((int(rng.integers(1, 4)), n))
    if kind == "single":
        return rng.normal(scale=2.0, size=(1, n))
    Y = rng.normal(scale=2.0, size=(int(rng.integers(2, 6)), n))
    if kind == "duplicates":
        Y = np.vstack([Y, Y[rng.integers(Y.shape[0], size=2)]])
    return Y


def _mixed_rows(Y: np.ndarray, rng) -> np.ndarray:
    """Rows outside the hull, strictly inside it, and on a vertex."""
    p, n = Y.shape
    inside = rng.dirichlet(np.ones(p), size=2) @ Y
    return np.vstack([rng.normal(scale=3.0, size=(4, n)), inside, Y[-1:]])


@pytest.mark.parametrize("kind", ["random", "duplicates", "single", "zero"])
@pytest.mark.parametrize("seed", range(8))
def test_hull_distance_rows_matches_oracle(kind, seed):
    rng = np.random.default_rng(500 + seed)
    Y = _hull(kind, rng)
    X = _mixed_rows(Y, rng)
    got = hull_distance_rows(X, Y)
    want = [hull_qp_oracle(x, Y) for x in X]
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-6)
    assert np.all(got[4:] <= 1e-8)  # the inside and vertex rows


def test_hull_distance_rows_zero_hull_is_squared_norm():
    X = np.array([[3.0, 4.0], [0.0, 0.0]])
    rows = hull_distance_rows(X, np.zeros((2, 2)))
    np.testing.assert_array_equal(rows, [25.0, 0.0])
    res = hull_distance(X[0], np.zeros((2, 2)))
    assert res.iterations == 0
    np.testing.assert_array_equal(res.weights, [0.5, 0.5])


@pytest.mark.parametrize("seed", range(6))
def test_batched_iterations_equal_solo_iterations(seed):
    rng = np.random.default_rng(700 + seed)
    Y = rng.uniform(size=(5, 4))
    X = np.vstack([rng.uniform(size=(6, 4)) * 2.0, _mixed_rows(Y, rng)])
    smax = spectral_norm(Y)
    sq, weights, its = _hull_rows(X, Y, 1e-10, 5_000, smax)
    solo = [hull_distance(x, Y) for x in X]
    outside = np.array([hull_qp_oracle(x, Y) for x in X]) > 1e-6
    assert outside.sum() >= 6 and (~outside).sum() >= 3
    # Outside the hull every stopping decision has a margin far above
    # rounding, so the batch must stop each row where its solo solve does.
    # Inside it the objective sits at rounding level, and BLAS products that
    # differ in the last ulp between batch shapes may shift the count.
    assert its[outside].tolist() == [r.iterations for r, o in zip(solo, outside) if o]
    assert len(set(its[outside].tolist())) > 1  # fast and slow rows mixed
    np.testing.assert_allclose(sq, [r.sq_distance for r in solo], rtol=1e-12, atol=1e-15)


@pytest.mark.parametrize("seed", range(6))
def test_minimize_rows_follows_minimize_per_row(seed):
    rng = np.random.default_rng(800 + seed)
    Y = rng.normal(size=(4, 3))
    X = rng.normal(scale=2.0, size=(7, 3))
    step = 1.0 / (2.0 * spectral_norm(Y) ** 2)

    def f(al, x):
        r = al @ Y - x
        return np.einsum("ij,ij->i", r, r)

    def grad(al, x):
        return 2.0 * ((al @ Y - x) @ Y.T)

    def solo(i, max_iter):
        x = X[i]
        return minimize(
            lambda al: float(np.sum((al @ Y - x) ** 2)),
            lambda al: 2.0 * (Y @ (al @ Y - x)),
            lambda v: _simplex_rows_raw(v[None, :])[0],
            alpha0[i],
            step,
            1e-10,
            max_iter,
        )

    alpha0 = np.full((7, 4), 0.25)
    # small caps stop rows mid-run, on every kind of iteration (plain,
    # restarted, probed); the large cap lets every row stop by tolerance
    for max_iter in [*range(1, 25), 5_000]:
        _, vals, its = minimize_rows(
            f, grad, _simplex_rows_raw, alpha0, X, step, 1e-10, max_iter
        )
        for i in range(X.shape[0]):
            _, val, it = solo(i, max_iter)
            assert its[i] == it
            assert vals[i] == pytest.approx(val, rel=1e-12, abs=1e-15)


def test_max_iter_one_stops_every_row_after_one_iteration():
    rng = np.random.default_rng(11)
    Y = rng.normal(size=(4, 3))
    X = _mixed_rows(Y, rng)
    sq, weights, its = _hull_rows(X, Y, 1e-10, 1, spectral_norm(Y))
    assert its.tolist() == [1] * X.shape[0]
    np.testing.assert_allclose(weights.sum(axis=1), 1.0, atol=1e-12)
    exact = hull_distance_rows(X, Y)
    assert np.all(sq >= exact - 1e-12)
    assert all(hull_distance(x, Y, max_iter=1).iterations == 1 for x in X)


def test_hull_distance_rows_edge_shapes():
    Y = np.eye(3)
    empty = hull_distance_rows(np.zeros((0, 3)), Y)
    assert empty.shape == (0,)
    assert set_hull_distance(np.zeros((0, 3)), Y) == 0.0
    with pytest.raises(InvalidInputError):
        hull_distance_rows(np.ones((2, 3)), np.zeros((0, 3)))
    with pytest.raises(InvalidInputError):
        hull_distance_rows(np.ones((2, 2)), Y)
    with pytest.raises(InvalidInputError):
        hull_distance(np.ones(3), np.zeros((0, 3)))


@pytest.mark.parametrize(
    "fn", [archetype_distance, archetype_distance_l1, nearest_row_assignment]
)
def test_row_matching_rejects_an_empty_second_set_and_a_column_mismatch(fn):
    with pytest.raises(InvalidInputError, match="H2 must be nonempty"):
        fn(np.ones((2, 3)), np.zeros((0, 3)))
    with pytest.raises(InvalidInputError, match="column counts differ"):
        fn(np.ones((2, 3)), np.ones((2, 4)))
