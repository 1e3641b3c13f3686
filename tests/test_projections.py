import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sparse_aa import (
    InvalidInputError,
    nnz,
    project_simplex_rows,
    project_sparse,
    support,
)
from sparse_aa.projections import _simplex_rows_raw, _topk_raw
from oracles import simplex_qp_oracle, simplex_rows_oracle, topk_argsort_oracle

finite_floats = st.floats(min_value=-50.0, max_value=50.0, allow_nan=False)


def test_simplex_rows_fixed_cases():
    np.testing.assert_allclose(
        project_simplex_rows(np.array([[0.3, 0.7]])), [[0.3, 0.7]], atol=1e-15
    )
    np.testing.assert_allclose(
        project_simplex_rows(np.array([[2.0, 0.0]])), [[1.0, 0.0]], atol=1e-15
    )
    # active-set oracle over the two constraint patterns gives (0.4, 0.6)
    np.testing.assert_allclose(
        project_simplex_rows(np.array([[0.2, 0.4]])), [[0.4, 0.6]], atol=1e-12
    )


@st.composite
def simplex_kernel_cases(draw):
    """Rows with ties, repeated rows, width 1, magnitudes 1e-9 to 1e6 and
    all-negative rows."""
    m = draw(st.integers(1, 5))
    d = draw(st.integers(1, 8))
    base = st.integers(-4, 4) if draw(st.booleans()) else st.floats(-4.0, 4.0)
    row = st.lists(base, min_size=d, max_size=d)
    if draw(st.booleans()):
        A = np.array([draw(row)] * m, dtype=np.float64)
    else:
        A = np.array(draw(st.lists(row, min_size=m, max_size=m)), dtype=np.float64)
    A = A * draw(st.sampled_from([1e-9, 1e-4, 0.1, 1.0, 7.0, 1e3, 1e6]))
    if draw(st.booleans()):
        A = -np.abs(A) - draw(st.sampled_from([0.0, 1e-9, 1.0, 1e6]))
    return A


@given(simplex_kernel_cases())
@example(np.array([[0.5]]))
@example(np.array([[-1e6, -1e6], [-1e6, -1e6]]))
@example(np.array([[1e-9, 1e-9, 1e-9]]))
@settings(max_examples=400, deadline=None)
def test_simplex_kernel_matches_oracle_bits(A):
    assert _simplex_rows_raw(A).tobytes() == simplex_rows_oracle(A).tobytes()


def test_simplex_rows_huge_entries_stay_on_simplex():
    # s_1 - 1 rounds to s_1 from 2**53 up, so no column tests as above its
    # threshold; such rows are projected shifted to a zero maximum
    A = np.array([[1e16, 0.0], [1e300, -1e300], [0.5, 2.0], [-3e16, -3e16]])
    P = project_simplex_rows(A)
    np.testing.assert_array_equal(P, [[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.5, 0.5]])


def test_simplex_rows_non_finite_maximum_is_a_numerical_failure():
    # a NaN or +inf entry leaves no column above its threshold, and the shift
    # by the row maximum cannot repair it; a -inf entry below a finite
    # maximum still projects
    for row in ([np.nan, 1.0], [np.inf, 0.0]):
        with pytest.raises(FloatingPointError):
            _simplex_rows_raw(np.array([row]))
    np.testing.assert_array_equal(_simplex_rows_raw(np.array([[-np.inf, 1.0]])), [[0.0, 1.0]])


def test_simplex_rows_rejects_empty_rows():
    with pytest.raises(InvalidInputError):
        project_simplex_rows(np.zeros((2, 0)))


@given(st.lists(st.lists(finite_floats, min_size=1, max_size=6), min_size=1, max_size=4).filter(
    lambda rows: len({len(r) for r in rows}) == 1
))
@settings(max_examples=150, deadline=None)
def test_simplex_rows_feasible_and_idempotent(rows):
    A = np.array(rows, dtype=float)
    P = project_simplex_rows(A)
    assert np.all(P >= 0.0)
    np.testing.assert_allclose(P.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_allclose(project_simplex_rows(P), P, atol=1e-12)


@pytest.mark.parametrize("seed", range(60))
def test_simplex_rows_matches_active_set_oracle(seed):
    rng = np.random.default_rng(seed)
    d = int(rng.integers(1, 8))
    y = rng.normal(scale=2.0, size=d)
    got = project_simplex_rows(y[None, :])[0]
    want = simplex_qp_oracle(y)
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_project_sparse_fixed_cases():
    A = np.array([[3.0, 1.0], [0.0, 2.0]])
    out = project_sparse(A, 2)
    np.testing.assert_array_equal(out, [[3.0, 0.0], [0.0, 2.0]])
    assert support(out) == [(0, 0), (1, 1)]

    out = project_sparse(A, 10)  # ell >= nnz keeps everything
    np.testing.assert_array_equal(out, A)

    out = project_sparse(np.array([[1.0, 1.0], [0.0, 0.0]]), 1)
    np.testing.assert_array_equal(out, [[1.0, 0.0], [0.0, 0.0]])
    assert support(out) == [(0, 0)]


def test_project_sparse_budget_zero():
    out = project_sparse(np.ones((2, 2)), 0)
    np.testing.assert_array_equal(out, np.zeros((2, 2)))
    assert support(out) == []


@given(
    st.lists(
        st.lists(finite_floats, min_size=3, max_size=3), min_size=2, max_size=4
    ),
    st.integers(min_value=0, max_value=12),
)
@settings(max_examples=150, deadline=None)
def test_project_sparse_invariants(rows, ell):
    A = np.array(rows, dtype=float)
    P = project_sparse(A, ell)
    assert nnz(P) <= ell
    assert len(support(P)) <= ell
    # complement identity and norm contraction
    np.testing.assert_array_equal(P + (A - P), A)
    assert np.linalg.norm(P) <= np.linalg.norm(A) + 1e-12
    # idempotence under the same tie-break
    P2 = project_sparse(P, ell)
    np.testing.assert_array_equal(P2, P)


def test_project_sparse_keeps_largest_magnitudes():
    rng = np.random.default_rng(5)
    A = rng.normal(size=(4, 6))
    ell = 7
    P = project_sparse(A, ell)
    kept = support(P)
    kept_vals = sorted(abs(A[i, j]) for i, j in kept)
    dropped = sorted(
        abs(v) for idx, v in np.ndenumerate(A) if idx not in set(kept)
    )
    assert min(kept_vals) >= max(dropped) - 1e-15


tie_values = st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])


@st.composite
def topk_cases(draw):
    """A small matrix whose entries repeat a few magnitudes (or are all
    equal, or arbitrary), with a budget from 0 to past its size."""
    rows, cols = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    kind = draw(st.sampled_from(["ties", "equal", "floats"]))
    if kind == "equal":
        A = np.full((rows, cols), draw(tie_values))
    else:
        elems = tie_values if kind == "ties" else finite_floats
        size = rows * cols
        A = np.array(draw(st.lists(elems, min_size=size, max_size=size)))
    return A.reshape(rows, cols), draw(st.integers(0, rows * cols + 3))


@given(topk_cases())
# ties straddle the boundary: three entries of magnitude 2 compete for two slots
@example((np.array([[1.0, -2.0, 2.0], [0.0, 2.0, -1.0]]), 2))
@example((np.full((2, 3), -0.5), 4))  # all equal
@example((np.array([[0.0, 3.0], [-1.0, 0.0]]), 3))  # zeros left over
@example((np.array([[1.0, 2.0], [3.0, 4.0]]), 0))
@example((np.array([[1.0, 2.0], [3.0, 4.0]]), 4))  # ell = size
@example((np.array([[1.0, 0.0], [3.0, 4.0]]), 7))  # ell > size
@settings(max_examples=300, deadline=None)
def test_topk_matches_stable_argsort_rule(case):
    A, ell = case
    want, keep = topk_argsort_oracle(A, ell)
    out = _topk_raw(A, ell)
    assert out.tobytes() == want.tobytes()
    P = project_sparse(A, ell)
    assert P.tobytes() == want.tobytes()
    assert support(P) == sorted(divmod(int(i), A.shape[1]) for i in keep)
