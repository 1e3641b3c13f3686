import numpy as np
import pytest

from sparse_aa import (
    Factorization,
    InvalidInputError,
    SaaConfig,
    nnz,
    spectral_norm,
    support,
)
from sparse_aa.core import as_matrix, read_matrix_csv, write_matrix_csv


def test_spectral_norm_identity():
    assert spectral_norm(np.eye(2)) == pytest.approx(1.0, rel=1e-9)


def test_spectral_norm_diagonal():
    assert spectral_norm(np.diag([3.0, 1.0])) == pytest.approx(3.0, rel=1e-9)


def test_spectral_norm_rank_one_ones():
    # top eigenpair of [[1,1],[1,1]]^T [[1,1],[1,1]] is (4, (1,1)/sqrt(2)),
    # so sigma_max = 2 (hand eigen-decomposition of the 2x2 Gram)
    assert spectral_norm(np.ones((2, 2))) == pytest.approx(2.0, rel=1e-12)


def test_spectral_norm_start_vector_annihilated():
    A = np.array([[1.0, -1.0], [-1.0, 1.0]])
    assert spectral_norm(A) == pytest.approx(2.0, rel=1e-9)


@pytest.mark.parametrize("seed", range(10))
def test_spectral_norm_matches_svd_and_transpose(seed):
    rng = np.random.default_rng(seed)
    A = rng.normal(size=(rng.integers(1, 7), rng.integers(1, 7)))
    ref = np.linalg.svd(A, compute_uv=False)[0]
    assert spectral_norm(A) == pytest.approx(ref, rel=1e-8, abs=1e-12)
    assert spectral_norm(A.T) == pytest.approx(spectral_norm(A), rel=1e-8, abs=1e-12)


@pytest.mark.parametrize("c", [-2.5, 0.0, 0.3, 7.0])
def test_spectral_norm_scaling(c):
    rng = np.random.default_rng(42)
    A = rng.normal(size=(4, 5))
    assert spectral_norm(c * A) == pytest.approx(
        abs(c) * spectral_norm(A), rel=1e-8, abs=1e-12
    )


def _centered_identical_rows():
    # the H of test_local_search's weight_fit_case("identical-rows-0"),
    # centered by its column means: its Gram matrix maps all-ones to 0, and
    # its norm is 0.8032056356252956
    rng = np.random.default_rng(0)
    rng.uniform(size=(6, 8))  # that case's X, drawn first
    H = rng.uniform(size=(3, 8))
    H[2] = H[0]
    return H - H.mean(axis=0)


def _close_top_pair():
    # Q1 diag(1, 1 - 1e-6, 0.5, 0.1) Q2^T: the top two singular values
    # are 1e-6 apart
    rng = np.random.default_rng(1)
    Q1 = np.linalg.qr(rng.normal(size=(6, 4)))[0]
    Q2 = np.linalg.qr(rng.normal(size=(4, 4)))[0]
    return (Q1 * np.array([1.0, 1.0 - 1e-6, 0.5, 0.1])) @ Q2.T


_rng = np.random.default_rng(2)
EXACT_NORM_CASES = {
    "centered-identical-rows": _centered_identical_rows(),
    "close-top-pair": _close_top_pair(),
    "tall": _rng.normal(size=(9, 4)),
    "wide": _rng.normal(size=(3, 11)),
    "rank-deficient": _rng.normal(size=(7, 2)) @ _rng.normal(size=(2, 5)),
}


@pytest.mark.parametrize("name", EXACT_NORM_CASES)
def test_spectral_norm_is_exact(name):
    A = EXACT_NORM_CASES[name]
    ref = np.linalg.norm(A, 2)
    assert abs(spectral_norm(A) - ref) <= 1e-13 * ref


def test_spectral_norm_rejects_nonfinite():
    with pytest.raises(InvalidInputError):
        spectral_norm(np.array([[1.0, np.nan]]))


def test_nnz_zero_matrix():
    assert nnz(np.zeros((3, 4))) == 0
    # tiny entries are nonzero too
    assert nnz(np.array([[1e-13, 0.0], [0.0, -5e-324]])) == 2


def test_nnz_appendix_fixtures():
    H2 = np.array([[0.0, 0.0], [0.0, 0.8], [0.8, 0.0]])
    H0 = np.array([[0.15, 0.15], [0.1, 0.7], [0.7, 0.1]])
    assert nnz(H2) == 2
    assert nnz(H0) == 6


def test_support_ordering_and_cases():
    assert support(np.array([[0.0, 5.0]])) == [(0, 1)]
    H2 = np.array([[0.0, 0.0], [0.0, 0.8], [0.8, 0.0]])
    assert support(H2) == [(1, 1), (2, 0)]
    assert support(np.ones((2, 2))) == [(0, 0), (0, 1), (1, 0), (1, 1)]
    assert support(np.array([[1e-13, 0.0], [0.0, -5e-324]])) == [(0, 0), (1, 1)]


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([1.0, 2.0]))
    with pytest.raises(InvalidInputError):
        as_matrix(np.array([[np.inf, 1.0]]))


def test_config_validation():
    with pytest.raises(InvalidInputError):
        SaaConfig(k=0, ell=3)
    with pytest.raises(InvalidInputError):
        SaaConfig(k=2, ell=4, lam=(1.0, 2.0))  # increasing schedule
    with pytest.warns(UserWarning):
        SaaConfig(k=5, ell=2)
    cfg = SaaConfig(k=2, ell=4, lam=(30.0, 10.0, 1.0))
    assert cfg.final_lambda == 1.0
    assert cfg.lambda_schedule == (30.0, 10.0, 1.0)


@pytest.mark.parametrize(
    "field, value",
    [
        ("tol_objective", float("nan")),
        ("tol_objective", float("inf")),
        ("tol_stationary", float("nan")),
        ("tol_stationary", float("inf")),
        ("lam", float("nan")),
        ("lam", float("inf")),
        ("lam", (float("inf"), 1.0)),
        ("lam", (2.0, float("nan"))),
    ],
)
def test_config_rejects_non_finite_values(field, value):
    with pytest.raises(InvalidInputError, match="finite"):
        SaaConfig(k=2, ell=4, **{field: value})


@pytest.mark.parametrize("lam", [0.0, -1.0, (1.0, 0.0), (2.0, -1.0)])
def test_config_rejects_nonpositive_lambda(lam):
    with pytest.raises(InvalidInputError, match="positive"):
        SaaConfig(k=2, ell=4, lam=lam)


def test_config_ell_below_k_warning_names_the_caller():
    with pytest.warns(UserWarning, match="ell < k") as record:
        SaaConfig(k=5, ell=2)
    assert record[0].filename == __file__


def test_factorization_validation():
    H = np.array([[1.0, 0.0]])
    W = np.array([[0.4, 0.6], [0.5, 0.5]])
    with pytest.raises(InvalidInputError):
        Factorization(H=H, W=W, Wt=np.array([[0.5, 0.5]])).validate()  # shapes
    good = Factorization(
        H=np.array([[1.0, 0.0], [0.0, 2.0]]),
        W=W,
        Wt=np.array([[0.3, 0.7], [1.0, 0.0]]),
    )
    good.validate(ell=4)
    with pytest.raises(InvalidInputError):
        good_neg = good.copy()
        good_neg.H[0, 0] = -1.0
        good_neg.validate()
    with pytest.raises(InvalidInputError):
        bad_rows = good.copy()
        bad_rows.W[0, 0] = 0.9
        bad_rows.validate()
    with pytest.raises(InvalidInputError):
        good.validate(ell=1)


def test_matrix_csv_roundtrip(tmp_path):
    rng = np.random.default_rng(0)
    A = rng.normal(size=(3, 5))
    path = tmp_path / "a.csv"
    write_matrix_csv(path, A)
    B = read_matrix_csv(path)
    np.testing.assert_array_equal(A, B)  # 17 significant digits round-trip
