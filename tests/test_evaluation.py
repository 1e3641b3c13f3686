import math

import numpy as np
import pytest

from sparse_aa import (
    InvalidInputError,
    appendixB_fixture,
    archetype_distance,
    cluster_metrics,
    example1_fixture,
    nearest_row_assignment,
    nnz,
    penalized_constants,
    robustness_report,
    set_hull_distance,
    synth_instance,
    robustness_constants,
)
from oracles import purity_entropy_oracle


def test_appendixB_facts():
    H0, H1, H2, make_x0 = appendixB_fixture()
    X0 = make_x0(seed=0)
    assert X0.shape == (53, 2)
    assert set_hull_distance(X0, H0) <= 1e-8
    assert set_hull_distance(H0, X0) <= 1e-8
    assert set_hull_distance(X0, H1) <= 1e-8
    assert set_hull_distance(H1, X0) > 1e-4
    assert nnz(H2) == 2
    assert nnz(H0) == 6


def test_example1_facts_across_theta():
    for theta in (0.05, math.pi / 8, 0.7):
        X_theta, Z_theta, H_theta, H0, X0 = example1_fixture(theta)
        np.testing.assert_allclose(X_theta, X0 + Z_theta, atol=1e-12)
        assert set_hull_distance(X_theta, H_theta) <= 1e-8
        assert np.linalg.norm(Z_theta, axis=1).max() <= math.sqrt(2.0) + 1e-12


def test_example1_weak_bound_and_divergence():
    theta = math.pi / 8
    _, _, H_theta, H0, _ = example1_fixture(theta)
    assert archetype_distance(H0, H_theta) <= 4.0

    vals = []
    for theta in (0.5, 0.7, 0.78, math.pi / 4 - 1e-4):
        _, _, H_theta, H0, _ = example1_fixture(theta)
        vals.append(archetype_distance(H_theta, H0))
    assert all(b > a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1e3


def test_example1_rejects_bad_theta():
    for theta in (0.0, math.pi / 4, -0.3, 2.0):
        with pytest.raises(InvalidInputError):
            example1_fixture(theta)


def test_robustness_constants_plug_in():
    c = robustness_constants(m=10, k=4, kappa=2.0, sigma_min=0.5)
    assert c["c1"] == pytest.approx(4 * 8 * 4 + (1 + math.sqrt(2)) * 8)
    assert c["c7"] == pytest.approx(0.5 / (6 * 2.0))
    assert c["c5"] == pytest.approx((4 + 8) + 2 * 10 * 4)


def test_penalized_constants_plug_in_and_blow_up():
    m, k, kappa = 10, 3, 2.0
    c1_mid, c2_mid, c3_mid = penalized_constants(m, k, kappa, 1.0)
    c3_expect = (1 + m) * k + k * math.sqrt(m) * math.sqrt(m + k**2) + math.sqrt(
        m * k + k**3
    )
    assert c3_mid == pytest.approx(c3_expect)
    for lam in (1e-6, 1e6):
        c1, c2, c3 = penalized_constants(m, k, kappa, lam)
        assert c1 > c1_mid
        assert c2 > c2_mid
        assert c3 > c3_mid
    with pytest.raises(InvalidInputError):
        penalized_constants(m, k, kappa, 0.0)


def test_penalized_constants_monotone_in_m_and_k():
    for lam in (0.5, 1.0, 5.0):
        base = penalized_constants(8, 3, 2.0, lam)
        more_m = penalized_constants(12, 3, 2.0, lam)
        more_k = penalized_constants(8, 5, 2.0, lam)
        assert all(b > a for a, b in zip(base, more_m))
        assert all(b > a for a, b in zip(base, more_k))


def test_robustness_report_perfect_recovery():
    _, X0_mix, H0, W0, _ = synth_instance(10, 6, 3, 0.0, zero_frac=0.4, seed=1)
    X0 = np.vstack([X0_mix, H0])  # separable: archetypes are data rows
    Z = np.zeros_like(X0)
    ell = nnz(H0)
    rep = robustness_report(H0, H0, X0, Z, ell)
    assert rep.weak == pytest.approx(0.0, abs=1e-12)
    assert rep.strong == pytest.approx(0.0, abs=1e-12)
    assert rep.delta == 0.0
    assert rep.beta == pytest.approx(0.0, abs=1e-12)
    assert rep.weak_via_strong_holds and rep.x0_fit_holds
    assert rep.weak_bound_holds
    assert rep.sep_weak_holds
    # noiseless: strong condition reduces to 0 <= c7
    assert rep.strong_condition_holds
    assert rep.strong_bound_holds


def test_robustness_report_example1():
    theta = math.pi / 8
    X_theta, Z_theta, H_theta, H0, X0 = example1_fixture(theta)
    rep = robustness_report(H0, H_theta, X0, Z_theta, ell=4)
    assert rep.weak <= 4.0
    assert rep.weak_via_strong_holds
    assert rep.x0_fit_holds
    assert rep.spread_b == pytest.approx(math.sqrt(2.0))
    assert rep.delta <= math.sqrt(2.0) + 1e-12


def test_robustness_report_rank_deficient_h0():
    H0 = np.array([[1.0, 1.0], [2.0, 2.0]])  # rank one
    X0 = np.array([[1.0, 1.0], [1.5, 1.5]])
    Z = np.zeros_like(X0)
    rep = robustness_report(H0, H0, X0, Z, ell=4)
    assert rep.constants is None
    assert rep.weak_bound_holds is None
    assert rep.weak == pytest.approx(0.0, abs=1e-12)  # distances still reported


def test_robustness_report_bound_fields_consistent():
    X, X0, H0, W0, Z = synth_instance(12, 5, 3, 0.1, seed=4)
    rep = robustness_report(H0, H0 + 0.01, X0, Z, ell=15)
    assert rep.alpha == pytest.approx(rep.delta + rep.beta)
    assert rep.weak_via_strong_rhs == pytest.approx(
        2 * 3 * rep.spread_b**2 + 2 * rep.strong
    )
    assert rep.weak_via_strong_holds


def test_cluster_assign_cases():
    H = np.array([[0.0, 0.0], [10.0, 10.0]])
    X = np.array([[0.1, 0.0], [9.0, 9.5], [0.2, 0.1]])
    np.testing.assert_array_equal(nearest_row_assignment(X, H), [0, 1, 0])
    one = nearest_row_assignment(X, H[:1])
    np.testing.assert_array_equal(one, [0, 0, 0])
    # ties go to the lowest archetype index
    H_tie = np.array([[1.0, 0.0], [1.0, 0.0]])
    np.testing.assert_array_equal(nearest_row_assignment(np.array([[1.0, 0.0]]), H_tie), [0])


def test_cluster_assign_matches_pairwise_oracle():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(20, 4))
    H = rng.normal(size=(5, 4))
    got = nearest_row_assignment(X, H)
    want = [
        int(np.argmin([np.linalg.norm(x - h) for h in H])) for x in X
    ]
    np.testing.assert_array_equal(got, want)


def test_cluster_metrics_perfect_permutation():
    true = np.array([0, 0, 1, 1, 2, 2])
    est = np.array([2, 2, 0, 0, 1, 1])  # relabeled but pure
    cm = cluster_metrics(true, est, 3)
    assert cm.purity == 1.0
    assert cm.entropy == 0.0


def test_cluster_metrics_hand_counts():
    cm = cluster_metrics([0, 0, 1, 1], [0, 1, 0, 1], 2)
    assert cm.purity == pytest.approx(0.5)
    assert cm.entropy == pytest.approx(1.0)

    cm2 = cluster_metrics([0, 0, 1, 1], [0, 0, 0, 0], 2)
    assert cm2.purity == pytest.approx(0.5)
    assert cm2.entropy == pytest.approx(1.0)  # one cluster holds all points


def test_cluster_metrics_empty_cluster_convention():
    # the estimated cluster 1 is empty; its rows contribute zero entropy
    cm = cluster_metrics([0, 1], [0, 0], 2)
    assert cm.confusion[1].sum() == 0
    assert math.isfinite(cm.entropy)


@pytest.mark.parametrize("seed", range(50))
def test_cluster_metrics_match_oracle(seed):
    rng = np.random.default_rng(seed)
    k = int(rng.integers(1, 6))
    m = int(rng.integers(1, 40))
    true = rng.integers(0, k, size=m)
    est = rng.integers(0, k, size=m)
    cm = cluster_metrics(true, est, k)
    p_ref, e_ref = purity_entropy_oracle(true, est, k)
    assert cm.purity == pytest.approx(p_ref, abs=1e-12)
    assert cm.entropy == pytest.approx(e_ref, abs=1e-12)
    assert 1.0 / k <= cm.purity + 1e-12
    assert cm.purity <= 1.0
    assert -1e-12 <= cm.entropy <= 1.0 + 1e-12


def test_cluster_metrics_rejects_bad_labels():
    with pytest.raises(InvalidInputError):
        cluster_metrics([0, 3], [0, 1], 2)
    with pytest.raises(InvalidInputError):
        cluster_metrics([0, 1], [0], 2)


def test_synth_instance_contracts():
    X, X0, H0, W0, Z = synth_instance(20, 10, 3, 0.0, seed=7)
    np.testing.assert_array_equal(X, X0)
    assert set_hull_distance(X0, H0) <= 1e-8

    X, X0, H0, W0, Z = synth_instance(15, 8, 3, 0.3, zero_frac=0.2, seed=8)
    assert nnz(H0) <= 0.8 * 8 * 3
    np.testing.assert_allclose(W0.sum(axis=1), 1.0, atol=1e-12)
    np.testing.assert_array_equal(X, np.maximum(X0 + Z, 0.0))

    again = synth_instance(15, 8, 3, 0.3, zero_frac=0.2, seed=8)
    for a, b in zip((X, X0, H0, W0, Z), again):
        np.testing.assert_array_equal(a, b)


def test_synth_instance_validation():
    with pytest.raises(InvalidInputError):
        synth_instance(5, 5, 2, -0.1)
    with pytest.raises(InvalidInputError):
        synth_instance(5, 5, 2, 0.1, zero_frac=1.0)


@pytest.mark.parametrize("m, n, k", [(0, 5, 2), (5, 0, 2), (5, 5, 0)])
def test_synth_instance_rejects_empty_shapes(m, n, k):
    with pytest.raises(InvalidInputError, match="at least 1"):
        synth_instance(m, n, k, 0.1)


@pytest.mark.parametrize("sigma_z", [math.nan, math.inf, -0.1])
def test_synth_instance_rejects_bad_noise_level(sigma_z):
    with pytest.raises(InvalidInputError, match="sigma_z"):
        synth_instance(5, 4, 2, sigma_z)


def test_synth_instance_rejects_negative_seed():
    with pytest.raises(InvalidInputError, match="seed"):
        synth_instance(5, 4, 2, 0.1, seed=-1)
