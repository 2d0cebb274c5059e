from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tumaloc.metrics import (
    WeightedPointSet,
    gospa_like,
    misdetection,
    target_type,
    transport_plan,
    tv_distance,
    wasserstein_p,
)
from tumaloc.scene import Scene


def enumerate_transport_vertices(a, b, cost):
    """Oracle: optimal transportation cost by basic-solution enumeration.

    Vertices of the transportation polytope are spanning trees of the
    complete bipartite graph; solve the tree system for every edge subset of
    size n + m - 1 and keep feasible ones.  Exponential, fine for n*m <= 12.
    """
    n, m = cost.shape
    edges = [(i, j) for i in range(n) for j in range(m)]
    best = np.inf
    for subset in combinations(edges, n + m - 1):
        A = np.zeros((n + m, len(subset)))
        for idx, (i, j) in enumerate(subset):
            A[i, idx] = 1.0
            A[n + j, idx] = 1.0
        rhs = np.concatenate([a, b])
        # one constraint is redundant; least-squares solves the tree system
        sol, residual, rank, _ = np.linalg.lstsq(A, rhs, rcond=None)
        if rank < len(subset):
            continue
        if np.linalg.norm(A @ sol - rhs) > 1e-9:
            continue
        if np.any(sol < -1e-9):
            continue
        val = sum(cost[i, j] * max(s, 0.0) for (i, j), s in zip(subset, sol))
        best = min(best, val)
    return best


class TestTvDistance:
    def test_identical(self):
        t = np.array([0.25, 0.5, 0.25])
        assert tv_distance(t, t) == 0.0

    def test_half(self):
        assert tv_distance([0.5, 0.5], [1.0, 0.0]) == pytest.approx(0.5)

    def test_disjoint_supports(self):
        assert tv_distance([1.0, 0.0], [0.0, 1.0]) == pytest.approx(1.0)

    def test_disjoint_count_types_stay_at_one(self):
        # |t - t_hat| sums to 2 + 2 ulp on these disjoint count types
        t = np.array([2, 1, 2, 2, 1, 0, 0, 4, 3, 0, 0, 1, 4, 1, 0, 4]) / 25
        t_hat = np.array([0, 0, 0, 0, 0, 1, 2, 0, 0, 1, 0, 0, 0, 0, 1, 0]) / 5
        assert 0.5 * np.abs(t - t_hat).sum() > 1.0
        assert tv_distance(t, t_hat) == 1.0

    def test_rejects_mismatch_and_nondistribution(self):
        with pytest.raises(ValueError):
            tv_distance([1.0], [0.5, 0.5])
        with pytest.raises(ValueError):
            tv_distance([0.7, 0.7], [0.5, 0.5])

    @given(st.integers(2, 8), st.integers(0, 1000))
    @settings(max_examples=100, deadline=None)
    def test_bounds_and_permutation_invariance(self, n, seed):
        rng = np.random.default_rng(seed)
        t = rng.dirichlet(np.ones(n))
        s = rng.dirichlet(np.ones(n))
        d = tv_distance(t, s)
        assert 0.0 <= d <= 1.0
        perm = rng.permutation(n)
        assert tv_distance(t[perm], s[perm]) == pytest.approx(d, abs=1e-12)


class TestTargetType:
    def _scene(self, reported, T):
        K = len(reported)
        return Scene(
            targets=np.zeros((T, 2)),
            sensors=np.zeros((K, 2)),
            sensor_zones=np.zeros(K, dtype=int),
            reported=np.array(reported),
        )

    def test_all_report_one_target(self):
        sc = self._scene([1, 1, 1], T=3)
        omega, T_d = target_type(sc)
        np.testing.assert_allclose(omega, [0, 1, 0])
        assert T_d == 1

    def test_counting_bound(self, rng):
        for _ in range(20):
            T, K = 5, 8
            reported = rng.integers(-1, T, size=K)
            if not np.any(reported >= 0):
                continue
            sc = self._scene(list(reported), T=T)
            omega, T_d = target_type(sc)
            assert T_d <= min(T, (reported >= 0).sum())
            assert omega.sum() == pytest.approx(1.0)

    def test_no_active_sensors_raises(self):
        sc = self._scene([-1, -1], T=2)
        with pytest.raises(ValueError):
            target_type(sc)


class TestWasserstein:
    def test_identical_point_sets(self, rng):
        pts = rng.uniform(0, 10, size=(5, 2))
        w = rng.dirichlet(np.ones(5))
        mu = WeightedPointSet(pts, w)
        assert wasserstein_p(mu, mu, 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_single_atoms_distance(self):
        a = WeightedPointSet(np.array([[0.0, 0.0]]), np.array([1.0]))
        b = WeightedPointSet(np.array([[3.0, 4.0]]), np.array([1.0]))
        for p in (1.0, 2.0, 3.0):
            assert wasserstein_p(a, b, p) == pytest.approx(5.0)

    def test_two_by_two_vertex_oracle(self):
        pts1 = np.array([[0.0, 0.0], [1.0, 0.0]])
        pts2 = np.array([[0.0, 1.0], [1.0, 1.0]])
        a = np.array([0.5, 0.5])
        cost = ((pts1[:, None] - pts2[None]) ** 2).sum(-1)
        _, got = transport_plan(
            WeightedPointSet(pts1, a), WeightedPointSet(pts2, a), 2.0
        )
        want = enumerate_transport_vertices(a, a, cost)
        assert got == pytest.approx(want, abs=1e-9)
        assert got == pytest.approx(1.0)  # straight up, cost 1 each

    def test_random_small_instances_vertex_oracle(self, rng):
        for trial in range(15):
            n, m = int(rng.integers(2, 4)), int(rng.integers(2, 4))
            p1 = rng.uniform(0, 5, size=(n, 2))
            p2 = rng.uniform(0, 5, size=(m, 2))
            a = rng.dirichlet(np.ones(n))
            b = rng.dirichlet(np.ones(m))
            cost = ((p1[:, None] - p2[None]) ** 2).sum(-1)
            _, got = transport_plan(
                WeightedPointSet(p1, a), WeightedPointSet(p2, b), 2.0
            )
            want = enumerate_transport_vertices(a, b, cost)
            assert got == pytest.approx(want, abs=1e-9)

    def test_plan_marginals_feasible(self, rng):
        n, m = 6, 9
        p1 = rng.uniform(0, 50, size=(n, 2))
        p2 = rng.uniform(0, 50, size=(m, 2))
        a = rng.dirichlet(np.ones(n))
        b = rng.dirichlet(np.ones(m))
        plan, cost = transport_plan(WeightedPointSet(p1, a), WeightedPointSet(p2, b), 2.0)
        np.testing.assert_allclose(plan.sum(axis=1), a, atol=1e-9)
        np.testing.assert_allclose(plan.sum(axis=0), b, atol=1e-9)
        want_cost = (plan * ((p1[:, None] - p2[None]) ** 2).sum(-1)).sum()
        assert cost == pytest.approx(want_cost, rel=1e-9)

    def test_metric_axioms_on_fixed_support(self, rng):
        pts = rng.uniform(0, 20, size=(5, 2))
        ws = [rng.dirichlet(np.ones(5)) for _ in range(3)]
        sets = [WeightedPointSet(pts, w) for w in ws]
        d01 = wasserstein_p(sets[0], sets[1], 2.0)
        d10 = wasserstein_p(sets[1], sets[0], 2.0)
        assert d01 == pytest.approx(d10, rel=1e-9, abs=1e-9)
        d02 = wasserstein_p(sets[0], sets[2], 2.0)
        d12 = wasserstein_p(sets[1], sets[2], 2.0)
        assert d02 <= d01 + d12 + 1e-9
        assert wasserstein_p(sets[0], sets[0], 2.0) == pytest.approx(0.0, abs=1e-9)

    def test_scaling_linearity(self, rng):
        p1 = rng.uniform(0, 10, size=(4, 2))
        p2 = rng.uniform(0, 10, size=(6, 2))
        a = rng.dirichlet(np.ones(4))
        b = rng.dirichlet(np.ones(6))
        d1 = wasserstein_p(WeightedPointSet(p1, a), WeightedPointSet(p2, b), 2.0)
        s = 7.3
        d2 = wasserstein_p(WeightedPointSet(s * p1, a), WeightedPointSet(s * p2, b), 2.0)
        assert d2 == pytest.approx(s * d1, rel=1e-9)

    def test_zero_weight_atoms_pruned(self):
        a = WeightedPointSet(np.array([[0.0, 0.0], [99.0, 99.0]]), np.array([1.0, 0.0]))
        b = WeightedPointSet(np.array([[1.0, 0.0]]), np.array([1.0]))
        assert wasserstein_p(a, b, 2.0) == pytest.approx(1.0)

    def test_empty_support_rejected(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((1, 2)), np.array([0.0]))
        good = WeightedPointSet(np.zeros((1, 2)), np.array([1.0]))
        bad = WeightedPointSet(np.array([[0.0, 0.0], [1.0, 1.0]]), np.array([1.0, 0.0]))
        # pruning the second set is fine; an all-zero one never validates
        assert wasserstein_p(good, bad, 2.0) == pytest.approx(0.0, abs=1e-9)


class TestWeightedPointSet:
    def test_rejects_negative_weights(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 2)), np.array([1.5, -0.5]))

    def test_rejects_unnormalized(self):
        with pytest.raises(ValueError):
            WeightedPointSet(np.zeros((2, 2)), np.array([0.6, 0.6]))


class TestMisdetectionAndGospa:
    def test_misdetection_values(self):
        assert misdetection(50, 50) == 0.0
        assert misdetection(0, 50) == 1.0
        assert misdetection(44, 50) == pytest.approx(0.12)

    def test_misdetection_rejects_bad_counts(self):
        with pytest.raises(ValueError):
            misdetection(5, 4)

    def test_gospa_zero(self):
        assert gospa_like(0.0, 10, 10, c=37.5, p=2.0) == 0.0

    def test_gospa_pure_misdetection(self):
        got = gospa_like(0.0, 5, 10, c=37.5, p=2.0)
        assert got == pytest.approx(37.5 / np.sqrt(2))
        assert got == pytest.approx(26.5165, abs=1e-3)

    def test_gospa_combines(self):
        w, c, p = 10.0, 37.5, 2.0
        got = gospa_like(w, 45, 50, c, p)
        assert got == pytest.approx(np.sqrt(w**2 + c**2 * 0.1))
