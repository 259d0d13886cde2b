import numpy as np
import pytest

from hlsmm import InvalidArgumentError, project_rank, projection_ambiguous, svd

from conftest import make_rng


class TestSvd:
    def test_diagonal_matrix(self):
        f = svd(np.diag([3.0, 2.0, 1.0]))
        np.testing.assert_allclose(f.sigma, [3.0, 2.0, 1.0])
        np.testing.assert_allclose(np.abs(f.u), np.eye(3), atol=1e-12)
        np.testing.assert_allclose(np.abs(f.v), np.eye(3), atol=1e-12)
        assert f.rank == 3

    def test_zero_matrix(self):
        f = svd(np.zeros((2, 3)))
        np.testing.assert_allclose(f.sigma, [0.0, 0.0])
        assert f.gamma.size == 0
        assert f.rank == 0

    def test_reconstruction_random(self):
        gen = make_rng(1)
        w = gen.standard_normal((5, 4))
        f = svd(w)
        k = f.sigma.size
        err = np.linalg.norm((f.u[:, :k] * f.sigma) @ f.v[:, :k].T - w) / np.linalg.norm(w)
        assert err <= 1e-10

    def test_factor_invariants(self):
        gen = make_rng(2)
        for trial in range(20):
            p, q = gen.integers(1, 8, size=2)
            w = gen.standard_normal((p, q))
            f = svd(w)
            assert np.all(np.diff(f.sigma) <= 0)
            assert np.all(f.sigma >= 0)
            np.testing.assert_allclose(f.u.T @ f.u, np.eye(p), atol=1e-10)
            np.testing.assert_allclose(f.v.T @ f.v, np.eye(q), atol=1e-10)
            assert np.array_equal(f.gamma, np.flatnonzero(f.sigma > f.zero_tol))

    def test_gamma_zero_tolerance_is_relative(self):
        w = np.diag([1.0, 1e-13])  # second value below 1e-12 * sigma_1
        assert svd(w).rank == 1

    def test_full_bases_for_rectangular(self):
        f = svd(make_rng(3).standard_normal((6, 3)))
        assert f.u.shape == (6, 6)
        assert f.v.shape == (3, 3)
        assert f.u_gamma_perp.shape == (6, 3)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            svd(np.array([[1.0, np.nan], [0.0, 1.0]]))
        with pytest.raises(InvalidArgumentError):
            svd(np.array([1.0, 2.0]))

    def test_deterministic(self):
        w = make_rng(4).standard_normal((4, 4))
        f1, f2 = svd(w), svd(w)
        assert np.array_equal(f1.u, f2.u)
        assert np.array_equal(f1.sigma, f2.sigma)
        assert np.array_equal(f1.v, f2.v)


class TestProjectRank:
    def test_diagonal_case(self):
        w = np.diag([3.0, 2.0, 1.0])
        projected = project_rank(w, 2)
        np.testing.assert_allclose(projected, np.diag([3.0, 2.0, 0.0]), atol=1e-12)
        assert np.linalg.norm(w - projected) == pytest.approx(1.0)

    def test_fixed_point_when_rank_already_low(self):
        gen = make_rng(5)
        w = np.outer(gen.standard_normal(4), gen.standard_normal(5))  # rank 1
        np.testing.assert_allclose(project_rank(w, 2), w, atol=1e-12)

    def test_beats_random_rank2_candidates(self):
        # Random-sampling optimality check: no random rank-2 matrix of the
        # same Frobenius scale may come closer to w.
        gen = make_rng(6)
        w = gen.standard_normal((6, 5))
        projected = project_rank(w, 2)
        best_dist = np.linalg.norm(w - projected)
        left = gen.standard_normal((10_000, 6, 2))
        right = gen.standard_normal((10_000, 2, 5))
        candidates = left @ right
        norms = np.linalg.norm(candidates.reshape(10_000, -1), axis=1)
        candidates *= (np.linalg.norm(projected) / norms)[:, None, None]
        dists = np.linalg.norm((candidates - w).reshape(10_000, -1), axis=1)
        assert best_dist <= dists.min()

    def test_idempotent(self):
        gen = make_rng(7)
        for _ in range(10):
            w = gen.standard_normal((7, 4))
            once = project_rank(w, 2)
            twice = project_rank(once, 2)
            assert np.linalg.norm(twice - once) <= 1e-10

    def test_eckart_young_residual_identity(self):
        gen = make_rng(8)
        for _ in range(25):
            w = gen.standard_normal((8, 6))
            r = int(gen.integers(1, 6))
            tail = np.linalg.svd(w, compute_uv=False)[r:]
            residual_sq = np.linalg.norm(w - project_rank(w, r)) ** 2
            assert abs(residual_sq - float(tail @ tail)) <= 1e-9 * np.linalg.norm(w) ** 2

    def test_rank_bound_out_of_range(self):
        w = np.eye(3)
        for bad in (0, 3, 5, -1):
            with pytest.raises(InvalidArgumentError):
                project_rank(w, bad)

    def test_bool_rank_bound_is_refused(self):
        with pytest.raises(InvalidArgumentError, match="must be an integer, got True"):
            project_rank(np.eye(4), True)
        with pytest.raises(InvalidArgumentError, match="must be an integer, got True"):
            projection_ambiguous(np.eye(4), True)

    def test_ambiguity_flag(self):
        assert projection_ambiguous(np.diag([2.0, 1.0, 1.0]), 2)
        assert not projection_ambiguous(np.diag([2.0, 1.0, 0.5]), 2)
        assert not projection_ambiguous(np.zeros((3, 3)), 1)
