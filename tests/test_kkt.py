from collections import Counter

import numpy as np
import pytest

from hlsmm import (
    Dataset,
    Hyperparams,
    InvalidArgumentError,
    ModelState,
    completed_kkt_report,
    decision_scores,
    estimate_multiplier,
    fit,
    grad_h,
    kkt_report,
    margin_residuals,
    projection_ambiguous,
    prox_heaviside,
    svd,
    w_stationarity,
    z_stationarity,
)
from hlsmm import model
from hlsmm.kkt import apply_adjoint

from conftest import make_rng, random_dataset


def signed_product(w, data):
    """A(W) with A_i = -y_i X_i: the plain signed product -y_i <W, X_i>."""
    return -data.ys * (data.xs.reshape(data.m, -1) @ w.ravel())


class TestAdjoint:
    def test_adjoint_identity(self):
        # <A(W), lambda> = <W, A*(lambda)> for random W, lambda.
        gen = make_rng(50)
        for _ in range(20):
            data = random_dataset(int(gen.integers(0, 10_000)), m=5, p=3, q=4)
            w = gen.standard_normal((3, 4))
            lam = gen.standard_normal(5)
            lhs = float(signed_product(w, data) @ lam)
            rhs = float(np.dot(w.ravel(), apply_adjoint(lam, data).ravel()))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_operator_matches_margins(self):
        # v = 1 + A(W) - b has to hold... margin residuals written with the
        # A_i = -y_i X_i convention: v = 1 + A(W) + b * (-y).
        data = random_dataset(51)
        gen = make_rng(52)
        w = gen.standard_normal(data.sample_shape)
        b = 0.4
        v = margin_residuals(w, b, data)
        np.testing.assert_allclose(
            v, 1.0 + signed_product(w, data) - b * data.ys, rtol=1e-12)

    def test_operator_is_signed_product_bit_for_bit(self):
        # A zero matrix gives products of either sign of zero; A(W) from the
        # public scores with a bias of -0.0 must keep them, as the plain
        # product -y_i <W, X_i> does.
        data = random_dataset(55, m=40, p=3, q=4)
        gen = make_rng(56)
        for w in (np.zeros(data.sample_shape), gen.standard_normal(data.sample_shape)):
            scored = -data.ys * decision_scores(w, -0.0, data.xs)
            assert scored.tobytes() == signed_product(w, data).tobytes()


class TestEstimateMultiplier:
    def test_feasible_point_gives_zero(self):
        data = random_dataset(53)
        gen = make_rng(54)
        w = gen.standard_normal(data.sample_shape)
        v = margin_residuals(w, 0.2, data)
        state = ModelState(w=w, b=0.2, z=v)
        np.testing.assert_allclose(estimate_multiplier(state, data, 0.7),
                                   np.zeros(data.m), atol=1e-12)

    def test_plug_in_value(self):
        # z = 0 with all margins v = 1 (zero model): lambda_i = 2 sigma.
        data = random_dataset(55)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        np.testing.assert_allclose(estimate_multiplier(state, data, 0.3),
                                   np.full(data.m, 0.6), rtol=1e-12)


class TestZStationarity:
    def test_zero_multiplier(self):
        assert z_stationarity(np.array([1.0, 0.0, -2.0]), np.zeros(3), beta=0.5) == 0.0

    def test_negative_multiplier_at_zero_slack(self):
        assert z_stationarity(np.array([0.0]), np.array([-0.3]), beta=0.5) == pytest.approx(0.3)

    def test_positive_multiplier_at_zero_slack_is_fine(self):
        assert z_stationarity(np.array([0.0]), np.array([0.8]), beta=0.5) == 0.0

    def test_matches_case_split_loop(self):
        gen = make_rng(56)
        for _ in range(50):
            z = np.where(gen.uniform(size=8) < 0.4, 0.0, gen.standard_normal(8))
            lam = gen.standard_normal(8)
            worst = 0.0
            for zi, li in zip(z, lam):
                worst = max(worst, abs(li) if zi != 0 else max(0.0, -li))
            assert z_stationarity(z, lam, beta=1.3) == pytest.approx(worst)


class TestWStationarity:
    def test_zero_state_zero_multiplier(self):
        data = random_dataset(57, p=4, q=3)
        state = ModelState(w=np.zeros((4, 3)), b=0.0, z=np.zeros(data.m))
        assert w_stationarity(state, np.zeros(data.m), data, r=2) == 0.0

    @pytest.mark.parametrize("r", [True, 2.0])
    def test_rank_bound_must_be_an_integer(self, r):
        data = random_dataset(69, p=4, q=3)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        with pytest.raises(InvalidArgumentError, match="rank bound must be an integer"):
            w_stationarity(state, np.zeros(data.m), data, r=r)

    def test_mismatched_w_is_refused_like_kkt_report(self):
        data = random_dataset(70, m=8, p=4, q=3)
        state = ModelState(w=np.ones((3, 3)), b=0.0, z=np.zeros(data.m))
        for check in (lambda: w_stationarity(state, np.zeros(data.m), data, r=2),
                      lambda: kkt_report(state, data, Hyperparams(0.1, 0.1, 2))):
            with pytest.raises(InvalidArgumentError, match="does not match sample"):
                check()

    def _rank_r_state(self, gen, p, q, r):
        w = gen.standard_normal((p, r)) @ gen.standard_normal((r, q))
        return w

    def test_cone_member_gives_zero_residual(self):
        # Craft one sample so that W + A*(lambda) lands exactly in the
        # normal cone U_perp D V_perp^T of a rank-r point.
        gen = make_rng(58)
        p, q, r = 5, 4, 2
        w = self._rank_r_state(gen, p, q, r)
        factors = svd(w)
        d = gen.standard_normal((p - r, q - r))
        cone_member = factors.u_gamma_perp @ d @ factors.v_gamma_perp.T
        # single sample with y=+1, lambda=1: A*(lambda) = -X_1 = cone - W
        x1 = w - cone_member
        data = Dataset(xs=np.stack([x1, -x1]), ys=np.array([1, -1]))
        lam = np.array([1.0, 0.0])
        state = ModelState(w=w, b=0.0, z=np.zeros(2))
        assert w_stationarity(state, lam, data, r) <= 1e-10

    def test_w_is_orthogonal_to_cone(self):
        # With lambda = 0, G = W itself; a rank-r W has no component in the
        # normal cone, so the residual is ||W||_F.
        gen = make_rng(59)
        w = self._rank_r_state(gen, 6, 5, 3)
        data = random_dataset(60, m=4, p=6, q=5)
        state = ModelState(w=w, b=0.0, z=np.zeros(4))
        residual = w_stationarity(state, np.zeros(4), data, r=3)
        assert residual == pytest.approx(np.linalg.norm(w), rel=1e-10)

    def test_rank_deficient_uses_full_norm(self):
        gen = make_rng(61)
        w = self._rank_r_state(gen, 5, 4, 1)  # rank 1 < r = 2
        data = random_dataset(62, m=3, p=5, q=4)
        lam = gen.standard_normal(3)
        state = ModelState(w=w, b=0.0, z=np.zeros(3))
        expected = np.linalg.norm(w + apply_adjoint(lam, data))
        assert w_stationarity(state, lam, data, r=2) == pytest.approx(expected)

    def test_cone_projector_properties(self):
        # The projector used internally: image satisfies U_r^T G' = 0 and
        # G' V_r = 0, and projecting twice equals projecting once.
        gen = make_rng(63)
        w = self._rank_r_state(gen, 6, 4, 2)
        factors = svd(w)
        u_perp, v_perp = factors.u_gamma_perp, factors.v_gamma_perp
        g = gen.standard_normal((6, 4))

        def cone_project(mat):
            return u_perp @ (u_perp.T @ mat @ v_perp) @ v_perp.T

        projected = cone_project(g)
        np.testing.assert_allclose(factors.u[:, :factors.rank].T @ projected,
                                   np.zeros((2, 4)), atol=1e-12)
        np.testing.assert_allclose(projected @ factors.v[:, :factors.rank],
                                   np.zeros((6, 2)), atol=1e-12)
        np.testing.assert_allclose(cone_project(projected), projected, atol=1e-12)


class TestKktReport:
    def test_zero_model_with_feasible_slack(self):
        data = random_dataset(64)
        hp = Hyperparams(beta=0.2, sigma=0.5, rank=1)
        v = margin_residuals(np.zeros(data.sample_shape), 0.0, data)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=v)
        report = kkt_report(state, data, hp)
        assert report.feasibility_residual == 0.0
        assert report.w_residual == 0.0
        assert report.b_residual == 0.0
        assert report.rank_at_solution == 0
        assert report.rank_deficient

    def test_hand_built_exact_kkt_point(self):
        # Reverse-engineered 2x2, m=2 instance where every stationarity
        # condition holds exactly by construction:
        #   W = diag(1, 0), r = 1, b = 0, z = (0, 0), sigma = 1,
        #   X_1 = [[.5, 0], [0, .3]] (y=+1), X_2 = [[-.5, 0], [0, .7]] (y=-1)
        # gives margins v = (1/2, 1/2), multiplier lambda = (1, 1) >= 0,
        # y^T lambda = 0, and G = W - X_1 + X_2 = diag(0, 0.4), which lies in
        # the normal cone spanned by e_2 e_2^T.
        x1 = np.array([[0.5, 0.0], [0.0, 0.3]])
        x2 = np.array([[-0.5, 0.0], [0.0, 0.7]])
        data = Dataset(xs=np.stack([x1, x2]), ys=np.array([1, -1]))
        state = ModelState(w=np.diag([1.0, 0.0]), b=0.0, z=np.zeros(2))
        hp = Hyperparams(beta=0.25, sigma=1.0, rank=1)
        report = kkt_report(state, data, hp)
        np.testing.assert_allclose(report.lam, [1.0, 1.0], atol=1e-12)
        assert report.w_residual <= 1e-10
        assert report.z_residual <= 1e-10
        assert report.b_residual <= 1e-10
        assert report.feasibility_residual == pytest.approx(np.sqrt(0.5))
        assert report.rank_at_solution == 1
        assert not report.rank_deficient

    def test_converged_fit_has_small_residuals(self, synthetic, default_hp):
        data, _, _ = synthetic
        hp = default_hp.with_(tol_step=1e-8, tol_obj=1e-12)
        result = fit(data, hp)
        report = kkt_report(result.model, data, hp)
        assert report.z_residual <= 1e-3
        assert report.w_residual <= 1e-3
        assert report.b_residual <= 1e-3
        # penalty-form coupling gap stays O(1/sigma), not zero
        assert report.feasibility_residual > 0
        # multipliers vanish on every coordinate the slack left active
        active = result.model.z != 0
        assert np.abs(report.lam[active]).max(initial=0.0) <= 1e-4

    def test_report_permutation_invariant(self):
        data = random_dataset(65, m=8)
        gen = make_rng(66)
        w = gen.standard_normal(data.sample_shape)
        z = gen.standard_normal(8)
        hp = Hyperparams(beta=0.3, sigma=0.4, rank=1)
        perm = gen.permutation(8)
        permuted = Dataset(xs=data.xs[perm], ys=data.ys[perm])
        r1 = kkt_report(ModelState(w=w, b=0.1, z=z), data, hp)
        r2 = kkt_report(ModelState(w=w, b=0.1, z=z[perm]), permuted, hp)
        assert r1.w_residual == pytest.approx(r2.w_residual, rel=1e-12)
        assert r1.z_residual == pytest.approx(r2.z_residual, rel=1e-12)
        assert r1.b_residual == pytest.approx(r2.b_residual, rel=1e-12)
        assert r1.feasibility_residual == pytest.approx(r2.feasibility_residual, rel=1e-12)

    def test_serialization_round_trip(self):
        data = random_dataset(67)
        hp = Hyperparams(beta=0.2, sigma=0.5, rank=1)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        report = kkt_report(state, data, hp)
        as_dict = report.to_dict()
        assert set(as_dict) >= {"w_residual", "z_residual", "b_residual",
                                "feasibility_residual", "rank_at_solution"}
        text = report.to_text()
        assert "w_residual" in text and "lambda" not in text

    @pytest.mark.parametrize("value", [np.inf, np.nan, True, 0.0])
    def test_scalars_follow_the_hyperparameter_rule(self, value):
        data = random_dataset(71)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        lam = np.zeros(data.m)
        calls = [lambda: grad_h(state.w, state.z, 0.0, data, sigma=value),
                 lambda: estimate_multiplier(state, data, value),
                 lambda: z_stationarity(state.z, lam, beta=value),
                 lambda: prox_heaviside(state.z, value)]
        if value != 0.0:  # a zero tolerance is valid
            calls.append(lambda: z_stationarity(state.z, lam, 0.5, tol=value))
        for call in calls:
            with pytest.raises(InvalidArgumentError):
                call()

    def test_bad_multiplier_length(self):
        data = random_dataset(68)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        with pytest.raises(InvalidArgumentError):
            w_stationarity(state, np.zeros(data.m + 1), data, r=1)

    @pytest.mark.parametrize("w", [
        np.outer([1.0, 2.0, 0.5, -1.0], [0.3, -0.7, 1.1]),        # rank 1 = r
        np.vstack([np.diag([1.0, 1.0, 0.5]), np.zeros((1, 3))]),  # sigma_1 = sigma_2
        np.zeros((4, 3)),                                          # rank 0 < r
    ])
    def test_one_svd_and_one_margin_pass(self, w, monkeypatch):
        data = random_dataset(69, m=12, p=4, q=3)
        z = make_rng(70).standard_normal(12)
        state = ModelState(w=w, b=0.2, z=z)
        hp = Hyperparams(beta=0.3, sigma=0.4, rank=1 if w.any() else 2)
        lam = estimate_multiplier(state, data, hp.sigma)
        expected = (w_stationarity(state, lam, data, hp.rank),
                    projection_ambiguous(w, hp.rank), svd(w).rank)

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(model, "_margins", counted("margins", model._margins))
        monkeypatch.setattr(model, "_scores", counted("scores", model._scores))
        report = kkt_report(state, data, hp)
        assert calls == {"svd": 1, "margins": 1, "scores": 1}
        assert report.lam.tobytes() == lam.tobytes()
        assert (report.w_residual, report.projection_ambiguous,
                report.rank_at_solution) == expected

    def test_completed_report_is_report_of_prox_completed_slack(self, monkeypatch):
        data = random_dataset(71, m=15, p=4, q=3)
        w = make_rng(72).standard_normal((4, 3))
        hp = Hyperparams(beta=0.3, sigma=0.4, rank=2)
        z = prox_heaviside(margin_residuals(w, -0.1, data), hp.beta / (2.0 * hp.sigma))
        expected = kkt_report(ModelState(w=w, b=-0.1, z=z), data, hp, tol=1e-6)
        calls = Counter()
        margins = model._margins

        def counted(*args):
            calls["margins"] += 1
            return margins(*args)

        monkeypatch.setattr(model, "_margins", counted)
        report = completed_kkt_report(w, -0.1, data, hp, tol=1e-6)
        assert calls == {"margins": 1}
        assert report.lam.tobytes() == expected.lam.tobytes()
        assert report.to_dict() == expected.to_dict()
