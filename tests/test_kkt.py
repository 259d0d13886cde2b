from collections import Counter

import numpy as np
import pytest

from hlsmm import (
    Dataset,
    Hyperparams,
    InvalidArgumentError,
    KktReport,
    ModelState,
    NumericalError,
    completed_kkt_report,
    decision_scores,
    fit,
    grad_h,
    kkt_report,
    margin_residuals,
    prox_heaviside,
    svd,
    z_stationarity,
)
from hlsmm import kkt, model, solver
from hlsmm.solver import _Problem

from conftest import calls_to, make_rng, random_dataset


def signed_product(w, data):
    """A(W) with A_i = -y_i X_i: the plain signed product -y_i <W, X_i>."""
    return -data.ys * (data.xs.reshape(data.m, -1) @ w.ravel())


def design(data):
    return data.xs.reshape(data.m, -1)


class TestAdjoint:
    def test_adjoint_identity(self):
        # <y o S(W), c> = <W, X^T (y o c)>: _adjoint is the transpose of the
        # signed scores, for random W and c.
        gen = make_rng(50)
        for _ in range(20):
            data = random_dataset(int(gen.integers(0, 10_000)), m=5, p=3, q=4)
            w = gen.standard_normal((3, 4))
            c = gen.standard_normal(5)
            lhs = float((data.ys * model._scores(design(data), w[None])[0]) @ c)
            rhs = float(np.dot(w.ravel(), model._adjoint(design(data), data.ys, c)))
            assert abs(lhs - rhs) <= 1e-12 * max(1.0, abs(lhs))

    def test_report_gradient_is_the_solver_gradient(self, synthetic, default_hp):
        # G = W + A*(lambda) of kkt_report is grad h(W) at the fitted point,
        # bit for bit, and the solver's gradient is W + 2 sigma X^T (y gap)
        # written out, bit for bit on every lane.
        data, _, _ = synthetic
        state = fit(data, default_hp).model
        with calls_to(kkt, "_cone_residual") as calls:
            kkt_report(state, data, default_hp)
        grad = grad_h(state.w, state.z, state.b, data, default_hp.sigma)
        assert calls[0].args[0].tobytes() == grad.tobytes()

        gen = make_rng(73)
        w = np.stack([state.w, gen.standard_normal(data.sample_shape), np.zeros(data.sample_shape)])
        gap = gen.standard_normal((3, data.m))
        sigma = np.array([default_hp.sigma, 0.3, 2.0])
        x = design(data)
        inline = w + (2.0 * sigma)[:, None, None] * (
            x.T @ (data.ys * gap)[..., None]).reshape(w.shape)
        got = _Problem(data).gradient(w, gap, sigma)
        for lane in range(3):
            assert got[lane].tobytes() == inline[lane].tobytes()

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
    """The report's penalty-gradient multiplier estimate lambda = -2 sigma (z - v)."""

    def test_feasible_point_gives_zero(self):
        data = random_dataset(53)
        gen = make_rng(54)
        w = gen.standard_normal(data.sample_shape)
        v = margin_residuals(w, 0.2, data)
        state = ModelState(w=w, b=0.2, z=v)
        report = kkt_report(state, data, Hyperparams(beta=0.1, sigma=0.7, rank=1))
        np.testing.assert_allclose(report.lam, np.zeros(data.m), atol=1e-12)

    def test_plug_in_value(self):
        # z = 0 with all margins v = 1 (zero model): lambda_i = 2 sigma.
        data = random_dataset(55)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        report = kkt_report(state, data, Hyperparams(beta=0.1, sigma=0.3, rank=1))
        np.testing.assert_allclose(report.lam, np.full(data.m, 0.6), rtol=1e-12)


class TestZStationarity:
    def test_zero_multiplier(self):
        assert z_stationarity(np.array([1.0, 0.0, -2.0]), np.zeros(3)) == 0.0

    def test_negative_multiplier_at_zero_slack(self):
        assert z_stationarity(np.array([0.0]), np.array([-0.3])) == pytest.approx(0.3)

    def test_positive_multiplier_at_zero_slack_is_fine(self):
        assert z_stationarity(np.array([0.0]), np.array([0.8])) == 0.0

    def test_lengths_that_differ_are_refused(self):
        with pytest.raises(InvalidArgumentError, match="^z and lambda lengths differ$"):
            z_stationarity(np.zeros(3), np.zeros(4))

    def test_matches_case_split_loop(self):
        gen = make_rng(56)
        for _ in range(50):
            z = np.where(gen.uniform(size=8) < 0.4, 0.0, gen.standard_normal(8))
            lam = gen.standard_normal(8)
            worst = 0.0
            for zi, li in zip(z, lam):
                worst = max(worst, abs(li) if zi != 0 else max(0.0, -li))
            assert z_stationarity(z, lam) == pytest.approx(worst)


def beyond_float_range(data):
    """(W, b) whose completed report has G = W with ||W|| = 2e308: the features
    are zero off row 1 and W is 1e308 on row 0, so every score is 0."""
    xs = np.zeros_like(data.xs)
    xs[:, 1] = data.xs[:, 1]
    w = np.zeros(data.sample_shape)
    w[0] = 1e308
    return w, 0.0, Dataset(xs=xs, ys=data.ys)


def full_bases(w, r):
    """U_perp and V_perp: the complements of the r leading singular vectors of w."""
    u, _, vh = np.linalg.svd(w, full_matrices=True)
    return u[:, r:], vh[r:].T


def gradient_at(w, lam, data):
    """G = W + A*(lambda) = W - X^T (y lambda), the solver's gradient at the gap
    -lambda with sigma = 1/2 (so 2 sigma = 1 and lambda = -2 sigma gap exactly)."""
    gap = -np.asarray(lam, dtype=np.float64)
    return _Problem(data).gradient(w[None], gap[None], np.array([0.5]))[0]


def cone_residual(w, lam, data, r):
    """The W residual of a report on (W, lambda) at rank bound r."""
    return kkt._cone_residual(gradient_at(w, lam, data), svd(w), r)


class TestWStationarity:
    """The W residual: distance of W + A*(lambda) from the rank set's normal cone."""

    def test_zero_state_zero_multiplier(self):
        data = random_dataset(57, p=4, q=3)
        assert cone_residual(np.zeros((4, 3)), np.zeros(data.m), data, r=2) == 0.0

    @pytest.mark.parametrize("r", [True, 2.0])
    def test_rank_bound_must_be_an_integer(self, r):
        # The report's rank bound is Hyperparams.rank, refused on construction.
        with pytest.raises(InvalidArgumentError, match="rank must be an integer"):
            Hyperparams(0.1, 0.1, r)

    def test_mismatched_w_is_refused_like_kkt_report(self):
        data = random_dataset(70, m=8, p=4, q=3)
        state = ModelState(w=np.ones((3, 3)), b=0.0, z=np.zeros(data.m))
        hp = Hyperparams(0.1, 0.1, 2)
        for check in (lambda: completed_kkt_report(state.w, 0.0, data, hp),
                      lambda: kkt_report(state, data, hp)):
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
        u_perp, v_perp = full_bases(w, r)
        cone_member = u_perp @ gen.standard_normal((p - r, q - r)) @ v_perp.T
        # single sample with y=+1, lambda=1: A*(lambda) = -X_1 = cone - W
        x1 = w - cone_member
        data = Dataset(xs=np.stack([x1, -x1]), ys=np.array([1, -1]))
        assert cone_residual(w, [1.0, 0.0], data, r) <= 1e-10

    def test_w_is_orthogonal_to_cone(self):
        # With lambda = 0, G = W itself; a rank-r W has no component in the
        # normal cone, so the residual is ||W||_F.
        gen = make_rng(59)
        w = self._rank_r_state(gen, 6, 5, 3)
        data = random_dataset(60, m=4, p=6, q=5)
        residual = cone_residual(w, np.zeros(4), data, r=3)
        assert residual == pytest.approx(np.linalg.norm(w), rel=1e-10)

    def test_rank_deficient_uses_full_norm(self):
        gen = make_rng(61)
        w = self._rank_r_state(gen, 5, 4, 1)  # rank 1 < r = 2
        data = random_dataset(62, m=3, p=5, q=4)
        lam = gen.standard_normal(3)
        expected = np.linalg.norm(w - model._adjoint(design(data), data.ys, lam).reshape(w.shape))
        assert cone_residual(w, lam, data, r=2) == pytest.approx(expected)

    def test_cone_projector_properties(self):
        # The full-basis projector P(G) = U_perp (U_perp^T G V_perp) V_perp^T
        # onto the cone: its image satisfies U_r^T P(G) = 0 and P(G) V_r = 0,
        # projecting twice equals projecting once, and the thin residual is
        # the distance ||G - P(G)||_F.
        gen = make_rng(63)
        w = self._rank_r_state(gen, 6, 4, 2)
        factors = svd(w)
        u_perp, v_perp = full_bases(w, factors.rank)
        data = random_dataset(64, m=5, p=6, q=4)
        lam = gen.standard_normal(5)
        g = w - model._adjoint(design(data), data.ys, lam).reshape(w.shape)

        def cone_project(mat):
            return u_perp @ (u_perp.T @ mat @ v_perp) @ v_perp.T

        projected = cone_project(g)
        np.testing.assert_allclose(factors.u[:, :factors.rank].T @ projected,
                                   np.zeros((2, 4)), atol=1e-12)
        np.testing.assert_allclose(projected @ factors.v[:, :factors.rank],
                                   np.zeros((6, 2)), atol=1e-12)
        np.testing.assert_allclose(cone_project(projected), projected, atol=1e-12)
        assert cone_residual(w, lam, data, r=2) == pytest.approx(
            np.linalg.norm(g - projected), rel=1e-12)


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
                 lambda: prox_heaviside(state.z, value)]
        if value != 0.0:  # a zero tolerance is valid
            calls.append(lambda: z_stationarity(state.z, lam, tol=value))
        for call in calls:
            with pytest.raises(InvalidArgumentError):
                call()

    def test_bad_multiplier_length(self):
        # The report forms lambda from z, so a slack of the wrong length is
        # the one way to hand it a multiplier that does not fit the data.
        data = random_dataset(68)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m + 1))
        with pytest.raises(InvalidArgumentError, match="slack length"):
            kkt_report(state, data, Hyperparams(0.1, 0.1, 1))

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
        lam = -2.0 * hp.sigma * (z - margin_residuals(w, 0.2, data))
        factors = svd(w)
        g = grad_h(w, z, 0.2, data, hp.sigma)
        expected = (kkt._cone_residual(g, factors, hp.rank), factors.rank)

        calls = Counter()

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(np.linalg, "svd", counted("svd", np.linalg.svd))
        monkeypatch.setattr(model, "_margins", counted("margins", model._margins))
        monkeypatch.setattr(model, "_scores", counted("scores", model._scores))
        monkeypatch.setattr(solver, "_adjoint", counted("adjoint", solver._adjoint))
        report = kkt_report(state, data, hp)
        assert calls == {"svd": 1, "margins": 1, "scores": 1, "adjoint": 1}
        assert report.lam.tobytes() == lam.tobytes()
        assert (report.w_residual, report.rank_at_solution) == expected

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

    @pytest.mark.parametrize("report, refusal", [
        (lambda data, w: kkt_report(ModelState(w=w, b=0.0, z=np.zeros(data.m)), data,
                                    Hyperparams(0.1, 1.7e308, 1)), "non-finite w_residual"),
        (lambda data, w: completed_kkt_report(*beyond_float_range(data),
                                              Hyperparams(0.1, 1.0, 1)),
         "non-finite w_residual"),
        (lambda data, w: completed_kkt_report(w * 1.7e108, 0.0, data,
                                              Hyperparams(0.1, 1.0, 1)), "non-finite margins"),
    ], ids=["report", "completed", "completed_margins"])
    def test_overflowing_residual_is_refused_without_warnings(self, report, refusal):
        # A numpy RuntimeWarning fails the test (pyproject's filterwarnings).
        data = random_dataset(73, m=6, p=3, q=4)
        with pytest.raises(NumericalError, match=f"^{refusal}$"):
            report(data, np.full(data.sample_shape, 1e200))

    def test_residual_whose_squares_overflow_is_finite(self):
        # W = 1e200 everywhere: every margin exceeds the threshold, so the
        # completed slack equals v, G = W, and ||G|| = 1e200 sqrt(12), though
        # its squares overflow.
        data = random_dataset(73, m=6, p=3, q=4)
        report = completed_kkt_report(np.full(data.sample_shape, 1e200), 0.0, data,
                                      Hyperparams(0.1, 1.0, 1))
        assert report.w_residual == 3.4641016151377546e+200
        assert (report.z_residual, report.b_residual, report.feasibility_residual) == (0, 0, 0)

    @pytest.mark.parametrize("beta, sigma", [(1e-300, 1e300), (1e300, 1e-300)])
    def test_completion_takes_any_threshold(self, beta, sigma):
        # beta / (2 sigma) underflows to 0 or overflows to inf: the slack
        # keeps every margin, or zeroes every positive one.
        data = random_dataset(77, m=8, p=3, q=4)
        w = make_rng(78).standard_normal(data.sample_shape)
        v = margin_residuals(w, 0.1, data)
        expected = v if beta < sigma else np.where(v > 0, 0.0, v)
        with calls_to(kkt, "_report") as calls:
            completed_kkt_report(w, 0.1, data, Hyperparams(beta, sigma, 2))
        assert calls[0].args[0].z.tobytes() == expected.tobytes()

    @pytest.mark.parametrize("sigma", [0.01, 0.1, 0.3])
    def test_cone_residual_reads_the_solver_gradient(self, synthetic, sigma):
        # The G of both reports is grad_h at the report's (W, z, b), bit for
        # bit, at fitted and at random states.
        data, _, _ = synthetic
        gen = make_rng(79)
        hp = Hyperparams(beta=0.1, sigma=sigma, rank=2, maxit=50)
        fitted = fit(data, hp).model
        states = [fitted, ModelState(w=gen.standard_normal(data.sample_shape),
                                     b=float(gen.standard_normal()),
                                     z=gen.standard_normal(data.m))]
        for state in states:
            with calls_to(kkt, "_report") as reports, \
                    calls_to(kkt, "_cone_residual") as calls:
                kkt_report(state, data, hp)
                completed_kkt_report(state.w, state.b, data, hp)
            assert len(calls) == 2
            for report, call in zip(reports, calls):
                grad = grad_h(state.w, report.args[0].z, state.b, data, sigma)
                assert call.args[0].tobytes() == grad.tobytes()

    def test_dict_and_text_follow_the_fields(self):
        data = random_dataset(74, m=8, p=3, q=4)
        report = completed_kkt_report(make_rng(75).standard_normal((3, 4)), 0.2, data,
                                      Hyperparams(beta=0.3, sigma=0.4, rank=2))
        as_dict = report.to_dict()
        assert list(as_dict) == ["w_residual", "z_residual", "b_residual",
                                 "feasibility_residual", "rank_at_solution", "rank_bound",
                                 "rank_deficient", "lambda"]
        assert as_dict["lambda"] == report.lam.tolist()
        assert report.to_text() == "\n".join(
            f"{key} = {getattr(report, key)}" for key in list(as_dict)[:-1])

    @pytest.mark.parametrize("name", ["w_residual", "b_residual"])
    def test_a_report_with_a_non_finite_residual_is_refused(self, name):
        values = dict(lam=np.zeros(2), w_residual=0.0, z_residual=0.0, b_residual=0.0,
                      feasibility_residual=0.0, rank_at_solution=1, rank_bound=1,
                      rank_deficient=False)
        with pytest.raises(NumericalError, match=f"non-finite {name}"):
            KktReport(**{**values, name: np.nan})
