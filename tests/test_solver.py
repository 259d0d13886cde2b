import numpy as np
import pytest

from hlsmm import (
    Dataset,
    Hyperparams,
    InvalidArgumentError,
    ModelState,
    NumericalError,
    StepPolicy,
    fit,
    grad_h,
    heaviside_count,
    make_lowrank_separable,
    margin_residuals,
    penalized_objective,
    project_rank,
    prox_heaviside,
    svd,
)
from hlsmm import kkt_report, solver
from hlsmm.model import _check_shapes, _margins
from hlsmm.solver import (_b_step, _Lanes, _Problem, _trajectory, _w_step, _z_center,
                          _z_step)

from conftest import make_rng, peak_bytes, random_dataset


def golden_section_minimum(f, lo: float, hi: float, tol: float = 1e-12,
                           ties: str = "left") -> float:
    """Minimizer of a unimodal ``f`` on [lo, hi] by golden-section search,
    stopped once the bracket is narrower than ``tol``.

    A tie keeps the left part, as scipy's golden search does, or with
    ``ties="right"`` the right part: near the minimum f is flat to rounding
    over about 1e-8, so where the search lands there depends on this rule.
    """
    ratio = (np.sqrt(5.0) - 1.0) / 2.0
    c, d = hi - ratio * (hi - lo), lo + ratio * (hi - lo)
    fc, fd = f(c), f(d)
    while hi - lo >= tol:
        if fc < fd or (fc == fd and ties == "left"):
            hi, d, fd = d, c, fc
            c = hi - ratio * (hi - lo)
            fc = f(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + ratio * (hi - lo)
            fd = f(d)
    return (lo + hi) / 2.0


def smooth_part(w, z, b, data, sigma):
    """h(W) evaluated from scratch: quadratic + coupling penalty, no loss term."""
    gap = z - margin_residuals(w, b, data)
    return 0.5 * float(np.sum(w * w)) + sigma * float(gap @ gap)


def one_lane(state, data, hp):
    """The kernel's problem and one-lane batch begun at ``state`` (with its
    trace, into which the W block writes): its stacked W, scores, z, b.

    The kernel blocks trust their input; ``state`` passes the library's shape
    rule first, as at every public entry point.
    """
    _check_shapes(data, state.w, state.z)
    problem = _Problem(data)
    lanes = _Lanes([hp], [[0]])
    lanes.begin(problem, state)
    w, z, b = lanes.w, lanes.z, lanes.b
    return problem, lanes, w, problem.scores(w), z, b


def w_block(state, data, hp):
    """The kernel's W block from ``state``: (new W, halvings used)."""
    problem, lanes, w, s, z, b = one_lane(state, data, hp)
    _, h, _, gap = problem.objective(w, s, z, b, lanes.sigma, lanes.beta)
    grad = problem.gradient(w, gap, lanes.sigma)
    new_w, _, _, errors, _ = _w_step(problem, lanes, w, z, b, grad, h, state.iter)
    assert not errors
    return new_w[0], int(lanes.history[4, 0, state.iter])


def z_block(state, data, hp):
    """The kernel's z block, with ``state.w`` as the new W."""
    problem, lanes, _, s, z, b = one_lane(state, data, hp)
    return _z_step(lanes, _z_center(problem, lanes, s, z, b))[0]


def b_block(state, data, hp):
    """The kernel's b block, with ``state.w`` and ``state.z`` as the new W and z."""
    problem, lanes, _, s, z, b = one_lane(state, data, hp)
    return float(_b_step(problem, lanes, s, z, b)[0])


def rank1_truncation_2x2(g):
    """Closed-form best rank-1 approximation of a 2x2 matrix.

    Independent of numpy's SVD: the top right singular vector comes from the
    eigen-decomposition of the 2x2 Gram matrix G^T G solved by the quadratic
    formula.
    """
    gram = g.T @ g
    a, b, d = gram[0, 0], gram[0, 1], gram[1, 1]
    mean = 0.5 * (a + d)
    half_gap = np.sqrt(max(0.25 * (a - d) ** 2 + b * b, 0.0))
    lam_top = mean + half_gap
    if abs(b) > 1e-15:
        v = np.array([b, lam_top - a])
    elif a >= d:
        v = np.array([1.0, 0.0])
    else:
        v = np.array([0.0, 1.0])
    v /= np.linalg.norm(v)
    gv = g @ v
    return np.outer(gv, v)


class TestGradH:
    def test_zero_at_consistent_slack(self):
        # W = 0, b = 0, z = all-ones: every coupling residual vanishes.
        data = random_dataset(21)
        g = grad_h(np.zeros(data.sample_shape), np.ones(data.m), 0.0, data, sigma=0.5)
        np.testing.assert_array_equal(g, np.zeros(data.sample_shape))

    def test_small_sigma_limit_is_identity_term(self):
        data = random_dataset(22)
        gen = make_rng(23)
        w = gen.standard_normal(data.sample_shape)
        z = gen.standard_normal(data.m)
        g = grad_h(w, z, 0.1, data, sigma=1e-14)
        np.testing.assert_allclose(g, w, atol=1e-10)

    def test_matches_central_finite_differences(self):
        gen = make_rng(24)
        for trial in range(10):
            data = random_dataset(100 + trial, m=4, p=3, q=2)
            w = gen.standard_normal((3, 2))
            z = gen.standard_normal(4)
            b = float(gen.standard_normal())
            sigma = float(10.0 ** gen.uniform(-2, 0))
            analytic = grad_h(w, z, b, data, sigma)
            numeric = np.zeros_like(w)
            step = 1e-6 * max(1.0, float(np.abs(w).max()))
            for a in range(3):
                for c in range(2):
                    bump = np.zeros_like(w)
                    bump[a, c] = step
                    numeric[a, c] = (smooth_part(w + bump, z, b, data, sigma)
                                     - smooth_part(w - bump, z, b, data, sigma)) / (2 * step)
            err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
            assert err <= 1e-5


    def test_an_overflowing_gradient_is_a_numerical_error(self):
        data = random_dataset(25, m=6, p=3, q=4)
        with pytest.raises(NumericalError, match="^non-finite gradient$"):
            grad_h(np.ones((3, 4)), np.zeros(data.m), 0.0, data, 1.7e308)


class TestUpdateW:
    def test_fixed_point_stays(self):
        data = random_dataset(25)
        hp = Hyperparams(beta=0.5, sigma=0.5, rank=1)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.ones(data.m))
        new_w, halvings = w_block(state, data, hp)
        np.testing.assert_array_equal(new_w, state.w)
        assert halvings == 0

    def test_step_equals_truncated_svd_of_gradient_step(self):
        # 2x2 samples, r = 1: one projected-gradient step must equal the
        # rank-1 truncation (hand-rolled oracle) of W - alpha * grad.
        gen = make_rng(26)
        xs = gen.standard_normal((4, 2, 2))
        ys = np.array([1, -1, 1, -1], dtype=np.int8)
        data = Dataset(xs=xs, ys=ys)
        alpha = 0.05
        hp = Hyperparams(beta=0.1, sigma=0.2, rank=1,
                         step=StepPolicy(kind="backtracking", alpha0=alpha))
        w = gen.standard_normal((2, 2)) * 0.1
        w = rank1_truncation_2x2(w)  # feasible start
        z = gen.standard_normal(4)
        state = ModelState(w=w, b=0.1, z=z)
        new_w, halvings = w_block(state, data, hp)
        taken = alpha * 0.5 ** halvings
        expected = rank1_truncation_2x2(w - taken * grad_h(w, z, 0.1, data, hp.sigma))
        np.testing.assert_allclose(new_w, expected, atol=1e-10)

    def test_w_only_iteration_is_monotone(self):
        data, _, _ = make_lowrank_separable(m=60, seed=27)
        hp = Hyperparams(beta=0.1, sigma=0.1, rank=2)
        z = np.zeros(data.m)
        b = 0.0
        w = np.zeros(data.sample_shape)
        values = [smooth_part(w, z, b, data, hp.sigma)]
        for _ in range(50):
            state = ModelState(w=w, b=b, z=z)
            w, _ = w_block(state, data, hp)
            values.append(smooth_part(w, z, b, data, hp.sigma))
        diffs = np.diff(values)
        assert np.all(diffs <= 1e-10)

    def test_rank_feasible_after_every_step(self):
        data = random_dataset(28, m=10, p=5, q=4)
        hp = Hyperparams(beta=0.2, sigma=0.3, rank=2)
        state = ModelState(w=np.zeros((5, 4)), b=0.0, z=np.zeros(10))
        w = state.w
        for _ in range(10):
            w, _ = w_block(ModelState(w=w, b=0.0, z=state.z), data, hp)
            assert svd(w).rank <= hp.rank


class TestUpdateZ:
    def test_beta_to_zero_limit_is_weighted_average(self):
        data = random_dataset(29, m=5)
        gen = make_rng(30)
        w = gen.standard_normal(data.sample_shape)
        z_prev = gen.standard_normal(5)
        hp = Hyperparams(beta=1e-300, sigma=0.4, tau2=0.2, rank=1)
        state = ModelState(w=w, b=0.3, z=z_prev)
        v = margin_residuals(w, 0.3, data)
        expected = (2 * 0.4 * v + 0.2 * z_prev) / (2 * 0.4 + 0.2)
        np.testing.assert_allclose(z_block(state, data, hp), expected, rtol=1e-12)

    def test_tau2_to_zero_sigma_half_reduces_to_prox(self):
        data = random_dataset(31, m=6)
        gen = make_rng(32)
        w = gen.standard_normal(data.sample_shape)
        hp = Hyperparams(beta=0.7, sigma=0.5, tau2=1e-300, rank=1)
        state = ModelState(w=w, b=-0.2, z=gen.standard_normal(6))
        v = margin_residuals(w, -0.2, data)
        np.testing.assert_allclose(z_block(state, data, hp),
                                   prox_heaviside(v, 0.7), atol=1e-12)

    def test_beats_dense_grid(self):
        # The returned coordinate must attain the global minimum of
        #   beta 1[z>0] + sigma (z - v)^2 + tau2/2 (z - z_prev)^2
        # verified against 200001 grid points on [-10, 10].  Samples are
        # crafted 1x1 matrices so the first margin residual equals v.
        gen = make_rng(33)
        grid = np.linspace(-10.0, 10.0, 200_001)
        for _ in range(25):
            sigma = float(10.0 ** gen.uniform(-2, 0))
            tau2 = float(10.0 ** gen.uniform(-4, -1))
            beta = float(10.0 ** gen.uniform(-2, 0))
            v = float(gen.uniform(-4, 4))
            z_prev = float(gen.uniform(-4, 4))
            data = Dataset(xs=np.array([[[1.0 - v]], [[0.0]]]),
                           ys=np.array([1, -1]))
            state = ModelState(w=np.array([[1.0]]), b=0.0,
                               z=np.array([z_prev, 0.0]))
            hp = Hyperparams(beta=beta, sigma=sigma, tau2=tau2, rank=1)
            assert margin_residuals(state.w, state.b, data)[0] == pytest.approx(v)

            def objective(z):
                return beta * (z > 0) + sigma * (z - v) ** 2 + 0.5 * tau2 * (z - z_prev) ** 2

            returned = z_block(state, data, hp)[0]
            assert objective(returned) <= objective(grid).min() + 1e-12

    def test_update_z_matches_manual_formula(self):
        data = random_dataset(34, m=7)
        gen = make_rng(35)
        w = gen.standard_normal(data.sample_shape)
        z_prev = gen.standard_normal(7)
        hp = Hyperparams(beta=0.15, sigma=0.2, tau2=1e-3, rank=1)
        state = ModelState(w=w, b=0.05, z=z_prev)
        v = margin_residuals(w, 0.05, data)
        center = (2 * hp.sigma * v + hp.tau2 * z_prev) / (2 * hp.sigma + hp.tau2)
        threshold = np.sqrt(2 * hp.beta / (2 * hp.sigma + hp.tau2))
        expected = np.where((center > 0) & (center <= threshold), 0.0, center)
        np.testing.assert_array_equal(z_block(state, data, hp), expected)


class TestUpdateB:
    def test_stationary_bias_unchanged(self):
        data = random_dataset(38, m=6)
        gen = make_rng(39)
        w = gen.standard_normal(data.sample_shape)
        b_prev = 0.4
        z = margin_residuals(w, b_prev, data)  # coupling residual zero at b_prev
        hp = Hyperparams(beta=0.1, sigma=0.3, tau3=1e-3, rank=1)
        state = ModelState(w=w, b=b_prev, z=z)
        assert b_block(state, data, hp) == pytest.approx(b_prev, abs=1e-12)

    def test_huge_tau3_freezes_block(self):
        data = random_dataset(40, m=6)
        gen = make_rng(41)
        state = ModelState(w=gen.standard_normal(data.sample_shape), b=-0.7,
                           z=gen.standard_normal(6))
        hp = Hyperparams(beta=0.1, sigma=0.3, tau3=1e16, rank=1)
        assert b_block(state, data, hp) == pytest.approx(-0.7, abs=1e-10)

    def test_matches_golden_section_search(self):
        data = random_dataset(42, m=8, p=2, q=3)
        gen = make_rng(43)
        w = gen.standard_normal((2, 3))
        z = gen.standard_normal(8)
        b_prev = float(gen.standard_normal())
        hp = Hyperparams(beta=0.1, sigma=0.25, tau3=2e-3, rank=1)

        def objective(b):
            gap = z - margin_residuals(w, b, data)
            return hp.sigma * float(gap @ gap) + 0.5 * hp.tau3 * (b - b_prev) ** 2

        # The objective (about 3.43 at its minimum) is flat to rounding over
        # about +-2e-8 around the minimizer, and a search lands in that flat
        # part by its tie rule.  So the values are compared: the closed
        # form's objective is at most an oracle's plus 8 ulp of it, under
        # either tie rule.  The curvature 2 sigma m + tau3 is about 4, so a
        # b moved by 1e-6 raises the objective by about 2e-12 and fails.
        b = b_block(ModelState(w=w, b=b_prev, z=z), data, hp)
        for ties in ("left", "right"):
            best = objective(golden_section_minimum(objective, -10.0, 10.0, ties=ties))
            level = best + 8 * np.spacing(best)
            assert objective(b) <= level
            assert objective(b - 1e-6) > level and objective(b + 1e-6) > level


@pytest.mark.parametrize("update", [w_block, z_block, b_block],
                         ids=["update_w", "update_z", "update_b"])
@pytest.mark.parametrize("w_shape,m_z", [((3, 3), 50), ((8, 6), 7)],
                         ids=["w-shape", "z-length"])
def test_one_shot_update_refuses_mismatched_state(update, w_shape, m_z):
    # The shape rule of fit's init check and of grad_h, not a numpy
    # broadcasting error.
    data = random_dataset(44, m=50, p=8, q=6)
    state = ModelState(w=np.zeros(w_shape), b=0.0, z=np.zeros(m_z))
    with pytest.raises(InvalidArgumentError, match="does not match"):
        update(state, data, Hyperparams(beta=0.1, sigma=0.1, rank=1))


@pytest.mark.parametrize("w_shape,m_z", [((3, 3), 50), ((8, 6), 7)],
                         ids=["w-shape", "z-length"])
def test_objective_and_gradient_refuse_mismatched_state(w_shape, m_z):
    # The shape rule of fit's init check, not a numpy broadcasting error.
    data = random_dataset(44, m=50, p=8, q=6)
    state = ModelState(w=np.zeros(w_shape), b=0.0, z=np.zeros(m_z))
    with pytest.raises(InvalidArgumentError, match="does not match"):
        penalized_objective(state, data, Hyperparams(beta=0.1, sigma=0.1, rank=1))
    with pytest.raises(InvalidArgumentError, match="does not match"):
        grad_h(state.w, state.z, state.b, data, 0.1)
    with pytest.raises(InvalidArgumentError,
                       match="^init state does not match dataset shapes$"):
        fit(data, Hyperparams(beta=0.1, sigma=0.1, rank=1), init=state)


class TestFit:
    def test_maxit_zero_returns_initialization(self, synthetic):
        data, _, _ = synthetic
        hp = Hyperparams(beta=0.1, sigma=0.1, rank=2, maxit=0)
        result = fit(data, hp)
        assert result.trace.status == "max_iter"
        assert result.model.iter == 0
        np.testing.assert_array_equal(result.model.w, np.zeros(data.sample_shape))
        assert result.model.b == 0.0
        np.testing.assert_array_equal(result.model.z, np.zeros(data.m))
        assert len(result.trace) == 1  # initial row only

    def test_synthetic_recovery(self, synthetic, default_hp):
        data, _, _ = synthetic
        result = fit(data, default_hp)
        pred = np.where(data.xs.reshape(data.m, -1) @ result.model.w.ravel()
                        + result.model.b > 0, 1, -1)
        assert (pred == data.ys).all()
        assert heaviside_count(result.model.z) == 0
        assert svd(result.model.w).rank <= 2

    @pytest.mark.parametrize("step", [StepPolicy(), StepPolicy(alpha0=4.0, max_halvings=8),
                                      StepPolicy(kind="fixed")],
                             ids=["cauchy", "halving", "fixed"])
    def test_w_step_is_the_norm_between_iterates(self, synthetic, default_hp, step):
        # The W block writes the accepted trial's own step norm into the
        # trace; it equals the norm of the difference of the models that
        # fits stopped at maxit k and k - 1 return, bit for bit.
        data, _, _ = synthetic
        hp = default_hp.with_(step=step)
        trace = fit(data, hp.with_(maxit=4)).trace
        models = [fit(data, hp.with_(maxit=k)).model for k in range(5)]
        assert len(trace) == 5 and (step.alpha0 is None or max(trace.halvings) > 0)
        for k in range(1, 5):
            assert models[k].iter == k
            moved = models[k].w - models[k - 1].w
            assert trace.w_step[k] == np.sqrt(solver._sq_norms(moved[None]))[0]
            assert trace.w_step[k] == pytest.approx(np.linalg.norm(moved), rel=1e-12)

    def test_trace_objective_non_increasing(self, synthetic, default_hp):
        data, _, _ = synthetic
        trace = fit(data, default_hp).trace
        diffs = np.diff(trace.objective)
        assert np.all(diffs <= 1e-10)

    def test_sufficient_decrease_from_trace(self, synthetic, default_hp):
        data, _, _ = synthetic
        trace = fit(data, default_hp).trace
        tau_min = min(default_hp.tau1, default_hp.tau2, default_hp.tau3)
        for k in range(1, len(trace)):
            drop = trace.objective[k - 1] - trace.objective[k]
            required = 0.5 * tau_min * (trace.w_step[k] ** 2
                                        + trace.z_step[k] ** 2
                                        + trace.b_step[k] ** 2)
            assert drop >= required - 1e-9

    def test_deterministic_bit_for_bit(self, synthetic, default_hp):
        data, _, _ = synthetic
        r1 = fit(data, default_hp)
        r2 = fit(data, default_hp)
        assert r1.trace.objective == r2.trace.objective
        assert r1.trace.w_step == r2.trace.w_step
        assert np.array_equal(r1.model.w, r2.model.w)
        assert r1.model.b == r2.model.b

    def test_objective_matches_reference_evaluation(self, synthetic, default_hp):
        data, _, _ = synthetic
        result = fit(data, default_hp)
        assert result.trace.objective[-1] == pytest.approx(
            penalized_objective(result.model, data, default_hp), rel=1e-12)

    def test_single_label_dataset_rejected(self):
        data = Dataset(xs=np.zeros((3, 1, 2)) + np.arange(3)[:, None, None],
                       ys=np.array([1, 1, 1]))
        with pytest.raises(InvalidArgumentError):
            fit(data, Hyperparams(beta=0.1, sigma=0.1, rank=1))

    def test_rank_bound_vs_shape_rejected(self, synthetic):
        data, _, _ = synthetic  # 8x6 samples
        with pytest.raises(InvalidArgumentError):
            fit(data, Hyperparams(beta=0.1, sigma=0.1, rank=6))

    def test_fixed_step_policy_descends(self, synthetic):
        data, _, _ = synthetic
        hp = Hyperparams(beta=0.1, sigma=0.1, rank=2, maxit=100,
                         step=StepPolicy(kind="fixed"))
        trace = fit(data, hp).trace
        assert np.all(np.diff(trace.objective) <= 1e-10)

    def test_fixed_step_ascent_raises_numerical_error(self, synthetic):
        # A fixed step of 0.1 is about ten times 1 / L here, so the W block
        # carries no descent guarantee; at iteration 17 the objective rises,
        # and the monotone check must fail loudly with the iteration index.
        data, _, _ = synthetic
        hp = Hyperparams(beta=0.1, sigma=0.1, rank=2,
                         step=StepPolicy(kind="fixed", alpha0=0.1))
        with pytest.raises(NumericalError, match="objective increased") as info:
            fit(data, hp)
        assert info.value.iteration == 17

    def test_custom_init_used(self, synthetic, default_hp):
        data, _, _ = synthetic
        gen = make_rng(44)
        init = ModelState(w=np.zeros(data.sample_shape), b=0.5,
                          z=gen.standard_normal(data.m))
        result = fit(data, default_hp.with_(maxit=0), init=init)
        assert result.model.b == 0.5

    def test_rank_infeasible_init_rejected(self, synthetic, default_hp):
        data, _, _ = synthetic
        gen = make_rng(45)
        init = ModelState(w=gen.standard_normal(data.sample_shape), b=0.0,
                          z=np.zeros(data.m))  # full-rank start, bound is 2
        with pytest.raises(InvalidArgumentError, match="rank"):
            fit(data, default_hp, init=init)


class TestStall:
    def test_stalled_w_block_not_reported_converged(self, synthetic, default_hp):
        # alpha0 = 1e6 overshoots so far that two halvings never pass the
        # decrease test: W stops moving because it cannot, not at a solution.
        data, _, _ = synthetic
        hp = default_hp.with_(step=StepPolicy(alpha0=1e6, max_halvings=2))
        result = fit(data, hp)
        assert result.trace.status == "stalled"
        assert not result.converged
        assert result.trace.halvings[-1] == 2

    @pytest.mark.parametrize("policy, stall", [
        (StepPolicy(alpha0=1e-3, max_halvings=0), False),
        (StepPolicy(alpha0=1e6, max_halvings=2), True),
    ], ids=["accepted", "stalled"])
    def test_acceptance_on_last_halving_is_not_a_stall(self, synthetic, default_hp,
                                                       policy, stall):
        # With max_halvings = 0 every accepted step uses "all" halvings; only
        # the explicit flag tells it apart from a stall.  A stalled lane keeps
        # its W and computes its scores again, as the scores are not carried.
        # The start is a few iterations in, so that the scores are not zero.
        data, _, _ = synthetic
        start = fit(data, default_hp.with_(maxit=3)).model
        problem, lanes, w, s, z, b = one_lane(start, data, default_hp.with_(step=policy))
        _, h, _, gap = problem.objective(w, s, z, b, lanes.sigma, lanes.beta)
        new_w, scores, stalled, errors, split = _w_step(
            problem, lanes, w, z, b, problem.gradient(w, gap, lanes.sigma), h, 1)
        assert (lanes.history[4, 0, 1], stalled[0], errors, split) == (
            policy.max_halvings if stall else 0, stall, {}, [])
        assert np.array_equal(new_w, w) == stall
        np.testing.assert_array_equal(scores, problem.scores(new_w))


class TestTrajectory:
    """The lane key: every field that can move the iterates."""

    @pytest.mark.parametrize("step", [StepPolicy(), StepPolicy(alpha0=2.0),
                                      StepPolicy(kind="fixed", alpha0=0.1)])
    def test_tau1_is_dropped_where_it_enters_only_checks(self, default_hp, step):
        hp = default_hp.with_(step=step)
        assert _trajectory(hp.with_(tau1=1e-4)) == _trajectory(hp.with_(tau1=1e2))

    def test_tau1_is_kept_where_it_sets_the_step(self, default_hp):
        hp = default_hp.with_(step=StepPolicy(kind="fixed"))
        assert _trajectory(hp.with_(tau1=1e-4)) != _trajectory(hp.with_(tau1=1e2))

    @pytest.mark.parametrize("change", [
        {"beta": 0.2}, {"sigma": 0.2}, {"rank": 1}, {"tau2": 0.5}, {"tau3": 0.5},
        {"maxit": 7}, {"tol_step": 1e-3}, {"tol_obj": 1e-3},
        {"step": StepPolicy(kind="fixed", alpha0=1e-2)},
        {"step": StepPolicy(max_halvings=5)}, {"step": StepPolicy(alpha0=2.0)}])
    def test_every_other_field_is_kept(self, default_hp, change):
        # From a slack with a positive entry beta enters the first objective.
        assert (_trajectory(default_hp, positive_start=True)
                != _trajectory(default_hp.with_(**change), positive_start=True))

    @pytest.mark.parametrize("step", [StepPolicy(), StepPolicy(kind="fixed")])
    def test_beta_is_dropped_from_a_start_without_positive_slack(self, default_hp, step):
        hp = default_hp.with_(step=step)
        assert _trajectory(hp.with_(beta=0.01)) == _trajectory(hp.with_(beta=0.5))
        assert (_trajectory(hp.with_(beta=0.01), positive_start=True)
                != _trajectory(hp.with_(beta=0.5), positive_start=True))


class TestProblemKernel:
    """The cached-score kernel against the signed design F = y_i vec(X_i).

    Multiplying by y = +-1 is exact, so the products must agree bit for bit,
    lane by lane of a stack.
    """

    @pytest.mark.parametrize("seed,m,p,q", [(61, 7, 3, 2), (62, 40, 5, 6),
                                            (63, 300, 7, 9), (64, 1000, 28, 28)])
    def test_matches_signed_design_exactly(self, seed, m, p, q):
        data = random_dataset(seed, m=m, p=p, q=q)
        gen = make_rng(seed + 1000)
        w = gen.standard_normal((2, p, q))
        z = gen.standard_normal((2, m))
        b = gen.standard_normal(2)
        sigma = np.array([0.37, 2.5])
        X = data.xs.reshape(m, -1)
        ys = data.ys.astype(np.float64)
        F = ys[:, None] * X

        problem = _Problem(data)
        s = problem.scores(w)
        margins = _margins(s, b, problem.ys)
        grad = problem.gradient(w, problem.gap(s, z, b), sigma)
        alpha = problem.cauchy_step(grad, sigma)
        for k in range(2):
            v = 1.0 - (F @ w[k].ravel() + b[k] * ys)
            np.testing.assert_array_equal(margins[k], v)

            expected_grad = w[k] + 2.0 * sigma[k] * (F.T @ (z[k] - v)).reshape(p, q)
            np.testing.assert_array_equal(grad[k], expected_grad)

            gn2 = float(np.dot(grad[k].ravel(), grad[k].ravel()))
            fg = F @ grad[k].ravel()
            assert alpha[k] == gn2 / (gn2 + 2.0 * sigma[k] * float(fg @ fg))

    def test_z_step_is_prox_of_its_center(self):
        # The kernel's z block is prox_heaviside at the weighted center, bit
        # for bit, lane by lane, with gamma = beta / (2 sigma + tau2).
        data = random_dataset(68, m=60, p=4, q=3)
        gen = make_rng(69)
        configs = [Hyperparams(beta=beta, sigma=sigma, rank=1, tau2=tau2)
                   for beta, sigma, tau2 in [(0.1, 0.1, 1e-3), (0.5, 0.01, 1e-2),
                                             (2.0, 1.0, 1e-4), (0.3, 0.7, 0.3)]]
        w = gen.standard_normal((4, 4, 3))
        z = gen.standard_normal((4, 60))
        b = gen.standard_normal(4)
        problem = _Problem(data)
        lanes = _Lanes(configs, [[k] for k in range(len(configs))])
        z_new = _z_step(lanes, _z_center(problem, lanes, problem.scores(w), z, b))
        zeroed = kept = 0
        for k, hp in enumerate(configs):
            v = margin_residuals(w[k], b[k], data)
            weighted = 2.0 * hp.sigma * v + hp.tau2 * z[k]
            center = weighted / (2.0 * hp.sigma + hp.tau2)
            gamma = hp.beta / (2.0 * hp.sigma + hp.tau2)
            threshold = np.sqrt(2.0 * hp.beta / (2.0 * hp.sigma + hp.tau2))
            assert np.sqrt(2.0 * gamma) == threshold
            assert z_new[k].tobytes() == prox_heaviside(center, gamma).tobytes()
            zeroed += np.count_nonzero((center > 0) & (z_new[k] == 0))
            kept += np.count_nonzero(z_new[k] > 0)
        assert zeroed and kept  # both sides of the threshold are exercised

    def test_backtracking_fit_never_computes_lipschitz_bound(self, synthetic,
                                                             default_hp, monkeypatch):
        problems = []

        class Recording(_Problem):
            def __init__(self, *args):
                super().__init__(*args)
                problems.append(self)

        monkeypatch.setattr(solver, "_Problem", Recording)
        result = fit(synthetic[0], default_hp)
        assert result.converged and len(problems) == 1
        assert "sq_norm" not in problems[0].__dict__

    def test_default_fixed_step_is_inverse_trace_bound(self):
        data = random_dataset(66, m=30, p=4, q=3)
        gen = make_rng(67)
        hp = Hyperparams(beta=0.1, sigma=0.2, rank=1, tau1=0.05,
                         step=StepPolicy(kind="fixed"))
        w = np.outer(gen.standard_normal(4), gen.standard_normal(3))
        state = ModelState(w=w, b=0.1, z=gen.standard_normal(30))
        new_w, halvings = w_block(state, data, hp)
        X = data.xs.reshape(data.m, -1)
        alpha = 1.0 / (1.0 + 2.0 * hp.sigma * float(np.dot(X.ravel(), X.ravel()))
                       + hp.tau1)
        grad = grad_h(w, state.z, state.b, data, hp.sigma)
        np.testing.assert_array_equal(new_w, project_rank(w - alpha * grad, hp.rank))
        assert halvings == 0

    def test_fit_allocates_no_dataset_sized_copy(self):
        # ~4.6 MB design; the kernel must work on it in place, allocating only
        # per-sample vectors and p-by-q matrices.
        data = random_dataset(65, m=4000, p=12, q=12)
        hp = Hyperparams(beta=0.1, sigma=0.1, rank=2, maxit=5)
        assert peak_bytes(lambda: fit(data, hp)) < data.xs.nbytes / 10


class TestInputsUnchanged:
    """The kernel writes the gap over the scores and flips its signs in place;
    both are its own arrays, so no public entry point writes into its inputs."""

    @pytest.mark.parametrize("call", [
        lambda state, data, hp: grad_h(state.w, state.z, state.b, data, hp.sigma),
        lambda state, data, hp: penalized_objective(state, data, hp),
        lambda state, data, hp: margin_residuals(state.w, state.b, data),
        lambda state, data, hp: kkt_report(state, data, hp),
        lambda state, data, hp: fit(data, hp.with_(maxit=5), init=state),
    ], ids=["grad_h", "penalized_objective", "margin_residuals", "kkt_report", "fit"])
    def test_entry_point_leaves_its_inputs_unchanged(self, synthetic, default_hp, call):
        data, _, _ = synthetic
        state = fit(data, default_hp.with_(maxit=3)).model
        before = [array.tobytes() for array in (data.xs, state.w, state.z)]
        call(state, data, default_hp)
        assert [array.tobytes() for array in (data.xs, state.w, state.z)] == before

    def test_report_keeps_the_multiplier_its_adjoint_read(self, synthetic, default_hp,
                                                          monkeypatch):
        # The report's gradient flips the signs of the gap it reads in
        # place; the multiplier -2 sigma gap is taken from that gap before.
        data, _, _ = synthetic
        state = fit(data, default_hp.with_(maxit=3)).model
        adjoint, read = solver._adjoint, []

        def recording(x, ys, c, *args, **kwargs):
            read.append(-2.0 * default_hp.sigma * c[0])
            return adjoint(x, ys, c, *args, **kwargs)

        monkeypatch.setattr(solver, "_adjoint", recording)
        report = kkt_report(state, data, default_hp)
        assert [lam.tobytes() for lam in read] == [report.lam.tobytes()]
