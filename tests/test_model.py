import numpy as np
import pytest

from hlsmm import (
    Dataset,
    Hyperparams,
    InvalidArgumentError,
    ModelState,
    NumericalError,
    StepPolicy,
    decision_scores,
    fit,
    heaviside_count,
    margin_residuals,
    penalized_objective,
    predict,
    predict_batch,
    prox_heaviside,
)

from conftest import make_rng, peak_bytes, random_dataset


def prox_objective(z: float, x: float, gamma: float) -> float:
    """1-D objective the prox must minimize."""
    return gamma * (1.0 if z > 0 else 0.0) + 0.5 * (z - x) ** 2


def prox_oracle_two_candidates(x: float, gamma: float) -> float:
    """Independent minimizer: the optimum is either x itself or 0."""
    if prox_objective(0.0, x, gamma) <= prox_objective(x, x, gamma):
        return 0.0
    return x


def prox_oracle_grid(x: float, gamma: float, lo=-10.0, hi=10.0, step=1e-4) -> float:
    grid = np.arange(lo, hi + step / 2, step)
    values = gamma * (grid > 0) + 0.5 * (grid - x) ** 2
    return float(values.min())


class TestMarginResiduals:
    def test_zero_model_gives_ones(self):
        data = random_dataset(1)
        np.testing.assert_array_equal(
            margin_residuals(np.zeros((3, 2)), 0.0, data), np.ones(data.m))

    def test_single_sample_hand_case(self):
        data = Dataset(xs=np.array([[[1.0]], [[0.0]]]), ys=np.array([1, -1]))
        v = margin_residuals(np.array([[2.0]]), -1.0, data)
        assert v[0] == pytest.approx(0.0)   # 1 - (+1)(2 - 1)
        assert v[1] == pytest.approx(0.0)   # 1 - (-1)(0 - 1)

    def test_matches_naive_double_loop(self):
        data = random_dataset(2, m=3, p=4, q=3)
        gen = make_rng(3)
        w = gen.standard_normal((4, 3))
        b = float(gen.standard_normal())
        expected = np.array([
            1.0 - data.ys[i] * (sum(w[a, c] * data.xs[i, a, c]
                                    for a in range(4) for c in range(3)) + b)
            for i in range(3)
        ])
        np.testing.assert_allclose(margin_residuals(w, b, data), expected, rtol=1e-12)

    def test_scaling_affinity(self):
        # v(alpha W, alpha b) = 1 - alpha (1 - v(W, b)) elementwise
        data = random_dataset(4)
        gen = make_rng(5)
        w = gen.standard_normal(data.sample_shape)
        b, alpha = 0.7, 2.5
        base = margin_residuals(w, b, data)
        scaled = margin_residuals(alpha * w, alpha * b, data)
        np.testing.assert_allclose(scaled, 1.0 - alpha * (1.0 - base), rtol=1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            margin_residuals(np.zeros((2, 2)), 0.0, random_dataset(6))


class TestHeavisideCount:
    def test_case_split(self):
        assert heaviside_count([-1.0, 0.0, 2.0, 3.0]) == 2

    def test_all_zero(self):
        assert heaviside_count(np.zeros(5)) == 0

    def test_matches_scalar_loop(self):
        z = make_rng(7).standard_normal(1000)
        assert heaviside_count(z) == sum(1 for value in z if value > 0)

    def test_positive_scaling_invariance(self):
        z = make_rng(8).standard_normal(200)
        for c in (0.5, 1.0, 7.0):
            assert heaviside_count(c * z) == heaviside_count(z)


class TestPenalizedObjective:
    def test_zero_state(self):
        data = random_dataset(9, m=5)
        hp = Hyperparams(beta=0.3, sigma=0.25, rank=1)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(5))
        # each residual is 1, z = 0: objective = sigma * m
        assert penalized_objective(state, data, hp) == pytest.approx(0.25 * 5)

    def test_feasible_slack_leaves_only_loss(self):
        data = random_dataset(10, m=4)
        hp = Hyperparams(beta=0.3, sigma=0.25, rank=1)
        v = margin_residuals(np.zeros(data.sample_shape), 0.0, data)
        state = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=v)
        expected = 0.3 * heaviside_count(v)
        assert penalized_objective(state, data, hp) == pytest.approx(expected)

    def test_matches_from_scratch_evaluation(self):
        data = random_dataset(11, m=5, p=2, q=3)
        gen = make_rng(12)
        hp = Hyperparams(beta=0.7, sigma=0.2, rank=1)
        w = gen.standard_normal((2, 3))
        b = float(gen.standard_normal())
        z = gen.standard_normal(5)
        state = ModelState(w=w, b=b, z=z)
        expected = 0.5 * float(np.sum(w * w))
        expected += hp.beta * sum(1 for value in z if value > 0)
        for i in range(5):
            v_i = 1.0 - data.ys[i] * (float(np.sum(w * data.xs[i])) + b)
            expected += hp.sigma * (z[i] - v_i) ** 2
        assert penalized_objective(state, data, hp) == pytest.approx(expected, rel=1e-12)

    def test_permutation_invariance(self):
        data = random_dataset(13, m=6)
        gen = make_rng(14)
        hp = Hyperparams(beta=0.4, sigma=0.3, rank=1)
        w = gen.standard_normal(data.sample_shape)
        z = gen.standard_normal(6)
        perm = gen.permutation(6)
        permuted = Dataset(xs=data.xs[perm], ys=data.ys[perm])
        a = penalized_objective(ModelState(w=w, b=0.2, z=z), data, hp)
        b_ = penalized_objective(ModelState(w=w, b=0.2, z=z[perm]), permuted, hp)
        assert a == pytest.approx(b_, rel=1e-12)

    def test_an_overflowing_objective_is_a_numerical_error(self):
        data = random_dataset(15, m=6, p=3, q=4)
        hp = Hyperparams(beta=0.1, sigma=1.7e308, rank=1)
        state = ModelState(w=np.full(data.sample_shape, 1e200), b=0.0, z=np.zeros(data.m))
        with pytest.raises(NumericalError, match="^objective became non-finite$"):
            penalized_objective(state, data, hp)


class TestProxHeaviside:
    def test_hand_case_verified_by_oracle(self):
        x = np.array([1.5, 2.5, -3.0])
        expected = np.array([prox_oracle_two_candidates(v, 2.0) for v in x])
        np.testing.assert_array_equal(expected, [0.0, 2.5, -3.0])
        np.testing.assert_array_equal(prox_heaviside(x, 2.0), expected)
        for value, result in zip(x, prox_heaviside(x, 2.0)):
            assert prox_objective(result, value, 2.0) <= prox_oracle_grid(value, 2.0) + 1e-12

    def test_non_positive_entries_unchanged(self):
        x = np.array([-5.0, -0.1, 0.0])
        np.testing.assert_array_equal(prox_heaviside(x, 1.3), x)

    def test_boundary_ties_to_zero(self):
        gamma = 0.8
        boundary = np.sqrt(2 * gamma)
        assert prox_heaviside(np.array([boundary]), gamma)[0] == 0.0
        # both candidates attain the same objective at the boundary
        assert prox_objective(0.0, boundary, gamma) == pytest.approx(
            prox_objective(boundary, boundary, gamma))

    def test_matches_two_candidate_oracle_exactly(self):
        gen = make_rng(15)
        x = gen.uniform(-4, 4, size=10_000)
        gamma = 10.0 ** gen.uniform(-3, 1, size=10_000)
        for value, g in zip(x, gamma):
            assert prox_heaviside(np.array([value]), g)[0] == prox_oracle_two_candidates(value, g)

    def test_rejects_bad_gamma(self):
        with pytest.raises(InvalidArgumentError):
            prox_heaviside(np.zeros(3), 0.0)
        with pytest.raises(InvalidArgumentError):
            prox_heaviside(np.zeros(3), -1.0)


class TestPredict:
    def test_positive_bias(self):
        assert predict(np.zeros((2, 2)), 1.0, np.ones((2, 2))) == 1

    def test_zero_score_maps_to_negative(self):
        assert predict(np.zeros((2, 2)), 0.0, np.ones((2, 2))) == -1

    def test_batch_agrees_with_scalar(self):
        data = random_dataset(16, m=8)
        gen = make_rng(17)
        w = gen.standard_normal(data.sample_shape)
        b = 0.3
        batch = predict_batch(w, b, data)
        for i in range(data.m):
            assert batch[i] == predict(w, b, data.xs[i])

    def test_shape_mismatch(self):
        with pytest.raises(InvalidArgumentError):
            predict(np.zeros((2, 2)), 0.0, np.zeros((3, 2)))

    def test_empty_batch_has_no_scores(self):
        assert decision_scores(np.ones((2, 3)), 0.5, np.zeros((0, 2, 3))).shape == (0,)


class TestDomainTypes:
    def test_dataset_rejects_bad_labels(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(xs=np.zeros((2, 1, 1)), ys=np.array([1, 0]))

    @pytest.mark.parametrize("ys", [
        np.array([255, 1, 1, 255]),  # wraps to -1 as int8
        [1.5, -1.2, 1.0, -1.0],      # truncates to +-1
        [np.nan, 1.0, 1.0, -1.0],    # no integer at all
        [True] * 4,                  # np.isin takes True for 1
        [True, False, True, False],
    ])
    def test_dataset_checks_labels_before_the_cast(self, ys):
        with pytest.raises(InvalidArgumentError, match="labels must be -1 or \\+1"):
            Dataset(xs=np.zeros((4, 1, 1)), ys=ys)

    @pytest.mark.parametrize("idx", [np.array([True, False, True]), [0.7, 2.2],
                                     np.array([0.0, 2.0])])
    def test_subset_refuses_masks_and_floats(self, idx):
        # Cast to int64, the mask picked rows [1, 0, 1] and the floats rows 0 and 2.
        with pytest.raises(InvalidArgumentError, match="subset indices must be integers"):
            random_dataset(19, m=3).subset(idx)

    @pytest.mark.parametrize("idx", [[2, 0], np.array([2, 0], dtype=np.uint8)])
    def test_subset_takes_integer_positions(self, idx):
        data = random_dataset(19, m=3)
        picked = data.subset(idx)
        assert picked.xs.tobytes() == data.xs[[2, 0]].tobytes()
        assert picked.ys.tobytes() == data.ys[[2, 0]].tobytes()

    @pytest.mark.parametrize("idx,bad", [([5], 5), ([0, 3], 3), ([-1], -1), ([2, -3], -3),
                                         (np.array([2**64 - 1], dtype=np.uint64),
                                          2**64 - 1)])
    def test_subset_refuses_positions_outside_the_dataset(self, idx, bad):
        # [5] raised numpy's bare IndexError, [-1] picked the last row, and
        # the largest uint64 would wrap to -1 in the cast to int64.
        with pytest.raises(InvalidArgumentError,
                           match=f"subset index {bad} is outside \\[0, 3\\)"):
            random_dataset(19, m=3).subset(idx)

    def test_empty_subset_is_an_empty_dataset(self):
        # An empty list has a float dtype; it reaches the dataset's own check.
        with pytest.raises(InvalidArgumentError, match="m, p, q >= 1"):
            random_dataset(19, m=3).subset([])

    def test_dataset_rejects_empty(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(xs=np.zeros((0, 1, 1)), ys=np.array([]))

    @pytest.mark.parametrize("shape", [(2, 0, 3), (2, 3, 0)])
    def test_dataset_rejects_empty_samples(self, shape):
        with pytest.raises(InvalidArgumentError, match="p, q >= 1"):
            Dataset(xs=np.zeros(shape), ys=np.array([1, -1]))

    def test_dataset_rejects_non_finite(self):
        with pytest.raises(InvalidArgumentError):
            Dataset(xs=np.array([[[np.inf]]]), ys=np.array([1]))

    @pytest.mark.parametrize("at", [0, (1 << 16) - 1, 1 << 16, -1])
    def test_non_finite_value_in_any_block_is_refused(self, at):
        # The check runs in blocks of 2**16 values: the first and last value
        # of a block, and the last of a short final block.
        xs = np.zeros((3, 200, 200))
        xs.flat[at] = np.nan
        with pytest.raises(InvalidArgumentError, match="features must be finite"):
            Dataset(xs=xs, ys=np.ones(3))

    def test_finiteness_check_forms_no_mask_of_the_design(self):
        # The large-m benchmark's 20000 x 28 x 28 training set: a mask of the
        # whole design would take 14.96 MiB, a block's takes 64 KiB.
        xs = np.zeros((20_000, 28, 28))
        ys = np.ones(20_000, dtype=np.int8)
        assert peak_bytes(lambda: Dataset(xs=xs, ys=ys)) < 2**20

    def test_dataset_arrays_read_only(self):
        data = random_dataset(18)
        with pytest.raises(ValueError):
            data.xs[0, 0, 0] = 5.0

    def test_contiguous_float64_features_are_kept_not_copied(self):
        ys = np.array([1, -1])
        kept = np.zeros((2, 3, 2))
        assert Dataset(xs=kept, ys=ys).xs is kept
        assert not kept.flags.writeable
        for converted in (np.zeros((2, 3, 2), dtype=np.float32),
                          np.zeros((2, 2, 3)).transpose(0, 2, 1)):
            data = Dataset(xs=converted, ys=ys)
            assert not np.shares_memory(data.xs, converted)
            assert converted.flags.writeable

    def test_hyperparams_validation(self):
        with pytest.raises(InvalidArgumentError):
            Hyperparams(beta=-1.0, sigma=0.1, rank=2)
        with pytest.raises(InvalidArgumentError):
            Hyperparams(beta=0.1, sigma=0.1, rank=0)
        hp = Hyperparams(beta=0.1, sigma=0.1, rank=3)
        with pytest.raises(InvalidArgumentError, match="rank bound"):
            fit(random_dataset(7, m=6, p=2, q=3), hp)  # needs rank < min(p, q)

    def test_step_policy_validation(self):
        with pytest.raises(InvalidArgumentError):
            StepPolicy(kind="newton")
        with pytest.raises(InvalidArgumentError):
            StepPolicy(max_halvings=-1)

    @pytest.mark.parametrize("name", ["beta", "sigma", "tau1", "tau2", "tau3",
                                      "tol_step", "tol_obj"])
    @pytest.mark.parametrize("value", [np.inf, np.nan, -np.inf])
    def test_hyperparams_must_be_finite(self, name, value):
        with pytest.raises(InvalidArgumentError, match=f"{name} must be positive and finite"):
            Hyperparams(**{"beta": 0.1, "sigma": 0.1, "rank": 2, name: value})

    @pytest.mark.parametrize("alpha0", [np.inf, np.nan, 0.0])
    def test_step_size_must_be_finite(self, alpha0):
        with pytest.raises(InvalidArgumentError, match="alpha0 must be positive and finite"):
            StepPolicy(alpha0=alpha0)

    @pytest.mark.parametrize("build, message", [
        (lambda: Hyperparams(beta=0.1, sigma=0.1, rank=2, maxit=10.5),
         "maxit must be an integer, got 10.5"),
        (lambda: Hyperparams(beta=0.1, sigma=0.1, rank=2, maxit=2.0), "maxit must be an integer"),
        (lambda: Hyperparams(beta=True, sigma=0.1, rank=2), "beta must be a real number"),
        (lambda: Hyperparams(beta=0.1, sigma="0.1", rank=2), "sigma must be a real number"),
        (lambda: Hyperparams(beta=0.1, sigma=0.1, rank=2.7), "rank must be an integer"),
        (lambda: Hyperparams(beta=0.1, sigma=0.1, rank=True), "rank must be an integer"),
        (lambda: Hyperparams(beta=0.1, sigma=0.1, rank=np.float64(2.0)),
         "rank must be an integer"),
        (lambda: Hyperparams(beta=0.1, sigma=0.1, rank=2, tau1=10 ** 400),
         "tau1 must be positive and finite"),
        (lambda: StepPolicy(max_halvings=2.5), "max_halvings must be an integer"),
        (lambda: StepPolicy(max_halvings=np.True_), "max_halvings must be an integer"),
        (lambda: StepPolicy(alpha0=True), "alpha0 must be a real number"),
        (lambda: StepPolicy(alpha0="0.5"), "alpha0 must be a real number"),
    ], ids=["maxit-float", "maxit-integral-float", "beta-bool", "sigma-str", "rank-float",
            "rank-bool", "rank-np-float", "tau1-huge-int", "halvings-float",
            "halvings-np-bool", "alpha0-bool", "alpha0-str"])
    def test_ill_typed_numbers_are_refused(self, build, message):
        with pytest.raises(InvalidArgumentError, match=message):
            build()

    def test_numbers_are_stored_as_builtins(self):
        hp = Hyperparams(beta=np.float32(0.5), sigma=1, rank=np.int64(2),
                         maxit=np.uint64(7),
                         step=StepPolicy(alpha0=np.float64(0.25), max_halvings=np.int8(4)))
        values = [hp.beta, hp.sigma, hp.rank, hp.maxit, hp.step.alpha0,
                  hp.step.max_halvings]
        assert values == [0.5, 1.0, 2, 7, 0.25, 4]
        assert [type(value) for value in values] == [float, float, int, int, float, int]
