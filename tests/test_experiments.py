import dataclasses
import itertools
import warnings
import weakref
from unittest import mock

import numpy as np
import pytest

from hlsmm import (
    Dataset,
    HyperparamGrid,
    Hyperparams,
    InvalidArgumentError,
    Metrics,
    ModelState,
    evaluate,
    export_convergence_trace,
    export_weight_heatmap,
    fit,
    grid_search,
    grid_search_cv,
    noise_sweep,
    sensitivity_grid,
    split,
)
from hlsmm import experiments
from hlsmm.experiments import (
    _cv_splits,
    _stratified_folds,
    write_sensitivity_csv,
    write_sweep_csv,
)

from conftest import calls_to, make_rng, peak_bytes, random_dataset


def constant_model(data, label: float) -> ModelState:
    bias = 1.0 if label > 0 else -1.0
    return ModelState(w=np.zeros(data.sample_shape), b=bias, z=np.zeros(data.m))


class TestEvaluate:
    def test_always_positive_model(self):
        data = Dataset(xs=make_rng(100).standard_normal((5, 1, 2)),
                       ys=np.array([1, 1, 1, -1, -1]))
        metrics = evaluate(constant_model(data, +1), data)
        assert (metrics.tp, metrics.tn, metrics.fp, metrics.fn) == (3, 0, 2, 0)
        assert metrics.accuracy == pytest.approx(60.0)

    def test_perfect_model(self, synthetic, default_hp):
        data, _, _ = synthetic
        model = fit(data, default_hp).model
        assert evaluate(model, data).accuracy == pytest.approx(100.0)

    def test_matches_hand_tabulated_counts(self):
        data = random_dataset(101, m=20, p=2, q=2)
        gen = make_rng(102)
        model = ModelState(w=gen.standard_normal((2, 2)), b=0.1, z=np.zeros(20))
        scores = data.xs.reshape(20, -1) @ model.w.ravel() + model.b
        tp = tn = fp = fn = 0
        for s, y in zip(scores, data.ys):
            predicted = 1 if s > 0 else -1
            if predicted == 1 and y == 1:
                tp += 1
            elif predicted == -1 and y == -1:
                tn += 1
            elif predicted == 1 and y == -1:
                fp += 1
            else:
                fn += 1
        metrics = evaluate(model, data)
        assert (metrics.tp, metrics.tn, metrics.fp, metrics.fn) == (tp, tn, fp, fn)

    def test_permutation_invariant(self):
        data = random_dataset(103, m=12)
        gen = make_rng(104)
        model = ModelState(w=gen.standard_normal(data.sample_shape), b=0.0,
                           z=np.zeros(12))
        perm = gen.permutation(12)
        permuted = Dataset(xs=data.xs[perm], ys=data.ys[perm])
        assert evaluate(model, data) == evaluate(model, permuted)


def replace_built(grid, base) -> list:
    """The grid's records as ``dataclasses.replace`` builds them, each checked
    whole, in product order."""
    axes = ("beta", "sigma", "rank", "tau1", "tau2", "tau3")
    return [dataclasses.replace(base, **dict(zip(axes, values)))
            for values in itertools.product(*(getattr(grid, axis) for axis in axes))]


class TestGridSearch:
    def test_singleton_grid(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        grid = HyperparamGrid(beta=(0.1,), sigma=(0.1,), rank=(2,),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        best, table = grid_search(train, validation, grid, default_hp)
        assert len(table) == 1
        assert best is not None and best.beta == 0.1 and best.rank == 2

    def test_strictly_better_config_wins(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        # rank 1 cripples the rank-2 planted signal; rank 2 wins
        grid = HyperparamGrid(beta=(0.1,), sigma=(0.1,), rank=(1, 2),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        best, table = grid_search(train, validation, grid, default_hp)
        accs = {row.hyperparams.rank: row.metrics.accuracy for row in table.rows}
        assert accs[2] > accs[1]
        assert best.rank == 2

    def test_numpy_valued_grid_writes_the_same_csv(self, tmp_path, synthetic, default_hp):
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        values = dict(beta=(0.1, 0.5), sigma=(0.1,), rank=(1, 2), tau1=(1e-3,),
                      tau2=(1e-3,), tau3=(1e-4, 1e-2))
        for name, grid in [("builtin", HyperparamGrid(**values)),
                           ("numpy", HyperparamGrid(**{key: tuple(np.array(value))
                                                       for key, value in values.items()}))]:
            write_sweep_csv(grid_search(train, validation, grid, default_hp)[1],
                            tmp_path / f"{name}.csv")
        assert (tmp_path / "numpy.csv").read_bytes() == (tmp_path / "builtin.csv").read_bytes()

    @pytest.mark.parametrize("rank", [2.7, True])
    def test_grid_refuses_a_rank_that_is_not_an_integer(self, default_hp, rank):
        with pytest.raises(InvalidArgumentError, match="rank must be an integer"):
            list(HyperparamGrid(rank=(rank,)).configurations(default_hp))

    @pytest.mark.parametrize("axis, value", [
        ("beta", 0.1), ("rank", 4), ("tau2", np.float64(1e-3)), ("sigma", np.array(0.1)),
        ("tau1", "ab"), ("tau3", b"ab")])
    def test_grid_refuses_an_axis_that_is_not_a_sequence(self, axis, value):
        # A scalar has no candidates, and a string's characters are not
        # candidate values.
        with pytest.raises(InvalidArgumentError,
                           match=f"^candidates for {axis} must be a sequence of values"):
            HyperparamGrid(**{axis: value})

    def test_grid_axes_are_stored_as_tuples(self):
        grid = HyperparamGrid(beta=[0.1, 0.5], sigma=np.array([0.01, 0.1]),
                              rank=range(1, 3), tau1=(v for v in (1e-3,)))
        assert (grid.beta, grid.sigma, grid.rank, grid.tau1) == (
            (0.1, 0.5), (0.01, 0.1), (1, 2), (1e-3,))
        assert all(type(getattr(grid, axis)) is tuple
                   for axis in ("beta", "sigma", "rank", "tau1", "tau2", "tau3"))
        assert hash(grid) == hash(HyperparamGrid(beta=(0.1, 0.5), sigma=(0.01, 0.1),
                                                 rank=(1, 2), tau1=(1e-3,)))
        with pytest.raises(InvalidArgumentError, match="empty candidate list for rank"):
            HyperparamGrid(rank=[])

    def test_configurations_are_built_once_per_base(self, default_hp):
        grid = HyperparamGrid()
        first = grid.configurations(default_hp)
        assert grid.configurations(default_hp) is first
        assert list(first) == [
            dataclasses.replace(default_hp, beta=beta, sigma=sigma, rank=rank,
                                tau1=tau1, tau2=tau2, tau3=tau3)
            for beta, sigma, rank, tau1, tau2, tau3 in itertools.product(
                grid.beta, grid.sigma, grid.rank, grid.tau1, grid.tau2, grid.tau3)]
        other = default_hp.with_(maxit=7)
        rebuilt = grid.configurations(other)
        assert rebuilt is not first and [hp.maxit for hp in rebuilt] == [7] * 324
        assert grid.configurations(other) is rebuilt

    @pytest.mark.parametrize("axes, refusal", [
        ({}, None),
        ({"beta": (1, np.float64(0.5), np.int64(2)), "sigma": (np.float32(0.25), 0.1),
          "rank": (np.int64(2), 3, np.int8(1)), "tau3": (1e-3, 2)}, None),
        ({"beta": (0.0, 0.1), "tau3": (1e-3, True)}, "beta must be positive"),
        ({"beta": (0.1, -1.0), "rank": (True, 2)}, "rank must be an integer, got True"),
        ({"beta": (0.1, -1.0), "tau2": (1e-3, np.inf), "sigma": (0.1, 0.0)},
         "tau2 must be positive"),
        ({"sigma": (0.1, "x"), "rank": (2, 2.5)}, "rank must be an integer, got 2.5"),
        ({"tau1": (1e-3, True), "tau3": (1e-3, np.True_)}, "tau3 must be a real number"),
        ({"tau3": (1e-3, "a", 0.0)}, "tau3 must be a real number, got 'a'"),
        ({"rank": (np.int64(2), np.int64(-1)), "beta": (0.1, np.float64(-2.0))},
         "rank must be a positive integer"),
        ({"tau1": (1e-3, 10**400)}, "tau1 must be positive and finite"),
    ], ids=["reference", "converted", "bad-first", "bad-first-rank", "bad-later",
            "bad-later-rank", "bools", "bad-later-twice", "np-int64", "int-past-float"])
    def test_records_and_refusals_equal_replace_built_ones(self, default_hp, axes,
                                                           refusal):
        # Each value is checked once and the records are built from the
        # converted values: the same values, types and order as records that
        # are each checked whole, and the same refusal, that of the first
        # record in product order that holds a bad value.
        grid = HyperparamGrid(**axes)
        if refusal is not None:
            with pytest.raises(InvalidArgumentError) as expected:
                replace_built(grid, default_hp)
            with pytest.raises(InvalidArgumentError, match=refusal) as info:
                grid.configurations(default_hp)
            assert str(info.value) == str(expected.value)
            return
        records = grid.configurations(default_hp)
        references = replace_built(grid, default_hp)
        assert len(records) == len(references) == grid.size
        for record, reference in zip(records, references):
            for field in dataclasses.fields(Hyperparams):
                value, expected = getattr(record, field.name), getattr(reference, field.name)
                assert value == expected and type(value) is type(expected)

    def test_a_refused_grid_value_is_refused_on_every_call(self, default_hp):
        # The last record is refused; nothing is kept, so the second call
        # checks the values again and raises the same error.
        grid = HyperparamGrid(beta=(0.1,), sigma=(0.1,), rank=(2, 2.7),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        messages = []
        for _ in range(2):
            with pytest.raises(InvalidArgumentError) as info:
                grid.configurations(default_hp)
            assert grid._records is None
            messages.append(str(info.value))
        assert messages[0] == messages[1] and "rank must be an integer" in messages[0]

    def test_riders_of_a_lane_are_scored_once(self, synthetic, default_hp):
        # The three tau1 values of each beta ride one lane and stop with equal
        # models, so the validation set is scored once per lane.
        data, _, _ = synthetic
        train, validation = split(data, 0.7, stratified=True, seed=3)
        grid = HyperparamGrid(beta=(0.01, 0.1), sigma=(0.1,), rank=(2,),
                              tau1=(1e-4, 1e-3, 1e-2), tau2=(1e-3,), tau3=(1e-3,))
        with calls_to(experiments, "evaluate") as calls:
            _, result = grid_search(train, validation, grid, default_hp)
        assert len(calls) == 2 and len(result) == 6
        for row in result.rows:
            assert row.metrics == evaluate(fit(train, row.hyperparams).model, validation)

    def test_default_grid_has_324_configurations(self):
        assert HyperparamGrid().size == 324

    def test_infeasible_rank_recorded_not_dropped(self, synthetic, default_hp):
        data, _, _ = synthetic  # 8x6 samples: rank 10 is infeasible
        train, validation = split(data, 0.7, seed=1)
        grid = HyperparamGrid(beta=(0.1,), sigma=(0.1,), rank=(2, 10),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        best, table = grid_search(train, validation, grid, default_hp)
        assert len(table) == 2
        failed = [row for row in table.rows if not row.ok]
        assert len(failed) == 1 and failed[0].hyperparams.rank == 10
        assert "rank" in failed[0].error
        assert best.rank == 2

    def test_tie_breaks_toward_lower_rank_then_beta(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        grid = HyperparamGrid(beta=(0.5, 0.1), sigma=(0.1,), rank=(3, 2),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        best, table = grid_search(train, validation, grid, default_hp)
        top = max(row.metrics.accuracy for row in table.rows if row.ok)
        tied = [row.hyperparams for row in table.rows
                if row.ok and row.metrics.accuracy == top]
        expected = min(tied, key=lambda hp: (hp.rank, hp.beta))
        assert best == expected

    def test_cv_mode_runs_and_pools_folds(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, _ = split(data, 0.5, seed=2)
        grid = HyperparamGrid(beta=(0.1,), sigma=(0.1,), rank=(2,),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        best, table = grid_search_cv(train, grid, default_hp, folds=3, seed=4)
        assert best is not None
        assert table.rows[0].metrics.total == train.m  # pooled over folds

    @pytest.mark.parametrize("folds, seed, message", [
        (1, 0, "folds must be at least 2"), (2.5, 0, "folds must be an integer"),
        (True, 0, "folds must be an integer"), (3, -1, "seed must be non-negative"),
        (3, 1.5, "seed must be an integer"), (3, True, "seed must be an integer")])
    def test_cv_refuses_bad_folds_and_seeds(self, synthetic, default_hp, folds, seed,
                                            message):
        data, _, _ = synthetic
        grid = HyperparamGrid(beta=(0.1,), sigma=(0.1,), rank=(2,),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        with pytest.raises(InvalidArgumentError, match=message):
            grid_search_cv(data, grid, default_hp, folds=folds, seed=seed)

    @staticmethod
    def labelled(positives: int, negatives: int) -> Dataset:
        """Random 3x4 samples, the first ``positives`` labelled +1, the rest -1."""
        xs = make_rng(positives * 100 + negatives).standard_normal(
            (positives + negatives, 3, 4))
        return Dataset(xs=xs, ys=np.repeat(np.int8([1, -1]), [positives, negatives]))

    GRID = HyperparamGrid(beta=(0.1,), sigma=(0.1,), rank=(2,),
                          tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))

    @pytest.mark.parametrize("positives, negatives, folds", [
        (15, 15, 16), (15, 15, 20), (4, 9, 10), (9, 4, 10)])
    def test_cv_refuses_more_folds_than_the_larger_class(self, default_hp, positives,
                                                          negatives, folds):
        # A fold past the larger class's size would hold out no sample.
        data = self.labelled(positives, negatives)
        with calls_to(experiments, "fit_many") as fits, \
                pytest.raises(InvalidArgumentError) as info:
            grid_search_cv(data, self.GRID, default_hp.with_(maxit=5), folds=folds)
        assert not fits
        assert str(info.value) == (
            f"{folds} folds need at least {folds} training samples of one label; "
            f"there are {positives} of +1 and {negatives} of -1")

    @pytest.mark.parametrize("positives, negatives, folds", [(15, 15, 15), (3, 9, 9)])
    def test_cv_takes_as_many_folds_as_the_larger_class(self, default_hp, positives,
                                                        negatives, folds):
        # With the smaller class short, the folds past its size hold out
        # none of it and still score; the pooled counts cover every sample.
        data = self.labelled(positives, negatives)
        held_out = [fold for _, fold in _cv_splits(data, folds, 0)]
        assert min(map(len, held_out)) >= 1
        smaller = 1 if positives <= negatives else -1
        assert (sum(bool((data.ys[fold] == smaller).any()) for fold in held_out)
                == min(positives, negatives))
        best, table = grid_search_cv(data, self.GRID, default_hp.with_(maxit=5),
                                     folds=folds)
        assert best is not None
        assert [row.status for row in table.rows] == ["cv"]
        assert table.rows[0].metrics.total == data.m

    def test_cv_with_one_sample_of_a_label_fails_every_configuration(self, default_hp):
        # The fold that holds out the lone -1 trains on +1 samples only.
        data = self.labelled(6, 1)
        best, table = grid_search_cv(data, self.GRID, default_hp.with_(maxit=5), folds=3)
        assert best is None
        assert [(row.status, row.error) for row in table.rows] == [
            ("failed", "training requires at least one sample of each label")]

    def test_sweep_keeps_no_slack_of_the_models_it_scores(self):
        # At m = 40000 a batch takes one lane, so each sigma here is a batch
        # of its own and stops with a model of its own.  Until its pair is
        # scored, a sweep keeps a model's weights and bias, not its slack of
        # one m-vector.  Measured in m-vectors: 4.17 held-out and 7.40 CV,
        # of which the fold's training copy of four floats a sample is 2.67.
        # Keeping each model's slack would cross both bounds (about 10.2
        # and 11.4).
        data = random_dataset(91, m=40_000, p=2, q=2)
        grid = HyperparamGrid(beta=(0.1,), sigma=(0.01, 0.03, 0.1, 0.3, 1.0, 3.0, 10.0, 30.0),
                              rank=(1,), tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        base = Hyperparams(beta=0.1, sigma=0.01, rank=1, maxit=3)
        tables = []
        held_out = peak_bytes(lambda: tables.append(grid_search(data, data, grid, base)[1]))
        cv = peak_bytes(lambda: tables.append(grid_search_cv(data, grid, base, seed=91)[1]))
        for table in tables:
            assert len({row.final_objective for row in table.rows if row.ok}) == 8
        assert held_out < 4.5 * 8 * data.m
        assert cv < 8 * 8 * data.m

    def test_cv_fold_is_scored_after_its_fit_without_its_training_set(
            self, synthetic, default_hp):
        # Each held-out subset is built only once its fold's fit_many is
        # exhausted, when nothing holds the fold's training set any more;
        # and a fold's validation set is gone before the next fold is drawn.
        data, _, _ = synthetic
        train, _ = split(data, 0.7, seed=1)
        held_out = _stratified_folds(train, 3, 5)
        events, fits, subsets = [], [], []
        fit_many, subset = experiments.fit_many, Dataset.subset

        def spy_fit_many(fold, configurations):
            fits.append(weakref.ref(fold))
            events.append("fit")
            yield from fit_many(fold, configurations)
            events.append("exhausted")

        def spy_subset(self, idx):
            result = subset(self, idx)
            kind = ("held-out" if any(np.array_equal(idx, fold) for fold in held_out)
                    else "train")
            events.append((kind, [ref() is None for ref in fits + subsets]))
            subsets.append(weakref.ref(result))
            return result

        with mock.patch.object(experiments, "fit_many", spy_fit_many), \
                mock.patch.object(Dataset, "subset", spy_subset):
            _, table = grid_search_cv(train, TestSweepEngine.GRID, default_hp,
                                      folds=3, seed=5)
        assert events == [
            ("train", []), "fit", "exhausted", ("held-out", [True] * 2),
            ("train", [True] * 3), "fit", "exhausted", ("held-out", [True] * 5),
            ("train", [True] * 6), "fit", "exhausted", ("held-out", [True] * 8)]
        assert all(row.metrics.total == train.m for row in table.rows if row.ok)

    def test_best_reproduces_reported_accuracy(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        grid = HyperparamGrid(beta=(0.1, 0.5), sigma=(0.1,), rank=(2,),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        best, table = grid_search(train, validation, grid, default_hp)
        reported = max(row.metrics.accuracy for row in table.rows if row.ok)
        refit = evaluate(fit(train, best).model, validation)
        assert refit.accuracy == pytest.approx(reported)


def reference_rows(configurations, pairs):
    """Fit and score each configuration on every pair, written out by hand.

    One tuple per configuration: (hyperparams, pooled metrics, summed
    iterations, last pair's objective, last pair's status, error).
    """
    rows = []
    for hp in configurations:
        pooled, iterations = Metrics(0, 0, 0, 0), 0
        try:
            for train, validation in pairs:
                result = fit(train, hp)
                pooled = pooled + evaluate(result.model, validation)
                iterations += result.model.iter
        except InvalidArgumentError as exc:
            rows.append((hp, None, None, None, "failed", str(exc)))
            continue
        rows.append((hp, pooled, iterations, result.trace.objective[-1],
                     result.trace.status, None))
    return rows


def table_rows(table):
    return [(row.hyperparams, row.metrics, row.iterations, row.final_objective,
             row.status, row.error) for row in table.rows]


class TestSweepEngine:
    # 8x6 samples: rank 6 is infeasible, so each grid has a failed cell.
    GRID = HyperparamGrid(beta=(0.1, 0.5), sigma=(0.1,), rank=(2, 6),
                          tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))

    def test_grid_search_rows_match_reference(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        _, table = grid_search(train, validation, self.GRID, default_hp)
        expected = reference_rows(self.GRID.configurations(default_hp),
                                  [(train, validation)])
        assert table_rows(table) == expected
        assert [row.index for row in table.rows] == list(range(4))
        assert [row.ok for row in table.rows] == [True, False, True, False]
        assert all(row.status in ("converged", "max_iter")
                   for row in table.rows if row.ok)

    def test_cv_rows_pool_folds_like_reference(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, _ = split(data, 0.7, seed=1)
        _, table = grid_search_cv(train, self.GRID, default_hp, folds=3, seed=5)
        pairs = [(train.subset(np.setdiff1d(np.arange(train.m), held_out)),
                  train.subset(held_out))
                 for held_out in _stratified_folds(train, 3, 5)]
        expected = [row[:4] + ("cv" if row[5] is None else "failed", row[5])
                    for row in reference_rows(self.GRID.configurations(default_hp),
                                              pairs)]
        assert table_rows(table) == expected
        assert [row.ok for row in table.rows] == [True, False, True, False]
        assert "rank" in table.rows[1].error
        assert all(row.metrics.total == train.m for row in table.rows if row.ok)

    def test_scoring_states_equal_checked_ones(self, synthetic, default_hp):
        # A sweep scores each group's (w, b) as a state built without the
        # checks, with an empty float64 slack: what the checked constructor
        # stores for the same values.
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        with calls_to(experiments, "evaluate") as calls:
            grid_search(train, validation, self.GRID, default_hp)
        assert calls
        for call in calls:
            state = call.args[0]
            checked = ModelState(w=state.w, b=state.b, z=())
            assert state.w.dtype == np.float64 and state.w.shape == data.sample_shape
            assert np.array_equal(state.w, checked.w)
            assert state.z.dtype == checked.z.dtype == np.float64
            assert state.z.shape == checked.z.shape == (0,)
            assert type(state.b) is float and state.b == checked.b
            assert state.iter == checked.iter == 0

    def test_sweep_records_are_slotted_and_frozen(self, synthetic, default_hp):
        # A sweep holds one Hyperparams (with its StepPolicy), SweepRow and
        # Metrics per configuration; slots keep each without a __dict__.  A
        # name that is not a field is refused as a field is: the __setattr__
        # and __delattr__ that dataclass generates name the class that
        # slots=True replaces, and raised TypeError from super() for it.
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        _, table = grid_search(train, validation, self.GRID, default_hp)
        row = table.rows[0]
        for record in (row, row.hyperparams, row.hyperparams.step, row.metrics):
            assert not hasattr(record, "__dict__")
            for name in [field.name for field in dataclasses.fields(record)] + ["note"]:
                with pytest.raises(dataclasses.FrozenInstanceError):
                    setattr(record, name, None)
                with pytest.raises(dataclasses.FrozenInstanceError):
                    delattr(record, name)

    @pytest.mark.parametrize("m,folds,seed", [(7, 2, 1), (30, 3, 0), (31, 4, 5),
                                              (200, 3, 7)])
    def test_cv_training_indices_match_setdiff_reference(self, m, folds, seed):
        data = random_dataset(seed, m=m)
        splits = list(_cv_splits(data, folds, seed))
        reference = _stratified_folds(data, folds, seed)
        assert len(splits) == len(reference) == folds
        for (keep, held_out), expected_held_out in zip(splits, reference):
            np.testing.assert_array_equal(held_out, expected_held_out)
            np.testing.assert_array_equal(
                keep, np.setdiff1d(np.arange(m), expected_held_out))


class TestNoiseSweep:
    def test_level_zero_equals_clean_eval(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        table, means = noise_sweep(train, test, default_hp, "gaussian",
                                   levels=[0.0], seeds=[1, 2, 3])
        clean = evaluate(fit(train, default_hp).model, test)
        assert all(row.metrics == clean for row in table.rows)
        assert means[0.0] == pytest.approx(clean.accuracy)

    def test_extreme_corruption_hurts(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        _, means = noise_sweep(train, test, default_hp, "gaussian",
                               levels=[0.0, 25.0], seeds=[1, 2, 3, 4, 5])
        assert means[0.0] >= means[25.0] - 1.0

    def test_salt_pepper_kind(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        table, means = noise_sweep(train, test, default_hp, "salt_pepper",
                                   levels=[0.0, 0.1], seeds=[1])
        assert len(table) == 2
        assert set(means) == {0.0, 0.1}

    def test_row_structure(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        table, _ = noise_sweep(train, test, default_hp, "gaussian",
                               levels=[0.0, 0.05], seeds=[1, 2])
        assert [(r.noise_level, r.noise_seed) for r in table.rows] == [
            (0.0, 1), (0.0, 2), (0.05, 1), (0.05, 2)]


    # Each is refused before the fit.
    @pytest.mark.parametrize("levels, seeds", [
        ([0.0], [-1]), ([-0.1], [1]), ([0.1, np.nan], [1]), ([np.inf], [1]),
        ([10**400], [1]), ([0.0], [1.5]), ([0.0], [True])])
    def test_negative_level_or_seed_rejected(self, synthetic, default_hp, levels, seeds):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        with calls_to(experiments, "fit") as fits, \
                pytest.raises(InvalidArgumentError,
                              match="must be (non-negative|an integer)"):
            noise_sweep(train, test, default_hp, "gaussian", levels, seeds)
        assert not fits

    @pytest.mark.parametrize("kind, levels, seeds, message", [
        ("speckle", [0.1], [1], "^unknown noise kind 'speckle'$"),
        ("gaussian", [], [1], "^need at least one level and one seed$"),
        ("salt_pepper", [0.1], [], "^need at least one level and one seed$"),
    ], ids=["unknown-kind", "no-levels", "no-seeds"])
    def test_unknown_kind_or_empty_list_rejected(self, synthetic, default_hp, kind, levels,
                                                 seeds, message):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        with calls_to(experiments, "fit") as fits, \
                pytest.raises(InvalidArgumentError, match=message):
            noise_sweep(train, test, default_hp, kind, levels, seeds)
        assert not fits

    @pytest.mark.parametrize("level", [1.5, np.nan])
    def test_salt_pepper_level_outside_zero_one_rejected(self, synthetic, default_hp,
                                                         level):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        with calls_to(experiments, "fit") as fits, \
                pytest.raises(InvalidArgumentError,
                              match=f"^noise level {level} must lie in \\[0, 1\\]$"):
            noise_sweep(train, test, default_hp, "salt_pepper", [0.1, level], [1])
        assert not fits


class TestSensitivityGrid:
    def test_single_cell(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        surface = sensitivity_grid(train, test, default_hp, [2], [0.1])
        direct = evaluate(fit(train, default_hp).model, test)
        assert surface.shape == (1, 1)
        assert surface[0, 0] == pytest.approx(direct.accuracy)

    def test_duplicate_rank_rows_identical(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        surface = sensitivity_grid(train, test, default_hp, [2, 2], [0.1, 0.5])
        np.testing.assert_array_equal(surface[0], surface[1])

    def test_cells_match_individual_fits(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        r_values, beta_values = [1, 2], [0.1, 0.5, 1.0]
        surface = sensitivity_grid(train, test, default_hp, r_values, beta_values)
        for i, rank in enumerate(r_values):
            for j, beta in enumerate(beta_values):
                hp = default_hp.with_(rank=rank, beta=beta)
                expected = evaluate(fit(train, hp).model, test).accuracy
                assert surface[i, j] == pytest.approx(expected)

    def test_rank_that_is_not_an_integer_is_refused(self, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        with pytest.raises(InvalidArgumentError, match="rank must be an integer"):
            sensitivity_grid(train, test, default_hp, [2.7], [0.1])

    @pytest.mark.parametrize("r_values, beta_values", [([], [0.1]), ([2], [])],
                             ids=["no-ranks", "no-betas"])
    def test_empty_value_list_is_refused(self, synthetic, default_hp, r_values, beta_values):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        with calls_to(experiments, "fit") as fits, \
                pytest.raises(InvalidArgumentError, match="^value lists must be non-empty$"):
            sensitivity_grid(train, test, default_hp, r_values, beta_values)
        assert not fits

    def test_infeasible_cell_is_nan(self, synthetic, default_hp):
        data, _, _ = synthetic  # 8x6: rank 6 infeasible
        train, test = split(data, 0.7, seed=1)
        surface = sensitivity_grid(train, test, default_hp, [6], [0.1])
        assert np.isnan(surface[0, 0])

    def test_csv_writer(self, tmp_path, synthetic, default_hp):
        data, _, _ = synthetic
        train, test = split(data, 0.7, seed=1)
        surface = sensitivity_grid(train, test, default_hp, [2], [0.1])
        out = tmp_path / "sens.csv"
        write_sensitivity_csv(surface, [2], [0.1], out)
        lines = out.read_text().splitlines()
        assert lines[0] == "rank,beta,accuracy"
        assert lines[1].startswith("2,0.1,")


class TestExports:
    def test_zero_matrix_pgm_is_mid_gray(self, tmp_path):
        export_weight_heatmap(np.zeros((2, 3)), tmp_path / "w.csv", tmp_path / "w.pgm")
        blob = (tmp_path / "w.pgm").read_bytes()
        header, pixels = blob.rsplit(b"\n", 1)[0], blob[-6:]
        assert header == b"P5\n3 2\n255"
        assert pixels == bytes([128] * 6)

    def test_diag_scaling_example(self, tmp_path):
        export_weight_heatmap(np.diag([1.0, -1.0]), tmp_path / "w.csv",
                              tmp_path / "w.pgm")
        pixels = (tmp_path / "w.pgm").read_bytes()[-4:]
        assert list(pixels) == [255, 128, 128, 0]

    def test_span_that_overflows_still_maps_min_to_0_and_max_to_255(self, tmp_path):
        w = np.array([[1.7e308, -1.7e308], [0.0, 1.234e308]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            export_weight_heatmap(w, tmp_path / "w.csv", tmp_path / "w.pgm")
        pixels = (tmp_path / "w.pgm").read_bytes()[-4:]
        assert list(pixels) == [255, 0, 128, 220]

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_non_finite_weights_are_refused_before_writing(self, tmp_path, bad):
        w = np.array([[bad, 0.0], [1.0, 2.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidArgumentError, match="^weight matrix must be finite$"):
                export_weight_heatmap(w, tmp_path / "w.csv", tmp_path / "w.pgm")
        assert not (tmp_path / "w.csv").exists() and not (tmp_path / "w.pgm").exists()

    def test_weights_that_are_not_a_matrix_are_refused_before_writing(self, tmp_path):
        with pytest.raises(InvalidArgumentError, match="^weight matrix must be 2-D$"):
            export_weight_heatmap(np.ones(4), tmp_path / "w.csv", tmp_path / "w.pgm")
        assert not (tmp_path / "w.csv").exists() and not (tmp_path / "w.pgm").exists()

    @pytest.mark.parametrize("scale", [1.0, 1e-300, 8e307])
    def test_finite_span_is_scaled_by_the_plain_formula(self, tmp_path, scale):
        w = make_rng(106).uniform(-1.0, 1.0, (5, 7)) * scale
        w[0, 0], w[0, 1] = -scale, scale  # a span of 2 * scale, finite
        export_weight_heatmap(w, tmp_path / "w.csv", tmp_path / "w.pgm")
        low, high = w.min(), w.max()
        expected = np.rint((w - low) / (high - low) * 255.0).astype(np.uint8)
        assert (tmp_path / "w.pgm").read_bytes().endswith(expected.tobytes())

    def test_csv_round_trip_exact(self, tmp_path):
        w = make_rng(105).standard_normal((4, 5))
        export_weight_heatmap(w, tmp_path / "w.csv", tmp_path / "w.pgm")
        back = np.loadtxt(tmp_path / "w.csv", delimiter=",")
        np.testing.assert_array_equal(back, w)  # 17 significant digits round-trip

    def test_trace_csv_initial_row_only_for_maxit_zero(self, tmp_path,
                                                       synthetic, default_hp):
        data, _, _ = synthetic
        result = fit(data, default_hp.with_(maxit=0))
        out = tmp_path / "trace.csv"
        export_convergence_trace(result.trace, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "iter,objective,w_step_norm,z_step_norm,b_step,halvings"
        assert len(lines) == 2 and lines[1].startswith("0,")

    def test_trace_csv_converged_run(self, tmp_path, synthetic, default_hp):
        data, _, _ = synthetic
        result = fit(data, default_hp)
        out = tmp_path / "trace.csv"
        export_convergence_trace(result.trace, out)
        body = np.loadtxt(out, delimiter=",", skiprows=1)
        objective = body[:, 1]
        assert np.all(np.diff(objective) <= 1e-10)
        w_norm = float(np.linalg.norm(result.model.w))
        assert body[-1, 2] <= default_hp.tol_step * max(1.0, w_norm)

    def test_sweep_csv_deterministic(self, tmp_path, synthetic, default_hp):
        data, _, _ = synthetic
        train, validation = split(data, 0.7, seed=1)
        grid = HyperparamGrid(beta=(0.1, 0.5), sigma=(0.1,), rank=(2,),
                              tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        _, table1 = grid_search(train, validation, grid, default_hp)
        _, table2 = grid_search(train, validation, grid, default_hp)
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        write_sweep_csv(table1, a)
        write_sweep_csv(table2, b)
        assert a.read_bytes() == b.read_bytes()
