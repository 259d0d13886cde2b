"""Lockstep lanes: every lane of ``fit_many`` equals a lone ``fit`` bit for bit."""

import contextlib
import dataclasses
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlsmm import (Dataset, HyperparamGrid, Hyperparams, InvalidArgumentError,
                   ModelState, NumericalError, StepPolicy, fit, grid_search,
                   grid_search_cv, make_lowrank_separable, split)
from hlsmm import solver
from hlsmm.experiments import SweepResult, write_sweep_csv
from hlsmm.solver import FitResult, fit_many

from conftest import calls_to, make_rng, peak_bytes, random_dataset

TAUS = (1e-4, 1e-3, 1e-2)
FIXED = StepPolicy(kind="fixed")
FIXED_STEP = StepPolicy(kind="fixed", alpha0=1e-2)  # tau1 enters no update
HALVING = StepPolicy(alpha0=4.0, max_halvings=8)  # starts long, so it halves
STALL = StepPolicy(alpha0=1e6, max_halvings=2)    # overshoots past two halvings
LONG_STEP = StepPolicy(kind="fixed", alpha0=0.1)  # no descent guarantee: may fail


def lone(data, hp):
    try:
        return fit(data, hp)
    except (InvalidArgumentError, NumericalError) as exc:
        return exc


def by_position(data, configurations, init=None) -> dict:
    """fit_many's outcome for each position, with each result echoing its own
    configuration, as a lone fit's does."""
    outcomes = {}
    for positions, outcome in fit_many(data, configurations, init):
        for index in positions:
            assert index not in outcomes
            outcomes[index] = echoing(outcome, configurations[index])
    return outcomes


def echoing(outcome, hp):
    """A group's outcome as the configuration ``hp`` of the group gets it alone."""
    if isinstance(outcome, FitResult):
        return dataclasses.replace(outcome, hyperparams_echo=hp)
    return outcome


def outcome_bits(outcome):
    """Everything a lane returns, as bytes where floats are involved."""
    if isinstance(outcome, Exception):
        return type(outcome), str(outcome)
    model, trace = outcome.model, outcome.trace
    columns = (trace.objective, trace.w_step, trace.z_step, trace.b_step)
    return (model.w.shape, model.w.tobytes(), np.float64(model.b).tobytes(),
            model.z.tobytes(), model.iter, trace.halvings, trace.status,
            [np.array(column).tobytes() for column in columns],
            outcome.hyperparams_echo)


def wdbc_proxy(seed: int, m: int = 398) -> Dataset:
    """An m x 5 x 6 training set like the WDBC-shaped grid's: standard normal
    samples labelled by a planted rank-2 direction, 5% of the labels flipped."""
    gen = make_rng(seed)
    xs = gen.standard_normal((m, 5, 6))
    w_star = gen.standard_normal((5, 2)) @ gen.standard_normal((2, 6))
    ys = np.where(xs.reshape(m, -1) @ w_star.ravel() > 0, 1, -1)
    ys[gen.choice(m, size=m // 20, replace=False)] *= -1
    return Dataset(xs=xs, ys=ys)


@st.composite
def lane_batches(draw):
    """A small random dataset and a shuffled list of configurations for it.

    The list always holds an infeasible rank, a fixed step, a backtracking
    step that halves, one that stalls and a long fixed step; three
    configurations that differ only in tau1; three that differ only in beta,
    whose lane forks once their slacks part; and a pair that differs only in
    tau1 and straddles the W acceptance test, so that it splits.  Random
    ones come on top.
    """
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    data = random_dataset(draw(st.integers(0, 10_000)), m=draw(st.integers(8, 40)),
                          p=p, q=q)
    low = min(p, q)

    def config(rank, step):
        return Hyperparams(
            beta=draw(st.sampled_from((0.01, 0.1, 0.5))),
            sigma=draw(st.sampled_from((0.01, 0.1, 1.0))), rank=rank,
            tau1=draw(st.sampled_from(TAUS)), tau2=draw(st.sampled_from(TAUS)),
            tau3=draw(st.sampled_from(TAUS)), maxit=draw(st.integers(0, 25)),
            step=step)

    policies = (StepPolicy(), FIXED, FIXED_STEP, HALVING, STALL)
    siblings = config(draw(st.integers(1, low - 1)), draw(st.sampled_from(policies)))
    family = config(draw(st.integers(1, low - 1)), draw(st.sampled_from(policies)))
    straddle = config(low - 1, HALVING)
    required = [config(low, StepPolicy()), config(1, FIXED),
                config(low - 1, HALVING), config(1, STALL),
                config(draw(st.integers(1, low - 1)), LONG_STEP),
                *(siblings.with_(tau1=tau1) for tau1 in TAUS),
                *(family.with_(beta=beta) for beta in (0.01, 0.1, 0.5)),
                straddle.with_(tau1=1e-4), straddle.with_(tau1=1e3)]
    extras = [config(draw(st.integers(1, low)), draw(st.sampled_from(policies)))
              for _ in range(draw(st.integers(0, 4)))]
    return data, draw(st.permutations(required + extras))


@st.composite
def small_grids(draw):
    """A small random dataset and the shuffled configurations of one small grid
    under a fixed and a backtracking step policy.

    The grid holds a rank below min(p, q) and one that is not, and one to
    three values of beta, sigma and tau1, so that tau1 and beta siblings
    ride together.  A tau1 of 1e3 rejects steps that 1e-4 accepts, so that
    its rider may split, and the long fixed step fails some lanes.
    """
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    low = min(p, q)
    data = random_dataset(draw(st.integers(0, 10_000)), m=draw(st.integers(8, 30)),
                          p=p, q=q)

    def some(values):
        return draw(st.lists(st.sampled_from(values), min_size=1, max_size=3, unique=True))

    ranks = (draw(st.integers(1, low - 1)), draw(st.integers(low, low + 1)))
    grid = HyperparamGrid(beta=some((0.01, 0.1, 0.5)), sigma=some((0.01, 0.1, 1.0)),
                          rank=ranks, tau1=some((1e-4, 1e-2, 1e3)), tau2=(1e-3,), tau3=(1e-3,))
    steps = (draw(st.sampled_from((FIXED, FIXED_STEP, LONG_STEP))),
             draw(st.sampled_from((StepPolicy(), HALVING, STALL))))
    base = Hyperparams(beta=0.1, sigma=0.1, rank=1, maxit=draw(st.integers(0, 20)))
    configurations = [hp for step in steps
                      for hp in grid.configurations(base.with_(step=step))]
    return data, draw(st.permutations(configurations))


class TestLockstepLanes:
    @settings(max_examples=30, deadline=None)
    @given(small_grids())
    def test_each_group_shares_the_outcome_of_a_lone_fit(self, batch):
        # fit_many yields each group of configurations that share an outcome
        # once: their positions partition the list, all the configurations
        # of one refused rank bound share one error, and every position's
        # lone fit returns the group's outcome bit for bit, or raises its
        # error, apart from the echo of its own configuration.
        data, configurations = batch
        groups = list(fit_many(data, configurations))
        positions = sorted(index for group, _ in groups for index in group)
        assert positions == list(range(len(configurations)))
        infeasible = {index for index, hp in enumerate(configurations)
                      if hp.rank >= min(data.sample_shape)}
        refused = [group for group, outcome in groups
                   if isinstance(outcome, InvalidArgumentError)]
        assert {index for group in refused for index in group} == infeasible
        ranks = [{configurations[index].rank for index in group} for group in refused]
        assert all(len(rank) == 1 for rank in ranks)
        assert len(set().union(*ranks)) == len(refused)
        for group, outcome in groups:
            if isinstance(outcome, FitResult):
                assert outcome.hyperparams_echo is configurations[group[0]]
            for index in group:
                hp = configurations[index]
                assert outcome_bits(echoing(outcome, hp)) == outcome_bits(lone(data, hp))

    @settings(max_examples=60, deadline=None)
    @given(lane_batches(), st.sampled_from((1, 400, 1 << 16)))
    def test_every_lane_equals_a_lone_fit(self, batch, budget):
        # The budget sets the batch width: one lane per batch, a few, or all,
        # forks included.
        data, configurations = batch
        with mock.patch.object(solver, "BATCH_FLOATS", budget), \
                calls_to(solver._Lanes, "__init__") as builds, \
                calls_to(solver, "project_rank") as calls:
            outcomes = by_position(data, configurations)
        widths = [len(call.args[2]) for call in builds] + stack_sizes(calls)
        assert max(widths) <= max(1, budget // (4 * data.m))
        assert sorted(outcomes) == list(range(len(configurations)))
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_lane_leaves_its_batch_unchanged(self, synthetic, default_hp):
        # One backtracking batch, in which the huge sigma overflows the
        # gradient of its own lane only; a halving and a stalling lane; and a
        # long fixed-step batch in which one lane's objective rises at
        # iteration 17 and the other stops at maxit first.
        data, _, _ = synthetic
        configurations = [
            default_hp, default_hp.with_(sigma=1e307), default_hp.with_(beta=0.5),
            default_hp.with_(step=HALVING), default_hp.with_(step=STALL),
            default_hp.with_(rank=6), default_hp.with_(step=LONG_STEP),
            default_hp.with_(step=LONG_STEP, maxit=5),
        ]
        outcomes = by_position(data, configurations)
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))
        kinds = [type(outcomes[i]).__name__ for i in range(len(configurations))]
        assert kinds == ["FitResult", "NumericalError", "FitResult", "FitResult",
                         "FitResult", "InvalidArgumentError", "NumericalError",
                         "FitResult"]
        assert sum(outcomes[3].trace.halvings) > 0
        assert outcomes[4].trace.status == "stalled"

    @pytest.mark.parametrize("constant,message", [
        ("MONOTONE_SLACK", "objective increased"),
        ("DECREASE_SLACK", "sufficient decrease violated"),
    ])
    def test_descent_assertions_run_on_every_lane(self, synthetic, default_hp,
                                                  constant, message):
        # A slack of -1e6 makes every iteration fail the assertion, so each lane
        # of the batch must report it for itself at its first iteration.
        data, _, _ = synthetic
        configurations = [default_hp.with_(beta=beta) for beta in (0.01, 0.1, 0.5)]
        with mock.patch.object(solver, constant, -1e6):
            outcomes = by_position(data, configurations)
        assert sorted(outcomes) == [0, 1, 2]
        for outcome in outcomes.values():
            assert isinstance(outcome, NumericalError)
            assert message in str(outcome) and outcome.iteration == 1

    def test_a_batch_builds_its_columns_once(self, synthetic, default_hp):
        # Lanes that stop at different iterations and a rider that splits
        # shrink the batch in place: one _Lanes per _lockstep call, the
        # split rider's refit included.
        data, _, _ = synthetic
        configurations = [default_hp.with_(step=HALVING, tau1=tau1) for tau1 in (1e-4, 1e3)]
        configurations += [default_hp.with_(step=HALVING, beta=beta, maxit=maxit)
                           for beta, maxit in ((0.01, 3), (0.5, 7), (0.2, 1000))]
        with calls_to(solver._Lanes, "__init__") as builds, \
                calls_to(solver, "_lockstep") as batches, \
                calls_to(solver, "_w_step") as steps:
            outcomes = by_position(data, configurations)
        assert [index for call in steps for index in call.result[5]] == [1]
        assert len({outcome.model.iter for outcome in outcomes.values()}) >= 3
        assert len(batches) == 2 and len(builds) == len(batches)

    def test_trace_storage_follows_iterations_not_maxit(self, synthetic, default_hp):
        # maxit is an upper bound, not a size: a fit that converges early
        # must not reserve room for maxit iterations.
        data, _, _ = synthetic
        huge = fit(data, default_hp.with_(maxit=10**19))
        assert outcome_bits(huge)[:-1] == outcome_bits(fit(data, default_hp))[:-1]
        assert huge.converged and len(huge.trace) > 64


def poisoned(name: str, row: int, at: int, value: float):
    """Patch the kernel so that on its ``at``-th call ``name`` hands back row
    ``row`` of its first result (the objective per lane, or the new W, z or b)
    with ``value`` in its first entry, in place: the objective counts its call at the
    start as call 0, the blocks count from 1, so ``at`` is the iteration."""
    owner, attribute = (solver._Problem, "objective") if name == "g" else \
        (solver, {"w": "_w_step", "z": "_z_step", "b": "_b_step"}[name])
    original, calls = getattr(owner, attribute), []

    def wrapper(*args):
        result = original(*args)
        if len(calls) == (at if name == "g" else at - 1):
            array = result[0] if isinstance(result, tuple) else result
            array.reshape(len(array), -1)[row, 0] = value
        calls.append(None)
        return result

    return mock.patch.object(owner, attribute, wrapper)


class TestNonFiniteChecks:
    """A lane whose new W, z or b holds a non-finite entry fails with "iterate
    became non-finite"; one whose iterates are finite but whose objective is
    not fails with "objective became non-finite".  A non-finite iterate makes
    the objective non-finite too, and the iterate's message wins.  Either
    ends its own lane at its iteration and leaves the others as they were."""

    CASES = [("w", np.inf, "iterate"), ("z", np.nan, "iterate"), ("b", -np.inf, "iterate"),
             ("b", np.nan, "iterate"), ("g", np.inf, "objective"), ("g", np.nan, "objective")]

    @pytest.mark.parametrize("name,value,message", CASES)
    def test_lone_fit_reports_the_iteration(self, synthetic, default_hp, name, value,
                                            message):
        data, _, _ = synthetic
        with poisoned(name, 0, 3, value), pytest.raises(NumericalError) as info:
            fit(data, default_hp)
        assert str(info.value) == f"{message} became non-finite (iteration 3)"
        assert info.value.iteration == 3

    @pytest.mark.parametrize("name,value,message", CASES)
    def test_batch_fails_that_lane_alone(self, synthetic, default_hp, name, value, message):
        # Three lanes of distinct sigma, the middle one poisoned at iteration 2.
        data, _, _ = synthetic
        configurations = [default_hp.with_(sigma=sigma) for sigma in (0.05, 0.1, 0.2)]
        with poisoned(name, 1, 2, value), calls_to(solver, "_lockstep") as batches:
            outcomes = by_position(data, configurations)
        assert len(batches) == 1 and sorted(outcomes) == [0, 1, 2]
        assert isinstance(outcomes[1], NumericalError)
        assert str(outcomes[1]) == f"{message} became non-finite (iteration 2)"
        assert outcomes[1].iteration == 2
        for index in (0, 2):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, configurations[index]))


class TestBatchWidth:
    """A batch takes BATCH_FLOATS // (4 m) lanes, a lane counted once per
    distinct beta of its riders.

    A lone lane holds three m-vectors in every block, plus the kernel's
    8 KiB ufunc buffer wherever the int8 labels are cast for a product and
    the prox's one bool mask.  A wider batch holds three (K, m) arrays in
    its z and b blocks, so the width's four per lane cover the lone lane
    with its buffer and mask.
    """

    @pytest.mark.parametrize("budget,widths", [
        (1, [1] * 12), (400, [2] * 6), (1 << 16, [4])])
    def test_budget_sets_the_width(self, budget, widths):
        # 4 m = 160 floats per lane, and the rank group is four families of
        # three beta siblings, each counted as the three lanes it can fork
        # into.  A width of one or two lanes parts each family by beta up
        # front: one lane per batch, or batches of two; a width of 409 takes
        # the whole group as four lanes.
        data = random_dataset(71, m=40, p=3, q=4)
        configurations = [Hyperparams(beta=beta, sigma=sigma, rank=1, maxit=3)
                          for beta in (0.01, 0.1, 0.5) for sigma in (0.01, 0.1, 1.0, 10.0)]
        with mock.patch.object(solver, "BATCH_FLOATS", budget), \
                calls_to(solver._Lanes, "__init__") as builds:
            outcomes = by_position(data, configurations)
        # The riders each batch is built with: one list per lane.
        assert [len(call.args[2]) for call in builds] == widths
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    @pytest.mark.parametrize("m", [265, 398])
    def test_reference_rank_group_is_one_batch(self, m):
        # On 5x6 samples the reference grid's feasible rank group is 162
        # configurations in 18 lanes: tau1 siblings ride together, and so do
        # beta siblings from the zero slack.  They count as 54 lanes, the
        # most they can fork into.  At the sizes of the WDBC-shaped grid's
        # training set (398) and of its CV folds (265) that is one batch, so
        # the first W step projects the 18 lanes in one stack, and no later
        # stack holds more than 54.
        data = random_dataset(72, m=m, p=5, q=6)
        grid = HyperparamGrid()
        configurations = list(grid.configurations(Hyperparams(beta=0.1, sigma=0.01,
                                                              rank=4, maxit=30)))
        with calls_to(solver, "project_rank") as calls:
            outcomes = by_position(data, configurations)
        assert sorted(outcomes) == list(range(grid.size))
        sizes = stack_sizes(calls)
        assert sizes[0] == 18 and max(sizes) <= 54

    @pytest.mark.parametrize("maxit", [30, 1000])
    def test_peak_memory_of_the_reference_grid(self, maxit):
        # One batch of K lanes, 18 that fork into 45 to 48 here, holds three
        # K x 398 arrays in its W trial, z and b blocks and two in its
        # gradient and objective, plus the prox's mask, the configurations
        # and the trace, which grows by doubling with the iterations run.  A
        # fork drops the center and builds it again once the batch grows.  A
        # release copies the leaving riders' results out of the iterates as
        # they are, then moves the kept rows in place.  Measured 0.54-0.68
        # MiB over three proxies at maxit 30 and 0.74 at maxit 1000; with 54
        # lanes, before beta siblings shared, 0.64-0.75.  A fourth live
        # 54 x 398 array (0.164 MiB), such as tau2 z taken whole, would cross
        # the bound.
        data = wdbc_proxy(73)
        configurations = list(HyperparamGrid(rank=(4,)).configurations(
            Hyperparams(beta=0.1, sigma=0.01, rank=4, maxit=maxit)))

        def run():  # counts the positions without keeping the outcomes
            groups = fit_many(data, configurations)
            assert sum(len(positions) for positions, _ in groups) == 162

        assert peak_bytes(run) < 0.78 * 2**20

    def test_w_block_of_a_halving_batch_stays_in_budget(self):
        # Above its entry the W block holds the kept scores and a trial's
        # scores, plus one lane's gap at a time in a trial on some of the
        # lanes.  Measured: 2.47 (K, m) arrays (2.59 before beta siblings
        # shared a lane), where copying the slack rows of the pending lanes
        # and stacking their gaps took 4.41, past the three that
        # BATCH_FLOATS // (4 m) leaves beside the slack.
        data, _, _ = make_lowrank_separable(m=398, p=5, q=6, rank=2, margin=0, seed=3)
        configurations = list(HyperparamGrid(rank=(4,)).configurations(
            Hyperparams(beta=0.1, sigma=0.01, rank=4, maxit=30, step=HALVING)))
        original, rises = solver._w_step, []

        def w_step(problem, lanes, w, *args):
            entry = tracemalloc.get_traced_memory()[0]
            tracemalloc.reset_peak()
            result = original(problem, lanes, w, *args)
            peak = tracemalloc.get_traced_memory()[1]
            rises.append((peak - entry) / (8 * len(w) * problem.m))
            return result

        tracemalloc.start()
        try:
            with mock.patch.object(solver, "_w_step", w_step):
                outcomes = by_position(data, configurations)
        finally:
            tracemalloc.stop()
        assert max(max(outcome.trace.halvings) for outcome in outcomes.values()) > 0
        assert max(rises) <= 3

    def test_release_compacts_the_kept_lanes_in_place(self):
        # Lanes with maxit 5 and 8 leave from the middle of a six-lane batch,
        # so the rows it keeps are not contiguous.  Each step of a release
        # copies out at most one rider's result: its slack (one m-vector),
        # its 5 x 6 weights and a trace of at most 21 rows, with the bool
        # mask of ModelState's finiteness check.  The last step moves the
        # kept rows in place and copies only the trace.  Measured at
        # m = 2000: at most 1.47 m-vectors per step, where shrinking the
        # batch into copies before its results were copied out took 4.26.
        data = wdbc_proxy(77, m=2000)
        configurations = [Hyperparams(beta=0.1, sigma=sigma, rank=2, maxit=maxit)
                          for sigma, maxit in zip((0.01, 0.05, 0.1, 0.2, 0.3, 0.5),
                                                  (20, 5, 20, 8, 20, 5))]
        original, rises = solver._Lanes.release, []

        def release(lanes, *args):
            steps = original(lanes, *args)
            while True:
                entry = tracemalloc.get_traced_memory()[0]
                tracemalloc.reset_peak()
                item = next(steps, None)
                rises.append((tracemalloc.get_traced_memory()[1] - entry) / (8 * data.m))
                if item is None:
                    return
                yield item

        tracemalloc.start()
        try:
            with mock.patch.object(solver._Lanes, "release", release), \
                    calls_to(solver._Lanes, "keep") as keeps:
                outcomes = by_position(data, configurations)
        finally:
            tracemalloc.stop()
        assert [call.args[1] for call in keeps] == [[0, 2, 3, 4], [0, 1, 3], []]
        assert max(rises) <= 2
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    def test_lanes_in_blocks_of_one_equal_lone_fits(self):
        # With a block of one value every lane's tau2 z is its own block.
        # The beta siblings start as nine lanes and fork.
        data = wdbc_proxy(75, m=60)
        configurations = list(HyperparamGrid(beta=(0.01, 0.5), sigma=(0.1,),
                                             rank=(2,)).configurations(
            Hyperparams(beta=0.1, sigma=0.01, rank=2, maxit=15)))
        with mock.patch.object(solver, "_BLOCK_FLOATS", 1), \
                calls_to(solver._Lanes, "__init__") as builds:
            outcomes = by_position(data, configurations)
        assert [len(call.args[2]) for call in builds] == [9]
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    def test_one_lane_holds_three_m_vectors(self):
        # The W block holds the slack, a candidate's scores and its gap, and
        # drops a candidate that fails the decrease test before the next
        # one; the z block the previous slack, the scores and the center,
        # whose tau2 z term is added in blocks of _BLOCK_FLOATS values; the
        # b block the scores, the slack and the signed z - 1.  Casting the
        # labels takes the kernel's 8 KiB ufunc buffer, and the prox builds
        # one bool mask (an eighth of an m-vector).  Measured: 3.16 m-vectors
        # with and without halvings, where numpy's default 64 KiB buffer
        # with the prox's second mask (3.28), the labels cast whole (4.03) or
        # a rejected candidate's scores kept (4.24) cross the bound.
        data = random_dataset(76, m=40_000, p=6, q=6)
        for step in (StepPolicy(), StepPolicy(alpha0=0.1)):
            hp = Hyperparams(beta=0.1, sigma=0.01, rank=2, maxit=5, step=step)
            halvings = fit(data, hp).trace.halvings
            assert (max(halvings) > 0) == (step.alpha0 is not None)
            assert peak_bytes(lambda: fit(data, hp)) < 3.25 * 8 * data.m

    def test_b_block_casts_no_labels(self):
        # z - 1 with its signs flipped in place, plus the cast buffer; with
        # the labels cast to float64 for a dot product it took two m-vectors.
        data = random_dataset(78, m=40_000, p=6, q=6)
        gen = make_rng(79)
        problem = solver._Problem(data)
        lanes = solver._Lanes([Hyperparams(beta=0.1, sigma=0.01, rank=2)], [[0]])
        s, z = gen.standard_normal((2, 1, data.m))
        b = np.array([0.3])
        assert peak_bytes(lambda: solver._b_step(problem, lanes, s, z, b)) < 1.5 * 8 * data.m

    def test_cold_start_is_the_zero_state(self):
        data = random_dataset(77, m=40, p=4, q=5)
        hp = Hyperparams(beta=0.1, sigma=0.1, rank=2, maxit=20)
        zero = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        assert outcome_bits(fit(data, hp)) == outcome_bits(fit(data, hp, init=zero))


class TestOncePerIteration:
    def test_three_margin_passes_per_iteration(self, synthetic, default_hp):
        # The gap Z - V, h(W) and ||W||^2 come from the previous iterate's
        # objective, so an iteration without halvings computes the margins
        # three times: the decrease test, the z block and the objective.  The
        # start's objective is the one more.
        data, _, _ = synthetic
        with calls_to(solver, "_margins") as calls:
            result = fit(data, default_hp)
        assert result.model.iter > 1 and sum(result.trace.halvings) == 0
        assert len(calls) == 1 + 3 * result.model.iter

    def test_cold_start_takes_no_design_pass(self, synthetic, default_hp):
        # An iteration without halvings computes scores twice: the Cauchy
        # step's and the candidate's.  The scores of W = 0 are zeros, so
        # only a given init costs one pass more.
        data, _, _ = synthetic
        with calls_to(solver, "_scores") as calls:
            cold = fit(data, default_hp)
        n = cold.model.iter
        assert n > 1 and sum(cold.trace.halvings) == 0
        assert len(calls) == 2 * n
        init = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m))
        with calls_to(solver, "_scores") as calls:
            warm = fit(data, default_hp, init=init)
        assert outcome_bits(warm) == outcome_bits(cold)
        assert len(calls) == 2 * n + 1


class TestStartChecks:
    """The start is checked once per rank bound; the configurations refused for
    one rank bound share its error."""

    def test_init_rank_takes_one_svd_per_call(self, synthetic, default_hp):
        data, _, _ = synthetic
        init = fit(data, default_hp.with_(maxit=3)).model
        configurations = [default_hp.with_(beta=beta, maxit=2)
                          for beta in np.linspace(0.01, 0.5, 30)]
        with calls_to(solver, "svd") as calls:
            outcomes = by_position(data, configurations, init)
        assert len(calls) == 1
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(fit(data, hp, init))

    def test_too_high_init_rank_fails_every_configuration(self, synthetic, default_hp):
        data, _, _ = synthetic
        init = ModelState(w=np.eye(*data.sample_shape), b=0.0, z=np.zeros(data.m))
        configurations = [default_hp.with_(beta=beta) for beta in (0.01, 0.1, 0.5)]
        configurations.append(default_hp.with_(rank=min(data.sample_shape)))
        groups = sorted(fit_many(data, configurations, init), key=lambda group: group[0])
        assert [positions for positions, _ in groups] == [[0, 1, 2], [3]]
        assert all(isinstance(error, InvalidArgumentError) for _, error in groups)
        assert str(groups[0][1]) == (
            f"init weight matrix has rank {min(data.sample_shape)} > bound 2")
        assert "rank bound r=6 must be < min(p, q) = 6" in str(groups[1][1])
        outcomes = by_position(data, configurations, init)
        errors = [outcomes[index] for index in range(len(configurations))]
        for index, hp in enumerate(configurations):
            with pytest.raises(InvalidArgumentError) as raised:
                fit(data, hp, init)
            assert str(raised.value) == str(errors[index])

    def test_one_label_fails_every_configuration(self, default_hp):
        data = Dataset(xs=make_rng(74).standard_normal((5, 3, 2)), ys=np.ones(5))
        configurations = [default_hp.with_(rank=1, beta=beta) for beta in (0.01, 0.1)]
        configurations.append(default_hp.with_(rank=2))  # infeasible rank, too
        groups = sorted(fit_many(data, configurations), key=lambda group: group[0])
        assert [positions for positions, _ in groups] == [[0, 1], [2]]
        outcomes = by_position(data, configurations)
        errors = [outcomes[index] for index in range(len(configurations))]
        for index, hp in enumerate(configurations):
            assert isinstance(errors[index], InvalidArgumentError)
            assert str(errors[index]) == str(lone(data, hp)) == (
                "training requires at least one sample of each label")

    def test_reference_grid_sweep_states_each_refusal_once(self, tmp_path):
        # grid_search, then grid_search_cv, on one 324-cell grid, as the
        # wdbc_grid benchmark runs them.  On 5x6 samples each table refuses
        # rank 10 for 162 configurations, which share one refusal, so the
        # two tables hold two strings for them, not 324.  The held-out table is
        # held while the CV sweep runs; the two share the grid's records,
        # and a CV fold's validation set is built only after its fit.
        # Measured 0.595-0.607 MiB over three proxies (seeds 81-83); a
        # second set of records or a validation set held through its fold's
        # fit would each add about 0.03.
        train, test = split(wdbc_proxy(81, m=569), 0.7, stratified=True, seed=81)
        base = Hyperparams(beta=0.1, sigma=0.01, rank=4, maxit=30)
        grid = HyperparamGrid()
        tables = []

        def run():
            tables.append(grid_search(train, test, grid, base)[1])
            tables.append(grid_search_cv(train, grid, base, seed=81)[1])

        peak = peak_bytes(run)
        for name, table in zip(("heldout", "cv"), tables):
            refused = [row for row in table.rows if not row.ok]
            assert [row.hyperparams.rank for row in refused] == [10] * 162
            assert len({id(row.error) for row in refused}) == 1
            # The CSV reads as if each row held its own fit's refusal.
            alone = SweepResult([row if row.ok else dataclasses.replace(
                row, error=str(lone(train, row.hyperparams))) for row in table.rows])
            write_sweep_csv(table, tmp_path / f"{name}.csv")
            write_sweep_csv(alone, tmp_path / f"{name}-alone.csv")
            assert ((tmp_path / f"{name}.csv").read_bytes()
                    == (tmp_path / f"{name}-alone.csv").read_bytes())
        assert peak < 0.64 * 2**20


def stack_sizes(calls):
    """The number of matrices in each recorded ``project_rank`` call."""
    return [len(call.args[0]) if call.args[0].ndim == 3 else 1 for call in calls]


def projected(data, configurations):
    """fit_many's outcomes and the number of matrices it rank-projects."""
    with calls_to(solver, "project_rank") as calls:
        outcomes = by_position(data, configurations)
    return outcomes, sum(stack_sizes(calls))


class TestRiders:
    """Configurations that differ only in a tau1 no update reads share one lane."""

    @pytest.mark.parametrize("step", [StepPolicy(), HALVING, STALL, FIXED_STEP])
    def test_tau1_siblings_cost_one_lane(self, synthetic, default_hp, step):
        data, _, _ = synthetic
        siblings = [default_hp.with_(step=step, tau1=tau1) for tau1 in TAUS]
        _, one = projected(data, siblings[:1])
        outcomes, three = projected(data, siblings)
        assert three == one > 0
        for index, hp in enumerate(siblings):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))
        # The siblings stop together: one group, with one result that echoes
        # the first of them.
        [(positions, result)] = fit_many(data, siblings)
        assert positions == [0, 1, 2] and result.hyperparams_echo is siblings[0]

    def test_fixed_step_without_alpha0_does_not_share(self, synthetic, default_hp):
        # alpha = 1 / (L + tau1): tau1 moves the iterates, so each sibling
        # is a lane of its own.
        data, _, _ = synthetic
        siblings = [default_hp.with_(step=FIXED, tau1=tau1) for tau1 in TAUS]
        outcomes, three = projected(data, siblings)
        assert three == sum(projected(data, [hp])[1] for hp in siblings)
        for index, hp in enumerate(siblings):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    def test_straddling_riders_split_and_refit_alone(self, synthetic, default_hp):
        # From alpha0 = 4 the step that tau1 = 1e-4 accepts is too long for
        # tau1 = 1e3, so the second rider splits off and is fitted again.
        data, _, _ = synthetic
        pair = [default_hp.with_(step=HALVING, tau1=tau1) for tau1 in (1e-4, 1e3)]
        with calls_to(solver, "_w_step") as calls:
            outcomes = by_position(data, pair)
        assert [index for call in calls for index in call.result[5]] == [1]
        for index, hp in enumerate(pair):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    def test_sufficient_decrease_fails_per_rider(self, synthetic, default_hp):
        # Under a fixed alpha0 tau1 enters only the sufficient-decrease bound
        # min(tau1, tau2, tau3)/2 * steps^2.  A slack halfway between the two
        # riders' bounds at iteration 1 fails the larger bound only: that
        # rider leaves with its own error, the other goes on as if alone.
        data, _, _ = synthetic
        hp = default_hp.with_(step=FIXED_STEP, tau2=1e-2, tau3=1e-2)
        riders = [hp.with_(tau1=1e-4), hp.with_(tau1=1e-2)]
        trace = fit(data, riders[0]).trace
        decrease = trace.objective[0] - trace.objective[1]
        steps = trace.w_step[1] ** 2 + trace.z_step[1] ** 2 + trace.b_step[1] ** 2
        low, high = (0.5 * tau * steps for tau in (1e-4, 1e-2))
        with mock.patch.object(solver, "DECREASE_SLACK", (low + high) / 2 - decrease):
            outcomes = by_position(data, riders)
            alone = [lone(data, rider) for rider in riders]
        assert isinstance(outcomes[1], NumericalError)
        assert "sufficient decrease violated" in str(outcomes[1])
        assert outcomes[1].iteration == 1
        assert getattr(outcomes[0], "iteration", None) != 1
        for index in range(2):
            assert outcome_bits(outcomes[index]) == outcome_bits(alone[index])


@contextlib.contextmanager
def caller_buffer(size: int = 1 << 12):
    """Run the block with a ufunc buffer of ``size`` values, neither numpy's
    default nor the kernel's, and restore the one before it."""
    old = np.setbufsize(size)
    try:
        yield size
    finally:
        np.setbufsize(old)


class TestUfuncBuffer:
    """The kernel's blocks run with a buffer of _BUFSIZE values, and the
    caller's buffer is back whenever the caller runs: at every yield of
    fit_many, after a lane fails and after fit raises."""

    def test_consumer_sees_its_own_buffer_between_yields(self, synthetic, default_hp):
        # Three lanes of one batch stop at iterations 3, 6 and 9.
        data, _, _ = synthetic
        configurations = [default_hp.with_(maxit=maxit) for maxit in (3, 6, 9)]
        original, inside, seen = solver._z_step, [], []

        def z_step(*args):
            inside.append(np.getbufsize())
            return original(*args)

        with caller_buffer() as size, mock.patch.object(solver, "_z_step", z_step), \
                calls_to(solver._Lanes, "__init__") as builds:
            for [index], outcome in fit_many(data, configurations):
                seen.append(np.getbufsize())
                assert outcome.model.iter == configurations[index].maxit
            assert np.getbufsize() == size
        assert len(builds) == 1 and seen == [size] * 3
        assert set(inside) == {solver._BUFSIZE}

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_lane_restores_the_buffer(self, synthetic, default_hp):
        # The huge sigma overflows its own lane's gradient at iteration 1.
        data, _, _ = synthetic
        configurations = [default_hp.with_(sigma=1e307), default_hp]
        with caller_buffer() as size:
            outcomes = []
            for _, outcome in fit_many(data, configurations):
                assert np.getbufsize() == size
                outcomes.append(type(outcome).__name__)
        assert outcomes == ["NumericalError", "FitResult"]

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_fit_that_raises_restores_the_buffer(self, synthetic, default_hp):
        data, _, _ = synthetic
        with caller_buffer() as size:
            with pytest.raises(NumericalError):
                fit(data, default_hp.with_(sigma=1e307))
            assert np.getbufsize() == size
            # An error raised inside a block leaves the kernel through it.
            with mock.patch.object(solver, "project_rank", side_effect=RuntimeError("boom")), \
                    pytest.raises(RuntimeError, match="boom"):
                fit(data, default_hp)
            assert np.getbufsize() == size


class TestBetaRiders:
    """Configurations that differ only in beta share one lane while their slack
    has no positive entry, and fork into a lane per beta when it would."""

    @staticmethod
    def family(seed, **fields):
        """The reference grid's rank-4 group on an m = 398 proxy of the WDBC set."""
        base = Hyperparams(beta=0.1, sigma=0.01, rank=4, maxit=30)
        return wdbc_proxy(seed), list(HyperparamGrid(rank=(4,), **fields).configurations(base))

    def test_family_without_positive_slack_costs_one_lane(self):
        # At sigma = 0.01 no center entry rises above beta = 0.1's threshold
        # sqrt(2 beta / (2 sigma + tau2)) = 3.16, so neither lane ever holds
        # a positive slack entry.  Without the sharing the family projected
        # one stack row per distinct beta: twice the matrices.
        data, configurations = self.family(73, beta=(0.1, 0.5), sigma=(0.01,),
                                           tau1=(1e-3,), tau2=(1e-3,), tau3=(1e-3,))
        outcomes, both = projected(data, configurations)
        _, one = projected(data, configurations[:1])
        assert both == one > 0
        for index, hp in enumerate(configurations):
            assert not (outcomes[index].model.z > 0).any()
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    def test_lane_forks_after_the_first_iteration(self):
        # On this proxy the 18 lanes of the first iteration fork into 45 in
        # its z block, and a sigma = 0.01 lane forks again at iteration 7:
        # from iteration 8 on the W block projects 48 matrices.
        data, configurations = self.family(75)
        with calls_to(solver, "project_rank") as calls:
            outcomes = by_position(data, configurations)
        assert stack_sizes(calls)[:8] == [18] + [45] * 6 + [48]
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    def test_fork_holds_the_z_block_of_the_grown_batch(self):
        # The fork of 45 lanes into 48 at iteration 7 (see above) drops the
        # center, grows the old slack and the scores, and builds the center
        # again: 3 (K + f) = 144 rows of 398 samples, no more than the z
        # block of a 48-lane batch.  Measured 0.532 MiB to iteration 7 and
        # 0.499 to iteration 6.  Growing the center next to the old slack and
        # the grown slack, 4 K + 2 f = 186 rows, would cross the bound (about
        # 0.635).
        data, configurations = self.family(75)
        configurations = [hp.with_(maxit=7) for hp in configurations]

        def run():  # counts the positions without keeping the outcomes
            groups = fit_many(data, configurations)
            assert sum(len(positions) for positions, _ in groups) == 162

        assert peak_bytes(run) < 0.58 * 2**20

    def test_lane_that_fails_in_its_w_block_is_not_forked(self):
        # At sigma = 1e307 the gradient overflows at iteration 1, when the
        # center would part the three betas.  The lane fails as one group,
        # as each rider does alone; forked, the riders that left it would go
        # on from its failed step and report a model.
        data = wdbc_proxy(75, m=60)
        configurations = [Hyperparams(beta=beta, sigma=1e307, rank=2, maxit=15)
                          for beta in (0.1, 0.5, 2.0)]
        with calls_to(solver._Lanes, "grow") as grows:
            groups = list(fit_many(data, configurations))
        assert grows == []
        [(positions, error)] = groups
        assert positions == [0, 1, 2]
        assert str(error) == "non-finite gradient in W block (iteration 1)"
        for hp in configurations:
            assert outcome_bits(lone(data, hp)) == outcome_bits(error)

    @pytest.mark.parametrize("width", [1, 2, 5, 7])
    def test_forks_stay_inside_the_width(self, width):
        # Six families of three betas on 60 samples, each counted as three
        # lanes: a width below three parts them by beta up front, and a wider
        # one takes whole families, which fork inside it.
        data = wdbc_proxy(75, m=60)
        configurations = list(HyperparamGrid(sigma=(0.01, 0.1), rank=(2,), tau1=(1e-3,),
                                             tau3=(1e-3,)).configurations(
            Hyperparams(beta=0.1, sigma=0.01, rank=2, maxit=15)))
        with mock.patch.object(solver, "BATCH_FLOATS", width * 4 * data.m), \
                calls_to(solver, "project_rank") as calls:
            outcomes = by_position(data, configurations)
        sizes = stack_sizes(calls)
        assert max(sizes) <= width
        assert (max(sizes) > sizes[0]) == (width >= 3)
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    def test_positive_start_keeps_beta_siblings_apart(self, synthetic, default_hp):
        # From a slack with a positive entry beta enters the first objective,
        # so each beta starts a lane of its own.
        data, _, _ = synthetic
        z = np.zeros(data.m)
        z[0] = 0.5
        init = ModelState(w=np.zeros(data.sample_shape), b=0.0, z=z)
        configurations = [default_hp.with_(beta=beta, maxit=20) for beta in (0.01, 0.1, 0.5)]
        with calls_to(solver._Lanes, "__init__") as builds:
            outcomes = by_position(data, configurations, init)
        assert [call.args[2] for call in builds] == [[[0], [1], [2]]]
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(fit(data, hp, init))
