"""Lockstep lanes: every lane of ``fit_many`` equals a lone ``fit`` bit for bit."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlsmm import Hyperparams, InvalidArgumentError, NumericalError, StepPolicy, fit
from hlsmm import solver
from hlsmm.solver import fit_many

from conftest import random_dataset

TAUS = (1e-4, 1e-3, 1e-2)
FIXED = StepPolicy(kind="fixed")
HALVING = StepPolicy(alpha0=4.0, max_halvings=8)  # starts long, so it halves
STALL = StepPolicy(alpha0=1e6, max_halvings=2)    # overshoots past two halvings


def lone(data, hp):
    try:
        return fit(data, hp)
    except (InvalidArgumentError, NumericalError) as exc:
        return exc


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


@st.composite
def lane_batches(draw):
    """A small random dataset and a shuffled list of configurations for it.

    The list always holds an infeasible rank, a fixed step, a backtracking
    step that halves, one that stalls and a paper-mode lane, plus random ones.
    """
    p, q = draw(st.integers(2, 5)), draw(st.integers(2, 5))
    data = random_dataset(draw(st.integers(0, 10_000)), m=draw(st.integers(8, 40)),
                          p=p, q=q)
    low = min(p, q)

    def config(rank, step, z_update="exact"):
        return Hyperparams(
            beta=draw(st.sampled_from((0.01, 0.1, 0.5))),
            sigma=draw(st.sampled_from((0.01, 0.1, 1.0))), rank=rank,
            tau1=draw(st.sampled_from(TAUS)), tau2=draw(st.sampled_from(TAUS)),
            tau3=draw(st.sampled_from(TAUS)), maxit=draw(st.integers(0, 25)),
            step=step, z_update=z_update)

    required = [config(low, StepPolicy()), config(1, FIXED),
                config(low - 1, HALVING), config(1, STALL),
                config(draw(st.integers(1, low - 1)), StepPolicy(), "paper")]
    extras = [config(draw(st.integers(1, low)),
                     draw(st.sampled_from((StepPolicy(), FIXED, HALVING, STALL))),
                     draw(st.sampled_from(("exact", "paper"))))
              for _ in range(draw(st.integers(0, 4)))]
    return data, draw(st.permutations(required + extras))


class TestLockstepLanes:
    @settings(max_examples=60, deadline=None)
    @given(lane_batches(), st.sampled_from((1, 400, 1 << 16)))
    def test_every_lane_equals_a_lone_fit(self, batch, budget):
        # The budget sets the batch width: one lane per batch, a few, or all.
        data, configurations = batch
        with mock.patch.object(solver, "BATCH_FLOATS", budget):
            outcomes = dict(fit_many(data, configurations))
        assert sorted(outcomes) == list(range(len(configurations)))
        for index, hp in enumerate(configurations):
            assert outcome_bits(outcomes[index]) == outcome_bits(lone(data, hp))

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_failing_lane_leaves_its_batch_unchanged(self, synthetic, default_hp):
        # One backtracking batch, in which the huge sigma overflows the
        # gradient of its own lane only; a halving and a stalling lane; and a
        # paper-mode batch in which one lane diverges and the other does not.
        data, _, _ = synthetic
        configurations = [
            default_hp, default_hp.with_(sigma=1e307), default_hp.with_(beta=0.5),
            default_hp.with_(step=HALVING), default_hp.with_(step=STALL),
            default_hp.with_(rank=6), default_hp.with_(z_update="paper"),
            default_hp.with_(z_update="paper", beta=0.5, sigma=0.01, maxit=5),
        ]
        outcomes = dict(fit_many(data, configurations))
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
            outcomes = dict(fit_many(data, configurations))
        assert sorted(outcomes) == [0, 1, 2]
        for outcome in outcomes.values():
            assert isinstance(outcome, NumericalError)
            assert message in str(outcome) and outcome.iteration == 1

    def test_trace_storage_follows_iterations_not_maxit(self, synthetic, default_hp):
        # maxit is an upper bound, not a size: a fit that converges early
        # must not reserve room for maxit iterations.
        data, _, _ = synthetic
        huge = fit(data, default_hp.with_(maxit=10**19))
        assert outcome_bits(huge)[:-1] == outcome_bits(fit(data, default_hp))[:-1]
        assert huge.converged and len(huge.trace) > 64
