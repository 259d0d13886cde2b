import contextlib
import re
from dataclasses import dataclass
from unittest import mock

import numpy as np
import pytest

from hlsmm import Dataset, Hyperparams, make_lowrank_separable


def pytest_runtest_logreport(report):
    """Emit the FAIL counterpart of the acceptance suite's PASS lines."""
    if report.failed and "test_acceptance" in report.nodeid:
        match = re.search(r"test_c(\d+)", report.nodeid)
        if match:
            print(f"\n[C{int(match.group(1))}] FAIL ({report.when})")


def make_rng(seed: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64(seed))


@pytest.fixture
def rng() -> np.random.Generator:
    return make_rng(20240811)


def random_dataset(seed: int, m: int = 6, p: int = 3, q: int = 2) -> Dataset:
    """Small random dataset with both labels present."""
    gen = make_rng(seed)
    xs = gen.standard_normal((m, p, q))
    ys = np.where(gen.integers(0, 2, size=m) == 1, 1, -1)
    ys[0], ys[1] = 1, -1  # force both classes
    return Dataset(xs=xs, ys=ys.astype(np.int8), name=f"random-{seed}")


@pytest.fixture(scope="session")
def synthetic():
    """Margin-separated low-rank dataset shared across tests."""
    data, w_star, bias = make_lowrank_separable(seed=11)
    return data, w_star, bias


@pytest.fixture(scope="session")
def default_hp() -> Hyperparams:
    return Hyperparams(beta=0.1, sigma=0.1, rank=2)


@dataclass
class Call:
    """One recorded call: its arguments and, once it returned, its result."""

    args: tuple
    kwargs: dict
    result: object = None


@contextlib.contextmanager
def calls_to(module, name: str):
    """Wrap ``module.<name>`` while the block runs and yield the list of its calls.

    The wrapper calls the original and appends a :class:`Call` per call, in
    call order; the arguments and results are kept, not copied.
    """
    calls: list[Call] = []
    original = getattr(module, name)

    def wrapper(*args, **kwargs):
        call = Call(args, kwargs)
        calls.append(call)
        call.result = original(*args, **kwargs)
        return call.result

    with mock.patch.object(module, name, wrapper):
        yield calls
