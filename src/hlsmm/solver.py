"""Proximal alternating minimization for the rank-constrained 0/1-loss classifier.

Each iteration cycles three blocks:

  W: one projected-gradient step on the smooth part, truncated to rank r by
     SVD, with a backtracked step size accepted only when it satisfies the
     proximal decrease test  h(W+) + tau1/2 ||W+ - W||^2 <= h(W);
  z: the exact per-coordinate global minimizer of the slack subproblem,
     a hard threshold around the weighted center (2 sigma v + tau2 z) / (2 sigma + tau2);
  b: the closed-form minimizer of the damped scalar quadratic.

The z and b blocks minimize their subproblems exactly, so together with the
W acceptance test every iteration decreases the objective by at least
min(tau1, tau2, tau3)/2 times the squared block steps.  That inequality is
asserted at runtime on every lane; violation raises NumericalError.

One kernel runs K configurations of one dataset ("lanes") in lockstep: the
iterates are stacked along a leading lane axis and every product is taken
lane by lane.  Configurations whose iterates cannot differ ride one lane:
those that differ only in a tau1 that no update reads, and those that
differ only in beta while their slack has no positive entry.  When the z
block's center would give such riders different slacks, the lane forks: each
beta that leaves gets a new lane in the same batch.  A batch is one
:class:`_Lanes`, which owns the lanes' hyperparameters, riders and iterates;
lanes that stop or fail and riders that leave shrink it in place.
:func:`fit` is the one-lane, one-rider case; :func:`fit_many` serves sweeps.
"""

from __future__ import annotations

import contextlib
import functools
import operator
from dataclasses import dataclass, fields

import numpy as np

from .errors import HlsmmError, InvalidArgumentError, NumericalError
from .linalg import project_rank, svd
from .model import (Dataset, Hyperparams, ModelState, SolverTrace, _adjoint,
                    _check_shapes, _checked, _hard_threshold, _heaviside, _margins,
                    _rank_for_shape, _scores)

# Slack allowed on the monotone-objective and sufficient-decrease assertions.
MONOTONE_SLACK = 1e-10
DECREASE_SLACK = 1e-9

# Working memory of one lockstep batch, in float64 values (1 MiB).  A lone
# lane holds three m-vectors in every block: in the W block the slack, a
# candidate's scores and its gap; in the z block the previous slack, the
# accepted scores and the center, whose tau2 z term is added in blocks of at
# most _BLOCK_FLOATS values; in the b block the scores, the slack and the
# signed z - 1.  Products with the int8 labels cast them through numpy's
# ufunc buffer, never as a whole m-vector, and the kernel runs with a buffer
# of _BUFSIZE values (8 KiB).  K lanes hold three (K, m) arrays in the same
# places; in a W block whose later trials run on some of the lanes, the kept
# scores, the slack and the trial's scores, plus one lane's gap at a time.
# The gradient, which flips the signs of the carried gap in place, and the
# objective, which writes the gap over the scores, hold two: the slack and
# the gap.  A release copies each leaving group's result out of the iterates
# as they are and then moves the kept rows in place.  A batch takes
# BATCH_FLOATS // (4 m) lanes, at least one, counting a lane once per
# distinct beta of its riders, as many lanes as it can fork into: the fourth
# m-vector per lane covers the buffer, the loss's bool mask and the prox's,
# which covers half the stack (see _hard_threshold): with the buffer's uint64
# cast of it, at most 8 KiB more, no more than a mask of the whole stack from
# K m = 16384 on.  A fork of K lanes into K + f drops the center, grows the old
# slack and then the scores, and builds the center again: at most 3 (K + f)
# rows, the z block of a batch of K + f lanes.  The trace is not reserved:
# it grows by doubling with the iterations the live lanes have run.
BATCH_FLOATS = 1 << 17
# Largest temporary of the z block's tau2 z term, in float64 values: its
# 16 KiB are no more than a lone lane's prox holds (half its m-byte mask and
# the 8 KiB buffer) from m = 16384.
_BLOCK_FLOATS = 1 << 11
# numpy's ufunc buffer while the kernel runs, in values (its default is 8192).
# The kernel takes no float reduction that casts, so the buffer's size, which
# sets the blocks of such a sum, moves no bits.
_BUFSIZE = 1 << 10


@contextlib.contextmanager
def _small_buffer():
    """Run the block with numpy's ufunc buffer at _BUFSIZE values, then restore it.

    Restored explicitly: exiting ``np.errstate`` restores it only on numpy >= 2.
    """
    old = np.setbufsize(_BUFSIZE)
    try:
        yield
    finally:
        np.setbufsize(old)


@dataclass(frozen=True)
class FitResult:
    """Output of :func:`fit`: final iterate, per-iteration trace, echo of inputs."""

    model: ModelState
    trace: SolverTrace
    hyperparams_echo: Hyperparams

    @property
    def converged(self) -> bool:
        return self.trace.status == "converged"


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Row-wise inner products of (K, n) stacks; ``b`` may be one shared n-vector.

    (K, 1, n) @ (K, n, 1) is one dot product per row, the same call that a
    product of two vectors makes.
    """
    return (a[:, None, :] @ b[..., None])[:, 0, 0]


def _sq_norms(w: np.ndarray) -> np.ndarray:
    """Squared Frobenius norm of every matrix of a (K, p, q) stack."""
    flat = w.reshape(len(w), -1)
    return _dots(flat, flat)


class _Problem:
    """The design shared by the lanes of a lockstep batch.

    Lane k's iterate is row k of a (K, p, q) stack W.  Every block reads it
    through its scores S = X vec(W), with X the (m, p*q) design; the caller
    computes them once per W and passes them on:
      margins    V = 1 - y (S + b)
      gradient   W + 2 sigma unflatten(X.T (y (Z - V)))
      curvature  ||G||^2 + 2 sigma ||X vec(G)||^2 along a direction G
    y is the dataset's int8 labels, +-1, which cast to float64 exactly, so
    multiplying by them only flips signs, which is exact in floating point:
    these products equal those of the signed design y_i vec(X_i) bit for
    bit without storing it or a float64 copy of the labels.
    ``X @ W[..., None]`` and ``X.T @ G[..., None]`` broadcast the design
    into one matrix-vector product per lane, so a lane's numbers are those
    of a one-lane run whatever the other lanes hold.  With the scores cached
    an iteration reads the design three times per lane (gradient, Cauchy
    step, candidate scores), plus once more per backtracking halving.
    """

    def __init__(self, data: Dataset):
        self.m, self.sample_shape = data.m, data.sample_shape
        self.X = data.xs.reshape(data.m, -1)
        self.ys = data.ys

    @functools.cached_property
    def sq_norm(self) -> float:
        """||X||_F^2, the data term of the trace bound (one data pass, on first use)."""
        return float(np.dot(self.X.ravel(), self.X.ravel()))

    def lipschitz(self, sigma: np.ndarray) -> np.ndarray:
        """Trace bound 1 + 2 sigma ||X||_F^2 on the Lipschitz constant of grad h."""
        return 1.0 + 2.0 * sigma * self.sq_norm

    def scores(self, w: np.ndarray) -> np.ndarray:
        """<W_k, X_i> for every lane and sample: one pass over the data per iterate."""
        return _scores(self.X, w)

    def gap(self, s: np.ndarray, z: np.ndarray, b: np.ndarray,
            out: np.ndarray | None = None) -> np.ndarray:
        """Z - V(W, b), the coupling residual, in ``out`` (may be ``s``) or a new array."""
        v = _margins(s, b, self.ys, out=out)
        return np.subtract(z, v, out=v)

    def smooth(self, sq_norm: np.ndarray, gap: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """h(W) = 1/2 ||W||^2 + sigma ||Z - V||^2 per lane (loss term excluded)."""
        return 0.5 * sq_norm + sigma * _dots(gap, gap)

    def objective(self, w, s, z, b, sigma, beta):
        """(f, h(W), ||W||^2, Z - V) per lane; the next W block reads the last three.

        The gap is written over the scores ``s``, which every caller drops
        after this call.  The loss term is counted first, so that its mask
        and the gap are never live together.
        """
        loss = beta * _heaviside(z)
        gap = self.gap(s, z, b, out=s)
        sq_norm = _sq_norms(w)
        h = self.smooth(sq_norm, gap, sigma)
        return h + loss, h, sq_norm, gap

    def gradient(self, w: np.ndarray, gap: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """grad h(W) from the gap Z - V, whose signs it flips in place (see _adjoint)."""
        pull = _adjoint(self.X, self.ys, gap, out=gap).reshape(w.shape)
        return w + (2.0 * sigma)[:, None, None] * pull

    def cauchy_step(self, grad: np.ndarray, sigma: np.ndarray) -> np.ndarray:
        """Exact minimizer of alpha -> h(W - alpha grad) per lane; h is quadratic in W.

        Falls back to the inverse trace bound where the gradient vanishes or
        the curvature is not a positive number.
        """
        gn2 = _sq_norms(grad)
        xg = self.scores(grad)
        curvature = gn2 + 2.0 * sigma * _dots(xg, xg)
        fallback = (gn2 == 0.0) | ~np.isfinite(curvature) | (curvature <= 0.0)
        if not np.count_nonzero(fallback):
            return gn2 / curvature
        alpha = 1.0 / self.lipschitz(sigma)
        return np.divide(gn2, curvature, out=alpha, where=~fallback)


def _by_beta(configurations, lane: list) -> dict:
    """The positions of a lane's riders by beta, in ascending beta."""
    groups: dict = {}
    for index in sorted(lane, key=lambda index: configurations[index].beta):
        groups.setdefault(configurations[index].beta, []).append(index)
    return groups


class _Lanes:
    """A lockstep batch: the hyperparameters, riders and iterates of its lanes.

    The lanes share the rank bound and the step policy.  A lane carries one
    or more riders, positions in ``configurations`` with one
    :func:`_trajectory`: they share the lane's iterates, and with them its
    data passes, rank projections and slack and bias blocks.  Riders of a
    lane differ at most in tau1 and beta.  The W acceptance test reads tau1
    as the lane's smallest and largest value and the sufficient-decrease
    check reads it per rider, through ``tau_min``.  The z block and the
    objective read the lane's smallest beta, and :meth:`fork` parts the
    riders by beta before the slack would tell them apart.

    :meth:`begin` sets the iterates ``w``, ``z``, ``b``, their objective ``g``,
    ``h`` = h(W), ``sq_norm`` = ||W||^2 and the ``gap`` Z - V that the next W
    block reads, and the trace ``history``; :meth:`keep` shrinks them all
    and :meth:`grow` grows them.
    """

    # Hyperparameter columns that the riders of a lane share, as float arrays
    # over lanes.  As floats any int maxit fits; one above 2**53 rounds, but
    # is never reached.
    _COLUMNS = ("sigma", "tau2", "tau3", "tol_step", "tol_obj", "maxit")

    def __init__(self, configurations, riders):
        self.configurations = configurations
        riders = list(riders)
        first = [configurations[lane[0]] for lane in riders]
        self.rank, self.step = first[0].rank, first[0].step
        for name in self._COLUMNS:
            setattr(self, name, np.array([getattr(hp, name) for hp in first],
                                         dtype=np.float64))
        self._ride(riders)

    def _ride(self, riders: list) -> None:
        """Set the rider map, and the tau1 and beta columns it decides, from lists
        of positions."""
        self.riders = riders
        betas = [{self.configurations[index].beta for index in lane} for lane in riders]
        self.beta = np.array([min(values) for values in betas], dtype=np.float64)
        self.beta_varies = np.array([len(values) > 1 for values in betas])
        tau1 = [[self.configurations[index].tau1 for index in lane] for lane in riders]
        self.tau1_min = np.array([min(values) for values in tau1])
        self.tau1_max = np.array([max(values) for values in tau1])
        self.tau1_varies = bool((self.tau1_min < self.tau1_max).any())
        # Per rider, lane by lane: its position, its lane's row, min(tau1, tau2, tau3).
        self.positions = [index for lane in riders for index in lane]
        self.lane_of = np.repeat(np.arange(len(riders)), [len(lane) for lane in riders])
        every = np.array([value for values in tau1 for value in values], dtype=np.float64)
        self.tau_min = np.minimum(np.minimum(every, self.tau2[self.lane_of]),
                                  self.tau3[self.lane_of])

    def begin(self, problem: _Problem, init: ModelState | None) -> None:
        """Put every lane at ``init``, with its objective and a trace of one row.

        Without ``init`` every lane cold-starts at W = 0, b = 0, z = 0.  The
        zero slack vector is deliberately infeasible (z != v at the zero
        model): it makes every sample exert pull on the first W step.  The
        feasible start z = v = 1 is a fixed point of the block updates
        whenever beta <= sigma + tau2/2 and must be avoided.  The scores of
        W = 0 are zeros, as the features are finite, so the cold start
        takes no pass over the design.
        """
        count = len(self.riders)
        if init is None:
            self.w = np.zeros((count, *problem.sample_shape))
            self.z = np.zeros((count, problem.m))
            self.b = np.zeros(count)
            scores = np.zeros((count, problem.m))
        else:
            self.w = np.repeat(init.w[None], count, axis=0)
            self.z = np.repeat(init.z[None], count, axis=0)
            self.b = np.full(count, init.b)
            scores = problem.scores(self.w)
        self.g, self.h, self.sq_norm, self.gap = problem.objective(
            self.w, scores, self.z, self.b, self.sigma, self.beta)
        # Trace columns (objective, W, z and b step norms, halvings) by lane and
        # iteration; the iteration axis doubles when full, so it can pass
        # maxit + 1: at maxit 1000 it grows from 512 to 1024 columns.
        self.history = np.empty((5, count, min(int(self.maxit.max()), 63) + 1))
        self.history[:, :, 0] = 0.0
        self.history[0, :, 0] = self.g

    def keep(self, rows: list, riders: list) -> None:
        """Shrink the batch to lanes ``rows``, ascending, with ``riders``.

        Row ``rows[j]`` of each iterate and column moves to row j, in place
        and in ascending order, so that no row is overwritten before it is
        read; the batch keeps the first ``len(rows)`` rows, views that the
        next iteration replaces.  Without rows it takes the empty rows as
        copies, so that it holds none of its buffers.  The trace is copied.
        """
        for name in ("gap", "w", "z", "b", "g", "h", "sq_norm", *self._COLUMNS):
            array = getattr(self, name)
            for j, row in enumerate(rows):
                if j != row:
                    array[j] = array[row]
            setattr(self, name, array[:len(rows)] if rows else array[rows])
        self.history = self.history[:, rows]
        self._ride(riders)

    def gamma(self) -> np.ndarray:
        """beta / (2 sigma + tau2) per lane: the z block's prox parameter."""
        return self.beta / (2.0 * self.sigma + self.tau2)

    def fork(self, center: np.ndarray, errors: dict) -> tuple[list, list] | None:
        """Part the riders of a lane into lanes by beta where ``center`` would
        tell them apart.

        Riders of a lane that differ in beta share its slack while it has no
        positive entry.  The z block runs at the lane's smallest beta, whose
        threshold sqrt(2 gamma) is the lowest.  While no entry of the center
        is above it, every rider's prox zeroes every positive entry, so the
        slack, the loss beta * 0, the stop test and the descent checks agree
        bit for bit.  Otherwise the riders whose threshold is at or above the
        center's largest entry stay, or, if none is, those of the smallest
        beta; every other beta gets a new lane appended to the batch, a copy
        of this one.  A lane that failed in its W block is not forked.

        Returns the rider map with the new lanes appended and each new
        lane's source row, for :meth:`grow`, or None.  Nothing grows here,
        so that the caller can drop the center first.
        """
        if not np.count_nonzero(self.beta_varies):
            return None
        top = np.fmax.reduce(center, axis=1)  # NaN entries are kept by every prox
        cut = np.sqrt(2.0 * self.gamma())
        riders, sources = list(self.riders), []
        for row in np.flatnonzero(self.beta_varies & (top > cut)):
            if row in errors:
                continue
            groups = _by_beta(self.configurations, riders[row])
            levels = np.sqrt(2.0 * (np.array(list(groups))
                                    / (2.0 * self.sigma[row] + self.tau2[row])))
            parts: list = [[]]  # the riders that stay, then one lane per beta that leaves
            for lane, level in zip(groups.values(), levels):
                if top[row] > level:
                    parts.append(lane)
                else:
                    parts[0] += lane
            if not parts[0]:  # no beta stays: the smallest keeps the row
                parts.pop(0)
            riders[row], *new = parts
            riders += new
            sources += [row] * len(new)
        return (riders, sources) if sources else None

    def grow(self, riders: list, sources: list) -> np.ndarray:
        """Append a copy of row ``sources[j]`` for each new lane of ``riders``.

        The iterates, columns and trace grow, the slack first.  Returns each
        lane's source row: the first K are the lanes as they were.  The
        caller takes this iteration's arrays at these rows.
        """
        rows = np.concatenate((np.arange(len(self.riders)), sources))
        for name in ("z", "w", "b", "g", "h", "sq_norm", *self._COLUMNS):
            setattr(self, name, getattr(self, name)[rows])
        self.history = self.history[:, rows]
        self._ride(riders)
        return rows

    def release(self, status: np.ndarray, errors: dict, leaving: dict, k: int):
        """Yield (positions, outcome) for each group of riders that leaves at
        iterate k; keep the rest.

        A rider in ``leaving`` leaves alone with its outcome there.  A lane
        with a ``status`` leaves with the riders it still carries, as one
        group: its error in ``errors``, or else one result, echoing the
        group's first configuration.  The results are copied out of the
        iterates as they are, and the batch shrinks in place after the last
        of them, so that a release holds no more than one result above its
        entry.  When every lane leaves, the batch drops its arrays first: the
        results do not read the gap.
        """
        riders, w, z, b, history = self.riders, self.w, self.z, self.b, self.history
        staying = [[index for index in lane if index not in leaving] for lane in riders]
        rows = [row for row, lane in enumerate(staying) if lane and not status[row]]
        if not rows:
            self.keep(rows, [])
        for row, lane in enumerate(riders):
            for index in lane:
                if index in leaving:
                    yield [index], leaving[index]
            group = staying[row]
            if not (status[row] and group):
                continue
            if row in errors:
                yield group, errors[row]
                continue
            *floats, halvings = history[:, row, :k + 1].tolist()
            trace = SolverTrace(*floats, [int(n) for n in halvings], status=status[row])
            # The lane's objective is finite, so its iterates are (see _iterate).
            final = ModelState._tested(w[row].copy(), b[row], z[row].copy(), k)
            yield group, FitResult(model=final, trace=trace,
                                   hyperparams_echo=self.configurations[group[0]])
        if rows:
            self.keep(rows, [staying[row] for row in rows])


# attrgetter allocates each key at its final size when neither tau1 nor
# beta joins it, as in a sweep from the zero slack under a backtracking step,
# so that the tuple free list recycles the keys of one call in the next
# instead of keeping more.
_SHARED = operator.attrgetter(*(field.name for field in fields(Hyperparams)
                                if field.name not in ("tau1", "beta")))


def _trajectory(hp: Hyperparams, positive_start: bool = False) -> tuple:
    """The part of a configuration that decides its iterates; riders of a lane share it.

    tau1 moves the iterates only through the fixed step 1 / (L + tau1) taken
    when ``alpha0`` is None.  Otherwise it enters only the W acceptance test
    and the sufficient-decrease check, so the key leaves it out.  beta enters
    the iterates only through the slack's positive entries: the prox's
    threshold zeroes them or keeps them, and the loss counts them.  From a
    start whose slack has none (``positive_start`` False), the key leaves it
    out too; :meth:`_Lanes.fork` parts the riders before a slack entry turns
    positive for some of them.
    """
    key = _SHARED(hp)
    if positive_start:
        key += (hp.beta,)
    if hp.step.kind == "fixed" and hp.step.alpha0 is None:
        key += (hp.tau1,)
    return key


def grad_h(w, z, b: float, data: Dataset, sigma: float) -> np.ndarray:
    """Gradient of the smooth part of the W-subproblem at the expansion point.

    grad h(W) = W + 2 sigma sum_i y_i (z_i - 1 + y_i <W, X_i> + b y_i) X_i.
    The proximal term tau1/2 ||W - W^k||^2 contributes nothing at W = W^k.
    A gradient that overflows is a NumericalError, as it fails a lane of
    :func:`fit`.
    """
    sigma = _checked("sigma", sigma)
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64).ravel()
    _check_shapes(data, w, z)
    problem = _Problem(data)
    with np.errstate(over="ignore", invalid="ignore"):
        gap = problem.gap(problem.scores(w[None]), z[None], np.array([float(b)]))
        grad = problem.gradient(w[None], gap, np.array([sigma]))[0]
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient")
    return grad


def _project(v: np.ndarray, rank: int, rows: np.ndarray, errors: dict,
             iteration: int) -> np.ndarray:
    """Rank projection of a stack whose matrix j belongs to lane ``rows[j]``.

    When the batched projection fails, each matrix is projected alone, so a
    failure is charged to its own lane (in ``errors``) and not to the batch.
    """
    try:
        return project_rank(v, rank)
    except (InvalidArgumentError, np.linalg.LinAlgError):
        pass
    out = v.copy()
    for j, row in enumerate(rows):
        try:
            out[j] = project_rank(v[j], rank)
        except (InvalidArgumentError, np.linalg.LinAlgError) as exc:
            error = NumericalError(f"rank projection failed: {exc}", iteration)
            error.__cause__ = exc
            errors.setdefault(row, error)
    return out


def _w_step(problem: _Problem, lanes: _Lanes, w: np.ndarray, z: np.ndarray,
            b: np.ndarray, grad: np.ndarray, h_ref: np.ndarray, iteration: int):
    """One accepted projected-gradient step per lane from W.

    ``grad`` is grad h at W and ``h_ref`` is h(W), both carried from the
    objective of the previous iterate (backtracking reads ``h_ref`` only).
    Returns (new W, its scores, stalled, errors, split), and writes each
    lane's step norm ||W+ - W|| and halvings used into column ``iteration``
    of the trace: when every lane accepts one trial, the norm is the root
    of that trial's own squared step, else it is taken from the new W.  A
    lane stalls when no step passes the decrease test within
    ``max_halvings``; it then keeps its W and computes its scores again.
    Backtracking halves only the lanes that failed the test.  ``errors`` maps
    each row whose step failed to its NumericalError; the other arrays hold
    no result for that row.

    The decrease test is monotone in tau1 (in floating point too), so a
    lane whose largest tau1 passes or whose smallest fails decides all its
    riders.  When only the smallest passes, the lane takes the step, and
    ``split`` lists the positions of the riders that reject it: from here
    on they follow another trajectory.
    """
    count = len(w)
    finite = np.isfinite(grad).all(axis=(1, 2))
    errors = {} if np.count_nonzero(finite) == count else {
        row: NumericalError("non-finite gradient in W block", iteration)
        for row in np.flatnonzero(~finite)}
    step_norm, halvings = lanes.history[1, :, iteration], lanes.history[4, :, iteration]
    halvings[:] = 0
    stalled = np.zeros(count, dtype=bool)
    split: list = []
    policy = lanes.step
    if policy.kind == "fixed":
        # Without alpha0 tau1 sets the step, so the riders of a lane share it.
        alpha = (np.full(count, policy.alpha0) if policy.alpha0 is not None
                 else 1.0 / (problem.lipschitz(lanes.sigma) + lanes.tau1_min))
        new_w = _project(w - alpha[:, None, None] * grad, lanes.rank,
                         np.arange(count), errors, iteration)
        np.sqrt(_sq_norms(new_w - w), out=step_norm)
        return new_w, problem.scores(new_w), stalled, errors, split

    alpha = (np.full(count, policy.alpha0) if policy.alpha0 is not None
             else problem.cauchy_step(grad, lanes.sigma))
    stalled[:] = True
    pending = np.flatnonzero(finite)
    # A trial on every lane that some lane accepts, before any other trial
    # does, becomes the result; later trials overwrite the rows they accept.
    # A trial that no lane accepts is dropped before the next one runs, so a
    # lone lane never holds two candidates' scores.
    new_w = new_s = None
    for trial in range(policy.max_halvings + 1):
        if not pending.size:
            break
        rows = slice(None) if pending.size == count else pending
        candidate = _project(w[rows] - alpha[rows, None, None] * grad[rows],
                             lanes.rank, pending, errors, iteration)
        s_candidate = problem.scores(candidate)
        sq_norms = _sq_norms(candidate)
        if pending.size == count:
            smooth = problem.smooth(sq_norms, problem.gap(s_candidate, z, b), lanes.sigma)
        else:
            # Next to the kept scores, a trial on some lanes takes each lane's
            # gap from slices, one m-vector at a time, not from copies of the
            # slack rows: the same products, so the same bits.
            smooth = np.array([
                problem.smooth(sq_norms[j:j + 1],
                               problem.gap(s_candidate[j:j + 1], z[row:row + 1],
                                           b[row:row + 1]),
                               lanes.sigma[row:row + 1])[0]
                for j, row in enumerate(pending)])
        step_sq = _sq_norms(candidate - w[rows])
        h = h_ref[rows]
        ok = done = smooth + 0.5 * lanes.tau1_min[rows] * step_sq <= h
        if errors:  # a lane that failed takes no step and leaves the trials
            failed = np.isin(pending, list(errors))
            ok = ok & ~failed
            done = ok | failed
        if lanes.tau1_varies:
            straddle = ok & ~(smooth + 0.5 * lanes.tau1_max[rows] * step_sq <= h)
            for j in np.flatnonzero(straddle):
                split += [index for index in lanes.riders[pending[j]]
                          if not (smooth[j] + 0.5 * lanes.configurations[index].tau1
                                  * step_sq[j] <= h[j])]
        accepted = np.count_nonzero(ok)
        if accepted == count:  # every lane takes this trial
            halvings[:] = trial
            stalled[:] = False
            np.sqrt(step_sq, out=step_norm)
            return candidate, s_candidate, stalled, errors, split
        if accepted:
            if new_w is None and pending.size == count:
                new_w, new_s = candidate, s_candidate
            else:
                if new_w is None:
                    new_w, new_s = w.copy(), np.empty((count, problem.m))
                new_w[pending[ok]] = candidate[ok]
                new_s[pending[ok]] = s_candidate[ok]
        del candidate, s_candidate
        halvings[pending[ok]] = trial
        stalled[pending[ok]] = False
        pending = pending[~done]
        alpha[pending] *= 0.5
    # Stalled lanes keep their iterate.
    if new_w is None:  # no lane accepted a step: each stalled or failed
        new_w, new_s = w.copy(), problem.scores(w)
    elif pending.size:
        new_w[pending] = w[pending]
        new_s[pending] = problem.scores(w[pending])
    halvings[pending] = policy.max_halvings
    np.sqrt(_sq_norms(new_w - w), out=step_norm)
    return new_w, new_s, stalled, errors, split


def _z_center(problem: _Problem, lanes: _Lanes, s_new: np.ndarray, z: np.ndarray,
              b: np.ndarray) -> np.ndarray:
    """The weighted center (2 sigma v + tau2 z) / (2 sigma + tau2) of each lane's
    slack subproblem, in the one new (K, m) array."""
    sigma, tau2 = lanes.sigma[:, None], lanes.tau2[:, None]
    center = _margins(s_new, b, problem.ys)
    center *= 2.0 * sigma
    # The products are elementwise, so a block of rows, or of one lane's
    # samples when its row is longer than a block, takes the same products
    # as the whole stack; only the temporary shrinks.
    rows = max(1, _BLOCK_FLOATS // problem.m)
    samples = min(problem.m, _BLOCK_FLOATS)
    for first in range(0, len(center), rows):
        lanes_block = slice(first, first + rows)
        for start in range(0, problem.m, samples):
            block = (lanes_block, slice(start, start + samples))
            center[block] += tau2[lanes_block] * z[block]
    center /= 2.0 * sigma + tau2
    return center


def _z_step(lanes: _Lanes, center: np.ndarray) -> np.ndarray:
    """The new slack of every lane, from its center, in place of it.

    Exact minimizer of beta ||z_+||_0 + sigma ||z - v||^2 + tau2/2 ||z - z^k||^2:
    complete the square (curvature 2 sigma + tau2), then take the prox of
    beta / (2 sigma + tau2) ||(.)_+||_0 at the center (see :func:`_z_center`).
    """
    return _hard_threshold(center, lanes.gamma()[:, None])


def _b_step(problem: _Problem, lanes: _Lanes, s_new: np.ndarray, z_new: np.ndarray,
            b: np.ndarray) -> np.ndarray:
    # First-order condition of  sigma ||z - 1 + A(W) + b y||^2 + tau3/2 (b - b^k)^2,
    # with s_new = A(W) the scores <W, X_i> of the new W.  sum_i y_i (z_i - 1)
    # flips the signs of z - 1 in place, which is exact, and sums each row
    # pairwise, so the labels are never cast to a float64 m-vector.
    sigma, tau3 = lanes.sigma, lanes.tau3
    signed = z_new - 1.0
    signed *= problem.ys
    residual_no_b = signed.sum(axis=1) + s_new.sum(axis=1)
    return (tau3 * b - 2.0 * sigma * residual_no_b) / (2.0 * sigma * problem.m + tau3)


def penalized_objective(state: ModelState, data: Dataset, hp: Hyperparams) -> float:
    """f(W, z, b) = 1/2 ||W||_F^2 + beta ||z_+||_0 + sigma ||z - v(W, b)||^2, as the
    kernel evaluates it for one lane, so :func:`fit` traces the same number.
    An objective that overflows is a NumericalError, as it fails a lane of
    :func:`fit`."""
    _check_shapes(data, state.w, state.z)
    problem = _Problem(data)
    w, z, b = state.w[None], state.z[None], np.array([state.b])
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(problem.objective(w, problem.scores(w), z, b, np.array([hp.sigma]),
                                        np.array([hp.beta]))[0][0])
    if not np.isfinite(value):
        raise NumericalError("objective became non-finite")
    return value


def _check_start(data: Dataset, rank: int, init: ModelState | None) -> None:
    """Raise the InvalidArgumentError that a fit at rank bound ``rank`` from
    ``init`` starts with, if any.

    The checks run in this order: both labels present, the rank bound
    against the sample shape, the init shapes, the init rank.  Only the rank
    bound reads the configuration, so :func:`fit_many` runs them once for
    all the configurations that share it.
    """
    data.require_both_labels()
    _rank_for_shape(rank, *data.sample_shape)
    if init is None:
        return
    try:
        _check_shapes(data, init.w, init.z)
    except InvalidArgumentError:
        raise InvalidArgumentError("init state does not match dataset shapes") from None
    init_rank = svd(init.w).rank
    if init_rank > rank:
        # A stalled W block keeps the previous iterate, so feasibility of the
        # returned model requires a feasible start.
        raise InvalidArgumentError(f"init weight matrix has rank {init_rank} > bound {rank}")


def _iterate(problem: _Problem, lanes: _Lanes, k: int):
    """Run iteration k of every lane of the batch, in place; return (stop,
    stalled, errors, leaving).

    Per lane: whether the iteration met the tolerances, whether its W block
    stalled, and the error it failed with; per rider that leaves its lane
    alone: its error or None.  The caller silences overflow and invalid-value
    warnings: a lane whose numbers overflow (with sigma = 1e307 the gradient
    does at iteration 1, and products of it turn NaN) fails alone at the
    finiteness guards.  The carried gap, the previous slack and the scores
    are dropped as soon as they are used, so that a lone lane holds three
    m-vectors in every block (see BATCH_FLOATS).  The W block writes its
    step norms and halvings into trace column k, the checks the rest.
    """
    if k == lanes.history.shape[2]:
        lanes.history = np.concatenate((lanes.history, np.empty_like(lanes.history)),
                                       axis=2)
    grad = problem.gradient(lanes.w, lanes.gap, lanes.sigma)
    lanes.gap = None
    w, s, stalled, errors, split = _w_step(
        problem, lanes, lanes.w, lanes.z, lanes.b, grad, lanes.h, k)
    del grad
    center = _z_center(problem, lanes, s, lanes.z, lanes.b)
    fork = lanes.fork(center, errors)
    if fork is not None:
        # The batch grows without its center, which is then built again at
        # the new size, bit for bit its rows: three arrays of K + f rows, as
        # in a batch of K + f lanes.
        del center
        rows = lanes.grow(*fork)
        w, s, stalled = w[rows], s[rows], stalled[rows]
        center = _z_center(problem, lanes, s, lanes.z, lanes.b)
    z_old, lanes.z = lanes.z, _z_step(lanes, center)
    del center
    np.subtract(lanes.z, z_old, out=z_old)
    dz = np.sqrt(_dots(z_old, z_old))
    del z_old
    b = _b_step(problem, lanes, s, lanes.z, lanes.b)
    g, lanes.h, sq_norm, lanes.gap = problem.objective(w, s, lanes.z, b,
                                                       lanes.sigma, lanes.beta)
    del s
    trace = lanes.history[:, :, k]
    dw = trace[1]
    db = np.abs(b - lanes.b)
    # The checks in the order of the one-lane scheme; a lane keeps its first
    # failure.  A non-finite entry of W, z or b carries into 1/2 ||W||^2 or,
    # through the gap, into sigma ||z - v||^2 (sigma is positive and finite),
    # so the iterates are read only on the lanes whose objective is not
    # finite, and each loop runs only when some row fails its test.
    failed = ~np.isfinite(g)
    if np.count_nonzero(failed):
        for row in np.flatnonzero(failed):
            finite = (np.isfinite(w[row]).all() and np.isfinite(lanes.z[row]).all()
                      and np.isfinite(b[row]))
            errors.setdefault(row, NumericalError(
                "objective became non-finite" if finite else "iterate became non-finite", k))
    leaving = dict.fromkeys(split)
    increased = g > lanes.g + MONOTONE_SLACK
    if np.count_nonzero(increased):
        for row in np.flatnonzero(increased):
            errors.setdefault(row, NumericalError(
                f"objective increased from {lanes.g[row]:.6e} to {g[row]:.6e}", k))
    # Per rider, in the order of lanes.positions.
    decrease = (lanes.g - g)[lanes.lane_of]
    required = 0.5 * lanes.tau_min * (dw * dw + dz * dz + db * db)[lanes.lane_of]
    short = decrease < required - DECREASE_SLACK
    if np.count_nonzero(short):
        for j in np.flatnonzero(short):
            if lanes.lane_of[j] not in errors:
                leaving.setdefault(lanes.positions[j], NumericalError(
                    f"sufficient decrease violated: {decrease[j]:.3e} < "
                    f"{required[j]:.3e}", k))

    trace[0], trace[2], trace[3] = g, dz, db
    stop = ((dw / np.maximum(1.0, np.sqrt(lanes.sq_norm)) <= lanes.tol_step)
            & (np.abs(g - lanes.g) <= lanes.tol_obj))
    lanes.w, lanes.b, lanes.g, lanes.sq_norm = w, b, g, sq_norm
    return stop, stalled, errors, leaving


def _lockstep(problem: _Problem, lanes: _Lanes, init: ModelState | None):
    """Run one batch of lanes from ``init`` (see :meth:`_Lanes.begin`); yield
    (positions, outcome) as each group of riders stops (see :meth:`_Lanes.release`).

    The outcome is a :class:`FitResult`, a NumericalError, or None when the
    rider split from its lane (see :func:`_w_step`) and has to be fitted
    again alone.  Every check of the one-lane scheme runs on every
    lane, in the same order: the first that fails ends that lane and no
    other.  The sufficient-decrease check reads tau1, so it runs per rider
    and ends that rider alone; the other checks end every rider of the lane.
    """
    # The buffer setting is never in force across a yield: it is entered
    # once for each run of iterations between two releases.  The start's
    # objective may overflow as the iterations' may (see _iterate).
    with np.errstate(over="ignore", invalid="ignore"), _small_buffer():
        lanes.begin(problem, init)
    k = 0
    stop = stalled = np.zeros(len(lanes.riders), dtype=bool)
    ended = lanes.maxit <= k
    errors, leaving = {}, {}
    while True:
        if errors or leaving or np.count_nonzero(ended):
            # Why each lane stops, or "" where it goes on; a later cause wins.
            # The array holds the literals, so that the traces share them.
            status = np.full(len(stop), "", dtype=object)
            status[ended] = "max_iter"
            status[stop] = "converged"
            status[stop & stalled] = "stalled"
            status[list(errors)] = "failed"
            yield from lanes.release(status, errors, leaving, k)
            if not lanes.riders:
                return
        with np.errstate(over="ignore", invalid="ignore"), _small_buffer():
            while True:
                k += 1
                stop, stalled, errors, leaving = _iterate(problem, lanes, k)
                ended = stop | (lanes.maxit <= k)
                if errors or leaving or np.count_nonzero(ended):
                    break


def _batches(configurations, queue: list, width: int):
    """Cut a queue of lanes into batches of at most ``width`` lanes once forked.

    A lane counts once per distinct beta of its riders, as many lanes as
    :meth:`_Lanes.fork` can part it into; a lane that counts more than
    ``width`` is parted by beta up front.
    """
    batch, size = [], 0
    for lane in queue:
        groups = _by_beta(configurations, lane)
        for part, count in ([(lane, len(groups))] if len(groups) <= width
                            else [(group, 1) for group in groups.values()]):
            if size + count > width:
                yield batch
                batch, size = [], 0
            batch.append(part)
            size += count
    if batch:
        yield batch


def fit_many(data: Dataset, configurations, init: ModelState | None = None):
    """Fit every configuration on ``data``, as the riders of lockstep lanes.

    Yields (positions in ``configurations``, outcome) once for each group of
    configurations that share an outcome, in no fixed order; the positions
    of all groups partition ``range(len(configurations))``.  The outcome is
    what ``fit(data, hp, init)`` returns or raises for each ``hp`` of the
    group, bit for bit, except that a :class:`FitResult` echoes the group's
    first configuration.  A group is the configurations refused for one
    rank bound, sharing one InvalidArgumentError; the riders a lane still
    carries when it stops or fails; or a rider that leaves its lane alone.
    Configurations with one :func:`_trajectory` ride one lane and pay its
    work once.  A rider that splits from its lane at the W acceptance test
    is fitted again from the start as a lane of its own.  A lane's failure
    leaves the other lanes unchanged.  Lanes sharing the rank bound and step
    policy run together, as many per batch as ``BATCH_FLOATS`` allows for
    their working set once every lane has forked by beta.
    """
    configurations = list(configurations)
    by_rank: dict = {}
    for index, hp in enumerate(configurations):
        by_rank.setdefault(hp.rank, []).append(index)
    positive_start = init is not None and bool(_heaviside(init.z))
    # Lanes sharing the rank bound and step policy queue together; a lane is
    # the list of its riders' positions.
    queues: dict = {}
    for rank, positions in by_rank.items():
        try:
            _check_start(data, rank, init)
        except InvalidArgumentError as exc:
            yield positions, exc
            continue
        lanes: dict = {}
        for index in positions:
            lanes.setdefault(_trajectory(configurations[index], positive_start),
                             []).append(index)
        for riders in lanes.values():
            queues.setdefault((rank, configurations[riders[0]].step), []).append(riders)
    # Neither the rank groups nor the trajectory keys run with the lanes.
    by_rank = positions = lanes = None
    if not queues:
        return
    problem = _Problem(data)
    width = max(1, BATCH_FLOATS // (4 * data.m))
    for queue in queues.values():
        # A lane of one rider cannot split, so the second round is the last.
        while queue:
            split = []
            for riders in _batches(configurations, queue, width):
                batch = _Lanes(configurations, riders)
                for positions, outcome in _lockstep(problem, batch, init):
                    if outcome is None:
                        split.append(positions)
                    else:
                        yield positions, outcome
            queue = split


def fit(data: Dataset, hp: Hyperparams, init: ModelState | None = None) -> FitResult:
    """Run the three-block scheme until the step/objective tolerances or maxit.

    Stops when ||W_new - W||_F / max(1, ||W||_F) <= tol_step and the objective
    change is at most tol_obj.  The status is then "converged", or "stalled"
    when the W block of that last iteration found no acceptable step (W did
    not move because it could not, not because it is stationary); otherwise
    "max_iter".  The returned model always satisfies rank(W) <= hp.rank; the
    trace objective is non-increasing.

    Raises
    ------
    InvalidArgumentError
        Missing label class, shape/rank bound violations, bad init shapes.
    NumericalError
        Non-finite values or a broken descent inequality, with the iteration.
    """
    [(_, outcome)] = fit_many(data, [hp], init)
    if isinstance(outcome, HlsmmError):
        raise outcome
    return outcome
