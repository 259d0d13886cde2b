"""Experiment harness: accuracy metrics, grid search, noise sweeps, exports.

The held-out grid, the CV grid and the (rank, beta) surface share one
fit-and-score loop, ``_sweep``, which fits all configurations of a training
set as the lanes of :func:`~hlsmm.solver.fit_many`; the noise sweep fits once
and scores many corrupted test sets, so it keeps its own.

Sweep tables are assembled in deterministic configuration order whatever the
order in which lanes finish, and CSV exports contain no timing columns, so
two runs with identical inputs and seeds produce byte-identical files.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from .data import add_gaussian_noise, add_salt_pepper_noise, _shuffled_classes
from .errors import InvalidArgumentError
from .model import (_COUNT, _FRACTION, _NON_NEGATIVE, Dataset, Hyperparams, ModelState,
                    SolverTrace, _checked, _record, predict_batch)
from .solver import FitResult, fit, fit_many

# Each noise kind's corruption and the rule of its level.
_NOISE = {"gaussian": (add_gaussian_noise, _NON_NEGATIVE),
          "salt_pepper": (add_salt_pepper_noise, _FRACTION)}
NOISE_KINDS = tuple(_NOISE)


@_record
class Metrics:
    """Confusion counts with y = +1 as the positive class."""

    tp: int
    tn: int
    fp: int
    fn: int

    @property
    def total(self) -> int:
        return self.tp + self.tn + self.fp + self.fn

    @property
    def accuracy(self) -> float:
        """100 * (TP + TN) / (TP + TN + FP + FN)."""
        return 100.0 * (self.tp + self.tn) / self.total

    def __add__(self, other: "Metrics") -> "Metrics":
        return Metrics(self.tp + other.tp, self.tn + other.tn,
                       self.fp + other.fp, self.fn + other.fn)


def evaluate(model: ModelState, test: Dataset) -> Metrics:
    """Confusion counts of the model's sign predictions over a dataset."""
    pred = predict_batch(model.w, model.b, test)
    actual = test.ys
    return Metrics(
        tp=int(np.count_nonzero((pred == 1) & (actual == 1))),
        tn=int(np.count_nonzero((pred == -1) & (actual == -1))),
        fp=int(np.count_nonzero((pred == 1) & (actual == -1))),
        fn=int(np.count_nonzero((pred == -1) & (actual == 1))),
    )


_AXES = ("beta", "sigma", "rank", "tau1", "tau2", "tau3")


@dataclass(frozen=True)
class HyperparamGrid:
    """Candidate sets for the exhaustive search (defaults: the reference grids).

    Each axis is stored as a tuple, so a grid is immutable and hashable.
    """

    beta: tuple = (0.01, 0.1, 0.5)
    sigma: tuple = (0.01, 0.1)
    rank: tuple = (4, 10)
    tau1: tuple = (1e-4, 1e-3, 1e-2)
    tau2: tuple = (1e-4, 1e-3, 1e-2)
    tau3: tuple = (1e-4, 1e-3, 1e-2)
    # (base, records) of the last configurations() call; see there.
    _records: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        for name in _AXES:
            values = getattr(self, name)
            if isinstance(values, (str, bytes)) or not np.iterable(values):
                raise InvalidArgumentError(
                    f"candidates for {name} must be a sequence of values, "
                    f"got {type(values).__name__} {values!r}")
            values = tuple(values)
            if not values:
                raise InvalidArgumentError(f"empty candidate list for {name}")
            object.__setattr__(self, name, values)

    @property
    def size(self) -> int:
        return (len(self.beta) * len(self.sigma) * len(self.rank)
                * len(self.tau1) * len(self.tau2) * len(self.tau3))

    def configurations(self, base: Hyperparams) -> tuple[Hyperparams, ...]:
        """The grid's Hyperparams over ``base``, in deterministic product order.

        The grid keeps the last base's records and returns that same tuple
        while the base is the same object.  This pays when one grid object
        is swept twice over one base, as by ``grid_search`` and then
        ``grid_search_cv``: the CV sweep then holds no second set of records
        next to the held-out table's.  A value that ``Hyperparams`` refuses
        raises on every call and leaves nothing kept.
        """
        if self._records is None or self._records[0] is not base:
            records = tuple(
                replace(base, beta=beta, sigma=sigma, rank=rank,
                        tau1=tau1, tau2=tau2, tau3=tau3)
                for beta, sigma, rank, tau1, tau2, tau3 in itertools.product(
                    *(getattr(self, name) for name in _AXES)))
            object.__setattr__(self, "_records", (base, records))
        return self._records[1]


@_record
class SweepRow:
    """One completed (or failed) configuration of a sweep."""

    index: int
    hyperparams: Hyperparams
    noise_kind: str | None
    noise_level: float | None
    noise_seed: int | None
    metrics: Metrics | None
    final_objective: float | None
    iterations: int | None
    status: str
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class SweepResult:
    rows: list[SweepRow]

    def successful(self) -> list[SweepRow]:
        return [row for row in self.rows if row.ok]

    def __len__(self) -> int:
        return len(self.rows)


_SWEEP_HEADER = ("index,beta,sigma,rank,tau1,tau2,tau3,noise_kind,noise_level,"
                 "noise_seed,accuracy,tp,tn,fp,fn,final_objective,iterations,"
                 "status,error")


def write_sweep_csv(result: SweepResult, path) -> None:
    """Deterministic CSV of a sweep table (no timing columns)."""
    lines = [_SWEEP_HEADER]
    for row in result.rows:
        hp = row.hyperparams
        metric_part = (f"{row.metrics.accuracy:.2f},{row.metrics.tp},{row.metrics.tn},"
                       f"{row.metrics.fp},{row.metrics.fn}") if row.metrics else ",,,,"
        obj = repr(row.final_objective) if row.final_objective is not None else ""
        iters = str(row.iterations) if row.iterations is not None else ""
        error = (row.error or "").replace(",", ";").replace("\n", " ")
        lines.append(
            f"{row.index},{hp.beta!r},{hp.sigma!r},{hp.rank},"
            f"{hp.tau1!r},{hp.tau2!r},{hp.tau3!r},"
            f"{row.noise_kind or ''},"
            f"{'' if row.noise_level is None else repr(row.noise_level)},"
            f"{'' if row.noise_seed is None else row.noise_seed},"
            f"{metric_part},{obj},{iters},{row.status},{error}")
    Path(path).write_text("\n".join(lines) + "\n")


def _best(result: SweepResult) -> Hyperparams | None:
    """The winner by :func:`grid_search`'s rule, or None when no row succeeded."""
    def key(row: SweepRow):
        hp = row.hyperparams
        return (-row.metrics.accuracy, hp.rank, hp.beta, hp.sigma,
                hp.tau1, hp.tau2, hp.tau3)

    winners = result.successful()
    return min(winners, key=key).hyperparams if winners else None


def _sweep(configurations, pairs, status: str | None = None) -> SweepResult:
    """One row per configuration, its counts pooled over the (training, validation) pairs.

    ``pairs`` yields each training set with a callable that builds its
    validation set.  Each training set fits every configuration still
    without an error as one :func:`fit_many` call, and each distinct model's
    weights and bias are kept.  Only when that call is exhausted is the
    training set dropped and the validation set built, and each distinct
    model is scored once.  A finished pair is dropped before the next one is
    drawn, so one fold is held at a time.

    A row sums the pairs' iterations and keeps the last pair's objective and
    status, or ``status`` when given; a fit that raises on any pair makes a
    failed row carrying the message, and that configuration is not fitted
    on later pairs.
    """
    pooled = [Metrics(0, 0, 0, 0)] * len(configurations)
    iterations = [0] * len(configurations)
    last: list[tuple | None] = [None] * len(configurations)  # (objective, status)
    errors: list[str | None] = [None] * len(configurations)
    for train, make_validation in pairs:
        live = [index for index, error in enumerate(errors) if error is None]
        # The riders of a lane stop one after another with equal models, so
        # consecutive equal models form one group, scored once.  A group
        # keeps what scoring reads, the weights and the bias: a model's
        # slack is an m-vector.
        groups = []  # (w, b, indices of the configurations that stopped with it)
        for lane, outcome in fit_many(train, [configurations[i] for i in live]):
            index = live[lane]
            if not isinstance(outcome, FitResult):
                errors[index] = str(outcome)
                continue
            model = outcome.model
            if not (groups and model.b == groups[-1][1]
                    and np.array_equal(model.w, groups[-1][0])):
                groups.append((model.w, model.b, []))
            groups[-1][2].append(index)
            iterations[index] += model.iter
            last[index] = (outcome.trace.objective[-1], outcome.trace.status)
        train = outcome = model = None  # the fit is over: drop the training set
        validation = make_validation()
        for w, b, indices in groups:
            metrics = evaluate(ModelState(w=w, b=b, z=()), validation)
            for index in indices:
                pooled[index] = pooled[index] + metrics
        validation = groups = None  # before the next pair is drawn
    rows = []
    for index, hp in enumerate(configurations):
        if errors[index] is not None:
            rows.append(SweepRow(index=index, hyperparams=hp, noise_kind=None,
                                 noise_level=None, noise_seed=None, metrics=None,
                                 final_objective=None, iterations=None,
                                 status="failed", error=errors[index]))
            continue
        rows.append(SweepRow(index=index, hyperparams=hp, noise_kind=None,
                             noise_level=None, noise_seed=None,
                             metrics=pooled[index],
                             final_objective=last[index][0],
                             iterations=iterations[index],
                             status=status or last[index][1]))
    return SweepResult(rows=rows)


def grid_search(train: Dataset, validation: Dataset, grid: HyperparamGrid,
                base: Hyperparams) -> tuple[Hyperparams | None, SweepResult]:
    """Exhaustive search over the grid's Cartesian product.

    Every configuration is attempted; failures (for example a rank bound
    infeasible for the sample shape) are recorded as rows with an error
    marker and the search continues.  The winner maximizes validation
    accuracy, with ties broken by lower rank, then lower beta, then the
    remaining parameters in ascending lexicographic order.  Returns
    (best hyperparams or None when nothing succeeded, full table).
    """
    result = _sweep(grid.configurations(base), [(train, lambda: validation)])
    return _best(result), result


def _stratified_folds(data: Dataset, folds: int, seed: int) -> list[np.ndarray]:
    """Deterministic stratified fold assignment (round-robin after shuffling)."""
    assignment = np.empty(data.m, dtype=np.int64)
    for perm in _shuffled_classes(data.ys, seed):
        assignment[perm] = np.arange(perm.size) % folds
    return [np.flatnonzero(assignment == j) for j in range(folds)]


def _cv_splits(data: Dataset, folds: int, seed: int):
    """(training indices, held-out indices) of each fold, both ascending.

    The training indices are the held-out fold's complement, taken with a
    boolean mask.
    """
    for held_out in _stratified_folds(data, folds, seed):
        keep = np.ones(data.m, dtype=bool)
        keep[held_out] = False
        yield np.flatnonzero(keep), held_out


def grid_search_cv(train: Dataset, grid: HyperparamGrid, base: Hyperparams,
                   folds: int = 3, seed: int = 0
                   ) -> tuple[Hyperparams | None, SweepResult]:
    """Cross-validated variant of :func:`grid_search`.

    Each configuration is scored by the pooled confusion counts over a
    deterministic stratified k-fold partition of ``train``; rows have status "cv".

    Every fold holds out at least one sample, so ``folds`` may not exceed
    the larger class's size.  A smaller class with fewer samples than folds
    is accepted: the folds past its size hold out none of it.  If it has one
    sample, the fold that holds it out trains on one label, and every
    configuration fails there (its row is "failed" and the best is None).
    """
    folds = _checked("folds", folds, (int, lambda v: v >= 2, "be at least 2"))
    seed = _checked("seed", seed, _COUNT)
    train.require_both_labels()
    positives = int(np.count_nonzero(train.ys == 1))
    negatives = train.m - positives
    if folds > max(positives, negatives):
        raise InvalidArgumentError(
            f"{folds} folds need at least {folds} training samples of one label; "
            f"there are {positives} of +1 and {negatives} of -1")

    pairs = ((train.subset(keep), functools.partial(train.subset, held_out))
             for keep, held_out in _cv_splits(train, folds, seed))
    result = _sweep(grid.configurations(base), pairs, status="cv")
    return _best(result), result


def noise_sweep(train: Dataset, test: Dataset, hp: Hyperparams, kind: str,
                levels, seeds) -> tuple[SweepResult, dict[float, float]]:
    """Robustness protocol: train once on clean data, evaluate under noise.

    Emits one row per (level, seed) pair on the test set corrupted at that
    level, and returns the per-level mean accuracy alongside the table.
    Level 0 reproduces the clean evaluation exactly for every seed.
    """
    if kind not in NOISE_KINDS:
        raise InvalidArgumentError(f"unknown noise kind {kind!r}")
    corrupt, rule = _NOISE[kind]
    # Checked before the fit, so that a bad level or seed costs none.
    levels = [_checked(f"noise level {level}", level, rule) for level in levels]
    seeds = [_checked("noise seeds", seed, _COUNT) for seed in seeds]
    if not levels or not seeds:
        raise InvalidArgumentError("need at least one level and one seed")
    if kind == "gaussian":
        # For a fixed seed the noisy features overflow from some level up, so
        # the largest level decides; the error names the first pair that the
        # loop below would meet.
        try:
            for seed in seeds:
                corrupt(test, max(levels), seed)
        except InvalidArgumentError:
            for level, seed in itertools.product(levels, seeds):
                corrupt(test, level, seed)
            raise
    fitted = fit(train, hp)
    rows = []
    index = 0
    for level in levels:
        for seed in seeds:
            corrupted = corrupt(test, level, seed)
            metrics = evaluate(fitted.model, corrupted)
            rows.append(SweepRow(index=index, hyperparams=hp, noise_kind=kind,
                                 noise_level=level, noise_seed=seed,
                                 metrics=metrics,
                                 final_objective=fitted.trace.objective[-1],
                                 iterations=fitted.model.iter,
                                 status=fitted.trace.status))
            index += 1
    result = SweepResult(rows=rows)
    means = {
        level: float(np.mean([row.metrics.accuracy for row in rows
                              if row.noise_level == level]))
        for level in levels
    }
    return result, means


def sensitivity_grid(train: Dataset, test: Dataset, hp_base: Hyperparams,
                     r_values, beta_values) -> np.ndarray:
    """Accuracy surface over (rank, beta); failed cells are NaN.

    All other hyperparameters are held at ``hp_base``.  Duplicated values
    produce identical rows/columns (the computation is deterministic).
    """
    r_values = list(r_values)
    beta_values = list(beta_values)
    if not r_values or not beta_values:
        raise InvalidArgumentError("value lists must be non-empty")
    configurations = [replace(hp_base, rank=rank, beta=beta)
                      for rank in r_values for beta in beta_values]
    result = _sweep(configurations, [(train, lambda: test)])
    accuracy = [row.metrics.accuracy if row.ok else np.nan for row in result.rows]
    return np.array(accuracy).reshape(len(r_values), len(beta_values))


def write_sensitivity_csv(surface: np.ndarray, r_values, beta_values, path) -> None:
    lines = ["rank,beta,accuracy"]
    for i, rank in enumerate(r_values):
        for j, beta in enumerate(beta_values):
            cell = surface[i, j]
            value = "" if np.isnan(cell) else f"{cell:.2f}"
            lines.append(f"{int(rank)},{float(beta)!r},{value}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_weight_heatmap(w: np.ndarray, csv_path, pgm_path) -> None:
    """Write the coefficient matrix as exact CSV and a min-max scaled PGM image.

    The CSV carries 17 significant digits (lossless for float64).  The PGM is
    8-bit binary (P5); an all-constant matrix maps to uniform mid-gray 128.
    """
    w = np.asarray(w, dtype=np.float64)
    if w.ndim != 2:
        raise InvalidArgumentError("weight matrix must be 2-D")
    lines = [",".join(f"{value:.17g}" for value in row) for row in w]
    Path(csv_path).write_text("\n".join(lines) + "\n")

    low, high = float(w.min()), float(w.max())
    if high > low:
        pixels = np.rint((w - low) / (high - low) * 255.0).astype(np.uint8)
    else:
        pixels = np.full(w.shape, 128, dtype=np.uint8)
    header = f"P5\n{w.shape[1]} {w.shape[0]}\n255\n".encode("ascii")
    Path(pgm_path).write_bytes(header + pixels.tobytes())


def export_convergence_trace(trace: SolverTrace, path) -> None:
    """CSV of the per-iteration history; row 0 is the initial state."""
    lines = ["iter,objective,w_step_norm,z_step_norm,b_step,halvings"]
    for k in range(len(trace)):
        lines.append(f"{k},{trace.objective[k]:.17g},{trace.w_step[k]:.17g},"
                     f"{trace.z_step[k]:.17g},{trace.b_step[k]:.17g},"
                     f"{trace.halvings[k]}")
    Path(path).write_text("\n".join(lines) + "\n")
