"""Domain types and the penalized objective of the Heaviside-loss matrix classifier.

The classifier scores a p-by-q sample ``X`` as ``<W, X> + b`` (Frobenius inner
product plus bias).  Training minimizes

    f(W, z, b) = 1/2 <W, W> + beta * ||z_+||_0 + sigma * ||z - v(W, b)||^2

subject to ``rank(W) <= r``, where ``v_i = 1 - y_i (<W, X_i> + b)`` are the
margin residuals and ``||z_+||_0`` counts strictly positive slack entries
(the 0/1 loss).  ``z`` decouples the combinatorial loss from the smooth
penalty; ``sigma`` weights the coupling ``z ~ v``.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np

from .errors import InvalidArgumentError
from .linalg import fro_inner


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of same-shape matrix samples.

    ``xs`` has shape (m, p, q) and ``ys`` shape (m,) with entries in {-1, +1}.
    Arrays are stored read-only; transforms produce new datasets, which share
    what they do not change.  Model files record ``name``, a source file stem.

    A feature array that is already C-contiguous float64 is kept, not copied,
    and so becomes read-only in the caller's hands too; pass ``xs.copy()`` to
    keep a writable one.  Any other array is converted into a new one.  A
    copy would cost a pass over the design on every dataset built.
    """

    xs: np.ndarray
    ys: np.ndarray
    name: str = ""

    def __post_init__(self):
        xs = np.ascontiguousarray(np.asarray(self.xs, dtype=np.float64))
        ys = np.asarray(self.ys, dtype=np.int8).ravel()
        if xs.ndim != 3 or 0 in xs.shape:
            raise InvalidArgumentError(
                "dataset needs an (m, p, q) feature array with m, p, q >= 1")
        if ys.shape[0] != xs.shape[0]:
            raise InvalidArgumentError("label count does not match sample count")
        if not np.isfinite(xs).all():
            raise InvalidArgumentError("dataset features must be finite")
        if not np.isin(ys, (-1, 1)).all():
            raise InvalidArgumentError("labels must be -1 or +1")
        xs.setflags(write=False)
        ys.setflags(write=False)
        object.__setattr__(self, "xs", xs)
        object.__setattr__(self, "ys", ys)

    @property
    def m(self) -> int:
        return self.xs.shape[0]

    @property
    def p(self) -> int:
        return self.xs.shape[1]

    @property
    def q(self) -> int:
        return self.xs.shape[2]

    @property
    def sample_shape(self) -> tuple[int, int]:
        return self.xs.shape[1], self.xs.shape[2]

    def __len__(self) -> int:
        return self.m

    def labels_present(self) -> tuple[bool, bool]:
        """(has +1, has -1)."""
        return bool((self.ys == 1).any()), bool((self.ys == -1).any())

    def require_both_labels(self) -> None:
        pos, neg = self.labels_present()
        if not (pos and neg):
            raise InvalidArgumentError(
                "training requires at least one sample of each label"
            )

    def replace_xs(self, xs: np.ndarray) -> "Dataset":
        """New dataset with transformed features and the same labels."""
        return Dataset(xs=xs, ys=self.ys, name=self.name)

    def subset(self, idx) -> "Dataset":
        idx = np.asarray(idx, dtype=np.int64)
        return Dataset(xs=self.xs[idx], ys=self.ys[idx], name=self.name)


# Concrete types: checks against the numbers ABCs are several times slower.
_KINDS = {int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer, np.floating), "a real number")}


def _store(owner, names, convert, valid, rule: str) -> None:
    """Store named fields of a frozen dataclass as built-in ``convert`` values; a
    value of another kind (a bool is neither) or one ``valid`` refuses is an error."""
    types, kind = _KINDS[convert]
    for name in names:
        value = getattr(owner, name)
        if type(value) is not convert:
            if isinstance(value, bool) or not isinstance(value, types):
                raise InvalidArgumentError(f"{name} must be {kind}, got {value!r}")
            try:
                value = convert(value)
            except OverflowError:  # an int beyond the float range
                value = np.inf
            object.__setattr__(owner, name, value)
        if not valid(value):
            raise InvalidArgumentError(f"{name} must {rule}")


@dataclass(frozen=True)
class StepPolicy:
    """W-block step-size rule.

    ``backtracking``: start each iteration at ``alpha0`` (or, when ``alpha0``
    is None, at the exact line-minimizing Cauchy step of the smooth quadratic)
    and halve by ``shrink`` until the proximal decrease test accepts, at most
    ``max_halvings`` times.

    ``fixed``: constant step ``alpha0``; when None, the provably safe
    ``1 / (L_hat + tau1)`` with ``L_hat = 1 + 2 sigma sum_i ||X_i||_F^2``.
    """

    kind: str = "backtracking"
    alpha0: float | None = None
    shrink: float = 0.5
    max_halvings: int = 30

    def __post_init__(self):
        if self.kind not in ("backtracking", "fixed"):
            raise InvalidArgumentError(f"unknown step policy {self.kind!r}")
        if self.alpha0 is not None:
            _store(self, ("alpha0",), float, lambda v: 0 < v < np.inf,
                   "be positive and finite")
        _store(self, ("shrink",), float, lambda v: 0 < v < 1, "lie in (0, 1)")
        _store(self, ("max_halvings",), int, lambda v: v >= 0, "be non-negative")


@dataclass(frozen=True)
class Hyperparams:
    """Solver hyperparameters.

    ``beta``/``sigma`` weight the 0/1 loss and the coupling penalty; ``rank``
    bounds rank(W); ``tau1..tau3`` are the proximal damping weights of the
    three blocks.  ``z_update`` selects the exact coordinate minimizer
    ("exact", default) or the update constants as printed in the source
    algorithm ("paper"); the two disagree on a measurable set of inputs, and
    only "exact" carries the descent guarantee.
    """

    beta: float
    sigma: float
    rank: int
    tau1: float = 1e-3
    tau2: float = 1e-3
    tau3: float = 1e-3
    maxit: int = 1000
    tol_step: float = 1e-6
    tol_obj: float = 1e-8
    step: StepPolicy = field(default_factory=StepPolicy)
    z_update: str = "exact"
    seed: int = 0

    def __post_init__(self):
        _store(self, ("beta", "sigma", "tau1", "tau2", "tau3", "tol_step", "tol_obj"),
               float, lambda v: 0 < v < np.inf, "be positive and finite")
        _store(self, ("rank",), int, lambda v: v >= 1, "be a positive integer")
        _store(self, ("maxit", "seed"), int, lambda v: v >= 0, "be non-negative")
        if self.z_update not in ("exact", "paper"):
            raise InvalidArgumentError(f"unknown z_update mode {self.z_update!r}")

    def validate_for_shape(self, p: int, q: int) -> None:
        if not self.rank < min(p, q):
            raise InvalidArgumentError(
                f"rank bound r={self.rank} must be < min(p, q) = {min(p, q)} "
                f"for {p}x{q} samples"
            )

    def with_(self, **kwargs) -> "Hyperparams":
        return replace(self, **kwargs)


@dataclass(frozen=True)
class ModelState:
    """Solver iterate: weight matrix ``w``, bias ``b``, slack vector ``z``."""

    w: np.ndarray
    b: float
    z: np.ndarray
    iter: int = 0

    def __post_init__(self):
        w = np.asarray(self.w, dtype=np.float64)
        z = np.asarray(self.z, dtype=np.float64).ravel()
        if w.ndim != 2:
            raise InvalidArgumentError("w must be a 2-D matrix")
        if not (np.isfinite(w).all() and np.isfinite(z).all() and np.isfinite(self.b)):
            raise InvalidArgumentError("model state must be finite")
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "z", z)
        object.__setattr__(self, "b", float(self.b))

    @classmethod
    def initial(cls, data: Dataset) -> "ModelState":
        """Cold start: W = 0, b = 0, z = 0.

        The zero slack vector is deliberately infeasible (z != v at the zero
        model): it makes every sample exert pull on the first W step.  The
        feasible start z = v = 1 is a fixed point of the block updates
        whenever beta <= sigma + tau2/2 and must be avoided.
        """
        return cls(w=np.zeros(data.sample_shape), b=0.0, z=np.zeros(data.m), iter=0)


@dataclass
class SolverTrace:
    """Per-iteration history of a fit.

    Row k describes iterate k; row 0 is the initial state (step norms zero).
    The objective column is non-increasing up to 1e-10 slack for the exact
    z-update mode.
    """

    objective: list[float] = field(default_factory=list)
    w_step: list[float] = field(default_factory=list)
    z_step: list[float] = field(default_factory=list)
    b_step: list[float] = field(default_factory=list)
    halvings: list[int] = field(default_factory=list)
    status: str = "max_iter"

    def __len__(self) -> int:
        return len(self.objective)


def _scores(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """<W_k, X_i> for an (m, p*q) design and a (K, p, q) stack W, as (K, m).

    One matrix-vector product per matrix of the stack, so row k equals the
    scores of W_k alone bit for bit, whatever the other rows hold.
    """
    return (x @ w.reshape(len(w), -1, 1))[..., 0]


def _margins(s: np.ndarray, b: np.ndarray, ys: np.ndarray) -> np.ndarray:
    """V = 1 - y (S + b) for (K, m) scores and (K,) biases, in one new array."""
    v = s + b[:, None]
    v *= ys
    return np.subtract(1.0, v, out=v)


def _hard_threshold(x: np.ndarray, gamma) -> np.ndarray:
    """Zero the entries of ``x`` in (0, sqrt(2 gamma)], in place; ``gamma`` broadcasts.

    Unvalidated, as the solver's iterates may diverge: its own checks report that.
    """
    x[(x > 0) & (x <= np.sqrt(2.0 * gamma))] = 0.0
    return x


def _check_shapes(data: Dataset, w=None, z=None) -> None:
    """Refuse a weight matrix ``w`` or slack vector ``z`` that does not fit ``data``."""
    if w is not None and w.shape != data.sample_shape:
        raise InvalidArgumentError(
            f"w shape {w.shape} does not match sample shape {data.sample_shape}")
    if z is not None and z.shape[0] != data.m:
        raise InvalidArgumentError("slack length does not match sample count")


def margin_residuals(w, b: float, data: Dataset) -> np.ndarray:
    """v_i = 1 - y_i (<W, X_i> + b), in dataset order."""
    w = np.asarray(w, dtype=np.float64)
    _check_shapes(data, w)
    s = _scores(data.xs.reshape(data.m, -1), w[None])
    return _margins(s, np.array([float(b)]), data.ys)[0]


def heaviside_count(z) -> int:
    """Number of strictly positive entries of ``z`` (the 0/1 loss of the slack)."""
    z = np.asarray(z, dtype=np.float64)
    if not np.isfinite(z).all():
        raise InvalidArgumentError("z must be finite")
    return int(np.count_nonzero(z > 0))


def penalized_objective(state: ModelState, data: Dataset, hp: Hyperparams) -> float:
    """f(W, z, b) = 1/2 ||W||_F^2 + beta ||z_+||_0 + sigma ||z - v(W, b)||^2."""
    _check_shapes(data, z=state.z)
    v = margin_residuals(state.w, state.b, data)
    gap = state.z - v
    return (0.5 * fro_inner(state.w, state.w)
            + hp.beta * heaviside_count(state.z)
            + hp.sigma * float(gap @ gap))


def prox_heaviside(x, gamma: float) -> np.ndarray:
    """Proximal operator of ``gamma * ||(.)_+||_0``, elementwise.

    Minimizes ``gamma * 1[z > 0] + (z - x)^2 / 2`` per coordinate: entries in
    ``(0, sqrt(2 gamma)]`` are hard-thresholded to zero, everything else is
    kept.  The boundary ``x = sqrt(2 gamma)`` ties in objective value between
    the two candidates {0, x}; the tie breaks to 0, matching the inclusive
    upper bound of the case split.
    """
    if not gamma > 0:
        raise InvalidArgumentError("gamma must be positive")
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InvalidArgumentError("x must be finite")
    return _hard_threshold(x.copy(), gamma)


def decision_scores(w, b: float, xs: np.ndarray) -> np.ndarray:
    """<W, X_i> + b for a stacked (m, p, q) batch."""
    w = np.asarray(w, dtype=np.float64)
    xs = np.asarray(xs, dtype=np.float64)
    if xs.shape[1:] != w.shape:
        raise InvalidArgumentError(
            f"sample shape {xs.shape[1:]} does not match w shape {w.shape}"
        )
    return _scores(xs.reshape(len(xs), w.size), w[None])[0] + float(b)


def predict(w, b: float, x) -> int:
    """Label of one sample: +1 when <W, X> + b > 0, else -1 (zero maps to -1)."""
    return 1 if decision_scores(w, b, np.asarray(x)[None])[0] > 0 else -1


def predict_batch(w, b: float, data: Dataset) -> np.ndarray:
    """Vector of predicted labels over a dataset, in order."""
    return np.where(decision_scores(w, b, data.xs) > 0, 1, -1).astype(np.int8)
