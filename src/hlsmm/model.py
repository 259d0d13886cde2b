"""Domain types and the formulas of the Heaviside-loss matrix classifier.

The classifier scores a p-by-q sample ``X`` as ``<W, X> + b`` (Frobenius inner
product plus bias).  Training minimizes

    f(W, z, b) = 1/2 <W, W> + beta * ||z_+||_0 + sigma * ||z - v(W, b)||^2

subject to ``rank(W) <= r``, where ``v_i = 1 - y_i (<W, X_i> + b)`` are the
margin residuals and ``||z_+||_0`` counts strictly positive slack entries
(the 0/1 loss).  ``z`` decouples the combinatorial loss from the smooth
penalty; ``sigma`` weights the coupling ``z ~ v``.  The solver evaluates f.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import InvalidArgumentError

# Values per block of a finiteness check: its mask is 64 KiB, whatever the array.
_FINITE_BLOCK = 1 << 16


def _all_finite(a: np.ndarray) -> bool:
    """Whether every value of ``a`` is finite, tested in blocks of _FINITE_BLOCK
    values, so that no bool mask the size of ``a`` is formed."""
    flat = a.reshape(-1)
    mask = np.empty(min(flat.size, _FINITE_BLOCK), dtype=bool)
    for start in range(0, flat.size, _FINITE_BLOCK):
        block = flat[start:start + _FINITE_BLOCK]
        if not np.isfinite(block, out=mask[:block.size]).all():
            return False
    return True


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
        self._validate(None)

    @classmethod
    def _tested(cls, xs, ys, name: str, finite: bool) -> "Dataset":
        """The dataset of features that the library built, ``finite`` being
        their finiteness as the builder tested or knows it: every other check
        runs as in the constructor, and no second pass over the features is
        made.  The constructor tests the arrays that come from outside."""
        data = cls.__new__(cls)
        for key, value in (("xs", xs), ("ys", ys), ("name", name)):
            object.__setattr__(data, key, value)
        data._validate(finite)
        return data

    def _validate(self, finite: bool | None) -> None:
        """Check and store the arrays; ``finite`` None tests the features here."""
        xs = np.ascontiguousarray(np.asarray(self.xs, dtype=np.float64))
        ys = np.asarray(self.ys).ravel()
        if xs.ndim != 3 or 0 in xs.shape:
            raise InvalidArgumentError(
                "dataset needs an (m, p, q) feature array with m, p, q >= 1")
        if ys.shape[0] != xs.shape[0]:
            raise InvalidArgumentError("label count does not match sample count")
        # Labels as given (the cast would wrap 255 to -1, np.isin takes True for 1),
        # and before the features, so that a dataset with both faults reports its
        # labels, and bad labels skip the pass over the features.
        if ys.dtype == bool or not np.isin(ys, (-1, 1)).all():
            raise InvalidArgumentError("labels must be -1 or +1")
        if not (_all_finite(xs) if finite is None else finite):
            raise InvalidArgumentError("dataset features must be finite")
        ys = ys.astype(np.int8, copy=False)
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

    def subset(self, idx) -> "Dataset":
        """The samples at integer positions ``idx`` in [0, m); a mask, a float or a
        position outside that range (a negative one too) is refused.

        The features are not tested again: rows of a tested, read-only design
        hold no value that it does not."""
        idx = np.asarray(idx)
        if idx.size and not np.issubdtype(idx.dtype, np.integer):
            raise InvalidArgumentError(
                f"subset indices must be integers, got dtype {idx.dtype}")
        # Checked in the given dtype, before a cast could wrap a large unsigned value.
        outside = (idx < 0) | (idx >= self.m)
        if outside.any():
            raise InvalidArgumentError(
                f"subset index {idx[outside].flat[0]} is outside [0, {self.m})")
        idx = idx.astype(np.int64, copy=False)
        return Dataset._tested(self.xs[idx], self.ys[idx], self.name, finite=True)


# Concrete types: checks against the numbers ABCs are several times slower.
_KINDS = {int: ((int, np.integer), "an integer"),
          float: ((int, float, np.integer, np.floating), "a real number")}
# Rules as (kind, test, requirement): most hyperparameters', the rank bound's,
# counts' and seeds', tolerances' and Gaussian noise levels', and fractions'
# (salt-and-pepper noise levels).
_POSITIVE = (float, lambda v: 0 < v < np.inf, "be positive and finite")
_RANK = (int, lambda v: v >= 1, "be a positive integer")
_COUNT = (int, lambda v: v >= 0, "be non-negative")
_NON_NEGATIVE = (float, lambda v: 0 <= v < np.inf, "be non-negative and finite")
_FRACTION = (float, lambda v: 0 <= v <= 1, "lie in [0, 1]")


def _checked(name: str, value, rule: tuple = _POSITIVE):
    """``value`` as a built-in of ``rule``'s kind (a bool is neither), if its test passes."""
    convert, valid, requirement = rule
    types, kind = _KINDS[convert]
    if type(value) is not convert:
        if isinstance(value, bool) or not isinstance(value, types):
            raise InvalidArgumentError(f"{name} must be {kind}, got {value!r}")
        try:
            value = convert(value)
        except OverflowError:  # an int beyond the float range
            value = np.inf
    if not valid(value):
        raise InvalidArgumentError(f"{name} must {requirement}")
    return value


def _rank_for_shape(r, p: int, q: int) -> int:
    """``r`` as a rank bound for p-by-q samples: a positive integer below min(p, q)."""
    r = _checked("rank bound", r, _RANK)
    if not r < min(p, q):
        raise InvalidArgumentError(
            f"rank bound r={r} must be < min(p, q) = {min(p, q)} for {p}x{q} samples")
    return r


def _record(cls):
    """``dataclass(frozen=True, slots=True)``, whose refusals name the class it returns.

    Slotted records hold no ``__dict__``: a sweep holds one per
    configuration, a Hyperparams of about 129 bytes where one with a
    ``__dict__`` takes 177.  ``slots=True`` returns a new class, but the
    generated ``__setattr__`` and ``__delattr__`` close over the one it
    replaced, and for a name that is not a field they would raise
    ``TypeError`` from ``super()`` on Python 3.10-3.13.  Rebinding that
    closure cell to the new class makes every assignment and deletion raise
    ``FrozenInstanceError``.
    """
    new = dataclass(frozen=True, slots=True)(cls)
    for name in ("__setattr__", "__delattr__"):
        for cell in getattr(new, name).__closure__ or ():
            if cell.cell_contents is cls:
                cell.cell_contents = new
    return new


def _store(owner, names, rule: tuple = _POSITIVE) -> None:
    """Store named fields of a frozen dataclass as :func:`_checked` values."""
    for name in names:
        object.__setattr__(owner, name, _checked(name, getattr(owner, name), rule))


@_record
class StepPolicy:
    """W-block step-size rule.

    ``backtracking``: start each iteration at ``alpha0`` (or, when ``alpha0``
    is None, at the exact line-minimizing Cauchy step of the smooth quadratic)
    and halve it until the proximal decrease test accepts, at most
    ``max_halvings`` times.

    ``fixed``: constant step ``alpha0``; when None, the provably safe
    ``1 / (L_hat + tau1)`` with ``L_hat = 1 + 2 sigma sum_i ||X_i||_F^2``.
    """

    kind: str = "backtracking"
    alpha0: float | None = None
    max_halvings: int = 30

    def __post_init__(self):
        if self.kind not in ("backtracking", "fixed"):
            raise InvalidArgumentError(f"unknown step policy {self.kind!r}")
        if self.alpha0 is not None:
            _store(self, ("alpha0",))
        _store(self, ("max_halvings",), _COUNT)


# Each Hyperparams field that is checked, with its rule, in the order of the checks.
_HYPERPARAM_RULES = {
    **dict.fromkeys(("beta", "sigma", "tau1", "tau2", "tau3", "tol_step", "tol_obj"),
                    _POSITIVE),
    "rank": _RANK, "maxit": _COUNT}


@_record
class Hyperparams:
    """Solver hyperparameters.

    ``beta``/``sigma`` weight the 0/1 loss and the coupling penalty; ``rank``
    bounds rank(W); ``tau1..tau3`` are the proximal damping weights of the
    three blocks.
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

    def __post_init__(self):
        for name, rule in _HYPERPARAM_RULES.items():
            object.__setattr__(self, name, _checked(name, getattr(self, name), rule))

    @classmethod
    def _tested(cls, *values) -> "Hyperparams":
        """The record of ``values``, one per field in field order, each a value
        that this class's rules accepted and converted: none is checked
        again.  The constructor checks the values that come from outside."""
        hp = object.__new__(cls)
        for name, value in zip(_HYPERPARAM_FIELDS, values):
            object.__setattr__(hp, name, value)
        return hp

    def with_(self, **kwargs) -> "Hyperparams":
        return replace(self, **kwargs)


_HYPERPARAM_FIELDS = tuple(field.name for field in fields(Hyperparams))


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
    def _tested(cls, w: np.ndarray, b, z: np.ndarray, iter: int = 0) -> "ModelState":
        """The state of iterates that the library computed and knows finite: a
        2-D float64 ``w`` and a 1-D float64 ``z``, stored as given, and ``b``
        as a float.  No check runs; the constructor checks the states that
        come from outside."""
        state = object.__new__(cls)
        object.__setattr__(state, "w", w)
        object.__setattr__(state, "b", float(b))
        object.__setattr__(state, "z", z)
        object.__setattr__(state, "iter", iter)
        return state


@dataclass
class SolverTrace:
    """Per-iteration history of a fit.

    Row k describes iterate k; row 0 is the initial state (step norms zero).
    The objective column is non-increasing up to 1e-10 slack.
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


def _adjoint(x: np.ndarray, ys: np.ndarray, c: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """X^T (y c_k) for an (m, p*q) design and (..., m) coefficients, as (..., p*q).

    The transpose of :func:`_scores`, one matrix-vector product per row of
    ``c``, so a row equals that of ``c_k`` alone bit for bit.  The signed
    coefficients y c go to ``out`` (``out=c`` flips the signs of ``c`` in
    place), else to a new array.
    """
    return (x.T @ np.multiply(ys, c, out=out)[..., None])[..., 0]


def _margins(s: np.ndarray, b: np.ndarray, ys: np.ndarray,
             out: np.ndarray | None = None) -> np.ndarray:
    """V = 1 - y (S + b) for (K, m) scores and (K,) biases, in ``out`` (may be ``s``)
    or else in one new array."""
    v = np.add(s, b[:, None], out=out)
    v *= ys
    return np.subtract(1.0, v, out=v)


def _heaviside(z: np.ndarray):
    """||z_+||_0, the 0/1 loss: the count of positive entries along the last axis."""
    return np.count_nonzero(z > 0, axis=-1)


def _hard_threshold(x: np.ndarray, gamma) -> np.ndarray:
    """The 0/1 loss's prox: zero the entries of a (K, m) stack ``x`` in
    (0, sqrt(2 gamma)], in place; ``gamma`` (>= 0, so the threshold t is in
    [+0.0, +inf]) is a (K, 1) column, or a scalar for one row.
    Unvalidated: the solver's own checks report divergence.

    Compared as unsigned 64-bit words, the bits of a non-negative double
    order like its value, and those of -0.0, negatives and NaNs of either
    sign sort above any t.  So the words above t's are the entries kept,
    and multiplying every word by its bool ``word > t`` zeroes the others
    and keeps these bit for bit.  The zeroed set also holds +0.0, which
    stays as it is, so the rule, and its tie at x = t, are those of
    ``(x > 0) & (x <= t)`` bit for bit, with one bool array instead of two.
    The multiply casts the bools to words through numpy's ufunc buffer, so
    it runs on two halves of the stack, its rows or a lone row's samples,
    with one mask of half the stack for both.
    """
    t = np.sqrt(2.0 * gamma).view(np.uint64)
    bits = x.view(np.uint64)
    if len(bits) > 1:
        half = (len(bits) + 1) // 2
        blocks = (bits[:half], t[:half]), (bits[half:], t[half:])
    else:
        half = (bits.shape[1] + 1) // 2
        blocks = (bits[:, :half], t), (bits[:, half:], t)
    mask = np.empty(blocks[0][0].shape, dtype=bool)
    for block, level in blocks:
        keep = np.greater(block, level, out=mask[:len(block), :block.shape[1]])
        block *= keep
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
    return int(_heaviside(z.ravel()))


def prox_heaviside(x, gamma: float) -> np.ndarray:
    """Proximal operator of ``gamma * ||(.)_+||_0``, elementwise.

    Minimizes ``gamma * 1[z > 0] + (z - x)^2 / 2`` per coordinate: entries in
    ``(0, sqrt(2 gamma)]`` are hard-thresholded to zero, everything else is
    kept.  The boundary ``x = sqrt(2 gamma)`` ties in objective value between
    the two candidates {0, x}; the tie breaks to 0, matching the inclusive
    upper bound of the case split.
    """
    gamma = _checked("gamma", gamma)
    x = np.asarray(x, dtype=np.float64)
    if not np.isfinite(x).all():
        raise InvalidArgumentError("x must be finite")
    return _hard_threshold(x.reshape(1, -1).copy(), gamma).reshape(x.shape)


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
