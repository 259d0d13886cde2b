"""Stationarity residuals for iterates of the penalized rank-constrained problem.

A point (W, z, b) with multiplier lambda is stationary when

  * W + A*(lambda) lies in the normal cone of the rank-r set at W,
  * lambda_i = 0 wherever z_i != 0 and lambda_i >= 0 wherever z_i = 0
    (the regular subdifferential of the positive-part counting norm),
  * the bias gradient 2 sigma y^T (z - v) vanishes,
  * z = v (coupling feasibility).

The solver only ever produces penalty-form iterates, so the multiplier is
estimated from the penalty gradient, lambda = -2 sigma (z - v), and the
feasibility residual ||z - v|| is expected to scale like O(1/sigma) rather
than vanish.  The linear operator convention is A_i = -y_i X_i, matching the
sign of the W gradient.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .linalg import SvdFactors, svd
from .model import (_NON_NEGATIVE, Dataset, Hyperparams, ModelState, _check_shapes,
                    _checked, _hard_threshold, margin_residuals)
from .solver import _Problem


@dataclass(frozen=True)
class KktReport:
    """Residual bundle for one iterate; all residuals are non-negative.

    A residual that is not finite is a NumericalError naming it.
    """

    lam: np.ndarray
    w_residual: float
    z_residual: float
    b_residual: float
    feasibility_residual: float
    rank_at_solution: int
    rank_bound: int
    rank_deficient: bool

    def __post_init__(self):
        for f in fields(self):
            if f.name.endswith("_residual") and not np.isfinite(getattr(self, f.name)):
                raise NumericalError(f"non-finite {f.name}")

    def to_dict(self) -> dict:
        """Every field by name, in field order, the multiplier last as "lambda"."""
        scalars = {f.name: getattr(self, f.name) for f in fields(self) if f.name != "lam"}
        return {**scalars, "lambda": [float(v) for v in self.lam]}

    def to_text(self) -> str:
        d = self.to_dict()
        del d["lambda"]
        lines = [f"{key} = {value}" for key, value in d.items()]
        return "\n".join(lines)


def z_stationarity(z, lam, tol: float = 0.0) -> float:
    """Worst violation of the slack stationarity conditions.

    For z_i != 0 the multiplier must vanish (violation |lambda_i|); for
    z_i = 0 it must lie in the regular subdifferential [0, inf) of the
    counting term, so only a negative lambda_i violates (violation
    max(0, -lambda_i)).  Entries with |z_i| <= tol are treated as zero.
    """
    tol = _checked("tol", tol, _NON_NEGATIVE)
    z = np.asarray(z, dtype=np.float64).ravel()
    lam = np.asarray(lam, dtype=np.float64).ravel()
    if z.shape != lam.shape:
        raise InvalidArgumentError("z and lambda lengths differ")
    at_zero = np.abs(z) <= tol
    violation = np.where(at_zero, np.maximum(0.0, -lam), np.abs(lam))
    return float(violation.max(initial=0.0))


def _norm(x: np.ndarray) -> float:
    """||x||_F, rescaled by max |x| only where the plain norm overflows, so a
    finite norm keeps numpy's bits and only a norm beyond the float range is inf."""
    norm = np.linalg.norm(x)
    if np.isinf(norm):
        scale = np.abs(x).max()
        norm = scale * np.linalg.norm(x / scale)
    return float(norm)


def _cone_residual(g: np.ndarray, factors: SvdFactors, r: int) -> float:
    """Distance of G = W + A*(lambda) from the normal cone of the rank-r set at W.

    G is grad h(W) at the penalty multiplier, the solver's own gradient.  At
    rank(W) = r the cone holds the matrices (I - U U^T) D (I - V V^T), U and V
    the r leading singular vectors of W in ``factors``, so the residual is
    G - (I - U U^T) G (I - V V^T) = U U^T G + (I - U U^T) G V V^T, two
    orthogonal terms.  At rank(W) < r the cone is {0}, and iterates with
    rank(W) > r are infeasible: both report ||G||_F.
    """
    if factors.rank != r:
        return _norm(g)
    u, v = factors.u[:, :r], factors.v[:, :r]
    ug = u.T @ g
    return float(np.hypot(_norm(ug), _norm(g @ v - u @ (ug @ v))))


def kkt_report(state: ModelState, data: Dataset, hp: Hyperparams,
               tol: float = 1e-9) -> KktReport:
    """Assemble all residuals for one iterate.

    One margin pass gives the multiplier and the coupling gap, and one SVD of
    W gives the rank and the normal-cone residual; the gradient G, which
    reads A*(lambda), is one more pass over the data.  ``tol`` is the
    zero-classification cutoff for slack entries in the z-stationarity test.
    A residual that overflows is refused by the report, with numpy's
    warnings kept off stderr.
    """
    _check_shapes(data, state.w, state.z)
    with np.errstate(over="ignore", invalid="ignore"):
        return _report(state, margin_residuals(state.w, state.b, data), data, hp, tol)


def completed_kkt_report(w, b: float, data: Dataset, hp: Hyperparams,
                         tol: float = 1e-9) -> KktReport:
    """``kkt_report`` of a stored (W, b), its slack completed from the same margins v.

    z = prox(v, beta / (2 sigma)) is the exact z-block minimizer at tau2 = 0,
    which coincides with the fixed point of the damped update; it is the z
    block's own threshold, which takes any beta / (2 sigma) in [0, inf].
    Margins or a residual that overflow are a NumericalError, as in
    :func:`kkt_report`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        v = margin_residuals(w, b, data)
        if not np.isfinite(v).all():
            raise NumericalError("non-finite margins")
        z = _hard_threshold(v[None].copy(), hp.beta / (2.0 * hp.sigma))[0]
        state = ModelState(w=w, b=b, z=z)
        return _report(state, v, data, hp, tol)


def _report(state: ModelState, v: np.ndarray, data: Dataset, hp: Hyperparams,
            tol: float) -> KktReport:
    """The KKT report of ``state`` given its margins ``v``.

    G is the gradient that the solver's next iteration takes from this gap.
    That call flips the gap's signs in place, so the multiplier and the b and
    feasibility residuals are taken first.
    """
    gap = state.z - v
    lam = -2.0 * hp.sigma * gap
    b_residual = abs(2.0 * hp.sigma * float(data.ys @ gap))
    feasibility_residual = _norm(gap)
    g = _Problem(data).gradient(state.w[None], gap[None], np.array([hp.sigma]))[0]
    factors = svd(state.w)
    return KktReport(
        lam=lam,
        w_residual=_cone_residual(g, factors, hp.rank),
        z_residual=z_stationarity(state.z, lam, tol),
        b_residual=b_residual,
        feasibility_residual=feasibility_residual,
        rank_at_solution=factors.rank,
        rank_bound=hp.rank,
        rank_deficient=factors.rank < hp.rank,
    )
