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

from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError
from .linalg import SvdFactors, _ambiguous, svd
from .model import (_NON_NEGATIVE, _RANK, Dataset, Hyperparams, ModelState, _check_shapes,
                    _checked, margin_residuals, prox_heaviside)


@dataclass(frozen=True)
class KktReport:
    """Residual bundle for one iterate; all residuals are non-negative."""

    lam: np.ndarray
    w_residual: float
    z_residual: float
    b_residual: float
    feasibility_residual: float
    rank_at_solution: int
    rank_bound: int
    rank_deficient: bool
    projection_ambiguous: bool

    def to_dict(self) -> dict:
        return {
            "w_residual": self.w_residual,
            "z_residual": self.z_residual,
            "b_residual": self.b_residual,
            "feasibility_residual": self.feasibility_residual,
            "rank_at_solution": self.rank_at_solution,
            "rank_bound": self.rank_bound,
            "rank_deficient": self.rank_deficient,
            "projection_ambiguous": self.projection_ambiguous,
            "lambda": [float(v) for v in self.lam],
        }

    def to_text(self) -> str:
        d = self.to_dict()
        del d["lambda"]
        lines = [f"{key} = {value}" for key, value in d.items()]
        return "\n".join(lines)


def apply_adjoint(lam, data: Dataset) -> np.ndarray:
    """A*(lambda) = sum_i lambda_i A_i = -sum_i lambda_i y_i X_i."""
    lam = np.asarray(lam, dtype=np.float64).ravel()
    if lam.shape[0] != data.m:
        raise InvalidArgumentError("multiplier length does not match sample count")
    weights = -(lam * data.ys)
    return (weights @ data.xs.reshape(data.m, -1)).reshape(data.sample_shape)


def _multiplier(state: ModelState, v: np.ndarray, data: Dataset, sigma: float):
    """lambda = -2 sigma (z - v) and the coupling gap z - v, given the margins v."""
    _check_shapes(data, z=state.z)
    gap = state.z - v
    return -2.0 * sigma * gap, gap


def estimate_multiplier(state: ModelState, data: Dataset, sigma: float) -> np.ndarray:
    """Penalty-gradient multiplier estimate lambda = -2 sigma (z - v)."""
    sigma = _checked("sigma", sigma)
    return _multiplier(state, margin_residuals(state.w, state.b, data), data, sigma)[0]


def z_stationarity(z, lam, beta: float, tol: float = 0.0) -> float:
    """Worst violation of the slack stationarity conditions.

    For z_i != 0 the multiplier must vanish (violation |lambda_i|); for
    z_i = 0 it must be expressible as beta * d_i with d_i >= 0, so only a
    negative lambda_i violates (violation max(0, -lambda_i)).  Entries with
    |z_i| <= tol are treated as zero.
    """
    _checked("beta", beta)
    tol = _checked("tol", tol, _NON_NEGATIVE)
    z = np.asarray(z, dtype=np.float64).ravel()
    lam = np.asarray(lam, dtype=np.float64).ravel()
    if z.shape != lam.shape:
        raise InvalidArgumentError("z and lambda lengths differ")
    at_zero = np.abs(z) <= tol
    violation = np.where(at_zero, np.maximum(0.0, -lam), np.abs(lam))
    return float(violation.max(initial=0.0))


def w_stationarity(state: ModelState, lam, data: Dataset, r: int) -> float:
    """Distance of G = W + A*(lambda) from the normal cone of the rank set.

    At rank(W) < r the cone is {0} and the residual is ||G||_F.  At
    rank(W) = r the cone consists of matrices supported on the orthogonal
    complement of the singular subspaces, so the residual removes the
    component U_perp (U_perp^T G V_perp) V_perp^T.  Iterates with
    rank(W) > r are infeasible; the full ||G||_F is reported.
    """
    _checked("rank bound", r, _RANK)
    _check_shapes(data, state.w)
    return _cone_residual(state.w + apply_adjoint(lam, data), svd(state.w), r)


def _cone_residual(g_matrix: np.ndarray, factors: SvdFactors, r: int) -> float:
    """||G - P(G)||_F, P the projection onto the normal cone at the W of ``factors``."""
    if factors.rank == r:
        u_perp = factors.u_gamma_perp
        v_perp = factors.v_gamma_perp
        cone_part = u_perp @ (u_perp.T @ g_matrix @ v_perp) @ v_perp.T
        return float(np.linalg.norm(g_matrix - cone_part))
    return float(np.linalg.norm(g_matrix))


def kkt_report(state: ModelState, data: Dataset, hp: Hyperparams,
               tol: float = 1e-9) -> KktReport:
    """Assemble all residuals for one iterate.

    One margin pass gives the multiplier and the coupling gap, and one SVD of
    W gives the rank, the normal-cone residual and the ambiguity flag; the
    adjoint A*(lambda) is one more pass over the data.  ``tol`` is the
    zero-classification cutoff for slack entries in the z-stationarity test.
    """
    return _report(state, margin_residuals(state.w, state.b, data), data, hp, tol)


def completed_kkt_report(w, b: float, data: Dataset, hp: Hyperparams,
                         tol: float = 1e-9) -> KktReport:
    """``kkt_report`` of a stored (W, b), its slack completed from the same margins v.

    z = prox(v, beta / (2 sigma)) is the exact z-block minimizer at tau2 = 0,
    which coincides with the fixed point of the damped update.
    """
    v = margin_residuals(w, b, data)
    state = ModelState(w=w, b=b, z=prox_heaviside(v, hp.beta / (2.0 * hp.sigma)))
    return _report(state, v, data, hp, tol)


def _report(state: ModelState, v: np.ndarray, data: Dataset, hp: Hyperparams,
            tol: float) -> KktReport:
    """The KKT report of ``state`` given its margins ``v``."""
    lam, gap = _multiplier(state, v, data, hp.sigma)
    factors = svd(state.w)
    return KktReport(
        lam=lam,
        w_residual=_cone_residual(state.w + apply_adjoint(lam, data), factors, hp.rank),
        z_residual=z_stationarity(state.z, lam, hp.beta, tol),
        b_residual=abs(2.0 * hp.sigma * float(data.ys @ gap)),
        feasibility_residual=float(np.linalg.norm(gap)),
        rank_at_solution=factors.rank,
        rank_bound=hp.rank,
        rank_deficient=factors.rank < hp.rank,
        projection_ambiguous=(hp.rank < min(data.sample_shape)
                              and _ambiguous(factors.sigma, hp.rank)),
    )
