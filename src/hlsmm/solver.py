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
asserted at runtime (exact z mode); violation raises NumericalError.
"""

from __future__ import annotations

import functools
import time
from dataclasses import dataclass

import numpy as np

from .errors import InvalidArgumentError, NumericalError
from .linalg import project_rank, svd
from .model import Dataset, Hyperparams, ModelState, SolverTrace, heaviside_count

# Slack allowed on the monotone-objective and sufficient-decrease assertions.
MONOTONE_SLACK = 1e-10
DECREASE_SLACK = 1e-9


@dataclass(frozen=True)
class FitResult:
    """Output of :func:`fit`: final iterate, per-iteration trace, echo of inputs."""

    model: ModelState
    trace: SolverTrace
    hyperparams_echo: Hyperparams
    wall_time: float

    @property
    def converged(self) -> bool:
        return self.trace.status == "converged"


class _Problem:
    """Arrays reused across iterations for one (dataset, sigma) pair.

    Every block reads an iterate W through its scores s = X vec(W), with X
    the (m, p*q) design; the caller computes them once per W and passes them on:
      margins    v = 1 - y (s + b)
      gradient   W + 2 sigma unflatten(X.T (y (z - v)))
      curvature  ||G||^2 + 2 sigma ||X vec(G)||^2 along a direction G
    y is +-1, so multiplying by it only flips signs, which is exact in
    floating point: these products equal those of the signed design
    y_i vec(X_i) bit for bit without storing it.  With the scores cached an
    iteration reads the design three times (gradient, Cauchy step, candidate
    scores), plus once more per backtracking halving.
    """

    def __init__(self, data: Dataset, sigma: float):
        self.data = data
        self.sigma = float(sigma)
        self.shape = data.sample_shape
        self.m = data.m
        self.X = data.xs.reshape(data.m, -1)
        self.ys = data.ys.astype(np.float64)

    @functools.cached_property
    def lipschitz(self) -> float:
        """Trace bound on the Lipschitz constant of grad h (one data pass, on first use)."""
        return 1.0 + 2.0 * self.sigma * float(np.dot(self.X.ravel(), self.X.ravel()))

    def scores(self, w: np.ndarray) -> np.ndarray:
        """<W, X_i> for every sample: the one pass over the data per iterate."""
        return self.X @ w.ravel()

    def margins(self, s: np.ndarray, b: float) -> np.ndarray:
        return 1.0 - self.ys * (s + b)

    def smooth(self, w: np.ndarray, s: np.ndarray, z: np.ndarray, b: float) -> float:
        """h(W) = 1/2 ||W||^2 + sigma ||z - v(W, b)||^2 (loss term excluded)."""
        gap = z - self.margins(s, b)
        return 0.5 * float(np.dot(w.ravel(), w.ravel())) + self.sigma * float(gap @ gap)

    def objective(self, w: np.ndarray, s: np.ndarray, z: np.ndarray, b: float,
                  beta: float) -> float:
        return self.smooth(w, s, z, b) + beta * heaviside_count(z)

    def gradient(self, w: np.ndarray, s: np.ndarray, z: np.ndarray, b: float) -> np.ndarray:
        gap = z - self.margins(s, b)
        return w + 2.0 * self.sigma * (self.X.T @ (self.ys * gap)).reshape(self.shape)

    def cauchy_step(self, grad: np.ndarray) -> float:
        """Exact minimizer of alpha -> h(W - alpha grad); h is quadratic in W."""
        gn2 = float(np.dot(grad.ravel(), grad.ravel()))
        if gn2 == 0.0:
            return 1.0 / self.lipschitz
        xg = self.X @ grad.ravel()
        curvature = gn2 + 2.0 * self.sigma * float(xg @ xg)
        if not np.isfinite(curvature) or curvature <= 0.0:
            return 1.0 / self.lipschitz
        return gn2 / curvature


def grad_h(w, z, b: float, data: Dataset, sigma: float) -> np.ndarray:
    """Gradient of the smooth part of the W-subproblem at the expansion point.

    grad h(W) = W + 2 sigma sum_i y_i (z_i - 1 + y_i <W, X_i> + b y_i) X_i.
    The proximal term tau1/2 ||W - W^k||^2 contributes nothing at W = W^k.
    """
    if not sigma > 0:
        raise InvalidArgumentError("sigma must be positive")
    w = np.asarray(w, dtype=np.float64)
    z = np.asarray(z, dtype=np.float64).ravel()
    if w.shape != data.sample_shape:
        raise InvalidArgumentError(
            f"w shape {w.shape} does not match sample shape {data.sample_shape}"
        )
    if z.shape[0] != data.m:
        raise InvalidArgumentError("slack length does not match sample count")
    problem = _Problem(data, sigma)
    return problem.gradient(w, problem.scores(w), z, float(b))


def _w_step(problem: _Problem, w: np.ndarray, s: np.ndarray, z: np.ndarray, b: float,
            hp: Hyperparams, iteration: int) -> tuple[np.ndarray, np.ndarray, int, bool]:
    """One accepted projected-gradient step from W with scores s.

    Returns (new_w, its scores, halvings used, stalled).  The block stalls
    when no step passes the decrease test within ``max_halvings``; it then
    keeps new_w = w.
    """
    grad = problem.gradient(w, s, z, b)
    if not np.isfinite(grad).all():
        raise NumericalError("non-finite gradient in W block", iteration)
    policy = hp.step
    if policy.kind == "fixed":
        alpha = policy.alpha0 if policy.alpha0 is not None else (
            1.0 / (problem.lipschitz + hp.tau1))
        try:
            candidate = project_rank(w - alpha * grad, hp.rank)
        except (InvalidArgumentError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"rank projection failed: {exc}", iteration) from exc
        return candidate, problem.scores(candidate), 0, False

    alpha = policy.alpha0 if policy.alpha0 is not None else problem.cauchy_step(grad)
    h_ref = problem.smooth(w, s, z, b)
    for halvings in range(policy.max_halvings + 1):
        try:
            candidate = project_rank(w - alpha * grad, hp.rank)
        except (InvalidArgumentError, np.linalg.LinAlgError) as exc:
            raise NumericalError(f"rank projection failed: {exc}", iteration) from exc
        s_candidate = problem.scores(candidate)
        step = candidate - w
        decrease_ok = (problem.smooth(candidate, s_candidate, z, b)
                       + 0.5 * hp.tau1 * float(np.dot(step.ravel(), step.ravel()))
                       <= h_ref)
        if decrease_ok:
            return candidate, s_candidate, halvings, False
        alpha *= policy.shrink
    return w, s, policy.max_halvings, True  # stalled block: keep the previous iterate


def _z_step(problem: _Problem, s_new: np.ndarray, z: np.ndarray, b: float,
            hp: Hyperparams) -> np.ndarray:
    v = problem.margins(s_new, b)
    sigma, tau2, beta = hp.sigma, hp.tau2, hp.beta
    if hp.z_update == "exact":
        # Exact minimizer of beta ||z_+||_0 + sigma ||z - v||^2 + tau2/2 ||z - z^k||^2:
        # complete the square (curvature 2 sigma + tau2), then hard-threshold.
        center = (2.0 * sigma * v + tau2 * z) / (2.0 * sigma + tau2)
        threshold = np.sqrt(2.0 * beta / (2.0 * sigma + tau2))
    else:
        # Constants as printed in the source algorithm; kept for comparison.
        # Not the subproblem minimizer: the center weights sum to more than one
        # and the threshold is wider, so no descent guarantee applies.
        center = (2.0 * sigma * v + tau2 * z) / (sigma + tau2)
        threshold = np.sqrt(4.0 * beta / (sigma + tau2))
    return np.where((center > 0) & (center <= threshold), 0.0, center)


def _b_step(problem: _Problem, s_new: np.ndarray, z_new: np.ndarray, b: float,
            hp: Hyperparams) -> float:
    # First-order condition of  sigma ||z - 1 + A(W) + b y||^2 + tau3/2 (b - b^k)^2,
    # with s_new = A(W) the scores <W, X_i> of the new W.
    sigma, tau3 = hp.sigma, hp.tau3
    residual_no_b = float(problem.ys @ (z_new - 1.0)) + float(s_new.sum())
    return (tau3 * b - 2.0 * sigma * residual_no_b) / (2.0 * sigma * problem.m + tau3)


def update_w(state: ModelState, data: Dataset, hp: Hyperparams) -> tuple[np.ndarray, int]:
    """Public one-shot W update; see the module docstring for the scheme."""
    hp.validate_for_shape(*data.sample_shape)
    problem = _Problem(data, hp.sigma)
    w_new, _, halvings, _ = _w_step(problem, state.w, problem.scores(state.w),
                                    state.z, state.b, hp, state.iter)
    return w_new, halvings


def update_z(state: ModelState, data: Dataset, hp: Hyperparams) -> np.ndarray:
    """Exact (or paper-mode) slack update, assuming ``state.w`` is the new W."""
    problem = _Problem(data, hp.sigma)
    return _z_step(problem, problem.scores(state.w), state.z, state.b, hp)


def update_b(state: ModelState, data: Dataset, hp: Hyperparams) -> float:
    """Closed-form bias update, assuming W and z are already updated."""
    problem = _Problem(data, hp.sigma)
    return _b_step(problem, problem.scores(state.w), state.z, state.b, hp)


def fit(data: Dataset, hp: Hyperparams, init: ModelState | None = None) -> FitResult:
    """Run the three-block scheme until the step/objective tolerances or maxit.

    Stops when ||W_new - W||_F / max(1, ||W||_F) <= tol_step and the objective
    change is at most tol_obj.  The status is then "converged", or "stalled"
    when the W block of that last iteration found no acceptable step (W did
    not move because it could not, not because it is stationary); otherwise
    "max_iter".  The returned model always satisfies rank(W) <= hp.rank; the
    trace objective is non-increasing (exact z mode).

    Raises
    ------
    InvalidArgumentError
        Missing label class, shape/rank bound violations, bad init shapes.
    NumericalError
        Non-finite values or a broken descent inequality, with the iteration.
    """
    t_start = time.perf_counter()
    data.require_both_labels()
    hp.validate_for_shape(*data.sample_shape)

    state = init if init is not None else ModelState.initial(data)
    if state.w.shape != data.sample_shape or state.z.shape[0] != data.m:
        raise InvalidArgumentError("init state does not match dataset shapes")
    if init is not None and svd(state.w).rank > hp.rank:
        # A stalled W block keeps the previous iterate, so feasibility of the
        # returned model requires a feasible start.
        raise InvalidArgumentError(
            f"init weight matrix has rank {svd(state.w).rank} > bound {hp.rank}")

    problem = _Problem(data, hp.sigma)
    w, z, b = state.w.copy(), state.z.copy(), state.b
    s = problem.scores(w)
    g = problem.objective(w, s, z, b, hp.beta)
    tau_min = min(hp.tau1, hp.tau2, hp.tau3)
    enforce_descent = hp.z_update == "exact"

    trace = SolverTrace()
    trace.append(g, 0.0, 0.0, 0.0, 0)

    iterations = 0
    for k in range(1, hp.maxit + 1):
        # Overflow warnings are silenced: divergence (possible in the
        # paper-mode z-update) is caught by the finiteness guards below.
        with np.errstate(over="ignore", invalid="ignore"):
            w_new, s_new, halvings, stalled = _w_step(problem, w, s, z, b, hp, k)
            z_new = _z_step(problem, s_new, z, b, hp)
            b_new = _b_step(problem, s_new, z_new, b, hp)
            if not (np.isfinite(w_new).all() and np.isfinite(z_new).all()
                    and np.isfinite(b_new)):
                raise NumericalError("iterate became non-finite", k)
            g_new = problem.objective(w_new, s_new, z_new, b_new, hp.beta)
        if not np.isfinite(g_new):
            raise NumericalError("objective became non-finite", k)

        dw = float(np.linalg.norm(w_new - w))
        dz = float(np.linalg.norm(z_new - z))
        db = abs(b_new - b)
        if enforce_descent:
            if g_new > g + MONOTONE_SLACK:
                raise NumericalError(
                    f"objective increased from {g:.6e} to {g_new:.6e}", k)
            decrease = g - g_new
            required = 0.5 * tau_min * (dw * dw + dz * dz + db * db)
            if decrease < required - DECREASE_SLACK:
                raise NumericalError(
                    f"sufficient decrease violated: {decrease:.3e} < {required:.3e}", k)

        trace.append(g_new, dw, dz, db, halvings)
        w_norm = float(np.linalg.norm(w))
        stop = (dw / max(1.0, w_norm) <= hp.tol_step) and (abs(g_new - g) <= hp.tol_obj)
        w, s, z, b, g = w_new, s_new, z_new, b_new, g_new
        iterations = k
        if stop:
            trace.status = "stalled" if stalled else "converged"
            break
    else:
        trace.status = "max_iter"

    final = ModelState(w=w, b=b, z=z, iter=iterations)
    return FitResult(model=final, trace=trace,
                     hyperparams_echo=hp, wall_time=time.perf_counter() - t_start)
