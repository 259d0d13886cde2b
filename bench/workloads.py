"""The benchmark's workloads: seeded inputs, set-up, timed section, output checks.

Each workload makes a different layer do most of the work:

* ``large_fit``: one fit on 20000 MNIST-shaped samples.  The solver's passes
  over the 125 MB design matrix dominate (memory-bound solver).
* ``wdbc_grid``: the 324-cell reference grid on a 569-sample WDBC-shaped
  proxy, validated on a held-out split and by 3-fold CV, then the CV winner
  refit.  Per-call overhead, tiny SVDs and the sweep loop dominate.

All inputs come from the ``--seed`` argument and are written to files; set-up
reads them back through hlsmm's own loaders and returns the training set
first.  The timed section calls only hlsmm's public library API.  ``call(name, fn, *args)`` is how every call into
a layer is made, so the traced run can put a span around it.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import hlsmm
from hlsmm import experiments as exp


def plain_call(name, fn, *args, **kwargs):
    return fn(*args, **kwargs)


@dataclass
class Outcome:
    """Checked result of one timed section (or of a check made once per run)."""

    accuracy_pct: float = 0.0
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    cells: int = 0
    cells_rejected: int = 0

    def op(self, ok: bool, problem: str) -> None:
        """Count one operation; a failed check is a failed operation."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(problem)


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def rng_for(seed: int, stream: int) -> np.random.Generator:
    return np.random.Generator(np.random.PCG64([stream, seed]))


def planted_direction(rng, p: int, q: int, spectrum) -> np.ndarray:
    """W* with the given singular values and random orthonormal factors.

    For isotropic Gaussian samples the problem is invariant under rotations
    of W*, so fixing the spectrum keeps the difficulty equal across seeds.
    """
    spectrum = np.asarray(spectrum, dtype=np.float64)
    spectrum = spectrum / np.linalg.norm(spectrum)
    u, _ = np.linalg.qr(rng.standard_normal((p, spectrum.size)))
    v, _ = np.linalg.qr(rng.standard_normal((q, spectrum.size)))
    return (u * spectrum) @ v.T


def planted_samples(rng, w_star: np.ndarray, m: int, flip: float
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Standard normal samples labelled by sign<W*, X>, then a share flipped."""
    xs = rng.standard_normal((m, *w_star.shape))
    ys = np.where(xs.reshape(m, -1) @ w_star.ravel() > 0, 1, -1).astype(np.int8)
    flipped = rng.choice(m, size=int(round(flip * m)), replace=False)
    ys[flipped] *= -1
    return xs, ys


def rank_ok(w: np.ndarray, bound: int) -> bool:
    return hlsmm.svd(w).rank <= bound


class LargeFit:
    """One fit on m=20000 samples of 28x28 with 5% label flips, r=5."""

    name = "large_fit"
    setup_reps = 1
    probe_every = 16  # timestamps: a probe before every eighth call
    accuracy_floor = 90.0
    # The timed fit runs a fixed number of PAM iterations, so every seed does
    # the same work.  Run to convergence, the iteration count varies between
    # seeds by more than a factor of two, which would swamp any change in the
    # cost of an iteration.
    timed_iters = 50
    hp = hlsmm.Hyperparams(beta=0.1, sigma=0.01, rank=5)

    def generate(self, seed: int, work: Path) -> None:
        rng = rng_for(seed, 1)
        w_star = planted_direction(rng, 28, 28, (3.0, 2.0, 1.0))
        for fname, m, flip in (("train.smm1", 20000, 0.05), ("test.smm1", 2000, 0.0)):
            xs, ys = planted_samples(rng, w_star, m, flip)
            hlsmm.save_smm1(hlsmm.Dataset(xs=xs, ys=ys, name=fname), work / fname)

    def probe(self, inputs):
        """Six passes over the training design, about one solver iteration.

        The probe lasts about as long as the pieces it sits among; a single
        pass is short enough to find a quiet moment on a loaded host when
        the iterations around it find none, and then it stops following
        the load.
        """
        x = inputs[0].xs.reshape(inputs[0].m, -1)
        w = np.full(x.shape[1], 1.0 / x.shape[1])
        v = np.full(x.shape[0], 1.0 / x.shape[0])

        def passes():
            for _ in range(3):
                x @ w
                x.T @ v
        return passes

    def setup(self, work: Path, seed: int, call=plain_call):
        train = call("data.load", hlsmm.load_smm1, work / "train.smm1")
        test = call("data.load", hlsmm.load_smm1, work / "test.smm1")
        return train, test

    def section(self, inputs, out: Path, seed: int, call=plain_call):
        train, test = inputs
        hp = self.hp.with_(maxit=self.timed_iters)
        result = call("solver.fit", hlsmm.fit, train, hp)
        metrics = call("experiments.evaluate", hlsmm.evaluate, result.model, test)
        call("experiments.export_convergence_trace", exp.export_convergence_trace,
             result.trace, out / "trace.csv")
        return result, metrics

    def check(self, output, out: Path) -> Outcome:
        result, metrics = output
        outcome = Outcome(accuracy_pct=metrics.accuracy,
                          digests={"trace.csv": sha256(out / "trace.csv")})
        outcome.op(result.trace.status in ("converged", "max_iter"),
                   f"timed fit: status {result.trace.status}")
        outcome.op(rank_ok(result.model.w, self.hp.rank), "timed fit: rank(W) > r")
        outcome.op(metrics.accuracy >= self.accuracy_floor,
                   f"accuracy {metrics.accuracy:.2f}% below {self.accuracy_floor}%")
        return outcome

class WdbcGrid:
    """The 324-cell grid on a WDBC-shaped proxy: held-out, then 3-fold CV."""

    name = "wdbc_grid"
    setup_reps = 10
    probe_every = 128  # timestamps: about 350 probes in a repeat
    accuracy_floor = 70.0
    shape = (5, 6)
    probe_matrix = rng_for(0, 0).standard_normal(shape)
    m, positives = 569, 212
    # Every cell stops by 30 iterations, which three cells in four reach.  Run
    # to convergence (maxit 1000) a held-out grid takes 19.7k to 25.9k
    # iterations depending on the seed, a spread that would hide any change
    # in the cost of an iteration.
    base = hlsmm.Hyperparams(beta=0.1, sigma=0.01, rank=4, maxit=30)

    def generate(self, seed: int, work: Path) -> None:
        rng = rng_for(seed, 2)
        w_star = planted_direction(rng, *self.shape, (2.0, 1.0))
        latent = rng.standard_normal((self.m, *self.shape))
        scores = latent.reshape(self.m, -1) @ w_star.ravel()
        ys = np.where(scores >= np.sort(scores)[-self.positives], 1, 0)
        flipped = rng.choice(self.m, size=int(round(0.05 * self.m)), replace=False)
        ys[flipped] = 1 - ys[flipped]
        # WDBC features span five orders of magnitude; standardization undoes it.
        scale = 10.0 ** rng.uniform(-2.0, 3.0, size=self.shape[0] * self.shape[1])
        offset = scale * rng.uniform(0.5, 5.0, size=scale.size)
        features = offset + scale * latent.reshape(self.m, -1)
        lines = [",".join([str(int(y))] + [repr(float(v)) for v in row])
                 for y, row in zip(ys, features)]
        (work / "wdbc.csv").write_text("\n".join(lines) + "\n")

    def probe(self, inputs):
        """Three SVDs of a fixed 5x6 matrix: small LAPACK calls from Python."""
        def svds():
            for _ in range(3):
                np.linalg.svd(self.probe_matrix, full_matrices=False)
        return svds

    def setup(self, work: Path, seed: int, call=plain_call):
        data = call("data.load", hlsmm.load_csv, work / "wdbc.csv",
                    label_column=0, reshape=self.shape)
        train, test = call("data.preprocess", hlsmm.split, data, 0.7,
                           stratified=True, seed=seed)
        return call("data.preprocess", hlsmm.standardize_features, train, test)

    def section(self, inputs, out: Path, seed: int, call=plain_call):
        train, test = inputs
        grid = hlsmm.HyperparamGrid()
        best_h, table_h = call("experiments.grid_search", hlsmm.grid_search,
                               train, test, grid, self.base)
        call("experiments.write_sweep_csv", exp.write_sweep_csv, table_h,
             out / "heldout.csv")
        best_cv, table_cv = call("experiments.grid_search_cv", hlsmm.grid_search_cv,
                                 train, grid, self.base, folds=3, seed=seed)
        call("experiments.write_sweep_csv", exp.write_sweep_csv, table_cv,
             out / "cv.csv")
        refit = metrics = None
        if best_cv is not None:
            refit = call("solver.fit", hlsmm.fit, train, best_cv)
            metrics = call("experiments.evaluate", hlsmm.evaluate, refit.model, test)
        return (best_h, table_h), (best_cv, table_cv), refit, metrics

    def check(self, output, out: Path) -> Outcome:
        heldout, cv, refit, metrics = output
        outcome = Outcome(digests={name: sha256(out / name)
                                   for name in ("heldout.csv", "cv.csv")})
        feasible_below = min(self.shape)
        for label, (best, table) in (("held-out", heldout), ("cv", cv)):
            for row in table.rows:
                outcome.cells += 1
                if row.hyperparams.rank >= feasible_below:
                    # Rank-infeasible cells must be rejected; they are not
                    # operations that can fail.
                    if row.ok:
                        outcome.op(False, f"{label} cell {row.index}: rank "
                                   f"{row.hyperparams.rank} accepted")
                    else:
                        outcome.cells_rejected += 1
                else:
                    outcome.op(row.ok, f"{label} cell {row.index}: {row.error}")
            outcome.op(best is not None, f"{label} grid picked no winner")
        if refit is not None:
            outcome.accuracy_pct = metrics.accuracy
            outcome.op(rank_ok(refit.model.w, refit.hyperparams_echo.rank),
                       "refit: rank(W) > r")
            outcome.op(metrics.accuracy >= self.accuracy_floor,
                       f"refit accuracy {metrics.accuracy:.2f}% below "
                       f"{self.accuracy_floor}%")
        return outcome


WORKLOADS = {wl.name: wl for wl in (LargeFit(), WdbcGrid())}
