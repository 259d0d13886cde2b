"""Acceptance gate: the release-blocking checks, each at its stated tolerance.

Every test prints one ``[C#] ... PASS`` line (visible with ``pytest -s``).
Heavy stages run once in two module fixtures: the synthetic recovery fit,
which needs no external data, and the WDBC stages (the 324-configuration
grid and the noise bench), which need scikit-learn's copy of the dataset
and skip without it.  Criteria that read both are split into a synthetic
test and a ``_wdbc`` test, so the synthetic half always runs.  The
determinism criterion reruns each pipeline and compares output bytes.

C8 needs the ionosphere dataset, which cannot be downloaded in offline
environments; the test runs whenever the file is present (see the README
for where to put it) and is skipped with an explicit reason otherwise.
"""

import os
import time
from pathlib import Path

import numpy as np
import pytest

from hlsmm import (
    Dataset,
    Hyperparams,
    HyperparamGrid,
    StepPolicy,
    evaluate,
    export_convergence_trace,
    fit,
    grad_h,
    grid_search,
    heaviside_count,
    kkt_report,
    make_lowrank_separable,
    margin_residuals,
    noise_sweep,
    predict_batch,
    project_rank,
    prox_heaviside,
    split,
    standardize_features,
    svd,
)
from hlsmm.experiments import write_sweep_csv

from conftest import make_rng


def report(cid: str, text: str) -> None:
    print(f"[{cid}] {text}: PASS")


# --------------------------------------------------------------------------
# shared pipelines (criteria 6, 7, 9; each rerun in full by criterion 10)
# --------------------------------------------------------------------------

SYNTH_SEED = 1
WDBC_SPLIT_SEED = 1


def load_wdbc() -> Dataset:
    sklearn_datasets = pytest.importorskip("sklearn.datasets")
    raw = sklearn_datasets.load_breast_cancer()
    xs = raw.data.astype(np.float64).reshape(-1, 5, 6)  # 30 features, row-major
    ys = np.where(raw.target == 1, 1, -1).astype(np.int8)
    return Dataset(xs=xs, ys=ys, name="wdbc")


def iono_path() -> Path | None:
    candidates = [os.environ.get("HLSMM_IONO_CSV", "")]
    candidates.append(str(Path(__file__).parent / "data" / "ionosphere.csv"))
    for candidate in candidates:
        if candidate and Path(candidate).exists():
            return Path(candidate)
    return None


def load_iono(path: Path) -> Dataset:
    # Raw UCI rows: 34 numeric features then a textual g/b label.
    rows, labels = [], []
    for line in path.read_text().strip().splitlines():
        parts = line.strip().split(",")
        rows.append([float(v) for v in parts[:-1]])
        labels.append(1 if parts[-1].strip().lower() == "g" else -1)
    xs = np.asarray(rows).reshape(-1, 2, 17)
    return Dataset(xs=xs, ys=np.asarray(labels, dtype=np.int8), name="iono")


def csv_bytes(out_dir: Path, *names: str) -> dict:
    return {name: (out_dir / name).read_bytes() for name in names}


def run_synthetic(out_dir: Path) -> dict:
    """Criterion 6 end to end; returns the fit, its timing, and the trace bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict = {"timing": {}}

    # synthetic recovery fit (tolerances are free; tightened for sharp
    # stationarity residuals, everything pinned by the criterion kept pinned)
    data6, w_star, bias = make_lowrank_separable(
        m=200, p=8, q=6, rank=2, bias=0.1, margin=0.5, seed=SYNTH_SEED)
    hp6 = Hyperparams(beta=0.1, sigma=0.1, rank=2, tau1=1e-3, tau2=1e-3,
                      tau3=1e-3, maxit=1000, tol_step=1e-8, tol_obj=1e-12)
    t0 = time.perf_counter()
    fit6 = fit(data6, hp6)
    results["timing"]["c6"] = time.perf_counter() - t0
    export_convergence_trace(fit6.trace, out_dir / "c6_trace.csv")
    results["c6"] = (data6, hp6, fit6)
    results["csv_bytes"] = csv_bytes(out_dir, "c6_trace.csv")
    return results


def run_wdbc(out_dir: Path) -> dict:
    """Criteria 7/9 end to end; returns results, timings, and CSV bytes."""
    out_dir.mkdir(parents=True, exist_ok=True)
    results: dict = {"timing": {}}

    # WDBC grid, tuned on the held-out split (table-reproduction protocol)
    wdbc = load_wdbc()
    train_raw, test_raw = split(wdbc, 0.7, stratified=True, seed=WDBC_SPLIT_SEED)
    train, test = standardize_features(train_raw, test_raw)
    base = Hyperparams(beta=0.1, sigma=0.01, rank=4, maxit=1000)
    t0 = time.perf_counter()
    best, table = grid_search(train, test, HyperparamGrid(), base)
    results["timing"]["c7"] = time.perf_counter() - t0
    write_sweep_csv(table, out_dir / "c7_sweep.csv")
    refit = fit(train, best)
    results["c7"] = (train, test, best, table, refit,
                     evaluate(refit.model, test))

    # noise robustness of the tuned model
    t0 = time.perf_counter()
    noise_table, means = noise_sweep(train, test, best, "gaussian",
                                     levels=[0.0, 0.20], seeds=[1, 2, 3, 4, 5])
    results["timing"]["c9"] = time.perf_counter() - t0
    write_sweep_csv(noise_table, out_dir / "c9_noise.csv")
    results["c9"] = means

    results["csv_bytes"] = csv_bytes(out_dir, "c7_sweep.csv", "c9_noise.csv")
    return results


@pytest.fixture(scope="module")
def synthetic_pipeline(tmp_path_factory):
    return run_synthetic(tmp_path_factory.mktemp("acceptance-synthetic-run1"))


@pytest.fixture(scope="module")
def wdbc_pipeline(tmp_path_factory):
    return run_wdbc(tmp_path_factory.mktemp("acceptance-wdbc-run1"))


# --------------------------------------------------------------------------
# C1: prox operator vs analytic two-candidate oracle and 1e-4 grid search
# --------------------------------------------------------------------------

GRID = np.linspace(-10.0, 10.0, 200_001)
GRID_STEP = GRID[1] - GRID[0]
FIRST_POSITIVE = int(np.argmax(GRID > 0))


def prox_objective_on_grid(x: float, gamma: float) -> np.ndarray:
    return gamma * (GRID > 0) + 0.5 * (GRID - x) ** 2


def grid_minimum_bracketed(x: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Exact minimum over GRID of gamma*1[z>0] + (z-x)^2/2, per pair.

    On each half of the grid the objective is a parabola (plus a constant),
    so its grid minimum sits at a neighbor of the clamped continuous
    minimizer; evaluating those neighbors reproduces the value a dense
    enumeration would find (verified against dense enumeration below).
    """
    best = np.full(x.shape, np.inf)
    for lo, hi in ((0, FIRST_POSITIVE - 1), (FIRST_POSITIVE, GRID.size - 1)):
        anchor = np.clip(np.floor((np.clip(x, GRID[lo], GRID[hi]) - GRID[0])
                                  / GRID_STEP).astype(np.int64), lo, hi)
        for offset in (-1, 0, 1, 2):
            j = np.clip(anchor + offset, lo, hi)
            value = gamma * (GRID[j] > 0) + 0.5 * (GRID[j] - x) ** 2
            best = np.minimum(best, value)
    return best


def test_c01_prox_oracle_equivalence():
    started = time.perf_counter()
    gen = make_rng(101)
    n = 10_000
    x = gen.uniform(-6.0, 6.0, size=n)
    gamma = 10.0 ** gen.uniform(-4, 1, size=n)

    # analytic two-candidate oracle (z = 0 versus z = x; ties go to zero)
    cost_zero = 0.5 * x * x
    cost_keep = gamma * (x > 0)
    oracle = np.where(cost_zero <= cost_keep, 0.0, x)

    returned = np.array([prox_heaviside(np.array([xi]), gi)[0]
                         for xi, gi in zip(x, gamma)])
    mismatches = int(np.count_nonzero(returned != oracle))
    assert mismatches == 0

    # grid search at step 1e-4: the prox output must beat every grid point
    returned_cost = gamma * (returned > 0) + 0.5 * (returned - x) ** 2
    grid_min = grid_minimum_bracketed(x, gamma)
    assert np.all(returned_cost <= grid_min + 1e-12)

    # the bracketed grid minimum equals dense enumeration (spot verification)
    for i in gen.choice(n, size=200, replace=False):
        dense = float(prox_objective_on_grid(x[i], gamma[i]).min())
        assert dense == grid_min[i]

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    report("C1", f"prox oracle equivalence on {n} pairs, 0 mismatches, "
                 f"{elapsed:.2f}s")


# --------------------------------------------------------------------------
# C2: slack update is the exact coordinate minimizer
# --------------------------------------------------------------------------

def test_c02_z_update_exact_minimizer():
    started = time.perf_counter()
    gen = make_rng(202)
    n = 1_000
    sigma = 10.0 ** gen.uniform(-3.0, np.log10(0.3), size=n)
    tau2 = 10.0 ** gen.uniform(-5.0, -1.0, size=n)
    beta = 10.0 ** gen.uniform(-3.0, 0.0, size=n)
    v = gen.uniform(-5.0, 5.0, size=n)
    z_prev = gen.uniform(-5.0, 5.0, size=n)

    center = (2 * sigma * v + tau2 * z_prev) / (2 * sigma + tau2)
    threshold = np.sqrt(2 * beta / (2 * sigma + tau2))
    z_exact = np.where((center > 0) & (center <= threshold), 0.0, center)

    def coordinate_objective(z):
        return (beta * (z > 0) + sigma * (z - v) ** 2
                + 0.5 * tau2 * (z - z_prev) ** 2)

    returned_cost = coordinate_objective(z_exact)

    # dense enumeration over 200001 grid points per coordinate, chunked
    grid_min = np.full(n, np.inf)
    chunk = 50
    for start in range(0, n, chunk):
        sl = slice(start, min(start + chunk, n))
        zg = GRID[None, :]
        values = (beta[sl, None] * (zg > 0)
                  + sigma[sl, None] * (zg - v[sl, None]) ** 2
                  + 0.5 * tau2[sl, None] * (zg - z_prev[sl, None]) ** 2)
        grid_min[sl] = values.min(axis=1)
    assert np.all(returned_cost <= grid_min + 1e-12)
    assert np.all(grid_min - returned_cost <= 1e-9)  # grid agrees at the minimizer

    # printed-constants mode disagrees on a measurable set of coordinates
    center_paper = (2 * sigma * v + tau2 * z_prev) / (sigma + tau2)
    threshold_paper = np.sqrt(4 * beta / (sigma + tau2))
    z_paper = np.where((center_paper > 0) & (center_paper <= threshold_paper),
                       0.0, center_paper)
    disagree = float(np.mean(z_paper != z_exact))
    assert disagree > 0.0

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    report("C2", f"z-update exact on {n} coordinates "
                 f"(printed-constants disagreement {disagree:.1%}), {elapsed:.2f}s")


# --------------------------------------------------------------------------
# C3: rank projection residual identity
# --------------------------------------------------------------------------

def test_c03_rank_projection():
    started = time.perf_counter()
    gen = make_rng(303)
    for _ in range(1_000):
        p = int(gen.integers(2, 21))
        q = int(gen.integers(2, 16))
        max_r = min(5, min(p, q) - 1)
        if max_r < 1:
            continue
        r = int(gen.integers(1, max_r + 1))
        w = gen.standard_normal((p, q))
        projected = project_rank(w, r)
        tail = np.linalg.svd(w, compute_uv=False)[r:]
        residual_sq = float(np.linalg.norm(w - projected) ** 2)
        assert abs(residual_sq - float(tail @ tail)) <= 1e-9 * float(np.linalg.norm(w) ** 2)
        assert svd(projected).rank <= r
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("C3", f"rank projection identity on 1000 matrices, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# C4: gradient against central finite differences
# --------------------------------------------------------------------------

def test_c04_gradient_check():
    started = time.perf_counter()
    gen = make_rng(404)
    for trial in range(100):
        m = int(gen.integers(2, 11))
        p = int(gen.integers(2, 7))
        q = int(gen.integers(2, 7))
        xs = gen.standard_normal((m, p, q))
        ys = np.where(gen.uniform(size=m) < 0.5, 1, -1)
        ys[:2] = (1, -1)
        data = Dataset(xs=xs, ys=ys.astype(np.int8))
        w = gen.standard_normal((p, q))
        z = gen.standard_normal(m)
        b = float(gen.standard_normal())
        sigma = float(10.0 ** gen.uniform(-2, 0))

        def smooth(mat):
            gap = z - margin_residuals(mat, b, data)
            return 0.5 * float(np.sum(mat * mat)) + sigma * float(gap @ gap)

        analytic = grad_h(w, z, b, data, sigma)
        numeric = np.zeros_like(w)
        step = 1e-6 * max(1.0, float(np.abs(w).max()))
        for a in range(p):
            for c in range(q):
                bump = np.zeros_like(w)
                bump[a, c] = step
                numeric[a, c] = (smooth(w + bump) - smooth(w - bump)) / (2 * step)
        err = np.linalg.norm(analytic - numeric) / max(np.linalg.norm(numeric), 1e-12)
        assert err <= 1e-5
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report("C4", f"gradient matches finite differences on 100 instances, {elapsed:.2f}s")


# --------------------------------------------------------------------------
# C5: descent invariants on every fit exercised here
# --------------------------------------------------------------------------

def _check_descent(trace, tau_min: float) -> None:
    objective = np.asarray(trace.objective)
    assert np.all(np.diff(objective) <= 1e-10)
    for k in range(1, len(trace)):
        drop = trace.objective[k - 1] - trace.objective[k]
        required = 0.5 * tau_min * (trace.w_step[k] ** 2 + trace.z_step[k] ** 2
                                    + trace.b_step[k] ** 2)
        assert drop >= required - 1e-9


def test_c05_descent_invariants(synthetic_pipeline, synthetic):
    # The solver additionally enforces both inequalities at runtime on every
    # exact-mode fit; a violation anywhere in the suite raises NumericalError.
    data6, hp6, fit6 = synthetic_pipeline["c6"]
    _check_descent(fit6.trace, min(hp6.tau1, hp6.tau2, hp6.tau3))

    data, _, _ = synthetic
    battery = [
        Hyperparams(beta=0.5, sigma=0.01, rank=2, tau1=1e-4, tau2=1e-2, tau3=1e-3),
        Hyperparams(beta=0.01, sigma=0.1, rank=1, tau1=1e-2, tau2=1e-4, tau3=1e-2),
        Hyperparams(beta=0.1, sigma=0.1, rank=3, maxit=200),
        Hyperparams(beta=0.1, sigma=0.1, rank=2, maxit=150,
                    step=StepPolicy(kind="fixed")),
    ]
    for hp in battery:
        result = fit(data, hp)
        _check_descent(result.trace, min(hp.tau1, hp.tau2, hp.tau3))
    report("C5", f"descent + sufficient decrease on {1 + len(battery)} synthetic traced fits")


def test_c05_descent_invariants_wdbc(wdbc_pipeline):
    _, _, best, _, refit, _ = wdbc_pipeline["c7"]
    _check_descent(refit.trace, min(best.tau1, best.tau2, best.tau3))
    report("C5", "descent + sufficient decrease on the WDBC refit")


# --------------------------------------------------------------------------
# C6: synthetic low-rank recovery
# --------------------------------------------------------------------------

def test_c06_synthetic_recovery(synthetic_pipeline):
    data, hp, result = synthetic_pipeline["c6"]
    predictions = predict_batch(result.model.w, result.model.b, data)
    accuracy = 100.0 * float(np.mean(predictions == data.ys))
    violations = heaviside_count(result.model.z)
    rank = svd(result.model.w).rank
    rep = kkt_report(result.model, data, hp)

    assert accuracy == 100.0
    assert violations == 0
    assert rank <= 2
    assert rep.z_residual <= 1e-3
    assert rep.w_residual <= 1e-3
    assert synthetic_pipeline["timing"]["c6"] < 60.0
    report("C6", f"synthetic recovery: accuracy 100%, 0 violations, rank {rank}, "
                 f"z-res {rep.z_residual:.1e}, w-res {rep.w_residual:.1e}, "
                 f"{synthetic_pipeline['timing']['c6']:.2f}s")


# --------------------------------------------------------------------------
# C7: WDBC end to end over the full reference grid
# --------------------------------------------------------------------------

def test_c07_wdbc_end_to_end(wdbc_pipeline):
    train, test, best, table, refit, metrics = wdbc_pipeline["c7"]
    assert (train.m, test.m) == (398, 171)  # the reference split sizes
    assert len(table) == 324  # full Cartesian product enumerated
    infeasible = [row for row in table.rows if not row.ok]
    assert all(row.hyperparams.rank == 10 for row in infeasible)  # r=10 > min(5,6)-1
    assert len(infeasible) == 162
    assert metrics.accuracy >= 95.0
    assert wdbc_pipeline["timing"]["c7"] < 600.0
    report("C7", f"WDBC test accuracy {metrics.accuracy:.2f} >= 95.0 "
                 f"(best: beta={best.beta}, sigma={best.sigma}, r={best.rank}), "
                 f"grid {wdbc_pipeline['timing']['c7']:.1f}s")


# --------------------------------------------------------------------------
# C8: IONO end to end (needs the ionosphere data file)
# --------------------------------------------------------------------------

def test_c08_iono_end_to_end():
    path = iono_path()
    if path is None:
        pytest.skip(
            "ionosphere.csv not available: this environment has no network "
            "access beyond package mirrors and no installable package bundles "
            "the UCI ionosphere dataset. Place the raw UCI file at "
            "tests/data/ionosphere.csv (or set HLSMM_IONO_CSV) to run; "
            "the reference grid's rank candidates {4, 10} are infeasible for "
            "34-feature samples (any reshape has min(p, q) <= 2), so the rank "
            "axis is reduced to the feasible {1}.")
    started = time.perf_counter()
    data = load_iono(path)
    train_raw, test_raw = split(data, 0.7, stratified=True, seed=1)
    train, test = standardize_features(train_raw, test_raw)
    base = Hyperparams(beta=0.1, sigma=0.01, rank=1, maxit=1000)
    grid = HyperparamGrid(rank=(1,))  # feasible rank axis for 2x17 samples
    best, table = grid_search(train, test, grid, base)
    refit = fit(train, best)
    metrics = evaluate(refit.model, test)
    elapsed = time.perf_counter() - started
    assert metrics.accuracy >= 82.0
    assert elapsed < 300.0
    report("C8", f"IONO test accuracy {metrics.accuracy:.2f} >= 82.0, {elapsed:.1f}s")


def test_c08_loader_reads_uci_rows(tmp_path):
    # C8 skips without the data file; this keeps its loader running offline.
    path = tmp_path / "ionosphere.csv"
    features = np.arange(4 * 34, dtype=np.float64).reshape(4, 34) / 100.0
    path.write_text("".join(",".join(map(repr, row)) + f",{label}\n"
                            for row, label in zip(features.tolist(), "gbbg")))
    data = load_iono(path)
    assert data.xs.shape == (4, 2, 17)
    np.testing.assert_array_equal(data.xs, features.reshape(4, 2, 17))
    np.testing.assert_array_equal(data.ys, [1, -1, -1, 1])


# --------------------------------------------------------------------------
# C9: robustness of the WDBC model under Gaussian noise
# --------------------------------------------------------------------------

def test_c09_wdbc_noise_robustness(wdbc_pipeline):
    means = wdbc_pipeline["c9"]
    drop = means[0.0] - means[0.20]
    assert drop <= 3.0
    assert wdbc_pipeline["timing"]["c9"] < 120.0
    report("C9", f"Gaussian 0.20 accuracy drop {drop:.2f} <= 3.0 points "
                 f"({means[0.0]:.2f} -> {means[0.20]:.2f}), "
                 f"{wdbc_pipeline['timing']['c9']:.1f}s")


# --------------------------------------------------------------------------
# C10: byte-identical outputs across full reruns
# --------------------------------------------------------------------------

def _assert_same_bytes(first: dict, second: dict) -> None:
    for name, blob in first["csv_bytes"].items():
        assert second["csv_bytes"][name] == blob, f"{name} differs between runs"


def test_c10_determinism(synthetic_pipeline, tmp_path):
    _assert_same_bytes(synthetic_pipeline, run_synthetic(tmp_path / "acceptance-run2"))
    report("C10", "criterion 6 rerun produces a byte-identical trace CSV")


def test_c10_determinism_wdbc(wdbc_pipeline, tmp_path):
    _assert_same_bytes(wdbc_pipeline, run_wdbc(tmp_path / "acceptance-run2"))
    report("C10", "criteria 7 and 9 reruns produce byte-identical CSV outputs")
