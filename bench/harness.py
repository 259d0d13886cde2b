"""Measurement loop, machine record and result output for bench/run.py."""

from __future__ import annotations

import ctypes
import glob
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import numpy as np

import hlsmm
import tracing
from workloads import WORKLOADS, Outcome, plain_call


def machine(root: Path, nproc: int) -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(line.split(":", 1)[1].strip() for line in handle
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": nproc,
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads(nproc),
        "commit": git_commit(root),
        "src_sha256": source_digest(root / "src"),
    }


def blas_threads(cap: int) -> int:
    """Threads numpy's bundled OpenBLAS reports, else the cap that was set."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in glob.glob(str(libs / "*openblas*")):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            if hasattr(lib, symbol):
                getter = getattr(lib, symbol)
                getter.restype = ctypes.c_int
                return int(getter())
    return cap


def git_commit(root: Path) -> str:
    """HEAD of the checkout's own repository, or "unknown" outside one.

    The ceiling stops git from reporting a repository that merely encloses
    the checkout.
    """
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def timed(fn, *args):
    t0 = time.perf_counter()
    value = fn(*args)
    return time.perf_counter() - t0, value


def run_section(wl, inputs, out: Path, seed: int, call=plain_call, timer=timed):
    """One timed section and its checks; returns (seconds, output, outcome)."""
    out.mkdir(parents=True, exist_ok=True)
    try:
        seconds, output = timer(wl.section, inputs, out, seed, call)
    except hlsmm.HlsmmError as exc:
        outcome = Outcome()
        outcome.op(False, f"section raised {type(exc).__name__}: {exc}")
        return 0.0, None, outcome
    return seconds, output, wl.check(output, out)


def merge(outcomes: list[Outcome]) -> tuple[int, int, list[str], dict]:
    attempted = sum(o.attempted for o in outcomes)
    failed = sum(o.failed for o in outcomes)
    problems = [p for o in outcomes for p in o.problems]
    digests = [o.digests for o in outcomes if o.digests]
    if any(d != digests[0] for d in digests):
        failed += 1
        problems.append("output digests differ between repeats")
    attempted += 1  # the digest comparison itself
    return attempted, failed, problems, (digests[0] if digests else {})


def measure_plain(wl, work: Path, seed: int, seconds: float):
    """Set-up times, peak allocation, section wall times and checks.

    The machine's speed drifts, so set-up is repeated before every timed
    repeat instead of all at once, and its samples cover the run.  The timed
    repeats are cut into pieces at the layer boundaries and interleaved with
    probes (see ``tracing.PieceClock``), which the returned clock holds.
    """
    setup_times = []

    def setup():
        dt, inputs = timed(wl.setup, work, seed)
        setup_times.append(dt)
        return inputs

    inputs = setup()
    # Untimed pass under tracemalloc; it also warms caches for the timed loop.
    tracemalloc.start()
    tracemalloc.reset_peak()
    baseline = tracemalloc.get_traced_memory()[0]
    _, _, first_outcome = run_section(wl, inputs, work / "out-alloc", seed)
    peak = tracemalloc.get_traced_memory()[1] - baseline
    tracemalloc.stop()

    walls, outcomes = [], [first_outcome]
    clock = tracing.PieceClock(wl.probe(inputs), wl.probe_every)
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        for _ in range(wl.setup_reps):
            inputs = setup()
        clock.install()
        try:
            dt, _, outcome = run_section(wl, inputs, work / f"out-{len(walls)}",
                                         seed, clock.call, clock.timed)
        finally:
            clock.uninstall()
        walls.append(dt)
        outcomes.append(outcome)
    return setup_times, peak, walls, clock, outcomes


def measure_traced(wl, work: Path, seed: int, seconds: float, tracer):
    """Per-layer metrics from traced repeats, and their overhead."""
    setup_spans = []
    for rep in range(wl.setup_reps):
        tracer.reset(f"setup-{rep}")
        inputs = wl.setup(work, seed, tracer.call)
        setup_spans.append(tracer.run_spans(f"setup-{rep}"))
    _, _, first_outcome = run_section(wl, inputs, work / "out-warm", seed)
    outcomes = [first_outcome]

    def traced(rep):
        tracer.reset(f"rep-{rep}")
        tracer.install()
        try:
            return run_section(wl, inputs, work / f"traced-{rep}", seed, tracer.call)
        finally:
            tracer.uninstall()

    # Untraced and traced repeats come in pairs whose order alternates, so
    # drift in the machine's speed reaches both sides of trace.overhead_pct
    # alike.
    per_rep, plain_walls, traced_walls = [], [], []
    deadline = time.perf_counter() + seconds
    while not per_rep or time.perf_counter() < deadline:
        rep = len(per_rep)
        if rep % 2:
            dt, _, traced_outcome = traced(rep)
        plain_dt, _, outcome = run_section(wl, inputs, work / f"out-{rep}", seed)
        if not rep % 2:
            dt, _, traced_outcome = traced(rep)
        outcomes += [outcome, traced_outcome]
        plain_walls.append(plain_dt)
        traced_walls.append(dt)
        metrics = layer_metrics(tracer, f"rep-{rep}", traced_outcome)
        metrics["solver.xw_us"] = xw_time_us(inputs[0])
        metrics["solver.passes_per_iter"] = (metrics["solver.iter_us"]
                                             / metrics["solver.xw_us"])
        per_rep.append(metrics)

    # median_low keeps counts whole and reports a value that was measured.
    metrics = {name: statistics.median_low(rep[name] for rep in per_rep)
               for name in per_rep[0]}
    metrics["data.load_s"] = statistics.median(
        tracing.total_time(spans, "data.load") for spans in setup_spans)
    metrics["data.preprocess_s"] = statistics.median(
        tracing.total_time(spans, "data.preprocess") for spans in setup_spans)
    plain_median = statistics.median(plain_walls)
    metrics["trace.overhead_pct"] = (
        100.0 * (statistics.median(traced_walls) / plain_median - 1.0)
        if plain_median > 0 else 0.0)
    metrics["trace.hooks_missing"] = len(tracer.missing)
    return metrics, outcomes


def layer_metrics(tracer, run_id: str, outcome: Outcome) -> dict:
    spans = tracer.run_spans(run_id)
    fits = tracer.fits
    selfs = tracing.self_time_by_layer(spans)
    calls = tracing.count(spans, "linalg.project_rank")
    p50, p95 = (np.percentile(fits.durations, [50, 95]) if fits.durations
                else (0.0, 0.0))
    metrics = {
        "solver.fits": tracing.count(spans, "solver.fit"),
        "solver.iterations": fits.iterations,
        "solver.halvings": fits.halvings,
        "solver.status.converged": fits.status["converged"],
        "solver.status.max_iter": fits.status["max_iter"],
        "solver.status.failed": fits.status["failed"],
        "solver.iter_us": (1e6 * selfs["solver"] / fits.iterations
                           if fits.iterations else 0.0),
        "solver.fit_s.p50": float(p50),
        "solver.fit_s.p95": float(p95),
        "solver.fit_s.n": len(fits.durations),
        "solver.w_accept_ratio": fits.iterations / calls if calls else 0.0,
        "linalg.project_rank_calls": calls,
        "linalg.project_rank_s": tracing.total_time(spans, "linalg.project_rank"),
        "experiments.grid_search_s": tracing.total_time(spans, "experiments.grid_search"),
        "experiments.grid_search_cv_s": tracing.total_time(
            spans, "experiments.grid_search_cv"),
        "experiments.evaluate_s": tracing.total_time(spans, "experiments.evaluate"),
        "experiments.cells": outcome.cells,
        "experiments.cells_rejected": outcome.cells_rejected,
        "data.subset_calls": tracing.count(spans, "data.subset"),
        "data.subset_s": tracing.total_time(spans, "data.subset"),
        "model.predict_batch_calls": tracing.count(spans, "model.predict_batch"),
        "model.predict_batch_s": tracing.total_time(spans, "model.predict_batch"),
    }
    for layer, value in selfs.items():
        metrics[f"{layer}.self_s"] = value
    return metrics


def xw_time_us(train) -> float:
    """Median time of one X @ w over the training design: one data pass."""
    x = train.xs.reshape(train.m, -1)
    w = np.full(x.shape[1], 1.0 / x.shape[1])
    samples = []
    deadline = time.perf_counter() + 0.3
    while len(samples) < 15 or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        x @ w
        samples.append(time.perf_counter() - t0)
    return 1e6 * statistics.median(samples)


PER_LAYER_UNITS = {
    "solver.fits": "count", "solver.iterations": "count",
    "solver.halvings": "count", "solver.status.converged": "count",
    "solver.status.max_iter": "count", "solver.status.failed": "count",
    "solver.iter_us": "us", "solver.xw_us": "us", "solver.passes_per_iter": "ratio",
    "solver.fit_s.p50": "s", "solver.fit_s.p95": "s", "solver.fit_s.n": "count",
    "solver.w_accept_ratio": "ratio", "solver.self_s": "s",
    "linalg.project_rank_calls": "count", "linalg.project_rank_s": "s",
    "linalg.self_s": "s",
    "experiments.grid_search_s": "s", "experiments.grid_search_cv_s": "s",
    "experiments.evaluate_s": "s",
    "experiments.self_s": "s", "experiments.cells": "count",
    "experiments.cells_rejected": "count",
    "data.load_s": "s", "data.preprocess_s": "s",
    "data.subset_calls": "count", "data.subset_s": "s",
    "data.self_s": "s",
    "model.predict_batch_calls": "count", "model.predict_batch_s": "s",
    "model.self_s": "s",
    "trace.overhead_pct": "%", "trace.hooks_missing": "count",
}


def run(args, root: Path, nproc: int) -> int:
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.seconds <= 0:
        print("bench: --seconds must be positive", file=sys.stderr)
        return 2
    info = machine(root, nproc)
    out_dir = root / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tag = f"{wl.name}-seed{args.seed}-trace{args.trace}"
    work = root / ".bench_work" / f"{tag}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        wl.generate(args.seed, work)
        if args.trace:
            tracer = tracing.Tracer()
            try:
                layer, outcomes = measure_traced(wl, work, args.seed,
                                                       args.seconds, tracer)
            finally:
                tracer.write(out_dir / f"spans-{tag}.jsonl")
        else:
            setup_times, peak, walls, clock, outcomes = measure_plain(
                wl, work, args.seed, args.seconds)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work.parent.rmdir()
        except OSError:
            pass  # another run's inputs are still there

    attempted, failed, problems, digests = merge(outcomes)
    accuracy = statistics.median(o.accuracy_pct for o in outcomes)

    print(f"bench {wl.name} seed={args.seed} trace={args.trace} "
          f"nproc={info['nproc']} blas_threads={info['blas_threads']} "
          f"{info['blas']} numpy {info['numpy']} python {info['python']}")
    print(f"  cpu: {info['cpu']}; commit: {info['commit']}")
    for name, digest in sorted(digests.items()):
        print(f"  sha256 {name}: {digest}")
    if args.trace:
        metrics = {name: {"value": layer[name], "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
        if tracer.missing:
            print(f"  hooks missing: {', '.join(tracer.missing)}")
        print("  per-layer self time (median traced repeat):")
        for name in tracing.LAYERS:
            print(f"    {name:<12} {layer[f'{name}.self_s']:.4f} s")
        for name, entry in metrics.items():
            print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    else:
        # The fastest, not the median: the work is fixed, and the host only
        # ever slows it, switching speed many times a second.  wall_s takes
        # the fastest repeat of each piece of the section, so one fast moment
        # per piece is enough, not one per whole repeat.  The host can also
        # stay loaded for minutes, longer than a run; wall_norm divides by
        # the probes run among the same pieces, which slow down with them.
        attempted += 1
        fastest = clock.fastest()
        if fastest is None:
            failed += 1
            problems.append("no timed repeats that made the same calls")
            fastest = (min(walls), 1.0)
        wall, probe_s = fastest
        metrics = {
            "setup_s": {"value": min(setup_times), "unit": "s"},
            "wall_norm": {"value": wall / probe_s, "unit": "probe"},
            "peak_alloc_mb": {"value": peak / 2**20, "unit": "MB"},
            "accuracy_pct": {"value": accuracy, "unit": "%"},
        }
        print(f"  setup_s       = {metrics['setup_s']['value']:.4f} s "
              f"(fastest of {len(setup_times)}; median "
              f"{statistics.median(setup_times):.4f})")
        if clock.missing:
            print(f"  hooks missing: {', '.join(clock.missing)}")
        print(f"  wall_s        = {wall:.4f} s (fastest of {len(walls)} repeats "
              f"for each of {clock.repeats[-1].size if clock.repeats else 0} "
              f"pieces; whole repeats: fastest {min(walls):.4f}, median "
              f"{statistics.median(walls):.4f}, max {max(walls):.4f})")
        print(f"  probe         = {1e6 * probe_s:.2f} us (mean of "
              f"{clock.probe_repeats[-1].size} places, fastest repeat of each)")
        print(f"  wall_norm     = {wall / probe_s:.1f} probe")
        print(f"  peak_alloc_mb = {metrics['peak_alloc_mb']['value']:.4f} MB")
        print(f"  accuracy_pct  = {accuracy:.4f} %")
    print(f"  error_rate    = {failed / attempted:.4g} ratio "
          f"({failed} failed of {attempted} attempted)")
    for problem in problems[:20]:
        print(f"  FAILED: {problem}")

    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, workload=wl.name, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, machine=info, digests=digests,
                  problems=problems)
    if not args.trace:
        record.update(setup_times=setup_times, walls=walls,
                      wall_s=wall, probe_s=probe_s)
    (out_dir / f"result-{tag}.json").write_text(json.dumps(record, indent=2) + "\n")
    print(json.dumps(result))
    return 0
