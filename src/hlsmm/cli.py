"""Command-line front end.

Subcommands: train, predict, eval, sweep, noise-bench, sensitivity,
kkt-check, export-weights.  Exit codes: 0 success, 2 usage error, 3 data
error (an unreadable or unwritable file included), 4 numerical failure.
``HLSMM_SEED`` provides the fallback seed when ``--seed`` is not given.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

import numpy as np

from . import data as datamod
from . import experiments as exp
from .errors import DataError, InvalidArgumentError, NumericalError
from .kkt import completed_kkt_report
from .model import (_COUNT, Dataset, Hyperparams, ModelState, StepPolicy, _checked,
                    predict_batch)
from .modelfile import load_model, save_model
from .solver import fit

_EXIT_USAGE = 2
_EXIT_DATA = 3
_EXIT_NUMERIC = 4


def _seed(args) -> int:
    """The split, fold and provenance seed: ``--seed``, else HLSMM_SEED, else 0."""
    seed = args.seed
    if seed is None:
        text = os.environ.get("HLSMM_SEED", "0")
        try:
            seed = int(text)
        except ValueError:
            raise InvalidArgumentError(
                f"HLSMM_SEED must be an integer, got {text!r}") from None
    return _checked("seed", seed, _COUNT)


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    # The data flags default to None, so that a given one is told apart from
    # an absent one; DatasetManifest owns the defaults.
    parser.add_argument("--data", help="dataset file path (or use --manifest)")
    parser.add_argument("--format", choices=("csv", "smm1"),
                        help="dataset file format (default csv)")
    parser.add_argument("--label-column", type=int,
                        help="label column index for csv (default 0)")
    parser.add_argument("--has-header", action="store_true", default=None,
                        help="skip the first csv line")
    parser.add_argument("--reshape", type=int, nargs=2, metavar=("P", "Q"),
                        help="reshape vector rows into PxQ matrices (row-major)")
    parser.add_argument("--normalize", choices=("none", "per-sample"),
                        help="per-sample zero-mean/unit-variance (default none)")
    parser.add_argument("--manifest",
                        help="JSON manifest describing the dataset, instead of "
                             "the other data flags")


def _add_hyper_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--beta", type=float, default=0.1, help="0/1-loss weight")
    parser.add_argument("--sigma", type=float, default=0.01, help="penalty weight")
    parser.add_argument("--rank", type=int, default=4, help="rank bound r")
    parser.add_argument("--tau1", type=float, default=1e-3)
    parser.add_argument("--tau2", type=float, default=1e-3)
    parser.add_argument("--tau3", type=float, default=1e-3)
    parser.add_argument("--maxit", type=int, default=1000)
    parser.add_argument("--tol-step", type=float, default=1e-6)
    parser.add_argument("--tol-obj", type=float, default=1e-8)
    parser.add_argument("--seed", type=int, default=None,
                        help="seed (default: HLSMM_SEED or 0)")
    parser.add_argument("--z-update", choices=("exact", "paper"), default="exact",
                        help="slack update: exact minimizer or printed constants")
    parser.add_argument("--step", default="backtracking",
                        help="'backtracking[:ALPHA0]' or 'fixed[:ALPHA]'")


def _parse_step(text: str) -> StepPolicy:
    kind, _, alpha = text.partition(":")
    try:
        alpha0 = float(alpha) if alpha else None
    except ValueError:
        raise InvalidArgumentError(f"--step step size must be a number, got {alpha!r}") from None
    return StepPolicy(kind=kind, alpha0=alpha0)


def _hyperparams(args) -> Hyperparams:
    return Hyperparams(beta=args.beta, sigma=args.sigma, rank=args.rank,
                       tau1=args.tau1, tau2=args.tau2, tau3=args.tau3,
                       maxit=args.maxit, tol_step=args.tol_step,
                       tol_obj=args.tol_obj, step=_parse_step(args.step),
                       z_update=args.z_update)


def _load_dataset(args, for_training: bool = False) -> Dataset:
    flags = {"--data": args.data, "--format": args.format,
             "--label-column": args.label_column, "--has-header": args.has_header,
             "--reshape": args.reshape, "--normalize": args.normalize}
    given = [flag for flag, value in flags.items() if value is not None]
    if args.manifest:
        if given:
            raise InvalidArgumentError(
                f"--manifest describes the dataset; it cannot be combined with "
                f"{', '.join(given)}")
        manifest = datamod.DatasetManifest.from_file(args.manifest)
    elif args.data:
        fields = {"format": args.format, "label_column": args.label_column,
                  "has_header": args.has_header,
                  "reshape": tuple(args.reshape) if args.reshape else None,
                  "normalization": {"per-sample": "per_sample_zscore"}.get(
                      args.normalize, args.normalize)}
        manifest = datamod.DatasetManifest(
            path=args.data, **{name: value for name, value in fields.items()
                               if value is not None})
    else:
        raise InvalidArgumentError("one of --data or --manifest is required")
    ds = manifest.load()
    if for_training and not all(ds.labels_present()):
        raise DataError("training data must contain both labels")
    return ds


def _check_model_shape(model, ds: Dataset) -> None:
    if ds.sample_shape != model.sample_shape:
        raise DataError(
            f"model expects {model.sample_shape[0]}x{model.sample_shape[1]} samples, "
            f"dataset has {ds.p}x{ds.q}")


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_train(args) -> int:
    ds = _load_dataset(args, for_training=True)
    hp = _hyperparams(args)
    seed = _seed(args)
    result = fit(ds, hp)
    train_metrics = exp.evaluate(result.model, ds)
    if args.out:
        save_model(args.out, result.model.w, result.model.b, hp,
                   dataset_name=ds.name, seed=seed)
    if args.trace:
        exp.export_convergence_trace(result.trace, args.trace)
    _print_json({
        "status": result.trace.status,
        "iterations": result.model.iter,
        "final_objective": result.trace.objective[-1],
        "train_accuracy": round(train_metrics.accuracy, 2),
        "rank_bound": hp.rank,
        "bias": result.model.b,
        "wall_time_s": round(result.wall_time, 4),
        "model": args.out or None,
        "trace": args.trace or None,
    })
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    ds = _load_dataset(args)
    _check_model_shape(model, ds)
    for label in predict_batch(model.w, model.b, ds):
        print(int(label))
    return 0


def _cmd_eval(args) -> int:
    model = load_model(args.model)
    ds = _load_dataset(args)
    _check_model_shape(model, ds)
    state = ModelState(w=model.w, b=model.b, z=np.zeros(ds.m))
    metrics = exp.evaluate(state, ds)
    _print_json({"tp": metrics.tp, "tn": metrics.tn, "fp": metrics.fp,
                 "fn": metrics.fn, "accuracy": round(metrics.accuracy, 2)})
    return 0


def _cmd_sweep(args) -> int:
    ds = _load_dataset(args, for_training=True)
    hp = _hyperparams(args)
    grid = exp.HyperparamGrid(
        beta=tuple(args.grid_beta), sigma=tuple(args.grid_sigma),
        rank=tuple(args.grid_rank), tau1=tuple(args.grid_tau),
        tau2=tuple(args.grid_tau), tau3=tuple(args.grid_tau))
    seed = _seed(args)
    train, test = datamod.split(ds, args.split_ratio, stratified=True, seed=seed)
    if args.tune_on_test:
        best, table = exp.grid_search(train, test, grid, hp)
        mode = "tune_on_test"
    else:
        best, table = exp.grid_search_cv(train, grid, hp,
                                         folds=args.cv_folds, seed=seed)
        mode = f"cv{args.cv_folds}"
    if args.out_csv:
        exp.write_sweep_csv(table, args.out_csv)
    summary: dict = {"validation_mode": mode, "configurations": len(table),
                     "failures": len(table) - len(table.successful())}
    if best is None:
        summary["best"] = None
    else:
        refit = fit(train, best)
        test_metrics = exp.evaluate(refit.model, test)
        summary["best"] = {"beta": best.beta, "sigma": best.sigma,
                           "rank": best.rank, "tau1": best.tau1,
                           "tau2": best.tau2, "tau3": best.tau3}
        summary["test_accuracy"] = round(test_metrics.accuracy, 2)
        if args.out_model:
            save_model(args.out_model, refit.model.w, refit.model.b, best,
                       dataset_name=ds.name, seed=seed)
    _print_json(summary)
    return 0


def _cmd_noise_bench(args) -> int:
    ds = _load_dataset(args, for_training=True)
    hp = _hyperparams(args)
    seed = _seed(args)
    train, test = datamod.split(ds, args.split_ratio, stratified=True, seed=seed)
    table, means = exp.noise_sweep(train, test, hp, args.kind,
                                   args.levels, args.noise_seeds)
    if args.out_csv:
        exp.write_sweep_csv(table, args.out_csv)
    _print_json({
        "kind": args.kind,
        "mean_accuracy_by_level": {f"{level:g}": round(mean, 2)
                                   for level, mean in means.items()},
    })
    return 0


def _cmd_sensitivity(args) -> int:
    ds = _load_dataset(args, for_training=True)
    hp = _hyperparams(args)
    seed = _seed(args)
    train, test = datamod.split(ds, args.split_ratio, stratified=True, seed=seed)
    surface = exp.sensitivity_grid(train, test, hp, args.r_values,
                                   args.beta_values)
    exp.write_sensitivity_csv(surface, args.r_values, args.beta_values,
                              args.out_csv)
    _print_json({"rows": len(args.r_values), "cols": len(args.beta_values),
                 "out": args.out_csv})
    return 0


def _cmd_kkt_check(args) -> int:
    model = load_model(args.model)
    ds = _load_dataset(args)
    _check_model_shape(model, ds)
    report = completed_kkt_report(model.w, model.b, ds, model.hyperparams,
                                  tol=args.zero_tol)
    if args.text:
        print(report.to_text())
    else:
        _print_json(report.to_dict())
    return 0


def _cmd_export_weights(args) -> int:
    model = load_model(args.model)
    exp.export_weight_heatmap(model.w, args.out_csv, args.out_pgm)
    _print_json({"csv": args.out_csv, "pgm": args.out_pgm})
    return 0


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlsmm",
        description=("Rank-constrained support matrix machine with the "
                     "Heaviside (0/1) loss"))
    sub = parser.add_subparsers(dest="command", required=True)
    formatter = argparse.ArgumentDefaultsHelpFormatter

    p_train = sub.add_parser("train", help="fit a model", formatter_class=formatter)
    p_train.set_defaults(func=_cmd_train)
    _add_data_args(p_train)
    _add_hyper_args(p_train)
    p_train.add_argument("--out", default=None, help="model file to write")
    p_train.add_argument("--trace", default=None, help="trace CSV to write")

    p_predict = sub.add_parser("predict", help="print one label per sample", formatter_class=formatter)
    p_predict.set_defaults(func=_cmd_predict)
    p_predict.add_argument("--model", required=True)
    _add_data_args(p_predict)

    p_eval = sub.add_parser("eval", help="confusion counts and accuracy", formatter_class=formatter)
    p_eval.set_defaults(func=_cmd_eval)
    p_eval.add_argument("--model", required=True)
    _add_data_args(p_eval)

    p_sweep = sub.add_parser("sweep", help="exhaustive hyperparameter search", formatter_class=formatter)
    p_sweep.set_defaults(func=_cmd_sweep)
    _add_data_args(p_sweep)
    _add_hyper_args(p_sweep)
    p_sweep.add_argument("--split-ratio", type=float, default=0.7)
    p_sweep.add_argument("--tune-on-test", action="store_true",
                         help="validate on the held-out split (table-reproduction mode)")
    p_sweep.add_argument("--cv-folds", type=int, default=3)
    p_sweep.add_argument("--grid-beta", type=_float_list, default=[0.01, 0.1, 0.5])
    p_sweep.add_argument("--grid-sigma", type=_float_list, default=[0.01, 0.1])
    p_sweep.add_argument("--grid-rank", type=_int_list, default=[4, 10])
    p_sweep.add_argument("--grid-tau", type=_float_list, default=[1e-4, 1e-3, 1e-2])
    p_sweep.add_argument("--out-csv", default=None)
    p_sweep.add_argument("--out-model", default=None)

    p_noise = sub.add_parser("noise-bench", help="noise robustness sweep", formatter_class=formatter)
    p_noise.set_defaults(func=_cmd_noise_bench)
    _add_data_args(p_noise)
    _add_hyper_args(p_noise)
    p_noise.add_argument("--split-ratio", type=float, default=0.7)
    p_noise.add_argument("--kind", choices=exp.NOISE_KINDS, default="gaussian")
    p_noise.add_argument("--levels", type=_float_list,
                         default=[0.0, 0.05, 0.10, 0.15, 0.20])
    p_noise.add_argument("--noise-seeds", type=_int_list, default=[1, 2, 3, 4, 5])
    p_noise.add_argument("--out-csv", default=None)

    p_sens = sub.add_parser("sensitivity", help="accuracy surface over (rank, beta)", formatter_class=formatter)
    p_sens.set_defaults(func=_cmd_sensitivity)
    _add_data_args(p_sens)
    _add_hyper_args(p_sens)
    p_sens.add_argument("--split-ratio", type=float, default=0.7)
    p_sens.add_argument("--r-values", type=_int_list, required=True)
    p_sens.add_argument("--beta-values", type=_float_list, required=True)
    p_sens.add_argument("--out-csv", required=True)

    p_kkt = sub.add_parser("kkt-check", help="stationarity residuals of a model", formatter_class=formatter)
    p_kkt.set_defaults(func=_cmd_kkt_check)
    p_kkt.add_argument("--model", required=True)
    _add_data_args(p_kkt)
    p_kkt.add_argument("--zero-tol", type=float, default=1e-9,
                       help="|z_i| below this counts as zero")
    p_kkt.add_argument("--text", action="store_true",
                       help="flat key-value block instead of JSON")

    p_export = sub.add_parser("export-weights",
                              help="coefficient matrix as CSV + PGM heatmap",
                              formatter_class=formatter)
    p_export.set_defaults(func=_cmd_export_weights)
    p_export.add_argument("--model", required=True)
    p_export.add_argument("--out-csv", required=True)
    p_export.add_argument("--out-pgm", required=True)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except InvalidArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    except OSError as exc:  # a file that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
