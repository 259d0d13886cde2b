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
import time

from . import data as datamod
from . import experiments as exp
from .errors import DataError, InvalidArgumentError, NumericalError
from .kkt import completed_kkt_report
from .model import _COUNT, Dataset, Hyperparams, StepPolicy, _checked, predict_batch
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


# The weight flags: type, default and help.  A command registers only those
# it reads; the others hold their defaults, placeholders its grid overwrites.
_WEIGHTS = {"beta": (float, 0.1, "0/1-loss weight"),
            "sigma": (float, 0.01, "penalty weight"),
            "rank": (int, 4, "rank bound r"),
            "tau1": (float, 1e-3, "proximal weight of the W block"),
            "tau2": (float, 1e-3, "proximal weight of the slack block"),
            "tau3": (float, 1e-3, "proximal weight of the bias block")}


def _add_hyper_args(parser: argparse.ArgumentParser, weights=tuple(_WEIGHTS)) -> None:
    for name in weights:
        kind, default, text = _WEIGHTS[name]
        parser.add_argument(f"--{name}", type=kind, default=default, help=text)
    parser.add_argument("--maxit", type=int, default=1000, help="iteration cap")
    parser.add_argument("--tol-step", type=float, default=1e-6, help="relative W step to stop at")
    parser.add_argument("--tol-obj", type=float, default=1e-8, help="objective change to stop at")
    parser.add_argument("--seed", type=int, default=None,
                        help="seed (default: HLSMM_SEED or 0)")
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
    weights = {name: getattr(args, name, default)
               for name, (_, default, _) in _WEIGHTS.items()}
    return Hyperparams(**weights, maxit=args.maxit, tol_step=args.tol_step,
                       tol_obj=args.tol_obj, step=_parse_step(args.step))


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


def _model_and_data(args):
    """The model file and a dataset of its sample shape."""
    model = load_model(args.model)
    ds = _load_dataset(args)
    if ds.sample_shape != model.sample_shape:
        raise DataError(
            f"model expects {model.sample_shape[0]}x{model.sample_shape[1]} samples, "
            f"dataset has {ds.p}x{ds.q}")
    return model, ds


def _split_data(args, configure=_hyperparams):
    """(dataset, configuration, seed, train, test), raising errors in that order."""
    ds = _load_dataset(args, for_training=True)
    config = configure(args)
    seed = _seed(args)
    train, test = datamod.split(ds, args.split_ratio, stratified=True, seed=seed)
    return ds, config, seed, train, test


def _grid_config(args) -> tuple[Hyperparams, exp.HyperparamGrid]:
    """The base configuration and the grid that overwrites its weights."""
    hp, tau = _hyperparams(args), tuple(args.grid_tau)
    return hp, exp.HyperparamGrid(beta=tuple(args.grid_beta), sigma=tuple(args.grid_sigma),
                                  rank=tuple(args.grid_rank), tau1=tau, tau2=tau, tau3=tau)


def _print_json(obj) -> None:
    print(json.dumps(obj, indent=2, sort_keys=True))


def _cmd_train(args) -> None:
    ds = _load_dataset(args, for_training=True)
    hp = _hyperparams(args)
    seed = _seed(args)
    start = time.perf_counter()
    result = fit(ds, hp)
    wall_time = time.perf_counter() - start
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
        "wall_time_s": round(wall_time, 4),
        "model": args.out or None,
        "trace": args.trace or None,
    })


def _cmd_predict(args) -> None:
    model, ds = _model_and_data(args)
    for label in predict_batch(model.w, model.b, ds):
        print(int(label))


def _cmd_eval(args) -> None:
    model, ds = _model_and_data(args)
    metrics = exp.evaluate(model, ds)  # reads only the model's w and b
    _print_json({"tp": metrics.tp, "tn": metrics.tn, "fp": metrics.fp,
                 "fn": metrics.fn, "accuracy": round(metrics.accuracy, 2)})


def _cmd_sweep(args) -> None:
    if args.tune_on_test and args.cv_folds is not None:
        raise InvalidArgumentError(
            "--cv-folds applies only to cross-validation, which --tune-on-test replaces")
    ds, (hp, grid), seed, train, test = _split_data(args, _grid_config)
    if args.tune_on_test:
        best, table = exp.grid_search(train, test, grid, hp)
        mode = "tune_on_test"
    else:
        folds = 3 if args.cv_folds is None else args.cv_folds
        best, table = exp.grid_search_cv(train, grid, hp, folds=folds, seed=seed)
        mode = f"cv{folds}"
    if args.out_csv:
        exp.write_sweep_csv(table, args.out_csv)
    summary: dict = {"validation_mode": mode, "configurations": len(table),
                     "failures": len(table) - len(table.successful()), "best": None}
    if best is not None:
        refit = fit(train, best)
        test_metrics = exp.evaluate(refit.model, test)
        summary["best"] = {name: getattr(best, name) for name in _WEIGHTS}
        summary["test_accuracy"] = round(test_metrics.accuracy, 2)
        if args.out_model:
            save_model(args.out_model, refit.model.w, refit.model.b, best,
                       dataset_name=ds.name, seed=seed)
    _print_json(summary)


def _level_key(level: float) -> str:
    """A noise level as ``:g`` prints it where that reads back as the level,
    else its shortest exact text, so that distinct levels get distinct keys."""
    text = f"{level:g}"
    return text if float(text) == level else repr(level)


def _cmd_noise_bench(args) -> None:
    _, hp, _, train, test = _split_data(args)
    table, means = exp.noise_sweep(train, test, hp, args.kind,
                                   args.levels, args.noise_seeds)
    if args.out_csv:
        exp.write_sweep_csv(table, args.out_csv)
    _print_json({
        "kind": args.kind,
        "mean_accuracy_by_level": {_level_key(level): round(mean, 2)
                                   for level, mean in means.items()},
    })


def _cmd_sensitivity(args) -> None:
    _, hp, _, train, test = _split_data(args)
    surface = exp.sensitivity_grid(train, test, hp, args.r_values,
                                   args.beta_values)
    exp.write_sensitivity_csv(surface, args.r_values, args.beta_values,
                              args.out_csv)
    _print_json({"rows": len(args.r_values), "cols": len(args.beta_values),
                 "out": args.out_csv})


def _cmd_kkt_check(args) -> None:
    model, ds = _model_and_data(args)
    report = completed_kkt_report(model.w, model.b, ds, model.hyperparams,
                                  tol=args.zero_tol)
    if args.text:
        print(report.to_text())
    else:
        _print_json(report.to_dict())


def _cmd_export_weights(args) -> None:
    model = load_model(args.model)
    exp.export_weight_heatmap(model.w, args.out_csv, args.out_pgm)
    _print_json({"csv": args.out_csv, "pgm": args.out_pgm})


def _add_model_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--model", required=True)
    _add_data_args(parser)


def _add_split_args(parser: argparse.ArgumentParser, weights=tuple(_WEIGHTS)) -> None:
    _add_data_args(parser)
    _add_hyper_args(parser, weights)
    parser.add_argument("--split-ratio", type=float, default=0.7, help="training fraction")


def _float_list(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part]


def _int_list(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part]


class _HelpFormatter(argparse.ArgumentDefaultsHelpFormatter):
    # A None default only marks an absent flag; its help says what applies.
    def _get_help_string(self, action):
        return action.help if action.default is None else super()._get_help_string(action)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hlsmm",
        description=("Rank-constrained support matrix machine with the "
                     "Heaviside (0/1) loss"))
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name: str, func, text: str) -> argparse.ArgumentParser:
        # No abbreviations: sensitivity would take --beta for --beta-values.
        p = sub.add_parser(name, help=text, formatter_class=_HelpFormatter, allow_abbrev=False)
        p.set_defaults(func=func)
        return p

    p_train = command("train", _cmd_train, "fit a model")
    _add_data_args(p_train)
    _add_hyper_args(p_train)
    p_train.add_argument("--out", default=None, help="model file to write")
    p_train.add_argument("--trace", default=None, help="trace CSV to write")

    _add_model_args(command("predict", _cmd_predict, "print one label per sample"))
    _add_model_args(command("eval", _cmd_eval, "confusion counts and accuracy"))

    p_sweep = command("sweep", _cmd_sweep, "exhaustive hyperparameter search")
    _add_split_args(p_sweep, weights=())  # the --grid-* flags set every weight
    p_sweep.add_argument("--tune-on-test", action="store_true",
                         help="validate on the held-out split (table-reproduction mode)")
    p_sweep.add_argument("--cv-folds", type=int, default=None,
                         help="folds of the cross-validation (default 3)")
    p_sweep.add_argument("--grid-beta", type=_float_list, help="beta grid",
                         default=[0.01, 0.1, 0.5])
    p_sweep.add_argument("--grid-sigma", type=_float_list, default=[0.01, 0.1], help="sigma grid")
    p_sweep.add_argument("--grid-rank", type=_int_list, default=[4, 10], help="rank grid")
    p_sweep.add_argument("--grid-tau", type=_float_list, help="tau1, tau2 and tau3 grid",
                         default=[1e-4, 1e-3, 1e-2])
    p_sweep.add_argument("--out-csv", default=None)
    p_sweep.add_argument("--out-model", default=None)

    p_noise = command("noise-bench", _cmd_noise_bench, "noise robustness sweep")
    _add_split_args(p_noise)
    p_noise.add_argument("--kind", choices=exp.NOISE_KINDS, default="gaussian",
                         help="noise kind")
    p_noise.add_argument("--levels", type=_float_list, help="noise levels",
                         default=[0.0, 0.05, 0.10, 0.15, 0.20])
    p_noise.add_argument("--noise-seeds", type=_int_list, default=[1, 2, 3, 4, 5], help="seeds")
    p_noise.add_argument("--out-csv", default=None)

    p_sens = command("sensitivity", _cmd_sensitivity, "accuracy surface over (rank, beta)")
    # --r-values and --beta-values set the rank and beta of every cell.
    _add_split_args(p_sens, weights=("sigma", "tau1", "tau2", "tau3"))
    p_sens.add_argument("--r-values", type=_int_list, required=True)
    p_sens.add_argument("--beta-values", type=_float_list, required=True)
    p_sens.add_argument("--out-csv", required=True)

    p_kkt = command("kkt-check", _cmd_kkt_check, "stationarity residuals of a model")
    _add_model_args(p_kkt)
    p_kkt.add_argument("--zero-tol", type=float, default=1e-9,
                       help="|z_i| below this counts as zero")
    p_kkt.add_argument("--text", action="store_true",
                       help="flat key-value block instead of JSON")

    p_export = command("export-weights", _cmd_export_weights,
                       "coefficient matrix as CSV + PGM heatmap")
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
        args.func(args)
    except (DataError, OSError) as exc:  # OSError: a file that cannot be read or written
        print(f"data error: {exc}", file=sys.stderr)
        return _EXIT_DATA
    except InvalidArgumentError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return _EXIT_USAGE
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return _EXIT_NUMERIC
    return 0


if __name__ == "__main__":
    sys.exit(main())
