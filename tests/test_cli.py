import contextlib
import dataclasses
import io
import json
import os
import re
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hlsmm import (Hyperparams, KktReport, experiments, load_model, make_lowrank_separable,
                   model, save_model, save_smm1, solver, split)
from hlsmm.cli import build_parser, main

from conftest import calls_to, random_dataset

README = Path(__file__).parent.parent / "README.md"
# The keys of kkt-check's JSON; --text prints all but "lambda".
REPORT_KEYS = {"w_residual", "z_residual", "b_residual", "feasibility_residual",
               "rank_at_solution", "rank_bound", "rank_deficient", "lambda"}


@pytest.fixture(scope="module")
def smm1_file(tmp_path_factory):
    data, _, _ = make_lowrank_separable(m=120, seed=201)
    path = tmp_path_factory.mktemp("data") / "synthetic.smm1"
    save_smm1(data, path)
    return path, data


@pytest.fixture(scope="module")
def trained(tmp_path_factory, smm1_file):
    path, data = smm1_file
    out_dir = tmp_path_factory.mktemp("model")
    model_path = out_dir / "model.json"
    trace_path = out_dir / "trace.csv"
    code = main(["train", "--data", str(path), "--format", "smm1",
                 "--beta", "0.1", "--sigma", "0.1", "--rank", "2",
                 "--out", str(model_path), "--trace", str(trace_path)])
    assert code == 0
    return model_path, trace_path, path, data


class TestExitCodes:
    def test_missing_data_flag_is_usage_error(self, capsys):
        assert main(["train"]) == 2
        capsys.readouterr()

    def test_unknown_subcommand_is_usage_error(self, capsys):
        assert main(["frobnicate"]) == 2
        capsys.readouterr()

    def test_nonexistent_file_is_data_error(self, capsys):
        code = main(["train", "--data", "/nonexistent.csv",
                     "--rank", "1"])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_non_finite_csv_cell_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "nan.csv"
        path.write_text("1,0.5,0.25\n-1,nan,2.0\n")
        code = main(["train", "--data", str(path), "--rank", "1"])
        assert code == 3
        assert "line 2" in capsys.readouterr().err

    def test_normalization_that_overflows_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "huge.csv"
        path.write_text("1,1,2,4,8\n-1,1e308,-1e308,1,2\n1,0,3,1,5\n")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code = main(["train", "--data", str(path), "--reshape", "2", "2",
                         "--normalize", "per-sample", "--rank", "1"])
        assert [str(w.message) for w in caught] == []
        assert code == 3
        assert capsys.readouterr().err == (
            f"data error: {path}: sample 1 cannot be normalized: its mean or std overflows\n")

    def test_label_only_csv_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "labels.csv"
        path.write_text("1\n-1\n")
        assert main(["train", "--data", str(path), "--rank", "1"]) == 3
        assert "no feature columns" in capsys.readouterr().err

    def test_non_positive_reshape_is_usage_error(self, tmp_path, capsys):
        path = tmp_path / "two.csv"
        path.write_text("1,2,3\n-1,4,5\n")
        code = main(["train", "--data", str(path), "--reshape", "-1", "-2",
                     "--rank", "1"])
        assert code == 2
        assert "reshape" in capsys.readouterr().err

    def test_missing_manifest_is_data_error(self, tmp_path, capsys):
        code = main(["train", "--manifest", str(tmp_path / "absent.json"),
                     "--rank", "1"])
        assert code == 3
        assert "data error" in capsys.readouterr().err

    def test_manifest_without_path_is_data_error(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "csv"}))
        code = main(["train", "--manifest", str(manifest), "--rank", "1"])
        assert code == 3
        assert "path" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["split", "shape", "lable_column"])
    def test_manifest_unknown_key_is_data_error(self, smm1_file, tmp_path,
                                                capsys, key):
        path, _ = smm1_file
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "smm1", "path": str(path),
                                        key: {"ratio": 0.5}}))
        code = main(["train", "--manifest", str(manifest), "--rank", "2"])
        assert code == 3
        assert repr(key) in capsys.readouterr().err

    @pytest.mark.parametrize("key,value", [
        ("label_column", "abc"), ("reshape", [3]), ("format", "parquet"),
        ("normalization", "l2"),
    ])
    def test_manifest_ill_typed_value_is_data_error(self, smm1_file, tmp_path,
                                                    capsys, key, value):
        path, _ = smm1_file
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"path": str(path), key: value}))
        code = main(["train", "--manifest", str(manifest), "--rank", "2"])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err and key in err

    @pytest.mark.parametrize("fields", [{"label_column": 5}, {"has_header": True},
                                        {"label_column": 5, "has_header": True}])
    def test_manifest_csv_field_with_smm1_is_data_error(self, smm1_file, trained,
                                                        tmp_path, capsys, fields):
        path, _ = smm1_file
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"path": str(path), "format": "smm1", **fields}))
        code = main(["eval", "--model", str(trained[0]), "--manifest", str(manifest)])
        assert code == 3
        assert "smm1 data takes no" in capsys.readouterr().err

    @pytest.mark.parametrize("flags", [["--label-column", "7"], ["--has-header"],
                                       ["--label-column", "0", "--has-header"]])
    def test_csv_flag_with_smm1_is_usage_error(self, smm1_file, trained, capsys, flags):
        path, _ = smm1_file
        code = main(["eval", "--model", str(trained[0]), "--data", str(path),
                     "--format", "smm1", *flags])
        assert code == 2
        assert "smm1 data takes no" in capsys.readouterr().err

    def test_csv_flags_keep_their_defaults(self, tmp_path, capsys):
        # Without --label-column and --has-header a csv file is read from
        # column 0 with no header line, by flag and by manifest alike.
        path = tmp_path / "d.csv"
        path.write_text("1,0,0,0,0,0,1\n-1,1,1,1,1,1,0\n")
        model = tmp_path / "model.json"
        save_model(model, np.eye(2, 3), 0.5, Hyperparams(beta=0.1, sigma=0.2, rank=1))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"path": str(path), "reshape": [2, 3]}))
        by_flags = main(["eval", "--model", str(model), "--data", str(path),
                         "--reshape", "2", "3"])
        flag_out = capsys.readouterr().out
        by_manifest = main(["eval", "--model", str(model), "--manifest", str(manifest)])
        assert by_flags == by_manifest == 0
        assert capsys.readouterr().out == flag_out
        assert json.loads(flag_out) == {"tp": 1, "tn": 0, "fp": 1, "fn": 0,
                                        "accuracy": 50.0}

    def test_removed_jobs_flag_is_usage_error(self, smm1_file, capsys):
        path, _ = smm1_file
        code = main(["sweep", "--data", str(path), "--format", "smm1",
                     "--grid-beta", "0.1", "--grid-sigma", "0.1",
                     "--grid-rank", "2", "--grid-tau", "1e-3", "--maxit", "1",
                     "--jobs", "1"])
        assert code == 2
        assert "--jobs" in capsys.readouterr().err

    def test_bad_hyperparameter_is_usage_error(self, smm1_file, capsys):
        path, _ = smm1_file
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--beta", "-1.0", "--rank", "2"])
        assert code == 2
        assert "usage error" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, message", [
        (["--step", "fixed:abc"], "step size must be a number"),
        (["--beta", "inf"], "beta must be positive and finite"),
        (["--tau1", "inf"], "tau1 must be positive and finite"),
        (["--sigma", "nan"], "sigma must be positive and finite"),
        (["--step", "backtracking:inf"], "alpha0 must be positive and finite"),
        (["--seed", "-1"], "seed must be non-negative")])
    def test_bad_number_is_usage_error(self, smm1_file, capsys, flags, message):
        path, _ = smm1_file
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--rank", "2", "--maxit", "1", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    def test_bad_seed_variable_is_usage_error(self, smm1_file, capsys, monkeypatch):
        path, _ = smm1_file
        monkeypatch.setenv("HLSMM_SEED", "abc")
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--rank", "2", "--maxit", "1"])
        assert code == 2
        assert "HLSMM_SEED must be an integer" in capsys.readouterr().err

    def test_negative_seed_variable_is_usage_error(self, smm1_file, capsys, monkeypatch):
        path, _ = smm1_file
        monkeypatch.setenv("HLSMM_SEED", "-1")
        code = main(["sweep", "--data", str(path), "--format", "smm1",
                     "--grid-rank", "2", "--maxit", "1"])
        assert code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_negative_noise_seed_is_usage_error(self, smm1_file, capsys):
        path, _ = smm1_file
        code = main(["noise-bench", "--data", str(path), "--format", "smm1",
                     "--rank", "2", "--maxit", "1", "--levels", "0",
                     "--noise-seeds", "-1"])
        assert code == 2
        assert "seeds must be non-negative" in capsys.readouterr().err

    @pytest.mark.parametrize("levels, named", [
        ("nan", "nan"), ("0.1,inf", "inf"), ("1e400", "inf"), ("-1", "-1.0")])
    def test_bad_noise_level_is_usage_error_before_any_fit(self, smm1_file, capsys,
                                                           levels, named):
        path, _ = smm1_file
        with calls_to(experiments, "fit") as fits:
            code = main(["noise-bench", "--data", str(path), "--format", "smm1",
                         "--rank", "2", "--maxit", "1", "--levels", levels])
        assert code == 2
        assert not fits
        assert (f"usage error: noise level {named} must be non-negative and finite"
                in capsys.readouterr().err)

    @pytest.mark.parametrize("levels, named", [
        ("0.1,1e308", "1e+308"), ("1e308,1.5e308", "1e+308"), ("1.5e308,1e308", "1.5e+308")])
    def test_overflowing_gaussian_level_is_refused_before_any_fit(self, smm1_file, capsys,
                                                                  levels, named):
        # The error names the first level, in the order given, that overflows.
        path, _ = smm1_file
        with calls_to(experiments, "fit") as fits:
            code = main(["noise-bench", "--data", str(path), "--format", "smm1",
                         "--rank", "2", "--maxit", "50", "--kind", "gaussian",
                         "--levels", levels, "--noise-seeds", "1,2"])
        assert code == 2
        assert not fits
        assert capsys.readouterr().err.splitlines() == [
            f"usage error: noise level {named} overflows: the noisy features are not finite"]

    @pytest.mark.parametrize("argv, code, message", [
        (["train", "--rank", "2", "--beta", "1e308", "--sigma", "1e308"], 4,
         "numerical failure: non-finite gradient in W block (iteration 1)"),
        (["noise-bench", "--rank", "2", "--maxit", "2", "--kind", "gaussian",
          "--levels", "1e308"], 2,
         "usage error: noise level 1e+308 overflows: the noisy features are not finite"),
    ], ids=["objective", "gaussian-noise"])
    def test_overflow_is_one_stderr_line(self, smm1_file, capsys, argv, code, message):
        # A numpy RuntimeWarning would print its own lines before the error.
        path, _ = smm1_file
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--data", str(path), "--format", "smm1"]) == code
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err.splitlines() == [message]

    @pytest.mark.parametrize("argv, flag", [
        (["train", "--rank", "2"], "--out"),
        (["train", "--rank", "2"], "--trace"),
        (["sweep", "--grid-beta", "0.1", "--grid-sigma", "0.1", "--grid-rank", "2",
          "--grid-tau", "1e-3"], "--out-csv"),
        (["sweep", "--grid-beta", "0.1", "--grid-sigma", "0.1", "--grid-rank", "2",
          "--grid-tau", "1e-3"], "--out-model"),
        (["noise-bench", "--rank", "2", "--levels", "0", "--noise-seeds", "1"],
         "--out-csv"),
        (["sensitivity", "--r-values", "2", "--beta-values", "0.1"], "--out-csv"),
    ])
    def test_unwritable_output_is_data_error(self, smm1_file, tmp_path, capsys,
                                             argv, flag):
        path, _ = smm1_file
        missing = tmp_path / "missing" / "out"
        code = main([*argv, "--data", str(path), "--format", "smm1", "--maxit", "3",
                     flag, str(missing)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: ") and str(missing) in err
        assert len(err.splitlines()) == 1

    @pytest.mark.parametrize("flag", ["--out-csv", "--out-pgm"])
    def test_unwritable_weight_export_is_data_error(self, trained, tmp_path, capsys,
                                                    flag):
        argv = ["export-weights", "--model", str(trained[0])]
        for name, file in {"--out-csv": "w.csv", "--out-pgm": "w.pgm",
                           flag: "missing/w"}.items():
            argv += [name, str(tmp_path / file)]
        assert main(argv) == 3
        assert str(tmp_path / "missing" / "w") in capsys.readouterr().err

    @pytest.mark.parametrize("content", [b"1,\xff2\n0,3\n",
                                         b"1,2\n0,3\n1," + b"x" * 131073 + b"\n"],
                             ids=["undecodable", "overlong-field"])
    def test_unreadable_csv_is_one_line_data_error(self, tmp_path, capsys, content):
        path = tmp_path / "f.csv"
        path.write_bytes(content)
        assert main(["train", "--data", str(path)]) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"data error: {path}") and len(err.splitlines()) == 1

    def test_training_data_of_one_label_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "positive.csv"
        path.write_text("1,2,3\n1,4,5\n")
        assert main(["train", "--data", str(path), "--rank", "1"]) == 3
        assert capsys.readouterr().err.splitlines() == [
            "data error: training data must contain both labels"]

    def test_shape_mismatch_is_data_error(self, trained, tmp_path, capsys):
        model_path, _, _, _ = trained
        other, _, _ = make_lowrank_separable(m=10, p=3, q=4, rank=2, seed=7)
        other_path = tmp_path / "other.smm1"
        save_smm1(other, other_path)
        code = main(["eval", "--model", str(model_path),
                     "--data", str(other_path), "--format", "smm1"])
        assert code == 3
        assert "expects" in capsys.readouterr().err


class TestTrain:
    def test_model_file_written_and_digest_verifies(self, trained, capsys):
        model_path, trace_path, _, _ = trained
        loaded = load_model(model_path)  # digest check happens on load
        assert loaded.sample_shape == (8, 6)
        assert trace_path.exists()

    def test_summary_json_on_stdout(self, smm1_file, capsys):
        path, _ = smm1_file
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--beta", "0.1", "--sigma", "0.1", "--rank", "2"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["status"] == "converged"
        assert summary["train_accuracy"] == 100.0

    def test_maxit_zero_returns_initialization(self, smm1_file, tmp_path, capsys):
        path, data = smm1_file
        model_path = tmp_path / "init.json"
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--rank", "2", "--maxit", "0", "--out", str(model_path)])
        assert code == 0
        capsys.readouterr()
        loaded = load_model(model_path)
        np.testing.assert_array_equal(loaded.w, np.zeros((8, 6)))
        assert loaded.b == 0.0


class TestPredictEval:
    def test_predict_line_count(self, trained, capsys):
        model_path, _, data_path, data = trained
        assert main(["predict", "--model", str(model_path),
                     "--data", str(data_path), "--format", "smm1"]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert len(lines) == data.m
        assert set(lines) <= {"1", "-1"}

    def test_eval_on_training_set_is_perfect(self, trained, capsys):
        model_path, _, data_path, _ = trained
        assert main(["eval", "--model", str(model_path),
                     "--data", str(data_path), "--format", "smm1"]) == 0
        metrics = json.loads(capsys.readouterr().out)
        assert metrics["accuracy"] == 100.0
        assert metrics["fp"] == 0 and metrics["fn"] == 0

    def test_predictions_match_labels(self, trained, capsys):
        model_path, _, data_path, data = trained
        main(["predict", "--model", str(model_path),
              "--data", str(data_path), "--format", "smm1"])
        labels = [int(line) for line in capsys.readouterr().out.split()]
        np.testing.assert_array_equal(labels, data.ys)


class TestModelFile:
    def test_save_load_save_byte_identical(self, trained, tmp_path):
        model_path, _, _, _ = trained
        loaded = load_model(model_path)
        from hlsmm import save_model
        copy = tmp_path / "copy.json"
        save_model(copy, loaded.w, loaded.b, loaded.hyperparams,
                   dataset_name=loaded.dataset_name, seed=loaded.seed)
        assert copy.read_bytes() == model_path.read_bytes()

    def test_corrupted_digest_rejected(self, trained, tmp_path, capsys):
        model_path, _, data_path, _ = trained
        doc = json.loads(model_path.read_text())
        doc["w_sha256"] = "0" * 64
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code = main(["eval", "--model", str(bad),
                     "--data", str(data_path), "--format", "smm1"])
        assert code == 3
        assert "digest" in capsys.readouterr().err


def test_train_reads_smm1_without_preadv(tmp_path, capsys, monkeypatch):
    # 1400 samples of 8x6: two blocks of the loader's finiteness test.
    data, _, _ = make_lowrank_separable(m=1400, seed=202)
    path = tmp_path / "two_blocks.smm1"
    save_smm1(data, path)
    monkeypatch.delattr(os, "preadv")
    assert main(["train", "--data", str(path), "--format", "smm1", "--beta", "0.1",
                 "--sigma", "0.1", "--rank", "2", "--maxit", "3"]) == 0
    assert json.loads(capsys.readouterr().out)["iterations"] <= 3


class TestKktCheck:
    def test_report_on_converged_fit(self, trained, capsys):
        model_path, _, data_path, _ = trained
        assert main(["kkt-check", "--model", str(model_path),
                     "--data", str(data_path), "--format", "smm1"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report) == REPORT_KEYS
        assert report["w_residual"] <= 1e-3
        assert report["z_residual"] <= 1e-3
        assert report["rank_at_solution"] <= 2

    def test_one_margin_pass(self, trained, capsys, monkeypatch):
        model_path, _, data_path, _ = trained
        calls = []
        margins = model._margins

        def counted(*args):
            calls.append(1)
            return margins(*args)

        monkeypatch.setattr(model, "_margins", counted)
        assert main(["kkt-check", "--model", str(model_path),
                     "--data", str(data_path), "--format", "smm1"]) == 0
        capsys.readouterr()
        assert len(calls) == 1

    @pytest.mark.parametrize("tol", ["nan", "inf", "-1"])
    def test_zero_tol_must_be_non_negative_and_finite(self, trained, capsys, tol):
        model_path, _, data_path, _ = trained
        assert main(["kkt-check", "--model", str(model_path), f"--zero-tol={tol}",
                     "--data", str(data_path), "--format", "smm1"]) == 2
        assert "tol must be non-negative and finite" in capsys.readouterr().err

    def test_text_mode(self, trained, capsys):
        model_path, _, data_path, _ = trained
        assert main(["kkt-check", "--model", str(model_path), "--text",
                     "--data", str(data_path), "--format", "smm1"]) == 0
        out = capsys.readouterr().out
        assert "w_residual = " in out
        assert {line.split(" = ")[0] for line in out.splitlines()} == REPORT_KEYS - {"lambda"}


    @pytest.mark.parametrize("text", [False, True], ids=["json", "text"])
    def test_overflowing_residual_exits_4(self, tmp_path, capsys, text):
        # Features zero off row 1 and W = 1e308 on row 0: every score is 0,
        # the completed slack equals the margins, and G = W has norm 2e308.
        data = random_dataset(76, m=6, p=3, q=4)
        xs = np.zeros_like(data.xs)
        xs[:, 1] = data.xs[:, 1]
        w = np.zeros((3, 4))
        w[0] = 1e308
        data_path, model_path = tmp_path / "d.smm1", tmp_path / "huge.json"
        save_smm1(dataclasses.replace(data, xs=xs), data_path)
        save_model(model_path, w, 0.0, Hyperparams(beta=0.1, sigma=1.0, rank=1))
        assert main(["kkt-check", "--model", str(model_path), *(["--text"] if text else []),
                     "--data", str(data_path), "--format", "smm1"]) == 4
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "numerical failure: non-finite w_residual\n"


    @pytest.mark.parametrize("sigma", [1e-300, 1.0, 1e300])
    @pytest.mark.parametrize("beta", [1e-300, 0.1, 1e300])
    @pytest.mark.parametrize("huge", [False, True], ids=["fitted", "1e200"])
    def test_extreme_model_file_exits_0_or_4(self, trained, tmp_path, huge, beta, sigma):
        # A model file may hold any finite positive beta and sigma, so
        # beta / (2 sigma) may underflow to 0 or overflow; kkt-check is then
        # no usage error.
        model_path, _, data_path, _ = trained
        fitted = load_model(model_path)
        w = np.full_like(fitted.w, 1e200) if huge else fitted.w
        path = tmp_path / "extreme.json"
        save_model(path, w, 0.0 if huge else fitted.b,
                   Hyperparams(beta=beta, sigma=sigma, rank=2))
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["kkt-check", "--model", str(path),
                         "--data", str(data_path), "--format", "smm1"])
        assert [str(warning.message) for warning in caught] == []
        assert code in (0, 4), err.getvalue()
        assert len(err.getvalue().splitlines()) == (code != 0)


class TestExportWeights:
    def test_writes_both_files(self, trained, tmp_path, capsys):
        model_path, _, _, _ = trained
        csv_path, pgm_path = tmp_path / "w.csv", tmp_path / "w.pgm"
        assert main(["export-weights", "--model", str(model_path),
                     "--out-csv", str(csv_path), "--out-pgm", str(pgm_path)]) == 0
        capsys.readouterr()
        loaded = load_model(model_path)
        back = np.loadtxt(csv_path, delimiter=",")
        np.testing.assert_array_equal(back, loaded.w)
        assert pgm_path.read_bytes().startswith(b"P5\n6 8\n255\n")


class TestSweepCommands:
    def test_small_sweep(self, smm1_file, tmp_path, capsys):
        path, _ = smm1_file
        out_csv = tmp_path / "sweep.csv"
        code = main(["sweep", "--data", str(path), "--format", "smm1",
                     "--tune-on-test", "--split-ratio", "0.7", "--seed", "1",
                     "--grid-beta", "0.1,0.5", "--grid-sigma", "0.1",
                     "--grid-rank", "2", "--grid-tau", "1e-3",
                     "--out-csv", str(out_csv)])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["configurations"] == 2
        assert summary["best"]["rank"] == 2
        assert len(out_csv.read_text().splitlines()) == 3  # header + 2 rows

    def test_noise_bench_level_zero_matches_eval(self, smm1_file, tmp_path, capsys):
        path, _ = smm1_file
        out_csv = tmp_path / "noise.csv"
        code = main(["noise-bench", "--data", str(path), "--format", "smm1",
                     "--beta", "0.1", "--sigma", "0.1", "--rank", "2",
                     "--seed", "1", "--levels", "0", "--noise-seeds", "1",
                     "--out-csv", str(out_csv)])
        assert code == 0
        bench = json.loads(capsys.readouterr().out)
        level_zero = bench["mean_accuracy_by_level"]["0"]
        lines = out_csv.read_text().splitlines()
        assert len(lines) == 2
        accuracy_col = lines[1].split(",")[10]
        assert float(accuracy_col) == pytest.approx(level_zero)

    def test_noise_bench_keys_every_distinct_level(self, smm1_file, capsys):
        # 0.1000001 prints as 0.1 under :g, so it is keyed by its exact text;
        # a level that :g prints exactly keeps that key.
        path, _ = smm1_file
        code = main(["noise-bench", "--data", str(path), "--format", "smm1",
                     "--rank", "2", "--maxit", "3", "--seed", "1",
                     "--levels", "0.1,0.1000001,2,0,1e-05", "--noise-seeds", "1"])
        assert code == 0
        bench = json.loads(capsys.readouterr().out)
        assert sorted(bench["mean_accuracy_by_level"]) == [
            "0", "0.1", "0.1000001", "1e-05", "2"]

    def test_sensitivity_command(self, smm1_file, tmp_path, capsys):
        path, _ = smm1_file
        out_csv = tmp_path / "sens.csv"
        code = main(["sensitivity", "--data", str(path), "--format", "smm1",
                     "--seed", "1", "--r-values", "1,2",
                     "--beta-values", "0.1", "--out-csv", str(out_csv)])
        assert code == 0
        capsys.readouterr()
        assert len(out_csv.read_text().splitlines()) == 3

    def test_sweep_deterministic_across_runs(self, smm1_file, tmp_path, capsys):
        path, _ = smm1_file
        outputs = []
        for tag in ("x", "y"):
            out_csv = tmp_path / f"sweep-{tag}.csv"
            assert main(["sweep", "--data", str(path), "--format", "smm1",
                         "--tune-on-test", "--seed", "1",
                         "--grid-beta", "0.1", "--grid-sigma", "0.1",
                         "--grid-rank", "2", "--grid-tau", "1e-3,1e-2",
                         "--out-csv", str(out_csv)]) == 0
            capsys.readouterr()
            outputs.append(out_csv.read_bytes())
        assert outputs[0] == outputs[1]


class TestManifest:
    def test_train_via_manifest(self, smm1_file, tmp_path, capsys):
        path, _ = smm1_file
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "smm1", "path": str(path)}))
        code = main(["train", "--manifest", str(manifest),
                     "--rank", "2", "--maxit", "5"])
        assert code == 0
        capsys.readouterr()

    def test_smm1_manifest_reshape_applied(self, smm1_file, tmp_path, capsys):
        path, _ = smm1_file  # 8x6 samples
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"format": "smm1", "path": str(path),
                                        "reshape": [6, 8]}))
        model_path = tmp_path / "model.json"
        code = main(["train", "--manifest", str(manifest), "--rank", "2",
                     "--maxit", "5", "--out", str(model_path)])
        assert code == 0
        capsys.readouterr()
        assert load_model(model_path).w.shape == (6, 8)

    @pytest.fixture
    def header_csv(self, tmp_path):
        """A 2x3 CSV dataset with a header line, a model for it and a manifest."""
        data = tmp_path / "d.csv"
        data.write_text("y,a,b,c,d,e,f\n1,0,0,0,0,0,1\n-1,1,1,1,1,1,0\n")
        model_path = tmp_path / "model.json"
        save_model(model_path, np.eye(2, 3), 0.5, Hyperparams(beta=0.1, sigma=0.2, rank=1))
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps({"path": str(data), "reshape": [2, 3],
                                        "has_header": True}))
        return data, model_path, manifest

    def test_header_csv_via_manifest_equals_flags(self, header_csv, capsys):
        data, model_path, manifest = header_csv
        assert main(["eval", "--model", str(model_path), "--manifest", str(manifest)]) == 0
        via_manifest = capsys.readouterr().out
        assert main(["eval", "--model", str(model_path), "--data", str(data),
                     "--reshape", "2", "3", "--has-header"]) == 0
        assert capsys.readouterr().out == via_manifest

    @pytest.mark.parametrize("flag", [["--data", "d.csv"], ["--format", "csv"],
                                      ["--label-column", "0"], ["--has-header"],
                                      ["--reshape", "2", "3"], ["--normalize", "none"]])
    def test_manifest_with_another_data_flag_is_usage_error(self, header_csv, capsys,
                                                            flag):
        # Even a flag at its default value would be ignored, so it is refused.
        _, model_path, manifest = header_csv
        assert main(["eval", "--model", str(model_path), "--manifest", str(manifest),
                     *flag]) == 2
        assert flag[0] in capsys.readouterr().err

    def test_cv_sweep_mode_labeled(self, smm1_file, capsys):
        path, _ = smm1_file
        code = main(["sweep", "--data", str(path), "--format", "smm1",
                     "--seed", "1", "--grid-beta", "0.1", "--grid-sigma", "0.1",
                     "--grid-rank", "2", "--grid-tau", "1e-3"])
        assert code == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["validation_mode"] == "cv3"
        assert summary["best"]["rank"] == 2


class TestReshape:
    def test_smm1_reshape(self, smm1_file, capsys):
        path, data = smm1_file  # 8x6 samples; 48 entries reshape to 4x12
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--reshape", "4", "12", "--rank", "2", "--maxit", "5"])
        assert code == 0
        capsys.readouterr()

    def test_smm1_reshape_mismatch_is_data_error(self, smm1_file, capsys):
        path, _ = smm1_file
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--reshape", "5", "5", "--rank", "2"])
        assert code == 3
        assert "reshape" in capsys.readouterr().err


class TestSeedFallback:
    def test_env_seed_used(self, smm1_file, capsys, monkeypatch):
        path, _ = smm1_file
        monkeypatch.setenv("HLSMM_SEED", "77")
        code = main(["train", "--data", str(path), "--format", "smm1",
                     "--rank", "2", "--maxit", "1"])
        assert code == 0
        capsys.readouterr()


_SENSITIVITY = ["sensitivity", "--r-values", "2", "--beta-values", "0.1"]


class TestEveryFlagIsRead:
    """A command takes only the flags that change what it does."""

    @pytest.mark.parametrize("argv, flag", [
        *((["sweep"], flag) for flag in
          ("--beta", "--sigma", "--rank", "--tau1", "--tau2", "--tau3")),
        (_SENSITIVITY, "--rank"), (_SENSITIVITY, "--beta")])
    def test_weight_flag_a_grid_overwrites_is_usage_error(self, smm1_file, tmp_path,
                                                          capsys, argv, flag):
        path, _ = smm1_file
        with calls_to(solver, "_lockstep") as fits:
            code = main([*argv, "--data", str(path), "--format", "smm1",
                         "--out-csv", str(tmp_path / "out.csv"), flag, "2"])
        assert code == 2
        assert not fits
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err

    @pytest.mark.parametrize("mode", ["exact", "paper"])
    def test_removed_z_update_flag_is_usage_error(self, smm1_file, capsys, mode):
        # The slack block has one update, so the flag that chose it is gone.
        path, _ = smm1_file
        with calls_to(solver, "_lockstep") as fits:
            code = main(["train", "--data", str(path), "--format", "smm1",
                         "--z-update", mode])
        assert code == 2
        assert not fits
        assert f"unrecognized arguments: --z-update {mode}" in capsys.readouterr().err

    def test_train_help_omits_z_update(self, capsys):
        assert main(["train", "--help"]) == 0
        assert "--z-update" not in capsys.readouterr().out

    @pytest.mark.parametrize("folds", ["2", "3", "5"])
    def test_tune_on_test_refuses_cv_folds(self, smm1_file, capsys, folds):
        # Even the default fold count is refused: the held-out mode has no folds.
        path, _ = smm1_file
        with calls_to(solver, "_lockstep") as fits:
            code = main(["sweep", "--data", str(path), "--format", "smm1", "--tune-on-test",
                         "--cv-folds", folds, "--grid-rank", "2"])
        assert code == 2
        assert not fits
        err = capsys.readouterr().err
        assert "--cv-folds" in err and len(err.splitlines()) == 1

    @pytest.mark.parametrize("folds", ["0", "1"])
    def test_too_few_folds_is_usage_error(self, smm1_file, capsys, folds):
        path, _ = smm1_file
        with calls_to(solver, "_lockstep") as fits:
            code = main(["sweep", "--data", str(path), "--format", "smm1",
                         "--cv-folds", folds, "--grid-rank", "2"])
        assert code == 2
        assert not fits
        assert capsys.readouterr().err == "usage error: folds must be at least 2\n"

    def test_more_folds_than_the_larger_class_is_usage_error(self, smm1_file, capsys):
        path, data = smm1_file
        train, _ = split(data, 0.7, seed=0)
        positives = int((train.ys == 1).sum())
        negatives = train.m - positives
        folds = max(positives, negatives) + 1
        with calls_to(solver, "_lockstep") as fits:
            code = main(["sweep", "--data", str(path), "--format", "smm1",
                         "--cv-folds", str(folds), "--grid-rank", "2"])
        assert code == 2
        assert not fits
        assert capsys.readouterr().err == (
            f"usage error: {folds} folds need at least {folds} training samples of one "
            f"label; there are {positives} of +1 and {negatives} of -1\n")

    def test_cv_folds_sets_the_mode(self, smm1_file, capsys):
        path, _ = smm1_file
        assert main(["sweep", "--data", str(path), "--format", "smm1", "--seed", "1",
                     "--cv-folds", "2", "--grid-beta", "0.1", "--grid-sigma", "0.1",
                     "--grid-rank", "2", "--grid-tau", "1e-3"]) == 0
        assert json.loads(capsys.readouterr().out)["validation_mode"] == "cv2"

    def test_help_gives_one_default_per_flag(self, capsys):
        assert main(["--help"]) == 0
        commands = re.search(r"\{([a-z,-]+)\}", capsys.readouterr().out).group(1).split(",")
        assert len(commands) == 8
        for command in commands:
            assert main([command, "--help"]) == 0
            text = capsys.readouterr().out
            assert "(default: None)" not in text
            options = text.split("options:\n", 1)[1]
            for entry in re.split(r"\n(?=  -)", options):
                assert entry.lower().count("default") <= 1, (command, entry)

    def test_readme_command_lines_parse(self):
        readme = README.read_text()
        block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        lines = [shlex.split(line) for line in block.splitlines() if line.startswith("hlsmm ")]
        assert len(lines) >= 8
        parser = build_parser()
        for argv in lines:
            assert parser.parse_args(argv[1:]).command == argv[1]

    def test_readme_quickstart_runs(self, capsys):
        blocks = re.findall(r"```python\n(.*?)```", README.read_text(), re.S)
        assert len(blocks) == 1
        exec(compile(blocks[0], "README.md", "exec"), {})
        accuracy, *report = capsys.readouterr().out.splitlines()
        assert accuracy == "100.0"
        fields = {field.name for field in dataclasses.fields(KktReport)}
        assert {line.split(" = ")[0] for line in report} == fields - {"lam"}


# Extreme finite values for the numeric flags: the ends of the float range
# and the smallest subnormal, and integers past int64.
EXTREME_REALS = ("1e308", "-1e308", "5e-324", "1.7976931348623157e308")
EXTREME_INTS = (str(2**63), str(10**30))
_DATA_FLAGS = {"--label-column": EXTREME_INTS, "--reshape": EXTREME_INTS}
_FIT_FLAGS = {**_DATA_FLAGS, "--maxit": EXTREME_INTS, "--tol-step": EXTREME_REALS,
              "--tol-obj": EXTREME_REALS, "--seed": EXTREME_INTS,
              "--step": tuple(f"{kind}:{value}" for kind in ("backtracking", "fixed")
                              for value in EXTREME_REALS)}
_WEIGHT_FLAGS = {"--beta": EXTREME_REALS, "--sigma": EXTREME_REALS, "--rank": EXTREME_INTS,
                 "--tau1": EXTREME_REALS, "--tau2": EXTREME_REALS, "--tau3": EXTREME_REALS}
# Per command: its arguments at a small maxit, and the values of each numeric flag.
_EXTREME_COMMANDS = {
    "train": (["--rank", "2", "--maxit", "3"], {**_FIT_FLAGS, **_WEIGHT_FLAGS}),
    "sweep": (["--grid-beta", "0.1", "--grid-sigma", "0.1", "--grid-rank", "2",
               "--grid-tau", "1e-3", "--cv-folds", "2", "--maxit", "3"],
              {**_FIT_FLAGS, "--split-ratio": EXTREME_REALS, "--cv-folds": EXTREME_INTS,
               "--grid-beta": EXTREME_REALS, "--grid-sigma": EXTREME_REALS,
               "--grid-rank": EXTREME_INTS, "--grid-tau": EXTREME_REALS}),
    "noise-bench": (["--rank", "2", "--maxit", "3", "--levels", "0,0.1",
                     "--noise-seeds", "1"],
                    {**_FIT_FLAGS, **_WEIGHT_FLAGS, "--split-ratio": EXTREME_REALS,
                     "--levels": EXTREME_REALS, "--noise-seeds": EXTREME_INTS}),
    "sensitivity": (["--r-values", "2", "--beta-values", "0.1", "--maxit", "3"],
                    {**_FIT_FLAGS, "--split-ratio": EXTREME_REALS,
                     **{flag: _WEIGHT_FLAGS[flag]
                        for flag in ("--sigma", "--tau1", "--tau2", "--tau3")},
                     "--r-values": EXTREME_INTS, "--beta-values": EXTREME_REALS}),
    "kkt-check": ([], {**_DATA_FLAGS, "--zero-tol": EXTREME_REALS}),
}


@st.composite
def extreme_invocations(draw):
    """A command and one of its numeric flags at an extreme finite value."""
    command = draw(st.sampled_from(sorted(_EXTREME_COMMANDS)))
    base, flags = _EXTREME_COMMANDS[command]
    flag = draw(st.sampled_from(sorted(flags)))
    value = draw(st.sampled_from(flags[flag]))
    # --flag=value, so that argparse reads "-1e308" as a value, not a flag.
    given_flag = [flag, value, draw(st.sampled_from(EXTREME_INTS))] if flag == "--reshape" \
        else [f"{flag}={value}"]
    return command, base, given_flag


class TestExtremeFlagValues:
    """Every numeric flag, at the edge of the float or integer range, reaches a
    documented exit code with at most one stderr line and no warning."""

    @pytest.fixture(scope="class")
    def extreme_inputs(self, tmp_path_factory):
        # A 60-sample CSV of 3x4 samples and a model trained on it.
        folder = tmp_path_factory.mktemp("extreme")
        data, _, _ = make_lowrank_separable(m=60, p=3, q=4, seed=211)
        rows = np.column_stack((data.ys, data.xs.reshape(data.m, -1)))
        csv = folder / "data.csv"
        csv.write_text("".join(",".join(repr(float(v)) for v in row) + "\n" for row in rows))
        model_path = folder / "model.json"
        data_args = ["--data", str(csv), "--reshape", "3", "4"]
        assert main(["train", *data_args, "--rank", "2", "--maxit", "5",
                     "--out", str(model_path)]) == 0
        return folder, data_args, model_path

    @settings(max_examples=60, deadline=None)
    @given(invocation=extreme_invocations())
    def test_extreme_value_reaches_a_documented_exit(self, extreme_inputs, invocation):
        folder, data_args, model_path = extreme_inputs
        command, base, given_flag = invocation
        if given_flag[0] == "--reshape":  # the drawn shape replaces the data's
            data_args = data_args[:2]
        argv = [command, *data_args, *base, *given_flag]
        if command == "kkt-check":
            argv += ["--model", str(model_path)]
        if command == "sensitivity":
            argv += ["--out-csv", str(folder / "surface.csv")]
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(argv)
        assert [str(w.message) for w in caught] == []
        assert code in (0, 2, 3, 4), (argv, err.getvalue())
        assert len(err.getvalue().splitlines()) == (code != 0), (argv, err.getvalue())
