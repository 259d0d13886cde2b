import json
import re

import numpy as np
import pytest

from hlsmm import DataError, Hyperparams, InvalidArgumentError, load_model, save_model
from hlsmm.cli import main


@pytest.fixture
def model_doc(tmp_path):
    """A valid model file and its parsed document."""
    path = tmp_path / "model.json"
    w = np.arange(6, dtype=np.float64).reshape(2, 3) / 7.0
    save_model(path, w, 0.25, Hyperparams(beta=0.1, sigma=0.2, rank=1),
               dataset_name="tiny", seed=3)
    return path, json.loads(path.read_text())


def write_doc(path, doc):
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")
    return path


def version_2(doc):
    """``doc`` as format version 2 wrote it, with the key version 3 dropped."""
    doc["format_version"] = 2
    doc["hyperparams"]["z_update"] = "exact"
    return doc


def version_1(doc):
    """``doc`` as format version 1 wrote it, with the three keys version 2 dropped."""
    doc = version_2(doc)
    doc["format_version"] = 1
    doc["rank_bound"] = doc["hyperparams"]["rank"]
    doc["hyperparams"]["seed"] = doc["provenance"]["seed"]
    doc["hyperparams"]["step"]["shrink"] = 0.5
    return doc


SECTIONS = ["", "hyperparams", "hyperparams.step", "provenance"]


def section_of(doc, section):
    """The JSON object at a dotted ``section`` path; "" is the top level."""
    for key in filter(None, section.split(".")):
        doc = doc[key]
    return doc


class TestLoadModel:
    def test_valid_file_loads(self, model_doc):
        path, _ = model_doc
        loaded = load_model(path)
        assert loaded.sample_shape == (2, 3)
        assert (loaded.b, loaded.hyperparams.rank, loaded.seed) == (0.25, 1, 3)
        assert loaded.dataset_name == "tiny"

    def test_numpy_valued_hyperparams_round_trip(self, tmp_path):
        hp = Hyperparams(beta=np.float32(0.1), sigma=np.float64(0.2), rank=np.int64(1),
                         maxit=np.uint8(50))
        path = tmp_path / "model.json"
        save_model(path, np.eye(2, 3), 0.5, hp)
        assert load_model(path).hyperparams == hp

    @pytest.mark.parametrize("text", ["[]", "3", "null", '"model"'])
    def test_json_that_is_not_an_object(self, tmp_path, text):
        path = tmp_path / "m.json"
        path.write_text(text)
        with pytest.raises(DataError, match="not a JSON object"):
            load_model(path)

    def test_bytes_that_are_not_utf8(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_bytes(b'{"format_version": 1, "b": "\xff\xfe"}')
        with pytest.raises(DataError, match="not a valid model file"):
            load_model(path)

    @pytest.mark.parametrize("key", ["q", "p", "b", "w_b64",
                                     "hyperparams"])
    def test_missing_field(self, model_doc, key):
        path, doc = model_doc
        del doc[key]
        with pytest.raises(DataError, match=f"missing '{key}'"):
            load_model(write_doc(path, doc))

    @pytest.mark.parametrize("section", SECTIONS, ids=lambda section: section or "top")
    def test_every_written_key_is_required(self, model_doc, section):
        path, doc = model_doc
        for key in sorted(section_of(doc, section)):
            broken = json.loads(json.dumps(doc))
            del section_of(broken, section)[key]
            expected = ("unsupported model format version" if key == "format_version"
                        else f"missing '{key}'")
            with pytest.raises(DataError, match=expected):
                load_model(write_doc(path, broken))

    @pytest.mark.parametrize("section", SECTIONS, ids=lambda section: section or "top")
    def test_unknown_key_at_any_level(self, model_doc, section):
        path, doc = model_doc
        section_of(doc, section)["gamma"] = 5
        with pytest.raises(DataError, match=re.escape("unknown keys ['gamma']")):
            load_model(write_doc(path, doc))

    @pytest.mark.parametrize("old", [version_1, version_2], ids=lambda old: old.__name__)
    def test_old_version_file_is_refused(self, model_doc, old):
        path, doc = model_doc
        doc = old(doc)
        with pytest.raises(DataError, match=f"version {doc['format_version']}; "
                                            "this build reads version 3"):
            load_model(write_doc(path, doc))

    def test_provenance_holds_the_only_seed(self, model_doc):
        path, doc = model_doc
        assert "seed" not in doc["hyperparams"] and "rank_bound" not in doc
        assert load_model(path).seed == 3

    @pytest.mark.parametrize("seed, message", [
        (-1, "seed must be non-negative"), (1.5, "seed must be an integer, got 1.5"),
        (True, "seed must be an integer, got True")])
    def test_save_refuses_a_bad_seed(self, tmp_path, seed, message):
        with pytest.raises(InvalidArgumentError, match=message):
            save_model(tmp_path / "model.json", np.zeros((2, 3)), 0.0,
                       Hyperparams(beta=0.1, sigma=0.2, rank=1), seed=seed)
        assert not (tmp_path / "model.json").exists()

    def test_negative_seed(self, model_doc):
        path, doc = model_doc
        doc["provenance"]["seed"] = -1
        with pytest.raises(DataError, match="seed must be non-negative"):
            load_model(write_doc(path, doc))

    def test_missing_hyperparameter(self, model_doc):
        path, doc = model_doc
        del doc["hyperparams"]["beta"]
        with pytest.raises(DataError, match="missing 'beta'"):
            load_model(write_doc(path, doc))

    @pytest.mark.parametrize("key", ["hyperparams", "provenance"])
    @pytest.mark.parametrize("value", [[], "x", 1, None])
    def test_section_that_is_not_an_object(self, model_doc, key, value):
        path, doc = model_doc
        doc[key] = value
        with pytest.raises(DataError, match=f"{key} must be a JSON object"):
            load_model(write_doc(path, doc))

    def test_step_that_is_not_an_object(self, model_doc):
        path, doc = model_doc
        doc["hyperparams"]["step"] = "backtracking"
        with pytest.raises(DataError, match="step must be a JSON object"):
            load_model(write_doc(path, doc))

    @pytest.mark.parametrize("key, value", [
        ("p", "2"), ("p", 2.0), ("p", True), ("q", None),
        ("b", "0.25"), ("b", "nan"), ("b", True)])
    def test_ill_typed_field(self, model_doc, key, value):
        path, doc = model_doc
        doc[key] = value
        with pytest.raises(DataError, match=f"{key} has the wrong type"):
            load_model(write_doc(path, doc))

    @pytest.mark.parametrize("key, value", [
        ("dataset", 5), ("seed", "3"), ("build", None)])
    def test_ill_typed_provenance(self, model_doc, key, value):
        path, doc = model_doc
        doc["provenance"][key] = value
        with pytest.raises(DataError, match=f"{key} has the wrong type"):
            load_model(write_doc(path, doc))

    def test_negative_shape_with_matching_payload(self, model_doc):
        path, doc = model_doc
        doc.update(p=-1, q=-1)  # p * q * 8 = 8, so one weight would "fit"
        with pytest.raises(DataError, match="not at least 1x1"):
            load_model(write_doc(path, doc))

    @pytest.mark.parametrize("key, value", [
        ("rank", 1.7), ("rank", "1"), ("rank", True), ("maxit", 5.9),
        ("beta", True), ("sigma", "0.2"), ("tol_obj", None), ("maxit", 1.0)])
    def test_ill_typed_hyperparameter(self, model_doc, key, value):
        path, doc = model_doc
        doc["hyperparams"][key] = value
        with pytest.raises(DataError, match=f"{key} has the wrong type"):
            load_model(write_doc(path, doc))

    @pytest.mark.parametrize("key, value", [
        ("kind", 0), ("alpha0", "1e-3"), ("alpha0", False), ("max_halvings", "30"),
        ("max_halvings", 30.0)])
    def test_ill_typed_step_field(self, model_doc, key, value):
        path, doc = model_doc
        doc["hyperparams"]["step"][key] = value
        with pytest.raises(DataError, match=f"{key} has the wrong type"):
            load_model(write_doc(path, doc))

    def test_numeric_fields_of_either_json_type_load(self, model_doc):
        path, doc = model_doc
        doc["hyperparams"].update(beta=1, tau1=2)
        doc["hyperparams"]["step"].update(alpha0=3)
        hp = load_model(write_doc(path, doc)).hyperparams
        assert (hp.beta, hp.tau1, hp.step.alpha0) == (1, 2, 3)

    @pytest.mark.parametrize("key", ["beta", "tau1", "tol_step", "alpha0"])
    def test_infinite_hyperparameter(self, model_doc, key):
        path, doc = model_doc
        section = doc["hyperparams"]["step"] if key == "alpha0" else doc["hyperparams"]
        section[key] = float("inf")  # json writes Infinity, which it also reads
        with pytest.raises(DataError, match=f"{key} must be positive and finite"):
            load_model(write_doc(path, doc))

    def test_invalid_hyperparameter(self, model_doc):
        path, doc = model_doc
        doc["hyperparams"]["beta"] = -1.0
        with pytest.raises(DataError, match="beta must be positive"):
            load_model(write_doc(path, doc))

    def test_non_finite_bias(self, model_doc):
        path, _ = model_doc
        path.write_text(path.read_text().replace('"b": 0.25', '"b": NaN'))
        with pytest.raises(DataError, match="finite"):
            load_model(path)

    def test_non_finite_weights(self, tmp_path):
        path = tmp_path / "nan.json"
        w = np.array([[1.0, np.nan], [0.0, 2.0]])
        save_model(path, w, 0.0, Hyperparams(beta=0.1, sigma=0.2, rank=1))
        with pytest.raises(DataError, match="finite"):
            load_model(path)

    def test_directory_is_data_error(self, tmp_path):
        with pytest.raises(DataError, match="no such file"):
            load_model(tmp_path)

    def test_cli_exit_code_of_infinite_hyperparameter(self, model_doc, tmp_path, capsys):
        path, doc = model_doc
        doc["hyperparams"]["beta"] = float("inf")
        write_doc(path, doc)
        data = tmp_path / "d.csv"
        data.write_text("1,0,0,0,0,0,0\n-1,1,1,1,1,1,1\n")
        code = main(["kkt-check", "--model", str(path), "--data", str(data),
                     "--reshape", "2", "3"])
        assert code == 3
        assert "beta must be positive and finite" in capsys.readouterr().err

    @pytest.mark.parametrize("change", ["unknown", "missing", "version_1", "version_2",
                                        "seed"])
    def test_cli_exit_code_of_malformed_document(self, model_doc, tmp_path, capsys,
                                                 change):
        path, doc = model_doc
        if change == "unknown":
            doc["hyperparams"]["step"]["bogus"] = "x"
        elif change == "missing":
            del doc["provenance"]["build"]
        elif change == "seed":
            doc["provenance"]["seed"] = -1
        elif change == "version_2":
            version_2(doc)
        else:
            version_1(doc)
        write_doc(path, doc)
        data = tmp_path / "d.csv"
        data.write_text("1,0,0,0,0,0,0\n-1,1,1,1,1,1,1\n")
        code = main(["kkt-check", "--model", str(path), "--data", str(data),
                     "--reshape", "2", "3"])
        assert code == 3
        err = capsys.readouterr().err
        assert "data error" in err
        if change.startswith("version"):
            assert "this build reads version 3" in err

    def test_cli_exit_code_is_data_error(self, model_doc, tmp_path, capsys):
        path, _ = model_doc
        path.write_text("[]")
        data = tmp_path / "d.csv"
        data.write_text("1,0,0,0,0,0,0\n-1,1,1,1,1,1,1\n")
        code = main(["predict", "--model", str(path), "--data", str(data),
                     "--reshape", "2", "3"])
        assert code == 3
        assert "not a JSON object" in capsys.readouterr().err
