import json

import numpy as np
import pytest

from hlsmm import DataError, Hyperparams, load_model, save_model
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


class TestLoadModel:
    def test_valid_file_loads(self, model_doc):
        path, _ = model_doc
        loaded = load_model(path)
        assert loaded.sample_shape == (2, 3)
        assert (loaded.b, loaded.rank_bound, loaded.seed) == (0.25, 1, 3)
        assert loaded.dataset_name == "tiny"

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

    @pytest.mark.parametrize("key", ["rank_bound", "p", "b", "w_b64",
                                     "hyperparams"])
    def test_missing_field(self, model_doc, key):
        path, doc = model_doc
        del doc[key]
        with pytest.raises(DataError, match=f"missing '{key}'"):
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
        ("p", "2"), ("p", 2.0), ("p", True), ("rank_bound", None),
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

    def test_cli_exit_code_is_data_error(self, model_doc, tmp_path, capsys):
        path, _ = model_doc
        path.write_text("[]")
        data = tmp_path / "d.csv"
        data.write_text("1,0,0,0,0,0,0\n-1,1,1,1,1,1,1\n")
        code = main(["predict", "--model", str(path), "--data", str(data),
                     "--reshape", "2", "3"])
        assert code == 3
        assert "not a JSON object" in capsys.readouterr().err
