"""Trained-model container: a JSON document with an integrity-checked weight blob.

The weight matrix is stored as base64 of its little-endian float64 row-major
bytes next to a sha-256 digest of those bytes.  Serialization is canonical
(sorted keys, fixed indentation), so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .data import _NUMBER, _json_object, _unique_keys
from .errors import DataError
from .model import _COUNT, Hyperparams, StepPolicy, _checked

FORMAT_VERSION = 3
BUILD_ID = "hlsmm-0.1.0"

# Every key save_model writes, at every level, with its JSON kind.
_MODEL_KINDS = {
    "format_version": int, "p": int, "q": int, "b": _NUMBER,
    "hyperparams": {
        "beta": _NUMBER, "sigma": _NUMBER, "rank": int, "tau1": _NUMBER,
        "tau2": _NUMBER, "tau3": _NUMBER, "maxit": int, "tol_step": _NUMBER,
        "tol_obj": _NUMBER,
        "step": {"kind": str, "alpha0": (*_NUMBER, None), "max_halvings": int}},
    "w_b64": str, "w_sha256": str,
    "provenance": {"dataset": str, "seed": int, "build": str}}


@dataclass(frozen=True)
class LoadedModel:
    w: np.ndarray
    b: float
    hyperparams: Hyperparams
    dataset_name: str
    seed: int
    build: str

    @property
    def sample_shape(self) -> tuple[int, int]:
        return self.w.shape


def save_model(path, w: np.ndarray, b: float, hp: Hyperparams,
               dataset_name: str = "", seed: int = 0) -> None:
    w = np.ascontiguousarray(np.asarray(w, dtype="<f8"))
    blob = w.tobytes(order="C")
    document = {
        "format_version": FORMAT_VERSION,
        "p": int(w.shape[0]),
        "q": int(w.shape[1]),
        "b": float(b),
        "hyperparams": asdict(hp),
        "w_b64": base64.b64encode(blob).decode("ascii"),
        "w_sha256": hashlib.sha256(blob).hexdigest(),
        "provenance": {"dataset": dataset_name, "seed": _checked("seed", seed, _COUNT),
                       "build": BUILD_ID},
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_model(path) -> LoadedModel:
    """Read a model file; any ill-formed, ill-typed or non-finite value is a DataError."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    try:
        document = json.loads(path.read_bytes().decode("utf-8"),
                              object_pairs_hook=_unique_keys)
    except (UnicodeDecodeError, json.JSONDecodeError, DataError) as exc:
        raise DataError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(document, dict):
        raise DataError(f"{path}: not a valid model file: not a JSON object")
    if document.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version "
                        f"{document.get('format_version')!r}; this build reads "
                        f"version {FORMAT_VERSION}")
    try:
        document = _json_object(document, _MODEL_KINDS, "model file")
        raw_hp = document["hyperparams"]
        hp = Hyperparams(**{**raw_hp, "step": StepPolicy(**raw_hp["step"])})
        blob = base64.b64decode(document["w_b64"])
        b = float(document["b"])
        provenance = document["provenance"]
        seed = _checked("seed", provenance["seed"], _COUNT)
    except (ValueError, OverflowError) as exc:  # bad hyperparameters, base64, bias or seed
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    p, q = document["p"], document["q"]
    if p < 1 or q < 1:
        raise DataError(f"{path}: weight shape {p}x{q} is not at least 1x1")
    if len(blob) != p * q * 8:
        raise DataError(f"{path}: weight payload has {len(blob)} bytes, "
                        f"expected {p * q * 8}")
    if hashlib.sha256(blob).hexdigest() != document["w_sha256"]:
        raise DataError(f"{path}: weight digest mismatch (corrupted file)")
    w = np.frombuffer(blob, dtype="<f8").reshape(p, q).copy()
    if not (np.isfinite(w).all() and np.isfinite(b)):
        raise DataError(f"{path}: weights and bias must be finite")
    return LoadedModel(w=w, b=b, hyperparams=hp, dataset_name=provenance["dataset"],
                       seed=seed, build=provenance["build"])
