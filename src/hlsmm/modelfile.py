"""Trained-model container: a JSON document with an integrity-checked weight blob.

The weight matrix is stored as base64 of its little-endian float64 row-major
bytes next to a sha-256 digest of those bytes.  Serialization is canonical
(sorted keys, fixed indentation), so save -> load -> save is byte-identical.
"""

from __future__ import annotations

import base64
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import DataError
from .model import Hyperparams, StepPolicy

FORMAT_VERSION = 1
BUILD_ID = "hlsmm-0.1.0"
_REAL = (int, float)


@dataclass(frozen=True)
class LoadedModel:
    w: np.ndarray
    b: float
    rank_bound: int
    hyperparams: Hyperparams
    dataset_name: str
    seed: int
    build: str

    @property
    def sample_shape(self) -> tuple[int, int]:
        return self.w.shape


def _hp_to_dict(hp: Hyperparams) -> dict:
    return {
        "beta": hp.beta, "sigma": hp.sigma, "rank": hp.rank,
        "tau1": hp.tau1, "tau2": hp.tau2, "tau3": hp.tau3,
        "maxit": hp.maxit, "tol_step": hp.tol_step, "tol_obj": hp.tol_obj,
        "step": {"kind": hp.step.kind, "alpha0": hp.step.alpha0,
                 "shrink": hp.step.shrink, "max_halvings": hp.step.max_halvings},
        "z_update": hp.z_update, "seed": hp.seed,
    }


def _hp_from_dict(raw: dict) -> Hyperparams:
    """Hyperparams from a model file; a field of the wrong JSON type is a TypeError."""
    step = _object(raw.get("step", {}), "step")
    alpha0 = step.get("alpha0")
    return Hyperparams(
        **{key: _typed(raw[key], _REAL, key)
           for key in ("beta", "sigma", "tau1", "tau2", "tau3", "tol_step", "tol_obj")},
        rank=_typed(raw["rank"], int, "rank"), maxit=_typed(raw["maxit"], int, "maxit"),
        step=StepPolicy(
            kind=_typed(step.get("kind", "backtracking"), str, "kind"),
            alpha0=None if alpha0 is None else _typed(alpha0, _REAL, "alpha0"),
            shrink=_typed(step.get("shrink", 0.5), _REAL, "shrink"),
            max_halvings=_typed(step.get("max_halvings", 30), int, "max_halvings")),
        z_update=_typed(raw.get("z_update", "exact"), str, "z_update"),
        seed=_typed(raw.get("seed", 0), int, "seed"),
    )


def _object(value, key: str) -> dict:
    if not isinstance(value, dict):
        raise TypeError(f"{key} must be a JSON object")
    return value


def _typed(value, kinds, key: str):
    """``value`` if it is an instance of ``kinds`` (a bool is no number), else TypeError."""
    if not isinstance(value, kinds) or isinstance(value, bool):
        raise TypeError(f"{key} has the wrong type: {value!r}")
    return value


def save_model(path, w: np.ndarray, b: float, hp: Hyperparams,
               dataset_name: str = "", seed: int = 0) -> None:
    w = np.ascontiguousarray(np.asarray(w, dtype="<f8"))
    blob = w.tobytes(order="C")
    document = {
        "format_version": FORMAT_VERSION,
        "p": int(w.shape[0]),
        "q": int(w.shape[1]),
        "rank_bound": int(hp.rank),
        "b": float(b),
        "hyperparams": _hp_to_dict(hp),
        "w_b64": base64.b64encode(blob).decode("ascii"),
        "w_sha256": hashlib.sha256(blob).hexdigest(),
        "provenance": {"dataset": dataset_name, "seed": int(seed), "build": BUILD_ID},
    }
    Path(path).write_text(json.dumps(document, indent=2, sort_keys=True) + "\n")


def load_model(path) -> LoadedModel:
    """Read a model file; any ill-formed, ill-typed or non-finite value is a DataError."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{path}: no such file")
    try:
        document = json.loads(path.read_bytes().decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"{path}: not a valid model file: {exc}") from exc
    if not isinstance(document, dict):
        raise DataError(f"{path}: not a valid model file: not a JSON object")
    if document.get("format_version") != FORMAT_VERSION:
        raise DataError(f"{path}: unsupported model format version")
    try:
        p, q, rank_bound = (_typed(document[key], int, key)
                            for key in ("p", "q", "rank_bound"))
        b = float(_typed(document["b"], _REAL, "b"))
        blob = base64.b64decode(document["w_b64"])
        digest = document["w_sha256"]
        hp = _hp_from_dict(_object(document["hyperparams"], "hyperparams"))
        provenance = _object(document.get("provenance", {}), "provenance")
        dataset_name = _typed(provenance.get("dataset", ""), str, "dataset")
        seed = _typed(provenance.get("seed", 0), int, "seed")
        build = _typed(provenance.get("build", ""), str, "build")
    except KeyError as exc:
        raise DataError(f"{path}: malformed model file (missing {exc})") from exc
    except (ValueError, TypeError, OverflowError) as exc:
        raise DataError(f"{path}: malformed model file ({exc})") from exc
    if p < 1 or q < 1:
        raise DataError(f"{path}: weight shape {p}x{q} is not at least 1x1")
    if len(blob) != p * q * 8:
        raise DataError(f"{path}: weight payload has {len(blob)} bytes, "
                        f"expected {p * q * 8}")
    if hashlib.sha256(blob).hexdigest() != digest:
        raise DataError(f"{path}: weight digest mismatch (corrupted file)")
    w = np.frombuffer(blob, dtype="<f8").reshape(p, q).copy()
    if not (np.isfinite(w).all() and np.isfinite(b)):
        raise DataError(f"{path}: weights and bias must be finite")
    return LoadedModel(w=w, b=b, rank_bound=rank_bound, hyperparams=hp,
                       dataset_name=dataset_name, seed=seed, build=build)
